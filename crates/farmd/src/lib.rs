//! # bfly-farmd — the experiment-serving daemon
//!
//! The reproduction's serving layer (DESIGN.md §12): a std-only daemon
//! that serves experiment runs over a JSON-lines protocol on a TCP or
//! Unix socket. Clients submit jobs `{exp, params, seed}` singly or in
//! batches; a shard scheduler fans cache misses across a work-stealing
//! worker pool (the `parallel_sweep` determinism contract: results are a
//! function of job identity, never worker identity); a content-addressed
//! result cache (key = hash of exp + canonicalized params + seed +
//! engine version) answers repeat hits without simulation, with LRU
//! bounds and write-through disk persistence under `FARM_CACHE/`.
//!
//! Robustness discipline carried over from the fault-injection work
//! (DESIGN.md §9): per-job wall-clock deadlines and bounded retries
//! classify outcomes as [`job::Verdict`]s, a worker panic quarantines
//! the job rather than the daemon, and SIGTERM (or `{"op":"shutdown"}`)
//! drains gracefully — stop accepting, finish the queue, exit.
//!
//! Clients are answered by [`front`], the one implementation of the job
//! protocol, which the cluster router (`bfly-farm-router`) serves
//! through too, with its own [`front::Executor`].
//!
//! The crate is generic over a [`server::JobRunner`]; the experiment
//! registry (and the `farmd`/`farm` binaries) live in `bfly-bench`,
//! which owns the simulation stack. See `README.md` for the protocol
//! quickstart and `tests/farm_determinism.rs` for the bit-identity
//! guarantee: for any job, cached bytes == cold-recomputed bytes.

// Every unsafe operation must be visible (and justified) at its own site.
#![deny(unsafe_op_in_unsafe_fn)]
// Without poll(2) the reactor, the only caller of the verb code, is the
// stub below.
#![cfg_attr(not(unix), allow(dead_code))]
pub mod cache;
pub mod client;
pub mod front;
pub mod job;
/// The workspace JSON layer, re-exported so `bfly_farmd::json::{parse,
/// Value, push_json_str}` stays the one path the router and its clients use.
pub use bfly_json as json;
#[cfg(unix)]
pub(crate) mod reactor;
/// Targets without poll(2) have no reactor, so no front end: the wake
/// pipe cannot be made, and every farmd or router `spawn` there returns
/// [`std::io::ErrorKind::Unsupported`]. The uninhabited pipe makes the
/// rest statically unreachable.
#[cfg(not(unix))]
pub(crate) mod reactor {
    use crate::front::{Acceptor, Executor, Front};

    pub(crate) enum WakePipe {}

    impl WakePipe {
        pub(crate) fn new() -> std::io::Result<WakePipe> {
            Err(std::io::ErrorKind::Unsupported.into())
        }

        pub(crate) fn wake(&self) {
            match *self {}
        }
    }

    pub(crate) fn serve<E: Executor>(sh: &std::sync::Arc<Front<E>>, _: &Acceptor) {
        match sh.wake_pipe {}
    }
}
pub mod server;

/// Lock a mutex, recovering the data if a previous holder panicked.
///
/// The daemon's quarantine discipline extends to its own shared state: a
/// worker that panicked while holding a cache-shard or scheduler lock has
/// already been contained (the job is quarantined), and every structure
/// guarded by these mutexes is left consistent between operations — so a
/// poisoned lock must degrade to a plain lock, never kill the daemon.
pub(crate) fn locked<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

pub use cache::{content_key, content_sum, Cache, CacheStats};
pub use client::Client;
pub use front::{Executor, Front, Listen};
pub use job::{CacheMode, JobSpec, Verdict};
pub use json::Value;
pub use server::{
    install_signal_drain, signal_drain_requested, spawn, Checkpointer, JobRunner, ServerConfig,
    ServerHandle,
};
