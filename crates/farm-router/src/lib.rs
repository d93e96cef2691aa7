//! # bfly-farm-router — the cluster front-end for farmd shards
//!
//! One router, N farmd shards (DESIGN.md §14). The router serves its
//! clients through farmd's own job front end (`bfly_farmd::front`), so
//! `farm` points at a router exactly as it would at a daemon — and on
//! its shard side it talks through farmd's own `Client`. Placement is
//! by content key ([`ring::Ring`], whose points are named by shard
//! position, not address): every job hashes to a stable preference
//! order of shards, the first `R` of which hold its cached result, so
//! repeat submissions hit a warm shard no matter which client sends
//! them.
//!
//! Failure handling is the point (the paper's partial-failure lesson at
//! cluster scale):
//!
//! * a prober pings every shard on a deadline; consecutive failures
//!   evict ([`health::Health`]), rejoin goes through probation;
//! * every popped run of jobs goes through one routing loop
//!   ([`router`]): jobs are bucketed by shard, each bucket leaves in one
//!   write, and a job whose shard refuses it or dies mid-flight fails
//!   over down its preference order within its own budget — counted in
//!   `stats` as `rerouted`, delivered at most once (`duplicates` counts
//!   suppressed late copies); execution is at-least-once, which is safe
//!   because runs are deterministic and results content-addressed, so a
//!   replay is byte-identical;
//! * membership changes trigger a warm rebalance ([`rebalance`]): cache
//!   entries are copied so every key is again held by its `R` preferred
//!   live shards;
//! * `lost` in `stats` counts submitted jobs that reached no terminal
//!   verdict — the chaos harness (`bfly-bench`) asserts it stays 0 under
//!   seeded shard kills, link faults, and disk corruption.

#![forbid(unsafe_code)]

pub mod health;
pub mod rebalance;
pub mod ring;
pub mod router;

/// Lock a mutex, recovering the data if a previous holder panicked —
/// the same degradation policy as `bfly_farmd::locked`: shared state is
/// consistent between operations, so a poisoned lock must downgrade to
/// a plain lock, never kill the router.
pub(crate) fn locked<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

pub use health::{Health, HealthPolicy};
pub use ring::Ring;
pub use router::{spawn, RouterConfig, RouterHandle};
