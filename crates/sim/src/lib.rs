//! # bfly-sim — deterministic discrete-event simulation engine
//!
//! A single-threaded, virtual-time async executor purpose-built for the
//! Butterfly reproduction. Simulated processors, memories, switch ports and
//! disks are all modeled as FIFO [`resource::Resource`]s; simulated processes
//! are ordinary Rust futures spawned on a [`Sim`].
//!
//! Design properties that the rest of the workspace depends on:
//!
//! * **Determinism** — given the same seed, a simulation produces the exact
//!   same event order and the exact same results. This is what makes the
//!   Instant Replay experiments honest: nondeterminism is *injected* (latency
//!   jitter, tie-break shuffling) through the seeded [`rng::SplitMix64`], and
//!   replay can force a recorded order under a different seed.
//! * **Deadlock detection** — if live tasks remain but no timer or wakeup is
//!   outstanding, [`Sim::run`] reports a deadlock rather than hanging. The
//!   paper's Figure 6 is a Moviola view of a deadlock in an odd-even merge
//!   sort; we reproduce that workflow.
//! * **No global state** — multiple `Sim`s can coexist in one test.
//!
//! The executor is intentionally not work-stealing or multi-threaded: the
//! *simulated* machine has 128 processors; the simulator itself needs exact
//! virtual-time ordering, which a single thread provides for free.

// Every unsafe operation must be visible (and justified) at its own site.
#![deny(unsafe_op_in_unsafe_fn)]
pub mod exec;
pub mod fault;
pub mod pdes;
pub mod pdes_pool;
pub mod pdes_snap;
pub mod pdes_window;
pub mod resource;
pub mod rng;
pub mod snap;
pub mod sync;
pub mod time;

pub use exec::{
    Deadline, Elapsed, JoinHandle, RunOutcome, RunStats, Sim, SimError, StepOutcome, Watchdog,
};

/// The engine, by the name the checkpoint/restore surface uses
/// (`Engine::snapshot()` / `Engine::restore()` — see [`snap`]).
pub type Engine = Sim;

/// Version of the simulation engine's *observable behavior*: bump this
/// whenever a change can alter simulated results (event ordering, cost
/// model, RNG). Consumers that memoize simulation output — the farm
/// daemon's content-addressed result cache — fold this into their cache
/// keys, so an engine change silently invalidates every stale entry
/// instead of serving bytes the current engine would not reproduce.
/// (2 = the PR 2 fast-path executor; the PR 3 probes and the serving
/// layer are observational and did not bump it. 3 = executor-run PNC
/// legs: simulated times, grant order and counters are unchanged, but a
/// fused remote reference polls its task once instead of three times, so
/// `RunStats::events` — the snapshot cut coordinate — counts fewer polls.
/// 4 = the 64 ns timer wheel: results, poll counts and cuts are unchanged,
/// but the scheduler section captures pending timers as one sorted list
/// instead of separate wheel and overflow lists, so snapshot bytes — and
/// the content keys that fold this version in — change.)
pub const ENGINE_VERSION: u32 = 4;

/// The [`ENGINE_VERSION`] at which the PDES engine's observable behavior
/// last changed; PDES snapshots stamp it in `ENGINE_VERSION`'s place.
/// PDES results and cuts do not depend on the task executor, so a
/// task-executor-only bump (3, 4) leaves every PDES snapshot restorable
/// and byte-identical. A change to PDES results raises both together.
pub(crate) const PDES_ENGINE_VERSION: u32 = 2;

/// Layout version of the PDES snapshot sections (`pdes*`), bumped when
/// the PDES wire format changes. Orthogonal to [`ENGINE_VERSION`]: the
/// PDES determinism contract (serial ≡ windowed-parallel for every seed,
/// host count and window size) is part of the engine contract, so a
/// change to PDES *results* bumps `ENGINE_VERSION`; a change that only
/// reshapes snapshot bytes bumps this.
pub const PDES_VERSION: u32 = 1;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
pub use pdes::{
    Ctx as PdesCtx, Event as PdesEvent, LogRec, PdesNode, PdesNodeId, PdesSim, PdesStats,
};
pub use pdes_window::{part_bounds, partition_of};
pub use resource::{Resource, ResourceGuard, ResourceStats};
pub use rng::SplitMix64;
pub use sync::{Channel, Gate, Promise, PromiseHandle, WaitQueue};
pub use time::{fmt_time, SimTime, MS, NS, SEC, US};
