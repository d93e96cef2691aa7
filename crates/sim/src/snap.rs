//! Snapshot/restore for the engine: serialize the complete deterministic
//! scheduler state into a [`bfly_snap::Snap`], and rebuild a running
//! simulation from one.
//!
//! ## What is captured vs re-derived (DESIGN.md §16)
//!
//! **Captured** — everything that determines future behavior and is plain
//! data: virtual clock, timer sequence counter, RNG stream state, event
//! and spawn counters, the task slab's generations/occupancy/names and
//! free-list order, the ready queue's key order, the unfired remainder of
//! the in-flight timer batch, and every live (non-cancelled) pending
//! timer as one `(at, seq)`-sorted list. Cancelled entries are excluded:
//! they are pruned lazily at pop time, so their physical presence depends
//! on drain progress — dead scratch state, not schedule state. Placement
//! is excluded for the same reason: whether an entry sits in the timer
//! wheel or its overflow heap depends on the wheel's horizon when it was
//! registered, so the two are captured as one list.
//!
//! **Re-derived** — futures and wakers. Rust futures are opaque host
//! memory and cannot be serialized; instead, [`Sim::restore`] rebuilds the
//! *program* (the caller re-runs the same deterministic setup code) and
//! fast-forwards with [`Sim::run_events`] to the snapshot's cumulative
//! event count. Determinism makes the replayed prefix bit-identical, and
//! restore *proves* it by re-capturing the state and comparing canonical
//! bytes against the snapshot — divergence (a non-deterministic program,
//! a different seed, a different engine) fails loudly with
//! [`SnapError::Divergent`] instead of silently continuing from the wrong
//! state.
//!
//! **Excluded** — host wall-clock (`RunStats::wall`). Snapshot bytes are
//! a pure function of simulated state; the `cargo xtask lint`
//! snapshot-purity gate bans wall-clock sources from this module.
//!
//! ## Version/compat policy
//!
//! The container is `bfly-snap/1`; this module additionally stamps
//! [`crate::ENGINE_VERSION`] into the `engine` section. A snapshot
//! restores only under the engine version that wrote it — anything else
//! is rejected, the same invalidation rule the farm cache applies to its
//! content keys.

use bfly_snap::{Section, Snap, SnapError};

use crate::exec::{Sim, StepOutcome};

/// Name of the engine metadata section.
pub const ENGINE_SECTION: &str = "engine";
/// Name of the scheduler state section.
pub const SIM_SECTION: &str = "sim";

fn pairs_flat(pairs: &[(u64, u64)]) -> impl Iterator<Item = u64> + '_ {
    pairs.iter().flat_map(|&(a, b)| [a, b])
}

impl Sim {
    /// The engine metadata section: format owner, engine version, and the
    /// cumulative event count a restore must fast-forward to.
    pub fn engine_section(&self) -> Section {
        let mut s = Section::new(ENGINE_SECTION);
        s.field_u64("version", crate::ENGINE_VERSION as u64)
            .field_u64("events", self.core_state_events());
        s
    }

    fn core_state_events(&self) -> u64 {
        self.core_state().events
    }

    /// The complete deterministic scheduler state as one canonical
    /// section. Equal state ⇒ equal section bytes ⇒ equal hash.
    pub fn state_section(&self) -> Section {
        let c = self.core_state();
        let mut s = Section::new(SIM_SECTION);
        s.field_u64("now", c.now)
            .field_u64("seq", c.seq)
            .field_u64("live", c.live as u64)
            .field_u64("events", c.events)
            .field_u64("spawned", c.spawned)
            .field("rng", &format!("{:016x}", c.rng_state))
            .field_u64s("slot_gens", c.slots.iter().map(|s| s.1 as u64))
            .field_u64s("slot_live", c.slots.iter().map(|s| s.2 as u64))
            .field_u64s("free", c.free.iter().map(|&f| f as u64))
            .field_u64s("ready", c.ready.iter().copied())
            .field_u64s("batch", pairs_flat(&c.batch))
            .field_u64s("timers", pairs_flat(&c.timers));
        // Task names are diagnostic but schedule-relevant (deadlock
        // reports); one field per occupied slot keeps arbitrary name bytes
        // out of the comma-joined lists.
        for (idx, _, occupied, name) in &c.slots {
            if *occupied {
                s.field(&format!("name_{idx}"), name);
            }
        }
        s
    }

    /// Snapshot the engine: an `engine` metadata section plus the full
    /// `sim` state section, content-hashed. Callers with more state in
    /// play (machine, runtimes, probes) append their own sections to the
    /// returned [`Snap`] — section order is engine, sim, then extras.
    pub fn snapshot(&self) -> Snap {
        let mut snap = Snap::new();
        snap.push(self.engine_section()).push(self.state_section());
        snap
    }

    /// Content hash of [`Sim::snapshot`] — the engine's state fingerprint.
    pub fn state_hash(&self) -> String {
        self.snapshot().hash()
    }

    /// Rebuild a running simulation from a snapshot: `build` must
    /// reconstruct the *program* (create the `Sim` with the original seed
    /// and spawn the original tasks); restore fast-forwards it to the
    /// snapshot's event count and verifies the reached state is
    /// bit-identical to the captured one. Extra sections in `snap`
    /// (machine state, runtime counters) are ignored here — higher layers
    /// verify those themselves (e.g. `bfly_apps::gauss::PreparedGauss`).
    pub fn restore(snap: &Snap, build: impl FnOnce() -> Sim) -> Result<Sim, SnapError> {
        let engine = snap.require(ENGINE_SECTION)?;
        let version = engine.get_u64("version")?;
        if version != crate::ENGINE_VERSION as u64 {
            return Err(SnapError::Corrupt {
                line: 0,
                msg: format!(
                    "snapshot is from engine version {version}, this engine is {}",
                    crate::ENGINE_VERSION
                ),
            });
        }
        let events = engine.get_u64("events")?;
        let sim = build();
        let _ = sim.run_events(events);
        verify_prefix(snap, &sim.snapshot())?;
        Ok(sim)
    }
}

/// Require every section of `got` to be byte-identical to the same-named
/// section of `expected` (which may carry extra sections `got`'s producer
/// knows nothing about). This is the restore proof: hashes of the
/// mismatched pair are reported on divergence.
pub fn verify_prefix(expected: &Snap, got: &Snap) -> Result<(), SnapError> {
    for section in got.sections() {
        let want = expected.require(section.name())?;
        if want != section {
            return Err(SnapError::Divergent {
                expected: expected.hash(),
                got: got.hash(),
            });
        }
    }
    Ok(())
}

/// Drive a simulation to a cut and hand back what a checkpointing caller
/// needs: the outcome and the events actually processed (which can be
/// less than asked if the run went quiescent first).
pub fn run_to_cut(sim: &Sim, target_events: u64) -> (StepOutcome, u64) {
    let outcome = sim.run_events(target_events);
    (outcome, sim.core_state().events)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little program with timers, spawns, RNG use, cancellations, and
    /// cross-task wakes — enough to populate every captured structure.
    fn program(seed: u64) -> Sim {
        let sim = Sim::with_seed(seed);
        for t in 0..6u64 {
            let s = sim.clone();
            sim.spawn_named(&format!("worker-{t}"), async move {
                for i in 0..40u64 {
                    let d = s.with_rng(|r| r.jitter(500 + 37 * t, 20));
                    s.sleep(d + i).await;
                    if i % 7 == 3 {
                        // Race a sleep against a shorter one: the loser is
                        // cancelled, exercising the cancellation records.
                        let _ = s.timeout(50, s.sleep(10_000_000)).await;
                    }
                    s.yield_now().await;
                }
            });
        }
        sim
    }

    #[test]
    fn pause_then_finish_equals_straight_run() {
        let straight = program(11);
        let full = straight.run();
        for cut in [0u64, 1, 7, 100, 500, full.events - 1, full.events] {
            let paused = program(11);
            let outcome = paused.run_events(cut);
            if cut < full.events {
                assert_eq!(outcome, StepOutcome::Paused, "cut {cut}");
            }
            let resumed = paused.run();
            assert_eq!(resumed, full, "cut {cut}: resumed stats differ");
            assert_eq!(
                paused.state_hash(),
                straight.state_hash(),
                "cut {cut}: final state differs"
            );
        }
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let a = program(42);
        let (outcome, events) = run_to_cut(&a, 333);
        assert_eq!(outcome, StepOutcome::Paused);
        assert_eq!(events, 333);
        let snap = a.snapshot();
        let restored = Sim::restore(&snap, || program(42)).expect("restore verifies");
        assert_eq!(restored.snapshot().encode(), snap.encode());
        // Continuing both produces identical results.
        let ra = a.run();
        let rb = restored.run();
        assert_eq!(ra, rb);
        assert_eq!(a.state_hash(), restored.state_hash());
    }

    #[test]
    fn restore_rejects_wrong_program_and_wrong_version() {
        let a = program(1);
        let _ = a.run_events(200);
        let snap = a.snapshot();
        // Different seed ⇒ different replayed prefix ⇒ divergence.
        let err = Sim::restore(&snap, || program(2)).map(|_| ()).unwrap_err();
        assert!(matches!(err, SnapError::Divergent { .. }), "{err}");
        // Wrong engine version is refused before any replay.
        let mut doctored = Snap::new();
        let mut engine = Section::new(ENGINE_SECTION);
        engine.field_u64("version", 9999).field_u64("events", 200);
        doctored.push(engine).push(a.state_section());
        let err = Sim::restore(&doctored, || program(1))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let a = program(7);
        let _ = a.run_events(128);
        let enc = a.snapshot().encode();
        let snap = Snap::decode(&enc).expect("decodes clean");
        let restored = Sim::restore(&snap, || program(7)).expect("restore from decoded bytes");
        assert_eq!(restored.run(), a.run());
    }

    #[test]
    fn quiescent_cut_restores_too() {
        let a = program(3);
        let full = a.run();
        let snap = a.snapshot();
        let restored = Sim::restore(&snap, || program(3)).expect("restore at quiescence");
        assert_eq!(restored.run(), full, "run after quiescence is a no-op");
    }
}
