//! Snapshot/restore for the PDES engine.
//!
//! Unlike the futures engine (whose tasks are opaque host memory and must
//! be replayed — DESIGN.md §16), PDES state is *plain data*: node state
//! words, per-node counters/RNG streams, and the pending event set. A
//! snapshot is therefore a direct serialization and restore is a direct
//! deserialization — no fast-forward replay — followed by the same
//! re-encode proof: the restored simulation must re-snapshot to the exact
//! bytes it was built from.
//!
//! Because the captured state is **engine-shape independent** (nothing in
//! it mentions partitions, windows or host threads), a snapshot taken at
//! a window boundary of a parallel run is byte-identical to one taken at
//! the same virtual-time cut of a serial run, and either executor can
//! resume it. `tests/pdes_determinism.rs` proptests both directions.
//!
//! Versioning: sections stamp `PDES_ENGINE_VERSION` (the
//! [`crate::ENGINE_VERSION`] at which PDES behavior last changed) plus
//! [`crate::PDES_VERSION`] for the PDES state layout itself. Either
//! mismatch refuses the restore.

use bfly_snap::{Section, Snap, SnapError};

use crate::pdes::{Event, PdesSim};
use crate::rng::SplitMix64;

/// Name of the PDES metadata section.
pub const PDES_SECTION: &str = "pdes";
/// Per-node runtime counters (seq/rng/events/last_at).
pub const PDES_RT_SECTION: &str = "pdes.rt";
/// Pending (undelivered) events, canonically sorted.
pub const PDES_EVENTS_SECTION: &str = "pdes.events";
/// Model state words, one field per node.
pub const PDES_NODES_SECTION: &str = "pdes.nodes";

fn corrupt(msg: String) -> SnapError {
    SnapError::Corrupt { line: 0, msg }
}

/// Flatten one event into the wire word stream.
fn push_event(out: &mut Vec<u64>, ev: &Event) {
    out.push(ev.at);
    out.push(((ev.src as u64) << 32) | ev.dst as u64);
    out.push(((ev.src_seq as u64) << 16) | ev.kind as u64);
    out.push(ev.a);
    out.push(ev.b);
    out.push(ev.data.len() as u64);
    out.extend_from_slice(&ev.data);
}

/// Inverse of [`push_event`]; advances the cursor. Any length word,
/// however large, reads as a truncated stream rather than overflowing.
fn pop_event(words: &[u64], pos: &mut usize) -> Result<Event, SnapError> {
    let need = |p: usize, n: usize| {
        if n > words.len().saturating_sub(p) {
            Err(corrupt("pdes snapshot: truncated event stream".into()))
        } else {
            Ok(())
        }
    };
    need(*pos, 6)?;
    let at = words[*pos];
    let srcdst = words[*pos + 1];
    let seqkind = words[*pos + 2];
    let a = words[*pos + 3];
    let b = words[*pos + 4];
    let dlen = usize::try_from(words[*pos + 5]).unwrap_or(usize::MAX);
    *pos += 6;
    need(*pos, dlen)?;
    let data = words[*pos..*pos + dlen].iter().copied().collect();
    *pos += dlen;
    Ok(Event {
        at,
        src: (srcdst >> 32) as u32,
        dst: (srcdst & 0xffff_ffff) as u32,
        src_seq: (seqkind >> 16) as u32,
        kind: (seqkind & 0xffff) as u16,
        a,
        b,
        data,
    })
}

impl PdesSim {
    /// Serialize the complete simulation state. Equal state ⇒ equal bytes
    /// ⇒ equal [`Snap::hash`], regardless of which executor produced it.
    pub fn snapshot(&self) -> Snap {
        let mut meta = Section::new(PDES_SECTION);
        meta.field_u64("engine_version", crate::PDES_ENGINE_VERSION as u64)
            .field_u64("pdes_version", crate::PDES_VERSION as u64)
            .field("seed", &format!("{:016x}", self.seed))
            .field_u64("lookahead", self.lookahead)
            .field_u64("n_nodes", self.nodes.len() as u64)
            .field_u64("now", self.now)
            .field_u64("events", self.events)
            .field_u64("inited", u64::from(self.inited));

        let mut rt = Section::new(PDES_RT_SECTION);
        rt.field_u64s("seq", self.nodes.iter().map(|n| n.seq as u64))
            .field_u64s("rng", self.nodes.iter().map(|n| n.rng.state()))
            .field_u64s("events", self.nodes.iter().map(|n| n.events))
            .field_u64s("last_at", self.nodes.iter().map(|n| n.last_at));

        let mut evs = Section::new(PDES_EVENTS_SECTION);
        let sorted = self.pending_sorted();
        let mut flat = Vec::new();
        for ev in &sorted {
            push_event(&mut flat, ev);
        }
        evs.field_u64("count", sorted.len() as u64)
            .field_u64s("flat", flat);

        let mut ns = Section::new(PDES_NODES_SECTION);
        for (i, n) in self.nodes.iter().enumerate() {
            ns.field_u64s(&format!("n{i}"), n.node.state_words());
        }

        let mut snap = Snap::new();
        snap.push(meta).push(rt).push(evs).push(ns);
        snap
    }

    /// Content hash of [`PdesSim::snapshot`].
    pub fn state_hash(&self) -> String {
        self.snapshot().hash()
    }

    /// Rebuild a simulation from a snapshot. `build` must construct the
    /// *same model* (same seed, lookahead, node set) at virtual time 0;
    /// restore overwrites its state from the snapshot and proves the
    /// round trip by re-encoding. Works for snapshots taken by either
    /// executor, and the result can be resumed by either executor.
    pub fn restore(snap: &Snap, build: impl FnOnce() -> PdesSim) -> Result<PdesSim, SnapError> {
        let meta = snap.require(PDES_SECTION)?;
        let ev = meta.get_u64("engine_version")?;
        if ev != crate::PDES_ENGINE_VERSION as u64 {
            return Err(corrupt(format!(
                "pdes snapshot is from engine version {ev}, this engine is {}",
                crate::PDES_ENGINE_VERSION
            )));
        }
        let pv = meta.get_u64("pdes_version")?;
        if pv != crate::PDES_VERSION as u64 {
            return Err(corrupt(format!(
                "pdes snapshot layout v{pv}, this engine reads v{}",
                crate::PDES_VERSION
            )));
        }
        let mut sim = build();
        let seed = meta
            .get("seed")
            .ok_or_else(|| corrupt("pdes snapshot: missing seed".into()))?;
        if seed != format!("{:016x}", sim.seed()) {
            return Err(corrupt(format!(
                "pdes snapshot seed {seed} != model seed {:016x}",
                sim.seed()
            )));
        }
        if meta.get_u64("lookahead")? != sim.lookahead() {
            return Err(corrupt("pdes snapshot: lookahead mismatch".into()));
        }
        if meta.get_u64("n_nodes")? != sim.n_nodes() as u64 {
            return Err(corrupt("pdes snapshot: node count mismatch".into()));
        }
        sim.now = meta.get_u64("now")?;
        sim.events = meta.get_u64("events")?;
        sim.inited = meta.get_u64("inited")? != 0;

        let rt = snap.require(PDES_RT_SECTION)?;
        let seqs = rt.get_u64s("seq")?;
        let rngs = rt.get_u64s("rng")?;
        let nevents = rt.get_u64s("events")?;
        let lasts = rt.get_u64s("last_at")?;
        let n = sim.nodes.len();
        if seqs.len() != n || rngs.len() != n || nevents.len() != n || lasts.len() != n {
            return Err(corrupt(
                "pdes snapshot: runtime vectors wrong length".into(),
            ));
        }
        for (i, node) in sim.nodes.iter_mut().enumerate() {
            node.seq = u32::try_from(seqs[i])
                .map_err(|_| corrupt("pdes snapshot: seq overflow".into()))?;
            node.rng = SplitMix64::from_state(rngs[i]);
            node.events = nevents[i];
            node.last_at = lasts[i];
        }

        let evs = snap.require(PDES_EVENTS_SECTION)?;
        let count = evs.get_u64("count")? as usize;
        let flat = evs.get_u64s("flat")?;
        sim.pending.clear();
        let mut pos = 0usize;
        for _ in 0..count {
            let ev = pop_event(&flat, &mut pos)?;
            if ev.dst >= sim.n_nodes() {
                return Err(corrupt("pdes snapshot: event dst out of range".into()));
            }
            sim.pending.push(ev);
        }
        if pos != flat.len() {
            return Err(corrupt("pdes snapshot: trailing event words".into()));
        }

        let ns = snap.require(PDES_NODES_SECTION)?;
        for (i, node) in sim.nodes.iter_mut().enumerate() {
            let words = ns.get_u64s(&format!("n{i}"))?;
            node.node
                .load_words(&words)
                .map_err(|e| corrupt(format!("pdes snapshot: node {i}: {e}")))?;
        }

        // Round-trip proof: the restored state re-encodes to the input.
        let got = sim.snapshot();
        crate::snap::verify_prefix(snap, &got)?;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdes::tests::hot_ring;

    #[test]
    fn snapshot_roundtrips_and_resumes_in_both_engines() {
        let mut whole = hot_ring(9, 8, 300);
        let sw = whole.run();

        let mut part = hot_ring(9, 8, 300);
        part.run_until(120_000);
        let snap = part.snapshot();
        let bytes = snap.encode();
        let decoded = Snap::decode(&bytes).expect("decodes");

        // Serial resume.
        let mut rs = PdesSim::restore(&decoded, || hot_ring(9, 8, 300)).expect("restores");
        assert_eq!(rs.snapshot().encode(), bytes);
        let st = rs.run();
        assert_eq!(st, sw);
        assert_eq!(rs.state_digest(), whole.state_digest());

        // Parallel resume of the same snapshot.
        let mut rp = PdesSim::restore(&decoded, || hot_ring(9, 8, 300)).expect("restores");
        let sp = rp.run_parallel(4);
        assert_eq!(sp, sw);
        assert_eq!(rp.state_digest(), whole.state_digest());
    }

    #[test]
    fn parallel_midrun_snapshot_equals_serial_midrun_snapshot() {
        let mut serial = hot_ring(17, 12, 400);
        serial.run_until(200_000);
        let mut par = hot_ring(17, 12, 400);
        par.run_parallel_until(4, 1000, 200_000);
        assert_eq!(serial.snapshot().encode(), par.snapshot().encode());
        assert_eq!(serial.state_hash(), par.state_hash());
    }

    /// Broadcast rows in flight at the cut survive a snapshot round trip
    /// byte-identically, from and into either executor.
    #[test]
    fn inflight_payloads_round_trip_under_both_executors() {
        use crate::pdes::tests::{fan, FAN_ROW};
        let (mut whole, _) = fan(5, 4);
        whole.run();

        let cut = 2_500;
        let (mut ser, _) = fan(5, 4);
        ser.run_until(cut);
        let (mut par, _) = fan(5, 4);
        par.run_parallel_until(2, 1000, cut);
        let bytes = ser.snapshot().encode();
        assert_eq!(par.snapshot().encode(), bytes);
        let pending = ser.pending_sorted();
        assert!(pending
            .iter()
            .any(|ev| ev.kind == FAN_ROW && !ev.data.is_empty()));

        let decoded = Snap::decode(&bytes).expect("decodes");
        for hosts in [1usize, 2] {
            let mut r = PdesSim::restore(&decoded, || fan(5, 4).0).expect("restores");
            assert_eq!(r.snapshot().encode(), bytes, "hosts={hosts}");
            if hosts == 1 {
                r.run();
            } else {
                r.run_parallel(hosts);
            }
            assert_eq!(r.state_digest(), whole.state_digest(), "hosts={hosts}");
        }
    }

    /// A length word near `u64::MAX` must read as a corrupt snapshot: the
    /// bounds check may not overflow (debug) or wrap into a bad slice
    /// (release).
    #[test]
    fn huge_payload_length_is_corrupt_not_a_panic() {
        let mut sim = hot_ring(5, 4, 100);
        sim.run_until(50_000);
        let snap = sim.snapshot();
        let mut crafted = Snap::new();
        for sec in snap.sections() {
            if sec.name() != PDES_EVENTS_SECTION {
                crafted.push(sec.clone());
                continue;
            }
            let mut flat = sec.get_u64s("flat").expect("flat");
            flat[5] = u64::MAX; // the first event's payload length
            let mut evs = Section::new(PDES_EVENTS_SECTION);
            evs.field_u64("count", sec.get_u64("count").expect("count"))
                .field_u64s("flat", flat);
            crafted.push(evs);
        }
        let decoded = Snap::decode(&crafted.encode()).expect("well-formed text");
        let err = PdesSim::restore(&decoded, || hot_ring(5, 4, 100))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn restore_rejects_wrong_model_and_versions() {
        let mut sim = hot_ring(5, 4, 100);
        sim.run_until(50_000);
        let snap = sim.snapshot();
        // Wrong seed.
        let err = PdesSim::restore(&snap, || hot_ring(6, 4, 100))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err}");
        // Wrong node count.
        let err = PdesSim::restore(&snap, || hot_ring(5, 8, 100))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err}");
        // Doctored engine version.
        let mut meta = Section::new(PDES_SECTION);
        meta.field_u64("engine_version", 9999);
        let mut doctored = Snap::new();
        doctored.push(meta);
        let err = PdesSim::restore(&doctored, || hot_ring(5, 4, 100))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err}");
    }
}
