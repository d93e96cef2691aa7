//! Sweep-point checkpointing: persist completed `(US, SMP)` points of a
//! FIG5-style sweep as `bfly-snap/1` bytes so an interrupted job resumes
//! from its last durable checkpoint instead of from zero.
//!
//! Two layers of checkpointing exist in the tree and this is the coarse
//! one. `bfly_sim::snap` captures a *single engine* mid-run and proves the
//! restore bit-identical; this module captures a *sweep* — which points
//! are already done and their full results — because that is the level at
//! which real compute is saved (a farm job is a sweep; re-running a
//! finished point costs seconds, fast-forwarding one engine costs almost
//! as much as running it).
//!
//! The container is versioned by `bfly-snap/1` plus a `ckpt` header
//! section carrying the experiment name, problem size, seed, and point
//! list. A checkpoint restores only when the header matches the job being
//! resumed exactly — anything else (different params, corrupt bytes, a
//! truncated write) is silently discarded and the sweep starts clean,
//! which is always correct, just slower. Decoded results are marked so
//! accounting can distinguish computed from resumed points.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use bfly_apps::gauss::GaussResult;
use bfly_sim::exec::{RunOutcome, RunStats};
use bfly_snap::{Section, Snap, SnapError};

/// Where checkpoint bytes go. `&self` receivers (with interior mutability
/// in implementations) because the sweep closure runs on many threads;
/// `Sync` for the same reason.
pub trait CkptSink: Sync {
    /// The latest checkpoint bytes, if any exist.
    fn load(&self) -> Option<Vec<u8>>;
    /// Persist `bytes` durably enough to survive the process dying right
    /// after this call returns.
    fn save(&self, bytes: &[u8]);
}

/// File-backed sink: atomic save via write-to-temp + rename, so a crash
/// mid-save leaves the previous checkpoint intact rather than a torn file.
pub struct FileSink {
    path: std::path::PathBuf,
}

impl FileSink {
    /// Checkpoint to (and resume from) `path`.
    pub fn new(path: impl Into<std::path::PathBuf>) -> FileSink {
        FileSink { path: path.into() }
    }
}

impl CkptSink for FileSink {
    fn load(&self) -> Option<Vec<u8>> {
        std::fs::read(&self.path).ok()
    }

    fn save(&self, bytes: &[u8]) {
        let tmp = self.path.with_extension("tmp");
        if std::fs::write(&tmp, bytes).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

/// In-memory sink for tests and for adapters that move bytes elsewhere
/// (the farm worker's cache-backed checkpointer drains this).
#[derive(Default)]
pub struct MemSink {
    bytes: Mutex<Option<Vec<u8>>>,
}

impl MemSink {
    /// Empty sink.
    pub fn new() -> MemSink {
        MemSink::default()
    }

    /// Seed the sink with existing checkpoint bytes (resume path).
    pub fn with_bytes(bytes: Option<Vec<u8>>) -> MemSink {
        MemSink {
            bytes: Mutex::new(bytes),
        }
    }

    /// The last saved bytes.
    pub fn take(&self) -> Option<Vec<u8>> {
        self.bytes.lock().unwrap().clone()
    }
}

impl CkptSink for MemSink {
    fn load(&self) -> Option<Vec<u8>> {
        self.bytes.lock().unwrap().clone()
    }

    fn save(&self, bytes: &[u8]) {
        *self.bytes.lock().unwrap() = Some(bytes.to_vec());
    }
}

/// Checkpoint policy handed to a sweep: where to save and how often (in
/// cumulative engine events between saves — the `--checkpoint-every`
/// knob).
pub struct SweepCheckpointer<'a> {
    /// Save after at least this many engine events since the last save.
    pub every: u64,
    /// Destination.
    pub sink: &'a dyn CkptSink,
}

/// A sweep checkpoint: identifying header plus the completed points.
pub struct SweepCkpt {
    /// Experiment name (header guard).
    pub exp: String,
    /// Problem size (header guard).
    pub n: u32,
    /// Seed (header guard).
    pub seed: u64,
    /// The full point list (header guard — resuming a different sweep
    /// shape from these bytes would mis-assign results by index).
    pub ps: Vec<u16>,
    /// Completed points by sweep index.
    pub points: BTreeMap<usize, (GaussResult, GaussResult)>,
}

fn encode_result(s: &mut Section, prefix: &str, r: &GaussResult) {
    s.field_u64(&format!("{prefix}_time_ns"), r.time_ns)
        .field_u64(&format!("{prefix}_comm_ops"), r.comm_ops)
        .field_u64(&format!("{prefix}_max_err_bits"), r.max_err.to_bits())
        .field_u64(&format!("{prefix}_end_time"), r.run.end_time)
        .field_u64(&format!("{prefix}_events"), r.run.events)
        .field_u64(&format!("{prefix}_tasks"), r.run.tasks);
}

fn decode_result(s: &Section, prefix: &str) -> Result<GaussResult, SnapError> {
    Ok(GaussResult {
        time_ns: s.get_u64(&format!("{prefix}_time_ns"))?,
        comm_ops: s.get_u64(&format!("{prefix}_comm_ops"))?,
        max_err: f64::from_bits(s.get_u64(&format!("{prefix}_max_err_bits"))?),
        run: RunStats {
            end_time: s.get_u64(&format!("{prefix}_end_time"))?,
            events: s.get_u64(&format!("{prefix}_events"))?,
            tasks: s.get_u64(&format!("{prefix}_tasks"))?,
            // Only completed runs are checkpointed; host wall time and
            // polls are excluded from snapshot bytes by design (purity
            // gate) — a resumed point genuinely cost zero host time and
            // made no poll this run.
            polls: 0,
            outcome: RunOutcome::Completed,
            wall: Duration::ZERO,
        },
    })
}

impl SweepCkpt {
    /// Empty checkpoint for a sweep shape.
    pub fn new(exp: &str, n: u32, seed: u64, ps: &[u16]) -> SweepCkpt {
        SweepCkpt {
            exp: exp.to_string(),
            n,
            seed,
            ps: ps.to_vec(),
            points: BTreeMap::new(),
        }
    }

    /// Does this checkpoint belong to exactly that sweep?
    pub fn matches(&self, exp: &str, n: u32, seed: u64, ps: &[u16]) -> bool {
        self.exp == exp && self.n == n && self.seed == seed && self.ps == ps
    }

    /// Serialize to `bfly-snap/1` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut snap = Snap::new();
        let mut h = Section::new("ckpt");
        h.field("exp", &self.exp)
            .field_u64("n", self.n as u64)
            .field_u64("seed", self.seed)
            .field_u64s("ps", self.ps.iter().map(|&p| p as u64));
        snap.push(h);
        for (idx, (us, smp)) in &self.points {
            let mut s = Section::new(&format!("point_{idx}"));
            encode_result(&mut s, "us", us);
            encode_result(&mut s, "smp", smp);
            snap.push(s);
        }
        snap.encode()
    }

    /// Parse checkpoint bytes. Any corruption is an error — callers treat
    /// errors as "no checkpoint" and recompute from zero.
    pub fn decode(bytes: &[u8]) -> Result<SweepCkpt, SnapError> {
        let snap = Snap::decode(bytes)?;
        let h = snap.require("ckpt")?;
        let exp = h
            .get("exp")
            .ok_or(SnapError::MissingField {
                section: "ckpt".into(),
                field: "exp".into(),
            })?
            .to_string();
        let n = h.get_u64("n")? as u32;
        let seed = h.get_u64("seed")?;
        let ps: Vec<u16> = h.get_u64s("ps")?.into_iter().map(|p| p as u16).collect();
        let mut points = BTreeMap::new();
        for s in snap.sections() {
            if let Some(idx) = s.name().strip_prefix("point_") {
                let idx: usize = idx.parse().map_err(|_| SnapError::Corrupt {
                    line: 0,
                    msg: format!("bad point index in section `{}`", s.name()),
                })?;
                if idx >= ps.len() {
                    return Err(SnapError::Corrupt {
                        line: 0,
                        msg: format!("point index {idx} out of range for {} points", ps.len()),
                    });
                }
                points.insert(idx, (decode_result(s, "us")?, decode_result(s, "smp")?));
            }
        }
        Ok(SweepCkpt {
            exp,
            n,
            seed,
            ps,
            points,
        })
    }
}

/// Load and validate a checkpoint for a specific sweep; mismatches and
/// corruption come back as an empty point set.
pub fn preload(
    sink: &dyn CkptSink,
    exp: &str,
    n: u32,
    seed: u64,
    ps: &[u16],
) -> BTreeMap<usize, (GaussResult, GaussResult)> {
    sink.load()
        .and_then(|bytes| SweepCkpt::decode(&bytes).ok())
        .filter(|c| c.matches(exp, n, seed, ps))
        .map(|c| c.points)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(x: u64) -> GaussResult {
        GaussResult {
            time_ns: 1000 + x,
            comm_ops: 7 * x,
            max_err: 1.5e-12 * x as f64,
            run: RunStats {
                end_time: 1000 + x,
                events: 50 * x,
                polls: 0,
                tasks: 9,
                outcome: RunOutcome::Completed,
                wall: Duration::from_millis(3),
            },
        }
    }

    #[test]
    fn roundtrip_preserves_everything_but_wall() {
        let mut c = SweepCkpt::new("fig5_gauss", 48, 7, &[16, 32, 64]);
        c.points.insert(0, (result(1), result(2)));
        c.points.insert(2, (result(3), result(4)));
        let bytes = c.encode();
        let d = SweepCkpt::decode(&bytes).expect("decodes");
        assert!(d.matches("fig5_gauss", 48, 7, &[16, 32, 64]));
        assert_eq!(d.points.len(), 2);
        let (us, smp) = &d.points[&0];
        assert_eq!(us.time_ns, result(1).time_ns);
        assert_eq!(us.max_err.to_bits(), result(1).max_err.to_bits());
        assert_eq!(us.run.events, result(1).run.events);
        assert_eq!(us.run.wall, Duration::ZERO, "wall is not serialized");
        assert_eq!(smp.comm_ops, result(2).comm_ops);
    }

    #[test]
    fn mismatched_or_corrupt_checkpoints_preload_empty() {
        let mut c = SweepCkpt::new("fig5_gauss", 48, 7, &[16, 32]);
        c.points.insert(1, (result(1), result(2)));
        let sink = MemSink::with_bytes(Some(c.encode()));
        // Exact match resumes.
        assert_eq!(preload(&sink, "fig5_gauss", 48, 7, &[16, 32]).len(), 1);
        // Different seed / size / shape / experiment: clean start.
        assert!(preload(&sink, "fig5_gauss", 48, 8, &[16, 32]).is_empty());
        assert!(preload(&sink, "fig5_gauss", 64, 7, &[16, 32]).is_empty());
        assert!(preload(&sink, "fig5_gauss", 48, 7, &[16, 32, 64]).is_empty());
        assert!(preload(&sink, "tab15_faults", 48, 7, &[16, 32]).is_empty());
        // Corrupt bytes: clean start.
        let mut bytes = c.encode();
        let flip = bytes.len() / 2;
        bytes[flip] ^= 1;
        let sink = MemSink::with_bytes(Some(bytes));
        assert!(preload(&sink, "fig5_gauss", 48, 7, &[16, 32]).is_empty());
    }

    #[test]
    fn out_of_range_point_is_corrupt() {
        let mut c = SweepCkpt::new("fig5_gauss", 48, 7, &[16]);
        c.points.insert(5, (result(1), result(2)));
        let bytes = c.encode();
        assert!(SweepCkpt::decode(&bytes).is_err());
    }

    #[test]
    fn file_sink_survives_torn_saves() {
        let dir = std::env::temp_dir().join(format!("bfly_snap_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sink = FileSink::new(dir.join("ckpt.snap"));
        assert!(sink.load().is_none());
        sink.save(b"first");
        assert_eq!(sink.load().unwrap(), b"first");
        sink.save(b"second");
        assert_eq!(sink.load().unwrap(), b"second");
        std::fs::remove_dir_all(&dir).ok();
    }
}
