//! Job specification and terminal verdicts.
//!
//! A job is `{exp, params, seed}` plus serving knobs (deadline, retries,
//! probe, cache mode). The triple is everything a deterministic run is a
//! function of, so it — canonicalized — is also the cache identity
//! ([`JobSpec::key`]).

use crate::cache::content_key;
use crate::json::Value;

/// How a job interacts with the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Serve a hit if present; store the result on a miss (default).
    Use,
    /// Ignore the cache entirely: recompute and do not store. Used by the
    /// e2e bit-identity check (cached vs. freshly recomputed bytes).
    Bypass,
    /// Recompute even on a hit and overwrite the entry. Forces a cold run
    /// on a warm daemon (the serve benchmark's cold leg).
    Refresh,
}

impl CacheMode {
    /// Protocol string.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheMode::Use => "use",
            CacheMode::Bypass => "bypass",
            CacheMode::Refresh => "refresh",
        }
    }
}

/// One experiment-serving request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Experiment name (must be in the runner's registry).
    pub exp: String,
    /// Experiment parameters; always a JSON object.
    pub params: Value,
    /// Simulation seed. Part of the cache identity even for experiments
    /// that ignore it.
    pub seed: u64,
    /// Wall-clock budget from submission, in milliseconds; `None` uses
    /// the daemon default.
    pub deadline_ms: Option<u64>,
    /// Extra attempts after a worker panic before the job is quarantined;
    /// `None` uses the daemon default.
    pub retries: Option<u32>,
    /// Attach a `bfly-probe` to the run (forces the job's sweeps onto a
    /// serial shard; see DESIGN.md §12).
    pub probe: bool,
    /// Host worker threads for experiments with a parallel-in-time
    /// engine (`None` = runner default). A **serving knob**, not a job
    /// input: the PDES determinism contract guarantees bit-identical
    /// results for every value, so — like `deadline_ms` — it is
    /// deliberately excluded from [`JobSpec::key`] and from the params
    /// echoed in result bytes.
    pub hosts: Option<u32>,
    /// Cache interaction.
    pub cache: CacheMode,
}

impl JobSpec {
    /// Parse a job object (`{"exp": ..., "params": {...}, "seed": N, ...}`).
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        let exp = v
            .get("exp")
            .and_then(Value::as_str)
            .ok_or("job needs a string `exp`")?
            .to_string();
        let params = match v.get("params") {
            None => Value::Obj(Default::default()),
            Some(p @ Value::Obj(_)) => p.clone(),
            Some(_) => return Err("`params` must be an object".into()),
        };
        let seed = match v.get("seed") {
            None => 0,
            Some(s) => s.as_u64().ok_or("`seed` must be a non-negative integer")?,
        };
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(d) => Some(d.as_u64().ok_or("`deadline_ms` must be an integer")?),
        };
        let retries = match v.get("retries") {
            None => None,
            Some(r) => Some(r.as_u64().ok_or("`retries` must be an integer")? as u32),
        };
        let probe = match v.get("probe") {
            None => false,
            Some(p) => p.as_bool().ok_or("`probe` must be a bool")?,
        };
        let hosts = match v.get("hosts") {
            None => None,
            Some(h) => {
                let h = h.as_u64().ok_or("`hosts` must be a positive integer")?;
                if h == 0 {
                    return Err("`hosts` must be a positive integer".into());
                }
                Some(h as u32)
            }
        };
        let cache = match v.get("cache").and_then(Value::as_str) {
            None | Some("use") => CacheMode::Use,
            Some("bypass") => CacheMode::Bypass,
            Some("refresh") => CacheMode::Refresh,
            Some(other) => return Err(format!("unknown cache mode `{other}`")),
        };
        Ok(JobSpec {
            exp,
            params,
            seed,
            deadline_ms,
            retries,
            probe,
            hosts,
            cache,
        })
    }

    /// Canonical parameter string (the cache-key component). The probe
    /// flag is folded in because a probed result carries the probe
    /// summary — different bytes, so a different cache identity.
    pub fn canonical_params(&self) -> String {
        if self.probe {
            format!("{}#probed", self.params.dump())
        } else {
            self.params.dump()
        }
    }

    /// Content-address of this job's result under `engine_version`.
    pub fn key(&self, engine_version: u32) -> String {
        content_key(
            &self.exp,
            &self.canonical_params(),
            self.seed,
            engine_version,
        )
    }

    /// Content-address of this job's *mid-run checkpoint* under
    /// `engine_version`. Deliberately distinct from [`JobSpec::key`]
    /// (`#snap` suffix) so partial-progress snapshots share the cache
    /// tiers with finished results without ever being served as one.
    pub fn snap_key(&self, engine_version: u32) -> String {
        content_key(
            &self.exp,
            &format!("{}#snap", self.canonical_params()),
            self.seed,
            engine_version,
        )
    }
}

/// Terminal verdict of one job, mirroring the PR 1 fault-verdict
/// discipline: a failure is a *classified outcome*, not an exception.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Completed; result bytes available (freshly computed or cached).
    Done,
    /// The runner rejected the job (unknown experiment, bad params).
    Failed,
    /// The wall-clock deadline passed before the job could complete.
    DeadlineExpired,
    /// A worker panicked on every permitted attempt; the job is
    /// quarantined (the daemon and its other jobs are unaffected).
    Quarantined,
}

impl Verdict {
    /// Protocol string.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Done => "done",
            Verdict::Failed => "failed",
            Verdict::DeadlineExpired => "deadline_expired",
            Verdict::Quarantined => "quarantined",
        }
    }

    /// Inverse of [`Verdict::as_str`].
    pub fn parse(s: &str) -> Option<Verdict> {
        [
            Verdict::Done,
            Verdict::Failed,
            Verdict::DeadlineExpired,
            Verdict::Quarantined,
        ]
        .into_iter()
        .find(|v| v.as_str() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn parses_minimal_and_full_jobs() {
        let j = JobSpec::from_value(&parse(r#"{"exp":"fig5_gauss"}"#).unwrap()).unwrap();
        assert_eq!(j.exp, "fig5_gauss");
        assert_eq!(j.seed, 0);
        assert_eq!(j.cache, CacheMode::Use);
        assert!(!j.probe);

        let j = JobSpec::from_value(
            &parse(
                r#"{"exp":"e","params":{"n":16},"seed":7,"deadline_ms":100,
                   "retries":2,"probe":true,"cache":"refresh"}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(j.seed, 7);
        assert_eq!(j.deadline_ms, Some(100));
        assert_eq!(j.retries, Some(2));
        assert!(j.probe);
        assert_eq!(j.cache, CacheMode::Refresh);
    }

    #[test]
    fn rejects_malformed_jobs() {
        for bad in [
            r#"{"params":{}}"#,
            r#"{"exp":"e","seed":-1}"#,
            r#"{"exp":"e","params":[1]}"#,
            r#"{"exp":"e","cache":"sometimes"}"#,
        ] {
            assert!(JobSpec::from_value(&parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn key_ignores_param_order_but_sees_probe_flag() {
        let a = JobSpec::from_value(&parse(r#"{"exp":"e","params":{"n":16,"ps":[4]}}"#).unwrap())
            .unwrap();
        let b = JobSpec::from_value(&parse(r#"{"exp":"e","params":{"ps":[4],"n":16}}"#).unwrap())
            .unwrap();
        assert_eq!(a.key(2), b.key(2));
        let mut probed = a.clone();
        probed.probe = true;
        assert_ne!(a.key(2), probed.key(2));
        assert_ne!(a.key(2), a.key(3), "engine bump invalidates");
    }

    #[test]
    fn hosts_is_a_serving_knob_not_a_cache_input() {
        let a = JobSpec::from_value(&parse(r#"{"exp":"e","params":{"n":16}}"#).unwrap()).unwrap();
        let b = JobSpec::from_value(&parse(r#"{"exp":"e","params":{"n":16},"hosts":8}"#).unwrap())
            .unwrap();
        assert_eq!(a.hosts, None);
        assert_eq!(b.hosts, Some(8));
        assert_eq!(a.key(2), b.key(2), "hosts must not change the cache key");
        assert_eq!(a.canonical_params(), b.canonical_params());
        for bad in [r#"{"exp":"e","hosts":0}"#, r#"{"exp":"e","hosts":"four"}"#] {
            assert!(JobSpec::from_value(&parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn snap_key_never_collides_with_result_key() {
        let j = JobSpec::from_value(&parse(r#"{"exp":"e","params":{"n":16}}"#).unwrap()).unwrap();
        assert_ne!(j.key(2), j.snap_key(2));
        assert_ne!(j.snap_key(2), j.snap_key(3), "engine bump invalidates");
        assert_eq!(j.snap_key(2).len(), j.key(2).len(), "same key format");
    }
}
