//! # bfly-benchmark
//!
//! One command that measures the Butterfly reproduction end to end — the
//! FIG5 and T22 simulations and warm/mixed farm serving — and, in a
//! separate traced run, says where the time went layer by layer. Every
//! number is taken from outside the program: the benchmark times the
//! public calls it makes and reads the servers' own `stats` replies;
//! nothing inside `crates/` is instrumented for it. See `README.md` for
//! the workloads, metrics, validity rules and commands.

pub mod compare;
pub mod gen;
pub mod record;
pub mod refloop;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;

use record::Record;
use trace::Tracer;

/// What one workload run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Drives the simulations' seeds, the cold jobs' seeds and the warm
    /// key phase.
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
}

/// Run workload `name` in this process. `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &RunCfg, tracer: Option<&Tracer>) -> Option<Record> {
    let mut rec = match name {
        "fig5_sim" => sim::fig5(cfg, tracer),
        "pdes_gauss" => sim::pdes(cfg, tracer),
        "serve_warm" => serve::serve(name, serve::WARM, cfg, tracer),
        "serve_mixed" => serve::serve(name, serve::MIXED, cfg, tracer),
        _ => return None,
    };
    // Peak memory is kept ungated (see README). Workloads that run
    // checks of their own after the measured part read it before those.
    rec.detail
        .entry("peak_rss_mb".into())
        .or_insert_with(|| bfly_farmd::json::Value::Num(record::peak_rss_mib()));
    Some(rec)
}
