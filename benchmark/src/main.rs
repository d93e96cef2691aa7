//! `bfly-benchmark` command line. See `README.md`.
//!
//! ```text
//! run   [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! trace [--workload W]... [--seed N] [--seconds S] [--out DIR]
//! compare <set A: dir or file> <set B: dir or file>
//! reference
//! ```
//!
//! `run` and `trace` start one child process of this binary per
//! workload, so each workload's peak memory is its own and a hung
//! workload is killed at a deadline instead of hanging the run.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use bfly_benchmark::compare::{compare, RunSet};
use bfly_benchmark::record::Spec;
use bfly_benchmark::sim::{
    table_digest, FIG5_DIGEST_COLS, FIG5_N, FIG5_PS, REFERENCE_SEED, T22_DIGEST_COLS,
};
use bfly_benchmark::trace::Tracer;
use bfly_benchmark::{run_workload, RunCfg};
use bfly_farmd::json::{self, Value};

/// A child that has not exited by then is killed: the whole command
/// must finish within three minutes.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);
const DEFAULT_SECONDS: f64 = 24.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bfly-benchmark run [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      bfly-benchmark trace [--workload W]... [--seed N] [--seconds S] [--out DIR]\n\
         \x20      bfly-benchmark compare <set A: dir or file> <set B: dir or file>\n\
         \x20      bfly-benchmark reference"
    );
    ExitCode::from(2)
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    /// `child` only: where to write the workload's Chrome trace.
    trace_file: Option<PathBuf>,
}

fn parse(args: &[String], trace: bool) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: REFERENCE_SEED,
        seconds: DEFAULT_SECONDS,
        trace,
        out: None,
        trace_file: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workloads.push(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--trace-file" => a.trace_file = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    match cmd.as_str() {
        "run" | "trace" | "child" => match parse(rest, cmd == "trace") {
            Ok(a) if cmd == "child" => child(&a),
            Ok(a) => parent(a),
            Err(e) => {
                eprintln!("bfly-benchmark: {e}");
                usage()
            }
        },
        "compare" if rest.len() == 2 => compare_cmd(Path::new(&rest[0]), Path::new(&rest[1])),
        "reference" => reference(),
        _ => usage(),
    }
}

/// One workload, in this process: print its record as the last line.
fn child(a: &Args) -> ExitCode {
    let spec = Spec::load();
    let [name] = a.workloads.as_slice() else {
        eprintln!("child: exactly one --workload");
        return ExitCode::from(2);
    };
    let cfg = RunCfg {
        seed: a.seed,
        seconds: a.seconds,
    };
    let tracer = a.trace.then(Tracer::default);
    let Some(rec) = run_workload(name, &cfg, tracer.as_ref()) else {
        eprintln!(
            "unknown workload `{name}` (known: {})",
            spec.workloads.join(", ")
        );
        return ExitCode::from(2);
    };
    if let (Some(t), Some(path)) = (&tracer, &a.trace_file) {
        if let Err(e) = std::fs::write(path, t.chrome_json(name)) {
            eprintln!("{}: {e}", path.display());
        }
    }
    println!("{}", rec.to_value(&spec, a.trace).dump());
    ExitCode::SUCCESS
}

/// Run `name` in a child process; its record, or why there is none.
fn run_child(exe: &Path, name: &str, a: &Args, trace_dir: Option<&Path>) -> Result<Value, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }]);
    if let Some(dir) = trace_dir {
        cmd.arg("--trace-file")
            .arg(dir.join(format!("TRACE_{name}.json")));
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let t0 = Instant::now();
    let status = loop {
        if let Some(st) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            break st;
        }
        if t0.elapsed() > CHILD_DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!("killed after {}s", CHILD_DEADLINE.as_secs()));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let last = out.lines().last().ok_or("child printed nothing")?;
    json::parse(last).map_err(|e| format!("child record: {}", e.1))
}

fn parent(mut a: Args) -> ExitCode {
    let spec = Spec::load();
    if a.workloads.is_empty() {
        a.workloads = spec.workloads.clone();
    }
    if let Some(w) = a.workloads.iter().find(|w| !spec.workloads.contains(w)) {
        eprintln!(
            "unknown workload `{w}` (known: {})",
            spec.workloads.join(", ")
        );
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_dir = a.trace.then(|| {
        a.out.clone().unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join("trace")
        })
    });
    if let Some(d) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("{}: {e}", d.display());
            return ExitCode::FAILURE;
        }
    }

    let mut records = BTreeMap::new();
    let mut all_ok = true;
    for name in &a.workloads {
        let rec = match run_child(&exe, name, &a, trace_dir.as_deref()) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{name}: {e}");
                all_ok = false;
                continue;
            }
        };
        let ok = rec.get("correct").and_then(Value::as_bool) == Some(true);
        all_ok &= ok;
        for key in ["errors", "invalid"] {
            for msg in rec.get(key).and_then(Value::as_arr).into_iter().flatten() {
                eprintln!("{name}: {key}: {}", msg.as_str().unwrap_or("?"));
            }
        }
        for (m, v) in rec
            .get("metrics")
            .and_then(Value::as_obj)
            .into_iter()
            .flatten()
        {
            println!(
                "{name:<12} {m:<28} {:>14.4} {}",
                v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Value::as_str).unwrap_or("")
            );
        }
        let n = |k: &str| rec.get(k).and_then(Value::as_u64).unwrap_or(0);
        println!(
            "{name:<12} ops {} ops_failed {} correct {ok}",
            n("ops"),
            n("ops_failed")
        );
        records.insert(name.clone(), rec);
    }

    if records.is_empty() {
        return ExitCode::FAILURE;
    }
    // The last line: one JSON object with exactly `correct`, `attempted`,
    // `failed` and `metrics` (metric names prefixed with the workload
    // when more than one ran).
    let single = a.workloads.len() == 1;
    let mut metrics = BTreeMap::new();
    let (mut attempted, mut failed) = (0i64, 0i64);
    for (w, r) in &records {
        attempted += r.get("attempted").and_then(Value::as_i64).unwrap_or(0);
        failed += r.get("failed").and_then(Value::as_i64).unwrap_or(0);
        for (m, v) in r
            .get("metrics")
            .and_then(Value::as_obj)
            .into_iter()
            .flatten()
        {
            let key = if single {
                m.clone()
            } else {
                format!("{w}.{m}")
            };
            metrics.insert(key, v.clone());
        }
    }
    let all_ok = all_ok && records.len() == a.workloads.len();
    let mut last = BTreeMap::new();
    last.insert("correct".to_string(), Value::Bool(all_ok));
    last.insert("attempted".to_string(), Value::Int(attempted));
    last.insert("failed".to_string(), Value::Int(failed));
    last.insert("metrics".to_string(), Value::Obj(metrics));

    if let Some(dir) = &trace_dir {
        let layers: BTreeMap<String, Value> = records
            .iter()
            .map(|(w, r)| (w.clone(), r.get("metrics").cloned().unwrap_or(Value::Null)))
            .collect();
        write_or_warn(&dir.join("layers.json"), &Value::Obj(layers).dump());
    } else if let Some(file) = &a.out {
        let mut o = BTreeMap::new();
        o.insert("schema".into(), Value::Str("bfly-benchmark/1".into()));
        o.insert("seed".into(), Value::Int(a.seed as i64));
        o.insert("seconds".into(), Value::Num(a.seconds));
        o.insert(
            "nproc".into(),
            Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        );
        o.insert("workloads".into(), Value::Obj(records));
        if let Some(parent) = file.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        write_or_warn(file, &Value::Obj(o).dump());
    }
    println!("{}", Value::Obj(last).dump());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_or_warn(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("{}: {e}", path.display());
    }
}

fn compare_cmd(a: &Path, b: &Path) -> ExitCode {
    let spec = Spec::load();
    let (sa, sb) = match (RunSet::load(a), RunSet::load(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let v = compare(&spec, &sa, &sb);
    print!("{}", v.report);
    if v.regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print `references.json`: the seed-7 digests of the published FIG5 and
/// T22 tables, computed by the experiment functions themselves.
fn reference() -> ExitCode {
    let (fig5, _) = bfly_bench::experiments::fig5_gauss_at_seeded(FIG5_N, &FIG5_PS, REFERENCE_SEED);
    let (t22, _) = bfly_bench::experiments::tab22_pdes_at(bfly_bench::Scale::full(), 1);
    let mut o = BTreeMap::new();
    o.insert(
        "fig5_seed7".to_string(),
        Value::Str(table_digest(&fig5.to_json(), &FIG5_DIGEST_COLS)),
    );
    o.insert(
        "t22_seed7".to_string(),
        Value::Str(table_digest(&t22.to_json(), &T22_DIGEST_COLS)),
    );
    println!("{}", Value::Obj(o).dump());
    ExitCode::SUCCESS
}
