//! `farm` — client for the experiment-serving daemon (`farmd`).
//!
//! Talks the JSON-lines protocol of DESIGN.md §12. Subcommands:
//!
//! * `farm ping|stats|shutdown` — liveness, counters, graceful drain.
//! * `farm submit --exp <name> [--params <json>] [--seed <n>] [--probe]
//!   [--cache use|bypass|refresh] [--deadline-ms <n>] [--retries <n>]
//!   [--hosts <n>] [--wait]` — submit one job; `--wait` polls until it
//!   is terminal. `--hosts` runs the simulation on `n` host workers
//!   (PDES experiments): pure execution policy, excluded from the cache
//!   key because results are bit-identical for every value.
//! * `farm status --id <n>` — poll one job.
//! * `farm batch --jobs <file>` — submit a JSON-lines job file (`-` for
//!   stdin) as one batch; `--cache <mode>` overrides every job's mode.
//! * `farm bench [--min-speedup <x>]` — the CI end-to-end exercise: run
//!   the standard job mix cold (`refresh`), then warm (`use`), verify the
//!   warm bytes are bit-identical to a cache-bypassing recomputation, and
//!   gate on the warm-over-cold speedup. Prints a JSON summary.
//!   `--router <n>` boots an in-process n-shard cluster behind a
//!   `farm-router` and benches through it instead of `--addr`.
//! * `farm bench --sustained [--conns <n>] [--window <n>]
//!   [--duration-ms <n>] [--rate <rps>] [--min-rps <x>] [--router <n>]`
//!   — the serving-throughput benchmark (EXPERIMENTS.md T20): pipelined
//!   warm-hit saturation against an in-process daemon, and (with
//!   `--router`) an open-loop mixed load through a shard fleet.
//!
//! Every subcommand takes `--addr <host:port | unix:/path>` (default
//! `127.0.0.1:4655`). Transient refusals — connection failures and
//! `queue full` backpressure — are retried with bounded, seeded-jitter
//! exponential backoff (`--retry-tries <n>`, default 6; 0 disables).

use std::io::Read;
use std::time::Duration;

use bfly_bench::farm::{run_batch, serve_bench_against, transient_client_error, Backoff};
use bfly_farmd::json::Value;
use bfly_farmd::Client;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn fail(msg: &str) -> ! {
    eprintln!("farm: {msg}");
    std::process::exit(1);
}

/// The client retry schedule: bounded exponential backoff with seeded
/// jitter (25 ms base, 2 s cap). `--retry-tries 0` makes every transient
/// refusal immediately fatal.
fn backoff_of(args: &[String]) -> Backoff {
    let tries: u32 = arg_value(args, "--retry-tries")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--retry-tries takes a count"))
        })
        .unwrap_or(6);
    Backoff::new(tries, 25, 2_000)
}

fn connect(args: &[String]) -> Client {
    let addr = arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:4655".into());
    let mut backoff = backoff_of(args);
    loop {
        match Client::connect(&addr) {
            Ok(c) => return c,
            Err(e) if !backoff.exhausted() => {
                let d = backoff.next_delay();
                eprintln!(
                    "farm: connect {addr}: {e}; retrying in {} ms",
                    d.as_millis()
                );
                std::thread::sleep(d);
            }
            Err(e) => fail(&format!("connect {addr}: {e}")),
        }
    }
}

fn one_op(args: &[String], line: &str) -> ! {
    let mut c = connect(args);
    let v = c
        .request_line(line)
        .unwrap_or_else(|e| fail(&format!("request: {e}")));
    println!("{}", v.dump());
    std::process::exit(if v.get("ok").and_then(Value::as_bool) == Some(true) {
        0
    } else {
        1
    });
}

fn submit(args: &[String]) -> ! {
    let exp = arg_value(args, "--exp").unwrap_or_else(|| fail("submit needs --exp <name>"));
    let mut line = format!(r#"{{"op":"submit","exp":"{exp}""#);
    if let Some(params) = arg_value(args, "--params") {
        bfly_farmd::json::parse(&params)
            .unwrap_or_else(|(at, m)| fail(&format!("--params is not JSON (at byte {at}): {m}")));
        line.push_str(&format!(r#","params":{params}"#));
    }
    for flag in ["--seed", "--deadline-ms", "--retries", "--hosts"] {
        if let Some(v) = arg_value(args, flag) {
            let _: u64 = v
                .parse()
                .unwrap_or_else(|_| fail(&format!("{flag} takes an integer")));
            line.push_str(&format!(r#","{}":{v}"#, flag[2..].replace('-', "_")));
        }
    }
    if args.iter().any(|a| a == "--probe") {
        line.push_str(r#","probe":true"#);
    }
    if let Some(mode) = arg_value(args, "--cache") {
        line.push_str(&format!(r#","cache":"{mode}""#));
    }
    line.push('}');

    let mut c = connect(args);
    let mut backoff = backoff_of(args);
    let mut v = loop {
        let v = c
            .request_line(&line)
            .unwrap_or_else(|e| fail(&format!("request: {e}")));
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            break v;
        }
        let err = v.get("error").and_then(Value::as_str).unwrap_or("");
        if !transient_client_error(err) || backoff.exhausted() {
            break v;
        }
        let d = backoff.next_delay();
        eprintln!("farm: {err}; retrying in {} ms", d.as_millis());
        std::thread::sleep(d);
    };
    if args.iter().any(|a| a == "--wait")
        && v.get("ok").and_then(Value::as_bool) == Some(true)
        && matches!(
            v.get("state").and_then(Value::as_str),
            Some("queued") | Some("running")
        )
    {
        // Long-poll via the `wait` verb (completion latency is a condvar
        // wakeup, not a poll quantum).
        let id = v.get("id").and_then(Value::as_u64).expect("reply has id");
        v = c
            .await_terminal(id)
            .unwrap_or_else(|e| fail(&format!("wait: {e}")));
    }
    println!("{}", v.dump());
    if v.get("resumed_from_snapshot").and_then(Value::as_bool) == Some(true) {
        eprintln!("farm: job resumed from a mid-run snapshot checkpoint");
    }
    let ok = v.get("ok").and_then(Value::as_bool) == Some(true)
        && v.get("state").and_then(Value::as_str) != Some("failed");
    std::process::exit(if ok { 0 } else { 1 });
}

fn read_jobs(args: &[String]) -> Vec<String> {
    let path = arg_value(args, "--jobs").unwrap_or_else(|| fail("batch needs --jobs <file|->"));
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .unwrap_or_else(|e| fail(&format!("read stdin: {e}")));
        s
    } else {
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")))
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

fn batch(args: &[String]) -> ! {
    let jobs = read_jobs(args);
    if jobs.is_empty() {
        fail("no jobs in --jobs input");
    }
    let mode = arg_value(args, "--cache").unwrap_or_else(|| "use".into());
    let mut c = connect(args);
    let mut backoff = backoff_of(args);
    let outcome = loop {
        match run_batch(&mut c, &jobs, &mode) {
            Err(e) if transient_client_error(&e.to_string()) && !backoff.exhausted() => {
                let d = backoff.next_delay();
                eprintln!("farm: {e}; retrying in {} ms", d.as_millis());
                std::thread::sleep(d);
            }
            other => break other,
        }
    };
    match outcome {
        Ok((v, wall)) => {
            println!("{}", v.dump());
            eprintln!(
                "farm: {} jobs in {:.1} ms ({} cache hits)",
                jobs.len(),
                wall.as_secs_f64() * 1e3,
                v.get("hits").and_then(Value::as_u64).unwrap_or(0)
            );
            let not_done = v
                .get("results")
                .and_then(Value::as_arr)
                .map(|rs| {
                    rs.iter()
                        .filter(|r| r.get("state").and_then(Value::as_str) != Some("done"))
                        .count()
                })
                .unwrap_or(0);
            if not_done > 0 {
                fail(&format!("{not_done} job(s) did not finish done"));
            }
            std::process::exit(0);
        }
        Err(e) => fail(&format!("batch: {e}")),
    }
}

/// `farm bench --sustained`: the serving-throughput benchmark
/// (EXPERIMENTS.md T20). The direct saturation leg, plus the open-loop
/// router leg with `--router <n>`. Gates on `--min-rps` against the
/// direct leg.
fn bench_sustained(args: &[String]) -> ! {
    use bfly_bench::sustained::{sustained_direct, sustained_router, SustainedConfig};

    let mut cfg = SustainedConfig::default();
    if let Some(n) = arg_value(args, "--conns") {
        cfg.conns = n.parse().unwrap_or_else(|_| fail("--conns takes a count"));
    }
    if let Some(n) = arg_value(args, "--window") {
        cfg.window = n.parse().unwrap_or_else(|_| fail("--window takes a count"));
    }
    if let Some(ms) = arg_value(args, "--duration-ms") {
        let ms: u64 = ms
            .parse()
            .unwrap_or_else(|_| fail("--duration-ms takes milliseconds"));
        cfg.duration = Duration::from_millis(ms);
    }
    if let Some(r) = arg_value(args, "--rate") {
        cfg.offered_rps = r.parse().unwrap_or_else(|_| fail("--rate takes req/s"));
    }
    let min_rps: f64 = arg_value(args, "--min-rps")
        .map(|v| v.parse().unwrap_or_else(|_| fail("--min-rps takes req/s")))
        .unwrap_or(0.0);
    let leg = sustained_direct(&cfg).unwrap_or_else(|e| fail(&format!("sustained: {e}")));
    let rps = leg.rps();
    eprintln!(
        "farm: sustained: {} req in {:.0} ms = {:.0} req/s (p50 {:?} p99 {:?} p999 {:?})",
        leg.requests,
        leg.wall.as_secs_f64() * 1e3,
        rps,
        leg.lat.p50,
        leg.lat.p99,
        leg.lat.p999
    );
    let mut parts = vec![format!(
        "\"reactor\": {{\"requests\": {}, \"rps\": {:.0}, \"p50_us\": {}, \"p99_us\": {}, \
         \"p999_us\": {}}}",
        leg.requests,
        rps,
        leg.lat.p50.as_micros(),
        leg.lat.p99.as_micros(),
        leg.lat.p999.as_micros()
    )];
    if let Some(n) = arg_value(args, "--router") {
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| fail("--router takes a shard count"));
        let leg = sustained_router(n.max(2), &cfg)
            .unwrap_or_else(|e| fail(&format!("sustained router: {e}")));
        eprintln!(
            "farm: router sustained: {} req at {} offered = {:.0} req/s achieved \
             (warm p50 {:?} p99 {:?} p999 {:?}; {} refused, {} rerouted, {} lost)",
            leg.completed,
            leg.offered_rps,
            leg.rps(),
            leg.warm.p50,
            leg.warm.p99,
            leg.warm.p999,
            leg.refused,
            leg.rerouted,
            leg.lost
        );
        parts.push(format!(
            "\"router\": {{\"shards\": {}, \"offered_rps\": {}, \"completed\": {}, \
             \"rps\": {:.0}, \"refused\": {}, \"lost\": {}, \"warm_p50_ms\": {:.3}, \
             \"warm_p99_ms\": {:.3}, \"warm_p999_ms\": {:.3}}}",
            leg.shards,
            leg.offered_rps,
            leg.completed,
            leg.rps(),
            leg.refused,
            leg.lost,
            leg.warm.p50.as_secs_f64() * 1e3,
            leg.warm.p99.as_secs_f64() * 1e3,
            leg.warm.p999.as_secs_f64() * 1e3
        ));
    }
    println!(
        "{{\"conns\": {}, \"window\": {}, {}}}",
        cfg.conns,
        cfg.window,
        parts.join(", ")
    );
    if rps < min_rps {
        fail(&format!(
            "sustained throughput {rps:.0} req/s below the {min_rps:.0} req/s floor"
        ));
    }
    std::process::exit(0);
}

fn bench(args: &[String]) -> ! {
    if args.iter().any(|a| a == "--sustained") {
        bench_sustained(args);
    }
    let min_speedup: f64 = arg_value(args, "--min-speedup")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--min-speedup takes a ratio like 5"))
        })
        .unwrap_or(0.0);
    // `--router <n>` benches through an in-process n-shard cluster
    // instead of a daemon at --addr; the router speaks the same protocol
    // so the serve legs are unchanged — only the topology differs.
    let cluster = arg_value(args, "--router").map(|n| {
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| fail("--router takes a shard count"));
        if n < 2 {
            fail("--router needs at least 2 shards");
        }
        bfly_bench::cluster::Cluster::boot(n, 2)
            .unwrap_or_else(|e| fail(&format!("boot cluster: {e}")))
    });
    let addr = match &cluster {
        Some(cl) => cl.router.addr.clone(),
        None => arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:4655".into()),
    };
    let s = serve_bench_against(&addr).unwrap_or_else(|e| fail(&format!("bench: {e}")));
    let (shards, rerouted, lost, resumed) = match &cluster {
        None => (1, 0, 0, 0),
        Some(cl) => {
            let stats = cl.stats().unwrap_or_else(|e| fail(&format!("stats: {e}")));
            let stat = |k: &str| {
                stats
                    .get("jobs")
                    .and_then(|j| j.get(k))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            };
            (cl.len(), stat("rerouted"), stat("lost"), stat("resumed"))
        }
    };
    println!(
        "{{\"jobs\": {}, \"shards\": {shards}, \"cold_wall_ms\": {:.1}, \
         \"warm_wall_ms\": {:.3}, \"hits\": {}, \"hit_rate\": {:.3}, \"speedup\": {:.1}, \
         \"rerouted\": {rerouted}, \"lost\": {lost}, \"resumed\": {resumed}, \
         \"bit_identical\": true}}",
        s.jobs,
        s.cold_wall.as_secs_f64() * 1e3,
        s.warm_wall.as_secs_f64() * 1e3,
        s.hits,
        s.hit_rate(),
        s.speedup().min(1e6)
    );
    if let Some(cl) = cluster {
        cl.shutdown();
    }
    if lost != 0 {
        fail(&format!("cluster lost {lost} jobs"));
    }
    if s.hits < s.jobs as u64 {
        fail(&format!("warm batch hit only {}/{} jobs", s.hits, s.jobs));
    }
    if s.speedup() < min_speedup {
        fail(&format!(
            "warm speedup {:.1}x below the {min_speedup:.1}x floor",
            s.speedup()
        ));
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("ping") => one_op(&args, r#"{"op":"ping"}"#),
        Some("stats") => one_op(&args, r#"{"op":"stats"}"#),
        Some("shutdown") => one_op(&args, r#"{"op":"shutdown"}"#),
        Some("submit") => submit(&args),
        Some("status") => {
            let id = arg_value(&args, "--id").unwrap_or_else(|| fail("status needs --id <n>"));
            one_op(&args, &format!(r#"{{"op":"status","id":{id}}}"#))
        }
        Some("batch") => batch(&args),
        Some("bench") => bench(&args),
        other => fail(&format!(
            "unknown subcommand {other:?}; expected ping|stats|shutdown|submit|status|batch|bench"
        )),
    }
}
