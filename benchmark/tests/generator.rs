//! The open-loop generator against a stub JSON-lines server that speaks
//! the `submit`/`wait` subset of the farm protocol with scripted
//! behaviour: a stall, slow cold jobs, refusals and failures.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bfly_benchmark::gen::{run_stage, Outcome, Request, Stage};
use bfly_benchmark::stats::{percentile, sorted};
use bfly_farmd::json::{self, Value};

/// What the stub does to the `n`-th submit it reads (0-based, across
/// connections).
#[derive(Clone, Copy, Default)]
struct Script {
    /// Stall the submit connection this long before answering submit
    /// `stall_at`.
    stall_at: Option<u64>,
    stall: Duration,
    /// How long a job whose params carry `"cold":true` takes.
    cold: Duration,
    /// `n % 10` residues that are refused, answered with a plain error,
    /// or admitted but end `failed` (`None` = never).
    refuse: Option<u64>,
    error: Option<u64>,
    fail: Option<u64>,
}

#[derive(Default)]
struct Jobs {
    /// id → (terminal at, ends failed)
    by_id: HashMap<u64, (Instant, bool)>,
    next_id: u64,
}

struct Stub {
    script: Script,
    jobs: Mutex<Jobs>,
    cv: Condvar,
    submits: AtomicU64,
}

fn spawn_stub(script: Script) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr").to_string();
    let stub = Arc::new(Stub {
        script,
        jobs: Mutex::new(Jobs::default()),
        cv: Condvar::new(),
        submits: AtomicU64::new(0),
    });
    // Detached: the stub lives as long as the test process.
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(conn) = conn else { return };
            let stub = Arc::clone(&stub);
            std::thread::spawn(move || serve_conn(&stub, conn));
        }
    });
    addr
}

fn serve_conn(stub: &Stub, conn: TcpStream) {
    conn.set_nodelay(true).expect("nodelay");
    let mut out = conn.try_clone().expect("clone");
    for line in BufReader::new(conn).lines() {
        let Ok(line) = line else { return };
        let v = json::parse(&line).expect("generator sends JSON");
        let reply = match v.get("op").and_then(Value::as_str) {
            Some("submit") => submit(stub, &v),
            Some("wait") => wait(stub, &v),
            other => panic!("unexpected op {other:?}"),
        };
        if out.write_all(format!("{reply}\n").as_bytes()).is_err() {
            return;
        }
    }
}

fn submit(stub: &Stub, v: &Value) -> String {
    let s = stub.script;
    let n = stub.submits.fetch_add(1, Ordering::SeqCst);
    if s.stall_at == Some(n) {
        std::thread::sleep(s.stall);
    }
    if s.refuse == Some(n % 10) {
        return r#"{"ok":false,"error":"queue full (7 jobs); backpressure: retry later"}"#.into();
    }
    if s.error == Some(n % 10) {
        return r#"{"ok":false,"error":"unknown experiment `x`"}"#.into();
    }
    let cold = v.get("params").and_then(|p| p.get("cold")).is_some();
    let ends = Instant::now() + if cold { s.cold } else { Duration::ZERO };
    let mut jobs = stub.jobs.lock().expect("stub jobs");
    jobs.next_id += 1;
    let id = jobs.next_id;
    jobs.by_id.insert(id, (ends, s.fail == Some(n % 10)));
    format!(r#"{{"ok":true,"id":{id},"state":"queued"}}"#)
}

fn status(id: u64, job: Option<&(Instant, bool)>, now: Instant) -> String {
    match job {
        None => format!(r#"{{"ok":false,"error":"no such job {id}"}}"#),
        Some((at, _)) if *at > now => format!(r#"{{"ok":true,"id":{id},"state":"queued"}}"#),
        Some((_, true)) => format!(
            r#"{{"ok":true,"id":{id},"state":"failed","verdict":"failed","attempts":1,"error":"boom"}}"#
        ),
        Some(_) => format!(
            r#"{{"ok":true,"id":{id},"state":"done","verdict":"done","cached":true,"resumed_from_snapshot":false,"wall_ms":0.000,"result":{{"id":{id},"state":"x"}}}}"#
        ),
    }
}

fn wait(stub: &Stub, v: &Value) -> String {
    let ids: Vec<u64> = v
        .get("ids")
        .and_then(Value::as_arr)
        .expect("wait ids")
        .iter()
        .map(|x| x.as_u64().expect("id"))
        .collect();
    let timeout = v
        .get("timeout_ms")
        .and_then(Value::as_u64)
        .expect("timeout_ms");
    let deadline = Instant::now() + Duration::from_millis(timeout);
    let mut jobs = stub.jobs.lock().expect("stub jobs");
    loop {
        let now = Instant::now();
        let pending = ids
            .iter()
            .filter_map(|id| jobs.by_id.get(id))
            .map(|(at, _)| *at)
            .filter(|at| *at > now)
            .min();
        let complete = pending.is_none();
        if complete || now >= deadline {
            let results: Vec<String> = ids
                .iter()
                .map(|id| status(*id, jobs.by_id.get(id), now))
                .collect();
            return format!(
                r#"{{"ok":true,"complete":{complete},"results":[{}]}}"#,
                results.join(",")
            );
        }
        let until = pending.expect("pending").min(deadline);
        jobs = stub
            .cv
            .wait_timeout(jobs, until - now)
            .expect("stub jobs")
            .0;
    }
}

fn request(cold: bool) -> Request {
    let params = if cold { r#"{"cold":true}"# } else { "{}" };
    Request {
        line: format!("{{\"op\":\"submit\",\"exp\":\"x\",\"params\":{params},\"seed\":1}}\n")
            .into_bytes(),
        cold,
    }
}

fn run(script: Script, rate: f64, secs: f64, cold_every: u64) -> Outcome {
    let addr = spawn_stub(script);
    let stage = Stage {
        rate,
        duration: Duration::from_secs_f64(secs),
        drain: Duration::from_secs(5),
        trace_every: 0,
    };
    run_stage(
        &addr,
        &stage,
        |n| request(cold_every > 0 && n % cold_every == 0),
        None,
    )
    .expect("stage runs")
}

fn ms(samples: &[bfly_benchmark::gen::Sample]) -> Vec<f64> {
    sorted(samples.iter().map(|s| s.ms).collect())
}

#[test]
fn a_server_stall_is_charged_to_the_requests_queued_behind_it() {
    let out = run(
        Script {
            stall_at: Some(300),
            stall: Duration::from_millis(50),
            ..Script::default()
        },
        1_000.0,
        1.0,
        0,
    );
    assert_eq!(out.offered, 1_000);
    assert_eq!(
        out.warm.len(),
        1_000,
        "every request is timed, none dropped"
    );
    let lat = ms(&out.warm);
    assert!(
        lat[lat.len() - 1] >= 45.0,
        "the stalled request waits the whole stall"
    );
    // Requests scheduled during the first 30 ms of the stall were sent on
    // time but answered only after it: each carries >= 20 ms.
    let behind = lat.iter().filter(|&&l| l >= 20.0).count();
    assert!(behind >= 25, "only {behind} requests show the stall");
    // Lateness is the generator's own: the stall did not delay sending.
    assert!(percentile(&sorted(out.lateness_ms.clone()), 99.0) < 20.0);
    assert_eq!(out.ops_failed(), 0);
}

#[test]
fn a_slow_cold_job_does_not_inflate_warm_latency() {
    let out = run(
        Script {
            cold: Duration::from_millis(300),
            ..Script::default()
        },
        500.0,
        1.0,
        50,
    );
    assert_eq!(out.cold.len(), 10);
    assert_eq!(out.warm.len(), 490);
    let cold = ms(&out.cold);
    assert!(
        percentile(&cold, 50.0) >= 290.0,
        "cold jobs take their 300 ms"
    );
    let warm = ms(&out.warm);
    assert!(
        percentile(&warm, 99.0) < 100.0,
        "warm p99 {} ms: a warm wait sat behind a cold job",
        percentile(&warm, 99.0)
    );
    assert_eq!(out.ops_failed(), 0);
}

#[test]
fn refusals_errors_and_failed_jobs_are_failed_ops() {
    let out = run(
        Script {
            refuse: Some(9),
            error: Some(4),
            fail: Some(2),
            ..Script::default()
        },
        400.0,
        0.5,
        0,
    );
    assert_eq!(out.offered, 200);
    assert_eq!(out.refused, 20);
    assert_eq!(out.not_ok, 20);
    assert_eq!(out.failed, 20);
    assert_eq!(out.unfinished, 0);
    assert_eq!(out.ops_failed(), 60);
    assert_eq!(out.warm.len(), 140);
}

#[test]
fn jobs_still_running_at_the_drain_deadline_are_unfinished() {
    let addr = spawn_stub(Script {
        cold: Duration::from_secs(30),
        ..Script::default()
    });
    let stage = Stage {
        rate: 100.0,
        duration: Duration::from_millis(200),
        drain: Duration::from_millis(300),
        trace_every: 0,
    };
    let out = run_stage(&addr, &stage, |n| request(n % 5 == 0), None).expect("stage runs");
    assert_eq!(out.offered, 20);
    assert_eq!(out.unfinished, 4);
    assert_eq!(out.warm.len(), 16);
    assert_eq!(out.ops_failed(), 4);
}
