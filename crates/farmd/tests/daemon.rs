//! End-to-end daemon tests against a toy runner: protocol round-trips,
//! cache hits, batch ordering, panic quarantine, deadlines, backpressure
//! refusal, and graceful drain — all over a real socket.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bfly_farmd::json::Value;
use bfly_farmd::{spawn, Client, JobRunner, JobSpec, Listen, ServerConfig};

/// Deterministic toy runner: result bytes are a pure function of the
/// spec. `exp == "boom"` panics; `exp == "slow"` sleeps 50 ms first.
struct Toy {
    runs: AtomicU64,
}

impl JobRunner for Toy {
    fn engine_version(&self) -> u32 {
        1
    }

    fn experiments(&self) -> Vec<&'static str> {
        vec!["echo", "boom", "slow", "reject"]
    }

    fn run(&self, spec: &JobSpec) -> Result<Vec<u8>, String> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        match spec.exp.as_str() {
            "boom" => panic!("toy panic for seed {}", spec.seed),
            "reject" => Err("toy rejection".into()),
            _ => {
                if spec.exp == "slow" {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                Ok(format!(
                    r#"{{"echo":{},"params":{}}}"#,
                    spec.seed,
                    spec.params.dump()
                )
                .into_bytes())
            }
        }
    }
}

fn boot(cache_dir: Option<PathBuf>) -> (bfly_farmd::ServerHandle, Arc<Toy>) {
    let toy = Arc::new(Toy {
        runs: AtomicU64::new(0),
    });
    let handle = spawn(
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers: 2,
            cache_dir,
            default_retries: 1,
            ..ServerConfig::default()
        },
        toy.clone(),
    )
    .expect("boot daemon");
    (handle, toy)
}

fn req(c: &mut Client, line: &str) -> Value {
    c.request_line(line).expect("request")
}

#[test]
fn submit_status_cache_and_verdicts() {
    let (handle, toy) = boot(None);
    let mut c = Client::connect(&handle.addr).unwrap();

    let pong = req(&mut c, r#"{"op":"ping"}"#);
    assert_eq!(pong.get("engine_version").and_then(Value::as_i64), Some(1));

    // Cold submit: queued (or already done), poll status to terminal.
    let r = req(
        &mut c,
        r#"{"op":"submit","exp":"echo","seed":7,"params":{"x":1}}"#,
    );
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    let id = r.get("id").and_then(Value::as_u64).unwrap();
    let done = poll_done(&mut c, id);
    assert_eq!(done.get("cached").and_then(Value::as_bool), Some(false));
    let result = done.get("result").unwrap().dump();
    assert!(result.contains("\"echo\":7"));

    // Same job again: answered inline from cache, bit-identical bytes.
    let runs_before = toy.runs.load(Ordering::SeqCst);
    let r2 = req(
        &mut c,
        r#"{"op":"submit","exp":"echo","seed":7,"params":{"x":1}}"#,
    );
    assert_eq!(r2.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(r2.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(r2.get("result").unwrap().dump(), result);
    assert_eq!(toy.runs.load(Ordering::SeqCst), runs_before, "no recompute");

    // Param canonicalization: key order must not matter.
    let r3 = req(
        &mut c,
        r#"{"op":"submit","exp":"echo","params":{ "x": 1 },"seed":7}"#,
    );
    assert_eq!(r3.get("cached").and_then(Value::as_bool), Some(true));

    // Bypass recomputes and still matches (determinism check path).
    let r4 = req(
        &mut c,
        r#"{"op":"submit","exp":"echo","seed":7,"params":{"x":1},"cache":"bypass"}"#,
    );
    let id4 = r4.get("id").and_then(Value::as_u64).unwrap();
    let done4 = poll_done(&mut c, id4);
    assert_eq!(done4.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(done4.get("result").unwrap().dump(), result);

    // Rejection is a classified failure, not a panic.
    let r5 = req(&mut c, r#"{"op":"submit","exp":"reject","seed":1}"#);
    let id5 = r5.get("id").and_then(Value::as_u64).unwrap();
    let f = poll_terminal(&mut c, id5);
    assert_eq!(f.get("verdict").and_then(Value::as_str), Some("failed"));

    // Unknown experiment refused at admission.
    let r6 = req(&mut c, r#"{"op":"submit","exp":"nope","seed":1}"#);
    assert_eq!(r6.get("ok").and_then(Value::as_bool), Some(false));

    handle.shutdown();
}

#[test]
fn panics_quarantine_the_job_not_the_daemon() {
    let (handle, toy) = boot(None);
    let mut c = Client::connect(&handle.addr).unwrap();

    let r = req(
        &mut c,
        r#"{"op":"submit","exp":"boom","seed":3,"retries":2}"#,
    );
    let id = r.get("id").and_then(Value::as_u64).unwrap();
    let f = poll_terminal(&mut c, id);
    assert_eq!(
        f.get("verdict").and_then(Value::as_str),
        Some("quarantined")
    );
    assert_eq!(f.get("attempts").and_then(Value::as_i64), Some(3));
    assert_eq!(toy.runs.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");

    // Daemon (and the worker that caught the panic) still serve jobs.
    let r = req(&mut c, r#"{"op":"submit","exp":"echo","seed":9}"#);
    let id = r.get("id").and_then(Value::as_u64).unwrap();
    let done = poll_done(&mut c, id);
    assert!(done.get("result").unwrap().dump().contains("\"echo\":9"));

    let stats = req(&mut c, r#"{"op":"stats"}"#);
    let jobs = stats.get("jobs").unwrap();
    assert_eq!(jobs.get("quarantined").and_then(Value::as_i64), Some(1));

    handle.shutdown();
}

#[test]
fn batch_keeps_submission_order_and_counts_hits() {
    let (handle, _toy) = boot(None);
    let mut c = Client::connect(&handle.addr).unwrap();

    // Mixed batch: two unique jobs, one repeated (warm after the first
    // completes is not guaranteed within a batch — repeats across
    // batches are the warm case).
    let b1 = req(
        &mut c,
        r#"{"op":"batch","jobs":[
            {"exp":"echo","seed":1},{"exp":"echo","seed":2},{"exp":"slow","seed":3}]}"#
            .replace('\n', " ")
            .trim(),
    );
    assert_eq!(b1.get("ok").and_then(Value::as_bool), Some(true));
    let results = b1.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), 3);
    for (i, seed) in [1i64, 2, 3].iter().enumerate() {
        let r = results[i].get("result").unwrap().dump();
        assert!(
            r.contains(&format!("\"echo\":{seed}")),
            "batch results must come back in submission order: {r}"
        );
    }

    // Second identical batch: all warm.
    let b2 = req(
        &mut c,
        r#"{"op":"batch","jobs":[
            {"exp":"echo","seed":1},{"exp":"echo","seed":2},{"exp":"slow","seed":3}]}"#
            .replace('\n', " ")
            .trim(),
    );
    assert_eq!(b2.get("hits").and_then(Value::as_i64), Some(3));
    // Warm batch result bytes are bit-identical to the cold ones.
    let warm = b2.get("results").and_then(Value::as_arr).unwrap();
    for (cold_r, warm_r) in results.iter().zip(warm) {
        assert_eq!(
            cold_r.get("result").unwrap().dump(),
            warm_r.get("result").unwrap().dump()
        );
    }

    // A malformed job fails alone; the rest of the batch still runs.
    let b3 = req(
        &mut c,
        r#"{"op":"batch","jobs":[{"exp":"echo","seed":4},{"seed":5}]}"#,
    );
    let results = b3.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(
        results[0].get("state").and_then(Value::as_str),
        Some("done")
    );
    assert_eq!(results[1].get("ok").and_then(Value::as_bool), Some(false));

    handle.shutdown();
}

/// A warm `use` hit is answered at admission, so a full queue refuses
/// new cold work but never a cache hit — farmd must not shed a submit
/// before it knows whether the cache can answer it.
#[test]
fn warm_hits_are_served_while_the_queue_is_full() {
    let handle = spawn(
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers: 1,
            max_queue: 1,
            cache_dir: None,
            ..ServerConfig::default()
        },
        Arc::new(Toy {
            runs: AtomicU64::new(0),
        }),
    )
    .expect("boot daemon");
    let mut c = Client::connect(&handle.addr).unwrap();
    let warm = r#"{"op":"submit","exp":"echo","seed":1}"#;
    let id = req(&mut c, warm).get("id").and_then(Value::as_u64).unwrap();
    c.await_terminal(id).unwrap();

    // Occupy the one worker, then fill the one queue slot.
    let r = req(&mut c, r#"{"op":"submit","exp":"slow","seed":20}"#);
    let running = r.get("id").and_then(Value::as_u64).unwrap();
    while req(&mut c, &format!(r#"{{"op":"status","id":{running}}}"#))
        .get("state")
        .and_then(Value::as_str)
        == Some("queued")
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let r = req(&mut c, r#"{"op":"submit","exp":"slow","seed":21}"#);
    assert_eq!(r.get("state").and_then(Value::as_str), Some("queued"));
    let r = req(&mut c, r#"{"op":"submit","exp":"slow","seed":22}"#);
    let err = r.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(err.contains("queue full"), "{}", r.dump());

    let hit = req(&mut c, warm);
    assert_eq!(hit.get("cached").and_then(Value::as_bool), Some(true));
    handle.shutdown();
}

#[test]
fn deadline_expires_queued_jobs() {
    let (handle, _toy) = boot(None);
    let mut c = Client::connect(&handle.addr).unwrap();
    // 2 workers, so 3 slow jobs ahead keep the queue busy ≥50 ms while
    // the 0 ms-deadline job waits behind them.
    let b = req(
        &mut c,
        r#"{"op":"batch","jobs":[
            {"exp":"slow","seed":11},{"exp":"slow","seed":12},{"exp":"slow","seed":13},
            {"exp":"slow","seed":14,"deadline_ms":0}]}"#
            .replace('\n', " ")
            .trim(),
    );
    let results = b.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(
        results[3].get("verdict").and_then(Value::as_str),
        Some("deadline_expired"),
        "{}",
        results[3].dump()
    );

    handle.shutdown();
}

#[test]
fn disk_cache_survives_daemon_restart() {
    let dir = std::env::temp_dir().join(format!("bfly_farm_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (handle, toy) = boot(Some(dir.clone()));
    let mut c = Client::connect(&handle.addr).unwrap();
    let r = req(&mut c, r#"{"op":"submit","exp":"echo","seed":42}"#);
    let id = r.get("id").and_then(Value::as_u64).unwrap();
    let cold = poll_done(&mut c, id).get("result").unwrap().dump();
    assert_eq!(toy.runs.load(Ordering::SeqCst), 1);
    handle.shutdown();

    // Fresh daemon, same FARM_CACHE: warm from disk, zero recomputes.
    let (handle2, toy2) = boot(Some(dir.clone()));
    let mut c2 = Client::connect(&handle2.addr).unwrap();
    let r = req(&mut c2, r#"{"op":"submit","exp":"echo","seed":42}"#);
    assert_eq!(r.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(r.get("result").unwrap().dump(), cold);
    assert_eq!(toy2.runs.load(Ordering::SeqCst), 0);
    handle2.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_drain_finishes_queued_work_then_refuses() {
    let (handle, _toy) = boot(None);
    let mut c = Client::connect(&handle.addr).unwrap();
    let r = req(&mut c, r#"{"op":"submit","exp":"slow","seed":77}"#);
    let id = r.get("id").and_then(Value::as_u64).unwrap();

    let d = req(&mut c, r#"{"op":"shutdown"}"#);
    assert_eq!(d.get("draining").and_then(Value::as_bool), Some(true));

    // The drain waits for the queued job; join returning proves the
    // daemon exited cleanly rather than abandoning job `id`.
    let _ = id;
    handle.join();
}

/// Regression test for the drain/flush bug: with a write-behind disk
/// tier, SIGTERM-style drain must flush pending disk writes before exit,
/// or a drained shard rejoins with holes in its warm cache. The write
/// delay widens the race window so an unflushed drain would lose the
/// entry deterministically.
#[test]
fn drain_flushes_pending_disk_writes() {
    let dir = std::env::temp_dir().join(format!("bfly_farm_drainflush_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let toy = Arc::new(Toy {
        runs: AtomicU64::new(0),
    });
    let handle = spawn(
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers: 2,
            cache_dir: Some(dir.clone()),
            disk_write_delay_ms: 150,
            ..ServerConfig::default()
        },
        toy,
    )
    .expect("boot daemon");
    let mut c = Client::connect(&handle.addr).unwrap();
    let r = req(&mut c, r#"{"op":"submit","exp":"echo","seed":99}"#);
    let id = r.get("id").and_then(Value::as_u64).unwrap();
    let cold = poll_done(&mut c, id).get("result").unwrap().dump();
    // Drain immediately: the disk write is still sitting in the
    // write-behind queue behind the 150 ms delay.
    let d = req(&mut c, r#"{"op":"shutdown"}"#);
    assert_eq!(d.get("draining").and_then(Value::as_bool), Some(true));
    handle.join();

    // Rejoin with the same FARM_CACHE: the entry must be on disk.
    let (handle2, toy2) = boot(Some(dir.clone()));
    let mut c2 = Client::connect(&handle2.addr).unwrap();
    let r = req(&mut c2, r#"{"op":"submit","exp":"echo","seed":99}"#);
    assert_eq!(
        r.get("cached").and_then(Value::as_bool),
        Some(true),
        "drained shard must rejoin with a complete warm cache: {}",
        r.dump()
    );
    assert_eq!(r.get("result").unwrap().dump(), cold);
    assert_eq!(toy2.runs.load(Ordering::SeqCst), 0, "no recompute");
    handle2.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}

/// The cluster verbs: `cache_keys` exports the servable key set,
/// `cache_pull` copies an entry out bit-identically, and `cache_push`
/// seeds it into another shard (the warm-rebalance path).
#[test]
fn cluster_cache_verbs_round_trip_bit_identically() {
    let (a, _toy) = boot(None);
    let (b, toy_b) = boot(None);
    let mut ca = Client::connect(&a.addr).unwrap();
    let mut cb = Client::connect(&b.addr).unwrap();

    let r = req(
        &mut ca,
        r#"{"op":"submit","exp":"echo","seed":5,"params":{"k":2}}"#,
    );
    let id = r.get("id").and_then(Value::as_u64).unwrap();
    let cold = poll_done(&mut ca, id).get("result").unwrap().dump();

    let keys = req(&mut ca, r#"{"op":"cache_keys"}"#);
    let keys = keys.get("keys").and_then(Value::as_arr).unwrap();
    assert_eq!(keys.len(), 1);
    let key = keys[0].as_str().unwrap().to_string();
    assert_eq!(key.len(), 32);

    let pulled = req(&mut ca, &format!(r#"{{"op":"cache_pull","key":"{key}"}}"#));
    assert_eq!(pulled.get("found").and_then(Value::as_bool), Some(true));
    let result = pulled.get("result").unwrap().dump();
    assert_eq!(result, cold, "pulled bytes must match the cold result");

    // Push into shard b; the same job is then a warm hit there with
    // bit-identical bytes and zero recomputes.
    let push = req(
        &mut cb,
        &format!(r#"{{"op":"cache_push","key":"{key}","result":{result}}}"#),
    );
    assert_eq!(push.get("stored").and_then(Value::as_bool), Some(true));
    let warm = req(
        &mut cb,
        r#"{"op":"submit","exp":"echo","seed":5,"params":{"k":2}}"#,
    );
    assert_eq!(warm.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(warm.get("result").unwrap().dump(), cold);
    assert_eq!(toy_b.runs.load(Ordering::SeqCst), 0);

    // Bad keys are refused.
    let bad = req(&mut cb, r#"{"op":"cache_pull","key":"nope"}"#);
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));

    a.shutdown();
    b.shutdown();
}

/// An abrupt kill is a crash, not a drain: pending disk writes are lost.
#[test]
fn kill_discards_pending_disk_writes() {
    let dir = std::env::temp_dir().join(format!("bfly_farm_kill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let toy = Arc::new(Toy {
        runs: AtomicU64::new(0),
    });
    let handle = spawn(
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers: 2,
            cache_dir: Some(dir.clone()),
            disk_write_delay_ms: 5_000,
            ..ServerConfig::default()
        },
        toy,
    )
    .expect("boot daemon");
    let mut c = Client::connect(&handle.addr).unwrap();
    let r = req(&mut c, r#"{"op":"submit","exp":"echo","seed":13}"#);
    let id = r.get("id").and_then(Value::as_u64).unwrap();
    let _ = poll_done(&mut c, id);
    handle.kill();
    handle.join();

    // Restart on the same dir: the entry never reached disk.
    let (handle2, toy2) = boot(Some(dir.clone()));
    let mut c2 = Client::connect(&handle2.addr).unwrap();
    let r = req(&mut c2, r#"{"op":"submit","exp":"echo","seed":13}"#);
    let id = r.get("id").and_then(Value::as_u64).unwrap();
    let done = poll_done(&mut c2, id);
    assert_eq!(
        done.get("cached").and_then(Value::as_bool),
        Some(false),
        "a killed shard loses pending writes, like a real crash"
    );
    assert_eq!(toy2.runs.load(Ordering::SeqCst), 1);
    handle2.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let path = std::env::temp_dir().join(format!("bfly_farmd_{}.sock", std::process::id()));
    let toy = Arc::new(Toy {
        runs: AtomicU64::new(0),
    });
    let handle = spawn(
        ServerConfig {
            listen: Listen::Unix(path.clone()),
            workers: 1,
            cache_dir: None,
            ..ServerConfig::default()
        },
        toy,
    )
    .unwrap();
    let mut c = Client::connect(&format!("unix:{}", path.display())).unwrap();
    let pong = req(&mut c, r#"{"op":"ping"}"#);
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    handle.shutdown();
    assert!(!path.exists(), "socket file cleaned up on drain");
}

fn poll_terminal(c: &mut Client, id: u64) -> Value {
    for _ in 0..600 {
        let s = c
            .request_line(&format!(r#"{{"op":"status","id":{id}}}"#))
            .unwrap();
        match s.get("state").and_then(Value::as_str) {
            Some("done") | Some("failed") => return s,
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    panic!("job {id} never reached a terminal state");
}

fn poll_done(c: &mut Client, id: u64) -> Value {
    let s = poll_terminal(c, id);
    assert_eq!(
        s.get("state").and_then(Value::as_str),
        Some("done"),
        "{}",
        s.dump()
    );
    s
}

/// [`boot`] with a memory-only cache and an explicit connection limit.
fn boot_capped(max_conns: usize) -> (bfly_farmd::ServerHandle, Arc<Toy>) {
    let toy = Arc::new(Toy {
        runs: AtomicU64::new(0),
    });
    let handle = spawn(
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers: 2,
            cache_dir: None,
            default_retries: 1,
            max_conns,
            ..ServerConfig::default()
        },
        toy.clone(),
    )
    .expect("boot daemon");
    (handle, toy)
}

/// Median host time from dialing `addr` on a fresh connection to the
/// first `ping` reply, over 50 connections opened one after another.
fn median_fresh_ping_ms(addr: &str) -> f64 {
    let mut ms: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let mut c = Client::connect(addr).expect("connect");
            let pong = req(&mut c, r#"{"op":"ping"}"#);
            assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// A fresh connection is taken as soon as it arrives: the listener
/// waits for readiness rather than sleeping a fixed 25 ms after every
/// empty accept.
#[test]
fn fresh_connections_are_accepted_without_backoff() {
    let (handle, _) = boot_capped(4096);
    let median = median_fresh_ping_ms(&handle.addr);
    assert!(median < 5.0, "median connect-to-pong {median:.2} ms");
    handle.shutdown();
}

/// The `wait` long-poll: results come back in request order once every
/// id is terminal; a too-short timeout reports `complete:false` with the
/// non-terminal ids still pending; unknown ids count as terminal (a
/// waiter can never hang on history); and the argument contract is
/// enforced.
#[test]
fn wait_verb_long_polls_to_terminal() {
    let (handle, _) = boot_capped(4096);
    let mut c = Client::connect(&handle.addr).unwrap();

    // Three slow jobs on two workers: genuinely non-terminal at
    // submit time, so the wait below actually blocks.
    let mut ids = Vec::new();
    for seed in 0..3 {
        let r = req(
            &mut c,
            &format!(r#"{{"op":"submit","exp":"slow","seed":{seed},"params":{{}}}}"#),
        );
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        ids.push(r.get("id").and_then(Value::as_u64).unwrap());
    }

    // A 1 ms timeout cannot cover a 50 ms job: complete must be
    // false (the ids were just submitted on saturated workers).
    let quick = c.wait_jobs(&ids, 1).expect("short wait");
    assert_eq!(quick.get("complete").and_then(Value::as_bool), Some(false));

    let v = c.wait_jobs(&ids, 30_000).expect("wait");
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "{}",
        v.dump()
    );
    assert_eq!(v.get("complete").and_then(Value::as_bool), Some(true));
    let results = v.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), ids.len());
    for (id, r) in ids.iter().zip(results) {
        assert_eq!(r.get("id").and_then(Value::as_u64), Some(*id), "order kept");
        assert_eq!(r.get("state").and_then(Value::as_str), Some("done"));
    }

    // Unknown ids are terminal immediately, interleaved with real ones.
    let v = c
        .wait_jobs(&[ids[0], 999_999], 30_000)
        .expect("wait unknown");
    assert_eq!(v.get("complete").and_then(Value::as_bool), Some(true));
    let results = v.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(
        results[0].get("state").and_then(Value::as_str),
        Some("done")
    );
    assert_eq!(results[1].get("ok").and_then(Value::as_bool), Some(false));

    // Contract: ids must be an array of unsigned integers.
    let bad = req(&mut c, r#"{"op":"wait","ids":"nope"}"#);
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));

    handle.shutdown();
}

/// Over-capacity accepts: with `max_conns` pinned low and the limit held
/// by idle connections, a storm of 2000 further dials must each get the
/// typed `busy` refusal followed by a clean close — never a hang, never
/// a protocol-less reset, and never an accepted-but-ignored socket. The
/// held connections must still serve.
#[test]
fn dials_past_max_conns_get_typed_busy_and_clean_close() {
    use std::io::{BufRead, BufReader};

    const HELD: usize = 16;
    const DIALS: usize = 2_000;
    const DIALERS: usize = 20;
    let (handle, _) = boot_capped(HELD);
    // Saturate the limit with idle keep-alive connections.
    let held: Vec<std::net::TcpStream> = (0..HELD)
        .map(|_| std::net::TcpStream::connect(&handle.addr).expect("held dial"))
        .collect();
    // Give the acceptor a beat to count them all in.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let addr = handle.addr.clone();
    let busy = Arc::new(AtomicU64::new(0));
    let dialers: Vec<_> = (0..DIALERS)
        .map(|_| {
            let addr = addr.clone();
            let busy = busy.clone();
            std::thread::spawn(move || {
                for _ in 0..(DIALS / DIALERS) {
                    let stream = std::net::TcpStream::connect(&addr).expect("dial");
                    stream
                        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                        .unwrap();
                    let mut r = BufReader::new(stream);
                    let mut line = String::new();
                    r.read_line(&mut line).expect("busy reply");
                    assert!(
                        line.contains("\"busy\":true"),
                        "expected typed busy refusal, got: {line}"
                    );
                    busy.fetch_add(1, Ordering::SeqCst);
                    // Clean close: EOF, not a reset mid-stream.
                    line.clear();
                    assert_eq!(r.read_line(&mut line).expect("clean close"), 0);
                }
            })
        })
        .collect();
    for d in dialers {
        d.join().expect("dialer panicked");
    }
    assert_eq!(busy.load(Ordering::SeqCst), DIALS as u64);

    // The connections inside the limit still serve after the storm.
    // Freeing a slot is asynchronous — the server sees the FIN of
    // the dropped connection on its own schedule, and a dial that
    // races it is (correctly) refused busy — so retry briefly.
    drop(held.into_iter().next().unwrap()); // free one slot ...
    let t0 = std::time::Instant::now();
    loop {
        let mut held_client = Client::connect(&handle.addr).expect("slot freed");
        let pong = req(&mut held_client, r#"{"op":"ping"}"#);
        if pong.get("pong").and_then(Value::as_bool) == Some(true) {
            break;
        }
        assert_eq!(
            pong.get("busy").and_then(Value::as_bool),
            Some(true),
            "expected pong or a busy refusal, got: {}",
            pong.dump()
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "freed slot never became dialable"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    handle.shutdown();
}

/// End-to-end flow on one connection: submit, await over `wait`, a
/// warm repeat served from cache, and a batch answered in submission
/// order with its failure quarantined per job.
#[test]
fn submit_cache_and_batch_round_trip() {
    let (handle, toy) = boot_capped(4096);
    let mut c = Client::connect(&handle.addr).unwrap();

    let pong = req(&mut c, r#"{"op":"ping"}"#);
    assert_eq!(pong.get("engine_version").and_then(Value::as_i64), Some(1));

    let r = req(
        &mut c,
        r#"{"op":"submit","exp":"echo","seed":7,"params":{"x":1}}"#,
    );
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    let id = r.get("id").and_then(Value::as_u64).unwrap();
    let done = c.await_terminal(id).unwrap();
    assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(done.get("cached").and_then(Value::as_bool), Some(false));
    let cold_runs = toy.runs.load(Ordering::SeqCst);

    // Same spec again: served from cache, no new run.
    let r = req(
        &mut c,
        r#"{"op":"submit","exp":"echo","seed":7,"params":{"x":1}}"#,
    );
    assert_eq!(r.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(toy.runs.load(Ordering::SeqCst), cold_runs);

    // Batch: replies in submission order, failures quarantined per-job.
    let b = req(
        &mut c,
        r#"{"op":"batch","jobs":[{"exp":"echo","seed":1,"params":{}},{"exp":"boom","seed":2,"params":{}},{"exp":"echo","seed":3,"params":{}}]}"#,
    );
    let results = b.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(
        results[0].get("state").and_then(Value::as_str),
        Some("done")
    );
    assert_eq!(
        results[1].get("state").and_then(Value::as_str),
        Some("failed")
    );
    assert_eq!(
        results[2].get("state").and_then(Value::as_str),
        Some("done")
    );

    handle.shutdown();
}

/// A 100,000-deep `[` line — short next to the 16 MiB line cap — gets
/// a typed `bad JSON` reply, and the same connection keeps serving. The
/// parser's nesting cap, not the thread stack, bounds the recursion: one
/// hostile request must never abort the daemon.
#[test]
fn deeply_nested_request_is_refused_not_fatal() {
    let deep = "[".repeat(100_000);
    let (handle, _) = boot_capped(4096);
    let mut c = Client::connect(&handle.addr).unwrap();
    let r = req(&mut c, &deep);
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
    let err = r.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(err.contains("nesting"), "{err}");
    let pong = req(&mut c, r#"{"op":"ping"}"#);
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    handle.shutdown();
}

/// A raw connection whose reads and writes time out, so a server that
/// never answers fails the test instead of hanging it.
fn timed_conn(addr: &str) -> std::io::BufReader<std::net::TcpStream> {
    let s = std::net::TcpStream::connect(addr).expect("connect");
    let t = Some(std::time::Duration::from_secs(30));
    s.set_read_timeout(t).unwrap();
    s.set_write_timeout(t).unwrap();
    std::io::BufReader::new(s)
}

/// Input past the 16 MiB line cap with no newline gets the typed
/// `request line exceeds` error, then EOF: a client that never sends a
/// newline cannot grow the daemon's memory without bound.
#[test]
fn request_line_past_the_cap_is_refused_then_closed() {
    use std::io::{BufRead, Write};
    let (handle, _) = boot(None);
    let mut conn = timed_conn(&handle.addr);
    conn.get_mut()
        .write_all(&vec![b'x'; (16 << 20) + 1])
        .expect("send");
    let mut line = String::new();
    conn.read_line(&mut line).expect("typed error");
    assert!(line.contains("request line exceeds"), "{line}");
    line.clear();
    assert_eq!(conn.read_line(&mut line).expect("clean close"), 0, "{line}");
    handle.shutdown();
}

/// A line that is not UTF-8 gets a typed error, and the same connection
/// goes on serving.
#[test]
fn non_utf8_request_line_gets_a_typed_error() {
    use std::io::{BufRead, Write};
    let (handle, _) = boot(None);
    let mut conn = timed_conn(&handle.addr);
    conn.get_mut()
        .write_all(b"\xff\xfe\n{\"op\":\"ping\"}\n")
        .expect("send");
    let mut line = String::new();
    conn.read_line(&mut line).expect("typed error");
    assert!(line.contains("request is not valid UTF-8"), "{line}");
    line.clear();
    conn.read_line(&mut line).expect("pong");
    assert!(line.contains("\"pong\":true"), "{line}");
    handle.shutdown();
}
