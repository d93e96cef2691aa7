//! End-to-end router tests over real sockets: placement, warm repeats,
//! failover with `rerouted` accounting, rejoin through probation, and
//! drain. Three in-process farmd shards run a deterministic toy runner;
//! the bench crate's chaos harness covers the full registry and the
//! seeded fault schedules — this file pins the router mechanics.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bfly_farm_router::{spawn as spawn_router, RouterConfig, RouterHandle};
use bfly_farmd::json::Value;
use bfly_farmd::{
    spawn as spawn_shard, Client, JobRunner, JobSpec, Listen, ServerConfig, ServerHandle,
};

/// Deterministic toy runner (result bytes are a pure function of the
/// spec), shared by all shards so recomputation is bit-identical.
struct Toy {
    runs: AtomicU64,
}

impl JobRunner for Toy {
    fn engine_version(&self) -> u32 {
        1
    }

    fn experiments(&self) -> Vec<&'static str> {
        vec!["echo", "reject", "slow"]
    }

    fn run(&self, spec: &JobSpec) -> Result<Vec<u8>, String> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        match spec.exp.as_str() {
            "reject" => Err("toy rejection".into()),
            "slow" => {
                // Long enough that jobs submitted together outnumber the
                // router's dispatchers and queue behind them.
                std::thread::sleep(Duration::from_millis(100));
                Ok(format!(r#"{{"slow":{}}}"#, spec.seed).into_bytes())
            }
            _ => Ok(format!(
                r#"{{"echo":{},"params":{}}}"#,
                spec.seed,
                spec.params.dump()
            )
            .into_bytes()),
        }
    }
}

struct TestCluster {
    shards: RefCell<Vec<Option<ServerHandle>>>,
    addrs: Vec<String>,
    router: Option<RouterHandle>,
    toy: Arc<Toy>,
}

fn shard_config(id: usize) -> ServerConfig {
    ServerConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        workers: 2,
        shard_id: Some(format!("shard-{id}")),
        default_retries: 1,
        // Memory-only: the default disk tier would be shared by every
        // shard in this process (same FARM_CACHE dir) and would leak
        // warm entries across test runs.
        cache_dir: None,
        ..ServerConfig::default()
    }
}

fn boot(n: usize, replicas: usize) -> TestCluster {
    boot_with(n, replicas, |_| {})
}

/// [`boot`] with a say over the router's configuration.
fn boot_with(n: usize, replicas: usize, tweak: impl FnOnce(&mut RouterConfig)) -> TestCluster {
    let toy = Arc::new(Toy {
        runs: AtomicU64::new(0),
    });
    let shards: Vec<Option<ServerHandle>> = (0..n)
        .map(|i| Some(spawn_shard(shard_config(i), toy.clone()).expect("boot shard")))
        .collect();
    let addrs: Vec<String> = shards
        .iter()
        .map(|s| s.as_ref().expect("live shard").addr.clone())
        .collect();
    let mut config = RouterConfig {
        shards: addrs.clone(),
        replicas,
        // Fast prober so eviction/rejoin fit in test time.
        ping_interval_ms: 40,
        ping_timeout_ms: 150,
        attempt_timeout_ms: 3_000,
        route_deadline_ms: 8_000,
        ..RouterConfig::default()
    };
    tweak(&mut config);
    let router = spawn_router(config).expect("boot router");
    TestCluster {
        shards: RefCell::new(shards),
        addrs,
        router: Some(router),
        toy,
    }
}

impl TestCluster {
    fn client(&self) -> Client {
        let addr = &self.router.as_ref().expect("router up").addr;
        Client::connect(addr).expect("connect to router")
    }

    fn stats(&self) -> Value {
        self.client()
            .request_line(r#"{"op":"stats"}"#)
            .expect("stats")
    }

    /// Abrupt in-process kill of shard `i` (SIGKILL stand-in).
    fn kill_shard(&self, i: usize) {
        let handle = self.shards.borrow_mut()[i].take().expect("shard live");
        handle.kill();
    }

    /// Restart shard `i` on its original address (same ring slot).
    fn revive_shard(&self, i: usize) {
        let handle = spawn_shard(
            ServerConfig {
                listen: Listen::Tcp(self.addrs[i].clone()),
                ..shard_config(i)
            },
            self.toy.clone(),
        )
        .expect("revive shard");
        self.shards.borrow_mut()[i] = Some(handle);
    }
}

impl Drop for TestCluster {
    fn drop(&mut self) {
        if let Some(r) = self.router.take() {
            r.request_shutdown();
            r.shutdown();
        }
        for s in self.shards.borrow_mut().iter_mut().filter_map(Option::take) {
            s.kill();
        }
    }
}

fn submit_poll(c: &mut Client, line: &str) -> Value {
    let r = c.request_line(line).expect("submit");
    assert_eq!(
        r.get("ok").and_then(Value::as_bool),
        Some(true),
        "submit refused: {}",
        r.dump()
    );
    let id = r.get("id").and_then(Value::as_u64).expect("job id");
    let t0 = Instant::now();
    loop {
        let s = c
            .request_line(&format!(r#"{{"op":"status","id":{id}}}"#))
            .expect("status");
        match s.get("state").and_then(Value::as_str) {
            Some("done") | Some("failed") => return s,
            _ => {
                assert!(t0.elapsed() < Duration::from_secs(20), "job {id} stuck");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn jobs_stat(stats: &Value, field: &str) -> u64 {
    stats
        .get("jobs")
        .and_then(|j| j.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats.jobs.{field} missing: {}", stats.dump()))
}

fn shard_health(stats: &Value, idx: usize) -> String {
    stats
        .get("cluster")
        .and_then(|c| c.get("shards"))
        .and_then(Value::as_arr)
        .and_then(|s| s.get(idx))
        .and_then(|s| s.get("health"))
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string()
}

#[test]
fn routes_jobs_and_serves_warm_repeats() {
    let cl = boot(3, 2);
    let mut c = cl.client();

    let done = submit_poll(
        &mut c,
        r#"{"op":"submit","exp":"echo","seed":1,"params":{"x":1}}"#,
    );
    assert_eq!(done.get("cached").and_then(Value::as_bool), Some(false));
    let cold = done.get("result").expect("result").dump();
    assert!(cold.contains("\"echo\":1"));

    // Repeat: warm, bit-identical, no extra toy run.
    let runs = cl.toy.runs.load(Ordering::SeqCst);
    let again = submit_poll(
        &mut c,
        r#"{"op":"submit","exp":"echo","seed":1,"params":{"x":1}}"#,
    );
    assert_eq!(again.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(again.get("result").expect("result").dump(), cold);
    assert_eq!(cl.toy.runs.load(Ordering::SeqCst), runs);

    // A terminal failure passes through as a verdict, not a reroute.
    let failed = submit_poll(&mut c, r#"{"op":"submit","exp":"reject","seed":2}"#);
    assert_eq!(failed.get("state").and_then(Value::as_str), Some("failed"));

    let st = cl.stats();
    assert_eq!(jobs_stat(&st, "submitted"), 3);
    assert_eq!(jobs_stat(&st, "done"), 2);
    assert_eq!(jobs_stat(&st, "failed"), 1);
    assert_eq!(jobs_stat(&st, "lost"), 0);
    assert_eq!(jobs_stat(&st, "rerouted"), 0);
}

#[test]
fn batch_replies_are_farmd_shaped() {
    let cl = boot(2, 2);
    let mut c = cl.client();
    let r = c
        .request_line(
            r#"{"op":"batch","jobs":[{"exp":"echo","seed":10},{"exp":"echo","seed":11},{"exp":"echo","seed":10}]}"#,
        )
        .expect("batch");
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(r.get("jobs").and_then(Value::as_u64), Some(3));
    let results = r.get("results").and_then(Value::as_arr).expect("results");
    assert_eq!(results.len(), 3);
    for el in results {
        assert_eq!(el.get("state").and_then(Value::as_str), Some("done"));
    }
    // Replies come back in submission order; the duplicate is a hit
    // (either inline on its warm shard or via the router's own replica).
    assert_eq!(
        results[0].get("result").expect("result").dump(),
        results[2].get("result").expect("result").dump()
    );
    assert_eq!(r.get("hits").and_then(Value::as_u64), Some(1));
}

#[test]
fn failover_reroutes_and_counts_and_rejoin_needs_probation() {
    let cl = boot(3, 2);
    let mut c = cl.client();

    // Warm the cluster across several placements.
    for seed in 0..6 {
        let line = format!(r#"{{"op":"submit","exp":"echo","seed":{seed}}}"#);
        submit_poll(&mut c, &line);
    }
    assert_eq!(jobs_stat(&cl.stats(), "lost"), 0);

    // Placement is fixed by job keys and the shard count, but which
    // seeds land on shard 0 is up to the hash — pick seeds whose
    // *primary* is shard 0 via the handle's preference hook instead of
    // hard-coding them.
    let router = cl.router.as_ref().expect("router up");
    let primary_of = |seed: u64| {
        let v = bfly_farmd::json::parse(&format!(r#"{{"exp":"echo","seed":{seed}}}"#))
            .expect("spec json");
        let spec = bfly_farmd::JobSpec::from_value(&v).expect("spec");
        router.preference(&spec.key(1))[0]
    };
    let aimed: Vec<u64> = (0..1_000).filter(|&s| primary_of(s) == 0).take(2).collect();
    assert_eq!(aimed.len(), 2, "shard 0 owns a nonzero arc of the ring");

    // Kill shard 0 *abruptly* (no drain). Jobs that prefer it must fail
    // over to a replica; nothing may be lost. Bypass the cache on the
    // repeats so the router must actually reach a live shard (warm hits
    // would mask a broken failover path).
    cl.kill_shard(0);
    for seed in (0..12).chain(aimed) {
        let line = format!(r#"{{"op":"submit","exp":"echo","seed":{seed},"cache":"bypass"}}"#);
        let done = submit_poll(&mut c, &line);
        assert_eq!(
            done.get("state").and_then(Value::as_str),
            Some("done"),
            "post-kill job failed: {}",
            done.dump()
        );
    }
    let st = cl.stats();
    assert_eq!(jobs_stat(&st, "lost"), 0);
    assert_eq!(jobs_stat(&st, "done"), 20);
    // The two aimed seeds preferred the dead shard, so failover must
    // have fired (counted once per job served away from its primary).
    assert!(
        jobs_stat(&st, "rerouted") >= 2,
        "killing a shard must surface as rerouted >= 2: {}",
        st.dump()
    );

    // The prober evicts after consecutive ping failures.
    let t0 = Instant::now();
    loop {
        let health = shard_health(&cl.stats(), 0);
        if health == "down" {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shard 0 never evicted (health {health})"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Restart shard 0 on the SAME address: rejoin goes through
    // probation and lands back at `up`.
    cl.revive_shard(0);
    let t0 = Instant::now();
    loop {
        let health = shard_health(&cl.stats(), 0);
        if health == "up" {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shard 0 never rejoined (health {health})"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The cluster still answers and still accounts for every job.
    submit_poll(&mut c, r#"{"op":"submit","exp":"echo","seed":99}"#);
    let st = cl.stats();
    assert_eq!(jobs_stat(&st, "lost"), 0);
    assert_eq!(jobs_stat(&st, "duplicates"), 0);
}

#[test]
fn drain_routes_everything_queued_before_exit() {
    // Three slow jobs per dispatcher (the router runs four): most are
    // still queued in the router when the drain starts.
    const JOBS: u64 = 12;
    let cl = boot(2, 1);
    let mut c = cl.client();
    for seed in 0..JOBS {
        let line = format!(r#"{{"op":"submit","exp":"slow","seed":{seed}}}"#);
        let r = c.request_line(&line).expect("submit");
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    }
    // Stats connection opened *before* the drain: the listener stops
    // accepting once shutdown is requested (same contract as farmd),
    // but established connections keep serving.
    let mut sc = cl.client();
    // Drain via protocol; afterwards new submits are refused.
    let r = c
        .request_line(r#"{"op":"shutdown"}"#)
        .expect("shutdown request");
    assert_eq!(r.get("draining").and_then(Value::as_bool), Some(true));
    // The router finishes routing everything already admitted. It may
    // drain and exit between polls (closing even the pre-opened stats
    // connection), so a socket error here means the drain *completed* —
    // switch to the in-process snapshot for the final accounting.
    //
    // A busy host may make the drain slow, so the test fails only on a
    // drain that stops moving: `queued`, `routing` and `done` all
    // unchanged for `STALL`. That is well under the 8 s per-job routing
    // budget, so a job waiting out its budget reads as stuck.
    const STALL: Duration = Duration::from_secs(5);
    let mut last = (u64::MAX, u64::MAX, u64::MAX);
    let mut since = Instant::now();
    loop {
        let st = match sc.request_line(r#"{"op":"stats"}"#) {
            Ok(st) => st,
            Err(_) => {
                let line = cl.router.as_ref().expect("router handle").stats_json();
                bfly_farmd::json::parse(&line).expect("stats json")
            }
        };
        if jobs_stat(&st, "queued") == 0 && jobs_stat(&st, "routing") == 0 {
            assert_eq!(jobs_stat(&st, "lost"), 0);
            assert_eq!(jobs_stat(&st, "done") + jobs_stat(&st, "failed"), JOBS);
            break;
        }
        let now = (
            jobs_stat(&st, "queued"),
            jobs_stat(&st, "routing"),
            jobs_stat(&st, "done"),
        );
        if now != last {
            (last, since) = (now, Instant::now());
        }
        assert!(
            since.elapsed() < STALL,
            "drain stuck: queued/routing/done at {last:?} for {STALL:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The router parses every client line before routing it: a 100,000-deep
/// `[` line gets a typed `bad JSON` reply, and the router keeps serving.
#[test]
fn deeply_nested_request_is_refused_not_fatal() {
    let cl = boot(1, 1);
    let mut c = cl.client();
    let r = c.request_line(&"[".repeat(100_000)).expect("error reply");
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
    let err = r.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(err.contains("nesting"), "{err}");
    let pong = c.request_line(r#"{"op":"ping"}"#).expect("ping");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
}

/// A fresh connection is taken as soon as it arrives: the accept loop
/// waits for readiness on the listener rather than sleeping a fixed
/// 25 ms after every empty accept, so 50 connections opened one after
/// another each get their first `ping` reply well inside that backoff.
#[test]
fn fresh_connections_are_accepted_without_backoff() {
    let cl = boot(1, 1);
    let mut ms: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let pong = cl.client().request_line(r#"{"op":"ping"}"#).expect("ping");
            assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(median < 5.0, "median connect-to-pong {median:.2} ms");
}

/// One raw request line over a connection; the raw reply line back.
fn raw_request(conn: &mut std::io::BufReader<std::net::TcpStream>, line: &str) -> String {
    use std::io::{BufRead, Write};
    let w = conn.get_mut();
    w.write_all(line.as_bytes()).expect("send");
    w.write_all(b"\n").expect("send");
    let mut reply = String::new();
    conn.read_line(&mut reply).expect("reply");
    reply.trim_end().to_string()
}

fn raw_conn(addr: &str) -> std::io::BufReader<std::net::TcpStream> {
    std::io::BufReader::new(std::net::TcpStream::connect(addr).expect("connect"))
}

/// A raw connection whose reads and writes time out, so a server that
/// never answers fails the test instead of hanging it.
fn timed_conn(addr: &str) -> std::io::BufReader<std::net::TcpStream> {
    let s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(30))).unwrap();
    std::io::BufReader::new(s)
}

/// Input past the 16 MiB line cap with no newline gets the typed
/// `request line exceeds` error, then EOF: a client that never sends a
/// newline cannot grow the router's memory without bound.
#[test]
fn request_line_past_the_cap_is_refused_then_closed() {
    use std::io::{BufRead, Write};
    let cl = boot(1, 1);
    let mut conn = timed_conn(&cl.router.as_ref().expect("router up").addr);
    conn.get_mut()
        .write_all(&vec![b'x'; (16 << 20) + 1])
        .expect("send");
    let mut line = String::new();
    conn.read_line(&mut line).expect("typed error");
    assert!(line.contains("request line exceeds"), "{line}");
    line.clear();
    assert_eq!(conn.read_line(&mut line).expect("clean close"), 0, "{line}");
}

/// A line that is not UTF-8 gets a typed error, and the same connection
/// goes on serving.
#[test]
fn non_utf8_request_line_gets_a_typed_error() {
    use std::io::{BufRead, Write};
    let cl = boot(1, 1);
    let mut conn = timed_conn(&cl.router.as_ref().expect("router up").addr);
    conn.get_mut()
        .write_all(b"\xff\xfe\n{\"op\":\"ping\"}\n")
        .expect("send");
    let mut line = String::new();
    conn.read_line(&mut line).expect("typed error");
    assert!(line.contains("request is not valid UTF-8"), "{line}");
    line.clear();
    conn.read_line(&mut line).expect("pong");
    assert!(line.contains("\"pong\":true"), "{line}");
}

/// Replace the digits after every `"id":` and `"wall_ms":` with `#`:
/// ids are per-daemon and wall time is wall time.
fn mask(reply: &str) -> String {
    let mut out = reply.to_string();
    for field in ["\"id\":", "\"wall_ms\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(field) {
            let start = from + at + field.len();
            let len = out[start..]
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "#");
            from = start + 1;
        }
    }
    out
}

/// The router serves clients through farmd's own job front end, so the
/// same requests get byte-identical replies from a bare farmd and from a
/// one-shard router (ids and wall time masked) — refusals and a settled
/// warm job alike.
#[test]
fn router_replies_are_byte_identical_to_a_bare_farmd() {
    let cl = boot(1, 1);
    let router = &cl.router.as_ref().expect("router up").addr;
    let shard = &cl.addrs[0];
    let job = r#"{"op":"submit","exp":"echo","seed":5,"params":{"x":2}}"#;
    // Cold once through the router, so both daemons answer it warm.
    submit_poll(&mut cl.client(), job);

    let too_many = format!(r#"{{"op":"wait","ids":[{}]}}"#, vec!["1"; 4097].join(","));
    let mut requests: Vec<String> = [
        r#"{"op":"#,
        r#"{"x":1}"#,
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"status"}"#,
        r#"{"op":"status","id":999999}"#,
        r#"{"op":"batch"}"#,
        r#"{"op":"wait","ids":["one"]}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    requests.push(too_many);

    let mut replies: Vec<Vec<String>> = Vec::new();
    for addr in [shard, router] {
        let mut c = raw_conn(addr);
        let mut got: Vec<String> = requests.iter().map(|r| raw_request(&mut c, r)).collect();
        let submitted = raw_request(&mut c, job);
        let id = bfly_farmd::json::parse(&submitted)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_u64))
            .unwrap_or_else(|| panic!("{addr}: submit refused: {submitted}"));
        got.push(raw_request(
            &mut c,
            &format!(r#"{{"op":"wait","ids":[{id}],"timeout_ms":10000}}"#),
        ));
        replies.push(got.iter().map(|r| mask(r)).collect());
    }
    let warm = replies[0].last().expect("wait reply");
    assert!(warm.contains("\"complete\":true"), "{warm}");
    assert!(warm.contains("\"cached\":true"), "{warm}");
    for (i, (a, b)) in replies[0].iter().zip(&replies[1]).enumerate() {
        assert_eq!(a, b, "request {i}: farmd and router replies differ");
    }
}

/// The router keeps farmd's bounded job table: once more jobs than the
/// record cap have settled, the oldest id answers `no such job`, and
/// `lost` — counter arithmetic, not a table scan — is still 0.
#[test]
fn router_evicts_terminal_records_past_the_cap() {
    use std::io::{BufRead, Write};
    const BATCH: usize = 4096;
    let batches = bfly_farmd::front::MAX_RECORDS / BATCH + 1;
    let cl = boot(1, 1);
    let addr = cl.router.as_ref().expect("router up").addr.clone();
    // Placement needs the engine version the prober learns first.
    submit_poll(&mut cl.client(), r#"{"op":"submit","exp":"echo","seed":1}"#);

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let line = format!(
        r#"{{"op":"batch","jobs":[{}]}}"#,
        vec![r#"{"exp":"echo","seed":1}"#; BATCH].join(",")
    );
    // Pipelined: every batch goes out before the first reply is read,
    // from a thread of its own so neither side blocks on a full socket.
    let sender = std::thread::spawn(move || {
        for _ in 0..batches {
            writer.write_all(line.as_bytes()).expect("send batch");
            writer.write_all(b"\n").expect("send batch");
        }
    });
    let mut reader = std::io::BufReader::new(stream);
    for b in 0..batches {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("batch reply");
        let v = bfly_farmd::json::parse(reply.trim()).expect("batch json");
        let results = v.get("results").and_then(Value::as_arr).expect("results");
        assert_eq!(results.len(), BATCH);
        assert!(
            results
                .iter()
                .all(|r| r.get("state").and_then(Value::as_str) == Some("done")),
            "batch {b} did not settle: {}",
            &reply[..reply.len().min(300)]
        );
    }
    sender.join().expect("sender");

    let mut c = cl.client();
    let first = c.request_line(r#"{"op":"status","id":1}"#).expect("status");
    assert_eq!(
        first.get("error").and_then(Value::as_str),
        Some("no such job 1"),
        "{}",
        first.dump()
    );
    let st = cl.stats();
    let settled = (batches * BATCH + 1) as u64;
    assert_eq!(jobs_stat(&st, "submitted"), settled);
    assert_eq!(jobs_stat(&st, "done"), settled);
    assert_eq!(jobs_stat(&st, "lost"), 0);
}

/// With no shard ever reachable the engine version stays unknown, and a
/// popped group of jobs used to wait out one routing budget per job in
/// turn. A single dispatcher is kept busy with one job while four more
/// queue behind it; when it pops the four as one group they must expire
/// together, about one budget later, not four.
#[test]
fn an_unroutable_group_shares_one_deadline() {
    const BUDGET_MS: u64 = 400;
    // A port that refuses: bound once for a free number, then released.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .to_string();
    let router = spawn_router(RouterConfig {
        shards: vec![dead],
        replicas: 1,
        workers: 1,
        ping_interval_ms: 40,
        ping_timeout_ms: 100,
        route_deadline_ms: BUDGET_MS,
        ..RouterConfig::default()
    })
    .expect("boot router");
    let mut c = Client::connect(&router.addr).expect("connect to router");
    let first = c
        .request_line(r#"{"op":"submit","exp":"echo","seed":1}"#)
        .expect("submit");
    assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
    let t0 = Instant::now();
    let r = c
        .request_line(
            r#"{"op":"batch","jobs":[{"exp":"echo","seed":2},{"exp":"echo","seed":3},{"exp":"echo","seed":4},{"exp":"echo","seed":5}]}"#,
        )
        .expect("batch");
    let took = t0.elapsed();
    let results = r.get("results").and_then(Value::as_arr).expect("results");
    assert_eq!(results.len(), 4);
    for el in results {
        assert_eq!(
            el.get("verdict").and_then(Value::as_str),
            Some("deadline_expired"),
            "{}",
            el.dump()
        );
    }
    // The first job's budget, then the group's one shared budget.
    assert!(
        took < Duration::from_millis(BUDGET_MS * 7 / 2),
        "4 unroutable jobs took {took:?} at a {BUDGET_MS} ms budget"
    );
    router.request_shutdown();
    router.shutdown();
}

/// Ring preference order of a toy job (engine version 1).
fn preference_of(router: &RouterHandle, job: &str) -> Vec<usize> {
    let v = bfly_farmd::json::parse(job).expect("spec json");
    let spec = JobSpec::from_value(&v).expect("spec");
    router.preference(&spec.key(1))
}

/// A connection the router pooled before its shard restarted is stale,
/// not evidence against the shard: the bucket that checks it out
/// redials once, and the shard stays `up` with no job rerouted.
#[test]
fn a_stale_pooled_connection_does_not_charge_the_shard() {
    // One dispatcher, so each batch below leaves as one bucket; and one
    // ping sweep only (at boot, where the router learns the engine
    // version), so nothing but routing can move a shard's health and no
    // ping can reset a `suspect` streak before `stats` is read.
    let cl = boot_with(3, 2, |c| {
        c.workers = 1;
        c.ping_interval_ms = 600_000;
    });
    let router = cl.router.as_ref().expect("router up");
    let aimed: Vec<String> = (0..1_000)
        .map(|s| format!(r#"{{"exp":"echo","seed":{s},"cache":"bypass"}}"#))
        .filter(|job| preference_of(router, job)[0] == 0)
        .take(6)
        .collect();
    assert_eq!(aimed.len(), 6, "shard 0 owns a nonzero arc of the ring");
    // A slow job that neither runs on shard 0 nor replicates to it: it
    // holds the dispatcher while the second batch queues behind it.
    let slow = (0..1_000)
        .map(|s| format!(r#"{{"exp":"slow","seed":{s},"cache":"bypass"}}"#))
        .find(|job| !preference_of(router, job)[..2].contains(&0))
        .expect("a key placed away from shard 0");
    let batch = format!(r#"{{"op":"batch","jobs":[{}]}}"#, aimed.join(","));
    let all_done = |reply: &Value| {
        let results = reply
            .get("results")
            .and_then(Value::as_arr)
            .expect("results");
        assert_eq!(results.len(), aimed.len(), "{}", reply.dump());
        for el in results {
            assert_eq!(
                el.get("state").and_then(Value::as_str),
                Some("done"),
                "{}",
                el.dump()
            );
        }
    };
    let mut c = cl.client();
    // Leaves a keep-alive connection to shard 0 in the router's pool.
    all_done(&c.request_line(&batch).expect("first batch"));

    // Restart shard 0 on its address once the old listener is gone.
    cl.kill_shard(0);
    let t0 = Instant::now();
    while std::net::TcpStream::connect(&cl.addrs[0]).is_ok() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shard 0 never closed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    cl.revive_shard(0);
    let t0 = Instant::now();
    while shard_health(&cl.stats(), 0) != "up" {
        assert!(t0.elapsed() < Duration::from_secs(10), "shard 0 never up");
        std::thread::sleep(Duration::from_millis(25));
    }
    let rerouted = jobs_stat(&cl.stats(), "rerouted");

    let submitted = c
        .request_line(&format!(r#"{{"op":"submit",{}"#, &slow[1..]))
        .expect("submit slow");
    assert_eq!(submitted.get("ok").and_then(Value::as_bool), Some(true));
    all_done(&c.request_line(&batch).expect("second batch"));

    let st = cl.stats();
    assert_eq!(shard_health(&st, 0), "up", "{}", st.dump());
    assert_eq!(jobs_stat(&st, "rerouted"), rerouted, "{}", st.dump());
    assert_eq!(jobs_stat(&st, "lost"), 0);
}

/// Ring points are named by shard position, so two routers over
/// different ports place every key alike.
#[test]
fn placement_does_not_depend_on_shard_ports() {
    // Ports that refuse: bound together for distinct free numbers, then
    // released. The routers' prober pings find nobody there.
    let listeners: Vec<std::net::TcpListener> = (0..6)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("free port"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound").to_string())
        .collect();
    drop(listeners);
    let routers: Vec<RouterHandle> = addrs
        .chunks(3)
        .map(|shards| {
            spawn_router(RouterConfig {
                shards: shards.to_vec(),
                ping_interval_ms: 600_000,
                ..RouterConfig::default()
            })
            .expect("boot router")
        })
        .collect();
    for i in 0..256u32 {
        let key = format!("{:032x}", u128::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        assert_eq!(
            routers[0].preference(&key),
            routers[1].preference(&key),
            "key {key}"
        );
    }
    for r in routers {
        r.shutdown();
    }
}
