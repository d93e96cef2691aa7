//! farmd's executor and its daemon: worker pool, cache, boot, drain.
//!
//! Shape (DESIGN.md §12): clients are served by the shared job front end
//! ([`crate::front`]), which answers `use`-mode cache hits inline at
//! admission and queues misses for a work-stealing worker pool (shared
//! next-job queue, same discipline as `bfly_bench::parallel_sweep` — any
//! worker may take any job, and determinism is guaranteed because
//! results are a function of job identity alone, never of worker
//! identity). Worker panics are caught and quarantine the *job*;
//! deadlines and bounded retries classify the outcome as a [`Verdict`]
//! instead of tearing down the daemon; SIGTERM (or an
//! `{"op":"shutdown"}` request) drains: stop accepting, refuse new
//! submissions, finish everything queued, then exit.
//!
//! Connections are served by the poll(2)-driven reactor in
//! [`crate::reactor`] (DESIGN.md §15), which multiplexes thousands of
//! them on one thread and parks blocked `batch`/`wait` verbs instead of
//! threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::Cache;
use crate::front::{error_reply, Acceptor, Claim, Executor, Front, Listen, State, MAX_CONNS};
use crate::job::{CacheMode, JobSpec, Verdict};
use crate::json::{push_json_str, Value};

/// The experiment registry the daemon serves. Implemented by
/// `bfly-bench` (which owns the simulation stack); the daemon is generic
/// so the serving layer stays dependency-free.
pub trait JobRunner: Send + Sync + 'static {
    /// Version of the simulation engine. Part of every cache key: bump it
    /// whenever simulated results can change, and every prior cache entry
    /// silently invalidates.
    fn engine_version(&self) -> u32;
    /// Experiment names this runner accepts.
    fn experiments(&self) -> Vec<&'static str>;
    /// Run one job to canonical result bytes (single-line JSON). Must be
    /// a pure function of the job spec: bytes for the same spec must be
    /// bit-identical on every call, on any thread.
    fn run(&self, spec: &JobSpec) -> Result<Vec<u8>, String>;
    /// [`JobRunner::run`] with a checkpoint transport. Runners that
    /// support resumable jobs load prior progress from `ckpt`, persist
    /// progress through it as they go, and report how much was actually
    /// reusable via [`Checkpointer::resumed`] — while still returning
    /// bytes bit-identical to an uninterrupted [`JobRunner::run`]. The
    /// default ignores the transport, so checkpointing is strictly
    /// opt-in per runner (and per experiment inside a runner).
    fn run_checkpointed(
        &self,
        spec: &JobSpec,
        ckpt: &mut dyn Checkpointer,
    ) -> Result<Vec<u8>, String> {
        let _ = ckpt;
        self.run(spec)
    }
}

/// Mid-job checkpoint transport handed to [`JobRunner::run_checkpointed`].
/// The daemon stays dependency-free: it moves opaque bytes (the runner
/// decides what they mean — `bfly-bench` stores versioned sweep-point
/// checkpoints) between the worker and the cache tiers under the job's
/// [`JobSpec::snap_key`].
pub trait Checkpointer: Send {
    /// Latest surviving checkpoint bytes for this job, if any.
    fn load(&mut self) -> Option<Vec<u8>>;
    /// Persist checkpoint bytes durably — they must survive the process
    /// dying right after this call returns.
    fn save(&mut self, bytes: &[u8]);
    /// Called by the runner with the number of work units it actually
    /// reused from a loaded checkpoint (0 for a mismatched or stale one).
    /// Drives the `resumed_from_snapshot` reply field.
    fn resumed(&mut self, units: u64) {
        let _ = units;
    }
}

/// Shards of farmd's result cache: each has its own lock and an equal
/// share of `cache_bytes`.
const CACHE_SHARDS: usize = 16;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub listen: Listen,
    /// Worker threads. 0 = available parallelism.
    pub workers: usize,
    /// Disk tier root (`FARM_CACHE/`); `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// In-memory LRU bound, bytes (across all shards).
    pub cache_bytes: usize,
    /// Deadline for jobs that don't set one, ms.
    pub default_deadline_ms: u64,
    /// Post-panic retry budget for jobs that don't set one.
    pub default_retries: u32,
    /// Backpressure: submissions beyond this many queued jobs are
    /// rejected with `queue full` instead of buffered without bound.
    pub max_queue: usize,
    /// Stable cluster identity, reported in `ping`/`stats` so a router
    /// can tell shards apart across restarts. `None` for standalone use.
    pub shard_id: Option<String>,
    /// Artificial delay before each disk-tier write, ms (fault-injection
    /// knob for drain/crash tests; 0 in production).
    pub disk_write_delay_ms: u64,
    /// Concurrent-connection cap. A dial past the cap gets a typed
    /// `busy` error and a clean close.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers: 0,
            cache_dir: Some(PathBuf::from("FARM_CACHE")),
            cache_bytes: 64 << 20,
            default_deadline_ms: 300_000,
            default_retries: 1,
            max_queue: 1024,
            shard_id: None,
            disk_write_delay_ms: 0,
            max_conns: MAX_CONNS,
        }
    }
}

/// farmd's executor: the local worker pool behind the shared job front
/// end, with the result cache its admission check and workers consult.
pub(crate) struct Local {
    runner: Arc<dyn JobRunner>,
    cache: Cache,
    config: ServerConfig,
    /// Durable mid-job checkpoints written by workers.
    checkpoints: AtomicU64,
}

/// A running daemon. Dropping the handle does not stop the server; call
/// [`ServerHandle::shutdown`] (or send `{"op":"shutdown"}`).
pub struct ServerHandle {
    /// The bound address: `host:port` for TCP (with the real ephemeral
    /// port), the socket path for Unix.
    pub addr: String,
    front: Arc<Front<Local>>,
    listener: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Ask the daemon to drain (idempotent, non-blocking).
    pub fn request_shutdown(&self) {
        self.front.request_shutdown();
    }

    /// Drain and wait for the daemon to finish everything queued.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
    }

    /// Wait until the daemon exits (after a drain is requested by signal
    /// or protocol).
    pub fn join(mut self) {
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
    }

    /// Abrupt in-process kill — the chaos harness's stand-in for
    /// SIGKILL. Unlike a drain, queued jobs are abandoned, in-flight
    /// batches are cut, and pending disk-tier writes are *discarded*
    /// (exactly what a real crash loses). Idempotent.
    pub fn kill(&self) {
        self.front.kill();
        self.front.exec.cache.discard_pending();
    }

    /// Jobs currently queued or running (chaos-harness introspection).
    pub fn inflight(&self) -> usize {
        self.front.inflight()
    }
}

/// SIGTERM/SIGINT latch. `std` cannot register signal handlers, but it
/// already links libc on every supported platform, so the daemon binary
/// declares the one symbol it needs. The handler only stores to an
/// atomic — the only thing that is async-signal-safe.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM/SIGINT has been received (after
/// [`install_signal_drain`]).
pub fn signal_drain_requested() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Route SIGTERM and SIGINT into a graceful drain. Unix only; a no-op
/// elsewhere (the protocol `shutdown` op still works everywhere).
pub fn install_signal_drain() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is declared with the correct libc prototype,
        // and the handler only performs an async-signal-safe atomic store.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// Boot a daemon: bind, spawn the worker pool and the listener thread,
/// return immediately. The handle's `addr` field carries the actual
/// bound address (useful with `:0`).
pub fn spawn(config: ServerConfig, runner: Arc<dyn JobRunner>) -> std::io::Result<ServerHandle> {
    let workers = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
    } else {
        config.workers
    };
    let (acceptor, addr) = Acceptor::bind(&config.listen)?;
    let cache = Cache::new(config.cache_dir.clone(), CACHE_SHARDS, config.cache_bytes);
    cache.set_write_delay_ms(config.disk_write_delay_ms);
    let (max_queue, max_conns) = (config.max_queue, config.max_conns);
    let front = Arc::new(Front::new(
        Local {
            runner,
            cache,
            config,
            checkpoints: AtomicU64::new(0),
        },
        max_queue,
        max_conns,
    )?);

    let worker_handles: Vec<_> = (0..workers)
        .map(|i| {
            let front = Arc::clone(&front);
            std::thread::Builder::new()
                .name(format!("farm-worker-{i}"))
                .spawn(move || {
                    while let Some(jobs) = front.pop(1) {
                        for job in jobs {
                            execute(&front, job);
                        }
                    }
                })
                .expect("spawn worker")
        })
        .collect();

    let f = Arc::clone(&front);
    let listener = std::thread::Builder::new()
        .name("farm-listener".into())
        .spawn(move || {
            // A graceful drain also flushes the cache's write-behind
            // queue so a drained shard rejoins with a complete warm disk
            // tier; a kill does not — pending writes are lost exactly as
            // in a real crash.
            if f.serve(&acceptor) {
                f.exec.cache.flush();
            }
            for w in worker_handles {
                let _ = w.join();
            }
        })
        .expect("spawn listener");

    Ok(ServerHandle {
        addr,
        front,
        listener: Some(listener),
    })
}

/// Cache-backed checkpoint transport: snapshots live in the same
/// mem+disk tiers as results, under the job's `#snap` key. Saves are
/// flushed through the write-behind queue before returning, so a
/// checkpoint the runner believes written genuinely survives an abrupt
/// kill (which discards pending writes — exactly what a crash loses).
struct CacheCheckpointer<'a> {
    cache: &'a Cache,
    key: String,
    checkpoints: &'a AtomicU64,
    resumed_units: u64,
}

impl Checkpointer for CacheCheckpointer<'_> {
    fn load(&mut self) -> Option<Vec<u8>> {
        self.cache.get(&self.key)
    }

    fn save(&mut self, bytes: &[u8]) {
        self.cache.put(&self.key, bytes.to_vec());
        self.cache.flush();
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    fn resumed(&mut self, units: u64) {
        self.resumed_units += units;
    }
}

/// Run one queued job to a terminal state.
fn execute(front: &Front<Local>, job: Claim) {
    let local = &front.exec;
    let Claim {
        id,
        spec,
        submitted,
    } = job;
    let deadline =
        Duration::from_millis(spec.deadline_ms.unwrap_or(local.config.default_deadline_ms));
    let retries = spec.retries.unwrap_or(local.config.default_retries);
    let key = spec.key(local.runner.engine_version());
    let failed = |verdict, error, attempts| State::Failed {
        verdict,
        error,
        attempts,
    };

    // A job that sat in the queue past its deadline never starts: the
    // client has given up, and running it would only delay live jobs.
    if submitted.elapsed() > deadline {
        let error = format!("deadline ({} ms) passed while queued", deadline.as_millis());
        front.finish(id, failed(Verdict::DeadlineExpired, error, 0));
        return;
    }

    // Serve from cache (workers re-check: an identical job may have been
    // computed since this one was enqueued).
    if spec.cache == CacheMode::Use {
        if let Some(bytes) = local.cache.get(&key) {
            let state = State::Done {
                bytes: Arc::new(bytes),
                cached: true,
                resumed: false,
                wall_ms: 0.0,
            };
            front.finish(id, state);
            return;
        }
    }

    // Mid-run checkpoints ride the cache tiers under the `#snap` key.
    // Only `use`-mode jobs get the transport: `bypass` must not touch the
    // cache at all (it is the bit-identity control), and `refresh`
    // promises a cold recomputation. The transport outlives the retry
    // loop, so an attempt that panics mid-sweep resumes from its own
    // checkpoints on the next attempt.
    let checkpointed = spec.cache == CacheMode::Use;
    let mut ckpt = CacheCheckpointer {
        cache: &local.cache,
        key: spec.snap_key(local.runner.engine_version()),
        checkpoints: &local.checkpoints,
        resumed_units: 0,
    };

    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if attempt > 1 {
            front.set_attempts(id, attempt);
        }
        let t0 = Instant::now();
        // Quarantine discipline: a panicking experiment must not take the
        // worker (or the daemon) down. `AssertUnwindSafe` is sound here
        // because a failed attempt shares no state with the next one —
        // the runner is a pure function of the spec. NOTE: this protects
        // builds with unwinding panics; the release profile uses
        // `panic = "abort"`, where a panic still ends the process — the
        // registry therefore validates jobs instead of panicking on them.
        let outcome = if checkpointed {
            catch_unwind(AssertUnwindSafe(|| {
                local.runner.run_checkpointed(&spec, &mut ckpt)
            }))
        } else {
            catch_unwind(AssertUnwindSafe(|| local.runner.run(&spec)))
        };
        let wall = t0.elapsed();
        let state = match outcome {
            Ok(Ok(bytes)) => {
                if spec.cache != CacheMode::Bypass {
                    local.cache.put(&key, bytes.clone());
                }
                State::Done {
                    bytes: Arc::new(bytes),
                    cached: false,
                    resumed: ckpt.resumed_units > 0,
                    wall_ms: wall.as_secs_f64() * 1e3,
                }
            }
            // A classified rejection is deterministic; retrying would
            // reproduce it.
            Ok(Err(error)) => failed(Verdict::Failed, error, attempt),
            Err(panic) => {
                let msg = panic_message(&panic);
                if attempt > retries {
                    let error = format!("panicked on all {attempt} attempts: {msg}");
                    failed(Verdict::Quarantined, error, attempt)
                } else if submitted.elapsed() > deadline {
                    let error = format!("deadline passed after panic: {msg}");
                    failed(Verdict::DeadlineExpired, error, attempt)
                } else {
                    continue;
                }
            }
        };
        front.finish(id, state);
        return;
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

impl Executor for Local {
    /// Unknown experiments are refused, and a `use`-mode warm hit is
    /// answered from the cache shard directly — it never touches the
    /// queue, which is what makes warm batches orders of magnitude
    /// faster than cold ones (and servable while the queue is full).
    fn admit(&self, spec: &JobSpec) -> Result<Option<Vec<u8>>, String> {
        if !self.runner.experiments().contains(&spec.exp.as_str()) {
            return Err(format!("unknown experiment `{}`", spec.exp));
        }
        if spec.cache != CacheMode::Use {
            return Ok(None);
        }
        Ok(self.cache.get(&spec.key(self.runner.engine_version())))
    }

    fn ping(&self) -> String {
        let mut out = format!(
            "{{\"ok\":true,\"pong\":true,\"engine_version\":{}",
            self.runner.engine_version()
        );
        if let Some(id) = &self.config.shard_id {
            out.push_str(",\"shard_id\":");
            push_json_str(&mut out, id);
        }
        out.push('}');
        out
    }

    fn stats(&self, front: &Front<Self>) -> String {
        let n = front.counts();
        let cs = &self.cache.stats;
        let mut exps = self.runner.experiments();
        exps.sort_unstable();
        let mut exp_json = String::from("[");
        for (i, e) in exps.iter().enumerate() {
            if i > 0 {
                exp_json.push(',');
            }
            push_json_str(&mut exp_json, e);
        }
        exp_json.push(']');
        let mut shard_json = String::new();
        if let Some(id) = &self.config.shard_id {
            shard_json.push_str("\"shard_id\":");
            push_json_str(&mut shard_json, id);
            shard_json.push(',');
        }
        format!(
            "{{\"ok\":true,{}\"engine_version\":{},\"draining\":{},\
             \"jobs\":{{\"submitted\":{},\"done\":{},\"failed\":{},\
             \"quarantined\":{},\"deadline_expired\":{},\"checkpoints\":{},\
             \"resumed\":{},\"queued\":{},\"running\":{}}},\
             \"cache\":{{\"mem_hits\":{},\"disk_hits\":{},\"misses\":{},\"evictions\":{},\
             \"corrupt\":{},\"pending_writes\":{},\"disk_writes\":{},\
             \"mem_bytes\":{},\"mem_entries\":{}}},\"experiments\":{}}}",
            shard_json,
            self.runner.engine_version(),
            front.draining(),
            n.submitted,
            n.done,
            n.failed,
            n.quarantined,
            n.deadline_expired,
            self.checkpoints.load(Ordering::Relaxed),
            n.resumed,
            n.queued,
            n.running,
            cs.mem_hits.load(Ordering::Relaxed),
            cs.disk_hits.load(Ordering::Relaxed),
            cs.misses.load(Ordering::Relaxed),
            cs.evictions.load(Ordering::Relaxed),
            cs.corrupt.load(Ordering::Relaxed),
            self.cache.pending_writes(),
            self.cache.disk_writes(),
            self.cache.mem_bytes(),
            self.cache.mem_entries(),
            exp_json
        )
    }

    /// The cluster verbs (DESIGN.md §14): the warm-rebalance surface. A
    /// router walks `cache_keys`, copies entries out with `cache_pull`,
    /// and seeds replicas with `cache_push`.
    fn verb(&self, op: &str, v: &Value, line: &str) -> Option<String> {
        Some(match op {
            "cache_keys" => {
                let mut out = String::from("{\"ok\":true,\"keys\":[");
                for (i, k) in self.cache.keys().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(&mut out, k);
                }
                out.push_str("]}");
                out
            }
            "cache_pull" => match v.get("key").and_then(Value::as_str) {
                Some(key) if valid_cache_key(key) => match self.cache.get(key) {
                    // A checkpoint (`#snap` key) is opaque and may span
                    // lines; spliced into the reply it would leave extra
                    // lines on the connection for the next request to read.
                    Some(bytes) if bytes.contains(&b'\n') => {
                        error_reply("cache_pull: entry is not a one-line result")
                    }
                    // Result bytes are canonical single-line JSON; splice
                    // them verbatim so a pulled entry stays bit-identical.
                    Some(bytes) => format!(
                        "{{\"ok\":true,\"found\":true,\"result\":{}}}",
                        String::from_utf8_lossy(&bytes)
                    ),
                    None => "{\"ok\":true,\"found\":false}".into(),
                },
                _ => error_reply("cache_pull needs a 32-hex `key`"),
            },
            "cache_push" => self.cache_push(v, line),
            _ => return None,
        })
    }
}

fn valid_cache_key(key: &str) -> bool {
    key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit())
}

impl Local {
    /// Store a pulled entry under its content key (`cache_push`). The
    /// result bytes are extracted as the raw `"result":` suffix of the
    /// request line rather than re-serialized through our JSON model:
    /// the cluster's bit-identity contract requires the stored bytes to
    /// be exactly the bytes the origin shard computed, and re-dumping
    /// could re-order keys. The router always sends `result` as the
    /// final field, so the suffix is well-defined; the line was still
    /// parsed first to validate it.
    fn cache_push(&self, v: &Value, line: &str) -> String {
        let Some(key) = v.get("key").and_then(Value::as_str) else {
            return error_reply("cache_push needs a 32-hex `key`");
        };
        if !valid_cache_key(key) {
            return error_reply("cache_push needs a 32-hex `key`");
        }
        if v.get("result").is_none() {
            return error_reply("cache_push needs a `result` object");
        }
        // First occurrence is the field marker: `op` and `key` are fixed
        // format and cannot contain this substring.
        let Some(at) = line.find("\"result\":") else {
            return error_reply("cache_push needs a `result` field");
        };
        let raw = line[at + "\"result\":".len()..].trim_end();
        let Some(raw) = raw.strip_suffix('}') else {
            return error_reply("cache_push: `result` must be the final field");
        };
        self.cache.put(key, raw.as_bytes().to_vec());
        "{\"ok\":true,\"stored\":true}".into()
    }
}
