//! `farmd` — the experiment-serving daemon (DESIGN.md §12).
//!
//! Boots a [`bfly_farmd`] server over the [`bfly_bench::Registry`] and
//! serves JSON-lines jobs until drained by SIGTERM/SIGINT or an
//! `{"op":"shutdown"}` request. Flags:
//!
//! * `--listen <host:port>` — TCP address (default `127.0.0.1:4655`;
//!   use `:0` for an ephemeral port, reported on stderr and via
//!   `--port-file`).
//! * `--unix <path>` — serve on a Unix-domain socket instead of TCP.
//! * `--workers <n>` — worker threads (default: available parallelism).
//! * `--cache-dir <dir>` — disk cache root (default `FARM_CACHE`);
//!   `--no-disk-cache` keeps the cache memory-only.
//! * `--cache-mb <n>` — in-memory LRU bound (default 64 MiB).
//! * `--deadline-ms <n>` / `--retries <n>` / `--max-queue <n>` —
//!   defaults for jobs that don't set their own.
//! * `--port-file <path>` — write the bound address there once listening
//!   (how the CI farmd-e2e job finds an ephemeral port).
//! * `--shard-id <name>` — identity reported in `ping`/`stats` when this
//!   daemon serves as a cluster shard behind `farm-router`.
//! * `--max-conns <n>` — concurrent-connection cap (default 4096);
//!   excess dials get a `busy` error and a clean close.
//!
//! Connections are served by the poll(2) reactor (DESIGN.md §15), so the
//! daemon runs on Unix only; elsewhere it exits with `Unsupported`.

use std::sync::Arc;

use bfly_bench::Registry;
use bfly_farmd::{install_signal_drain, signal_drain_requested, Listen, ServerConfig};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    arg_value(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{flag} takes a number, got `{v}`"))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = ServerConfig {
        listen: Listen::Tcp(
            arg_value(&args, "--listen").unwrap_or_else(|| "127.0.0.1:4655".into()),
        ),
        ..ServerConfig::default()
    };
    #[cfg(unix)]
    if let Some(path) = arg_value(&args, "--unix") {
        config.listen = Listen::Unix(path.into());
    }
    if let Some(w) = parsed(&args, "--workers") {
        config.workers = w;
    }
    if let Some(dir) = arg_value(&args, "--cache-dir") {
        config.cache_dir = Some(dir.into());
    }
    if args.iter().any(|a| a == "--no-disk-cache") {
        config.cache_dir = None;
    }
    if let Some(mb) = parsed::<usize>(&args, "--cache-mb") {
        config.cache_bytes = mb << 20;
    }
    if let Some(ms) = parsed(&args, "--deadline-ms") {
        config.default_deadline_ms = ms;
    }
    if let Some(r) = parsed(&args, "--retries") {
        config.default_retries = r;
    }
    if let Some(q) = parsed(&args, "--max-queue") {
        config.max_queue = q;
    }
    if let Some(id) = arg_value(&args, "--shard-id") {
        config.shard_id = Some(id);
    }
    if let Some(n) = parsed(&args, "--max-conns") {
        config.max_conns = n;
    }

    install_signal_drain();
    let handle = bfly_farmd::spawn(config, Arc::new(Registry)).unwrap_or_else(|e| {
        eprintln!("farmd: cannot serve: {e}");
        std::process::exit(1);
    });
    eprintln!("farmd: serving on {}", handle.addr);
    if let Some(path) = arg_value(&args, "--port-file") {
        std::fs::write(&path, &handle.addr).expect("write --port-file");
    }

    // The listener polls the SIGTERM/SIGINT latch itself and drains; join
    // blocks until every queued job has finished.
    handle.join();
    if signal_drain_requested() {
        eprintln!("farmd: signal received, drained");
    }
    eprintln!("farmd: bye");
}
