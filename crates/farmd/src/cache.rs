//! Content-addressed result cache: sharded in-memory LRU with a
//! checksummed, write-behind disk tier.
//!
//! The cache key is a 128-bit hash of `(exp, canonical params, seed,
//! engine version)` — everything a deterministic run is a function of.
//! The engine version is part of the key so a simulator change that can
//! alter simulated results silently invalidates every prior entry instead
//! of serving stale bytes (the same discipline as a content-addressed
//! build cache). Values are the canonical result bytes; a hit is
//! guaranteed bit-identical to a cold recomputation because the *runs*
//! are deterministic (`tests/farm_determinism.rs` proptests this
//! end-to-end).
//!
//! Sharding serves two masters: lock contention (each shard has its own
//! mutex, so the daemon's workers don't serialize on one cache lock — the
//! paper's §4.1 scatter lesson applied to our own serving layer) and LRU
//! bounds (each shard evicts independently, so a burst of large results
//! can't wipe the whole working set).
//!
//! Two disciplines added for the cluster (DESIGN.md §14):
//!
//! * **Integrity.** Every disk entry carries a checksum footer
//!   ([`content_sum`]) over the payload. The content key hashes the job's
//!   *inputs*, so it cannot authenticate the stored *bytes*; the footer
//!   can. A torn, truncated, or deliberately corrupted entry (the chaos
//!   harness flips bytes in a shard's disk tier mid-batch) is detected on
//!   read, counted in [`CacheStats::corrupt`], deleted, and reported as a
//!   miss — the job recomputes instead of serving garbage, which is what
//!   keeps cached≡cold bit-identity true even under disk faults.
//! * **Write-behind.** Disk persistence is asynchronous: [`Cache::put`]
//!   returns after the in-memory insert and a background writer drains
//!   the queue, so a burst of cold results is not serialized on `fsync`
//!   latency. Reads consult memory, then the pending queue, then disk —
//!   an entry is never invisible while it waits to be written. A graceful
//!   drain must call [`Cache::flush`] (the SIGTERM path does; see
//!   `server::drain`) so a drained shard rejoins with a complete warm
//!   disk tier; an abrupt kill discards the queue, exactly like a real
//!   crash would.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// 64-bit FNV-1a of `bytes` from `seed` (the primitive behind content
/// keys, checksums and the router's ring placement).
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Content key for a job: 32 hex chars (two independent 64-bit FNV-1a
/// passes over the same material). Stable across processes and platforms.
pub fn content_key(exp: &str, canonical_params: &str, seed: u64, engine_version: u32) -> String {
    let mut material = String::with_capacity(exp.len() + canonical_params.len() + 32);
    material.push_str(exp);
    material.push('\0');
    material.push_str(canonical_params);
    material.push('\0');
    material.push_str(&seed.to_string());
    material.push('\0');
    material.push_str(&engine_version.to_string());
    let a = fnv1a(0xcbf2_9ce4_8422_2325, material.as_bytes());
    let b = fnv1a(0x6c62_272e_07bb_0142, material.as_bytes());
    format!("{a:016x}{b:016x}")
}

/// Checksum of a cache entry's payload bytes: 32 hex chars (two
/// independent FNV-1a passes). This authenticates the stored *bytes*,
/// which the content key (a hash of the job's *inputs*) cannot.
pub fn content_sum(bytes: &[u8]) -> String {
    let a = fnv1a(0xcbf2_9ce4_8422_2325, bytes);
    let b = fnv1a(0x6c62_272e_07bb_0142, bytes);
    format!("{a:016x}{b:016x}")
}

/// Footer marker separating payload from checksum in a disk entry.
const SUM_MARKER: &str = "#bfly-cache-sum v1 ";

/// Serialize a disk entry: payload, newline, checksum footer.
fn encode_disk_entry(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + SUM_MARKER.len() + 34);
    out.extend_from_slice(payload);
    out.push(b'\n');
    out.extend_from_slice(SUM_MARKER.as_bytes());
    out.extend_from_slice(content_sum(payload).as_bytes());
    out
}

/// Parse and verify a disk entry; `None` if torn, truncated, or corrupt.
fn decode_disk_entry(raw: &[u8]) -> Option<Vec<u8>> {
    let split = raw.iter().rposition(|&b| b == b'\n')?;
    let (payload, footer) = (&raw[..split], &raw[split + 1..]);
    let sum = std::str::from_utf8(footer).ok()?.strip_prefix(SUM_MARKER)?;
    if sum == content_sum(payload) {
        Some(payload.to_vec())
    } else {
        None
    }
}

/// Cache hit/miss counters, all monotonic.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Served from the in-memory LRU.
    pub mem_hits: AtomicU64,
    /// Served from `FARM_CACHE/` (or the pending write queue) after a
    /// memory miss.
    pub disk_hits: AtomicU64,
    /// Not present anywhere; the job was recomputed.
    pub misses: AtomicU64,
    /// Entries evicted from memory by the LRU bound (disk copies remain).
    pub evictions: AtomicU64,
    /// Disk entries that failed checksum verification and were dropped.
    pub corrupt: AtomicU64,
}

impl CacheStats {
    /// Total hits (memory + disk).
    pub fn hits(&self) -> u64 {
        self.mem_hits.load(Ordering::Relaxed) + self.disk_hits.load(Ordering::Relaxed)
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses.load(Ordering::Relaxed)
    }
}

struct Entry {
    bytes: Vec<u8>,
    /// Logical timestamp of last use; the LRU victim is the minimum.
    last_use: u64,
}

struct Shard {
    map: HashMap<String, Entry>,
    bytes: usize,
}

/// The write-behind queue shared with the disk-writer thread.
#[derive(Default)]
struct WriteQueue {
    /// Keys in write order (deduped: a key appears at most once).
    order: VecDeque<String>,
    /// Latest bytes pending for each queued key.
    pending: HashMap<String, Vec<u8>>,
    /// The entry the writer is persisting right now, if any. Kept
    /// visible so `get` never misses an entry mid-write.
    in_flight: Option<(String, Vec<u8>)>,
    /// Entries persisted to disk so far.
    written: u64,
    /// Artificial delay before each disk write, in ms (fault-injection
    /// knob: widens the window in which a crash loses pending writes).
    delay_ms: u64,
    /// Drop everything instead of writing (abrupt-kill semantics).
    discard: bool,
    /// Writer should exit once the queue is empty.
    stop: bool,
}

struct Writer {
    queue: Arc<(Mutex<WriteQueue>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Sharded LRU cache with an optional checksummed write-behind disk tier.
pub struct Cache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard in-memory byte bound.
    shard_budget: usize,
    /// Disk tier root (`FARM_CACHE/`), `None` for memory-only.
    dir: Option<PathBuf>,
    clock: AtomicU64,
    writer: Option<Writer>,
    /// Counters.
    pub stats: CacheStats,
}

impl Cache {
    /// New cache with `shards` independent LRU shards bounded at
    /// `max_bytes` total, persisting under `dir` when given.
    pub fn new(dir: Option<PathBuf>, shards: usize, max_bytes: usize) -> Cache {
        let shards = shards.max(1);
        if let Some(d) = &dir {
            // Best-effort: a read-only disk degrades to memory-only.
            let _ = std::fs::create_dir_all(d);
        }
        let mut cache = Cache {
            shard_budget: (max_bytes / shards).max(1),
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        bytes: 0,
                    })
                })
                .collect(),
            dir,
            clock: AtomicU64::new(0),
            writer: None,
            stats: CacheStats::default(),
        };
        cache.spawn_writer();
        cache
    }

    /// Set the artificial per-write disk delay (before any entry is
    /// written). Fault-injection knob for drain/crash tests.
    pub fn set_write_delay_ms(&self, ms: u64) {
        if let Some(w) = &self.writer {
            crate::locked(&w.queue.0).delay_ms = ms;
        }
    }

    fn spawn_writer(&mut self) {
        let Some(dir) = self.dir.clone() else { return };
        let queue: Arc<(Mutex<WriteQueue>, Condvar)> = Arc::default();
        let q = Arc::clone(&queue);
        let thread = std::thread::Builder::new()
            .name("farm-cache-writer".into())
            .spawn(move || writer_loop(&q, &dir))
            .ok();
        if thread.is_some() {
            self.writer = Some(Writer { queue, thread });
        }
    }

    /// Which shard a key lives in (stable: derived from the key hash).
    pub fn shard_of(&self, key: &str) -> usize {
        (fnv1a(0x9e37_79b9_7f4a_7c15, key.as_bytes()) % self.shards.len() as u64) as usize
    }

    fn disk_path(&self, key: &str) -> Option<PathBuf> {
        // Two-level fan-out so FARM_CACHE/ never holds one giant flat dir.
        self.dir
            .as_ref()
            .map(|d| d.join(&key[..2]).join(format!("{key}.json")))
    }

    /// Look up `key`. Memory first, then the pending write queue, then
    /// the disk tier (either lower-tier hit is promoted back into memory).
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[self.shard_of(key)];
        {
            let mut s = crate::locked(shard);
            if let Some(e) = s.map.get_mut(key) {
                e.last_use = now;
                self.stats.mem_hits.fetch_add(1, Ordering::Relaxed);
                return Some(e.bytes.clone());
            }
        }
        // The write-behind queue is logically part of the disk tier: an
        // entry must never be invisible while it waits to be written.
        if let Some(w) = &self.writer {
            let pending = {
                let q = crate::locked(&w.queue.0);
                q.pending.get(key).cloned().or_else(|| {
                    q.in_flight
                        .as_ref()
                        .filter(|(k, _)| k == key)
                        .map(|(_, b)| b.clone())
                })
            };
            if let Some(bytes) = pending {
                self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.insert_mem(key, bytes.clone(), now);
                return Some(bytes);
            }
        }
        if let Some(p) = self.disk_path(key) {
            if let Ok(raw) = std::fs::read(&p) {
                match decode_disk_entry(&raw) {
                    Some(bytes) => {
                        self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
                        self.insert_mem(key, bytes.clone(), now);
                        return Some(bytes);
                    }
                    None => {
                        // Torn or corrupted entry: drop it and recompute
                        // rather than serving garbage.
                        self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                        let _ = std::fs::remove_file(&p);
                    }
                }
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert `bytes` under `key`: into the memory LRU and, when a disk
    /// tier is configured, enqueued for the write-behind thread (which
    /// writes atomically: tmp file + rename, so a killed daemon never
    /// leaves a torn entry — and the checksum footer catches one anyway).
    pub fn put(&self, key: &str, bytes: Vec<u8>) {
        if let Some(w) = &self.writer {
            let mut q = crate::locked(&w.queue.0);
            if !q.discard {
                if !q.pending.contains_key(key) {
                    q.order.push_back(key.to_string());
                }
                q.pending.insert(key.to_string(), bytes.clone());
                w.queue.1.notify_all();
            }
        }
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        self.insert_mem(key, bytes, now);
    }

    /// Block until every pending disk write has been persisted. Part of
    /// the graceful-drain contract: a drained shard must rejoin with a
    /// complete warm disk tier.
    pub fn flush(&self) {
        let Some(w) = &self.writer else { return };
        let mut q = crate::locked(&w.queue.0);
        while !q.discard && (!q.order.is_empty() || q.in_flight.is_some()) {
            let (guard, _) = w
                .queue
                .1
                .wait_timeout(q, std::time::Duration::from_millis(50))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            q = guard;
        }
    }

    /// Drop every pending disk write (abrupt-kill semantics: a crashed
    /// shard loses whatever had not reached disk yet).
    pub fn discard_pending(&self) {
        let Some(w) = &self.writer else { return };
        let mut q = crate::locked(&w.queue.0);
        q.order.clear();
        q.pending.clear();
        q.discard = true;
        w.queue.1.notify_all();
    }

    /// Number of entries waiting for (or in) the write-behind thread.
    pub fn pending_writes(&self) -> usize {
        match &self.writer {
            None => 0,
            Some(w) => {
                let q = crate::locked(&w.queue.0);
                q.order.len() + usize::from(q.in_flight.is_some())
            }
        }
    }

    /// Entries the write-behind thread has persisted to disk so far.
    pub fn disk_writes(&self) -> u64 {
        match &self.writer {
            None => 0,
            Some(w) => crate::locked(&w.queue.0).written,
        }
    }

    /// Every key this cache can currently serve: memory, pending writes,
    /// and the disk tier. Sorted, deduplicated — the export surface the
    /// cluster's warm-rebalance walks (`cache_keys` protocol op).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = Vec::new();
        for shard in &self.shards {
            keys.extend(crate::locked(shard).map.keys().cloned());
        }
        if let Some(w) = &self.writer {
            let q = crate::locked(&w.queue.0);
            keys.extend(q.pending.keys().cloned());
            keys.extend(q.in_flight.iter().map(|(k, _)| k.clone()));
        }
        if let Some(dir) = &self.dir {
            if let Ok(fans) = std::fs::read_dir(dir) {
                for fan in fans.flatten() {
                    let Ok(entries) = std::fs::read_dir(fan.path()) else {
                        continue;
                    };
                    for e in entries.flatten() {
                        let name = e.file_name();
                        let name = name.to_string_lossy();
                        if let Some(key) = name.strip_suffix(".json") {
                            if key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit()) {
                                keys.push(key.to_string());
                            }
                        }
                    }
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn insert_mem(&self, key: &str, bytes: Vec<u8>, now: u64) {
        let shard = &self.shards[self.shard_of(key)];
        let mut s = crate::locked(shard);
        if let Some(old) = s.map.insert(
            key.to_string(),
            Entry {
                bytes,
                last_use: now,
            },
        ) {
            s.bytes -= old.bytes.len();
        }
        s.bytes += s.map[key].bytes.len();
        // Evict least-recently-used until within budget; never evict the
        // entry just inserted (a single oversized result may stand alone).
        while s.bytes > self.shard_budget && s.map.len() > 1 {
            let victim = s
                .map
                .iter()
                .filter(|(k, _)| k.as_str() != key)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone());
            match victim {
                Some(v) => {
                    let e = s
                        .map
                        .remove(&v)
                        .expect("eviction victim was chosen from this shard's map");
                    s.bytes -= e.bytes.len();
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Bytes currently held in memory across all shards.
    pub fn mem_bytes(&self) -> usize {
        self.shards.iter().map(|s| crate::locked(s).bytes).sum()
    }

    /// Entries currently held in memory across all shards.
    pub fn mem_entries(&self) -> usize {
        self.shards.iter().map(|s| crate::locked(s).map.len()).sum()
    }

    /// The disk tier root, if persistence is configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        let Some(w) = &mut self.writer else { return };
        {
            let mut q = crate::locked(&w.queue.0);
            q.stop = true;
            w.queue.1.notify_all();
        }
        // The writer drains the remaining queue before exiting (unless
        // discarded), so dropping the cache persists everything pending.
        if let Some(t) = w.thread.take() {
            let _ = t.join();
        }
    }
}

fn writer_loop(queue: &Arc<(Mutex<WriteQueue>, Condvar)>, dir: &Path) {
    loop {
        let (job, delay_ms) = {
            let mut q = crate::locked(&queue.0);
            loop {
                if q.discard {
                    q.order.clear();
                    q.pending.clear();
                }
                if let Some(key) = q.order.pop_front() {
                    match q.pending.remove(&key) {
                        Some(bytes) => {
                            q.in_flight = Some((key.clone(), bytes.clone()));
                            break (Some((key, bytes)), q.delay_ms);
                        }
                        None => continue,
                    }
                }
                if q.stop || q.discard {
                    break (None, 0);
                }
                let (guard, _) = queue
                    .1
                    // lint: allow(blocking): write-behind drain runs on the dedicated writer thread spawned by Cache::spawn_writer, never a reactor callback
                    .wait_timeout(q, std::time::Duration::from_millis(100))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                q = guard;
            }
        };
        let Some((key, bytes)) = job else { return };
        if delay_ms > 0 {
            // lint: allow(blocking): fault-injection write delay, writer thread only
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
        let path = dir.join(&key[..2]).join(format!("{key}.json"));
        let write = || -> std::io::Result<()> {
            let parent = path.parent().expect("disk path always has a parent");
            std::fs::create_dir_all(parent)?;
            let tmp = parent.join(format!(".{}.tmp{}", key, std::process::id()));
            std::fs::write(&tmp, encode_disk_entry(&bytes))?;
            std::fs::rename(&tmp, &path)
        };
        // Re-check discard after the delay: an abrupt kill during the
        // write window must lose this entry, like a real crash would.
        let discarded = crate::locked(&queue.0).discard;
        if !discarded {
            // Best-effort: a full/read-only disk must not fail the job.
            let _ = write();
        }
        let mut q = crate::locked(&queue.0);
        q.in_flight = None;
        if !discarded {
            q.written += 1;
        }
        queue.1.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bfly_farm_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn key_is_stable_and_sensitive_to_every_component() {
        let k = content_key("fig5_gauss", r#"{"n":16}"#, 7, 2);
        assert_eq!(k.len(), 32);
        assert_eq!(k, content_key("fig5_gauss", r#"{"n":16}"#, 7, 2));
        assert_ne!(k, content_key("fig5_gauss", r#"{"n":17}"#, 7, 2));
        assert_ne!(k, content_key("fig5_gauss", r#"{"n":16}"#, 8, 2));
        assert_ne!(k, content_key("fig5_gauss", r#"{"n":16}"#, 7, 3));
        assert_ne!(k, content_key("tab1_memory", r#"{"n":16}"#, 7, 2));
    }

    #[test]
    fn lru_evicts_oldest_within_shard_budget() {
        let c = Cache::new(None, 1, 100);
        c.put("a", vec![0; 40]);
        c.put("b", vec![0; 40]);
        let _ = c.get("a"); // refresh a: b becomes the LRU victim
        c.put("c", vec![0; 40]);
        assert!(c.get("a").is_some());
        assert!(c.get("b").is_none(), "b was least recently used");
        assert!(c.get("c").is_some());
        assert_eq!(c.stats.evictions.load(Ordering::Relaxed), 1);
        assert!(c.mem_bytes() <= 100);
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = tmp_dir("persist");
        let c = Cache::new(Some(dir.clone()), 4, 1 << 20);
        c.put("deadbeef00112233445566778899aabb", b"payload".to_vec());
        drop(c); // drop drains the write-behind queue
        let c2 = Cache::new(Some(dir.clone()), 4, 1 << 20);
        assert_eq!(
            c2.get("deadbeef00112233445566778899aabb").as_deref(),
            Some(b"payload".as_slice())
        );
        assert_eq!(c2.stats.disk_hits.load(Ordering::Relaxed), 1);
        // Promoted to memory: second read is a mem hit.
        let _ = c2.get("deadbeef00112233445566778899aabb");
        assert_eq!(c2.stats.mem_hits.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_keeps_disk_copy() {
        let dir = tmp_dir("evict");
        let c = Cache::new(Some(dir.clone()), 1, 10);
        c.put("aa112233445566778899aabbccddeeff", vec![1; 8]);
        c.put("bb112233445566778899aabbccddeeff", vec![2; 8]); // evicts aa from memory
        assert_eq!(
            c.get("aa112233445566778899aabbccddeeff").as_deref(),
            Some(vec![1; 8].as_slice()),
            "evicted entry must come back from the disk tier (or its queue)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_distribution_is_deterministic() {
        let c = Cache::new(None, 8, 1 << 20);
        for i in 0..64 {
            let k = content_key("x", "{}", i, 1);
            assert_eq!(c.shard_of(&k), c.shard_of(&k));
            assert!(c.shard_of(&k) < 8);
        }
    }

    #[test]
    fn corrupted_disk_entry_is_detected_and_dropped() {
        let dir = tmp_dir("corrupt");
        let c = Cache::new(Some(dir.clone()), 1, 1 << 20);
        let key = "cc112233445566778899aabbccddeeff";
        c.put(key, b"good payload".to_vec());
        c.flush();
        drop(c);
        // Flip bytes in the stored payload (checksum now stale).
        let path = dir.join(&key[..2]).join(format!("{key}.json"));
        let mut raw = std::fs::read(&path).expect("entry on disk");
        raw[0] ^= 0xff;
        raw[4] ^= 0x55;
        std::fs::write(&path, &raw).expect("rewrite corrupted");

        let c2 = Cache::new(Some(dir.clone()), 1, 1 << 20);
        assert_eq!(c2.get(key), None, "corrupt entry must read as a miss");
        assert_eq!(c2.stats.corrupt.load(Ordering::Relaxed), 1);
        assert!(!path.exists(), "corrupt entry is deleted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_disk_entry_is_corrupt() {
        assert_eq!(decode_disk_entry(b""), None);
        assert_eq!(decode_disk_entry(b"no footer at all"), None);
        let good = encode_disk_entry(b"payload");
        assert_eq!(
            decode_disk_entry(&good).as_deref(),
            Some(b"payload".as_slice())
        );
        assert_eq!(decode_disk_entry(&good[..good.len() - 3]), None);
    }

    #[test]
    fn pending_write_is_visible_before_it_reaches_disk() {
        let dir = tmp_dir("pending");
        let c = Cache::new(Some(dir.clone()), 1, 64);
        c.set_write_delay_ms(200);
        let key = "dd112233445566778899aabbccddeeff";
        c.put(key, vec![7; 40]);
        // Evict from memory immediately; the entry only exists in the
        // write-behind queue for the next ~200 ms.
        c.put("ee112233445566778899aabbccddeeff", vec![8; 40]);
        assert_eq!(
            c.get(key).as_deref(),
            Some(vec![7; 40].as_slice()),
            "entry must be served from the pending queue"
        );
        c.flush();
        assert_eq!(c.pending_writes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_persists_and_discard_drops() {
        let dir = tmp_dir("flushdrop");
        let c = Cache::new(Some(dir.clone()), 2, 1 << 20);
        c.put("a1112233445566778899aabbccddeeff", b"one".to_vec());
        c.put("b2112233445566778899aabbccddeeff", b"two".to_vec());
        c.flush();
        assert_eq!(c.pending_writes(), 0);
        assert_eq!(c.disk_writes(), 2);
        let keys = c.keys();
        assert!(keys.contains(&"a1112233445566778899aabbccddeeff".to_string()));
        assert!(keys.contains(&"b2112233445566778899aabbccddeeff".to_string()));

        let c2 = Cache::new(Some(dir.clone()), 2, 1 << 20);
        c2.put("c3112233445566778899aabbccddeeff", b"three".to_vec());
        c2.discard_pending();
        drop(c2);
        let c3 = Cache::new(Some(dir.clone()), 2, 1 << 20);
        assert_eq!(
            c3.get("c3112233445566778899aabbccddeeff"),
            None,
            "discarded write must not reach disk (crash semantics)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_unions_memory_queue_and_disk() {
        let dir = tmp_dir("keys");
        let c = Cache::new(Some(dir.clone()), 2, 1 << 20);
        c.put("11112233445566778899aabbccddeeff", b"x".to_vec());
        c.flush();
        drop(c);
        let c2 = Cache::new(Some(dir.clone()), 2, 1 << 20);
        c2.put("22112233445566778899aabbccddeeff", b"y".to_vec());
        let keys = c2.keys();
        assert_eq!(keys.len(), 2, "{keys:?}");
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        std::fs::remove_dir_all(&dir).ok();
    }
}
