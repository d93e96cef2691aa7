//! Extendible hashing for concurrent operations (Ellis, TR 110, §3.3 ref
//! \[19\]).
//!
//! A directory of `2^global_depth` pointers to buckets; each bucket has a
//! local depth and splits when full, doubling the directory when a bucket's
//! local depth reaches the global depth. Concurrency follows Ellis's
//! locking discipline, adapted to Rust: the directory behind an `RwLock`
//! (readers traverse concurrently), each bucket behind its own `Mutex`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, RwLock};

const BUCKET_CAP: usize = 8;
const DIR_POISONED: &str = "directory lock poisoned";
const BUCKET_POISONED: &str = "bucket lock poisoned";

struct Bucket<K, V> {
    local_depth: u32,
    items: Vec<(K, V)>,
}

/// A concurrent extendible hash table.
pub struct ExtendibleHash<K, V> {
    dir: RwLock<Directory<K, V>>,
}

struct Directory<K, V> {
    global_depth: u32,
    buckets: Vec<Arc<Mutex<Bucket<K, V>>>>,
}

fn hash_of<K: Hash>(k: &K) -> u64 {
    let mut h = DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

impl<K: Hash + Eq + Clone, V: Clone> ExtendibleHash<K, V> {
    /// An empty table (global depth 1).
    pub fn new() -> ExtendibleHash<K, V> {
        let b0 = Arc::new(Mutex::new(Bucket {
            local_depth: 1,
            items: Vec::new(),
        }));
        let b1 = Arc::new(Mutex::new(Bucket {
            local_depth: 1,
            items: Vec::new(),
        }));
        ExtendibleHash {
            dir: RwLock::new(Directory {
                global_depth: 1,
                buckets: vec![b0, b1],
            }),
        }
    }

    /// Current global depth (diagnostics).
    pub fn global_depth(&self) -> u32 {
        self.dir.read().expect(DIR_POISONED).global_depth
    }

    /// Look up a key.
    pub fn get(&self, k: &K) -> Option<V> {
        let dir = self.dir.read().expect(DIR_POISONED);
        let idx = (hash_of(k) & ((1u64 << dir.global_depth) - 1)) as usize;
        let bucket = dir.buckets[idx].clone();
        drop(dir);
        let b = bucket.lock().expect(BUCKET_POISONED);
        b.items
            .iter()
            .find(|(kk, _)| kk == k)
            .map(|(_, v)| v.clone())
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&self, k: K, v: V) -> Option<V> {
        loop {
            // Fast path: shared directory access, exclusive bucket access.
            {
                let dir = self.dir.read().expect(DIR_POISONED);
                let idx = (hash_of(&k) & ((1u64 << dir.global_depth) - 1)) as usize;
                let bucket = dir.buckets[idx].clone();
                let gd = dir.global_depth;
                drop(dir);
                let mut b = bucket.lock().expect(BUCKET_POISONED);
                if let Some(slot) = b.items.iter_mut().find(|(kk, _)| kk == &k) {
                    return Some(std::mem::replace(&mut slot.1, v));
                }
                if b.items.len() < BUCKET_CAP {
                    b.items.push((k, v));
                    return None;
                }
                // Bucket full: need a split. If its depth equals the
                // directory's current depth we must also double the
                // directory — both require the write path below. Re-check
                // `gd` there because it may have grown meanwhile.
                let _ = gd;
            }
            // Slow path: exclusive directory access, split one bucket.
            self.split_for(&k);
        }
    }

    fn split_for(&self, k: &K) {
        let mut dir = self.dir.write().expect(DIR_POISONED);
        let idx = (hash_of(k) & ((1u64 << dir.global_depth) - 1)) as usize;
        let bucket = dir.buckets[idx].clone();
        let mut b = bucket.lock().expect(BUCKET_POISONED);
        if b.items.len() < BUCKET_CAP {
            return; // someone else split it already
        }
        if b.local_depth == dir.global_depth {
            // Double the directory.
            let old = dir.buckets.clone();
            dir.buckets.extend(old);
            dir.global_depth += 1;
        }
        // Split this bucket on bit `local_depth`.
        let new_depth = b.local_depth + 1;
        let bit = 1u64 << b.local_depth;
        let (stay, go): (Vec<_>, Vec<_>) = b
            .items
            .drain(..)
            .partition(|(kk, _)| hash_of(kk) & bit == 0);
        b.items = stay;
        b.local_depth = new_depth;
        let sibling = Arc::new(Mutex::new(Bucket {
            local_depth: new_depth,
            items: go,
        }));
        // Repoint every directory slot that addresses the sibling's half.
        let mask = (1u64 << new_depth) - 1;
        let pattern = (hash_of(k) & (bit - 1)) | bit;
        for (i, slot) in dir.buckets.iter_mut().enumerate() {
            if (i as u64) & mask == pattern & mask {
                *slot = sibling.clone();
            }
        }
    }

    /// Remove a key, returning its value.
    pub fn remove(&self, k: &K) -> Option<V> {
        let dir = self.dir.read().expect(DIR_POISONED);
        let idx = (hash_of(k) & ((1u64 << dir.global_depth) - 1)) as usize;
        let bucket = dir.buckets[idx].clone();
        drop(dir);
        let mut b = bucket.lock().expect(BUCKET_POISONED);
        let pos = b.items.iter().position(|(kk, _)| kk == k)?;
        Some(b.items.remove(pos).1)
    }

    /// Number of items (takes every bucket lock; diagnostics only).
    pub fn len(&self) -> usize {
        let dir = self.dir.read().expect(DIR_POISONED);
        let mut seen = std::collections::HashSet::new();
        let mut n = 0;
        for b in &dir.buckets {
            if seen.insert(Arc::as_ptr(b)) {
                n += b.lock().expect(BUCKET_POISONED).items.len();
            }
        }
        n
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for ExtendibleHash<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let h = ExtendibleHash::new();
        assert_eq!(h.insert("a", 1), None);
        assert_eq!(h.insert("b", 2), None);
        assert_eq!(h.insert("a", 10), Some(1));
        assert_eq!(h.get(&"a"), Some(10));
        assert_eq!(h.remove(&"b"), Some(2));
        assert_eq!(h.get(&"b"), None);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn grows_through_many_splits() {
        let h = ExtendibleHash::new();
        for i in 0..10_000u64 {
            h.insert(i, i * 2);
        }
        assert!(
            h.global_depth() > 5,
            "directory must have doubled repeatedly"
        );
        for i in 0..10_000u64 {
            assert_eq!(h.get(&i), Some(i * 2), "key {i} lost in splits");
        }
        assert_eq!(h.len(), 10_000);
    }

    #[test]
    fn concurrent_inserts_all_survive() {
        const THREADS: u64 = 8;
        const PER: u64 = 5_000;
        let h = Arc::new(ExtendibleHash::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        h.insert(t * PER + i, t);
                    }
                });
            }
        });
        assert_eq!(h.len() as u64, THREADS * PER);
        for t in 0..THREADS {
            for i in (0..PER).step_by(97) {
                assert_eq!(h.get(&(t * PER + i)), Some(t));
            }
        }
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let h = Arc::new(ExtendibleHash::new());
        for i in 0..1_000u64 {
            h.insert(i, 0u64);
        }
        std::thread::scope(|s| {
            // Writers bump values; readers observe only written values.
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.insert(i, t + 1);
                    }
                });
            }
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        let v = h.get(&i).expect("key vanished");
                        assert!(v <= 4);
                    }
                });
            }
        });
        assert_eq!(h.len(), 1_000);
    }
}
