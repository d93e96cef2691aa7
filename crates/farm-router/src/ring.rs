//! Consistent-hash ring with virtual nodes.
//!
//! The router places every job by its content key (farmd's FNV scheme
//! with `ENGINE_VERSION` folded in — see `bfly_farmd::content_key`), so
//! repeat submissions of the same job land on the same shard and hit its
//! warm cache. Consistent hashing keeps that placement stable under
//! membership change: when one of N shards joins or leaves, only ~K/N of
//! K keys move (proptested in `tests/ring.rs`), so a shard bounce does
//! not cold-start the whole cluster.
//!
//! Each shard owns `vnodes` points on the ring (hashes of
//! `"<shard>\0<i>"`), which smooths the per-shard key share: with one
//! point per shard the largest arc is unbounded; with ~100 the shares
//! concentrate near 1/N. A key's *preference order* is the sequence of
//! distinct shards met walking clockwise from the key's point: the first
//! is the primary, the first `replicas` are where results are cached,
//! and the tail is the failover order when replicas are down.

use bfly_farmd::cache::fnv1a;

/// A consistent-hash ring over named shards.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted `(point, shard index)` pairs; the ring proper.
    points: Vec<(u64, usize)>,
    /// Shard names, in insertion order (indices are stable across
    /// `remove`: a removed slot is tombstoned, never reused).
    shards: Vec<Option<String>>,
    /// Virtual nodes per shard.
    vnodes: usize,
    /// Cache-replication factor the cluster runs at.
    replicas: usize,
}

impl Ring {
    /// Empty ring. `replicas` is clamped to ≥1; `vnodes` to ≥1.
    pub fn new(replicas: usize, vnodes: usize) -> Ring {
        Ring {
            points: Vec::new(),
            shards: Vec::new(),
            vnodes: vnodes.max(1),
            replicas: replicas.max(1),
        }
    }

    /// The replication factor.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Names of the shards currently on the ring, in insertion order.
    pub fn shard_names(&self) -> Vec<&str> {
        self.shards.iter().flatten().map(String::as_str).collect()
    }

    /// Number of shards currently on the ring.
    pub fn len(&self) -> usize {
        self.shards.iter().flatten().count()
    }

    /// True when no shards are on the ring.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn point_of(shard: &str, vnode: usize) -> u64 {
        let mut material = Vec::with_capacity(shard.len() + 8);
        material.extend_from_slice(shard.as_bytes());
        material.push(0);
        material.extend_from_slice(&(vnode as u64).to_le_bytes());
        fnv1a(0xcbf2_9ce4_8422_2325, &material)
    }

    /// Add a shard (no-op if already present). Returns its stable index.
    pub fn add(&mut self, shard: &str) -> usize {
        if let Some(i) = self.index_of(shard) {
            return i;
        }
        let idx = self.shards.len();
        self.shards.push(Some(shard.to_string()));
        for v in 0..self.vnodes {
            self.points.push((Self::point_of(shard, v), idx));
        }
        // Ties between distinct shards at the same point are broken by
        // index, deterministically.
        self.points.sort_unstable();
        idx
    }

    /// Remove a shard (no-op if absent).
    pub fn remove(&mut self, shard: &str) {
        let Some(idx) = self.index_of(shard) else {
            return;
        };
        self.shards[idx] = None;
        self.points.retain(|&(_, i)| i != idx);
    }

    /// Stable index of `shard`, if present.
    pub fn index_of(&self, shard: &str) -> Option<usize> {
        self.shards.iter().position(|s| s.as_deref() == Some(shard))
    }

    /// Shard name at a stable index (None if removed).
    pub fn name_of(&self, idx: usize) -> Option<&str> {
        self.shards.get(idx).and_then(|s| s.as_deref())
    }

    /// The full preference order for `key`: every shard on the ring,
    /// deduplicated, in clockwise-walk order from the key's point. The
    /// first entry is the primary; the first [`Ring::replicas`] are the
    /// replica set; the rest is the failover tail.
    pub fn preference(&self, key: &str) -> Vec<usize> {
        let n = self.len();
        let mut order = Vec::with_capacity(n);
        if n == 0 {
            return order;
        }
        let h = fnv1a(0x6c62_272e_07bb_0142, key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        for off in 0..self.points.len() {
            let (_, idx) = self.points[(start + off) % self.points.len()];
            if !order.contains(&idx) {
                order.push(idx);
                if order.len() == n {
                    break;
                }
            }
        }
        order
    }

    /// The primary shard for `key` (None on an empty ring).
    pub fn primary(&self, key: &str) -> Option<usize> {
        self.preference(key).first().copied()
    }

    /// The replica set for `key`: the first `min(replicas, len)` entries
    /// of the preference order. Always distinct shards.
    pub fn replica_set(&self, key: &str) -> Vec<usize> {
        let mut pref = self.preference(key);
        pref.truncate(self.replicas);
        pref
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_deterministic_and_distinct() {
        let mut r = Ring::new(2, 64);
        for s in ["s0", "s1", "s2"] {
            r.add(s);
        }
        for i in 0..100 {
            let key = format!("{i:032x}");
            let a = r.replica_set(&key);
            assert_eq!(a, r.replica_set(&key));
            assert_eq!(a.len(), 2);
            assert_ne!(a[0], a[1], "replicas must land on distinct shards");
        }
    }

    #[test]
    fn removal_only_moves_keys_owned_by_the_removed_shard() {
        let mut r = Ring::new(1, 64);
        for s in ["s0", "s1", "s2", "s3"] {
            r.add(s);
        }
        let keys: Vec<String> = (0..200).map(|i| format!("{i:032x}")).collect();
        let before: Vec<usize> = keys.iter().map(|k| r.primary(k).unwrap()).collect();
        let gone = r.index_of("s2").unwrap();
        r.remove("s2");
        for (k, &b) in keys.iter().zip(&before) {
            let after = r.primary(k).unwrap();
            if b != gone {
                assert_eq!(after, b, "keys not owned by the removed shard stay put");
            } else {
                assert_ne!(after, gone);
            }
        }
    }

    #[test]
    fn empty_ring_prefers_nothing() {
        let r = Ring::new(2, 16);
        assert!(r.preference("00").is_empty());
        assert!(r.primary("00").is_none());
        assert!(r.is_empty());
    }
}
