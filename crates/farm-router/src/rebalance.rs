//! Warm rebalance: after a membership change, re-establish the cache
//! replication invariant — every key is held by the first `R` *serving*
//! shards in its preference order.
//!
//! The procedure is read-repair shaped: collect every live shard's key
//! inventory (`cache_keys`), compute each key's target set on the ring
//! restricted to live shards, and for each target missing the key, copy
//! it from a holder (`cache_pull` → `cache_push`). Entries are moved as
//! raw bytes end to end, so a rebalanced copy is bit-identical to the
//! original — the same splice discipline as the result path.
//!
//! Rebalancing is an optimization, never a correctness requirement: a
//! key that fails to move is simply recomputed (deterministically) on
//! its next miss. Failures here are therefore logged by omission — the
//! function returns how many copies it actually placed.

use std::collections::HashMap;

use bfly_farmd::json::{self, Value};

use crate::ring::Ring;

/// Extract the raw `result` bytes from a `cache_pull` reply. `result`
/// is the reply's final field and the preceding fields are fixed-format,
/// so the bytes between the marker and the closing `}` are exactly the
/// stored entry.
fn raw_pulled(line: &str) -> Option<&str> {
    let at = line.find("\"result\":")?;
    line[at + "\"result\":".len()..]
        .trim_end()
        .strip_suffix('}')
}

/// Copy cache entries between the `live` shards (ring indices) until
/// every key is held by its first `R` live preference targets.
/// `request(idx, line)` sends one newline-terminated request line to
/// shard `idx` and returns its reply line, or `None` on failure. Returns
/// the number of copies placed.
pub fn rebalance(
    live: &[usize],
    ring: &Ring,
    mut request: impl FnMut(usize, &str) -> Option<String>,
) -> u64 {
    if live.len() < 2 {
        return 0; // nothing to copy to (or from)
    }
    // Inventory: key -> ring indices of live shards holding it.
    let mut holders: HashMap<String, Vec<usize>> = HashMap::new();
    for &idx in live {
        let Some(reply) = request(idx, "{\"op\":\"cache_keys\"}\n") else {
            continue;
        };
        let Ok(v) = json::parse(&reply) else { continue };
        let Some(keys) = v.get("keys").and_then(Value::as_arr) else {
            continue;
        };
        for k in keys.iter().filter_map(Value::as_str) {
            holders.entry(k.to_string()).or_default().push(idx);
        }
    }

    let mut moved = 0u64;
    for (key, held_by) in &holders {
        // Target set: the first R live shards in the key's preference
        // order (`preference` covers the whole ring; down shards are
        // simply not in `live`).
        let targets: Vec<usize> = ring
            .preference(key)
            .into_iter()
            .filter(|i| live.contains(i))
            .take(ring.replicas())
            .collect();
        let missing: Vec<usize> = targets
            .iter()
            .copied()
            .filter(|i| !held_by.contains(i))
            .collect();
        if missing.is_empty() {
            continue;
        }
        // Pull once from any holder, push to each missing target.
        let mut raw: Option<String> = None;
        for &h in held_by {
            let pull = format!("{{\"op\":\"cache_pull\",\"key\":\"{key}\"}}\n");
            if let Some(reply) = request(h, &pull) {
                if reply.contains("\"found\":true") {
                    if let Some(r) = raw_pulled(&reply) {
                        raw = Some(r.to_string());
                        break;
                    }
                }
            }
        }
        let Some(raw) = raw else { continue };
        let push = format!("{{\"op\":\"cache_push\",\"key\":\"{key}\",\"result\":{raw}}}\n");
        for m in missing {
            if let Some(reply) = request(m, &push) {
                if reply.contains("\"stored\":true") {
                    moved += 1;
                }
            }
        }
    }
    moved
}
