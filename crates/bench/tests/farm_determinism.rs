//! The farm daemon's bit-identity contract, proptested over seeds: a
//! result served from the content-addressed cache must be byte-for-byte
//! identical to recomputing the job cold — across seeds, parameter
//! spellings, and a concurrently-probed neighbor job (the thread-local
//! serial pin under test).

use std::sync::Arc;

use bfly_bench::Registry;
use bfly_farmd::json::{parse, Value};
use bfly_farmd::{spawn, Client, JobRunner, JobSpec, Listen, ServerConfig};
use proptest::prelude::*;

fn test_server() -> (bfly_farmd::ServerHandle, Client) {
    let handle = spawn(
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            cache_dir: None, // memory-only: each case starts cold
            workers: 4,
            ..ServerConfig::default()
        },
        Arc::new(Registry),
    )
    .expect("spawn daemon");
    let client = Client::connect(&handle.addr).expect("connect");
    (handle, client)
}

/// Submit one job and poll it to a terminal state (submit replies
/// immediately — `queued` for anything but an inline cache hit).
fn submit(c: &mut Client, line: &str) -> Value {
    let mut v = c.request_line(line).expect("request");
    loop {
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "daemon refused: {}",
            v.dump()
        );
        match v.get("state").and_then(Value::as_str) {
            Some("queued") | Some("running") => {
                let id = v.get("id").and_then(Value::as_u64).expect("reply has id");
                std::thread::sleep(std::time::Duration::from_millis(10));
                v = c
                    .request_line(&format!(r#"{{"op":"status","id":{id}}}"#))
                    .expect("status poll");
            }
            _ => return v,
        }
    }
}

fn result_of(v: &Value) -> String {
    assert_eq!(
        v.get("state").and_then(Value::as_str),
        Some("done"),
        "job not done: {}",
        v.dump()
    );
    v.get("result").expect("done carries result").dump()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Round-trip over random seeds and sizes: cold compute, warm cache
    /// hit, and a cache-bypassing recompute all return identical bytes,
    /// and the registry's direct output matches what came over the wire.
    #[test]
    fn cached_bytes_equal_cold_bytes_across_seeds(
        seed in 0u64..10_000,
        n in 10u32..20,
        p_lo in 2u64..5,
    ) {
        let (handle, mut c) = test_server();
        let params = format!(r#"{{"n":{n},"ps":[{p_lo},{}]}}"#, p_lo * 2);
        let job = format!(r#""exp":"fig5_gauss","params":{params},"seed":{seed}"#);

        let cold = submit(&mut c, &format!(r#"{{"op":"submit",{job}}}"#));
        prop_assert_eq!(cold.get("cached").and_then(Value::as_bool), Some(false));
        let cold_bytes = result_of(&cold);

        let warm = submit(&mut c, &format!(r#"{{"op":"submit",{job}}}"#));
        prop_assert_eq!(warm.get("cached").and_then(Value::as_bool), Some(true));
        prop_assert_eq!(&result_of(&warm), &cold_bytes, "cache served different bytes");

        let bypass = submit(
            &mut c,
            &format!(r#"{{"op":"submit",{job},"cache":"bypass"}}"#),
        );
        prop_assert_eq!(bypass.get("cached").and_then(Value::as_bool), Some(false));
        prop_assert_eq!(&result_of(&bypass), &cold_bytes, "recompute diverged from cache");

        // The daemon adds transport envelope only: the bytes match a
        // direct in-process registry call.
        let spec = JobSpec::from_value(&parse(&format!("{{{job}}}")).unwrap()).unwrap();
        let direct = String::from_utf8(Registry.run(&spec).unwrap()).unwrap();
        prop_assert_eq!(&direct, &cold_bytes, "wire bytes differ from direct run");

        handle.shutdown();
    }

    /// Parameter spelling (key order, whitespace, float-free ints) must
    /// not split the cache: the canonicalized key makes differently
    /// spelled but identical jobs hit.
    #[test]
    fn param_spelling_does_not_split_the_cache(seed in 0u64..10_000) {
        let (handle, mut c) = test_server();
        let a = format!(
            r#"{{"op":"submit","exp":"fig5_gauss","params":{{"n":12,"ps":[4,8]}},"seed":{seed}}}"#
        );
        let b = format!(
            r#"{{"op":"submit","exp":"fig5_gauss","seed":{seed},"params":{{ "ps": [4, 8], "n": 12 }}}}"#
        );
        let cold = submit(&mut c, &a);
        let respelled = submit(&mut c, &b);
        prop_assert_eq!(
            respelled.get("cached").and_then(Value::as_bool),
            Some(true),
            "respelled params missed the cache"
        );
        prop_assert_eq!(result_of(&respelled), result_of(&cold));
        handle.shutdown();
    }
}

/// A probed job running next to unprobed jobs must change neither its own
/// result bytes (probe data lives in a separate cache identity) nor its
/// neighbors' — the pin that serializes a probed job's sweeps must stay
/// on that job's worker thread.
#[test]
fn probed_neighbor_does_not_perturb_unprobed_results() {
    let (handle, mut c) = test_server();
    let plain = r#""exp":"fig5_gauss","params":{"n":14,"ps":[4,8]},"seed":11"#;

    // Baseline bytes with no probe anywhere in the process.
    let baseline = result_of(&submit(&mut c, &format!(r#"{{"op":"submit",{plain}}}"#)));

    // Mixed batch: probed and unprobed spellings of the same experiment
    // interleaved, all forced cold so they really run concurrently.
    let mut jobs = String::new();
    for i in 0..6 {
        if i > 0 {
            jobs.push(',');
        }
        if i % 2 == 0 {
            jobs.push_str(&format!(r#"{{{plain},"cache":"bypass"}}"#));
        } else {
            jobs.push_str(&format!(r#"{{{plain},"probe":true,"cache":"bypass"}}"#));
        }
    }
    let batch = submit(&mut c, &format!(r#"{{"op":"batch","jobs":[{jobs}]}}"#));
    let results = batch.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), 6);
    let mut probed_bytes = None;
    for (i, r) in results.iter().enumerate() {
        let bytes = result_of(r);
        if i % 2 == 0 {
            assert_eq!(
                bytes, baseline,
                "unprobed job {i} perturbed by probed neighbor"
            );
        } else {
            // Probed runs are internally deterministic too.
            let prev = probed_bytes.get_or_insert_with(|| bytes.clone());
            assert_eq!(&bytes, prev, "probed job {i} not deterministic");
            let v = parse(&bytes).unwrap();
            assert!(
                !v.get("probe").unwrap().is_null(),
                "probed job {i} carries no probe summary"
            );
            // The simulated table itself matches the unprobed run — the
            // probe observes, it must not perturb.
            let base_table = parse(&baseline).unwrap().get("table").unwrap().dump();
            assert_eq!(v.get("table").unwrap().dump(), base_table);
        }
    }
    handle.shutdown();

    // Artifact side effect of probed farm jobs; clean it out of the test cwd.
    let _ = std::fs::remove_file("PROBE_farm_fig5_gauss_s11.json");
}
