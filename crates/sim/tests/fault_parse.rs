//! `FaultPlan::parse` reads plan files from disk: any text must yield a
//! plan or a typed `FaultPlanParseError`, never a panic.

use bfly_sim::fault::{FaultPlan, FaultSpec};
use proptest::prelude::*;

/// Tokens of the plan grammar plus near-misses (signs, overflow, bad
/// kinds, stray separators), so generated text gets past the header.
const VOCAB: &[&str] = &[
    "faultplan v1 seed=",
    "7",
    "0",
    "-1",
    "4294967296",
    "99999999999999999999999",
    " ",
    "\t",
    "\n",
    "\r\n",
    "#",
    "node-crash",
    "node-recover",
    "link-down",
    "link-up",
    "link-degrade",
    "disk-fail",
    "disk-recover",
    "msg-loss",
    "msg-corrupt",
    "bogus",
    "é",
    "=",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics(picks in proptest::collection::vec(any::<u16>(), 0..48),
                          bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let text: String = picks.iter().map(|&i| VOCAB[i as usize % VOCAB.len()]).collect();
        let _ = FaultPlan::parse(&text);
        let _ = FaultPlan::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn every_prefix_of_a_plan_parses_or_errors(seed in any::<u64>()) {
        let text = FaultPlan::random(seed, &FaultSpec::small()).to_text();
        for (cut, _) in text.char_indices() {
            let _ = FaultPlan::parse(&text[..cut]);
        }
        prop_assert!(FaultPlan::parse(&text).is_ok());
    }
}
