//! Property tests for the one JSON layer: canonical `dump` round-trips,
//! `dump ∘ parse` is a fixed point, and no input — arbitrary bytes, every
//! prefix of a valid document, or a line over 1 MiB — makes `parse`
//! panic.

use std::collections::BTreeMap;

use bfly_json::{parse, Value, MAX_DEPTH};
use proptest::prelude::*;

/// Characters worth escaping or mis-decoding: quotes, backslashes, every
/// control class, multi-byte and astral scalars.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€',
    '\u{fffd}', '😀', '{', '}', '[', ']', ',', ':', '-', '.', 'e',
];

fn arb_string(rng: &mut TestRng) -> String {
    let len = rng.next_below(12) as usize;
    (0..len)
        .map(|_| ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize])
        .collect()
}

fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
    let leaf_only = depth >= 4;
    match rng.next_below(if leaf_only { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => Value::Int(rng.next_u64() as i64),
        3 => Value::Int(rng.next_below(2000) as i64 - 1000),
        4 => {
            // Finite floats only: JSON has no inf/NaN (`dump` writes null).
            let f = f64::from_bits(rng.next_u64());
            Value::Num(if f.is_finite() { f } else { 0.5 })
        }
        5 => Value::Str(arb_string(rng)),
        6 => Value::Arr(
            (0..rng.next_below(5))
                .map(|_| arb_value(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.next_below(5))
                .map(|_| (arb_string(rng), arb_value(rng, depth + 1)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

/// Re-space a canonical document (whitespace after every structural
/// byte outside strings) so parse sees a non-canonical spelling.
fn respace(doc: &str) -> String {
    let mut out = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in doc.chars() {
        out.push(c);
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
        } else if c == '"' {
            in_str = true;
        } else if matches!(c, '{' | '[' | ',' | ':') {
            out.push_str(" \n\t");
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dump_round_trips(seed in any::<u64>()) {
        let v = arb_value(&mut TestRng::from_seed(seed), 0);
        let doc = v.dump();
        prop_assert_eq!(parse(&doc), Ok(v.clone()), "{}", doc);
        // Whitespace is insignificant: the re-spaced spelling parses to
        // the same value, and canonicalizes back to the same bytes.
        let spaced = parse(&respace(&doc));
        prop_assert_eq!(spaced.as_ref().map(Value::dump), Ok(doc.clone()));
    }

    #[test]
    fn dump_of_parse_is_a_fixed_point(seed in any::<u64>()) {
        let doc = respace(&arb_value(&mut TestRng::from_seed(seed), 0).dump());
        let once = parse(&doc).expect("valid document").dump();
        let twice = parse(&once).expect("canonical document").dump();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn every_prefix_is_an_error_not_a_panic(seed in any::<u64>()) {
        let doc = respace(&arb_value(&mut TestRng::from_seed(seed), 0).dump());
        for (cut, _) in doc.char_indices().skip(1) {
            // A prefix may itself be a document (`12` of `123`); it must
            // simply never panic, and a cut container must never parse.
            let r = parse(&doc[..cut]);
            if doc.starts_with(['[', '{', '"']) {
                prop_assert!(r.is_err(), "prefix parsed: {}", &doc[..cut]);
            }
        }
    }

    #[test]
    fn arbitrary_text_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Bias toward JSON-ish bytes so the parser gets past the first one.
        let text: String = bytes
            .iter()
            .map(|&b| if b < 128 { ALPHABET[b as usize % ALPHABET.len()] } else { char::from(b) })
            .collect();
        let _ = parse(&text);
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn inputs_past_the_line_cap_are_errors_not_panics() {
    let mib = 1 << 20;
    for doc in [
        "[".repeat(mib + 1),
        "{\"k\":".repeat(mib / 5 + 1),
        format!("\"{}", "x".repeat(mib)),
        format!("[{}]", "1,".repeat(mib / 2)),
        "-".repeat(mib + 1),
        "\\u".repeat(mib),
    ] {
        assert!(parse(&doc).is_err(), "{}...", &doc[..16]);
    }
    // Deep but within the cap: fine at any size.
    let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&ok).is_ok());
}
