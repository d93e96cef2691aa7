//! `Snap::decode` reads checkpoints back from disk: any bytes must yield
//! a snapshot or a typed `SnapError`, never a panic.

use bfly_snap::{Section, Snap};
use proptest::prelude::*;

/// Lines and fragments of the `bfly-snap/1` grammar plus near-misses
/// (short and non-hex `%` escapes, multi-byte text after `%`, bad names).
const VOCAB: &[&str] = &[
    "bfly-snap/1\n",
    "[engine]\n",
    "[bad name]\n",
    "[",
    "]",
    "now=",
    "ready=",
    "k=v\n",
    "=",
    "%",
    "%0A",
    "%25",
    "%zz",
    "%+1",
    "%é",
    "%\n",
    "é",
    "12,34",
    "#sum ",
    "00112233445566778899aabbccddeeff",
    "\n",
    "\r\n",
];

fn sample() -> Snap {
    let mut s = Snap::new();
    let mut sec = Section::new("sim");
    sec.field_u64("now", 456)
        .field("note", "has=equals and % and\nnewline é")
        .field_u64s("ready", [7, 8, 9]);
    s.push(sec);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_never_panics(picks in proptest::collection::vec(any::<u16>(), 0..48),
                           bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let text: String = picks.iter().map(|&i| VOCAB[i as usize % VOCAB.len()]).collect();
        let _ = Snap::decode(text.as_bytes());
        let _ = Snap::decode(&bytes);
    }

    #[test]
    fn every_cut_or_flip_of_an_encoding_decodes_or_errors(at in any::<usize>(), byte in any::<u8>()) {
        let enc = sample().encode();
        // Only the final newline is optional; any deeper cut loses data.
        for cut in 0..enc.len() - 1 {
            prop_assert!(Snap::decode(&enc[..cut]).is_err(), "prefix {cut} decoded");
        }
        let mut flipped = enc.clone();
        let i = at % flipped.len();
        flipped[i] = byte;
        let _ = Snap::decode(&flipped);
        prop_assert!(Snap::decode(&enc).is_ok());
    }
}
