//! # bfly-snap — versioned checkpoint container for the simulator
//!
//! The paper's groups could only debug long Butterfly runs by re-executing
//! them from the start (§3.3); this crate is the state-capture half of
//! doing better. A [`Snap`] is a named list of sections, each a list of
//! `key=value` fields, serialized to a canonical line-oriented byte form
//! with a trailing content checksum:
//!
//! ```text
//! bfly-snap/1
//! [engine]
//! events=123456
//! version=2
//! [sim]
//! now=7890
//! ...
//! #sum 0123456789abcdef0123456789abcdef
//! ```
//!
//! Design rules the rest of the workspace depends on:
//!
//! * **Canonical bytes** — sections and fields serialize in insertion
//!   order, values are newline-escaped, and there is exactly one encoding
//!   of a given `Snap`. Equal state ⇒ equal bytes ⇒ equal [`Snap::hash`],
//!   which is what lets `snapshot → restore → run` be *verified*
//!   bit-identical rather than assumed.
//! * **No wall-clock, no host state** — a snapshot is a pure function of
//!   deterministic simulator state. The `cargo xtask lint` snapshot-purity
//!   gate bans `SystemTime`/`Instant::now` from this crate and from every
//!   module that feeds it.
//! * **Versioned** — the first line is the format tag. Readers reject
//!   unknown majors loudly ([`SnapError::BadMagic`]); additive fields are
//!   allowed within `/1` because consumers look fields up by name.
//! * **Dependency-free** — auditable anywhere the engine builds; no
//!   serde/bincode in the restore trust base.
//!
//! What a snapshot deliberately does *not* contain: futures, wakers, or
//! any other host-memory object. Those are **re-derived on load** by
//! rebuilding the program and deterministically fast-forwarding the engine
//! to the snapshot's event count, then proving the reached state hashes to
//! the same bytes (see `bfly_sim::Sim::restore` and DESIGN.md §16).

#![forbid(unsafe_code)]

use std::fmt;

/// Format tag: the first line of every encoded snapshot.
pub const FORMAT: &str = "bfly-snap/1";

/// Marker prefix of the trailing checksum line.
pub const SUM_MARKER: &str = "#sum ";

/// Everything that can go wrong reading or verifying a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// First line is not [`FORMAT`].
    BadMagic(String),
    /// Structural problem at a 1-based line number.
    Corrupt { line: usize, msg: String },
    /// The trailing checksum does not match the body bytes.
    SumMismatch { expected: String, got: String },
    /// A section or field a reader requires is absent or mistyped.
    MissingField { section: String, field: String },
    /// Restore verification failed: the rebuilt, fast-forwarded state does
    /// not hash to the snapshot's bytes (non-deterministic program, or a
    /// snapshot from a different engine/program).
    Divergent { expected: String, got: String },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic(got) => write!(f, "not a {FORMAT} snapshot (got `{got}`)"),
            SnapError::Corrupt { line, msg } => write!(f, "corrupt snapshot at line {line}: {msg}"),
            SnapError::SumMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot checksum mismatch: expected {expected}, got {got}"
                )
            }
            SnapError::MissingField { section, field } => {
                write!(f, "snapshot missing field [{section}] {field}")
            }
            SnapError::Divergent { expected, got } => write!(
                f,
                "restore diverged from snapshot: state hash {got} != snapshotted {expected}"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// One named group of `key=value` fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    name: String,
    fields: Vec<(String, String)>,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

/// Escape a value so it fits on one line: `%` → `%25`, LF → `%0A`,
/// CR → `%0D`. Everything else passes through, so escaped values of the
/// flat integer/hex fields the simulator writes are themselves.
fn escape(v: &str) -> String {
    if !v.contains(['%', '\n', '\r']) {
        return v.to_string();
    }
    let mut out = String::with_capacity(v.len() + 8);
    for c in v.chars() {
        match c {
            '%' => out.push_str("%25"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(v: &str, line: usize) -> Result<String, SnapError> {
    if !v.contains('%') {
        return Ok(v.to_string());
    }
    let bytes = v.as_bytes();
    let mut out = String::with_capacity(v.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3).ok_or(SnapError::Corrupt {
                line,
                msg: "truncated escape".into(),
            })?;
            let code =
                u8::from_str_radix(std::str::from_utf8(hex).unwrap_or("zz"), 16).map_err(|_| {
                    SnapError::Corrupt {
                        line,
                        msg: "bad escape".into(),
                    }
                })?;
            out.push(code as char);
            i += 3;
        } else {
            // Safe: iterating byte-wise but only ASCII `%` is special, so
            // multi-byte chars pass through untouched via the char slice.
            let c = v[i..].chars().next().expect("in-bounds char");
            out.push(c);
            i += c.len_utf8();
        }
    }
    Ok(out)
}

impl Section {
    /// New empty section. `name` must be `[A-Za-z0-9_.-]+`.
    pub fn new(name: &str) -> Section {
        assert!(valid_name(name), "bad section name `{name}`");
        Section {
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// Section name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a string field. Keys must be `[A-Za-z0-9_.-]+`; values may
    /// contain anything (escaped on encode).
    pub fn field(&mut self, key: &str, value: &str) -> &mut Section {
        assert!(valid_name(key), "bad field key `{key}`");
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Append an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Section {
        self.field(key, &value.to_string())
    }

    /// Append a list of `u64`s as one comma-separated field (canonical:
    /// no spaces, empty list is the empty string).
    pub fn field_u64s(&mut self, key: &str, values: impl IntoIterator<Item = u64>) -> &mut Section {
        let joined = values
            .into_iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.field(key, &joined)
    }

    /// Look a field up by key (first match).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Field as `u64`, or the typed error restore paths report.
    pub fn get_u64(&self, key: &str) -> Result<u64, SnapError> {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| SnapError::MissingField {
                section: self.name.clone(),
                field: key.to_string(),
            })
    }

    /// Comma-separated `u64` list field (inverse of [`Section::field_u64s`]).
    pub fn get_u64s(&self, key: &str) -> Result<Vec<u64>, SnapError> {
        let raw = self.get(key).ok_or_else(|| SnapError::MissingField {
            section: self.name.clone(),
            field: key.to_string(),
        })?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|t| {
                t.parse().map_err(|_| SnapError::MissingField {
                    section: self.name.clone(),
                    field: key.to_string(),
                })
            })
            .collect()
    }

    /// All fields in insertion (= canonical) order.
    pub fn fields(&self) -> &[(String, String)] {
        &self.fields
    }
}

/// A versioned snapshot: ordered sections with a content checksum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snap {
    sections: Vec<Section>,
}

impl Snap {
    /// New empty snapshot.
    pub fn new() -> Snap {
        Snap::default()
    }

    /// Append a section (order is part of the canonical form).
    pub fn push(&mut self, section: Section) -> &mut Snap {
        self.sections.push(section);
        self
    }

    /// Look a section up by name (first match).
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Like [`Snap::section`] but with the typed error restore paths report.
    pub fn require(&self, name: &str) -> Result<&Section, SnapError> {
        self.section(name).ok_or_else(|| SnapError::MissingField {
            section: name.to_string(),
            field: "(section)".to_string(),
        })
    }

    /// All sections in canonical order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Canonical body: everything up to (not including) the checksum line.
    fn body(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(FORMAT);
        out.push('\n');
        for s in &self.sections {
            out.push('[');
            out.push_str(&s.name);
            out.push_str("]\n");
            for (k, v) in &s.fields {
                out.push_str(k);
                out.push('=');
                out.push_str(&escape(v));
                out.push('\n');
            }
        }
        out
    }

    /// Content hash of the canonical body (32 hex chars). Equal state ⇒
    /// equal hash; this is what restore verification compares.
    pub fn hash(&self) -> String {
        fingerprint(self.body().as_bytes())
    }

    /// Canonical encoded bytes, checksum line included.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.body();
        let sum = fingerprint(body.as_bytes());
        let mut out = body.into_bytes();
        out.extend_from_slice(SUM_MARKER.as_bytes());
        out.extend_from_slice(sum.as_bytes());
        out.push(b'\n');
        out
    }

    /// Parse and checksum-verify encoded bytes.
    pub fn decode(bytes: &[u8]) -> Result<Snap, SnapError> {
        let text = std::str::from_utf8(bytes).map_err(|_| SnapError::Corrupt {
            line: 0,
            msg: "not UTF-8".into(),
        })?;
        let mut snap = Snap::new();
        let mut sum_line: Option<String> = None;
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            if i == 0 {
                if line != FORMAT {
                    return Err(SnapError::BadMagic(line.to_string()));
                }
                continue;
            }
            if sum_line.is_some() {
                return Err(SnapError::Corrupt {
                    line: lineno,
                    msg: "content after checksum line".into(),
                });
            }
            if let Some(sum) = line.strip_prefix(SUM_MARKER) {
                sum_line = Some(sum.to_string());
            } else if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                if !valid_name(name) {
                    return Err(SnapError::Corrupt {
                        line: lineno,
                        msg: format!("bad section name `{name}`"),
                    });
                }
                snap.sections.push(Section::new(name));
            } else if let Some((k, v)) = line.split_once('=') {
                if !valid_name(k) {
                    return Err(SnapError::Corrupt {
                        line: lineno,
                        msg: format!("bad field key `{k}`"),
                    });
                }
                let section = snap.sections.last_mut().ok_or(SnapError::Corrupt {
                    line: lineno,
                    msg: "field before any section".into(),
                })?;
                let v = unescape(v, lineno)?;
                section.fields.push((k.to_string(), v));
            } else {
                return Err(SnapError::Corrupt {
                    line: lineno,
                    msg: format!("unparseable line `{line}`"),
                });
            }
        }
        let got = sum_line.ok_or(SnapError::Corrupt {
            line: text.lines().count(),
            msg: "missing checksum line".into(),
        })?;
        let expected = snap.hash();
        if got != expected {
            return Err(SnapError::SumMismatch { expected, got });
        }
        Ok(snap)
    }
}

/// 64-bit FNV-1a of `bytes` from `seed`. Pass the standard offset basis
/// `0xcbf2_9ce4_8422_2325` to start; pass a previous result to chain, so
/// hashing a stream in pieces equals hashing it whole.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// 32-hex content fingerprint: two independent 64-bit FNV-1a passes over
/// the bytes (same construction as the farm cache's content keys, kept
/// dependency-free here on purpose). Collision odds are negligible for
/// verification use; this is an integrity check, not a cryptographic MAC.
pub fn fingerprint(bytes: &[u8]) -> String {
    let a = fnv1a(0xcbf2_9ce4_8422_2325, bytes);
    let b = fnv1a(0x6c62_272e_07bb_0142 ^ 0x9E37_79B9_7F4A_7C15, bytes);
    format!("{a:016x}{b:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snap {
        let mut s = Snap::new();
        let mut engine = Section::new("engine");
        engine.field_u64("version", 2).field_u64("events", 123);
        let mut sim = Section::new("sim");
        sim.field_u64("now", 456)
            .field("note", "has=equals and % and\nnewline")
            .field_u64s("ready", [7, 8, 9])
            .field_u64s("empty", []);
        s.push(engine).push(sim);
        s
    }

    /// Golden pin of the `bfly-snap/1` header and the whole canonical
    /// encoding of a tiny snapshot: any byte-level format drift (ordering,
    /// escaping, checksum placement) must show up here and force a format
    /// version bump, because persisted checkpoints outlive the process.
    #[test]
    fn golden_schema_bfly_snap_1() {
        let enc = sample().encode();
        let text = String::from_utf8(enc).unwrap();
        assert!(
            text.starts_with("bfly-snap/1\n"),
            "header line is the format tag"
        );
        let expected_body = "bfly-snap/1\n\
                             [engine]\n\
                             version=2\n\
                             events=123\n\
                             [sim]\n\
                             now=456\n\
                             note=has=equals and %25 and%0Anewline\n\
                             ready=7,8,9\n\
                             empty=\n";
        let expected = format!(
            "{expected_body}{SUM_MARKER}{}\n",
            fingerprint(expected_body.as_bytes())
        );
        assert_eq!(text, expected);
        // The checksum line is exactly 32 hex chars.
        let sum = text
            .lines()
            .last()
            .unwrap()
            .strip_prefix(SUM_MARKER)
            .unwrap();
        assert_eq!(sum.len(), 32);
        assert!(sum.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn roundtrip_is_identity() {
        let s = sample();
        let enc = s.encode();
        let dec = Snap::decode(&enc).unwrap();
        assert_eq!(dec, s);
        assert_eq!(dec.encode(), enc, "re-encode is canonical");
        assert_eq!(dec.hash(), s.hash());
        assert_eq!(
            dec.section("sim").unwrap().get("note"),
            Some("has=equals and % and\nnewline")
        );
        assert_eq!(
            dec.section("sim").unwrap().get_u64s("ready").unwrap(),
            [7, 8, 9]
        );
        assert!(dec
            .section("sim")
            .unwrap()
            .get_u64s("empty")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn tampering_is_detected() {
        let enc = String::from_utf8(sample().encode()).unwrap();
        let tampered = enc.replace("events=123", "events=124");
        assert!(matches!(
            Snap::decode(tampered.as_bytes()),
            Err(SnapError::SumMismatch { .. })
        ));
        let truncated = enc.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            Snap::decode(truncated.as_bytes()),
            Err(SnapError::Corrupt { .. })
        ));
        assert!(matches!(
            Snap::decode(b"bfly-snap/9\n#sum 00"),
            Err(SnapError::BadMagic(_))
        ));
    }

    #[test]
    fn typed_lookups_report_missing_fields() {
        let s = sample();
        let sim = s.require("sim").unwrap();
        assert_eq!(sim.get_u64("now").unwrap(), 456);
        assert!(matches!(
            sim.get_u64("absent"),
            Err(SnapError::MissingField { .. })
        ));
        assert!(matches!(
            s.require("nope"),
            Err(SnapError::MissingField { .. })
        ));
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let a = fingerprint(b"abc");
        assert_eq!(a, fingerprint(b"abc"));
        assert_ne!(a, fingerprint(b"abd"));
        assert_eq!(a.len(), 32);
    }
}
