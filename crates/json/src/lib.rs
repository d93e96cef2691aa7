//! The workspace's one JSON layer: parse, navigate, and **canonical** dump,
//! plus the single string escaper every hand-rolled emitter shares.
//!
//! The daemon's cache keys hash the canonical form of a job's parameters,
//! so two clients sending `{"n":16,"ps":[4,8]}` and `{ "ps": [4, 8],
//! "n": 16 }` hit the same cache line. Canonicalization = object keys in
//! byte-sorted order (a `BTreeMap` gives us that for free), no
//! insignificant whitespace, integers kept exact (`i64` fast path so a
//! `u64`-sized seed as a signed literal survives; floats use Rust's
//! shortest round-trip `Display`). Hand-rolled per the dependency policy
//! (DESIGN.md §7): no serde in the build.
//!
//! The parser faces the network (every farmd and router request line, every
//! shard reply), so it is strict RFC 8259, linear in its input, and caps
//! nesting at [`MAX_DEPTH`]: any input yields a value or an
//! `Err((byte offset, message))`, never a panic or a stack overflow.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest `[`/`{` nesting [`parse`] accepts. The parser recurses once per
/// level; the cap keeps a short hostile line from overflowing the stack.
/// Nothing in the workspace nests deeper than a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number with no fraction/exponent, kept exact.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; `BTreeMap` so iteration (and hence [`Value::dump`]) is
    /// key-sorted — the canonical form.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Field of an object, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Follow a dotted path of object keys: `v.at("a.b.c")` is
    /// `v.get("a")?.get("b")?.get("c")`. `None` when a step is missing or
    /// lands on a non-object (a `null` section reads as absent).
    pub fn at(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, Value::get)
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload (exact ints only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Integer widened/checked to `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Number payload (int or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Bool payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object payload.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// True for `null` (used for optional protocol fields).
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Canonical single-line serialization: sorted object keys, no
    /// whitespace. `parse(v.dump()) == v` for every value this module can
    /// produce.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_into(&mut out);
        out
    }

    fn dump_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(n) => {
                if n.is_finite() {
                    let tail_start = out.len();
                    let _ = write!(out, "{n}");
                    // `Display` for a float with no fraction prints `1`,
                    // which would re-parse as Int and break round-trips;
                    // keep the float marker.
                    if !out[tail_start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/inf
                }
            }
            Value::Str(s) => push_json_str(out, s),
            Value::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.dump_into(out);
                }
                out.push(']');
            }
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, k);
                    out.push(':');
                    v.dump_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` as a JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal, for emitters that build lines with
/// `format!`. Same bytes as [`push_json_str`].
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Parse one JSON document. Returns the value or `(byte offset, message)`.
pub fn parse(s: &str) -> Result<Value, (usize, String)> {
    let mut p = Parser {
        s,
        b: s.as_bytes(),
        at: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.b.len() {
        return Err((p.at, "trailing data after JSON value".into()));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    at: usize,
    /// Open `[`/`{` levels around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.at) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn err<T>(&self, msg: &str) -> Result<T, (usize, String)> {
        Err((self.at, msg.to_string()))
    }

    fn eat(&mut self, lit: &str) -> Result<(), (usize, String)> {
        if self.b[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    fn value(&mut self) -> Result<Value, (usize, String)> {
        match self.b.get(self.at) {
            None => self.err("unexpected end of input"),
            Some(b'n') => {
                self.eat("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(&open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return self.err("nesting deeper than 128 levels");
                }
                self.depth += 1;
                self.at += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(_) => self.err("unexpected character"),
        }
    }

    /// Elements after the opening `[`.
    fn array(&mut self) -> Result<Value, (usize, String)> {
        let mut arr = Vec::new();
        self.skip_ws();
        if self.b.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Value::Arr(arr));
        }
        loop {
            self.skip_ws();
            arr.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Arr(arr));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    /// Members after the opening `{`.
    fn object(&mut self) -> Result<Value, (usize, String)> {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.b.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.b.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }

    fn string(&mut self) -> Result<String, (usize, String)> {
        if self.b.get(self.at) != Some(&b'"') {
            return self.err("expected string");
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            // Copy the run of ordinary characters in one slice. The run
            // ends at an ASCII byte (or the end), so both ends are char
            // boundaries of the `&str` input: no UTF-8 re-validation, and
            // the whole string costs one pass.
            let run = self.b[self.at..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .map_or(self.b.len(), |n| self.at + n);
            out.push_str(&self.s[self.at..run]);
            self.at = run;
            match self.b.get(self.at) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.b.get(self.at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let cp = self
                                .b
                                .get(self.at + 1..self.at + 5)
                                .and_then(|hex| {
                                    hex.iter().try_fold(0u32, |cp, &h| {
                                        Some(cp << 4 | char::from(h).to_digit(16)?)
                                    })
                                })
                                .ok_or((self.at, "bad \\u escape (want 4 hex digits)".into()))?;
                            // Surrogate pairs are not reassembled; the
                            // protocol never emits them. Lone surrogates
                            // map to the replacement character.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.at += 1;
                }
                Some(_) => return self.err("raw control character in string"),
            }
        }
    }

    /// RFC 8259 `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Value, (usize, String)> {
        let start = self.at;
        if self.b.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        match self.b.get(self.at) {
            Some(b'0') => self.at += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return self.err("expected digit"),
        }
        let mut float = false;
        if self.b.get(self.at) == Some(&b'.') {
            self.at += 1;
            if self.digits() == 0 {
                return self.err("expected fraction digits");
            }
            float = true;
        }
        if matches!(self.b.get(self.at), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.b.get(self.at), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if self.digits() == 0 {
                return self.err("expected exponent digits");
            }
            float = true;
        }
        let tok = &self.s[start..self.at];
        if !float {
            if let Ok(i) = tok.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        // JSON has no inf: a literal past f64's range is an error, so every
        // parsed value survives `dump` unchanged.
        tok.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| (start, format!("number `{tok}` out of range")))
    }

    /// Skip a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.at;
        while self.b.get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
        self.at - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_sorts_keys() {
        let v =
            parse(r#"{ "zeta": [1, 2.5, -3], "alpha": {"b": true, "a": null}, "s": "x\n\"y" }"#)
                .unwrap();
        assert_eq!(
            v.dump(),
            r#"{"alpha":{"a":null,"b":true},"s":"x\n\"y","zeta":[1,2.5,-3]}"#
        );
        // Canonical form is a fixed point.
        let again = parse(&v.dump()).unwrap();
        assert_eq!(again, v);
        assert_eq!(again.dump(), v.dump());
    }

    #[test]
    fn key_order_is_canonicalized() {
        let a = parse(r#"{"n":16,"ps":[4,8]}"#).unwrap();
        let b = parse(r#"{ "ps": [4, 8], "n": 16 }"#).unwrap();
        assert_eq!(a.dump(), b.dump());
    }

    #[test]
    fn ints_stay_exact_and_floats_stay_floats() {
        let v = parse("9007199254740993").unwrap(); // 2^53 + 1: breaks f64
        assert_eq!(v.as_i64(), Some(9007199254740993));
        assert_eq!(v.dump(), "9007199254740993");
        let v = parse("2.0").unwrap();
        assert_eq!(v.dump(), "2.0"); // keeps the float marker
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn errors_carry_position() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        let (at, _) = parse(r#"{"a": }"#).unwrap_err();
        assert!(at >= 6);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"b":true,"i":7,"s":"hi","a":[1],"o":{}}"#).unwrap();
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("i").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
        assert!(v.get("o").and_then(Value::as_obj).is_some());
        assert!(v.get("missing").is_none());
        assert!(Value::Null.is_null());
    }

    /// One grammar table for the one parser: RFC 8259 documents it must
    /// take, and near-misses it must refuse (leading zeros, bare signs and
    /// dots, short or signed `\u` escapes, raw control characters).
    #[test]
    fn grammar_table() {
        for ok in [
            "null",
            "true",
            "0",
            "-0",
            "-12.5e+3",
            "1E-2",
            "0.5",
            "\"a\\n\\u00e9\\/\"",
            "\"\u{e9}\u{1f600}\"",
            "[]",
            "{}",
            " [1, [2, {\"k\": null}], \"x\"] ",
            "{\"a\": 1, \"b\": [true, false], \"c\": {\"d\": \"e\"}}",
        ] {
            assert!(parse(ok).is_ok(), "should accept: {ok}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "01",
            "-01",
            "1.",
            ".5",
            "-",
            "+1",
            "1e",
            "1e+",
            "01e",
            "1e999",
            "\"\\u+abc\"",
            "\"\\u12\"",
            "\"\\x\"",
            "\"unterminated",
            "tru",
            "nul",
            "[1] trailing",
            "{\"a\": \"\u{1}\"}",
            "{1: 2}",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn escaper_output_parses_back() {
        let s = "weird \"quotes\"\n\t\\ and \u{1} control \u{7f} é";
        let q = quote(s);
        assert_eq!(
            q,
            "\"weird \\\"quotes\\\"\\n\\t\\\\ and \\u0001 control \u{7f} é\""
        );
        assert_eq!(parse(&q).unwrap().as_str(), Some(s));
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let (at, msg) = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(at, MAX_DEPTH);
        assert!(msg.contains("nesting"), "{msg}");
        // Far past any stack: a short hostile line, unterminated too.
        let (_, msg) = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(msg.contains("nesting"), "{msg}");
        let (_, msg) = parse(&"{\"a\":".repeat(100_000)).unwrap_err();
        assert!(msg.contains("nesting"), "{msg}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One 1 MiB string: a per-character rescan of the rest of the
        // input would take minutes here; a single pass takes milliseconds.
        let body = "é".repeat(1 << 19);
        let doc = format!("[\"{body}\"]");
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = t0.elapsed();
        assert_eq!(v.as_arr().and_then(|a| a[0].as_str()), Some(body.as_str()));
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn at_walks_dotted_paths() {
        let v = parse(r#"{"a":{"b":{"c":3}},"n":null,"x":[1]}"#).unwrap();
        assert_eq!(v.at("a.b.c").and_then(Value::as_i64), Some(3));
        assert_eq!(v.at("a").and_then(|a| a.at("b.c")), v.at("a.b.c"));
        assert!(v.at("a.b.missing").is_none());
        assert!(v.at("n.anything").is_none());
        assert!(v.at("x.0").is_none());
        assert_eq!(v.at("n"), Some(&Value::Null));
    }
}
