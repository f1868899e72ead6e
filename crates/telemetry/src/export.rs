//! Chrome `trace_event` export and a dependency-free JSON reader.
//!
//! The export follows the Trace Event Format's JSON-object flavour:
//! `"M"` metadata events name each process (rank) and thread (stage
//! row), then one complete `"X"` event per [`SpanRecord`] with
//! microsecond `ts`/`dur`. The resulting file opens directly in
//! `chrome://tracing` or Perfetto; overlapping spans on different `tid`
//! rows of the same `pid` render as the compute/exchange overlap the
//! pipelined scheduler is built to achieve.

use std::fmt::Write as _;

use crate::{SpanRecord, TelemetryReport};

/// Renders `report` as chrome `trace_event` JSON.
pub fn chrome_trace(report: &TelemetryReport) -> String {
    let mut out = String::with_capacity(256 + report.spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for ((pid, tid), label) in &report.track_labels {
        let (ph_name, key) = if *tid == 0 {
            ("process_name", "name")
        } else {
            ("thread_name", "name")
        };
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{ph_name}\",\"args\":{{\"{key}\":"
        );
        push_json_string(&mut out, label);
        out.push_str("}}");
    }
    for span in &report.spans {
        push_sep(&mut out, &mut first);
        push_span(&mut out, span);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn push_span(out: &mut String, s: &SpanRecord) {
    // trace_event timestamps are microseconds; keep sub-µs resolution
    // with fractional values (the format accepts doubles).
    let ts = s.start_ns as f64 / 1000.0;
    let dur = (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1000.0;
    let _ = write!(out, "{{\"ph\":\"X\",\"name\":");
    push_json_string(out, &s.name);
    let _ = write!(
        out,
        ",\"cat\":\"alya\",\"pid\":{},\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"id\":{}",
        s.pid, s.tid, s.id
    );
    if let Some(parent) = s.parent {
        let _ = write!(out, ",\"parent\":{parent}");
    }
    out.push_str("}}");
}

/// Appends `s` as a JSON string literal (quoted, escaped).
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON numbers are doubles).
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object (the first, if repeated); `None` for
    /// other values.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric member `key` of an object.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(x)) => Some(*x),
            _ => None,
        }
    }

    /// String member `key` of an object.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Every object in the document, this value included, in document
    /// order (a parent before its children) — how the bench-report
    /// readers find their rows without fixing the nesting.
    pub fn objects(&self) -> Vec<&Json> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(v) = stack.pop() {
            match v {
                Json::Obj(members) => {
                    out.push(v);
                    stack.extend(members.iter().rev().map(|(_, m)| m));
                }
                Json::Arr(items) => stack.extend(items.iter().rev()),
                _ => {}
            }
        }
        out
    }
}

/// Parses `text` as one complete JSON value.
///
/// A minimal recursive-descent parser (no external crates): the tests,
/// the analyzer and the bench bins read every committed `BENCH_*.json`
/// through it, and [`validate_json`] proves the trace files they emit
/// actually parse.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos == p.b.len() {
        Ok(v)
    } else {
        Err(format!("trailing data at byte {}", p.pos))
    }
}

/// Checks that `text` is one complete, well-formed JSON value.
pub fn validate_json(text: &str) -> Result<(), String> {
    parse_json(text).map(|_| ())
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected an object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after key"));
            }
            self.pos += 1;
            self.skip_ws();
            members.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// A string literal starting at the opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = Vec::new();
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    self.pos += 1;
                    // The input is a `&str` and escapes decode to whole
                    // chars, so the bytes are valid UTF-8.
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                b'\\' => {
                    let decoded = match self.b.get(self.pos + 1) {
                        Some(b'u') => self.unicode_escape()?,
                        esc => {
                            let c = match esc {
                                Some(b'"') => '"',
                                Some(b'\\') => '\\',
                                Some(b'/') => '/',
                                Some(b'b') => '\u{8}',
                                Some(b'f') => '\u{c}',
                                Some(b'n') => '\n',
                                Some(b'r') => '\r',
                                Some(b't') => '\t',
                                _ => return Err(self.err("bad escape")),
                            };
                            self.pos += 2;
                            c
                        }
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(decoded.encode_utf8(&mut buf).as_bytes());
                }
                c if c < 0x20 => return Err(self.err("raw control character in string")),
                c => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
        Err(self.err("unterminated string"))
    }

    /// Decodes a `\uXXXX` escape at `pos` (a surrogate pair spans two),
    /// advancing past it. Unpaired surrogates decode to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4(self.pos + 2)?;
        self.pos += 6;
        if (0xD800..0xDC00).contains(&hi) && self.b.get(self.pos..self.pos + 2) == Some(b"\\u") {
            let lo = self.hex4(self.pos + 2)?;
            if (0xDC00..0xE000).contains(&lo) {
                self.pos += 6;
                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(c).unwrap_or('\u{fffd}'));
            }
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .b
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        let text = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("expected digits"));
        }
        if int_digits > 1 && self.b[start + usize::from(self.b[start] == b'-')] == b'0' {
            return Err(self.err("leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("unreadable number"))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b.get(self.pos..self.pos + word.len()) == Some(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanRecord;

    fn sample_report() -> TelemetryReport {
        TelemetryReport {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: None,
                    name: "assemble:pipelined:rsp".into(),
                    pid: 1,
                    tid: 0,
                    start_ns: 1_000,
                    end_ns: 9_000,
                },
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    name: "halo \"drain\"\n".into(),
                    pid: 1,
                    tid: 4,
                    start_ns: 2_500,
                    end_ns: 7_500,
                },
            ],
            track_labels: vec![((1, 0), "rank 0".into()), ((1, 4), "halo-drain".into())],
            ..TelemetryReport::default()
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_metadata_and_complete_events() {
        let json = chrome_trace(&sample_report());
        validate_json(&json).expect("export parses");
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":8.000"));
        assert!(json.contains("\"parent\":1"));
        // The awkward name round-trips escaped.
        assert!(json.contains("halo \\\"drain\\\"\\n"));
    }

    #[test]
    fn empty_report_still_exports_a_parsable_skeleton() {
        let json = chrome_trace(&TelemetryReport::default());
        validate_json(&json).expect("skeleton parses");
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn validator_accepts_json_shapes() {
        for ok in [
            "null",
            "true",
            " false ",
            "0",
            "-12.5e+3",
            "\"a\\u00e9\\n\"",
            "[]",
            "[1, [2, {\"k\": null}]]",
            "{}",
            "{\"a\": 1, \"b\": [true, \"x\"]}",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} should parse: {e}"));
        }
    }

    #[test]
    fn parser_returns_the_value_with_escapes_decoded() {
        let v = parse_json(
            "{\"a\": [1, -2.5e1, true, null], \"s\": \"x\\\"\\u00e9\\ud83d\\ude00\\n\", \"o\": {\"k\": 3}}",
        )
        .expect("parses");
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(v.str("s"), Some("x\"é😀\n"));
        assert_eq!(v.get("o").and_then(|o| o.num("k")), Some(3.0));
        assert_eq!(v.num("missing"), None);
        // Objects in document order, parent first.
        let keys: Vec<usize> = v
            .objects()
            .iter()
            .map(|o| match o {
                Json::Obj(m) => m.len(),
                _ => 0,
            })
            .collect();
        assert_eq!(keys, vec![3, 1]);
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{'a': 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "nul",
            "[1] trailing",
            "\"raw\u{1}control\"",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
