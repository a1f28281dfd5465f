//! The workspace's one JSON codec.
//!
//! The build environment has no registry access, so no serde. Every JSON
//! document the workspace persists or sends is built as a [`JsonValue`]
//! tree and rendered here: repro files, the `mapgd` journal and wire
//! protocol, metrics registries ([`MetricsRegistry::to_json`]) and run
//! manifests. The one exception is the Chrome trace
//! ([`TraceBuffer::to_chrome_trace`]), whose size grows with the run, so
//! it is rendered record by record instead of built as a tree.
//!
//! [`write()`] renders a document on one line; [`write_pretty`] breaks the
//! top two levels one member per line and renders deeper containers as
//! [`write()`] does. [`parse()`] is a small recursive-descent parser that
//! refuses documents nested deeper than [`MAX_DEPTH`], so a hostile input
//! cannot exhaust the stack. Numbers keep their raw text so `u64` seeds
//! survive beyond 2^53 and floats round-trip bit-exactly through Rust's
//! shortest-representation formatting.
//!
//! [`MetricsRegistry::to_json`]: crate::MetricsRegistry::to_json
//! [`TraceBuffer::to_chrome_trace`]: crate::TraceBuffer::to_chrome_trace

use core::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A number with exactly three fractional digits (`{:.3}`), the fixed
    /// format of wall times and histogram means; a non-finite value, which
    /// JSON cannot hold, becomes `0`.
    pub fn fixed3(value: f64) -> JsonValue {
        JsonValue::Number(if value.is_finite() {
            format!("{value:.3}")
        } else {
            "0".to_owned()
        })
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a number with `u64` text.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// True when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// A malformed JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonParseError {}

/// The deepest container nesting [`parse()`] accepts: `[[1]]` is two
/// levels deep. The deepest document the workspace writes (a manifest
/// with metrics) has 7.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// A document nested deeper than [`MAX_DEPTH`] is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(err(pos, "trailing content after document"));
    }
    Ok(value)
}

fn err(at: usize, reason: impl Into<String>) -> JsonParseError {
    JsonParseError {
        at,
        reason: reason.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonParseError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", byte as char)))
    }
}

/// Parses the value at `pos`, which sits inside `depth` containers.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, JsonParseError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::String(parse_string(text, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(text, pos),
        Some(c) => Err(err(*pos, format!("unexpected byte '{}'", *c as char))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonParseError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected '{literal}'")))
    }
}

/// Parses a number by RFC 8259's grammar,
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, keeping its text.
fn parse_number(text: &str, pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    let bytes = text.as_bytes();
    let start = *pos;
    // Advances past a run of digits; whether there was at least one.
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int = *pos;
    // No leading zero unless the integer part is exactly `0`.
    let mut valid = digits(pos) && (bytes[int] != b'0' || *pos == int + 1);
    if valid && bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        valid = digits(pos);
    }
    if valid && matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        valid = digits(pos);
    }
    // A number character right after a complete number (`01`, `1.2.3`)
    // makes the whole run malformed, not a number plus trailing garbage.
    let number_byte = |b: &u8| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-');
    if !valid || bytes.get(*pos).is_some_and(number_byte) {
        let run = bytes[start..].iter().take_while(|b| number_byte(b)).count();
        return Err(err(
            start,
            format!("malformed number '{}'", &text[start..start + run]),
        ));
    }
    Ok(JsonValue::Number(text[start..*pos].to_owned()))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonParseError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy everything up to the next quote or backslash as one slice:
        // both are ASCII, so the run ends on a character boundary.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| err(bytes.len(), "unterminated string"))?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        let escaped = match bytes.get(*pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => parse_unicode_escape(bytes, pos)?,
            _ => return Err(err(*pos, "unknown escape")),
        };
        out.push(escaped);
        *pos += 1;
    }
}

/// Decodes the `\u` escape whose `u` is at `pos`, pairing a high surrogate
/// with the `\u` low surrogate that must follow it, and leaves `pos` on
/// the escape's last hex digit. A lone or reversed surrogate is an error.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, JsonParseError> {
    let start = *pos;
    let mut code = hex4(bytes, *pos)?;
    *pos += 4;
    if (0xD800..0xDC00).contains(&code) {
        let low = match bytes.get(*pos + 1..*pos + 3) {
            Some(b"\\u") => hex4(bytes, *pos + 2)?,
            _ => 0,
        };
        if (0xDC00..0xE000).contains(&low) {
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            *pos += 6;
        }
    }
    // Still a surrogate here means it was unpaired.
    char::from_u32(code).ok_or_else(|| err(start, "unpaired surrogate in \\u escape"))
}

/// The value of the exactly four hex digits after the `u` at `pos`.
fn hex4(bytes: &[u8], pos: usize) -> Result<u32, JsonParseError> {
    let digits = bytes
        .get(pos + 1..pos + 5)
        .ok_or_else(|| err(pos, "truncated \\u escape"))?;
    digits.iter().try_fold(0, |code, &digit| {
        let value = char::from(digit)
            .to_digit(16)
            .ok_or_else(|| err(pos, "malformed \\u escape"))?;
        Ok(code * 16 + value)
    })
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, JsonParseError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, JsonParseError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(entries));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(text, pos, depth)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(entries));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

/// Containers at a level below this print one member per line in
/// [`write_pretty`]; the document itself is level 0.
const PRETTY_LEVELS: usize = 2;

/// Renders a value as a compact, one-line JSON document with stable
/// field order.
pub fn write(value: &JsonValue) -> String {
    let mut out = String::new();
    write_value(value, PRETTY_LEVELS, &mut out);
    out
}

/// Renders a value as a pretty JSON document: containers in the top two
/// levels print one member per line with a two-space indent, deeper ones
/// exactly as [`write()`] does, and the text ends with a newline.
pub fn write_pretty(value: &JsonValue) -> String {
    let mut out = String::new();
    write_value(value, 0, &mut out);
    out.push('\n');
    out
}

/// Renders `value`, which sits `level` containers deep; containers at
/// [`PRETTY_LEVELS`] or deeper render compact.
fn write_value(value: &JsonValue, level: usize, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Number(raw) => out.push_str(raw),
        JsonValue::String(s) => write_string(s, out),
        JsonValue::Array(items) => {
            write_members(('[', ']'), items.iter().map(|v| (None, v)), level, out)
        }
        JsonValue::Object(entries) => write_members(
            ('{', '}'),
            entries.iter().map(|(k, v)| (Some(k.as_str()), v)),
            level,
            out,
        ),
    }
}

fn write_members<'a>(
    (open, close): (char, char),
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a JsonValue)>,
    level: usize,
    out: &mut String,
) {
    let broken = level < PRETTY_LEVELS && members.len() > 0;
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    };
    out.push(open);
    for (i, (key, item)) in members.enumerate() {
        if i > 0 {
            out.push(',');
            if !broken {
                out.push(' ');
            }
        }
        if broken {
            newline(out, level + 1);
        }
        if let Some(key) = key {
            write_string(key, out);
            out.push_str(": ");
        }
        write_value(item, level + 1, out);
    }
    if broken {
        newline(out, level);
    }
    out.push(close);
}

/// Escapes a string per RFC 8259 and writes it in quotes.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a finite float with shortest round-trip precision (Rust's
/// `{:?}`), so parse(render(x)) == x bit-for-bit.
///
/// # Panics
///
/// Panics on non-finite values — scenario fields are validated finite
/// before rendering.
pub fn render_f64(value: f64) -> String {
    assert!(value.is_finite(), "cannot render non-finite float {value}");
    format!("{value:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_a_nested_document() {
        let text = r#"{"a": 1, "b": [true, null, "x\n\"y"], "c": {"d": -2.5e3}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let b = match v.get("b").unwrap() {
            JsonValue::Array(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(b[0].as_bool(), Some(true));
        assert!(b[1].is_null());
        assert_eq!(b[2].as_str(), Some("x\n\"y"));
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2500.0)
        );
        assert_eq!(write(&v), text);
    }

    #[test]
    fn u64_seeds_survive_beyond_f64_precision() {
        let text = format!("{{\"seed\": {}}}", u64::MAX);
        let v = parse(&text).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 0.7f64.powi(7), f64::MAX] {
            let rendered = render_f64(x);
            let parsed = parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn fixed3_rounds_to_three_digits_and_zeroes_non_finite_values() {
        assert_eq!(JsonValue::fixed3(0.5), JsonValue::Number("0.500".into()));
        assert_eq!(
            JsonValue::fixed3(12.3456),
            JsonValue::Number("12.346".into())
        );
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(JsonValue::fixed3(x), JsonValue::Number("0".into()));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\q\""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // A `\u` escape takes exactly four hex digits: no sign, no space.
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "tab\tquote\"back\\slash\nctrl\u{1}";
        let rendered = write(&JsonValue::String(original.to_owned()));
        assert_eq!(rendered, r#""tab\tquote\"back\\slash\nctrl\u0001""#);
        let parsed = parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_refused() {
        // What other encoders (Python's `json.dumps`, for one) write for
        // characters outside the Basic Multilingual Plane.
        let v = parse(r#"{"client": "\ud83e\udd80 \ud834\udd1e \u0041\u00E9\uFFFD"}"#).unwrap();
        assert_eq!(
            v.get("client").unwrap().as_str(),
            Some("\u{1f980} \u{1d11e} A\u{e9}\u{fffd}")
        );
        for bad in [
            r#""\ud83e""#,
            r#""\ud83e x""#,
            r#""\ud83e\n""#,
            r#""\ud83eA""#,
            r#""\ud83e\ud83e""#,
            r#""\udd80""#,
            r#""\udd80\ud83e""#,
            r#""\ud83e\udd8""#,
        ] {
            let error = parse(bad).unwrap_err();
            assert!(error.reason.contains("\\u escape"), "{bad}: {error}");
        }
    }

    #[test]
    fn megabyte_string_with_multibyte_characters_round_trips() {
        let original: String = "\u{e9}\u{6f22}\u{1f980}\"\\\n a".repeat(1 << 17);
        assert!(original.len() > 1 << 20);
        let value = JsonValue::Array(vec![JsonValue::String(original)]);
        assert_eq!(parse(&write(&value)), Ok(value));
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for good in [
            "0",
            "-0",
            "7",
            "-12",
            "0.5",
            "-0.0",
            "10.25",
            "1e5",
            "1E+5",
            "2e-3",
            "0e0",
            "1.5E10",
            "18446744073709551615",
        ] {
            assert_eq!(parse(good), Ok(JsonValue::Number(good.into())), "{good}");
        }
        for bad in [
            "01", "-01", "00", "1.", "1.e5", ".5", "-", "+1", "1e", "1e+", "1.2.3", "1-2", "--1",
            "-.5", "0x10", "1e5.5",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
        let error = parse("[1, 01]").unwrap_err();
        assert_eq!(
            (error.at, error.reason.as_str()),
            (4, "malformed number '01'")
        );
    }

    /// `levels` containers, alternating arrays and objects, around `1`.
    fn nested(levels: usize) -> JsonValue {
        (0..levels).fold(JsonValue::Number("1".into()), |inner, i| {
            if i % 2 == 0 {
                JsonValue::Array(vec![inner])
            } else {
                JsonValue::Object(vec![("k".into(), inner)])
            }
        })
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        assert_eq!(parse(&write(&nested(MAX_DEPTH))), Ok(nested(MAX_DEPTH)));
        let error = parse(&write(&nested(MAX_DEPTH + 1))).unwrap_err();
        // Outside the 65th container: 32 arrays and 32 one-key objects.
        assert_eq!(error.at, 32 * "[".len() + 32 * r#"{"k": "#.len(), "{error}");
        assert_eq!(error.reason, "nesting deeper than 64 levels");

        // A line of brackets far past the limit is refused at the first
        // bracket too deep, without recursing any further.
        let error = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(error.at, MAX_DEPTH);
        assert_eq!(error.reason, "nesting deeper than 64 levels");
    }

    #[test]
    fn pretty_breaks_the_top_two_levels_only() {
        let doc =
            parse(r#"{"a": 1, "b": {"c": [1, {"d": []}], "e": {}}, "f": [[2, 3], "x"], "g": []}"#)
                .unwrap();
        let expected = r#"{
  "a": 1,
  "b": {
    "c": [1, {"d": []}],
    "e": {}
  },
  "f": [
    [2, 3],
    "x"
  ],
  "g": []
}
"#;
        assert_eq!(write_pretty(&doc), expected);
        assert_eq!(write_pretty(&JsonValue::Null), "null\n");
        assert_eq!(write_pretty(&JsonValue::Object(Vec::new())), "{}\n");
    }

    /// Text pieces a random string is made of: JSON's escapes, control
    /// characters, and one- to four-byte UTF-8 scalars.
    const PIECES: [&str; 12] = [
        "\"",
        "\\",
        "/",
        "\n",
        "\r\t",
        "\u{1}",
        "\u{8}\u{c}",
        "\u{1f}\u{7f}",
        "é",
        "漢字",
        "🦀",
        "a b",
    ];

    /// Builds a random value at `depth` containers deep (containers only
    /// while `depth < 6`) from a stream of random words.
    fn random_value(words: &mut impl Iterator<Item = u64>, depth: usize) -> JsonValue {
        let mut next = || words.next().unwrap_or(0);
        let word = next();
        let kinds = if depth < 6 { 6 } else { 4 };
        match word % kinds {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(word & 0x100 != 0),
            2 => {
                let x = next();
                JsonValue::Number(match (word >> 8) % 3 {
                    0 => x.to_string(),
                    1 => {
                        let f = f64::from_bits(x);
                        render_f64(if f.is_finite() { f } else { x as f64 })
                    }
                    _ => format!("{:.3}", (x as i64) as f64 / 1e6),
                })
            }
            3 => JsonValue::String(random_string(next())),
            4 => JsonValue::Array(
                (0..(word >> 8) % 4)
                    .map(|_| random_value(words, depth + 1))
                    .collect(),
            ),
            _ => JsonValue::Object(
                (0..(word >> 8) % 4)
                    .map(|_| {
                        let key = random_string(words.next().unwrap_or(0));
                        (key, random_value(words, depth + 1))
                    })
                    .collect(),
            ),
        }
    }

    fn random_string(word: u64) -> String {
        (0..word % 6)
            .map(|i| PIECES[((word >> (8 + 4 * i)) % PIECES.len() as u64) as usize])
            .collect()
    }

    /// The number of containers nested around the deepest leaf.
    fn depth(value: &JsonValue) -> usize {
        match value {
            JsonValue::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            JsonValue::Object(entries) => {
                1 + entries.iter().map(|(_, v)| depth(v)).max().unwrap_or(0)
            }
            _ => 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn random_documents_round_trip_through_both_writers(
            words in prop::collection::vec(any::<u64>(), 1..120),
        ) {
            let value = random_value(&mut words.into_iter(), 0);
            prop_assert!(depth(&value) <= 6);
            prop_assert_eq!(parse(&write(&value)), Ok(value.clone()));
            prop_assert_eq!(parse(&write_pretty(&value)), Ok(value.clone()));
            prop_assert!(!write(&value).contains('\n'));

            // Wrapped up to exactly the limit it parses; one more level
            // is refused.
            let mut wrapped = value;
            while depth(&wrapped) < MAX_DEPTH {
                wrapped = JsonValue::Array(vec![wrapped]);
            }
            prop_assert_eq!(parse(&write_pretty(&wrapped)), Ok(wrapped.clone()));
            let deeper = JsonValue::Object(vec![("k".into(), wrapped)]);
            let error = parse(&write(&deeper)).unwrap_err();
            prop_assert_eq!(error.reason, "nesting deeper than 64 levels");
        }
    }
}
