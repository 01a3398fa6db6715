//! A minimal, dependency-free JSON representation with a deterministic
//! writer — the stable interchange format of the campaign driver.
//!
//! The workspace is fully offline (no serde), so the sharded campaign files
//! and machine-readable reports of the `holes` CLI are built on this hand-
//! rolled module instead. Its two guarantees matter more than generality:
//!
//! * **Determinism.** Objects preserve insertion order and the writer is a
//!   pure function of the value, so equal values always serialize to equal
//!   bytes — the property that lets K merged shard files reproduce a
//!   monolithic campaign byte-for-byte.
//! * **Losslessness.** Numbers are carried as their canonical decimal text
//!   (no round-trip through `f64`), so 64-bit seeds survive parsing and
//!   re-serialization exactly.
//!
//! The parser accepts standard JSON (escapes, surrogate pairs, nesting up to
//! a fixed depth limit) and reports byte offsets on errors.
//!
//! [`JsonWriter`] is the one routine that spells compact JSON text: it
//! escapes strings and spells numbers, and [`Json::to_compact`] walks a tree
//! through it. Hot emitters (the artifact store's codecs) drive it directly,
//! so they append their text without building a [`Json`] tree first.

use std::fmt::Write as _;
use std::ops::Range;

/// Nesting depth limit of the parser; deeper documents are rejected rather
/// than risking stack exhaustion on adversarial input.
const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Objects are ordered lists of `(key, value)` pairs: insertion order is
/// preserved and duplicate keys are representable (the writer emits them
/// verbatim; [`Json::get`] returns the first match, as most JSON readers
/// do).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, stored as its canonical decimal literal so 64-bit integers
    /// round-trip exactly. Construct via [`Json::from_u64`] and friends.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value from an unsigned integer.
    pub fn from_u64(n: u64) -> Json {
        Json::Num(n.to_string())
    }

    /// A number value from a signed integer.
    pub fn from_i64(n: i64) -> Json {
        Json::Num(n.to_string())
    }

    /// A number value from a `usize`.
    pub fn from_usize(n: usize) -> Json {
        Json::Num(n.to_string())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The boolean payload, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is an integral [`Json::Num`] in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `i64`, if this is an integral [`Json::Num`] in
    /// range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `usize`, if this is an integral [`Json::Num`] in
    /// range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`, if this is a [`Json::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is a [`Json::Obj`].
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The first value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Serialize with two-space indentation and a trailing newline — the
    /// deterministic on-disk format of campaign shard files and reports.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize without any whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        JsonWriter::new(&mut out).value(self);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            _ => JsonWriter::new(out).value(self),
        }
    }

    /// Parse a JSON document. Exactly one value is expected; trailing
    /// content other than whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        Parser::new(input, false).document().map(|(value, _)| value)
    }

    /// [`Json::parse`], also returning the byte range of `input` that each
    /// top-level object member's value occupies, in member order (empty
    /// when the document is not an object). A verifier can then hash a
    /// member's exact bytes instead of re-serializing the parsed value.
    pub fn parse_with_spans(input: &str) -> Result<(Json, Vec<Range<usize>>), JsonError> {
        Parser::new(input, true).document()
    }
}

/// A compact JSON writer appending to a `String`: no whitespace, strings
/// escaped and numbers spelled exactly as [`Json::to_compact`] spells them
/// (it is built on this writer). Separators are implicit: call
/// [`JsonWriter::key`] before each object member's value, and the writer
/// inserts every `,` and `:`. The caller keeps the nesting balanced.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Whether the next value or key follows a sibling and needs a `,`.
    comma: bool,
}

// The methods are tiny and called once per token from other crates' hot
// encoders, hence `#[inline]` (which lets them inline across crates).
impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    #[inline]
    pub fn new(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter { out, comma: false }
    }

    /// Emit the `,` a value or key owes its preceding sibling.
    #[inline]
    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Open an array.
    #[inline]
    pub fn begin_arr(&mut self) {
        self.separate();
        self.out.push('[');
        self.comma = false;
    }

    /// Close the innermost array.
    #[inline]
    pub fn end_arr(&mut self) {
        self.out.push(']');
        self.comma = true;
    }

    /// Open an object.
    #[inline]
    pub fn begin_obj(&mut self) {
        self.separate();
        self.out.push('{');
        self.comma = false;
    }

    /// Close the innermost object.
    #[inline]
    pub fn end_obj(&mut self) {
        self.out.push('}');
        self.comma = true;
    }

    /// Emit an object member's key; its value comes next.
    #[inline]
    pub fn key(&mut self, key: &str) {
        self.separate();
        write_string(self.out, key);
        self.out.push(':');
        self.comma = false;
    }

    /// Emit `null`.
    #[inline]
    pub fn null(&mut self) {
        self.raw("null");
    }

    /// Emit `true` or `false`.
    #[inline]
    pub fn bool(&mut self, value: bool) {
        self.raw(if value { "true" } else { "false" });
    }

    /// Emit an unsigned integer, spelled as [`Json::from_u64`] spells it.
    #[inline]
    pub fn u64(&mut self, value: u64) {
        self.separate();
        push_u64(self.out, value);
    }

    /// Emit a signed integer, spelled as [`Json::from_i64`] spells it.
    #[inline]
    pub fn i64(&mut self, value: i64) {
        self.separate();
        if value < 0 {
            self.out.push('-');
        }
        push_u64(self.out, value.unsigned_abs());
    }

    /// Emit a string.
    #[inline]
    pub fn str(&mut self, value: &str) {
        self.separate();
        write_string(self.out, value);
    }

    /// Emit already-spelled JSON text as one value, verbatim: a number's
    /// literal, or a document serialized earlier. The caller vouches that
    /// `text` is one compact JSON value.
    #[inline]
    pub fn raw(&mut self, text: &str) {
        self.separate();
        self.out.push_str(text);
    }

    /// Emit a whole [`Json`] tree.
    pub fn value(&mut self, json: &Json) {
        match json {
            Json::Null => self.null(),
            Json::Bool(value) => self.bool(*value),
            Json::Num(text) => self.raw(text),
            Json::Str(value) => self.str(value),
            Json::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.value(item);
                }
                self.end_arr();
            }
            Json::Obj(pairs) => {
                self.begin_obj();
                for (key, value) in pairs {
                    self.key(key);
                    self.value(value);
                }
                self.end_obj();
            }
        }
    }
}

/// Append the decimal spelling of `value` (what `u64::to_string` gives).
#[inline]
fn push_u64(out: &mut String, mut value: u64) {
    // Most numbers in artifacts (registers, slots, small lines) are digits.
    if value < 10 {
        out.push(char::from(b'0' + value as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy each run of plain bytes in one go; every escaped byte is ASCII,
    // so the run boundaries are always char boundaries.
    let mut run = 0;
    for (index, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..index]);
        match escape {
            Some(text) => out.push_str(text),
            None => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = index + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A JSON parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Value spans of the top-level object's members, when requested.
    spans: Option<Vec<Range<usize>>>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, spans: bool) -> Parser<'a> {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            spans: spans.then(Vec::new),
        }
    }

    /// Exactly one value, surrounded by optional whitespace.
    fn document(mut self) -> Result<(Json, Vec<Range<usize>>), JsonError> {
        self.skip_whitespace();
        let value = self.value(0)?;
        self.skip_whitespace();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing content after the JSON value"));
        }
        Ok((value, self.spans.unwrap_or_default()))
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than the supported limit"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let start = self.pos;
            let value = self.value(depth + 1)?;
            if depth == 0 {
                if let Some(spans) = &mut self.spans {
                    spans.push(start..self.pos);
                }
            }
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let escaped = self.peek().ok_or_else(|| self.error("truncated escape"))?;
        self.pos += 1;
        match escaped {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(unit)
                };
                out.push(c.ok_or_else(|| self.error("invalid \\u escape"))?);
            }
            other => return Err(self.error(format!("unknown escape `\\{}`", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        // Exactly four ASCII hex digits — `u32::from_str_radix` alone would
        // also accept a leading `+`, letting `\u+123` slip through.
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("invalid \\u escape"));
        }
        let unit = digits.iter().fold(0u32, |unit, &digit| {
            unit << 4 | (digit as char).to_digit(16).expect("validated hex digit")
        });
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let integer_digits = self.digits();
        if integer_digits == 0 {
            return Err(self.error("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        Ok(Json::Num(text.to_owned()))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_pretty_and_compact_forms() {
        let value = Json::Obj(vec![
            ("format".to_owned(), Json::str("holes.campaign/v1")),
            ("seed".to_owned(), Json::from_u64(u64::MAX)),
            ("delta".to_owned(), Json::from_i64(-42)),
            ("ok".to_owned(), Json::Bool(true)),
            ("none".to_owned(), Json::Null),
            (
                "records".to_owned(),
                Json::Arr(vec![
                    Json::from_usize(7),
                    Json::str("quote \" backslash \\ newline \n tab \t"),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        for rendered in [value.to_pretty(), value.to_compact()] {
            assert_eq!(Json::parse(&rendered).unwrap(), value, "{rendered}");
        }
        // u64::MAX survives exactly (would be lossy through f64).
        let reparsed = Json::parse(&value.to_pretty()).unwrap();
        assert_eq!(reparsed.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(reparsed.get("delta").unwrap().as_i64(), Some(-42));
    }

    #[test]
    fn writer_is_deterministic_and_order_preserving() {
        let a = Json::Obj(vec![
            ("z".to_owned(), Json::from_u64(1)),
            ("a".to_owned(), Json::from_u64(2)),
        ]);
        assert_eq!(a.to_pretty(), a.clone().to_pretty());
        let text = a.to_compact();
        assert!(
            text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap(),
            "insertion order must be preserved: {text}"
        );
    }

    #[test]
    fn accessors_select_the_expected_payloads() {
        let value = Json::parse(r#"{"n": 3, "s": "x", "b": false, "a": [1], "f": 1.5}"#).unwrap();
        assert_eq!(value.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(value.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(value.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(value.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(value.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(value.get("f").unwrap().as_u64(), None, "1.5 is not a u64");
        assert_eq!(value.get("missing"), None);
        assert_eq!(value.as_obj().unwrap().len(), 5);
        assert_eq!(value.get("n").unwrap().as_str(), None);
        assert_eq!(value.get("s").unwrap().as_u64(), None);
    }

    #[test]
    fn parser_handles_escapes_and_surrogate_pairs() {
        let parsed = Json::parse(r#""a\/b A 😀 é""#).unwrap();
        assert_eq!(parsed.as_str(), Some("a/b A \u{1F600} é"));
        // The writer escapes control characters, and they re-parse.
        let value = Json::str("bell\u{7}");
        assert!(value.to_compact().contains("\\u0007"));
        assert_eq!(Json::parse(&value.to_compact()).unwrap(), value);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "01x",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"lone \\uD800 surrogate\"",
            "nul",
            "true false",
            "[1] []",
            "-",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?}");
        }
    }

    /// The `\u` escape is exactly four hex digits, and a high surrogate
    /// must be completed by a `\u`-escaped low surrogate — every way of
    /// falling short (signs smuggled into the hex field, the string or the
    /// document ending mid-escape, a high surrogate followed by anything
    /// else) is a parse error, not a silently accepted code unit.
    #[test]
    fn parser_rejects_malformed_unicode_escapes() {
        for bad in [
            // `u32::from_str_radix` accepts `+123`; the escape must not.
            r#""\u+123""#,
            r#""\u-123""#,
            r#""\u12g4""#,
            // EOF mid-escape: in the hex field and between the digits.
            r#""\u"#,
            r#""\u12"#,
            r#""\uD800\u"#,
            // A lone high surrogate at the end of the string.
            r#""\uD800""#,
            // A high surrogate completed by a non-`\u` escape…
            r#""\uD800\n""#,
            // …by a plain character…
            r#""\uD800x""#,
            // …or by a `\u` escape that is not a low surrogate.
            r#""\uD800\u0041""#,
            // An unpaired low surrogate is no better.
            r#""\uDC00""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // The boundary cases around the surrogate range still parse.
        assert_eq!(
            Json::parse(r#""\uD7FF\uE000""#).unwrap().as_str(),
            Some("\u{D7FF}\u{E000}")
        );
        assert_eq!(
            Json::parse(r#""\uD800\uDC00""#).unwrap().as_str(),
            Some("\u{10000}")
        );
    }

    #[test]
    fn writer_spells_exactly_what_to_compact_spells() {
        let tricky = "q\" b\\ nl\n cr\r tab\t bell\u{7} del\u{7f} é 😀";
        let tree = Json::Obj(vec![
            ("max".to_owned(), Json::from_u64(u64::MAX)),
            ("min".to_owned(), Json::from_i64(i64::MIN)),
            (
                "small".to_owned(),
                Json::Arr(vec![
                    Json::from_i64(0),
                    Json::from_i64(-1),
                    Json::from_u64(10),
                ]),
            ),
            (tricky.to_owned(), Json::str(tricky)),
            ("none".to_owned(), Json::Null),
            (
                "flags".to_owned(),
                Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
            ),
            (
                "empty".to_owned(),
                Json::Arr(vec![Json::Obj(vec![]), Json::Arr(vec![])]),
            ),
        ]);
        let mut text = String::new();
        let mut w = JsonWriter::new(&mut text);
        w.begin_obj();
        w.key("max");
        w.u64(u64::MAX);
        w.key("min");
        w.i64(i64::MIN);
        w.key("small");
        w.begin_arr();
        w.i64(0);
        w.i64(-1);
        w.u64(10);
        w.end_arr();
        w.key(tricky);
        w.str(tricky);
        w.key("none");
        w.null();
        w.key("flags");
        w.begin_arr();
        w.bool(true);
        w.bool(false);
        w.end_arr();
        w.key("empty");
        w.begin_arr();
        w.begin_obj();
        w.end_obj();
        w.begin_arr();
        w.end_arr();
        w.end_arr();
        w.end_obj();
        assert_eq!(text, tree.to_compact());
        assert_eq!(Json::parse(&text).unwrap(), tree);
        // Spliced raw text lands verbatim as one value.
        let mut spliced = String::new();
        let mut w = JsonWriter::new(&mut spliced);
        w.begin_arr();
        w.raw(&text);
        w.u64(1);
        w.end_arr();
        assert_eq!(spliced, format!("[{text},1]"));
    }

    #[test]
    fn member_spans_cover_each_top_level_value_exactly() {
        let text = r#" {"a" : [1, {"b": 2}], "c":"x\"y" ,"a":null} "#;
        let (value, spans) = Json::parse_with_spans(text).unwrap();
        assert_eq!(value, Json::parse(text).unwrap());
        let members = value.as_obj().unwrap();
        assert_eq!(spans.len(), members.len(), "nested members are not spanned");
        for ((_, member), span) in members.iter().zip(&spans) {
            assert_eq!(&Json::parse(&text[span.clone()]).unwrap(), member);
        }
        assert_eq!(&text[spans[0].clone()], r#"[1, {"b": 2}]"#);
        assert_eq!(&text[spans[1].clone()], r#""x\"y""#);
        assert!(Json::parse_with_spans("[1, 2]").unwrap().1.is_empty());
        assert!(Json::parse_with_spans(r#"{"a": 1"#).is_err());
    }

    #[test]
    fn parser_enforces_the_depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }
}
