//! Minimal JSON reader/writer for the wire protocol — the build environment
//! is offline (no serde), and the protocol only needs objects, arrays,
//! numbers, strings, and booleans. Object insertion order is preserved so
//! responses serialize deterministically.

use std::fmt::Write as _;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the protocol never needs more than f64 precision).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number in u64 range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line serialization (the wire format: one value per
    /// line).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Multi-line serialization for report files: two-space indentation,
    /// one object field or nested value per line, arrays of scalars kept on
    /// one line, and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let nested = |v: &Json| matches!(v, Json::Arr(_) | Json::Obj(_));
        match self {
            Json::Arr(items) if items.iter().any(nested) => {
                write_block(out, depth, ('[', ']'), items.iter().map(|v| (None, v)));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                let entries = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_block(out, depth, ('{', '}'), entries);
            }
            scalar => scalar.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// One pretty container: each entry (with its key, for objects) sits on its
/// own line one level deeper than `depth`, and the closing bracket returns
/// to `depth`.
fn write_block<'a>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    for (i, (key, value)) in entries.enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            write_str(key, out);
            out.push_str(": ");
        }
        value.write_pretty(out, depth + 1);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// Build an object literal from key/value pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Integer convenience constructor.
pub fn num_u(x: u64) -> Json {
    Json::Num(x as f64)
}

fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; the protocol reads null as "undefined"
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Deepest container nesting [`parse`] accepts. Each level is one frame of
/// the recursive descent, and the daemon parses every client line on a
/// connection thread with a default-sized stack; the deepest document the
/// workspace writes nests 5 levels.
const MAX_DEPTH: usize = 128;

/// Parse one JSON value from `text`, rejecting trailing garbage and
/// nesting deeper than 128 levels.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        Ok(x) if is_json_number(text) => Ok(Json::Num(x)),
        _ => Err(format!("invalid number {text:?} at byte {start}")),
    }
}

/// JSON's number grammar, for text `f64::from_str` already accepts: no
/// leading `+`, no leading zero, and digits on both sides of a `.`.
fn is_json_number(text: &str) -> bool {
    let unsigned = text.strip_prefix('-').unwrap_or(text);
    let mantissa = unsigned.split(['e', 'E']).next().unwrap_or_default();
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
    let int_ok = int == "0" || int.starts_with(|c: char| matches!(c, '1'..='9'));
    !text.starts_with('+') && int_ok && !frac.is_empty()
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("\\u escape needs four hex digits")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(0..=0x1f) => return Err("unescaped control character in string".into()),
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // character at once. All are ASCII, so the run of the UTF-8
                // input ends on a char boundary.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\' | 0..=0x1f) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_request() {
        let line = r#"{"op":"add_edges","edges":[[0,1,2],[3,4,1]],"note":"a\"b"}"#;
        let parsed = parse(line).unwrap();
        assert_eq!(parsed.get("op").and_then(Json::as_str), Some("add_edges"));
        let edges = parsed.get("edges").and_then(Json::as_arr).unwrap();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].as_arr().unwrap()[2].as_u64(), Some(2));
        assert_eq!(parse(&parsed.to_line()).unwrap(), parsed);
    }

    #[test]
    fn parses_nesting_escapes_and_exponents() {
        let doc = r#"{"a": [1, -2.5e3, "x\ny\"z"], "b": {"c": true, "d": null}}"#;
        let v = parse(doc).unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_str(), Some("x\ny\"z"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("").is_err());
        for number in ["+1", "01", "-01", ".5", "1.", "1e", "1e+", "-"] {
            assert!(parse(number).is_err(), "{number}");
        }
        assert!(parse("\"\\u+123\"").is_err());
        assert!(parse("\"tab\there\"").is_err());
        assert_eq!(parse("-0.5E+2").unwrap(), Json::Num(-50.0));
    }

    #[test]
    fn megabyte_string_roundtrips() {
        let text: String = "ab\"c\\dé\n€".chars().cycle().take(1 << 20).collect();
        let line = Json::Str(text.clone()).to_line();
        assert_eq!(parse(&line).unwrap().as_str(), Some(text.as_str()));
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn pretty_layout_parses_back() {
        let doc = obj(vec![
            ("n", num_u(4)),
            ("xs", Json::Arr(vec![num_u(1), Json::Num(0.5)])),
            ("empty", Json::Arr(vec![])),
            (
                "rows",
                Json::Arr(vec![obj(vec![("s", Json::Str("q\"".into()))])]),
            ),
            ("none", obj(vec![])),
        ]);
        let text = doc.to_pretty();
        assert_eq!(
            text,
            "{\n  \"n\": 4,\n  \"xs\": [1, 0.5],\n  \"empty\": [],\n  \"rows\": [\n    {\n      \
             \"s\": \"q\\\"\"\n    }\n  ],\n  \"none\": {}\n}\n"
        );
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_serialize_without_exponent() {
        assert_eq!(num_u(1_000_000).to_line(), "1000000");
        assert_eq!(Json::Num(0.5).to_line(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    }
}
