//! A minimal, hardened JSON reader for the HTTP surface (responses are
//! written with `obs::json_escape`).
//!
//! Hand-rolled (the crate is zero-dep) and defensive: bounded nesting
//! depth, typed errors, no recursion on attacker-controlled depth beyond
//! the cap, no panics. Only what `POST /spec` needs — objects, arrays,
//! strings with the standard escapes, integers, floats, booleans, null.

use std::fmt;

/// Maximum nesting depth accepted from the network.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number that parsed as an integer.
    Int(i64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A typed JSON parse failure (byte offset + description).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// A [`JsonError`] naming the offset and cause; depth beyond 64 levels is
/// rejected.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    let mut at = 0;
    let v = parse_value(src, bytes, &mut at, 0)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(JsonError {
            at,
            what: "trailing characters after document",
        });
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while let Some(b) = bytes.get(*at) {
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => *at += 1,
            _ => break,
        }
    }
}

fn parse_value(src: &str, bytes: &[u8], at: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError {
            at: *at,
            what: "nesting too deep",
        });
    }
    skip_ws(bytes, at);
    match bytes.get(*at) {
        None => Err(JsonError {
            at: *at,
            what: "unexpected end of input",
        }),
        Some(b'{') => {
            *at += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, at);
                let key = match parse_value(src, bytes, at, depth + 1)? {
                    Json::Str(s) => s,
                    _ => {
                        return Err(JsonError {
                            at: *at,
                            what: "object key must be a string",
                        })
                    }
                };
                skip_ws(bytes, at);
                if bytes.get(*at) != Some(&b':') {
                    return Err(JsonError {
                        at: *at,
                        what: "expected `:`",
                    });
                }
                *at += 1;
                let value = parse_value(src, bytes, at, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *at,
                            what: "expected `,` or `}`",
                        })
                    }
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(src, bytes, at, depth + 1)?);
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *at,
                            what: "expected `,` or `]`",
                        })
                    }
                }
            }
        }
        Some(b'"') => parse_string(src, bytes, at).map(Json::Str),
        Some(b't') => parse_lit(bytes, at, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, at, b"false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, at, b"null", Json::Null),
        Some(_) => parse_number(src, bytes, at),
    }
}

fn parse_lit(bytes: &[u8], at: &mut usize, lit: &[u8], v: Json) -> Result<Json, JsonError> {
    let end = at.checked_add(lit.len()).unwrap_or(usize::MAX);
    if bytes.get(*at..end) == Some(lit) {
        *at = end;
        Ok(v)
    } else {
        Err(JsonError {
            at: *at,
            what: "unexpected token",
        })
    }
}

fn parse_string(src: &str, bytes: &[u8], at: &mut usize) -> Result<String, JsonError> {
    // Caller checked bytes[*at] == b'"'.
    *at += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*at) {
            None => {
                return Err(JsonError {
                    at: *at,
                    what: "unterminated string",
                })
            }
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                match bytes.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes.get(*at + 1..*at + 5).ok_or(JsonError {
                            at: *at,
                            what: "truncated \\u escape",
                        })?;
                        let s = std::str::from_utf8(hex).map_err(|_| JsonError {
                            at: *at,
                            what: "bad \\u escape",
                        })?;
                        let cp = u32::from_str_radix(s, 16).map_err(|_| JsonError {
                            at: *at,
                            what: "bad \\u escape",
                        })?;
                        // Surrogates degrade to the replacement character;
                        // pairing them is more than this surface needs.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *at += 4;
                    }
                    _ => {
                        return Err(JsonError {
                            at: *at,
                            what: "unknown escape",
                        })
                    }
                }
                *at += 1;
            }
            Some(b) if *b < 0x20 => {
                return Err(JsonError {
                    at: *at,
                    what: "control character in string",
                })
            }
            Some(_) => {
                // Consume one UTF-8 scalar (src is valid UTF-8 by
                // construction: it arrived as &str).
                let rest = &src[*at..];
                match rest.chars().next() {
                    Some(c) => {
                        out.push(c);
                        *at += c.len_utf8();
                    }
                    None => {
                        return Err(JsonError {
                            at: *at,
                            what: "unterminated string",
                        })
                    }
                }
            }
        }
    }
}

fn parse_number(src: &str, bytes: &[u8], at: &mut usize) -> Result<Json, JsonError> {
    let start = *at;
    if bytes.get(*at) == Some(&b'-') {
        *at += 1;
    }
    let mut fractional = false;
    while let Some(b) = bytes.get(*at) {
        match b {
            b'0'..=b'9' => *at += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *at += 1;
            }
            _ => break,
        }
    }
    let text = src.get(start..*at).unwrap_or("");
    if text.is_empty() || text == "-" {
        return Err(JsonError {
            at: start,
            what: "expected a value",
        });
    }
    if !fractional {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Int(n));
        }
    }
    match text.parse::<f64>() {
        Ok(f) => Ok(Json::Float(f)),
        Err(_) => Err(JsonError {
            at: start,
            what: "malformed number",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_spec_request_shape() {
        let v =
            parse(r#"{"name":"pow","statics":["5","(a b)"],"deadline_ms":250}"#).expect("parse");
        assert_eq!(v.get("name").and_then(Json::as_str), Some("pow"));
        assert_eq!(v.get("deadline_ms").and_then(Json::as_int), Some(250));
        let statics = v.get("statics").and_then(Json::as_arr).expect("arr");
        assert_eq!(statics.len(), 2);
        assert_eq!(statics[1].as_str(), Some("(a b)"));
    }

    #[test]
    fn parses_scalars_and_escapes() {
        assert_eq!(parse("null").expect("null"), Json::Null);
        assert_eq!(parse(" true ").expect("true"), Json::Bool(true));
        assert_eq!(parse("-42").expect("int"), Json::Int(-42));
        assert_eq!(parse("1.5").expect("float"), Json::Float(1.5));
        assert_eq!(
            parse(r#""a\"b\n\u0041""#).expect("str"),
            Json::Str("a\"b\nA".into())
        );
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "01x",
            "-",
            "{\"a\":1,}",
            "[1 2]",
            "\"\\q\"",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let mut deep = String::new();
        for _ in 0..200 {
            deep.push('[');
        }
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let s = "weird \"quotes\"\nand\tcontrol\u{1}";
        let parsed = parse(&two4one::obs::json_escape(s)).expect("parse escaped");
        assert_eq!(parsed, Json::Str(s.into()));
    }
}
