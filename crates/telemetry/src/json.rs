//! A minimal JSON well-formedness checker and value parser.
//!
//! The workspace has no serde; telemetry JSON is hand-written in
//! `report`. This module is the other half of that contract:
//!
//! * [`validate_json`] — syntax-only checker; tests and the CI smoke job
//!   assert every exported line is valid JSON without a value tree.
//! * [`parse_json`] / [`JsonValue`] — a small value-building parser for
//!   consumers that must *read* JSON, most notably the `dt-serve`
//!   request path, which decodes untrusted HTTP bodies and needs a
//!   typed error (not a panic) for every malformed input.
//!
//! Numbers are parsed as `f64` (like JavaScript); object keys keep their
//! textual order so hand-written JSON round-trips recognizably.

/// Where and why validation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// What the validator expected.
    pub expected: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: expected {}",
            self.at, self.expected
        )
    }
}

impl std::error::Error for JsonError {}

/// Write `v` as a JSON number: the bytes of Rust's `{:e}` (shortest
/// digits that round-trip, exact ties rounded up), produced on the
/// stack. JSON has no NaN/Infinity; they become 0.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(crate::ryu::format_exp(v, &mut [0; 32]));
    } else {
        out.push('0');
    }
}

/// Write `s` as a JSON string literal with escaping.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON value.
///
/// Object members keep their textual order (no map semantics); duplicate
/// keys are preserved as-is and [`JsonValue::get`] returns the first.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// `[ ... ]`.
    Array(Vec<JsonValue>),
    /// `{ ... }`, members in textual order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member of an object by key (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse `text` as exactly one JSON value (object, array, string,
/// number, or literal) with nothing but whitespace after.
///
/// # Errors
/// A [`JsonError`] locating the first offending byte.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let v = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            at: pos,
            expected: "end of input",
        });
    }
    Ok(v)
}

/// Check that `text` is exactly one well-formed JSON value (object,
/// array, string, number, or literal) with nothing but whitespace after.
pub fn validate_json(text: &str) -> Result<(), JsonError> {
    parse_json(text).map(|_| ())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    match bytes.get(*pos) {
        Some(b'{') => object(bytes, pos),
        Some(b'[') => array(bytes, pos),
        Some(b'"') => string(bytes, pos).map(JsonValue::String),
        Some(b'-' | b'0'..=b'9') => number(bytes, pos).map(JsonValue::Number),
        Some(b't') => literal(bytes, pos, b"true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => literal(bytes, pos, b"false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => literal(bytes, pos, b"null").map(|()| JsonValue::Null),
        _ => Err(JsonError {
            at: *pos,
            expected: "a JSON value",
        }),
    }
}

fn object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    let mut members = Vec::new();
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError {
                at: *pos,
                expected: "':' after object key",
            });
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let val = value(bytes, pos)?;
        members.push((key, val));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    expected: "',' or '}' in object",
                })
            }
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // '['
    skip_ws(bytes, pos);
    let mut elems = Vec::new();
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(elems));
    }
    loop {
        skip_ws(bytes, pos);
        elems.push(value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(elems));
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    expected: "',' or ']' in array",
                })
            }
        }
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError {
            at: *pos,
            expected: "'\"' to open a string",
        });
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => {
                        out.push('"');
                        *pos += 1;
                    }
                    Some(b'\\') => {
                        out.push('\\');
                        *pos += 1;
                    }
                    Some(b'/') => {
                        out.push('/');
                        *pos += 1;
                    }
                    Some(b'b') => {
                        out.push('\u{0008}');
                        *pos += 1;
                    }
                    Some(b'f') => {
                        out.push('\u{000c}');
                        *pos += 1;
                    }
                    Some(b'n') => {
                        out.push('\n');
                        *pos += 1;
                    }
                    Some(b'r') => {
                        out.push('\r');
                        *pos += 1;
                    }
                    Some(b't') => {
                        out.push('\t');
                        *pos += 1;
                    }
                    Some(b'u') => {
                        *pos += 1;
                        let hi = hex4(bytes, pos)?;
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            // High surrogate: require a \uXXXX low half.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let lo = hex4(bytes, pos)?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(JsonError {
                                        at: *pos,
                                        expected: "a low surrogate after a high surrogate",
                                    });
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(hi)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => {
                                return Err(JsonError {
                                    at: *pos,
                                    expected: "a valid unicode escape",
                                })
                            }
                        }
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            expected: "a valid escape character",
                        })
                    }
                }
            }
            0x00..=0x1f => {
                return Err(JsonError {
                    at: *pos,
                    expected: "no raw control characters in string",
                })
            }
            _ => {
                // Copy the whole run of plain characters in one step.
                // It ends at the next quote, backslash or control byte
                // — all ASCII, so on a character boundary of the &str
                // this came from.
                let rest = &bytes[*pos..];
                let end = rest
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\' | 0x00..=0x1f))
                    .unwrap_or(rest.len());
                let run = std::str::from_utf8(&rest[..end]).map_err(|_| JsonError {
                    at: *pos,
                    expected: "valid UTF-8",
                })?;
                out.push_str(run);
                *pos += run.len();
            }
        }
    }
    Err(JsonError {
        at: *pos,
        expected: "'\"' to close a string",
    })
}

fn hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let mut v = 0u32;
    for _ in 0..4 {
        match bytes.get(*pos) {
            Some(h) if h.is_ascii_hexdigit() => {
                v = v * 16 + (*h as char).to_digit(16).expect("hex digit");
                *pos += 1;
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    expected: "4 hex digits after \\u",
                })
            }
        }
    }
    Ok(v)
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = digits(bytes, pos);
    if int_digits == 0 {
        return Err(JsonError {
            at: *pos,
            expected: "a digit",
        });
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(bytes, pos) == 0 {
            return Err(JsonError {
                at: *pos,
                expected: "a digit after '.'",
            });
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(bytes, pos) == 0 {
            return Err(JsonError {
                at: *pos,
                expected: "a digit in exponent",
            });
        }
    }
    // Reject leading zeros like 01 (but allow 0, 0.5, -0).
    let mut digs = &bytes[start..*pos];
    if digs.first() == Some(&b'-') {
        digs = &digs[1..];
    }
    if digs.len() > 1 && digs[0] == b'0' && digs[1].is_ascii_digit() {
        return Err(JsonError {
            at: start,
            expected: "no leading zeros",
        });
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number syntax");
    text.parse().map_err(|_| JsonError {
        at: start,
        expected: "a representable number",
    })
}

fn digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

fn literal(bytes: &[u8], pos: &mut usize, word: &'static [u8]) -> Result<(), JsonError> {
    if bytes.len() >= *pos + word.len() && &bytes[*pos..*pos + word.len()] == word {
        *pos += word.len();
        Ok(())
    } else {
        Err(JsonError {
            at: *pos,
            expected: "a JSON literal (true/false/null)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e-3",
            "1e9",
            r#""hi \n é""#,
            r#"{"a":[1,2,{"b":null}],"c":"x"}"#,
            "  { \"k\" : [ 1 , 2 ] }  ",
        ] {
            validate_json(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1 2]",
            "01",
            "1.",
            "+1",
            "nul",
            "\"unterminated",
            "\"bad \\x escape\"",
            "{} extra",
            "{1: 2}",
        ] {
            assert!(validate_json(doc).is_err(), "{doc:?} should be rejected");
        }
    }

    #[test]
    fn errors_carry_position() {
        let err = validate_json("[1, ]").unwrap_err();
        assert_eq!(err.at, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn parser_builds_the_value_tree() {
        let v = parse_json(r#"{"a":[1,2.5,{"b":null}],"c":"x","d":true}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(JsonValue::as_bool), Some(true));
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[2].get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_decodes_escapes_and_unicode() {
        let v = parse_json(r#""a\n\t\"\\\/ é 😀 é""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\/ é 😀 é"));
        // Lone high surrogate must be rejected.
        assert!(parse_json(r#""\ud83d""#).is_err());
        assert!(parse_json(r#""\ud83dA""#).is_err());
    }

    /// The string scanner as it was before it copied runs whole: one
    /// scalar per step. Kept as the reference the run-copying scanner
    /// must agree with, values and error offsets alike.
    fn reference_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
        let bytes = text.as_bytes();
        let err = |at: usize, expected: &'static str| Err(JsonError { at, expected });
        if bytes.get(*pos) != Some(&b'"') {
            return err(*pos, "'\"' to open a string");
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&b) = bytes.get(*pos) {
            match b {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    let simple = match bytes.get(*pos) {
                        Some(b'"') => Some('"'),
                        Some(b'\\') => Some('\\'),
                        Some(b'/') => Some('/'),
                        Some(b'b') => Some('\u{0008}'),
                        Some(b'f') => Some('\u{000c}'),
                        Some(b'n') => Some('\n'),
                        Some(b'r') => Some('\r'),
                        Some(b't') => Some('\t'),
                        Some(b'u') => None,
                        _ => return err(*pos, "a valid escape character"),
                    };
                    *pos += 1;
                    if let Some(c) = simple {
                        out.push(c);
                        continue;
                    }
                    let hi = hex4(bytes, pos)?;
                    let c = if !(0xd800..0xdc00).contains(&hi) {
                        char::from_u32(hi)
                    } else if bytes[*pos..].starts_with(b"\\u") {
                        *pos += 2;
                        let lo = hex4(bytes, pos)?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return err(*pos, "a low surrogate after a high surrogate");
                        }
                        char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))
                    } else {
                        None
                    };
                    match c {
                        Some(c) => out.push(c),
                        None => return err(*pos, "a valid unicode escape"),
                    }
                }
                0x00..=0x1f => return err(*pos, "no raw control characters in string"),
                _ => {
                    let c = text[*pos..].chars().next().expect("loop guard");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
        err(*pos, "'\"' to close a string")
    }

    #[test]
    fn run_copying_scanner_agrees_with_the_char_by_char_reference() {
        // Pieces of string-literal source: plain runs, 2/3/4-byte
        // scalars, every escape, \u in the BMP, surrogate pairs, and
        // the malformed kinds (bad escape, short \u, lone or mispaired
        // surrogates).
        let pieces: Vec<&str> = r#"a plain-run é ß € 😀 𝄞 \" \\ \/ \b \f \n \r \t \u00e9 \u20AC
            \ud83d\ude00 \uD834\uDD1E \x \u12 \ud83d \ud83dA \ud83d\u0041 \ude00"#
            .split_whitespace()
            .collect();
        let agree = |text: &str| {
            let (mut new_pos, mut ref_pos) = (0, 0);
            let new = string(text.as_bytes(), &mut new_pos);
            let reference = reference_string(text, &mut ref_pos);
            assert_eq!(new, reference, "{text:?}");
            if new.is_ok() {
                assert_eq!(new_pos, ref_pos, "{text:?}");
            }
        };
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2000 {
            let mut literal = String::from("\"");
            for _ in 0..1 + state % 7 {
                // xorshift64: any spread over the pieces will do.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                literal.push_str(pieces[(state % pieces.len() as u64) as usize]);
            }
            literal.push_str("\" tail");
            agree(&literal);
            // A raw control byte before every character, and the
            // literal cut short at every character.
            for (at, _) in literal.char_indices() {
                agree(&format!("{}\u{1}{}", &literal[..at], &literal[at..]));
                agree(&literal[..at]);
            }
        }
    }

    #[test]
    fn parsed_numbers_round_trip_f64_display() {
        // Rust's f64 Display prints the shortest round-trippable form, so
        // a value written with `{}` must parse back bit-identically —
        // the property dt-serve's cached-vs-direct equality rests on.
        for x in [0.1, 1.0 / 3.0, 1e-300, -2.5e17, f64::MIN_POSITIVE] {
            let v = parse_json(&format!("{x}")).unwrap();
            assert_eq!(v.as_f64().map(f64::to_bits), Some(x.to_bits()));
        }
    }
}
