//! Line-oriented text formats: a `<magic> v<N>` header, then named lines
//! (or unnamed rows) of whitespace-separated tokens.

use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

/// Why a text document failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextError {
    /// The first line is not `<magic> v<N>`.
    BadHeader,
    /// The header names a version the decoder does not accept.
    UnsupportedVersion(u32),
    /// The document ended where another line was required.
    Truncated,
    /// A line or token is missing, misnamed or unparseable.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Which line or field.
        what: &'static str,
    },
}

impl Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextError::BadHeader => write!(f, "bad header"),
            TextError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            TextError::Truncated => write!(f, "truncated"),
            TextError::Malformed { line, what } => write!(f, "line {line}: bad {what}"),
        }
    }
}

impl std::error::Error for TextError {}

/// A `u64` displayed as the 16 lowercase hex digits every format uses
/// for `f64` bits and digests.
pub struct Hex64(pub u64);

impl Display for Hex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Builds a text document line by line.
#[derive(Debug, Default)]
pub struct Writer(String);

impl Writer {
    /// Start a document with its `<magic> v<version>` header line.
    pub fn new(magic: &str, version: u32) -> Writer {
        let mut w = Writer::default();
        w.line(magic).dec(format_args!("v{version}"));
        w
    }

    /// Start a line named `name`; its newline is written when the
    /// returned [`Line`] goes out of scope.
    pub fn line(&mut self, name: &str) -> Line<'_> {
        self.0.push_str(name);
        Line(&mut self.0, true)
    }

    /// Start an unnamed row of tokens.
    pub fn row(&mut self) -> Line<'_> {
        Line(&mut self.0, false)
    }

    /// Append an already encoded document (an embedded format).
    pub fn embed(&mut self, text: &str) {
        self.0.push_str(text);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.0
    }
}

/// One line under construction: the text so far, and whether the next
/// token needs a separating space.
pub struct Line<'a>(&'a mut String, bool);

impl Line<'_> {
    fn sep(&mut self) {
        if self.1 {
            self.0.push(' ');
        }
        self.1 = true;
    }

    /// A decimal (or any `Display`) token.
    pub fn dec(mut self, v: impl Display) -> Self {
        self.sep();
        write!(self.0, "{v}").expect("string write");
        self
    }

    /// A `u64` as 16 hex digits.
    pub fn hex_u64(self, v: u64) -> Self {
        self.dec(Hex64(v))
    }

    /// An `f64` as the 16 hex digits of its bits.
    pub fn hex_f64(self, v: f64) -> Self {
        self.hex_u64(v.to_bits())
    }

    /// A `u128` as 32 hex digits.
    pub fn hex_u128(self, v: u128) -> Self {
        self.dec(format_args!("{v:032x}"))
    }

    /// A bool as `0` or `1`.
    pub fn flag(self, v: bool) -> Self {
        self.dec(u8::from(v))
    }

    /// A mask as one token of `0`/`1` characters.
    pub fn mask(mut self, mask: &[bool]) -> Self {
        self.sep();
        self.0
            .extend(mask.iter().map(|&b| char::from(b'0' + u8::from(b))));
        self
    }

    /// One decimal token per item. An empty list still writes the
    /// separator: `name ` with nothing after it is how the formats spell
    /// an empty list.
    pub fn decs<T: Display>(mut self, items: impl IntoIterator<Item = T>) -> Self {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            self.sep();
        }
        items.fold(self, Line::dec)
    }

    /// One 16-hex-digit token per `f64`.
    pub fn hex_f64s(self, values: &[f64]) -> Self {
        self.decs(values.iter().map(|v| Hex64(v.to_bits())))
    }
}

impl Drop for Line<'_> {
    fn drop(&mut self) {
        self.0.push('\n');
    }
}

/// The body of `line` when it is the line named `name`.
fn body<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    line.strip_prefix(name)
        .filter(|b| b.is_empty() || b.starts_with(' '))
}

/// A cursor over a text document: line by line, token by token. Token
/// readers fail with [`TextError::Malformed`] naming their `what`.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    /// Text after the current line.
    rest: &'a str,
    /// Unread part of the current line.
    cur: &'a str,
    line_no: usize,
    version: u32,
}

impl<'a> Reader<'a> {
    /// Open a document whose header must be `<magic> v<N>` with `N` one
    /// of `accepted`.
    pub fn new(text: &'a str, magic: &str, accepted: &[u32]) -> Result<Reader<'a>, TextError> {
        let mut r = Reader {
            rest: text,
            cur: "",
            line_no: 0,
            version: 0,
        };
        let version = r
            .advance()
            .ok()
            .and_then(|line| body(line, magic)?.strip_prefix(" v")?.parse().ok())
            .ok_or(TextError::BadHeader)?;
        if !accepted.contains(&version) {
            return Err(TextError::UnsupportedVersion(version));
        }
        r.version = version;
        Ok(r)
    }

    /// The version the header named.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Whether every line has been read.
    pub fn at_end(&self) -> bool {
        self.rest.is_empty()
    }

    /// A [`TextError::Malformed`] at the current line, for a decoder's
    /// own checks on what it read.
    pub fn malformed(&self, what: &'static str) -> TextError {
        TextError::Malformed {
            line: self.line_no,
            what,
        }
    }

    /// Move to the next line. Tokens left unread on the line moved past
    /// are an error: what a decoder did not ask for is not skipped.
    fn advance(&mut self) -> Result<&'a str, TextError> {
        if !self.cur.trim().is_empty() {
            return Err(self.malformed("trailing token"));
        }
        if self.rest.is_empty() {
            return Err(TextError::Truncated);
        }
        let (line, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
        self.rest = rest;
        self.line_no += 1;
        Ok(line.strip_suffix('\r').unwrap_or(line))
    }

    /// Move to the next line, which must be named `name`
    /// ([`TextError::Truncated`] when the document has ended).
    pub fn line(&mut self, name: &'static str) -> Result<&mut Self, TextError> {
        let line = self.advance()?;
        self.cur = body(line, name).ok_or_else(|| self.malformed(name))?;
        Ok(self)
    }

    /// Move to the next line only if it is named `name` — a line older
    /// file versions lack.
    pub fn try_line(&mut self, name: &'static str) -> Result<bool, TextError> {
        let next = self.rest.lines().next();
        let named = next.is_some_and(|l| body(l, name).is_some());
        if named {
            self.line(name)?;
        }
        Ok(named)
    }

    /// Move to the next line, read as an unnamed row of tokens.
    pub fn row(&mut self) -> Result<&mut Self, TextError> {
        self.cur = self.advance()?;
        Ok(self)
    }

    /// Everything after the current line (an embedded document).
    pub fn rest(&self) -> &'a str {
        self.rest
    }

    /// The next token of the current line, not consumed.
    pub fn peek(&self) -> Option<&'a str> {
        self.cur.split_whitespace().next()
    }

    /// The unread remainder of the current line, trimmed.
    pub fn rest_of_line(&mut self) -> &'a str {
        std::mem::take(&mut self.cur).trim()
    }

    /// The next token of the current line.
    pub fn token(&mut self, what: &'static str) -> Result<&'a str, TextError> {
        let s = self.cur.trim_start();
        if s.is_empty() {
            return Err(self.malformed(what));
        }
        let (tok, rest) = s.split_at(s.find(char::is_whitespace).unwrap_or(s.len()));
        self.cur = rest;
        Ok(tok)
    }

    /// A decimal token.
    pub fn dec<T: FromStr>(&mut self, what: &'static str) -> Result<T, TextError> {
        let tok = self.token(what)?;
        tok.parse().map_err(|_| self.malformed(what))
    }

    /// `N` decimal tokens.
    pub fn decs<T: FromStr + Copy + Default, const N: usize>(
        &mut self,
        what: &'static str,
    ) -> Result<[T; N], TextError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = self.dec(what)?;
        }
        Ok(out)
    }

    /// Exactly `digits` hex digits — never fewer, so a value cut short
    /// by truncation cannot pass for a smaller one.
    fn hex(&mut self, digits: usize, what: &'static str) -> Result<u128, TextError> {
        let tok = self.token(what)?;
        if tok.len() != digits || !tok.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.malformed(what));
        }
        u128::from_str_radix(tok, 16).map_err(|_| self.malformed(what))
    }

    /// A `u64` written as 16 hex digits.
    pub fn hex_u64(&mut self, what: &'static str) -> Result<u64, TextError> {
        Ok(self.hex(16, what)? as u64)
    }

    /// An `f64` written as the 16 hex digits of its bits.
    pub fn hex_f64(&mut self, what: &'static str) -> Result<f64, TextError> {
        self.hex_u64(what).map(f64::from_bits)
    }

    /// A `u128` written as 32 hex digits.
    pub fn hex_u128(&mut self, what: &'static str) -> Result<u128, TextError> {
        self.hex(32, what)
    }

    /// A bool written as `0` or `1`; anything else is an error.
    pub fn flag(&mut self, what: &'static str) -> Result<bool, TextError> {
        match self.token(what)? {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.malformed(what)),
        }
    }

    /// The rest of the line as a mask of `0`/`1` characters; any other
    /// character is an error, an empty rest the empty mask.
    pub fn mask(&mut self, what: &'static str) -> Result<Vec<bool>, TextError> {
        let bits = self.rest_of_line().bytes().map(|b| match b {
            b'0' => Ok(false),
            b'1' => Ok(true),
            _ => Err(self.malformed(what)),
        });
        bits.collect()
    }

    /// Every remaining token of the line, each read by `one` (a token
    /// reader such as [`Reader::dec`] or [`Reader::hex_f64`]).
    pub fn rest_with<T>(
        &mut self,
        what: &'static str,
        one: fn(&mut Self, &'static str) -> Result<T, TextError>,
    ) -> Result<Vec<T>, TextError> {
        let mut out = Vec::new();
        while !self.cur.trim_start().is_empty() {
            out.push(one(self, what)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut w = Writer::new("dtx", 2);
        w.line("grid").hex_f64(-1.5).hex_u64(7).dec(3);
        w.line("pos").hex_u128(0xDEAD_BEEF);
        w.line("mask").mask(&[true, false, true]).flag(true);
        w.line("vals").hex_f64s(&[0.25, -0.0]);
        w.line("none").decs(Vec::<u8>::new());
        w.row().dec("swap").dec(10).dec(4);
        w.line("end");
        w.finish()
    }

    #[test]
    fn writer_layout_is_exact() {
        assert_eq!(
            sample(),
            "dtx v2\ngrid bff8000000000000 0000000000000007 3\n\
             pos 000000000000000000000000deadbeef\nmask 101 1\n\
             vals 3fd0000000000000 8000000000000000\nnone \nswap 10 4\nend\n"
        );
    }

    #[test]
    fn reader_round_trips_the_writer() {
        let text = sample();
        let mut r = Reader::new(&text, "dtx", &[1, 2]).unwrap();
        assert_eq!(r.version(), 2);
        r.line("grid").unwrap();
        assert_eq!(r.hex_f64("a").unwrap(), -1.5);
        assert_eq!(r.hex_u64("b").unwrap(), 7);
        assert_eq!(r.dec::<usize>("c").unwrap(), 3);
        assert_eq!(r.clone().line("pos").unwrap().decs::<u8, 1>("p").err(), {
            Some(TextError::Malformed { line: 3, what: "p" })
        });
        assert!(!r.try_line("absent").unwrap());
        assert!(r.try_line("pos").unwrap());
        assert_eq!(r.hex_u128("p").unwrap(), 0xDEAD_BEEF);
        r.line("mask").unwrap();
        assert_eq!(r.peek(), Some("101"));
        assert_eq!(r.token("m").unwrap(), "101");
        assert!(r.flag("f").unwrap());
        r.line("vals").unwrap();
        let vals = r.rest_with("v", Reader::hex_f64).unwrap();
        assert_eq!(vals[0], 0.25);
        assert!(vals[1] == 0.0 && vals[1].is_sign_negative());
        r.line("none").unwrap();
        assert!(r.rest_with::<u8>("n", Reader::dec).unwrap().is_empty());
        r.row().unwrap();
        assert_eq!(r.rest_of_line(), "swap 10 4");
        assert_eq!(r.rest(), "end\n");
        r.line("end").unwrap();
        assert!(r.at_end());
    }

    #[test]
    fn headers_are_checked() {
        assert_eq!(
            Reader::new("", "dtx", &[1]).unwrap_err(),
            TextError::BadHeader
        );
        for bad in ["dty v1", "dtx", "dtxx v1", "dtx v", "dtx 1", "dtx vone"] {
            assert_eq!(
                Reader::new(bad, "dtx", &[1]).unwrap_err(),
                TextError::BadHeader,
                "{bad}"
            );
        }
        assert_eq!(
            Reader::new("dtx v9\n", "dtx", &[1, 2]).unwrap_err(),
            TextError::UnsupportedVersion(9)
        );
    }

    #[test]
    fn structure_errors_are_typed_and_numbered() {
        let mut r = Reader::new("dtx v1\ngrid 1 2\nrest", "dtx", &[1]).unwrap();
        assert_eq!(
            r.line("state").err(),
            Some(TextError::Malformed {
                line: 2,
                what: "state"
            })
        );
        // `grid 1 2` was consumed by the failed match; its tokens are gone.
        r.line("rest").unwrap();
        assert_eq!(r.line("more").err(), Some(TextError::Truncated));

        let mut r = Reader::new("dtx v1\na b\nc", "dtx", &[1]).unwrap();
        r.row().unwrap();
        assert_eq!(r.token("x").unwrap(), "a");
        assert_eq!(
            r.row().err(),
            Some(TextError::Malformed {
                line: 2,
                what: "trailing token"
            })
        );
    }

    #[test]
    fn tokens_reject_what_the_writer_never_emits() {
        let bad = |line: &'static str, f: fn(&mut Reader<'_>) -> bool| {
            let text = format!("dtx v1\n{line}");
            let mut r = Reader::new(&text, "dtx", &[1]).unwrap();
            r.row().unwrap();
            assert!(f(&mut r), "{line}");
        };
        // Hex fields are fixed width: a truncated value is not a value.
        bad("3ff0", |r| r.hex_f64("v").is_err());
        bad("3ff00000000000000", |r| r.hex_u64("v").is_err());
        bad("+ff0000000000000", |r| r.hex_u64("v").is_err());
        bad("deadbeef", |r| r.hex_u128("v").is_err());
        bad(" ", |r| r.hex_u64("v").is_err());
        bad("x", |r| r.dec::<u64>("v").is_err());
        bad("-1", |r| r.dec::<u64>("v").is_err());
        bad("2", |r| r.flag("v").is_err());
        bad("true", |r| r.flag("v").is_err());
        // Masks are 0/1 only; nothing else may pass for `false`.
        bad("10x1", |r| r.mask("v").is_err());
        bad("1 0", |r| r.mask("v").is_err());
        bad(" ", |r| r.mask("v") == Ok(Vec::new()));
        bad("0110", |r| {
            r.mask("v") == Ok(vec![false, true, true, false])
        });
    }
}
