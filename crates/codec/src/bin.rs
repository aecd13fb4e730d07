//! Little-endian byte messages: fixed-width scalars, length-prefixed
//! strings, packed `f64`/`u64` vectors.

use std::fmt;

/// Why a byte message failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The message ends before a field does.
    Truncated {
        /// Bytes the message needed to hold that field.
        needed: usize,
        /// Bytes it holds.
        got: usize,
    },
    /// A packed vector's byte length is not a multiple of its element.
    Ragged {
        /// Element size in bytes.
        element: usize,
        /// Bytes present.
        got: usize,
    },
    /// A string field is not UTF-8.
    BadUtf8,
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Truncated { needed, got } => {
                write!(f, "truncated payload: need {needed} bytes, got {got}")
            }
            BinError::Ragged { element, got } => {
                write!(f, "ragged payload: {got} bytes not a multiple of {element}")
            }
            BinError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for BinError {}

/// Builds a byte message field by field.
#[derive(Debug, Default)]
pub struct Writer(Vec<u8>);

macro_rules! put_scalars {
    ($($name:ident: $t:ty),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`.")]
        pub fn $name(&mut self, v: $t) -> &mut Self {
            self.raw(&v.to_le_bytes())
        }
    )*};
}

impl Writer {
    /// An empty message.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty message with room for `bytes`, so a hot encoder that
    /// knows its size allocates once.
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer(Vec::with_capacity(bytes))
    }

    put_scalars!(u8: u8, u16: u16, u32: u32, u64: u64, f64: f64);

    /// Bytes as they are, no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.extend_from_slice(bytes);
        self
    }

    /// Bytes from an iterator, no length prefix.
    pub fn extend(&mut self, bytes: impl IntoIterator<Item = u8>) -> &mut Self {
        self.0.extend(bytes);
        self
    }

    /// A `u32` length, then the UTF-8 bytes (panics past `u32::MAX`).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(u32::try_from(s.len()).expect("field longer than u32::MAX bytes"))
            .raw(s.as_bytes())
    }

    /// A `u16` length, then the UTF-8 bytes (panics past `u16::MAX`).
    pub fn str16(&mut self, s: &str) -> &mut Self {
        self.u16(u16::try_from(s.len()).expect("field longer than u16::MAX bytes"))
            .raw(s.as_bytes())
    }

    /// Packed `f64`s, no count.
    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        self.0.reserve(8 * values.len());
        values.iter().fold(self, |w, &v| w.f64(v))
    }

    /// Packed `u64`s, no count.
    pub fn u64s(&mut self, values: &[u64]) -> &mut Self {
        self.0.reserve(8 * values.len());
        values.iter().fold(self, |w, &v| w.u64(v))
    }

    /// The finished message.
    pub fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.0)
    }
}

/// A cursor over a byte message. Every read fails with
/// [`BinError::Truncated`] when the message is too short for it.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

macro_rules! get_scalars {
    ($($name:ident: $t:ty),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`.")]
        pub fn $name(&mut self) -> Result<$t, BinError> {
            let b = self.take(std::mem::size_of::<$t>())?;
            Ok(<$t>::from_le_bytes(b.try_into().expect("length just taken")))
        }
    )*};
}

impl<'a> Reader<'a> {
    /// Start reading `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes. A length is checked here against what is left
    /// before anything is allocated for it.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if n > self.remaining() {
            return Err(BinError::Truncated {
                needed: self.pos.saturating_add(n),
                got: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Everything not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        let n = self.remaining();
        self.take(n).expect("remaining bytes are present")
    }

    get_scalars!(u8: u8, u16: u16, u32: u32, u64: u64, f64: f64);

    /// A `u32`-length-prefixed string ([`BinError::BadUtf8`]).
    pub fn str(&mut self) -> Result<&'a str, BinError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| BinError::BadUtf8)
    }

    /// A `u16`-length-prefixed string ([`BinError::BadUtf8`]).
    pub fn str16(&mut self) -> Result<&'a str, BinError> {
        let n = usize::from(self.u16()?);
        std::str::from_utf8(self.take(n)?).map_err(|_| BinError::BadUtf8)
    }

    /// Everything not yet read as packed eight-byte elements.
    fn rest_words<T>(&mut self, from: fn([u8; 8]) -> T) -> Result<Vec<T>, BinError> {
        let got = self.remaining();
        if got % 8 != 0 {
            return Err(BinError::Ragged { element: 8, got });
        }
        let words = self.rest().chunks_exact(8);
        Ok(words
            .map(|c| from(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Everything not yet read as packed `f64`s ([`BinError::Ragged`]).
    pub fn rest_f64s(&mut self) -> Result<Vec<f64>, BinError> {
        self.rest_words(f64::from_le_bytes)
    }

    /// Everything not yet read as packed `u64`s ([`BinError::Ragged`]).
    pub fn rest_u64s(&mut self) -> Result<Vec<u64>, BinError> {
        self.rest_words(u64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_kind_round_trips_little_endian() {
        let mut w = Writer::with_capacity(64);
        w.u8(7)
            .u16(0x0102)
            .u32(0x0304_0506)
            .u64(u64::MAX)
            .f64(-1.25);
        w.str("héllo").str16("x-cache").extend([9, 8]).raw(b"tail");
        let msg = w.finish();
        assert_eq!(&msg[..7], &[7, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03]);

        let mut r = Reader::new(&msg);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x0102);
        assert_eq!(r.u32().unwrap(), 0x0304_0506);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), -1.25);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.str16().unwrap(), "x-cache");
        assert_eq!(r.take(2).unwrap(), &[9, 8]);
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.rest(), b"tail");
        assert_eq!(r.remaining(), 0);

        let packed = Writer::new().f64s(&[1.0, -0.0]).finish();
        let f = Reader::new(&packed).rest_f64s().unwrap();
        assert!(f[0] == 1.0 && f[1] == 0.0 && f[1].is_sign_negative());
        let packed = Writer::new().u64s(&[3, u64::MAX]).finish();
        assert_eq!(Reader::new(&packed).rest_u64s().unwrap(), vec![3, u64::MAX]);
    }

    #[test]
    fn short_ragged_and_invalid_fields_are_typed_errors() {
        assert_eq!(
            Reader::new(&[0; 5]).u64(),
            Err(BinError::Truncated { needed: 8, got: 5 })
        );
        // A length prefix larger than the message is refused before any
        // allocation is made for it.
        let huge = Writer::new().u32(u32::MAX).raw(b"abc").finish();
        assert_eq!(
            Reader::new(&huge).str(),
            Err(BinError::Truncated {
                needed: 4 + u32::MAX as usize,
                got: 7
            })
        );
        assert_eq!(
            Reader::new(&[0; 12]).rest_f64s(),
            Err(BinError::Ragged {
                element: 8,
                got: 12
            })
        );
        assert_eq!(
            Reader::new(&[0; 9]).rest_u64s(),
            Err(BinError::Ragged { element: 8, got: 9 })
        );
        assert_eq!(
            Reader::new(&[2, 0, 0xff, 0xfe]).str16(),
            Err(BinError::BadUtf8)
        );
    }
}
