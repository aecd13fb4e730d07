//! The one codec behind every DeepThermo disk and wire boundary.
//!
//! Walker state, proposal weights and DOS pieces cross process and disk
//! boundaries bit-exactly, so *how* an `f64`, a mask, a header or a
//! truncation check is written is decided here once:
//!
//! * [`text`] — the line-oriented text formats (`dtwl`, `dtrewlrank`,
//!   `dtrewl` (one cluster snapshot: every rank's `dtrewlrank` image,
//!   length-delimited, under an [`fnv1a`] `sum`), `dtnn`, `dtsur`,
//!   `dtdos`, `dtsro`): a `<magic> v<N>` header, named lines of
//!   whitespace-separated tokens, `f64` as 16 hex digits of its IEEE-754
//!   bits;
//! * [`bin`] — the little-endian byte messages (REWL wire payloads, TCP
//!   frames, shard RPC frames).
//!
//! Each format's owner keeps its own public error enum and converts
//! [`TextError`] / [`BinError`] into it. The crate has no dependencies
//! and no `unsafe`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bin;
pub mod text;

pub use bin::BinError;
pub use text::TextError;

/// 64-bit FNV-1a: the one stable, dependency-free hash behind checkpoint
/// digests, the snapshot `sum` line and the serving ring. Any single-byte
/// change to the input changes the hash: each step is a bijection of the
/// running state, and injective in the byte for a fixed state.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
