//! The one codec behind every DeepThermo disk and wire boundary.
//!
//! Walker state, proposal weights and DOS pieces cross process and disk
//! boundaries bit-exactly, so *how* an `f64`, a mask, a header or a
//! truncation check is written is decided here once:
//!
//! * [`text`] — the line-oriented text formats (`dtwl`, `dtrewlrank`,
//!   `dtrewl`, `dtnn`, `dtsur`, `dtdos`, `dtsro`): a `<magic> v<N>`
//!   header, named lines of whitespace-separated tokens, `f64` as 16 hex
//!   digits of its IEEE-754 bits;
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
