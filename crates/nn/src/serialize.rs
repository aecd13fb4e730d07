//! Versioned text serialization of MLPs.
//!
//! DeepThermo redistributes retrained proposal networks to every walker
//! (in the paper: an allreduce/broadcast of parameters between GPUs); the
//! simulated cluster ships them as strings, so the format must be exact.
//! `f64` values are written as hex-encoded IEEE-754 bits — lossless and
//! locale-independent.

use std::fmt;

use dt_codec::text::{Reader, Writer};
use dt_codec::TextError;

use crate::layer::{Activation, Linear};
use crate::matrix::Matrix;
use crate::mlp::Mlp;

/// Format version written at the head of every serialized model.
const FORMAT_VERSION: u32 = 1;

/// Errors from [`load_mlp`] and the file round-trip helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnFormatError {
    /// The header line is missing or malformed.
    BadHeader,
    /// The format version is not supported.
    UnsupportedVersion(u32),
    /// A structural line was malformed.
    Malformed(String),
    /// The data ended early.
    Truncated,
    /// Reading or writing the model file failed. The message carries the
    /// rendered `std::io::Error` (stored as text so this enum stays
    /// `Clone + PartialEq`).
    Io(String),
}

impl fmt::Display for NnFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnFormatError::BadHeader => write!(f, "bad model header"),
            NnFormatError::UnsupportedVersion(v) => write!(f, "unsupported model version {v}"),
            NnFormatError::Malformed(what) => write!(f, "malformed model data: {what}"),
            NnFormatError::Truncated => write!(f, "model data truncated"),
            NnFormatError::Io(what) => write!(f, "model file I/O failed: {what}"),
        }
    }
}

impl std::error::Error for NnFormatError {}

impl From<TextError> for NnFormatError {
    fn from(e: TextError) -> Self {
        match e {
            TextError::BadHeader => NnFormatError::BadHeader,
            TextError::UnsupportedVersion(v) => NnFormatError::UnsupportedVersion(v),
            TextError::Truncated => NnFormatError::Truncated,
            e @ TextError::Malformed { .. } => NnFormatError::Malformed(e.to_string()),
        }
    }
}

impl From<std::io::Error> for NnFormatError {
    fn from(e: std::io::Error) -> Self {
        NnFormatError::Io(e.to_string())
    }
}

/// Serialize an MLP to the versioned text format.
pub fn save_mlp(mlp: &Mlp) -> String {
    let mut w = Writer::new("dtnn", FORMAT_VERSION);
    w.line("acts")
        .dec(mlp.hidden_activation().tag())
        .dec(mlp.output_activation().tag());
    w.line("layers").dec(mlp.layers().len());
    for l in mlp.layers() {
        w.line("layer").dec(l.out_dim()).dec(l.in_dim());
        for &v in l.w.data().iter().chain(&l.b) {
            w.row().hex_f64(v);
        }
    }
    w.finish()
}

/// Deserialize an MLP from [`save_mlp`] output.
///
/// # Errors
/// Returns a [`NnFormatError`] on any structural or encoding problem.
pub fn load_mlp(text: &str) -> Result<Mlp, NnFormatError> {
    let mut r = Reader::new(text, "dtnn", &[FORMAT_VERSION])?;
    r.line("acts")?;
    let mut act = |what| {
        let tag = r.token(what)?;
        Activation::from_tag(tag).ok_or_else(|| NnFormatError::Malformed(what.into()))
    };
    let (hidden, output) = (act("hidden activation")?, act("output activation")?);
    let num_layers: usize = r.line("layers")?.dec("layers line")?;
    if num_layers == 0 {
        return Err(NnFormatError::Malformed("zero layers".into()));
    }
    let mut layers = Vec::new();
    for _ in 0..num_layers {
        let [out_dim, in_dim]: [usize; 2] = r.line("layer")?.decs("layer shape")?;
        // Sized by the rows actually present, never by the claimed shape.
        let mut values = |n: usize| -> Result<Vec<f64>, NnFormatError> {
            let mut out = Vec::new();
            for _ in 0..n {
                out.push(r.row()?.hex_f64("f64 bits")?);
            }
            Ok(out)
        };
        let w = values(out_dim.saturating_mul(in_dim))?;
        let b = values(out_dim)?;
        layers.push(Linear::from_params(Matrix::from_vec(out_dim, in_dim, w), b));
    }
    Ok(Mlp::from_parts(layers, hidden, output))
}

/// Write an MLP to `path` in the versioned text format.
///
/// # Errors
/// Returns [`NnFormatError::Io`] if the file cannot be written.
pub fn save_mlp_to_file(mlp: &Mlp, path: impl AsRef<std::path::Path>) -> Result<(), NnFormatError> {
    std::fs::write(path, save_mlp(mlp))?;
    Ok(())
}

/// Read an MLP previously written by [`save_mlp_to_file`].
///
/// # Errors
/// Returns [`NnFormatError::Io`] if the file cannot be read, or any other
/// [`NnFormatError`] if its contents are not a valid model.
pub fn load_mlp_from_file(path: impl AsRef<std::path::Path>) -> Result<Mlp, NnFormatError> {
    load_mlp(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_mlp() -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        Mlp::new(&[4, 7, 3], Activation::Relu, Activation::Identity, &mut rng)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let mlp = sample_mlp();
        let text = save_mlp(&mlp);
        let back = load_mlp(&text).unwrap();
        assert_eq!(back.dims(), mlp.dims());
        assert_eq!(back.hidden_activation(), mlp.hidden_activation());
        for (a, b) in mlp.layers().iter().zip(back.layers()) {
            assert_eq!(a.w.data(), b.w.data());
            assert_eq!(a.b, b.b);
        }
        // Outputs must be bit-identical.
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 7.0]]);
        assert_eq!(mlp.forward(&x).data(), back.forward(&x).data());
    }

    #[test]
    fn special_values_survive() {
        let mut mlp = sample_mlp();
        mlp.layers_mut()[0].w[(0, 0)] = f64::MIN_POSITIVE;
        mlp.layers_mut()[0].w[(0, 1)] = -0.0;
        mlp.layers_mut()[0].b[0] = 1e-300;
        let back = load_mlp(&save_mlp(&mlp)).unwrap();
        assert_eq!(back.layers()[0].w[(0, 0)], f64::MIN_POSITIVE);
        assert!(back.layers()[0].w[(0, 1)].is_sign_negative());
        assert_eq!(back.layers()[0].b[0], 1e-300);
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(load_mlp("garbage").unwrap_err(), NnFormatError::BadHeader);
        assert_eq!(
            load_mlp("dtnn v9\nacts relu id\nlayers 1\n").unwrap_err(),
            NnFormatError::UnsupportedVersion(9)
        );
    }

    #[test]
    fn rejects_truncation() {
        let text = save_mlp(&sample_mlp());
        let cut: String = text.lines().take(10).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            load_mlp(&cut),
            Err(NnFormatError::Truncated) | Err(NnFormatError::Malformed(_))
        ));
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let mlp = sample_mlp();
        let dir = std::env::temp_dir().join("dtnn-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.dtnn");
        save_mlp_to_file(&mlp, &path).unwrap();
        let back = load_mlp_from_file(&path).unwrap();
        assert_eq!(back.dims(), mlp.dims());
        let missing = dir.join("does-not-exist.dtnn");
        assert!(matches!(
            load_mlp_from_file(&missing),
            Err(NnFormatError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_bits() {
        let mut text = save_mlp(&sample_mlp());
        text = text.replacen(text.lines().nth(4).unwrap(), "zzzznotvalidhex!", 1);
        assert!(matches!(load_mlp(&text), Err(NnFormatError::Malformed(_))));
    }
}
