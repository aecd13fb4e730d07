//! One corruption property over every disk and wire format.
//!
//! For each format, on samples salted by the case:
//!
//! * every prefix truncation decodes to an error or to the identical
//!   value (the cut took only a trailing newline) — never to different
//!   state;
//! * flipping any single byte never panics the decoder.
//!
//! The truncation half is asserted for the formats that delimit
//! themselves (an `end` sentinel, counted rows, fixed-width hex, a length
//! prefix). The others carry an unframed tail — a packed vector, a
//! request body, an optional last line — and rely on their carrier for
//! length: a TCP frame, or the atomic rename a manifest is committed
//! with. For those a shorter prefix is a shorter valid message, so only
//! "never panics" is asserted.

mod common;

use std::fmt::Debug;

use dt_lattice::{Configuration, Species};
use dt_rewl::{wire, GatherPiece, RankCheckpoint, RunManifest};
use dt_serve::{artifact, shard};
use dt_surrogate::SurrogateModel;
use dt_wanglandau::WalkerCheckpoint;
use proptest::prelude::*;

/// A decoder rendered down to the decoded value's `Debug` text, `None`
/// on a decode error.
type Decode = Box<dyn Fn(&[u8]) -> Option<String>>;

struct Format {
    name: &'static str,
    bytes: Vec<u8>,
    /// Whether the format delimits itself (see the module docs).
    framed: bool,
    decode: Decode,
}

fn text<T: Debug, E>(
    name: &'static str,
    framed: bool,
    encoded: String,
    decode: impl Fn(&str) -> Result<T, E> + 'static,
) -> Format {
    Format {
        name,
        bytes: encoded.into_bytes(),
        framed,
        decode: Box::new(move |b| {
            decode(&String::from_utf8_lossy(b))
                .ok()
                .map(|v| format!("{v:?}"))
        }),
    }
}

fn binary<T: Debug>(
    name: &'static str,
    framed: bool,
    bytes: Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T> + 'static,
) -> Format {
    Format {
        name,
        bytes,
        framed,
        decode: Box::new(move |b| decode(b).map(|v| format!("{v:?}"))),
    }
}

/// Every format, on the fixed samples with `salt` folded into a few
/// numeric fields so cases differ in digit counts and bit patterns.
fn formats(salt: u64) -> Vec<Format> {
    let finite = f64::from_bits(salt & 0x7FEF_FFFF_FFFF_FFFF);
    let mut walker = common::walker();
    walker.total_moves = salt >> 7;
    walker.rt_leg_start_moves = salt >> 9;
    walker.ln_g[1] = finite;
    let mut rank = common::rank_full();
    rank.walker = walker.clone();
    rank.sweeps = salt >> 20;
    rank.sro_sums[4] = -finite;
    if salt % 2 == 0 {
        rank = RankCheckpoint {
            walker: walker.clone(),
            ..common::rank_plain()
        };
    }
    let mut manifest = common::manifest_full();
    manifest.round = salt >> 30;
    manifest.digest = salt;
    if salt % 3 == 0 {
        manifest = common::manifest_plain();
    }
    let mut art = common::artifact();
    art.ln_g[2] = finite;
    let mut telemetry = common::telemetry();
    telemetry.counters[0].1 = salt;
    telemetry.gauges[0].1 = finite;
    let piece = GatherPiece {
        state: rank.clone(),
        reserved: [salt % 5, salt >> 3, salt % 7],
    };
    let sur = dt_serve::fixture::fixture_artifact("c")
        .surrogate_text
        .expect("fixture surrogate");
    let config = Configuration::from_species([0u8, 1, 2, 3, 3, 2, 1, 0].map(Species).to_vec(), 4);
    let sro = art.sro.as_ref().expect("sample accumulator");

    vec![
        text("dtwl", true, walker.encode(), WalkerCheckpoint::decode),
        text("dtrewlrank", true, rank.encode(), RankCheckpoint::decode),
        text("dtrewl", false, manifest.encode(), RunManifest::decode),
        text("dtnn", true, dt_nn::save_mlp(&common::mlp()), |t| {
            dt_nn::load_mlp(t).map(|m| dt_nn::save_mlp(&m))
        }),
        text("dtsur", true, sur, |t| {
            SurrogateModel::load(t).map(|m| m.save())
        }),
        text(
            "dtdos",
            true,
            artifact::encode_dos(&art.grid, &art.ln_g, &art.mask),
            artifact::decode_dos,
        ),
        text(
            "dtsro",
            true,
            artifact::encode_sro(sro),
            artifact::decode_sro,
        ),
        binary(
            "wire telemetry",
            true,
            wire::encode_telemetry(&telemetry),
            |b| wire::decode_telemetry(b).ok(),
        ),
        binary("wire gather piece", true, wire::encode_piece(&piece), |b| {
            wire::decode_piece(b).ok()
        }),
        binary("wire walker", true, wire::encode_walker(&walker), |b| {
            wire::decode_walker(b).ok()
        }),
        binary(
            "wire state",
            false,
            wire::encode_state(finite, &config),
            |b| wire::decode_state(b, 4).ok(),
        ),
        binary(
            "wire f64s",
            false,
            wire::encode_f64s(&[finite, -0.0]),
            |b| wire::decode_f64s(b).ok(),
        ),
        binary("wire u64s", false, wire::encode_u64s(&[salt, 0]), |b| {
            wire::decode_u64s(b).ok()
        }),
        binary(
            "tcp frame",
            true,
            dt_hpc::tcp::encode_frame(salt, salt >> 40, common::FRAME_PAYLOAD),
            |b| {
                let (head, payload) = b.split_at_checked(dt_hpc::tcp::FRAME_HEADER_BYTES)?;
                let (len, tag, delay_us) = dt_hpc::tcp::decode_frame_header(head)?;
                (payload.len() == len).then(|| (tag, delay_us, payload.to_vec()))
            },
        ),
        binary(
            "shard rpc",
            false,
            shard::encode_rpc(salt >> 2, shard::OP_HTTP, common::RPC_RAW),
            |b| shard::decode_rpc(b).map(|(id, op, raw)| (id, op, raw.to_vec())),
        ),
        binary(
            "shard response",
            false,
            shard::encode_response(&common::response()),
            |b| shard::decode_response(b).map(|r| (r.status, r.body, r.extra_headers)),
        ),
    ]
}

proptest! {
    #[test]
    fn truncation_never_misdecodes_and_flips_never_panic(
        salt in any::<u64>(),
        flip in 1u8..=255,
    ) {
        for f in formats(salt) {
            let whole = (f.decode)(&f.bytes);
            prop_assert!(whole.is_some(), "{}: the sample itself must decode", f.name);
            for cut in 0..f.bytes.len() {
                let got = (f.decode)(&f.bytes[..cut]);
                if f.framed {
                    prop_assert!(
                        got.is_none() || got == whole,
                        "{}: prefix of {cut} bytes decoded to different state", f.name
                    );
                }
            }
            let mut bytes = f.bytes.clone();
            for i in 0..bytes.len() {
                bytes[i] ^= flip;
                let _ = (f.decode)(&bytes);
                bytes[i] ^= flip;
            }
        }
    }
}
