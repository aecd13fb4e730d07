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
//! request body — and rely on their carrier, a TCP frame, for length.
//! For those a shorter prefix is a shorter valid message, so only
//! "never panics" is asserted.
//!
//! The cluster snapshot (`dtrewl`) is held to more: it carries a checksum
//! over its bytes, so every truncation and every single-byte flip must
//! decode to an error.

mod common;

use std::fmt::Debug;

use dt_lattice::{Configuration, Species};
use dt_rewl::{wire, GatherPiece, RankCheckpoint, ResumePoint};
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
            "wire exchange reply",
            false,
            wire::encode_exchange_reply((salt % 2 == 0).then_some(finite), -finite, &config),
            |b| wire::decode_exchange_reply(b, 4).ok(),
        ),
        binary(
            "wire exchange decision",
            false,
            wire::encode_exchange_decision((salt % 3 != 0).then_some((finite, &config))),
            |b| wire::decode_exchange_decision(b, 4).ok(),
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

/// A snapshot salted by the case: its round and digest, one rank's
/// state, and whether a fault plan is recorded.
fn snapshot(salt: u64) -> ResumePoint {
    let mut rp = common::snapshot();
    rp.round = salt >> 30;
    rp.digest = salt;
    rp.ranks[1].sweeps = salt >> 20;
    if salt % 3 == 0 {
        rp.faults = dt_hpc::FaultPlan::none();
    }
    rp
}

proptest! {
    #[test]
    fn every_cut_and_flip_of_a_snapshot_is_a_typed_error(
        salt in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let bytes = snapshot(salt).encode().into_bytes();
        let decode = |b: &[u8]| ResumePoint::decode(&String::from_utf8_lossy(b));
        prop_assert!(decode(&bytes).is_ok());
        for cut in 0..bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err(), "prefix of {} bytes decoded", cut);
        }
        let mut flipped = bytes.clone();
        for i in 0..bytes.len() {
            flipped[i] ^= flip;
            prop_assert!(decode(&flipped).is_err(), "flip {:#04x} at byte {} decoded", flip, i);
            flipped[i] ^= flip;
        }
    }

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

/// The exchange payloads end in an unframed state, so the property above
/// only asserts they never panic; these are the cuts and labels that
/// must fail outright.
#[test]
fn malformed_exchange_payloads_are_typed_errors() {
    let config = Configuration::from_species([0u8, 1, 2, 3].map(Species).to_vec(), 4);
    let reply = wire::encode_exchange_reply(Some(0.25), -1.0, &config);
    // Flag, Δln g and energy are fixed-width: any cut inside them fails.
    for cut in 0..17 {
        assert!(
            matches!(
                wire::decode_exchange_reply(&reply[..cut], 4),
                Err(wire::WireError::Truncated { .. })
            ),
            "reply cut at {cut}"
        );
    }
    let mut bad = reply.clone();
    *bad.last_mut().unwrap() = 9;
    assert_eq!(
        wire::decode_exchange_reply(&bad, 4),
        Err(wire::WireError::BadSpecies {
            species: 9,
            num_species: 4
        })
    );
    let mut bad = reply;
    bad[0] = 2;
    assert_eq!(
        wire::decode_exchange_reply(&bad, 4),
        Err(wire::WireError::BadFlag(2))
    );

    let decision = wire::encode_exchange_decision(Some((-1.0, &config)));
    for cut in 0..9 {
        assert!(
            matches!(
                wire::decode_exchange_decision(&decision[..cut], 4),
                Err(wire::WireError::Truncated { .. })
            ),
            "decision cut at {cut}"
        );
    }
    let mut bad = decision;
    *bad.last_mut().unwrap() = 4;
    assert_eq!(
        wire::decode_exchange_decision(&bad, 4),
        Err(wire::WireError::BadSpecies {
            species: 4,
            num_species: 4
        })
    );
    assert_eq!(wire::decode_exchange_decision(&[0], 4), Ok(None));
    assert_eq!(
        wire::decode_exchange_decision(&[0, 0], 4),
        Err(wire::WireError::Trailing { extra: 1 })
    );
    assert_eq!(
        wire::decode_exchange_decision(&[7], 4),
        Err(wire::WireError::BadFlag(7))
    );
}
