//! Byte-for-byte goldens of every disk and wire encoder.
//!
//! The fixtures under `tests/fixtures/` were captured from the encoders
//! as they stood before any format was moved onto `dt-codec`; an encoder
//! that emits one different byte, or a decoder that stops reading a file
//! version it used to read, fails here. (`wire_piece.bin` and the two
//! `wire_exchange_*.bin` payloads are the exceptions: the single gather
//! message and the three-message exchange are newer than the codec, and
//! their fixtures pin them from their first version on.)

mod common;

use std::path::PathBuf;

use dt_lattice::{Configuration, Species};
use dt_rewl::{wire, RankCheckpoint, ResumePoint};
use dt_serve::{shard, Artifact};
use dt_surrogate::SurrogateModel;
use dt_wanglandau::WalkerCheckpoint;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

fn fixture_text(name: &str) -> String {
    String::from_utf8(fixture(name)).expect("text fixture")
}

#[track_caller]
fn assert_golden(name: &str, actual: &[u8]) {
    assert!(
        fixture(name) == actual,
        "{name}: encoder output differs from the committed golden bytes"
    );
}

fn state_config() -> Configuration {
    Configuration::from_species([0u8, 1, 2, 3, 3, 2, 1, 0].map(Species).to_vec(), 4)
}

#[test]
fn text_encoders_emit_the_golden_bytes() {
    assert_golden("dtwl_v2.txt", common::walker().encode().as_bytes());
    assert_golden(
        "dtrewlrank_full.txt",
        common::rank_full().encode().as_bytes(),
    );
    assert_golden(
        "dtrewlrank_plain.txt",
        common::rank_plain().encode().as_bytes(),
    );
    assert_golden("dtrewl_v2.txt", common::snapshot().encode().as_bytes());
    assert_golden("dtnn.txt", dt_nn::save_mlp(&common::mlp()).as_bytes());
    // The serve fixture's surrogate is the one `dtsur` producer that
    // needs no training run.
    let sur = dt_serve::fixture::fixture_artifact("golden")
        .surrogate_text
        .expect("fixture surrogate");
    assert_golden("dtsur.txt", sur.as_bytes());
    assert_eq!(SurrogateModel::load(&sur).unwrap().save(), sur);
}

#[test]
fn artifact_files_emit_the_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("dt-codec-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let adir = common::artifact().save(&dir).unwrap();
    assert_golden("dtdos.txt", &std::fs::read(adir.join("dos.dat")).unwrap());
    assert_golden("dtsro.txt", &std::fs::read(adir.join("sro.dat")).unwrap());
    let back = Artifact::load(&adir).unwrap();
    assert_eq!(back.mask, common::artifact().mask);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_encoders_emit_the_golden_bytes() {
    assert_golden(
        "wire_state.bin",
        &wire::encode_state(-1.25, &state_config()),
    );
    // The exchange reply and decision carry the same state body behind
    // a flag byte (and, in the reply, an `f64` Δln g).
    assert_golden(
        "wire_exchange_reply.bin",
        &wire::encode_exchange_reply(Some(0.5), -1.25, &state_config()),
    );
    assert_golden(
        "wire_exchange_decision.bin",
        &wire::encode_exchange_decision(Some((-1.25, &state_config()))),
    );
    assert_eq!(wire::encode_exchange_decision(None), [0]);
    assert_golden("wire_f64s.bin", &wire::encode_f64s(&common::F64S));
    assert_golden("wire_u64s.bin", &wire::encode_u64s(&common::U64S));
    assert_golden(
        "wire_telemetry.bin",
        &wire::encode_telemetry(&common::telemetry()),
    );
    assert_golden("wire_walker.bin", &wire::encode_walker(&common::walker()));
    assert_golden("wire_piece.bin", &wire::encode_piece(&common::piece()));
    assert_golden(
        "tcp_frame.bin",
        &dt_hpc::tcp::encode_frame(0x0123_4567_89ab_cdef, 1500, common::FRAME_PAYLOAD),
    );
    assert_golden(
        "shard_rpc.bin",
        &shard::encode_rpc(42, shard::OP_HTTP, common::RPC_RAW),
    );
    assert_golden(
        "shard_response.bin",
        &shard::encode_response(&common::response()),
    );
}

#[test]
fn older_file_versions_still_decode() {
    // A v1 walker file: no `rt` line, no `end` sentinel.
    let v1 = WalkerCheckpoint::decode(&fixture_text("dtwl_v1.txt")).unwrap();
    let mut walker_v1 = common::walker();
    walker_v1.rt_last_boundary = 0;
    walker_v1.rt_crossings = 0;
    walker_v1.rt_crossing_moves = 0;
    walker_v1.rt_leg_start_moves = 0;
    assert_eq!(v1, walker_v1);

    // A rank file from before the recovery layer: no `coll`, `rebal` or
    // `assign` line, and a v1 walker embedded.
    let old = RankCheckpoint::decode(&fixture_text("dtrewlrank_pre_recovery.txt")).unwrap();
    let mut expect = common::rank_plain();
    expect.coll_gens = [0; 3];
    expect.walker = walker_v1;
    assert_eq!(old, expect);
}

/// The snapshot carries each rank's pinned `dtrewlrank` bytes verbatim,
/// each behind its length, and a sum over every byte before the `sum`
/// line — checked here against the layout, not the encoder.
#[test]
fn snapshot_embeds_the_pinned_rank_images() {
    let text = fixture_text("dtrewl_v2.txt");
    let full = fixture_text("dtrewlrank_full.txt");
    let plain = fixture_text("dtrewlrank_plain.txt");
    let images = format!("rank {}\n{full}rank {}\n{plain}", full.len(), plain.len());
    let (body, tail) = text.rsplit_once("sum ").unwrap();
    let header =
        "dtrewl v2\nround 40\nranks 2\ndigest 123456789abcdef0\nfaults seed=000000000000000b ";
    assert!(body.starts_with(header));
    assert!(body.ends_with(&images));
    assert_eq!(
        tail,
        format!("{:016x}\nend\n", dt_codec::fnv1a(body.as_bytes()))
    );
    assert_eq!(ResumePoint::decode(&text).unwrap(), common::snapshot());
}
