//! Fixed samples of every value that crosses a disk or wire boundary,
//! shared by the golden-bytes and corruption suites.
#![allow(dead_code)]

use dt_hpc::FaultPlan;
use dt_nn::{Activation, Mlp};
use dt_proposal::MoveStats;
use dt_rewl::{GatherPiece, RankCheckpoint, RunManifest};
use dt_serve::{Artifact, ArtifactManifest};
use dt_telemetry::{Phase, PhaseStat, RankTelemetry};
use dt_thermo::MicrocanonicalAccumulator;
use dt_wanglandau::{EnergyGrid, WalkerCheckpoint};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub fn walker() -> WalkerCheckpoint {
    WalkerCheckpoint {
        e_min: -1.5,
        e_max: 0.25,
        num_bins: 3,
        ln_g: vec![0.0, 12.5, 3.25e-300],
        visits: vec![5, 0, 7],
        ever_visited: vec![true, false, true],
        species: vec![0, 1, 2, 3, 0, 1],
        num_species: 4,
        energy: -0.75,
        ln_f: 0.03125,
        total_moves: 123_456,
        stages: 9,
        one_over_t_phase: true,
        rt_last_boundary: -1,
        rt_crossings: 14,
        rt_crossing_moves: 98_765,
        rt_leg_start_moves: 120_000,
    }
}

pub fn stats() -> MoveStats {
    let mut stats = MoveStats::new();
    stats.record_n("local-swap", 100, 37);
    stats.record_n("deep", 20, 5);
    stats
}

/// A rebalancing deep-kernel rank: every optional line present.
pub fn rank_full() -> RankCheckpoint {
    RankCheckpoint {
        exchange_attempts: 12,
        exchange_accepted: 4,
        sweeps: 1234,
        sweeps_since_check: 7,
        rng_word_pos: 0xDEAD_BEEF_0123_4567_89AB_CDEF_u128,
        coll_gens: [3, 14, 1],
        rebalanced: 2,
        rt_banked_crossings: 8,
        rt_banked_moves: 5_000,
        assignment: vec![0, 1, 1, 1],
        deep_params: Some(vec![0.25, -1.5, 3e-9]),
        stats: stats(),
        obs_dim: 2,
        sro_sums: vec![1.0, 2.0, 0.0, 0.0, 5.5, -0.5],
        sro_counts: vec![4, 0, 2],
        walker: walker(),
    }
}

/// A plain local-kernel rank: no `rebal`, no `assign`, `deep -`.
pub fn rank_plain() -> RankCheckpoint {
    RankCheckpoint {
        rebalanced: 0,
        rt_banked_crossings: 0,
        rt_banked_moves: 0,
        assignment: Vec::new(),
        deep_params: None,
        ..rank_full()
    }
}

pub fn piece() -> GatherPiece {
    GatherPiece {
        state: rank_full(),
        reserved: [1, 2_000_000, 3],
    }
}

pub fn manifest_full() -> RunManifest {
    RunManifest {
        round: 40,
        ranks: 4,
        digest: 0x1234_5678_9abc_def0,
        alive: vec![true, true, false, true],
        faults: FaultPlan::chaos(11, 4, 20).kill_at_round(2, 7),
        assignment: vec![0, 1, 1, 1],
    }
}

pub fn manifest_plain() -> RunManifest {
    RunManifest {
        faults: FaultPlan::none(),
        assignment: Vec::new(),
        ..manifest_full()
    }
}

pub fn mlp() -> Mlp {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Identity, &mut rng)
}

/// A four-bin artifact with an SRO accumulator and no surrogate.
pub fn artifact() -> Artifact {
    let mut sro = MicrocanonicalAccumulator::new(4, 3);
    sro.record(1, &[0.25, 0.5, 0.25]);
    sro.record(1, &[0.125, 0.75, 0.125]);
    sro.record(2, &[1e-9, 1.0, -0.0]);
    Artifact {
        manifest: ArtifactManifest {
            id: "golden".into(),
            material: "NbMoTaW".into(),
            material_key: "nbmotaw".into(),
            structure: "bcc".into(),
            l: 2,
            num_sites: 16,
            species: vec!["Nb".into(), "Mo".into(), "Ta".into(), "W".into()],
            counts: vec![4, 4, 4, 4],
            seed: 7,
            num_shells: 2,
            sweeps: 10,
            converged: true,
        },
        grid: EnergyGrid::new(-1.5, 0.25, 4),
        ln_g: vec![0.0, 12.5, 3.25e-300, -7.5],
        mask: vec![false, true, true, false],
        sro: Some(sro),
        surrogate_text: None,
    }
}

pub fn telemetry() -> RankTelemetry {
    RankTelemetry {
        rank: 3,
        phases: vec![
            PhaseStat {
                phase: Phase::MoveBatch,
                total_s: 1.5,
                count: 12,
                p50_s: 0.125,
                p99_s: 0.25,
            },
            PhaseStat {
                phase: Phase::Exchange,
                total_s: 0.0625,
                count: 3,
                p50_s: 0.015625,
                p99_s: 0.03125,
            },
        ],
        counters: vec![("moves".into(), 12), ("sweeps".into(), u64::MAX)],
        gauges: vec![("ln_f".into(), 0.5)],
    }
}

pub const F64S: [f64; 4] = [1.0, -2.5, f64::MIN_POSITIVE, 1e300];
pub const U64S: [u64; 3] = [0, 7, u64::MAX];
pub const FRAME_PAYLOAD: &[u8] = b"payload bytes";
pub const RPC_RAW: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\n";

pub fn response() -> dt_serve::http::Response {
    let mut resp = dt_serve::http::Response::json(200, "{\"ok\":true}");
    resp.extra_headers.push(("x-cache", "hit".to_string()));
    resp.extra_headers.push(("x-shard", "1".to_string()));
    resp
}
