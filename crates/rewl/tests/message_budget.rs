//! The per-rank message budget of a REWL run, pinned in closed form on
//! both backends: three driver messages per replica exchange (the
//! initiator's opener and decision, the responder's reply), one
//! checkpoint image per snapshot and one gather piece from every
//! non-root rank — and a convergence vote only on the rounds whose
//! outcome can change.
//!
//! The vote's collective frames travel below the fault plan and the
//! traffic counters (see `Communicator::allreduce_sum`), so its share of
//! the budget, `2·(size − 1)` messages per vote round, is pinned through
//! the number of `allreduce` spans each rank records.

mod common;

use dt_hamiltonian::PairHamiltonian;
use dt_hpc::{FaultPlan, RankOutcome, TcpCluster};
use dt_lattice::{Composition, Structure, Supercell};
use dt_rewl::{run_rewl, run_rewl_on, CheckpointSpec, KernelSpec, RewlConfig, RewlOutput};
use dt_telemetry::{Phase, RankTelemetry};
use dt_wanglandau::{LnfSchedule, WlParams};

const RANGE: (f64, f64) = (-0.645, -0.155);
/// Sweeps (= rounds, at one sweep per round) before the cap stops the run.
const MAX_SWEEPS: u64 = 95;
/// Sweeps between flatness checks.
const CHECK_EVERY: u64 = 10;
/// Rounds between cluster snapshots.
const SNAPSHOT_EVERY: u64 = 7;

fn system() -> (dt_lattice::NeighborTable, Composition, PairHamiltonian) {
    let cell = Supercell::cubic(Structure::bcc(), 2);
    let nt = cell.neighbor_table(1);
    let comp = Composition::equiatomic(2, cell.num_sites()).unwrap();
    let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
    (nt, comp, h)
}

/// 2 windows × 1 walker, an exchange every sweep, a check every 10, and
/// an `ln f` target no 95-sweep run reaches, so the cap ends every run.
fn config(dir: &std::path::Path) -> RewlConfig {
    RewlConfig {
        num_windows: 2,
        walkers_per_window: 1,
        overlap: 0.75,
        num_bins: 49,
        wl: WlParams {
            ln_f_initial: 1.0,
            ln_f_final: 1e-12,
            schedule: LnfSchedule::Flatness {
                flatness: 0.8,
                reduction: 0.5,
            },
            sweeps_per_check: CHECK_EVERY as usize,
        },
        exchange_every_sweeps: 1,
        observe_every_sweeps: 2,
        max_sweeps: MAX_SWEEPS,
        seed: 17,
        kernel: KernelSpec::LocalSwap,
        checkpoint: Some(CheckpointSpec::new(dir).every_rounds(SNAPSHOT_EVERY)),
        telemetry: true,
        ..RewlConfig::default()
    }
}

fn counter(snap: &RankTelemetry, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn spans(snap: &RankTelemetry, phase: Phase) -> u64 {
    snap.phases
        .iter()
        .find(|p| p.phase == phase)
        .map_or(0, |p| p.count)
}

fn assert_budget(label: &str, out: &RewlOutput) {
    let rounds = MAX_SWEEPS;
    assert_eq!(out.sweeps, rounds, "{label}: the cap ends the run");
    // Window 0 initiates on even rounds; odd rounds pair nobody.
    let exchanges = rounds.div_ceil(2);
    assert_eq!(out.windows[0].exchange_attempts, exchanges, "{label}");
    // A snapshot at every round r > 0 with r % 7 == 0.
    let snapshots = (rounds - 1) / SNAPSHOT_EVERY;
    // The first round, every round holding a check, and the cap round.
    let votes = (0..rounds)
        .filter(|&r| r == 0 || (r + 1) % CHECK_EVERY == 0 || r + 1 >= MAX_SWEEPS)
        .count() as u64;
    assert_eq!(votes, 11);
    assert_eq!(out.telemetry.len(), 2, "{label}: one snapshot per rank");
    for snap in &out.telemetry {
        let sends = counter(snap, "comm_sends");
        let expected = if snap.rank == 0 {
            // Opener + decision per exchange; rank 0 only receives the
            // snapshot images and the gather.
            2 * exchanges
        } else {
            // Reply per exchange, an image per snapshot, the piece.
            exchanges + snapshots + 1
        };
        assert_eq!(sends, expected, "{label}: rank {} comm_sends", snap.rank);
        assert_eq!(
            spans(snap, Phase::Allreduce),
            votes,
            "{label}: rank {} vote rounds",
            snap.rank
        );
    }
    common::assert_no_timeouts(out);
}

fn checkpoint_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dtrewl-budget-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn thread_backend_meets_the_message_budget() {
    let (nt, comp, h) = system();
    let dir = checkpoint_dir("thread");
    let out = run_rewl(&h, &nt, &comp, RANGE, &config(&dir)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_budget("thread", &out);
}

#[test]
fn tcp_backend_meets_the_message_budget() {
    let (nt, comp, h) = system();
    let dir = checkpoint_dir("tcp");
    let cfg = config(&dir);
    let outcomes = TcpCluster::run_loopback(2, FaultPlan::none(), |comm| {
        run_rewl_on(comm, &h, &nt, &comp, RANGE, &cfg)
    });
    let _ = std::fs::remove_dir_all(&dir);
    let root = outcomes
        .into_iter()
        .next()
        .and_then(RankOutcome::completed)
        .expect("rank 0 completes")
        .expect("no unrecoverable error")
        .output
        .expect("rank 0 assembles the output");
    assert_budget("tcp", &root);
}
