//! The REWL pipeline over the TCP transport: the same rank engine on
//! loopback sockets must reproduce the thread backend bit-for-bit on a
//! fault-free run, stop every rank on an injected rank kill,
//! checkpoint/resume identically, and heal any loss bit-for-bit by
//! restarting the cluster.

mod common;

use dt_hamiltonian::PairHamiltonian;
use dt_hpc::{FaultEvent, FaultPlan, RankOutcome, TcpCluster};
use dt_lattice::{Composition, Structure, Supercell};
use dt_rewl::exchange::tags;
use dt_rewl::{
    run_rewl, run_rewl_on, CheckpointSpec, KernelSpec, RankRun, RewlConfig, RewlError, RewlOutput,
};
use dt_wanglandau::{LnfSchedule, WlParams};

fn system() -> (
    Supercell,
    dt_lattice::NeighborTable,
    Composition,
    PairHamiltonian,
) {
    let cell = Supercell::cubic(Structure::bcc(), 2);
    let nt = cell.neighbor_table(1);
    let comp = Composition::equiatomic(2, cell.num_sites()).unwrap();
    let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
    (cell, nt, comp, h)
}

const RANGE: (f64, f64) = (-0.645, -0.155);

fn base_config(seed: u64) -> RewlConfig {
    RewlConfig {
        num_windows: 2,
        walkers_per_window: 2,
        overlap: 0.75,
        num_bins: 49,
        wl: WlParams {
            ln_f_initial: 1.0,
            ln_f_final: 1e-3,
            schedule: LnfSchedule::Flatness {
                flatness: 0.8,
                reduction: 0.5,
            },
            sweeps_per_check: 20,
        },
        exchange_every_sweeps: 10,
        observe_every_sweeps: 2,
        max_sweeps: 60_000,
        seed,
        kernel: KernelSpec::LocalSwap,
        ..RewlConfig::default()
    }
}

/// Run the full REWL pipeline over loopback TCP: every rank's outcome.
fn tcp_outcomes(cfg: &RewlConfig, plan: FaultPlan) -> Vec<RankOutcome<Result<RankRun, RewlError>>> {
    let (_, nt, comp, h) = system();
    let size = cfg.num_windows * cfg.walkers_per_window;
    TcpCluster::run_loopback(size, plan, |comm| {
        run_rewl_on(comm, &h, &nt, &comp, RANGE, cfg)
    })
}

/// Run the full REWL pipeline over loopback TCP and return rank 0's
/// assembled output.
fn run_over_tcp(cfg: &RewlConfig, plan: FaultPlan) -> RewlOutput {
    let mut root = None;
    for (rank, outcome) in tcp_outcomes(cfg, plan).into_iter().enumerate() {
        if let RankOutcome::Completed(run) = outcome {
            let run = run.expect("no unrecoverable error");
            if rank == 0 {
                root = run.output;
            }
        }
    }
    root.expect("rank 0 assembles the output")
}

/// A fault-free TCP run is bit-identical to the thread backend under the
/// same seed: same RNG consumption, same message schedule, same merge.
#[test]
fn fault_free_tcp_run_matches_thread_backend_bit_for_bit() {
    let (_, nt, comp, h) = system();
    let cfg = base_config(7);
    let thread_out = run_rewl(&h, &nt, &comp, RANGE, &cfg).unwrap();
    let tcp_out = run_over_tcp(&cfg, FaultPlan::none());
    common::assert_bit_identical(&thread_out, &tcp_out);
}

/// Killing a non-root walker over TCP stops the cluster exactly like
/// the thread fabric: every other rank returns `PeerLost`.
#[test]
fn killed_rank_over_tcp_fails_stop() {
    let outcomes = tcp_outcomes(&base_config(3), FaultPlan::none().kill_at_round(3, 4));
    assert!(outcomes[3].is_dead());
    for (rank, outcome) in outcomes.into_iter().enumerate().filter(|&(r, _)| r != 3) {
        match outcome.completed() {
            Some(Err(RewlError::PeerLost { .. })) => {}
            other => panic!("rank {rank}: expected PeerLost, got {other:?}"),
        }
    }
}

/// Checkpoint over TCP, kill the cluster mid-run, rerun over TCP: the
/// second run resumes from the snapshot instead of starting over.
#[test]
fn tcp_cluster_checkpoints_and_resumes() {
    let dir = std::env::temp_dir().join(format!("dtrewl-tcp-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = base_config(11);
    cfg.checkpoint = Some(CheckpointSpec::new(&dir).every_rounds(5));

    // First attempt: rank 1 dies late; the run fails, but has committed
    // several snapshots by then.
    let first = tcp_outcomes(&cfg, FaultPlan::none().kill_at_round(1, 10));
    match first.into_iter().next().and_then(RankOutcome::completed) {
        Some(Err(RewlError::PeerLost { .. })) => {}
        other => panic!("rank 0: expected PeerLost, got {other:?}"),
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().count() > 0,
        "snapshots must exist"
    );

    // Rerun over the same directory, fault-free: must resume, not restart.
    let second = run_over_tcp(&cfg, FaultPlan::none());
    assert!(
        second.resumed_from.is_some(),
        "second run must resume from a checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cluster that loses a rank to `plan`, restarted whole
/// from its newest complete checkpoint (every `cadence` rounds): returns
/// the healed output (telemetry on), the restarts it took, and the
/// fault-free baseline.
fn heal(label: &str, cadence: u64, plan: FaultPlan) -> (RewlOutput, u64, RewlOutput) {
    let (_, nt, comp, h) = system();
    let dir = std::env::temp_dir().join(format!("dtrewl-tcp-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Fault-free baseline on the thread backend (itself bit-identical to
    // fault-free TCP, covered above).
    let baseline = run_rewl(&h, &nt, &comp, RANGE, &base_config(5)).unwrap();
    let mut cfg = base_config(5);
    cfg.checkpoint = Some(CheckpointSpec::new(&dir).every_rounds(cadence));
    cfg.telemetry = true;
    let (out, restarts) = common::run_restarting(&h, &nt, &comp, RANGE, &cfg, plan);
    let _ = std::fs::remove_dir_all(&dir);
    (out, restarts, baseline)
}

/// The self-healing gate: a tcp cluster that loses a walker mid-run,
/// restarted whole from the round-3 snapshot the victim
/// confirmed before it died, must converge to exactly the fault-free
/// answer, bit for bit — no lost ranks, no degraded windows, same DOS,
/// same SRO, same move counts.
#[test]
fn killed_rank_with_recovery_is_bit_identical_to_fault_free() {
    // Rank 1 (window 0, slot 1 — an exchange peer) dies at round 3.
    let (out, restarts, baseline) = heal("recover", 1, FaultPlan::none().kill_at_round(1, 3));
    common::assert_no_timeouts(&out);
    assert_eq!(restarts, 1, "one whole-cluster restart");
    assert_eq!(out.resumed_from, Some(3));
    common::assert_bit_identical(&baseline, &out);
}

/// A kill between snapshots costs the rounds since the last one: the
/// restart resumes from round 5 and replays 5–7 bit-exactly.
#[test]
fn kill_between_checkpoints_resumes_from_the_last_one_bit_identically() {
    let (out, restarts, baseline) = heal("between", 5, FaultPlan::none().kill_at_round(2, 7));
    common::assert_no_timeouts(&out);
    assert_eq!(restarts, 1);
    assert_eq!(out.resumed_from, Some(5));
    common::assert_bit_identical(&baseline, &out);
}

/// Rank 0 — the collective coordinator and gather root — is restarted
/// like any other rank.
#[test]
fn killed_root_rank_heals_bit_for_bit_through_a_restart() {
    let (out, restarts, baseline) = heal("root", 2, FaultPlan::none().kill_at_round(0, 3));
    common::assert_no_timeouts(&out);
    assert_eq!(restarts, 1);
    assert_eq!(out.resumed_from, Some(2));
    common::assert_bit_identical(&baseline, &out);
}

/// A message lost for good is a loss like a death: the receiver's
/// deadline runs out, fail-stop ends the life, and the fault-free replay
/// from the round-5 snapshot heals it bit for bit.
#[test]
fn dropped_exchange_message_heals_bit_for_bit_through_a_restart() {
    // Rank 1 always initiates toward rank 3; drop its round-6 opener.
    let plan = FaultPlan::new(vec![FaultEvent::DropMessage {
        from: 1,
        to: 3,
        tag: Some(tags::with_round(tags::EXCH_ENERGY, 6)),
        nth_match: 0,
    }]);
    let (out, restarts, baseline) = heal("drop", 5, plan);
    assert_eq!(restarts, 1);
    assert_eq!(out.resumed_from, Some(5));
    common::assert_bit_identical(&baseline, &out);
}

/// Telemetry flows back over the wire: rank 0's output carries a
/// snapshot per rank, traffic counters included.
#[test]
fn telemetry_is_gathered_over_the_wire() {
    let mut cfg = base_config(7);
    cfg.telemetry = true;
    let out = run_over_tcp(&cfg, FaultPlan::none());
    assert_eq!(out.telemetry.len(), 4, "one snapshot per rank");
    for (rank, snap) in out.telemetry.iter().enumerate() {
        assert_eq!(snap.rank, rank);
        let sends = snap
            .counters
            .iter()
            .find(|(n, _)| n == "comm_sends")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(sends > 0, "rank {rank} sent protocol messages");
    }
}
