//! Fault-tolerance integration: REWL runs on a lossy simulated cluster
//! must degrade gracefully when walkers die, resume from cluster
//! checkpoints, and never hang on dropped messages.

mod common;

use std::time::Instant;

use dt_hamiltonian::{exact::ExactDos, PairHamiltonian};
use dt_hpc::FaultPlan;
use dt_lattice::{Composition, Structure, Supercell};
use dt_rewl::{run_rewl, CheckpointSpec, KernelSpec, RewlConfig};
use dt_wanglandau::{LnfSchedule, WlParams};

/// BCC 2×2×2, 2 species, one attractive first-shell pair: small enough to
/// enumerate exactly, rich enough to need all four ranks.
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
            ln_f_final: 5e-6,
            schedule: LnfSchedule::Flatness {
                flatness: 0.8,
                reduction: 0.5,
            },
            sweeps_per_check: 20,
        },
        exchange_every_sweeps: 10,
        observe_every_sweeps: 2,
        max_sweeps: 300_000,
        seed,
        kernel: KernelSpec::LocalSwap,
        ..RewlConfig::default()
    }
}

/// Max |Δ ln g| between a REWL output and exact enumeration.
fn compare_to_exact(out: &dt_rewl::RewlOutput, comp: &Composition, h: &PairHamiltonian) -> f64 {
    let (_, nt, _, _) = system();
    let exact = ExactDos::enumerate(h, &nt, comp);
    let mut dos = out.dos.clone();
    dos.normalize_total(comp.ln_num_configurations(), Some(&out.mask));
    let mut max_err: f64 = 0.0;
    for (&e, &count) in exact.energies().iter().zip(exact.counts()) {
        let bin = dos.grid().bin(e).expect("level in grid");
        assert!(out.mask[bin], "exact level {e} unvisited");
        max_err = max_err.max((dos.ln_g_bin(bin) - (count as f64).ln()).abs());
    }
    max_err
}

/// Killing one walker early leaves its window to the survivor: the run
/// completes, records the loss, and the merged DOS stays accurate.
#[test]
fn killed_walker_degrades_gracefully() {
    let (_, nt, comp, h) = system();
    let mut cfg = base_config(3);
    // Rank 3 = window 1, slot 1. Rank 0 (the gather root) must survive.
    cfg.faults = FaultPlan::none().kill_at_round(3, 4);
    cfg.telemetry = true;
    let out = run_rewl(&h, &nt, &comp, RANGE, &cfg).unwrap();
    common::assert_no_timeouts(&out);
    assert_eq!(out.lost_ranks, vec![3]);
    assert_eq!(out.windows[0].lost_walkers, 0);
    assert_eq!(out.windows[1].lost_walkers, 1);
    assert!(out.converged, "survivors should still converge");
    assert!(
        out.windows[0].exchange_attempts > 0,
        "exchange must keep running against the surviving slot"
    );
    let err = compare_to_exact(&out, &comp, &h);
    assert!(err < 0.8, "degraded DOS err {err}");
}

/// A checkpointed run that loses a rank can be rerun over the same
/// directory: the rerun resumes from the newest consistent snapshot,
/// revives the lost rank from its last written state, and converges to
/// the exact DOS with nothing lost.
#[test]
fn checkpointed_run_resumes_after_kill() {
    let (_, nt, comp, h) = system();
    let dir = std::env::temp_dir().join(format!("dtrewl-ft-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = base_config(3);
    cfg.checkpoint = Some(CheckpointSpec::new(&dir).every_rounds(5));
    // Kill rank 2 (window 1, slot 0) after the round-10 checkpoint exists.
    cfg.faults = FaultPlan::none().kill_at_round(2, 12);
    cfg.telemetry = true;
    let crashed = run_rewl(&h, &nt, &comp, RANGE, &cfg).unwrap();
    common::assert_no_timeouts(&crashed);
    assert_eq!(crashed.lost_ranks, vec![2]);
    assert_eq!(crashed.resumed_from, None);
    assert!(
        std::fs::read_dir(&dir).unwrap().count() > 0,
        "checkpoints must have been written"
    );

    // Same config, same directory, faults cleared: the rerun must resume
    // rather than start over, and must recover the lost walker.
    let mut cfg_retry = cfg.clone();
    cfg_retry.faults = FaultPlan::none();
    let out = run_rewl(&h, &nt, &comp, RANGE, &cfg_retry).unwrap();
    common::assert_no_timeouts(&out);
    assert!(
        out.resumed_from.is_some(),
        "second run must resume from a snapshot"
    );
    assert_eq!(out.lost_ranks, Vec::<usize>::new());
    assert_eq!(out.windows[1].lost_walkers, 0);
    assert!(out.converged);
    let err = compare_to_exact(&out, &comp, &h);
    assert!(err < 0.6, "resumed DOS err {err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint directory records the failure schedule it was written
/// under. Resuming it under a *different* non-empty schedule is refused
/// with a typed error (silently replaying a run under new faults would
/// invalidate any determinism claim); resuming under the identical
/// schedule — or with faults cleared — proceeds.
#[test]
fn resume_under_different_fault_plan_is_refused() {
    let (_, nt, comp, h) = system();
    let dir = std::env::temp_dir().join(format!("dtrewl-ft-planck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = base_config(9);
    cfg.wl.ln_f_final = 1e-3; // converge quickly; this test is about startup
    cfg.max_sweeps = 60_000;
    cfg.checkpoint = Some(CheckpointSpec::new(&dir).every_rounds(2));
    // A plan whose kill never fires: recorded into every manifest.
    cfg.faults = FaultPlan::none().kill_at_round(3, 999_999);
    let first = run_rewl(&h, &nt, &comp, RANGE, &cfg).unwrap();
    assert!(first.lost_ranks.is_empty());

    // Same directory, different schedule: refused before any work.
    let mut cfg_other = cfg.clone();
    cfg_other.faults = FaultPlan::none().kill_at_round(2, 7);
    match run_rewl(&h, &nt, &comp, RANGE, &cfg_other) {
        Err(dt_rewl::RewlError::FaultPlanMismatch {
            recorded,
            requested,
        }) => {
            assert!(recorded.contains("kill:3:999999"), "recorded: {recorded}");
            assert!(requested.contains("kill:2:7"), "requested: {requested}");
        }
        other => panic!("expected FaultPlanMismatch, got {other:?}"),
    }

    // The identical schedule resumes cleanly.
    let again = run_rewl(&h, &nt, &comp, RANGE, &cfg).unwrap();
    assert!(again.resumed_from.is_some(), "identical plan must resume");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Dropped protocol messages surface as bounded timeouts, never hangs:
/// both sides of a broken exchange abandon it and the run completes well
/// inside the fabric's watchdog.
#[test]
fn dropped_messages_never_hang_the_run() {
    let (_, nt, comp, h) = system();
    let mut cfg = base_config(3);
    // Round 0 pairs rank 0 with rank 2: drop the very first 0→2 message
    // (the exchange-energy request) and a later 2→0 protocol message.
    cfg.faults = FaultPlan::none()
        .drop_message(0, 2, 0)
        .drop_message(2, 0, 1);
    let start = Instant::now();
    let out = run_rewl(&h, &nt, &comp, RANGE, &cfg).unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs() < 120,
        "lossy run took {elapsed:?}; recv timeouts are not bounding waits"
    );
    assert_eq!(out.lost_ranks, Vec::<usize>::new());
    assert!(out.converged);
    let err = compare_to_exact(&out, &comp, &h);
    assert!(err < 0.6, "DOS err {err} after dropped messages");
}

/// Rank 0 is the gather root: losing it is unrecoverable and surfaces
/// as a typed error instead of a panic.
#[test]
fn root_rank_death_is_a_typed_error() {
    let (_, nt, comp, h) = system();
    let mut cfg = base_config(3);
    cfg.faults = FaultPlan::none().kill_at_round(0, 2);
    match run_rewl(&h, &nt, &comp, RANGE, &cfg) {
        Err(dt_rewl::RewlError::RootRankDied(cause)) => {
            assert!(cause.contains("rank 0"), "cause: {cause}");
        }
        other => panic!("expected RootRankDied, got {other:?}"),
    }
}
