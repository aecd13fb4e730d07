//! Fault-tolerance integration on the thread backend: every rank is
//! fail-stop, so a lost walker or message fails the run with a typed
//! error, never a hang or a degraded answer, and rerunning over the
//! checkpoint directory resumes to the fault-free result bit for bit.

mod common;

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dt_hamiltonian::{exact::ExactDos, PairHamiltonian};
use dt_hpc::{FaultEvent, FaultPlan};
use dt_lattice::{Composition, Structure, Supercell};
use dt_rewl::exchange::tags;
use dt_rewl::{run_rewl, CheckpointSpec, KernelSpec, RewlConfig, RewlError, RewlOutput};
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

/// `base_config` stopped at `ln f = 1e-3`: enough rounds to checkpoint,
/// fail and resume, for the tests that compare bits, not accuracy.
fn quick_config(seed: u64) -> RewlConfig {
    let mut cfg = base_config(seed);
    cfg.wl.ln_f_final = 1e-3;
    cfg.max_sweeps = 60_000;
    cfg
}

/// The fault-free `quick_config(3)` run the fail-stop tests compare with.
fn baseline() -> &'static RewlOutput {
    static BASELINE: OnceLock<RewlOutput> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let (_, nt, comp, h) = system();
        run_rewl(&h, &nt, &comp, RANGE, &quick_config(3)).unwrap()
    })
}

/// A fresh checkpoint directory for the test `label`.
fn temp_dir_for(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtrewl-ft-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `cfg` under `faults`, expect it to fail with `PeerLost`, then
/// rerun it fault-free over the same checkpoint directory and return the
/// rerun's output (telemetry on, no receive deadline expired).
fn fail_then_rerun(cfg: &RewlConfig, faults: FaultPlan) -> RewlOutput {
    let (_, nt, comp, h) = system();
    let mut faulty = cfg.clone();
    faulty.faults = faults;
    match run_rewl(&h, &nt, &comp, RANGE, &faulty) {
        Err(RewlError::PeerLost { .. }) => {}
        other => panic!("expected PeerLost, got {other:?}"),
    }
    let mut rerun = cfg.clone();
    rerun.telemetry = true;
    let out = run_rewl(&h, &nt, &comp, RANGE, &rerun).unwrap();
    common::assert_no_timeouts(&out);
    out
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

/// Killing a walker fails the run with `PeerLost`; rerunning over the
/// checkpoint directory resumes from the round-5 snapshot and ends
/// bit-identical to the fault-free run.
#[test]
fn killed_walker_fails_the_run_and_the_rerun_is_bit_identical() {
    let dir = temp_dir_for("kill");
    let mut cfg = quick_config(3);
    cfg.checkpoint = Some(CheckpointSpec::new(&dir).every_rounds(5));
    // Rank 3 = window 1, slot 1.
    let out = fail_then_rerun(&cfg, FaultPlan::none().kill_at_round(3, 7));
    assert_eq!(out.resumed_from, Some(5));
    common::assert_bit_identical(baseline(), &out);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpointed run that loses a rank fails, and can be rerun over the
/// same directory: the rerun resumes from the newest complete snapshot
/// and converges to the exact DOS.
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
    match run_rewl(&h, &nt, &comp, RANGE, &cfg) {
        Err(RewlError::PeerLost { .. }) => {}
        other => panic!("expected PeerLost, got {other:?}"),
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().count() > 0,
        "checkpoints must have been written"
    );

    // Same config, same directory, faults cleared: the rerun must resume
    // rather than start over.
    let mut cfg_retry = cfg.clone();
    cfg_retry.faults = FaultPlan::none();
    let out = run_rewl(&h, &nt, &comp, RANGE, &cfg_retry).unwrap();
    common::assert_no_timeouts(&out);
    assert!(
        out.resumed_from.is_some(),
        "second run must resume from a snapshot"
    );
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
    run_rewl(&h, &nt, &comp, RANGE, &cfg).unwrap();

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

/// A message lost for good is a loss like a death: the receiver's
/// deadline (about 6 s of retries) runs out, the run fails with
/// `PeerLost` instead of hanging, and the fault-free rerun from the
/// round-5 snapshot matches the fault-free run bit for bit.
#[test]
fn dropped_messages_never_hang_the_run() {
    let dir = temp_dir_for("drop");
    let mut cfg = quick_config(3);
    cfg.checkpoint = Some(CheckpointSpec::new(&dir).every_rounds(5));
    // Rank 1 initiates toward rank 3 in every even round: drop its
    // round-6 opener.
    let plan = FaultPlan::new(vec![FaultEvent::DropMessage {
        from: 1,
        to: 3,
        tag: Some(tags::with_round(tags::EXCH_ENERGY, 6)),
        nth_match: 0,
    }]);
    let start = Instant::now();
    let out = fail_then_rerun(&cfg, plan);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "lossy run and rerun took {elapsed:?}; receive deadlines are not bounding waits"
    );
    assert_eq!(out.resumed_from, Some(5));
    common::assert_bit_identical(baseline(), &out);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot taken on one energy range cannot seed a run on another:
/// the digest covers the sampling settings only, so the run checks
/// every restored walker against the layout and refuses the directory.
#[test]
fn resume_on_a_different_energy_grid_is_refused() {
    let (_, nt, comp, h) = system();
    let dir = temp_dir_for("grid");
    let mut cfg = quick_config(9);
    cfg.checkpoint = Some(CheckpointSpec::new(&dir).every_rounds(2));
    run_rewl(&h, &nt, &comp, RANGE, &cfg).unwrap();
    let shifted = (RANGE.0 - 0.05, RANGE.1);
    match run_rewl(&h, &nt, &comp, shifted, &cfg) {
        Err(RewlError::CheckpointUnusable { dir: at, reason }) => {
            assert_eq!(at, dir);
            assert!(
                reason.contains("rank 0 sampled [-0.645"),
                "reason: {reason}"
            );
        }
        other => panic!("expected CheckpointUnusable, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint directory that cannot be created fails the run up
/// front: a run without snapshots could not be restarted.
#[test]
fn uncreatable_checkpoint_directory_is_refused() {
    let (_, nt, comp, h) = system();
    let file = temp_dir_for("file");
    std::fs::write(&file, "not a directory").unwrap();
    let mut cfg = quick_config(3);
    cfg.checkpoint = Some(CheckpointSpec::new(file.join("ck")));
    match run_rewl(&h, &nt, &comp, RANGE, &cfg) {
        Err(RewlError::CheckpointUnusable { reason, .. }) => {
            assert!(reason.contains("cannot create"), "reason: {reason}");
        }
        other => panic!("expected CheckpointUnusable, got {other:?}"),
    }
    let _ = std::fs::remove_file(&file);
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
