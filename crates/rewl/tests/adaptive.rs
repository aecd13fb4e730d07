//! Adaptive energy windows + dynamic walker reallocation, end to end.
//!
//! Three guarantees, each pinned by a test:
//!
//! 1. an adaptive run (pilot-seeded non-uniform windows + periodic
//!    rebalancing) still converges and reports round-trip statistics;
//! 2. the adaptive protocol is backend-agnostic: thread fabric and
//!    loopback TCP produce bit-identical output under the same seed;
//! 3. the adaptive protocol composes with fail-stop restarts: a mid-run
//!    rank kill, restarted from the checkpoint, converges to exactly the
//!    fault-free answer, bit for bit — rebalance plans are deterministic
//!    given the run seed, so the restarted cluster replays the same
//!    migrations.

mod common;

use dt_hamiltonian::PairHamiltonian;
use dt_hpc::{FaultPlan, RankOutcome, TcpCluster};
use dt_lattice::{Composition, Structure, Supercell};
use dt_rewl::{
    pilot_window_costs, run_rewl, run_rewl_on, CheckpointSpec, KernelSpec, RewlConfig, RewlOutput,
    WindowLayout,
};
use dt_wanglandau::{EnergyGrid, LnfSchedule, WlParams};

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

fn adaptive_config(seed: u64) -> RewlConfig {
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
        adaptive_windows: true,
        rebalance_every: 2,
        ..RewlConfig::default()
    }
}

fn run_over_tcp(cfg: &RewlConfig, plan: FaultPlan) -> RewlOutput {
    let (_, nt, comp, h) = system();
    let size = cfg.num_windows * cfg.walkers_per_window;
    let outcomes = TcpCluster::run_loopback(size, plan, |comm| {
        run_rewl_on(comm, &h, &nt, &comp, RANGE, cfg)
    });
    let mut root = None;
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        if let RankOutcome::Completed(run) = outcome {
            let run = run.expect("no unrecoverable error");
            if rank == 0 {
                root = run.output;
            }
        }
    }
    root.expect("rank 0 assembles the output")
}

/// The pilot pass is a pure function of (system, layout, seed): same
/// seed, same per-window costs, bit for bit — every rank can compute it
/// locally without communication.
#[test]
fn pilot_window_costs_are_deterministic() {
    let (_, nt, comp, h) = system();
    let grid = EnergyGrid::new(RANGE.0, RANGE.1, 49);
    let uniform = WindowLayout::new(grid, 2, 0.75);
    let a = pilot_window_costs(&h, &nt, &comp, &uniform, 7);
    let b = pilot_window_costs(&h, &nt, &comp, &uniform, 7);
    assert_eq!(a.len(), 2);
    assert!(a.iter().all(|c| c.is_finite() && *c > 0.0));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "pilot costs must be pure");
    }
    let c = pilot_window_costs(&h, &nt, &comp, &uniform, 8);
    assert!(
        a.iter().zip(&c).any(|(x, y)| x.to_bits() != y.to_bits()),
        "different seeds should explore differently"
    );
}

/// An adaptive run converges and reports per-window round-trip stats
/// through the window reports.
#[test]
fn adaptive_run_converges_and_reports_round_trips() {
    let (_, nt, comp, h) = system();
    let cfg = adaptive_config(7);
    let out = run_rewl(&h, &nt, &comp, RANGE, &cfg).unwrap();
    assert!(out.converged, "adaptive run must still converge");
    // The BCC-2 toy spectrum is discrete — only a handful of bins are
    // reachable — so assert the visited set matches the uniform-layout
    // run rather than full coverage.
    let mut uniform_cfg = cfg.clone();
    uniform_cfg.adaptive_windows = false;
    uniform_cfg.rebalance_every = 0;
    let uniform = run_rewl(&h, &nt, &comp, RANGE, &uniform_cfg).unwrap();
    assert_eq!(out.mask, uniform.mask, "same reachable bins either way");
    for w in &out.windows {
        assert!(
            w.round_trips > 0,
            "window {} reported no round trips",
            w.window
        );
        assert!(w.round_trip_moves > 0);
    }
}

/// The adaptive protocol (pilot layout, RT stats gossip, rebalance
/// rounds) is backend-agnostic: loopback TCP reproduces the thread
/// fabric bit for bit.
#[test]
fn adaptive_tcp_run_matches_thread_backend_bit_for_bit() {
    let (_, nt, comp, h) = system();
    let cfg = adaptive_config(7);
    let thread_out = run_rewl(&h, &nt, &comp, RANGE, &cfg).unwrap();
    let tcp_out = run_over_tcp(&cfg, FaultPlan::none());
    common::assert_bit_identical(&thread_out, &tcp_out);
}

/// The adaptive protocol composes with fail-stop restarts: adaptive
/// windows + periodic rebalancing + a mid-run rank kill restarted from
/// the checkpoint must converge to exactly the fault-free answer. This pins two
/// properties at once: rebalance plans are deterministic given the run
/// seed, and a restarted rank restores its window assignment (possibly
/// migrated) from its checkpoint.
#[test]
fn adaptive_recovery_run_is_bit_identical_to_fault_free() {
    let (_, nt, comp, h) = system();
    let dir = std::env::temp_dir().join(format!("dtrewl-adaptive-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let baseline = run_rewl(&h, &nt, &comp, RANGE, &adaptive_config(5)).unwrap();

    let mut cfg = adaptive_config(5);
    cfg.checkpoint = Some(CheckpointSpec::new(&dir).every_rounds(1));
    // Rank 1 dies at round 3 — the round right after a rebalance round
    // (cadence 2 fires at rounds 1, 3, 5, ...), so the restarted cluster
    // must restore a possibly-migrated assignment from the round-3
    // snapshot and replay the round-3 rebalance deterministically.
    let plan = FaultPlan::none().kill_at_round(1, 3);
    let (out, restarts) = common::run_restarting(&h, &nt, &comp, RANGE, &cfg, plan);

    assert_eq!(restarts, 1, "one whole-cluster restart");
    common::assert_bit_identical(&baseline, &out);
    let _ = std::fs::remove_dir_all(&dir);
}
