//! The whole-cluster restart loop of `deepthermo run --recover`, in
//! process: shared by the integration tests that kill ranks and expect
//! the fault-free answer back, with the bit-identity check they compare
//! by, and the telemetry guard that a run never waited out a receive
//! deadline.
#![allow(dead_code)]

use dt_hamiltonian::PairHamiltonian;
use dt_hpc::{FaultPlan, RankOutcome, TcpCluster};
use dt_lattice::{Composition, NeighborTable};
use dt_rewl::{run_rewl_on, RankRun, RewlConfig, RewlOutput};

/// Lives a test cluster may take before the helper gives up.
const MAX_LIVES: u64 = 4;

/// Run `cfg` over loopback TCP life after life until rank 0 returns the
/// output: the first life under `plan`, every restart with
/// [`FaultPlan::none`] (resuming from the newest complete checkpoint in
/// `cfg.checkpoint`). Returns the output and how many restarts it took.
pub fn run_restarting(
    model: &PairHamiltonian,
    neighbors: &NeighborTable,
    comp: &Composition,
    range: (f64, f64),
    cfg: &RewlConfig,
    plan: FaultPlan,
) -> (RewlOutput, u64) {
    let size = cfg.num_windows * cfg.walkers_per_window;
    let mut plan = plan;
    for restarts in 0..MAX_LIVES {
        let outcomes = TcpCluster::run_loopback(size, plan, |comm| {
            run_rewl_on(comm, model, neighbors, comp, range, cfg)
        });
        let root = outcomes.into_iter().next().and_then(RankOutcome::completed);
        if let Some(Ok(RankRun {
            output: Some(out), ..
        })) = root
        {
            return (out, restarts);
        }
        plan = FaultPlan::none();
    }
    panic!("no life of the cluster completed in {MAX_LIVES} tries");
}

/// Every gathered rank finished without a single receive deadline
/// expiring. A run whose ranks disagree on the message schedule still
/// completes, only late, each wait ending in a timeout; this turns that
/// slow pass into a failure. Needs [`RewlConfig::telemetry`] on.
#[track_caller]
pub fn assert_no_timeouts(out: &RewlOutput) {
    assert!(!out.telemetry.is_empty(), "telemetry must be on");
    for snap in &out.telemetry {
        let timeouts = snap
            .counters
            .iter()
            .find(|(n, _)| n == "comm_timeouts")
            .map(|(_, v)| *v);
        assert_eq!(timeouts, Some(0), "rank {} comm_timeouts", snap.rank);
    }
}

/// Every scientific bit of two outputs must match.
#[track_caller]
pub fn assert_bit_identical(a: &RewlOutput, b: &RewlOutput) {
    assert_eq!(a.dos.grid().num_bins(), b.dos.grid().num_bins());
    for bin in 0..a.dos.grid().num_bins() {
        assert_eq!(
            a.dos.ln_g_bin(bin).to_bits(),
            b.dos.ln_g_bin(bin).to_bits(),
            "ln g differs at bin {bin}"
        );
    }
    assert_eq!(a.mask, b.mask);
    assert_eq!(a.sro.num_bins(), b.sro.num_bins());
    for bin in 0..a.sro.num_bins() {
        assert_eq!(a.sro.count(bin), b.sro.count(bin), "sro count bin {bin}");
        let (ma, mb) = (a.sro.bin_mean(bin), b.sro.bin_mean(bin));
        match (ma, mb) {
            (Some(ma), Some(mb)) => {
                for (va, vb) in ma.iter().zip(mb.iter()) {
                    assert_eq!(va.to_bits(), vb.to_bits(), "sro mean bin {bin}");
                }
            }
            (None, None) => {}
            _ => panic!("sro visited-mask differs at bin {bin}"),
        }
    }
    assert_eq!(a.converged, b.converged);
    assert_eq!(a.sweeps, b.sweeps);
    assert_eq!(a.total_moves, b.total_moves);
    assert_eq!(a.walkers_rebalanced, b.walkers_rebalanced);
    for (wa, wb) in a.windows.iter().zip(b.windows.iter()) {
        assert_eq!(wa, wb, "window report differs");
    }
}
