//! Serial baseline driver: independent windows, no cluster.

use dt_hamiltonian::EnergyModel;
use dt_hpc::rank_rng;
use dt_lattice::{Composition, Configuration, NeighborTable};
use dt_proposal::ProposalContext;
use dt_telemetry::Telemetry;
use dt_thermo::MicrocanonicalAccumulator;
use dt_wanglandau::{EnergyGrid, WlWalker};

use crate::checkpoint::RankCheckpoint;
use crate::driver::{RewlConfig, RewlError, RewlOutput};
use crate::gather::assemble_output;
use crate::rank::{
    build_kernel, fill_pair_probabilities, init_deep_state, snapshot_rank_telemetry,
};
use crate::windows::WindowLayout;
use crate::wire::GatherPiece;

/// Serial baseline: run each window's walkers one after another (no
/// replica exchange and no weight sync). Useful as an
/// ablation (what replica exchange buys) and as a debugging reference.
///
/// # Errors
/// Never fails today (there is no cluster to lose ranks on); the
/// signature matches [`crate::run_rewl`] so callers can switch drivers
/// freely.
pub fn run_windows_serial<M: EnergyModel + Sync>(
    model: &M,
    neighbors: &NeighborTable,
    comp: &Composition,
    (e_min, e_max): (f64, f64),
    cfg: &RewlConfig,
) -> Result<RewlOutput, RewlError> {
    let layout = WindowLayout::new(
        EnergyGrid::new(e_min, e_max, cfg.num_bins),
        cfg.num_windows,
        cfg.overlap,
    );
    let size = cfg.num_windows * cfg.walkers_per_window;
    let m_species = comp.num_species();
    let num_shells = model.num_shells();
    let obs_dim = num_shells * m_species * m_species;

    let per_rank: Vec<_> = (0..size)
        .map(|rank| {
            let window = rank / cfg.walkers_per_window;
            let grid = layout.window_grid(window);
            let mut rng = rank_rng(cfg.seed, rank as u64);
            let tel = Telemetry::new(cfg.telemetry);
            let mut deep_state = init_deep_state(&cfg.kernel, comp, num_shells, &tel, &mut rng);
            let config = Configuration::random(comp, &mut rng);
            let kernel = build_kernel(&cfg.kernel, &deep_state);
            let mut walker = WlWalker::new(
                grid,
                cfg.wl.clone(),
                config,
                model,
                neighbors,
                kernel,
                cfg.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            assert!(
                walker.drive_into_window(model, neighbors, 20_000),
                "rank {rank}: failed to reach window {window}"
            );
            walker.set_telemetry(tel.clone());
            let ctx = ProposalContext {
                neighbors,
                composition: comp,
            };
            let mut sro = MicrocanonicalAccumulator::new(layout.global_grid().num_bins(), obs_dim);
            let mut obs_buf = vec![0.0f64; obs_dim];
            let mut sweeps = 0u64;
            let mut since_check = 0u64;
            while walker.ln_f() > cfg.wl.ln_f_final && sweeps < cfg.max_sweeps {
                walker.sweep(model, neighbors, &ctx);
                sweeps += 1;
                since_check += 1;
                if since_check >= cfg.wl.sweeps_per_check as u64 {
                    walker.check_and_advance(model, neighbors);
                    since_check = 0;
                }
                if sweeps % cfg.observe_every_sweeps == 0 {
                    if let Some(bin) = layout.global_grid().bin(walker.energy()) {
                        fill_pair_probabilities(
                            walker.config(),
                            neighbors,
                            num_shells,
                            m_species,
                            &mut obs_buf,
                        );
                        sro.record(bin, &obs_buf);
                    }
                }
                if let Some(ds) = deep_state.as_mut() {
                    if sweeps % ds.spec.sample_every_sweeps == 0 {
                        ds.buffer.push(walker.config().clone(), walker.energy());
                    }
                    if ds.retrain(sweeps, neighbors, walker.rng_mut()) {
                        walker.set_kernel(build_kernel(&cfg.kernel, &deep_state));
                    }
                }
            }
            let rt = walker.round_trip_stats();
            let snap = snapshot_rank_telemetry(
                &tel,
                rank,
                &walker,
                [0, 0, sweeps],
                [0, 0, 0],
                [rt.round_trips(), rt.crossing_ns, 0],
                None,
            );
            let piece = GatherPiece {
                state: RankCheckpoint {
                    stats: walker.stats().clone(),
                    walker: walker.checkpoint(),
                    ..RankCheckpoint::default()
                },
                ..GatherPiece::default()
            };
            (piece, sro, sweeps, snap)
        })
        .collect();

    let mut merged_sro = MicrocanonicalAccumulator::new(layout.global_grid().num_bins(), obs_dim);
    let mut pieces = Vec::with_capacity(size);
    let mut sweeps = 0;
    let mut telemetry = Vec::new();
    for (piece, sro, rank_sweeps, snap) in per_rank {
        merged_sro.merge(&sro);
        pieces.push(Some(piece));
        sweeps = sweeps.max(rank_sweeps);
        telemetry.extend(snap);
    }
    // The same assembly as the cluster driver's rank 0, over the uniform
    // assignment and with no rank lost.
    let assignment: Vec<usize> = (0..size).map(|r| r / cfg.walkers_per_window).collect();
    assemble_output(
        &layout,
        cfg,
        &assignment,
        &pieces,
        merged_sro,
        Vec::new(),
        sweeps,
        None,
        telemetry,
    )
}
