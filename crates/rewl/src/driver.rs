//! The REWL drivers: configuration/result types and the thin
//! orchestration that wires a `RankEngine` (in `rank`) to a cluster.
//!
//! The per-rank work lives in `rank` (the phase state machine),
//! [`crate::exchange`] (the swap protocol), and `gather` (the
//! final merge). This module only decides *where* the ranks run:
//! [`run_rewl`] spawns them as threads on the in-memory fabric, while
//! [`run_rewl_on`] runs exactly one rank on a caller-supplied transport
//! (e.g. a TCP worker process). Either way each rank runs the same
//! `RankEngine` over one `Setup`: a layout and resume point computed once.

use dt_hamiltonian::EnergyModel;
use dt_hpc::{Communicator, FaultPlan, RankOutcome, ThreadCluster, Transport};
use dt_lattice::{Composition, Configuration, NeighborTable};
use dt_proposal::{LocalSwap, MoveStats, ProposalContext};
use dt_telemetry::RankTelemetry;
use dt_thermo::MicrocanonicalAccumulator;
use dt_wanglandau::{DosEstimate, EnergyGrid, WlParams, WlWalker};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

use crate::checkpoint::{self, CheckpointSpec, ResumePoint};
use crate::rank::{fits, RankEngine};
use crate::spec::KernelSpec;
use crate::windows::WindowLayout;

/// Configuration of a REWL run.
#[derive(Debug, Clone)]
pub struct RewlConfig {
    /// Number of energy windows `M`.
    pub num_windows: usize,
    /// Walkers per window `W` (total ranks = `M·W`).
    pub walkers_per_window: usize,
    /// Window overlap fraction, in (0, 1). Every preset uses the REWL
    /// standard 0.75; E9's ablation (`fig_replica_exchange`) sweeps it.
    pub overlap: f64,
    /// Bins of the global energy grid.
    pub num_bins: usize,
    /// Wang–Landau parameters applied per walker.
    pub wl: WlParams,
    /// Attempt replica exchange every this many sweeps.
    pub exchange_every_sweeps: u64,
    /// Record an SRO observation every this many sweeps.
    pub observe_every_sweeps: u64,
    /// Hard sweep cap per walker.
    pub max_sweeps: u64,
    /// Master seed (per-rank streams derive from it).
    pub seed: u64,
    /// Proposal kernels.
    pub kernel: KernelSpec,
    /// Injected failures applied by the simulated fabric (kills, message
    /// drops/delays) — [`FaultPlan::none`] for a reliable cluster. Only
    /// [`run_rewl`] reads this; [`run_rewl_on`] inherits whatever plan
    /// its communicator was built with.
    pub faults: FaultPlan,
    /// Periodic cluster checkpointing; `None` disables persistence. When
    /// set, [`run_rewl`] also *resumes* from the newest complete snapshot
    /// found in the directory (see [`crate::checkpoint`]), and a directory
    /// that cannot be created or holds another run's snapshots fails the
    /// run with [`RewlError::CheckpointUnusable`]. This is the one place a
    /// run's checkpoint directory is configured.
    pub checkpoint: Option<CheckpointSpec>,
    /// Record per-rank phase timings, acceptance counters, and message
    /// traffic into [`RewlOutput::telemetry`]. Off by default; when off
    /// the instrumentation reduces to a single branch per site.
    pub telemetry: bool,
    /// Place window boundaries with
    /// [`WindowLayout::equal_diffusion`] instead of the uniform layout,
    /// seeding the cost profile from a deterministic pilot pass
    /// ([`pilot_window_costs`]). Off by default — the uniform layout and
    /// all golden fingerprints are unchanged.
    pub adaptive_windows: bool,
    /// Every this many exchange rounds, rank 0 gathers round-trip
    /// statistics and may migrate one walker from the fastest window to
    /// the slowest (see [`crate::rebalance`]). `0` (the default)
    /// disables reallocation entirely: the `Rebalance` phase is a strict
    /// no-op — no messages, no RNG draws.
    pub rebalance_every: u64,
}

impl Default for RewlConfig {
    fn default() -> Self {
        RewlConfig {
            num_windows: 2,
            walkers_per_window: 2,
            overlap: 0.75,
            num_bins: 64,
            wl: WlParams::default(),
            exchange_every_sweeps: 10,
            observe_every_sweeps: 2,
            max_sweeps: 1_000_000,
            seed: 0,
            kernel: KernelSpec::LocalSwap,
            faults: FaultPlan::none(),
            checkpoint: None,
            telemetry: false,
            adaptive_windows: false,
            rebalance_every: 0,
        }
    }
}

/// Failures of a REWL run.
///
/// Every rank is fail-stop: a lost rank or message ends the run with
/// [`RewlError::PeerLost`] (or [`RewlError::RootRankDied`]), never with a
/// degraded answer. Rerunning the same configuration over the same
/// checkpoint directory resumes from the newest snapshot. A failed
/// checkpoint write is not an error: that round just has no snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewlError {
    /// Rank 0 — the collective coordinator and gather root — died.
    RootRankDied(String),
    /// The checkpoint directory records a different fault schedule than
    /// this run was asked to inject. Resuming would replay a different
    /// failure history (or re-kill ranks that already died), so the
    /// resume is refused outright. Re-run with the recorded plan, with no
    /// plan at all (an empty plan resumes anything), or point the run at
    /// a fresh checkpoint directory.
    FaultPlanMismatch {
        /// The plan recorded in the newest snapshot
        /// ([`FaultPlan::encode`] form).
        recorded: String,
        /// The plan this run was configured with.
        requested: String,
    },
    /// A peer died, went silent past its receive deadline, or sent a
    /// payload that does not decode, and this rank stopped. Restart every
    /// rank from the newest checkpoint.
    PeerLost {
        /// The rank that was lost: the one a receive waited for, or the
        /// contributor a convergence vote lost — rank 0 names it, every
        /// other rank names rank 0, which stopped on it.
        peer: usize,
        /// The exchange round in which the loss was noticed.
        round: u64,
    },
    /// The checkpoint directory cannot serve this run: it cannot be
    /// created, it holds the per-rank snapshot layout of older versions,
    /// or its newest snapshot belongs to another run — another
    /// configuration digest or rank count, or another energy grid or
    /// observable shape (another material, supercell or energy range
    /// under the same sampling settings). Use a fresh directory.
    CheckpointUnusable {
        /// The configured checkpoint directory.
        dir: PathBuf,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for RewlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewlError::RootRankDied(cause) => {
                write!(f, "rank 0 (the gather root) died: {cause}")
            }
            RewlError::FaultPlanMismatch {
                recorded,
                requested,
            } => write!(
                f,
                "checkpoint records fault plan `{recorded}` but this run requested \
                 `{requested}` — refusing to resume under a different failure schedule"
            ),
            RewlError::PeerLost { peer, round } => {
                write!(f, "lost rank {peer} in round {round} (fail-stop)")
            }
            RewlError::CheckpointUnusable { dir, reason } => write!(
                f,
                "checkpoint directory {} cannot serve this run: {reason}; use a fresh directory",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for RewlError {}

/// Per-window summary of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window index.
    pub window: usize,
    /// Exchange attempts with the next window.
    pub exchange_attempts: u64,
    /// Accepted exchanges with the next window.
    pub exchange_accepted: u64,
    /// Merged proposal statistics of the window's walkers.
    pub stats: MoveStats,
    /// Did every walker of the window converge?
    pub converged: bool,
    /// Final `ln f` (max over walkers).
    pub ln_f: f64,
    /// Completed round trips (lowest ↔ highest window bin) summed over
    /// the window's walkers. Move-count based — deterministic given the
    /// seed, identical across backends.
    pub round_trips: u64,
    /// Moves spent inside completed boundary crossings, summed over the
    /// window's walkers. `round_trip_moves / max(round_trips, 1)` is the
    /// window's mean round-trip cost.
    pub round_trip_moves: u64,
}

impl WindowReport {
    /// Replica-exchange acceptance rate toward the next window.
    pub fn exchange_rate(&self) -> f64 {
        if self.exchange_attempts == 0 {
            0.0
        } else {
            self.exchange_accepted as f64 / self.exchange_attempts as f64
        }
    }
}

/// The result of a REWL run.
#[derive(Debug, Clone)]
pub struct RewlOutput {
    /// Merged global density of states (un-normalized; use
    /// `normalize_total` with the composition's configuration count).
    pub dos: DosEstimate,
    /// Ever-visited mask over global bins.
    pub mask: Vec<bool>,
    /// Per-window reports.
    pub windows: Vec<WindowReport>,
    /// Did every walker converge before `max_sweeps`?
    pub converged: bool,
    /// Sweeps executed per walker.
    pub sweeps: u64,
    /// Merged microcanonical pair-probability accumulator
    /// (`obs_dim = num_shells · m²`, values are directed-pair
    /// probabilities `p_s(a,b)`), binned on the global grid.
    pub sro: MicrocanonicalAccumulator,
    /// Total MC moves across all walkers.
    pub total_moves: u64,
    /// The checkpoint round this run resumed from, when it did.
    pub resumed_from: Option<u64>,
    /// Per-rank telemetry snapshots, in rank order. Empty unless
    /// [`RewlConfig::telemetry`] was set.
    pub telemetry: Vec<RankTelemetry>,
    /// Walker migrations applied by dynamic reallocation, summed over
    /// the ranks (each migration counts once, on the migrant).
    /// Zero unless [`RewlConfig::rebalance_every`] was set.
    pub walkers_rebalanced: u64,
}

/// Seed the adaptive window solver with a deterministic pilot pass: one
/// short Wang–Landau walker per window of the *uniform* baseline layout,
/// each measuring its window's round-trip cost (mean moves per boundary
/// crossing, pending-leg moves when no crossing completed). Those
/// per-window costs feed [`WindowLayout::refit_equal_diffusion`], which
/// spreads them into a per-bin profile and re-solves the boundaries so
/// slow-diffusing windows shrink. Measuring round trips directly is what
/// makes the profile honest: visit-count occupancy proxies systematically
/// mistake "where the pilot happened to wander" for "where diffusion is
/// cheap".
///
/// Everything is derived from `seed` with a private RNG stream, so every
/// rank computes the identical costs with no communication, and a
/// resumed run rebuilds the identical layout.
///
/// Windows whose pilot walker cannot even enter its range (a
/// pathological configuration) report a flat unit cost; if that happens
/// everywhere the refit degenerates to the uniform layout.
pub fn pilot_window_costs<M: EnergyModel>(
    model: &M,
    neighbors: &NeighborTable,
    comp: &Composition,
    uniform: &WindowLayout,
    seed: u64,
) -> Vec<f64> {
    /// Sweep budget of each pilot walker — enough for several boundary
    /// crossings on test-sized systems, negligible next to the main run.
    const PILOT_SWEEPS: usize = 1024;
    /// Pilot walkers advance their own Wang–Landau stage on this sweep
    /// cadence so the measured dynamics resemble the production run
    /// rather than staying pinned at the initial `ln f`.
    const PILOT_CHECK_EVERY: usize = 4;
    /// Stream-splitting constant: keeps pilot RNGs disjoint from every
    /// per-rank stream (`seed ^ rank · 0x9E37…`).
    const PILOT_STREAM: u64 = 0x51C0_7AB5_D1F0_0E11;

    let ctx = ProposalContext {
        neighbors,
        composition: comp,
    };
    (0..uniform.num_windows())
        .map(|w| {
            let stream = seed ^ PILOT_STREAM ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = ChaCha8Rng::seed_from_u64(stream);
            let config = Configuration::random(comp, &mut rng);
            let mut walker = WlWalker::new(
                uniform.window_grid(w),
                WlParams::fast(),
                config,
                model,
                neighbors,
                Box::new(LocalSwap::new()),
                stream.rotate_left(17),
            );
            if !walker.drive_into_window(model, neighbors, 20_000) {
                return 1.0;
            }
            let mut since_check = 0usize;
            for _ in 0..PILOT_SWEEPS {
                walker.sweep(model, neighbors, &ctx);
                since_check += 1;
                if since_check >= PILOT_CHECK_EVERY {
                    walker.check_and_advance(model, neighbors);
                    since_check = 0;
                }
            }
            let rt = walker.round_trip_stats();
            if rt.crossings > 0 {
                rt.crossing_moves as f64 / rt.crossings as f64
            } else {
                // No full crossing in the budget: the unfinished leg's
                // length is a lower bound on the true cost and already
                // ranks the window as expensive.
                rt.pending_moves.max(1) as f64
            }
        })
        .collect()
}

/// Build the window layout for a run: uniform by default, cost-balanced
/// via the per-window pilot when `cfg.adaptive_windows` is set. Pure
/// given `cfg` — every rank calls this independently and gets the same
/// layout.
fn build_layout<M: EnergyModel>(
    model: &M,
    neighbors: &NeighborTable,
    comp: &Composition,
    (e_min, e_max): (f64, f64),
    cfg: &RewlConfig,
) -> WindowLayout {
    let grid = EnergyGrid::new(e_min, e_max, cfg.num_bins);
    let uniform = WindowLayout::new(grid, cfg.num_windows, cfg.overlap);
    if cfg.adaptive_windows {
        // The pilot runs at high ln f, where the Wang–Landau bias still
        // assists diffusion, so measured costs compress the converged-
        // regime skew roughly as a square root. Squaring restores it
        // before the boundary solver equalizes the profile.
        const PILOT_SKEW_EXPONENT: i32 = 2;
        let costs: Vec<f64> = pilot_window_costs(model, neighbors, comp, &uniform, cfg.seed)
            .into_iter()
            .map(|c| c.powi(PILOT_SKEW_EXPONENT))
            .collect();
        uniform.refit_equal_diffusion(&costs)
    } else {
        uniform
    }
}

/// What every rank of one run shares, computed once before any rank
/// starts: the inputs, the window layout, the configuration digest and
/// the snapshot to resume from.
pub(crate) struct Setup<'a, M> {
    pub(crate) model: &'a M,
    pub(crate) neighbors: &'a NeighborTable,
    pub(crate) comp: &'a Composition,
    pub(crate) cfg: &'a RewlConfig,
    pub(crate) layout: WindowLayout,
    pub(crate) digest: u64,
    pub(crate) resume: Option<ResumePoint>,
}

impl<'a, M: EnergyModel> Setup<'a, M> {
    /// Build the layout and find the resume point; `requested` is the
    /// fault plan the ranks will run under.
    ///
    /// # Errors
    /// Those of [`find_resume_point`].
    fn new(
        model: &'a M,
        neighbors: &'a NeighborTable,
        comp: &'a Composition,
        range: (f64, f64),
        cfg: &'a RewlConfig,
        requested: &FaultPlan,
    ) -> Result<Self, RewlError> {
        let layout = build_layout(model, neighbors, comp, range, cfg);
        let digest = checkpoint::config_digest(cfg);
        let obs_dim = model.num_shells() * comp.num_species().pow(2);
        let resume = find_resume_point(cfg, &layout, obs_dim, digest, requested)?;
        Ok(Setup {
            model,
            neighbors,
            comp,
            cfg,
            layout,
            digest,
            resume,
        })
    }
}

/// Locate the newest resume point for this config, creating the
/// checkpoint directory as a side effect. `Ok(None)` when checkpointing
/// is off or no snapshot decodes.
///
/// # Errors
/// [`RewlError::CheckpointUnusable`] when the directory cannot be
/// created, holds the older per-rank layout, or its newest snapshot was
/// written by another configuration or does not fit `layout` and
/// `obs_dim` (the digest guards the sampling settings, not the material
/// or the energy range).
/// [`RewlError::FaultPlanMismatch`] when the snapshot records a different
/// (non-empty vs different) fault schedule than `requested`. An empty
/// requested plan resumes anything — "rerun without faults" is the normal
/// recovery action after a faulty run, and what a restarted cluster does.
fn find_resume_point(
    cfg: &RewlConfig,
    layout: &WindowLayout,
    obs_dim: usize,
    digest: u64,
    requested: &FaultPlan,
) -> Result<Option<ResumePoint>, RewlError> {
    let Some(spec) = cfg.checkpoint.as_ref() else {
        return Ok(None);
    };
    let unusable = |reason: String| RewlError::CheckpointUnusable {
        dir: spec.dir.clone(),
        reason,
    };
    std::fs::create_dir_all(&spec.dir).map_err(|e| unusable(format!("cannot create it: {e}")))?;
    let size = cfg.num_windows * cfg.walkers_per_window;
    let Some(rp) = checkpoint::find_snapshot(&spec.dir, digest, size).map_err(unusable)? else {
        return Ok(None);
    };
    if *requested != FaultPlan::none() && rp.faults != *requested {
        return Err(RewlError::FaultPlanMismatch {
            recorded: rp.faults.encode(),
            requested: requested.encode(),
        });
    }
    if let Some(reason) = resume_mismatch(&rp, cfg, layout, obs_dim) {
        return Err(unusable(format!("round {} snapshot: {reason}", rp.round)));
    }
    Ok(Some(rp))
}

/// Why `rp` cannot seed this run's ranks, if it cannot: a rank's window
/// assignment, walker grid or SRO accumulator does not fit the layout.
fn resume_mismatch(
    rp: &ResumePoint,
    cfg: &RewlConfig,
    layout: &WindowLayout,
    obs_dim: usize,
) -> Option<String> {
    let size = rp.ranks.len();
    let global_bins = layout.global_grid().num_bins();
    for (rank, rc) in rp.ranks.iter().enumerate() {
        let window = match rc.assignment.as_slice() {
            [] => rank / cfg.walkers_per_window,
            a if a.len() == size && a.iter().all(|&w| w < cfg.num_windows) => a[rank],
            _ => return Some(format!("rank {rank}'s window assignment does not fit")),
        };
        let grid = layout.window_grid(window);
        if !fits(rc, &grid, global_bins, obs_dim) {
            let w = &rc.walker;
            return Some(format!(
                "rank {rank} sampled [{}, {}] in {} bins with {} SRO values per bin, \
                 but its window {window} is [{}, {}] in {} bins with {obs_dim}",
                w.e_min,
                w.e_max,
                w.num_bins,
                rc.obs_dim,
                grid.e_min(),
                grid.e_max(),
                grid.num_bins()
            ));
        }
    }
    None
}

/// Run REWL on a simulated cluster of `M·W` ranks (threads).
///
/// `range` is the global energy range `(e_min, e_max)` (discover it with
/// [`dt_wanglandau::explore_energy_range`]).
///
/// Fault tolerance is fail-stop: `cfg.faults` injects rank kills and
/// message drops/delays, and the first loss ends the run with an error.
/// With `cfg.checkpoint` the cluster snapshots itself periodically, and
/// calling this again with the same config over the same directory
/// resumes from the newest complete snapshot — for the local and
/// random-global kernels, bit-identical to a run that never failed.
///
/// # Errors
/// [`RewlError::RootRankDied`] when rank 0 dies, rank 0's
/// [`RewlError::PeerLost`] when any other rank or message is lost, and
/// the checkpoint errors of [`RewlError::CheckpointUnusable`] and
/// [`RewlError::FaultPlanMismatch`] before any sampling.
///
/// # Panics
/// Panics when a walker cannot reach its assigned energy window during
/// warm-up (a configuration problem, not a runtime fault).
pub fn run_rewl<M: EnergyModel + Sync>(
    model: &M,
    neighbors: &NeighborTable,
    comp: &Composition,
    range: (f64, f64),
    cfg: &RewlConfig,
) -> Result<RewlOutput, RewlError> {
    let setup = Setup::new(model, neighbors, comp, range, cfg, &cfg.faults)?;
    let size = cfg.num_windows * cfg.walkers_per_window;
    let outcomes = ThreadCluster::run_with_faults(size, cfg.faults.clone(), |comm| {
        RankEngine::new(comm, &setup).run()
    });
    // Rank 0 assembled the output, or returned the error that stopped it.
    match outcomes.into_iter().next() {
        Some(RankOutcome::Completed(run)) => Ok(run?.output.expect("rank 0 assembles the output")),
        Some(RankOutcome::Died { cause }) => Err(RewlError::RootRankDied(cause)),
        None => unreachable!("a cluster has a rank 0"),
    }
}

/// What [`run_rewl_on`] hands back for one rank of a cluster.
#[derive(Debug)]
pub struct RankRun {
    /// The assembled run output — `Some` only on rank 0 (the gather
    /// root); every other rank contributes its piece over the wire and
    /// returns `None` here.
    pub output: Option<RewlOutput>,
    /// This rank's own telemetry snapshot (when enabled). On rank 0 the
    /// cluster-wide snapshots are also in
    /// [`RewlOutput::telemetry`].
    pub telemetry: Option<RankTelemetry>,
}

/// Run ONE rank of a REWL cluster on a caller-supplied [`Transport`] —
/// the entry point for multi-process backends (each TCP worker process
/// calls this with its own [`Communicator`]).
///
/// The communicator's `rank`/`size` must match the
/// `num_windows · walkers_per_window` layout in `cfg`. Fault injection
/// comes from the plan the communicator was built with (`cfg.faults` is
/// not consulted). Checkpoint/resume behaves exactly as in [`run_rewl`]:
/// every rank reads the shared checkpoint directory and restores its own
/// slice. A fault-free run produces bit-identical `ln g` to the thread
/// backend under the same seed.
///
/// # Errors
/// The failure modes of [`run_rewl`], on every rank: once the cluster
/// has lost a rank or a message, every surviving rank returns
/// [`RewlError::PeerLost`]. (A dead rank 0 cannot return at all —
/// supervise the process instead.)
///
/// # Panics
/// Panics when a walker cannot reach its assigned energy window during
/// warm-up, or when the communicator size does not match the layout.
pub fn run_rewl_on<M: EnergyModel, T: Transport>(
    comm: Communicator<T>,
    model: &M,
    neighbors: &NeighborTable,
    comp: &Composition,
    range: (f64, f64),
    cfg: &RewlConfig,
) -> Result<RankRun, RewlError> {
    let size = cfg.num_windows * cfg.walkers_per_window;
    assert_eq!(
        comm.size(),
        size,
        "communicator size must equal num_windows × walkers_per_window"
    );
    let setup = Setup::new(model, neighbors, comp, range, cfg, comm.fault_plan())?;
    RankEngine::new(comm, &setup).run()
}
