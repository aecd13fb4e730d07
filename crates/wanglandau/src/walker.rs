//! The Wang–Landau walker.

use std::time::Instant;

use dt_hamiltonian::{DeltaWorkspace, EnergyModel};
use dt_lattice::{Configuration, NeighborTable, SiteId};
use dt_proposal::{apply_move, move_delta, MoveStats, ProposalContext, ProposalKernel};
use dt_telemetry::{Phase, Telemetry};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::WalkerCheckpoint;
use crate::histogram::{DosEstimate, EnergyGrid, VisitHistogram};
use crate::schedule::{ScheduleState, WlParams};

/// Progress report of a Wang–Landau run.
#[derive(Debug, Clone, PartialEq)]
pub struct WlProgress {
    /// Did `ln f` reach `ln_f_final`?
    pub converged: bool,
    /// Sweeps executed.
    pub sweeps: u64,
    /// Number of `ln f` stage advances.
    pub stages: u32,
    /// Final `ln f`.
    pub ln_f: f64,
    /// Total proposals attempted.
    pub moves: u64,
}

/// First-passage / round-trip statistics of a walker inside its window.
///
/// A *crossing* is the leg from the first touch of one window boundary
/// to the first touch of the opposite one; two crossings make one round
/// trip. Boundaries are the walker's *explored extremes* (lowest and
/// highest ever-visited bins), not the window-edge bins: discrete
/// energy spectra can leave edge bins unreachable, and a boundary no
/// walker can touch would silently zero the statistics. Crossing
/// counts and move counts are deterministic given the seed (and are
/// checkpointed); wall-clock nanoseconds are telemetry-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTripStats {
    /// Completed boundary-to-opposite-boundary crossings.
    pub crossings: u64,
    /// Total moves spent inside completed crossings.
    pub crossing_moves: u64,
    /// Moves spent in the currently open leg (first passage in
    /// progress), or since birth if no boundary was touched yet.
    pub pending_moves: u64,
    /// Wall-clock nanoseconds spent in completed crossings
    /// (nondeterministic; excluded from checkpoints and fingerprints).
    pub crossing_ns: u64,
}

impl RoundTripStats {
    /// Completed round trips (two crossings each).
    pub fn round_trips(&self) -> u64 {
        self.crossings / 2
    }
}

/// A single Wang–Landau walker: configuration, running DOS estimate, visit
/// histogram, proposal kernel, and a private RNG stream.
///
/// One walker maps to one GPU in the paper's deployment; walkers are
/// `Send` so thread-parallel REWL can own one per worker thread.
pub struct WlWalker {
    grid: EnergyGrid,
    dos: DosEstimate,
    hist: VisitHistogram,
    params: WlParams,
    schedule: ScheduleState,
    config: Configuration,
    energy: f64,
    bin: usize,
    kernel: Box<dyn ProposalKernel>,
    workspace: DeltaWorkspace,
    stats: MoveStats,
    total_moves: u64,
    total_sweeps: u64,
    stages: u32,
    rng: ChaCha8Rng,
    tel: Telemetry,
    /// Last window boundary touched: 0 = none yet, -1 = low extreme,
    /// +1 = high extreme.
    rt_last_boundary: i8,
    rt_crossings: u64,
    rt_crossing_moves: u64,
    /// `total_moves` when the open leg started.
    rt_leg_start_moves: u64,
    /// Running lowest/highest ever-visited bin — the round-trip
    /// boundaries. Mirrors the histogram's `ever_visited` extremes
    /// exactly (updated in lockstep with every record), so restores
    /// rederive them from the checkpointed visit mask instead of
    /// persisting them. `(usize::MAX, 0)` until the first record.
    rt_min_bin: usize,
    rt_max_bin: usize,
    /// Telemetry-only wall-clock companions of the move counters.
    rt_crossing_ns: u64,
    rt_leg_start: Option<Instant>,
}

impl WlWalker {
    /// Build a walker. The starting configuration may lie outside the
    /// energy window; call [`WlWalker::drive_into_window`] before sampling
    /// if so.
    pub fn new<M: EnergyModel>(
        grid: EnergyGrid,
        params: WlParams,
        config: Configuration,
        model: &M,
        neighbors: &NeighborTable,
        kernel: Box<dyn ProposalKernel>,
        seed: u64,
    ) -> Self {
        let energy = model.total_energy(&config, neighbors);
        let bin = grid.bin(energy).unwrap_or(0);
        let num_sites = config.num_sites();
        WlWalker {
            dos: DosEstimate::new(grid.clone()),
            hist: VisitHistogram::new(grid.num_bins()),
            schedule: ScheduleState::new(&params),
            grid,
            params,
            config,
            energy,
            bin,
            kernel,
            workspace: DeltaWorkspace::new(num_sites),
            stats: MoveStats::new(),
            total_moves: 0,
            total_sweeps: 0,
            stages: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
            tel: Telemetry::disabled(),
            rt_last_boundary: 0,
            rt_crossings: 0,
            rt_crossing_moves: 0,
            rt_leg_start_moves: 0,
            rt_min_bin: usize::MAX,
            rt_max_bin: 0,
            rt_crossing_ns: 0,
            rt_leg_start: None,
        }
    }

    /// Is the walker's current energy inside its window?
    pub fn in_window(&self) -> bool {
        self.grid.bin(self.energy).is_some()
    }

    /// Greedy walk that moves the energy toward the window until it lands
    /// inside. Returns `false` if `max_sweeps` of driving did not succeed.
    pub fn drive_into_window<M: EnergyModel>(
        &mut self,
        model: &M,
        neighbors: &NeighborTable,
        max_sweeps: usize,
    ) -> bool {
        let target = 0.5 * (self.grid.e_min() + self.grid.e_max());
        let n = self.config.num_sites();
        // Annealed minimization of |E − target|: pure greed stalls in local
        // minima well short of deep (near-ground-state) windows, so allow
        // uphill distance moves at a temperature that decays per sweep.
        let mut temp = (self.grid.e_max() - self.grid.e_min()).max(1e-12);
        for _ in 0..max_sweeps {
            if self.in_window() {
                return true;
            }
            for _ in 0..n {
                let a = self.rng.random_range(0..n) as SiteId;
                let b = self.rng.random_range(0..n) as SiteId;
                if self.config.species_at(a) == self.config.species_at(b) {
                    continue;
                }
                let d = model.swap_delta(&self.config, neighbors, a, b);
                let dist_old = (self.energy - target).abs();
                let dist_new = (self.energy + d - target).abs();
                let accept = dist_new <= dist_old
                    || self.rng.random::<f64>() < (-(dist_new - dist_old) / temp).exp();
                if accept {
                    self.config.swap(a, b);
                    self.energy += d;
                    if self.in_window() {
                        self.bin = self.grid.bin(self.energy).expect("in window");
                        return true;
                    }
                }
            }
            temp *= 0.95;
        }
        self.in_window()
    }

    /// One Monte Carlo proposal with the Wang–Landau acceptance rule
    /// (including the asymmetric-proposal correction). Returns whether the
    /// move was accepted.
    pub fn step<M: EnergyModel>(
        &mut self,
        model: &M,
        neighbors: &NeighborTable,
        ctx: &ProposalContext<'_>,
    ) -> bool {
        debug_assert!(self.in_window(), "step() outside the energy window");
        let proposal = self.kernel.propose(&self.config, ctx, &mut self.rng);
        self.total_moves += 1;
        let delta = {
            let _span = self.tel.span(Phase::EnergyEval);
            move_delta(
                model,
                &self.config,
                neighbors,
                &proposal.mv,
                &mut self.workspace,
            )
        };
        let e_new = self.energy + delta;

        let accepted = match self.grid.bin(e_new) {
            None => false, // outside the window: reject, stay put
            Some(new_bin) => {
                let ln_a = self.dos.ln_g_bin(self.bin) - self.dos.ln_g_bin(new_bin)
                    + proposal.log_q_ratio();
                let accept = ln_a >= 0.0 || self.rng.random::<f64>() < ln_a.exp();
                if accept {
                    apply_move(&mut self.config, &proposal.mv);
                    self.energy = e_new;
                    self.bin = new_bin;
                }
                accept
            }
        };

        // Wang–Landau update of the *current* bin, accepted or not.
        self.dos.bump(self.bin, self.schedule.ln_f());
        self.hist.record(self.bin);
        self.note_boundary();
        self.stats.record(self.kernel.last_kernel_name(), accepted);
        accepted
    }

    /// Round-trip bookkeeping: crossing legs open on the first touch of a
    /// boundary bin and close on the first touch of the opposite one.
    /// Re-touching the same boundary leaves the open leg untouched.
    /// Boundaries are the explored extremes (see [`RoundTripStats`]);
    /// no crossings are counted until the explored span reaches 3 bins,
    /// so a walker camped on one energy level reports zero instead of a
    /// stream of trivial legs.
    fn note_boundary(&mut self) {
        self.rt_min_bin = self.rt_min_bin.min(self.bin);
        self.rt_max_bin = self.rt_max_bin.max(self.bin);
        if self.rt_max_bin < self.rt_min_bin + 2 {
            return;
        }
        let side: i8 = if self.bin == self.rt_min_bin {
            -1
        } else if self.bin == self.rt_max_bin {
            1
        } else {
            return;
        };
        if side == self.rt_last_boundary {
            return;
        }
        if self.rt_last_boundary != 0 {
            self.rt_crossings += 1;
            self.rt_crossing_moves += self.total_moves - self.rt_leg_start_moves;
            if let Some(t0) = self.rt_leg_start {
                self.rt_crossing_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        self.rt_last_boundary = side;
        self.rt_leg_start_moves = self.total_moves;
        self.rt_leg_start = Some(Instant::now());
    }

    /// First-passage / round-trip statistics accumulated since birth or
    /// restore.
    pub fn round_trip_stats(&self) -> RoundTripStats {
        RoundTripStats {
            crossings: self.rt_crossings,
            crossing_moves: self.rt_crossing_moves,
            pending_moves: self.total_moves - self.rt_leg_start_moves,
            crossing_ns: self.rt_crossing_ns,
        }
    }

    /// One sweep = `num_sites` proposals.
    pub fn sweep<M: EnergyModel>(
        &mut self,
        model: &M,
        neighbors: &NeighborTable,
        ctx: &ProposalContext<'_>,
    ) {
        // Clone the handle so the span's borrow does not pin `self`.
        let tel = self.tel.clone();
        let _span = tel.span(Phase::MoveBatch);
        for _ in 0..self.config.num_sites() {
            self.step(model, neighbors, ctx);
        }
        self.total_sweeps += 1;
    }

    /// Check flatness and advance the `ln f` schedule; resets the stage
    /// histogram and resyncs the accumulated energy when a stage completes.
    /// Returns `true` when the stage advanced.
    pub fn check_and_advance<M: EnergyModel>(
        &mut self,
        model: &M,
        neighbors: &NeighborTable,
    ) -> bool {
        // Classic schedule: min/mean flatness. Belardinelli–Pereyra 1/t:
        // phase 1 only requires every (ever-visited) bin to be hit at
        // least once per stage — the strict flatness criterion is exactly
        // what the 1/t method removes.
        let flat = match self.params.schedule {
            crate::schedule::LnfSchedule::Flatness { flatness, .. } => self.hist.is_flat(flatness),
            crate::schedule::LnfSchedule::OneOverT { .. } => self.hist.flatness() > 0.0,
        };
        let advanced = self.schedule.advance(
            self.params.schedule,
            flat,
            self.total_moves,
            self.grid.num_bins(),
        );
        if advanced {
            self.stages += 1;
            self.hist.reset_stage();
            // Guard against floating-point drift of the accumulated energy.
            self.energy = model.total_energy(&self.config, neighbors);
            self.bin = self.grid.bin(self.energy).unwrap_or(self.bin);
        }
        advanced
    }

    /// Run until `ln f` reaches `ln_f_final` or `max_sweeps` is exhausted.
    pub fn run<M: EnergyModel>(
        &mut self,
        model: &M,
        neighbors: &NeighborTable,
        ctx: &ProposalContext<'_>,
        max_sweeps: u64,
    ) -> WlProgress {
        let mut sweeps = 0u64;
        while self.schedule.ln_f() > self.params.ln_f_final && sweeps < max_sweeps {
            for _ in 0..self.params.sweeps_per_check {
                self.sweep(model, neighbors, ctx);
                sweeps += 1;
                if sweeps >= max_sweeps {
                    break;
                }
            }
            self.check_and_advance(model, neighbors);
        }
        WlProgress {
            converged: self.schedule.ln_f() <= self.params.ln_f_final,
            sweeps,
            stages: self.stages,
            ln_f: self.schedule.ln_f(),
            moves: self.total_moves,
        }
    }

    // ---- accessors -------------------------------------------------

    /// The walker's energy grid.
    pub fn grid(&self) -> &EnergyGrid {
        &self.grid
    }

    /// Current DOS estimate.
    pub fn dos(&self) -> &DosEstimate {
        &self.dos
    }

    /// Ever-visited mask (one flag per bin).
    pub fn visited_mask(&self) -> Vec<bool> {
        (0..self.grid.num_bins())
            .map(|b| self.hist.ever_visited(b))
            .collect()
    }

    /// Visit histogram.
    pub fn histogram(&self) -> &VisitHistogram {
        &self.hist
    }

    /// Current `ln f`.
    pub fn ln_f(&self) -> f64 {
        self.schedule.ln_f()
    }

    /// Stage count so far.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Total proposals so far.
    pub fn total_moves(&self) -> u64 {
        self.total_moves
    }

    /// Total sweeps so far.
    pub fn total_sweeps(&self) -> u64 {
        self.total_sweeps
    }

    /// Current configuration.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// Current energy.
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// `ln g` at an energy (for replica-exchange acceptance); `None`
    /// outside the window.
    pub fn ln_g_at(&self, energy: f64) -> Option<f64> {
        self.grid.bin(energy).map(|b| self.dos.ln_g_bin(b))
    }

    /// Replace the walker's state (replica exchange). The energy must
    /// correspond to the configuration; the caller guarantees it lies in
    /// this walker's window.
    pub fn set_state(&mut self, config: Configuration, energy: f64) {
        debug_assert!(self.grid.bin(energy).is_some());
        self.bin = self.grid.bin(energy).unwrap_or(self.bin);
        self.config = config;
        self.energy = energy;
    }

    /// Acceptance statistics by kernel.
    pub fn stats(&self) -> &MoveStats {
        &self.stats
    }

    /// Replace the acceptance statistics wholesale — used on
    /// checkpoint restore, where the saved counters belong to this
    /// walker's earlier life ([`WlWalker::from_checkpoint`] starts with
    /// empty statistics otherwise).
    pub fn set_stats(&mut self, stats: MoveStats) {
        self.stats = stats;
    }

    /// Swap in a new proposal kernel (e.g. after retraining the deep
    /// proposal network).
    pub fn set_kernel(&mut self, kernel: Box<dyn ProposalKernel>) {
        self.kernel = kernel;
    }

    /// Attach a telemetry handle; subsequent sweeps record
    /// [`Phase::MoveBatch`] and [`Phase::EnergyEval`] spans into it.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The walker's telemetry handle (disabled unless one was attached).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// The walker's private RNG (REWL uses it for exchange decisions).
    pub fn rng_mut(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// Snapshot the walker for persistence. The RNG stream and proposal
    /// kernel are NOT captured: restores resume with a fresh stream (and
    /// kernel), which preserves correctness (any valid stream is fine) but
    /// not bit-level replay across the checkpoint boundary.
    pub fn checkpoint(&self) -> WalkerCheckpoint {
        WalkerCheckpoint {
            e_min: self.grid.e_min(),
            e_max: self.grid.e_max(),
            num_bins: self.grid.num_bins(),
            ln_g: self.dos.ln_g().to_vec(),
            visits: (0..self.grid.num_bins())
                .map(|b| self.hist.visits(b))
                .collect(),
            ever_visited: self.visited_mask(),
            species: self.config.species().iter().map(|s| s.0).collect(),
            num_species: self.config.num_species(),
            energy: self.energy,
            ln_f: self.schedule.ln_f(),
            total_moves: self.total_moves,
            stages: self.stages,
            one_over_t_phase: self.schedule.in_one_over_t_phase(),
            rt_last_boundary: self.rt_last_boundary,
            rt_crossings: self.rt_crossings,
            rt_crossing_moves: self.rt_crossing_moves,
            rt_leg_start_moves: self.rt_leg_start_moves,
        }
    }

    /// Rebuild a walker from a checkpoint with a (possibly new) kernel and
    /// RNG seed. The DOS, histogram, configuration, energy, and schedule
    /// position are restored exactly.
    pub fn from_checkpoint(
        cp: &WalkerCheckpoint,
        params: WlParams,
        kernel: Box<dyn ProposalKernel>,
        seed: u64,
    ) -> Self {
        let grid = cp.grid();
        let config = cp.configuration();
        let bin = grid.bin(cp.energy).unwrap_or(0);
        let num_sites = config.num_sites();
        WlWalker {
            dos: cp.dos(),
            hist: cp.histogram(),
            schedule: ScheduleState::restore(cp.ln_f, cp.one_over_t_phase),
            grid,
            params,
            config,
            energy: cp.energy,
            bin,
            kernel,
            workspace: DeltaWorkspace::new(num_sites),
            stats: MoveStats::new(),
            total_moves: cp.total_moves,
            total_sweeps: 0,
            stages: cp.stages,
            rng: ChaCha8Rng::seed_from_u64(seed),
            tel: Telemetry::disabled(),
            rt_last_boundary: cp.rt_last_boundary,
            rt_crossings: cp.rt_crossings,
            rt_crossing_moves: cp.rt_crossing_moves,
            rt_leg_start_moves: cp.rt_leg_start_moves,
            // The round-trip boundaries mirror the ever-visited extremes
            // exactly, so rederive them from the checkpointed mask.
            rt_min_bin: cp
                .ever_visited
                .iter()
                .position(|&v| v)
                .unwrap_or(usize::MAX),
            rt_max_bin: cp.ever_visited.iter().rposition(|&v| v).unwrap_or(0),
            rt_crossing_ns: 0,
            rt_leg_start: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_hamiltonian::PairHamiltonian;
    use dt_lattice::{Composition, Structure, Supercell};
    use dt_proposal::LocalSwap;

    fn fixture() -> (Supercell, NeighborTable, Composition, PairHamiltonian) {
        let cell = Supercell::cubic(Structure::bcc(), 2);
        let nt = cell.neighbor_table(1);
        let comp = Composition::equiatomic(2, cell.num_sites()).unwrap();
        let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, 0.01)]);
        (cell, nt, comp, h)
    }

    fn make_walker(
        nt: &NeighborTable,
        comp: &Composition,
        h: &PairHamiltonian,
        seed: u64,
    ) -> WlWalker {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = Configuration::random(comp, &mut rng);
        // Binary antiferro on BCC L=2: energies span [0, N z/2 |V|] for
        // the + coupling; use generous range.
        let grid = EnergyGrid::new(-0.01, 0.65, 33);
        WlWalker::new(
            grid,
            WlParams::fast(),
            config,
            h,
            nt,
            Box::new(LocalSwap::new()),
            seed,
        )
    }

    #[test]
    fn steps_keep_walker_in_window() {
        let (_, nt, comp, h) = fixture();
        let mut w = make_walker(&nt, &comp, &h, 1);
        assert!(w.in_window());
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        for _ in 0..500 {
            w.step(&h, &nt, &ctx);
            assert!(w.in_window());
        }
        assert_eq!(w.total_moves(), 500);
        // Energy bookkeeping must match a full recompute.
        use dt_hamiltonian::EnergyModel as _;
        assert!((w.energy() - h.total_energy(w.config(), &nt)).abs() < 1e-9);
    }

    #[test]
    fn dos_grows_and_histogram_fills() {
        let (_, nt, comp, h) = fixture();
        let mut w = make_walker(&nt, &comp, &h, 2);
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        for _ in 0..20 {
            w.sweep(&h, &nt, &ctx);
        }
        assert!(w.histogram().total_visits() > 0);
        assert!(w.dos().ln_g_range(Some(&w.visited_mask())) > 0.0);
        assert!(w.histogram().num_visited() > 3);
    }

    #[test]
    fn run_converges_on_small_system() {
        let (_, nt, comp, h) = fixture();
        let mut w = make_walker(&nt, &comp, &h, 3);
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let progress = w.run(&h, &nt, &ctx, 50_000);
        assert!(progress.converged, "{progress:?}");
        assert!(progress.stages >= 10);
        assert!(w.ln_f() <= 1e-4);
    }

    #[test]
    fn drive_into_window_reaches_low_energy_window() {
        let (_, nt, comp, _) = fixture();
        // Unlike-preferring binary: ground state is B2 at E = -0.64; a
        // random start sits near -0.32, well above the target window.
        let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let config = Configuration::random(&comp, &mut rng);
        // The L=2 spectrum is gapped; include the B2 ground state (-0.64)
        // so the window is certainly reachable while still excluding the
        // random-start energy (≈ -0.32).
        let grid = EnergyGrid::new(-0.65, -0.55, 10);
        let mut w = WlWalker::new(
            grid,
            WlParams::fast(),
            config,
            &h,
            &nt,
            Box::new(LocalSwap::new()),
            4,
        );
        assert!(!w.in_window(), "random start should be outside");
        let reached = w.drive_into_window(&h, &nt, 200);
        assert!(reached, "driver failed to reach window");
        assert!(w.in_window());
    }

    #[test]
    fn stats_are_recorded_under_kernel_name() {
        let (_, nt, comp, h) = fixture();
        let mut w = make_walker(&nt, &comp, &h, 5);
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        for _ in 0..100 {
            w.step(&h, &nt, &ctx);
        }
        let (proposed, _) = w.stats().counts("local-swap");
        assert_eq!(proposed, 100);
    }

    #[test]
    fn telemetry_records_sweep_and_delta_spans() {
        let (_, nt, comp, h) = fixture();
        let mut w = make_walker(&nt, &comp, &h, 8);
        let tel = Telemetry::enabled();
        w.set_telemetry(tel.clone());
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        w.sweep(&h, &nt, &ctx);
        let snap = tel.snapshot(0);
        assert_eq!(snap.phase_stat(Phase::MoveBatch).unwrap().count, 1);
        assert_eq!(
            snap.phase_stat(Phase::EnergyEval).unwrap().count,
            w.config().num_sites() as u64
        );
    }

    #[test]
    fn round_trips_accumulate_and_survive_checkpoint() {
        let (_, nt, comp, h) = fixture();
        // A narrow window over reachable energies (0.32 … 0.40) so the
        // walker touches both boundary bins quickly.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let config = Configuration::random(&comp, &mut rng);
        let grid = EnergyGrid::new(0.31, 0.41, 5);
        let mut w = WlWalker::new(
            grid,
            WlParams::fast(),
            config,
            &h,
            &nt,
            Box::new(LocalSwap::new()),
            11,
        );
        if !w.in_window() {
            assert!(w.drive_into_window(&h, &nt, 500));
        }
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        for _ in 0..2_000 {
            w.sweep(&h, &nt, &ctx);
            if w.round_trip_stats().crossings >= 2 {
                break;
            }
        }
        let rt = w.round_trip_stats();
        assert!(rt.crossings >= 2, "walker never crossed: {rt:?}");
        assert!(rt.crossing_moves > 0);
        assert_eq!(rt.round_trips(), rt.crossings / 2);
        // Deterministic fields survive a checkpoint round trip exactly;
        // wall-clock ns restarts at zero.
        let cp = w.checkpoint();
        let restored =
            WlWalker::from_checkpoint(&cp, WlParams::fast(), Box::new(LocalSwap::new()), 11);
        let rt2 = restored.round_trip_stats();
        assert_eq!(rt2.crossings, rt.crossings);
        assert_eq!(rt2.crossing_moves, rt.crossing_moves);
        assert_eq!(rt2.pending_moves, rt.pending_moves);
        assert_eq!(rt2.crossing_ns, 0);
    }

    #[test]
    fn set_state_moves_walker() {
        let (_, nt, comp, h) = fixture();
        let mut w = make_walker(&nt, &comp, &h, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let other = Configuration::random(&comp, &mut rng);
        use dt_hamiltonian::EnergyModel as _;
        let e = h.total_energy(&other, &nt);
        w.set_state(other.clone(), e);
        assert_eq!(w.config(), &other);
        assert_eq!(w.energy(), e);
    }
}
