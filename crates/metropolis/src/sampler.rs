//! Single-temperature Metropolis–Hastings sampling.

use dt_hamiltonian::{DeltaWorkspace, EnergyModel, KB_EV_PER_K};
use dt_lattice::{Configuration, NeighborTable};
use dt_proposal::{apply_move, move_delta, MoveStats, ProposalContext, ProposalKernel};
use dt_telemetry::{Phase, Telemetry};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Summary statistics of a sampling run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Mean energy ⟨E⟩ (eV).
    pub mean_energy: f64,
    /// Energy variance ⟨E²⟩ − ⟨E⟩² (eV²).
    pub var_energy: f64,
    /// Heat capacity `C_v/k_B = β² Var(E)`.
    pub cv: f64,
    /// Number of measurements.
    pub samples: usize,
}

/// A canonical-ensemble Metropolis–Hastings sampler at fixed temperature.
///
/// Works with any [`ProposalKernel`]; asymmetric kernels are corrected via
/// their reported log proposal ratio:
/// `A = min(1, exp(−βΔE + ln q_rev − ln q_fwd))`.
pub struct MetropolisSampler {
    config: Configuration,
    energy: f64,
    beta: f64,
    temperature: f64,
    kernel: Box<dyn ProposalKernel>,
    workspace: DeltaWorkspace,
    stats: MoveStats,
    rng: ChaCha8Rng,
    total_moves: u64,
    tel: Telemetry,
}

impl MetropolisSampler {
    /// Build a sampler at `temperature` (K).
    pub fn new<M: EnergyModel>(
        temperature: f64,
        config: Configuration,
        model: &M,
        neighbors: &NeighborTable,
        kernel: Box<dyn ProposalKernel>,
        seed: u64,
    ) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        let energy = model.total_energy(&config, neighbors);
        let n = config.num_sites();
        MetropolisSampler {
            config,
            energy,
            beta: 1.0 / (KB_EV_PER_K * temperature),
            temperature,
            kernel,
            workspace: DeltaWorkspace::new(n),
            stats: MoveStats::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            total_moves: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; subsequent sweeps record
    /// [`Phase::MoveBatch`] and [`Phase::EnergyEval`] spans into it.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// One proposal; returns whether it was accepted.
    pub fn step<M: EnergyModel>(
        &mut self,
        model: &M,
        neighbors: &NeighborTable,
        ctx: &ProposalContext<'_>,
    ) -> bool {
        self.total_moves += 1;
        let proposal = self.kernel.propose(&self.config, ctx, &mut self.rng);
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
        let ln_a = -self.beta * delta + proposal.log_q_ratio();
        let accepted = ln_a >= 0.0 || self.rng.random::<f64>() < ln_a.exp();
        if accepted {
            apply_move(&mut self.config, &proposal.mv);
            self.energy += delta;
        }
        self.stats.record(self.kernel.last_kernel_name(), accepted);
        accepted
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
    }

    /// Equilibrate for `sweeps`, then measure every `measure_every` sweeps
    /// for `measure_sweeps`, calling `observe(config, energy)` at each
    /// measurement. Returns run statistics of the energy series.
    #[allow(clippy::too_many_arguments)]
    pub fn run<M: EnergyModel, F: FnMut(&Configuration, f64)>(
        &mut self,
        model: &M,
        neighbors: &NeighborTable,
        ctx: &ProposalContext<'_>,
        equilibration_sweeps: usize,
        measure_sweeps: usize,
        measure_every: usize,
        mut observe: F,
    ) -> RunStats {
        for _ in 0..equilibration_sweeps {
            self.sweep(model, neighbors, ctx);
        }
        // Guard against accumulated floating-point drift.
        self.energy = model.total_energy(&self.config, neighbors);

        let every = measure_every.max(1);
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let mut n = 0usize;
        for s in 0..measure_sweeps {
            self.sweep(model, neighbors, ctx);
            if s % every == 0 {
                observe(&self.config, self.energy);
                sum += self.energy;
                sum2 += self.energy * self.energy;
                n += 1;
            }
        }
        let mean = sum / n as f64;
        let var = (sum2 / n as f64 - mean * mean).max(0.0);
        RunStats {
            mean_energy: mean,
            var_energy: var,
            cv: self.beta * self.beta * var,
            samples: n,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// Current energy (eV).
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Sampling temperature (K).
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Inverse temperature (1/eV).
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Acceptance statistics.
    pub fn stats(&self) -> &MoveStats {
        &self.stats
    }

    /// Total proposals attempted.
    pub fn total_moves(&self) -> u64 {
        self.total_moves
    }

    /// Exchange configurations with another sampler (used by parallel
    /// tempering once an exchange is accepted).
    pub fn swap_state_with(&mut self, other: &mut MetropolisSampler) {
        std::mem::swap(&mut self.config, &mut other.config);
        std::mem::swap(&mut self.energy, &mut other.energy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_hamiltonian::{exact::ExactDos, PairHamiltonian};
    use dt_lattice::{Composition, Structure, Supercell};
    use dt_proposal::LocalSwap;

    fn system() -> (Supercell, NeighborTable, Composition, PairHamiltonian) {
        let cell = Supercell::cubic(Structure::bcc(), 2);
        let nt = cell.neighbor_table(1);
        let comp = Composition::equiatomic(2, cell.num_sites()).unwrap();
        let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
        (cell, nt, comp, h)
    }

    #[test]
    fn mean_energy_matches_exact_canonical_average() {
        let (_, nt, comp, h) = system();
        let exact = ExactDos::enumerate(&h, &nt, &comp);
        let t = 800.0;
        let beta = 1.0 / (KB_EV_PER_K * t);
        let exact_u = exact.mean_energy(beta);

        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let config = Configuration::random(&comp, &mut rng);
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut sampler = MetropolisSampler::new(t, config, &h, &nt, Box::new(LocalSwap::new()), 1);
        let stats = sampler.run(&h, &nt, &ctx, 200, 4000, 2, |_, _| {});
        assert!(
            (stats.mean_energy - exact_u).abs() < 0.01,
            "MC {} vs exact {exact_u}",
            stats.mean_energy
        );
        assert!(stats.cv >= 0.0);
    }

    #[test]
    fn low_temperature_finds_ordered_state() {
        let (_, nt, comp, h) = system();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = Configuration::random(&comp, &mut rng);
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut sampler =
            MetropolisSampler::new(50.0, config, &h, &nt, Box::new(LocalSwap::new()), 2);
        let stats = sampler.run(&h, &nt, &ctx, 500, 500, 5, |_, _| {});
        // Ground state energy is −0.64; at 50 K the system must be frozen
        // at or very near it.
        assert!(
            stats.mean_energy < -0.6,
            "mean energy {}",
            stats.mean_energy
        );
    }

    #[test]
    fn energy_bookkeeping_is_exact() {
        let (_, nt, comp, h) = system();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let config = Configuration::random(&comp, &mut rng);
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut sampler =
            MetropolisSampler::new(1000.0, config, &h, &nt, Box::new(LocalSwap::new()), 7);
        for _ in 0..50 {
            sampler.sweep(&h, &nt, &ctx);
        }
        assert!((sampler.energy() - h.total_energy(sampler.config(), &nt)).abs() < 1e-9);
    }

    #[test]
    fn acceptance_decreases_with_cooling() {
        let (_, nt, comp, h) = system();
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut rates = Vec::new();
        for (i, t) in [5000.0, 500.0, 100.0].into_iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(10 + i as u64);
            let config = Configuration::random(&comp, &mut rng);
            let mut s = MetropolisSampler::new(t, config, &h, &nt, Box::new(LocalSwap::new()), 20);
            let _ = s.run(&h, &nt, &ctx, 100, 300, 1, |_, _| {});
            rates.push(s.stats().acceptance("local-swap").unwrap());
        }
        assert!(rates[0] > rates[1] && rates[1] > rates[2], "{rates:?}");
    }

    #[test]
    fn telemetry_counts_sweeps_and_evals() {
        let (_, nt, comp, h) = system();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let config = Configuration::random(&comp, &mut rng);
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut s = MetropolisSampler::new(500.0, config, &h, &nt, Box::new(LocalSwap::new()), 9);
        let tel = Telemetry::enabled();
        s.set_telemetry(tel.clone());
        s.sweep(&h, &nt, &ctx);
        let snap = tel.snapshot(0);
        assert_eq!(snap.phase_stat(Phase::MoveBatch).unwrap().count, 1);
        assert_eq!(
            snap.phase_stat(Phase::EnergyEval).unwrap().count,
            s.config().num_sites() as u64
        );
    }

    #[test]
    fn swap_state_exchanges_configs() {
        let (_, nt, comp, h) = system();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c1 = Configuration::random(&comp, &mut rng);
        let c2 = Configuration::random(&comp, &mut rng);
        let mut s1 =
            MetropolisSampler::new(100.0, c1.clone(), &h, &nt, Box::new(LocalSwap::new()), 1);
        let mut s2 =
            MetropolisSampler::new(200.0, c2.clone(), &h, &nt, Box::new(LocalSwap::new()), 2);
        s1.swap_state_with(&mut s2);
        assert_eq!(s1.config(), &c2);
        assert_eq!(s2.config(), &c1);
        // Temperatures stay put (configuration exchange convention).
        assert_eq!(s1.temperature(), 100.0);
    }
}
