//! Parallel tempering (replica exchange Monte Carlo) over a temperature
//! ladder — the classical parallel baseline DeepThermo is compared to.

use dt_hamiltonian::EnergyModel;
use dt_lattice::{Configuration, NeighborTable};
use dt_proposal::{LocalSwap, ProposalContext, ProposalKernel};
use rand::{Rng, RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::sampler::MetropolisSampler;

/// Exchange statistics of a tempering run.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperingReport {
    /// Exchange attempts per adjacent pair.
    pub attempts: Vec<u64>,
    /// Accepted exchanges per adjacent pair.
    pub accepted: Vec<u64>,
    /// Mean energy per replica (measurement phase).
    pub mean_energy: Vec<f64>,
    /// Heat capacity `C_v/k_B` per replica.
    pub cv: Vec<f64>,
}

impl TemperingReport {
    /// Exchange acceptance rate of adjacent pair `i` (between replicas `i`
    /// and `i+1`).
    pub fn exchange_rate(&self, pair: usize) -> f64 {
        if self.attempts[pair] == 0 {
            0.0
        } else {
            self.accepted[pair] as f64 / self.attempts[pair] as f64
        }
    }
}

/// A ladder of Metropolis replicas with periodic configuration exchange.
pub struct ParallelTempering {
    replicas: Vec<MetropolisSampler>,
    attempts: Vec<u64>,
    accepted: Vec<u64>,
    rng: ChaCha8Rng,
    parity: bool,
}

impl ParallelTempering {
    /// Build a ladder at the given temperatures (ascending recommended)
    /// with local-swap kernels.
    pub fn new<M: EnergyModel, R: Rng + ?Sized>(
        temperatures: &[f64],
        model: &M,
        neighbors: &NeighborTable,
        comp: &dt_lattice::Composition,
        seed: u64,
        init_rng: &mut R,
    ) -> Self {
        assert!(temperatures.len() >= 2, "need at least two replicas");
        let replicas = temperatures
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let config = Configuration::random(comp, init_rng);
                MetropolisSampler::new(
                    t,
                    config,
                    model,
                    neighbors,
                    Box::new(LocalSwap::new()) as Box<dyn ProposalKernel>,
                    seed.wrapping_add(i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .collect::<Vec<_>>();
        let pairs = temperatures.len() - 1;
        ParallelTempering {
            replicas,
            attempts: vec![0; pairs],
            accepted: vec![0; pairs],
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xdead_beef),
            parity: false,
        }
    }

    /// Access a replica.
    pub fn replica(&self, i: usize) -> &MetropolisSampler {
        &self.replicas[i]
    }

    /// One exchange round: alternating even/odd adjacent pairs with the
    /// standard acceptance `min(1, exp[(β_i − β_j)(E_i − E_j)])`.
    pub fn exchange_round(&mut self) {
        let start = usize::from(self.parity);
        self.parity = !self.parity;
        let mut i = start;
        while i + 1 < self.replicas.len() {
            self.attempts[i] += 1;
            let (lo, hi) = self.replicas.split_at_mut(i + 1);
            let a = &mut lo[i];
            let b = &mut hi[0];
            let ln_acc = (a.beta() - b.beta()) * (a.energy() - b.energy());
            if ln_acc >= 0.0 || self.rng.random::<f64>() < ln_acc.exp() {
                a.swap_state_with(b);
                self.accepted[i] += 1;
            }
            i += 2;
        }
    }

    /// Run the full schedule: for each of `rounds`, every replica does
    /// `sweeps_per_round` sweeps followed by one exchange round. The final
    /// `measure_rounds` rounds contribute to energy statistics.
    pub fn run<M: EnergyModel>(
        &mut self,
        model: &M,
        neighbors: &NeighborTable,
        ctx: &ProposalContext<'_>,
        rounds: usize,
        sweeps_per_round: usize,
        measure_rounds: usize,
    ) -> TemperingReport {
        assert!(measure_rounds <= rounds);
        let n = self.replicas.len();
        let mut sum = vec![0.0; n];
        let mut sum2 = vec![0.0; n];
        let mut count = 0usize;
        for round in 0..rounds {
            for r in &mut self.replicas {
                for _ in 0..sweeps_per_round {
                    r.sweep(model, neighbors, ctx);
                }
            }
            self.exchange_round();
            if round + measure_rounds >= rounds {
                for (i, r) in self.replicas.iter().enumerate() {
                    sum[i] += r.energy();
                    sum2[i] += r.energy() * r.energy();
                }
                count += 1;
            }
        }
        let mean_energy: Vec<f64> = sum.iter().map(|&s| s / count as f64).collect();
        let cv = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let var = (sum2[i] / count as f64 - mean_energy[i] * mean_energy[i]).max(0.0);
                r.beta() * r.beta() * var
            })
            .collect();
        TemperingReport {
            attempts: self.attempts.clone(),
            accepted: self.accepted.clone(),
            mean_energy,
            cv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_hamiltonian::{exact::ExactDos, PairHamiltonian, KB_EV_PER_K};
    use dt_lattice::{Composition, Structure, Supercell};

    fn system() -> (Supercell, NeighborTable, Composition, PairHamiltonian) {
        let cell = Supercell::cubic(Structure::bcc(), 2);
        let nt = cell.neighbor_table(1);
        let comp = Composition::equiatomic(2, cell.num_sites()).unwrap();
        let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
        (cell, nt, comp, h)
    }

    #[test]
    fn replica_means_match_exact_at_each_temperature() {
        let (_, nt, comp, h) = system();
        let exact = ExactDos::enumerate(&h, &nt, &comp);
        let temps = [400.0, 800.0, 1600.0, 3200.0];
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut init_rng = ChaCha8Rng::seed_from_u64(0);
        let mut pt = ParallelTempering::new(&temps, &h, &nt, &comp, 42, &mut init_rng);
        let report = pt.run(&h, &nt, &ctx, 5000, 2, 4500);
        for (i, &t) in temps.iter().enumerate() {
            let beta = 1.0 / (KB_EV_PER_K * t);
            let exact_u = exact.mean_energy(beta);
            assert!(
                (report.mean_energy[i] - exact_u).abs() < 0.02,
                "T={t}: PT {} vs exact {exact_u}",
                report.mean_energy[i]
            );
        }
    }

    #[test]
    fn exchange_rates_are_recorded_and_positive() {
        let (_, nt, comp, h) = system();
        let temps = [500.0, 700.0, 1000.0];
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut init_rng = ChaCha8Rng::seed_from_u64(1);
        let mut pt = ParallelTempering::new(&temps, &h, &nt, &comp, 7, &mut init_rng);
        let report = pt.run(&h, &nt, &ctx, 200, 1, 100);
        assert_eq!(report.attempts.len(), 2);
        for pair in 0..2 {
            assert!(report.attempts[pair] > 0);
            let rate = report.exchange_rate(pair);
            assert!(
                rate > 0.1,
                "close temperatures must exchange often: pair {pair} rate {rate}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_replica_rejected() {
        let (_, nt, comp, h) = system();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = ParallelTempering::new(&[300.0], &h, &nt, &comp, 0, &mut rng);
    }
}
