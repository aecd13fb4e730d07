//! Reference-energy datasets for surrogate training.

use dt_hamiltonian::EnergyModel;
use dt_lattice::{Composition, Configuration, NeighborTable, SiteId};
use dt_nn::Matrix;
use rand::{Rng, RngExt};

use crate::descriptor::PairCorrelationDescriptor;

/// How configurations are drawn when building a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Uniformly random configurations only — cheap but concentrated near
    /// the infinite-temperature energy.
    Random,
    /// Mix of random configurations and annealed (partially quenched)
    /// ones, spreading samples across the reachable energy range the way
    /// the paper's active-learning loop does.
    Annealed,
}

/// A supervised dataset: descriptors `x`, energies-per-site `y`.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Features, one row per configuration.
    pub x: Matrix,
    /// Targets (energy per site, eV), one row per configuration.
    pub y: Matrix,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generate a dataset of `count` configurations.
    pub fn generate<M: EnergyModel + Sync, R: Rng + ?Sized>(
        model: &M,
        neighbors: &NeighborTable,
        comp: &Composition,
        descriptor: PairCorrelationDescriptor,
        count: usize,
        strategy: SamplingStrategy,
        rng: &mut R,
    ) -> Dataset {
        assert!(count > 0);
        // Each sample runs on a stream of its own, seeded up front from
        // the caller's: what one sample draws never shifts the next.
        let seeds: Vec<u64> = (0..count).map(|_| rng.random()).collect();
        let n = comp.num_sites() as f64;
        let rows: Vec<(Vec<f64>, f64)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                use rand::SeedableRng;
                let mut local = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let mut config = Configuration::random(comp, &mut local);
                if strategy == SamplingStrategy::Annealed {
                    // Quench a varying number of sweeps toward low or high
                    // energy so the dataset spans the range.
                    let sweeps = (i % 8) * 3;
                    let minimize = i % 2 == 0;
                    quench_in_place(model, neighbors, &mut config, sweeps, minimize, &mut local);
                }
                let e = model.total_energy(&config, neighbors) / n;
                (descriptor.compute(&config, neighbors), e)
            })
            .collect();
        let dim = descriptor.dim();
        let mut x = Matrix::zeros(count, dim);
        let mut y = Matrix::zeros(count, 1);
        for (i, (feat, e)) in rows.into_iter().enumerate() {
            x.row_mut(i).copy_from_slice(&feat);
            y.row_mut(i)[0] = e;
        }
        Dataset { x, y }
    }

    /// Split into `(train, test)` with the first `train_fraction` rows in
    /// train (rows are already i.i.d. by construction).
    pub fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&train_fraction));
        let n_train = ((self.len() as f64) * train_fraction).round().max(1.0) as usize;
        let n_train = n_train.min(self.len() - 1);
        let take = |lo: usize, hi: usize| -> Dataset {
            let mut x = Matrix::zeros(hi - lo, self.x.cols());
            let mut y = Matrix::zeros(hi - lo, 1);
            for i in lo..hi {
                x.row_mut(i - lo).copy_from_slice(self.x.row(i));
                y.row_mut(i - lo)[0] = self.y.row(i)[0];
            }
            Dataset { x, y }
        };
        (take(0, n_train), take(n_train, self.len()))
    }

    /// Energy range `(min, max)` of the targets.
    pub fn energy_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for r in 0..self.y.rows() {
            lo = lo.min(self.y.row(r)[0]);
            hi = hi.max(self.y.row(r)[0]);
        }
        (lo, hi)
    }
}

/// Zero-temperature-ish quench used by the annealed strategy.
fn quench_in_place<M: EnergyModel, R: Rng + ?Sized>(
    model: &M,
    neighbors: &NeighborTable,
    config: &mut Configuration,
    sweeps: usize,
    minimize: bool,
    rng: &mut R,
) {
    let n = config.num_sites();
    for _ in 0..sweeps {
        for _ in 0..n {
            let a = rng.random_range(0..n) as SiteId;
            let b = rng.random_range(0..n) as SiteId;
            if config.species_at(a) == config.species_at(b) {
                continue;
            }
            let d = model.swap_delta(config, neighbors, a, b);
            if (minimize && d < 0.0) || (!minimize && d > 0.0) {
                config.swap(a, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_hamiltonian::nbmotaw;
    use dt_lattice::{Structure, Supercell};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fixture() -> (NeighborTable, Composition, PairCorrelationDescriptor) {
        let cell = Supercell::cubic(Structure::bcc(), 3);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        let d = PairCorrelationDescriptor {
            num_species: 4,
            num_shells: 2,
        };
        (nt, comp, d)
    }

    #[test]
    fn generation_has_right_shape() {
        let (nt, comp, d) = fixture();
        let h = nbmotaw();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ds = Dataset::generate(&h, &nt, &comp, d, 20, SamplingStrategy::Random, &mut rng);
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.x.cols(), d.dim());
        assert_eq!(ds.y.cols(), 1);
    }

    #[test]
    fn annealed_strategy_spans_wider_energy_range() {
        let (nt, comp, d) = fixture();
        let h = nbmotaw();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let random = Dataset::generate(&h, &nt, &comp, d, 48, SamplingStrategy::Random, &mut rng);
        let annealed =
            Dataset::generate(&h, &nt, &comp, d, 48, SamplingStrategy::Annealed, &mut rng);
        let (rl, rh) = random.energy_range();
        let (al, ah) = annealed.energy_range();
        assert!(
            ah - al > rh - rl,
            "annealed {al}..{ah} vs random {rl}..{rh}"
        );
    }

    #[test]
    fn split_partitions_rows() {
        let (nt, comp, d) = fixture();
        let h = nbmotaw();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ds = Dataset::generate(&h, &nt, &comp, d, 10, SamplingStrategy::Random, &mut rng);
        let (train, test) = ds.split(0.8);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        assert_eq!(train.x.row(0), ds.x.row(0));
        assert_eq!(test.y.row(0)[0], ds.y.row(8)[0]);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let (nt, comp, d) = fixture();
        let h = nbmotaw();
        let a = Dataset::generate(
            &h,
            &nt,
            &comp,
            d,
            8,
            SamplingStrategy::Annealed,
            &mut ChaCha8Rng::seed_from_u64(3),
        );
        let b = Dataset::generate(
            &h,
            &nt,
            &comp,
            d,
            8,
            SamplingStrategy::Annealed,
            &mut ChaCha8Rng::seed_from_u64(3),
        );
        assert_eq!(a.x.data(), b.x.data());
        assert_eq!(a.y.data(), b.y.data());
    }
}
