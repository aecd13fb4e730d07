//! Warren–Cowley short-range order.
//!
//! This is the observable DeepThermo uses to characterize the
//! order–disorder phase transition of NbMoTaW: the Warren–Cowley parameter
//! `α_s(a,b)` measures chemical short-range order in coordination shell `s`
//! (negative = a–b attraction/ordering, positive = repulsion/clustering).

use crate::composition::Composition;
use crate::config::Configuration;
use crate::neighbors::NeighborTable;
use crate::species::Species;
use crate::SiteId;

/// Warren–Cowley short-range-order parameters for every shell and ordered
/// species pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WarrenCowley {
    num_species: usize,
    /// `alpha[shell][a * num_species + b]`.
    alpha: Vec<Vec<f64>>,
}

impl WarrenCowley {
    /// Compute all Warren–Cowley parameters of a configuration.
    pub fn compute(config: &Configuration, neighbors: &NeighborTable, comp: &Composition) -> Self {
        let m = comp.num_species();
        let fracs = comp.fractions();
        let mut alpha = Vec::with_capacity(neighbors.num_shells());
        for shell in 0..neighbors.num_shells() {
            let counts = ordered_pair_counts(config, neighbors, shell, m);
            let total = neighbors.directed_pair_count(shell) as f64;
            let mut a = vec![0.0f64; m * m];
            for sa in 0..m {
                for sb in 0..m {
                    let p = counts[sa * m + sb] as f64 / total;
                    let ca_cb = fracs[sa] * fracs[sb];
                    a[sa * m + sb] = if ca_cb > 0.0 { 1.0 - p / ca_cb } else { 0.0 };
                }
            }
            alpha.push(a);
        }
        WarrenCowley {
            num_species: m,
            alpha,
        }
    }

    /// `α_s(a, b)` for shell `s` and ordered pair `(a, b)`.
    pub fn alpha(&self, shell: usize, a: Species, b: Species) -> f64 {
        self.alpha[shell][a.index() * self.num_species + b.index()]
    }

    /// Number of shells covered.
    pub fn num_shells(&self) -> usize {
        self.alpha.len()
    }

    /// Flat `[a*m+b]` view of one shell's parameters.
    pub fn shell(&self, shell: usize) -> &[f64] {
        &self.alpha[shell]
    }
}

/// Ordered pair counts `n_s[a][b]` over the directed pairs of one shell.
pub fn ordered_pair_counts(
    config: &Configuration,
    neighbors: &NeighborTable,
    shell: usize,
    num_species: usize,
) -> Vec<u64> {
    let mut counts = vec![0u64; num_species * num_species];
    let species = config.species();
    for i in 0..neighbors.num_sites() as SiteId {
        let a = species[i as usize].index();
        for &j in neighbors.neighbors(i, shell) {
            let b = species[j as usize].index();
            counts[a * num_species + b] += 1;
        }
    }
    counts
}

/// A mergeable accumulator of Warren–Cowley-style pair statistics, used to
/// average SRO over Monte Carlo samples (and, binned by energy, to reweight
/// SRO(T) from Wang–Landau runs).
#[derive(Debug, Clone, PartialEq)]
pub struct SroAccumulator {
    num_species: usize,
    num_shells: usize,
    /// Accumulated directed pair counts per shell.
    pair_counts: Vec<Vec<f64>>,
    /// Number of configurations accumulated.
    samples: u64,
}

impl SroAccumulator {
    /// Fresh accumulator for `num_shells` shells and `num_species` species.
    pub fn new(num_shells: usize, num_species: usize) -> Self {
        SroAccumulator {
            num_species,
            num_shells,
            pair_counts: vec![vec![0.0; num_species * num_species]; num_shells],
            samples: 0,
        }
    }

    /// Add one configuration's pair statistics.
    pub fn accumulate(&mut self, config: &Configuration, neighbors: &NeighborTable) {
        for shell in 0..self.num_shells {
            let counts = ordered_pair_counts(config, neighbors, shell, self.num_species);
            for (acc, c) in self.pair_counts[shell].iter_mut().zip(counts) {
                *acc += c as f64;
            }
        }
        self.samples += 1;
    }

    /// Merge another accumulator (e.g. from a different walker).
    pub fn merge(&mut self, other: &SroAccumulator) {
        assert_eq!(self.num_species, other.num_species);
        assert_eq!(self.num_shells, other.num_shells);
        for (mine, theirs) in self.pair_counts.iter_mut().zip(&other.pair_counts) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.samples += other.samples;
    }

    /// Number of configurations accumulated so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean Warren–Cowley parameters over the accumulated samples.
    ///
    /// Returns `None` when no samples were accumulated.
    pub fn mean_alpha(
        &self,
        neighbors: &NeighborTable,
        comp: &Composition,
    ) -> Option<WarrenCowley> {
        if self.samples == 0 {
            return None;
        }
        let m = self.num_species;
        let fracs = comp.fractions();
        let mut alpha = Vec::with_capacity(self.num_shells);
        for shell in 0..self.num_shells {
            let total = neighbors.directed_pair_count(shell) as f64 * self.samples as f64;
            let mut a = vec![0.0f64; m * m];
            for sa in 0..m {
                for sb in 0..m {
                    let p = self.pair_counts[shell][sa * m + sb] / total;
                    let ca_cb = fracs[sa] * fracs[sb];
                    a[sa * m + sb] = if ca_cb > 0.0 { 1.0 - p / ca_cb } else { 0.0 };
                }
            }
            alpha.push(a);
        }
        Some(WarrenCowley {
            num_species: m,
            alpha,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::Structure;
    use crate::supercell::Supercell;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(l: usize) -> (Supercell, NeighborTable, Composition) {
        let cell = Supercell::cubic(Structure::bcc(), l);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        (cell, nt, comp)
    }

    #[test]
    fn random_alloy_has_near_zero_sro() {
        let (_, nt, comp) = setup(6);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        // Average over several random configurations to suppress noise.
        let mut acc = SroAccumulator::new(2, 4);
        for _ in 0..20 {
            let c = Configuration::random(&comp, &mut rng);
            acc.accumulate(&c, &nt);
        }
        let wc = acc.mean_alpha(&nt, &comp).unwrap();
        for shell in 0..2 {
            for a in 0..4u8 {
                for b in 0..4u8 {
                    let v = wc.alpha(shell, Species(a), Species(b));
                    assert!(v.abs() < 0.05, "alpha[{shell}]({a},{b}) = {v}");
                }
            }
        }
    }

    #[test]
    fn b2_config_has_strong_cross_sublattice_order() {
        let (cell, nt, comp) = setup(4);
        let c = Configuration::b2_ordered(&cell, 4);
        let wc = WarrenCowley::compute(&c, &nt, &comp);
        // First shell of BCC connects the two sublattices: same-sublattice
        // pairs (e.g. 0-1) never appear, cross pairs (0-2) are enhanced.
        assert!(wc.alpha(0, Species(0), Species(1)) > 0.5);
        assert!(wc.alpha(0, Species(0), Species(2)) < -0.5);
    }

    #[test]
    fn alpha_diagonal_identity_holds() {
        // Row sums of p(a,b) over b equal c_a ⇒ Σ_b c_b α(a,b) = 0.
        let (_, nt, comp) = setup(4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let c = Configuration::random(&comp, &mut rng);
        let wc = WarrenCowley::compute(&c, &nt, &comp);
        for a in 0..4u8 {
            let s: f64 = (0..4u8)
                .map(|b| comp.fraction(Species(b)) * wc.alpha(0, Species(a), Species(b)))
                .sum();
            assert!(s.abs() < 1e-9, "sum rule violated: {s}");
        }
    }

    #[test]
    fn accumulator_merge_equals_sequential() {
        let (_, nt, comp) = setup(3);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let configs: Vec<_> = (0..6)
            .map(|_| Configuration::random(&comp, &mut rng))
            .collect();

        let mut all = SroAccumulator::new(2, 4);
        for c in &configs {
            all.accumulate(c, &nt);
        }
        let mut left = SroAccumulator::new(2, 4);
        let mut right = SroAccumulator::new(2, 4);
        for c in &configs[..3] {
            left.accumulate(c, &nt);
        }
        for c in &configs[3..] {
            right.accumulate(c, &nt);
        }
        left.merge(&right);
        assert_eq!(left, all);
        assert_eq!(left.samples(), 6);
    }

    #[test]
    fn empty_accumulator_yields_none() {
        let (_, nt, comp) = setup(2);
        let acc = SroAccumulator::new(2, 4);
        assert!(acc.mean_alpha(&nt, &comp).is_none());
    }
}
