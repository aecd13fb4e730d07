//! Fixed (canonical-ensemble) alloy compositions.
//!
//! DeepThermo samples the canonical configuration space of an alloy: the
//! number of atoms of each species is fixed and every Monte Carlo move must
//! conserve it. [`Composition`] is the single source of truth for those
//! counts.

use crate::error::LatticeError;
use crate::species::{Species, MAX_SPECIES};

/// Fixed per-species atom counts for a supercell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Composition {
    counts: Vec<usize>,
    total: usize,
}

impl Composition {
    /// Build a composition from explicit per-species counts.
    ///
    /// # Errors
    /// Fails when the list is empty, all counts are zero, or there are more
    /// than [`MAX_SPECIES`] species.
    pub fn from_counts(counts: Vec<usize>) -> Result<Self, LatticeError> {
        if counts.is_empty() {
            return Err(LatticeError::EmptyComposition);
        }
        if counts.len() > MAX_SPECIES {
            return Err(LatticeError::TooManySpecies(counts.len()));
        }
        let total: usize = counts.iter().sum();
        if total == 0 {
            return Err(LatticeError::EmptyComposition);
        }
        Ok(Composition { counts, total })
    }

    /// An equiatomic composition of `num_species` species over `num_sites`
    /// sites. When `num_sites` is not divisible by `num_species` the
    /// remainder is distributed to the lowest-index species so the counts
    /// still sum to `num_sites`.
    ///
    /// # Errors
    /// Fails for zero species, zero sites, or too many species.
    pub fn equiatomic(num_species: usize, num_sites: usize) -> Result<Self, LatticeError> {
        if num_species == 0 || num_sites == 0 {
            return Err(LatticeError::EmptyComposition);
        }
        if num_species > MAX_SPECIES {
            return Err(LatticeError::TooManySpecies(num_species));
        }
        let base = num_sites / num_species;
        let rem = num_sites % num_species;
        let counts = (0..num_species)
            .map(|i| base + usize::from(i < rem))
            .collect();
        Composition::from_counts(counts)
    }

    /// Apportion `num_sites` sites to species according to relative
    /// `ratios` (they need not sum to one), using largest-remainder
    /// rounding with ties broken toward the lowest-index species.
    ///
    /// Equal ratios reproduce [`Composition::equiatomic`] exactly, so a
    /// material declared with `ratios = [1, 1, 1, 1]` is bit-identical to
    /// the historical equiatomic path.
    ///
    /// # Errors
    /// Fails when `ratios` is empty, contains a negative or non-finite
    /// entry, or sums to zero ([`LatticeError::BadRatios`]); when there
    /// are too many species; or when `num_sites` is zero.
    pub fn from_ratios(ratios: &[f64], num_sites: usize) -> Result<Self, LatticeError> {
        if ratios.is_empty() {
            return Err(LatticeError::BadRatios);
        }
        if ratios.len() > MAX_SPECIES {
            return Err(LatticeError::TooManySpecies(ratios.len()));
        }
        if num_sites == 0 {
            return Err(LatticeError::EmptyComposition);
        }
        if ratios.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return Err(LatticeError::BadRatios);
        }
        let sum: f64 = ratios.iter().sum();
        if sum <= 0.0 {
            return Err(LatticeError::BadRatios);
        }
        let mut counts = vec![0usize; ratios.len()];
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(ratios.len());
        let mut assigned = 0usize;
        for (i, &r) in ratios.iter().enumerate() {
            let ideal = r / sum * num_sites as f64;
            let base = ideal.floor() as usize;
            counts[i] = base;
            assigned += base;
            fracs.push((i, ideal - base as f64));
        }
        // Largest remainder first; equal remainders favor lower indices.
        fracs.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite remainders")
                .then(a.0.cmp(&b.0))
        });
        let mut left = num_sites - assigned;
        let mut k = 0usize;
        while left > 0 {
            counts[fracs[k % fracs.len()].0] += 1;
            left -= 1;
            k += 1;
        }
        Composition::from_counts(counts)
    }

    /// Number of species.
    pub fn num_species(&self) -> usize {
        self.counts.len()
    }

    /// Total number of atoms (= number of lattice sites it fills).
    pub fn num_sites(&self) -> usize {
        self.total
    }

    /// Per-species counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Count of one species.
    ///
    /// # Errors
    /// Fails when `s` is out of range.
    pub fn count(&self, s: Species) -> Result<usize, LatticeError> {
        self.counts
            .get(s.index())
            .copied()
            .ok_or(LatticeError::SpeciesOutOfRange {
                species: s.0,
                num_species: self.counts.len(),
            })
    }

    /// Mole fraction `c_a` of species `a` (0 for out-of-range species).
    pub fn fraction(&self, s: Species) -> f64 {
        self.counts
            .get(s.index())
            .map(|&c| c as f64 / self.total as f64)
            .unwrap_or(0.0)
    }

    /// All mole fractions in species order.
    pub fn fractions(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Natural log of the multinomial number of configurations,
    /// `ln [ N! / Π_a N_a! ]`, computed with `ln Γ` so it is exact in
    /// floating point even for thousands of sites. This is the exact value
    /// of `ln Σ_E g(E)` that Wang–Landau normalization must reproduce.
    pub fn ln_num_configurations(&self) -> f64 {
        let mut v = ln_factorial(self.total);
        for &c in &self.counts {
            v -= ln_factorial(c);
        }
        v
    }
}

/// `ln n!` via `ln Γ(n+1)` (Stirling series with exact small-n table).
pub fn ln_factorial(n: usize) -> f64 {
    // Exact for small n; Stirling's series beyond the table. The series with
    // three correction terms is accurate to ~1e-12 for n >= 32.
    const TABLE_LEN: usize = 32;
    if n < TABLE_LEN {
        let mut acc = 0.0f64;
        for k in 2..=n {
            acc += (k as f64).ln();
        }
        return acc;
    }
    let x = (n + 1) as f64;
    let inv = 1.0 / x;
    (x - 0.5) * x.ln() - x
        + 0.5 * (2.0 * std::f64::consts::PI).ln()
        + inv * (1.0 / 12.0 - inv * inv * (1.0 / 360.0 - inv * inv / 1260.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equiatomic_divides_evenly() {
        let c = Composition::equiatomic(4, 128).unwrap();
        assert_eq!(c.counts(), &[32, 32, 32, 32]);
        assert_eq!(c.num_sites(), 128);
    }

    #[test]
    fn equiatomic_distributes_remainder() {
        let c = Composition::equiatomic(4, 10).unwrap();
        assert_eq!(c.counts(), &[3, 3, 2, 2]);
        assert_eq!(c.num_sites(), 10);
    }

    #[test]
    fn from_ratios_equal_matches_equiatomic() {
        for m in 1..=6usize {
            for sites in [7usize, 10, 54, 128, 500] {
                let eq = Composition::equiatomic(m, sites).unwrap();
                let fr = Composition::from_ratios(&vec![1.0; m], sites).unwrap();
                assert_eq!(eq, fr, "m={m} sites={sites}");
                let fr2 = Composition::from_ratios(&vec![0.25; m], sites).unwrap();
                assert_eq!(eq, fr2, "m={m} sites={sites} scaled ratios");
            }
        }
    }

    #[test]
    fn from_ratios_largest_remainder() {
        // 50/25/25 over 10 sites: ideals 5.0/2.5/2.5 — the odd site goes
        // to the lower-index species of the tied pair.
        let c = Composition::from_ratios(&[2.0, 1.0, 1.0], 10).unwrap();
        assert_eq!(c.counts(), &[5, 3, 2]);
        // Non-equiatomic ternary: 60/30/10 over 10 sites is exact.
        let c = Composition::from_ratios(&[6.0, 3.0, 1.0], 10).unwrap();
        assert_eq!(c.counts(), &[6, 3, 1]);
    }

    #[test]
    fn from_ratios_rejects_bad_input() {
        assert_eq!(
            Composition::from_ratios(&[], 10).unwrap_err(),
            LatticeError::BadRatios
        );
        assert_eq!(
            Composition::from_ratios(&[0.0, 0.0], 10).unwrap_err(),
            LatticeError::BadRatios
        );
        assert_eq!(
            Composition::from_ratios(&[1.0, -0.5], 10).unwrap_err(),
            LatticeError::BadRatios
        );
        assert_eq!(
            Composition::from_ratios(&[1.0, f64::NAN], 10).unwrap_err(),
            LatticeError::BadRatios
        );
        assert!(Composition::from_ratios(&[1.0], 0).is_err());
    }

    #[test]
    fn rejects_empty_and_zero() {
        assert!(Composition::from_counts(vec![]).is_err());
        assert!(Composition::from_counts(vec![0, 0]).is_err());
        assert!(Composition::equiatomic(0, 10).is_err());
        assert!(Composition::equiatomic(4, 0).is_err());
    }

    #[test]
    fn fractions_sum_to_one() {
        let c = Composition::from_counts(vec![3, 5, 8]).unwrap();
        let s: f64 = c.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!((c.fraction(Species(2)) - 0.5).abs() < 1e-12);
        assert_eq!(c.fraction(Species(7)), 0.0);
    }

    #[test]
    fn ln_factorial_matches_direct_sum() {
        for n in [0usize, 1, 5, 31, 32, 50, 100, 1000] {
            let direct: f64 = (2..=n).map(|k| (k as f64).ln()).sum();
            let approx = ln_factorial(n);
            assert!(
                (direct - approx).abs() < 1e-8 * direct.max(1.0),
                "n={n}: {direct} vs {approx}"
            );
        }
    }

    #[test]
    fn ln_num_configurations_binary_matches_binomial() {
        // 10 choose 4 = 210.
        let c = Composition::from_counts(vec![4, 6]).unwrap();
        assert!((c.ln_num_configurations() - 210.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_num_configurations_scales_like_entropy() {
        // For large N, ln(multinomial) ≈ N * ideal entropy per atom.
        let c = Composition::equiatomic(4, 8192).unwrap();
        let per_atom = c.ln_num_configurations() / 8192.0;
        assert!((per_atom - 4.0f64.ln()).abs() < 0.01);
        // This is the paper's e^10,000 scale:
        assert!(c.ln_num_configurations() > 10_000.0);
    }

    #[test]
    fn count_checks_range() {
        let c = Composition::equiatomic(2, 8).unwrap();
        assert_eq!(c.count(Species(1)).unwrap(), 4);
        assert!(c.count(Species(2)).is_err());
    }
}
