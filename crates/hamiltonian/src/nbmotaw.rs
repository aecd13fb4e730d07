//! The NbMoTaW parameter set.
//!
//! Effective pair interactions shaped after published cluster expansions of
//! the NbMoTaW refractory high-entropy alloy (Widom et al.; Yin et al.):
//! the dominant chemistry is a strong Mo–Ta (and, weaker, W–Nb / Mo–Nb)
//! nearest-neighbor ordering tendency that drives a B2-like order–disorder
//! transition well below the melting point. Absolute magnitudes here are
//! calibrated to place that transition in the experimentally discussed
//! few-hundred-to-~1000 K range rather than to reproduce any single DFT
//! dataset — DeepThermo's sampling behaviour depends on the *shape* of the
//! energy landscape, which this set preserves.

use dt_lattice::Species;

use crate::pair::PairHamiltonian;

/// Boltzmann constant in eV/K.
pub const KB_EV_PER_K: f64 = 8.617_333_262e-5;

/// Species indices for the NbMoTaW set.
pub mod elements {
    use dt_lattice::Species;
    /// Niobium.
    pub const NB: Species = Species(0);
    /// Molybdenum.
    pub const MO: Species = Species(1);
    /// Tantalum.
    pub const TA: Species = Species(2);
    /// Tungsten.
    pub const W: Species = Species(3);
}

/// Two-shell EPI Hamiltonian for equiatomic NbMoTaW on BCC (eV per pair).
///
/// First-shell mixing energies favor unlike Mo–Ta / Mo–Nb / W–Nb pairs
/// (B2-type ordering across the two BCC sublattices); second-shell terms
/// weakly favor like pairs on the same sublattice, stabilizing the ordered
/// phase.
pub fn nbmotaw() -> PairHamiltonian {
    use elements::*;
    let p = |a: Species, b: Species| (a.index(), b.index());
    let (nb_mo, nb_ta, nb_w) = (p(NB, MO), p(NB, TA), p(NB, W));
    let (mo_ta, mo_w, ta_w) = (p(MO, TA), p(MO, W), p(TA, W));
    PairHamiltonian::from_pairs(
        4,
        2,
        &[
            // shell, a, b, V (eV)
            (0, nb_mo.0, nb_mo.1, -0.0185),
            (0, nb_ta.0, nb_ta.1, -0.0040),
            (0, nb_w.0, nb_w.1, -0.0220),
            (0, mo_ta.0, mo_ta.1, -0.0465),
            (0, mo_w.0, mo_w.1, -0.0060),
            (0, ta_w.0, ta_w.1, -0.0155),
            (1, nb_mo.0, nb_mo.1, 0.0085),
            (1, nb_ta.0, nb_ta.1, 0.0015),
            (1, nb_w.0, nb_w.1, 0.0095),
            (1, mo_ta.0, mo_ta.1, 0.0205),
            (1, mo_w.0, mo_w.1, 0.0030),
            (1, ta_w.0, ta_w.1, 0.0070),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EnergyModel;
    use dt_lattice::{Composition, Configuration, Structure, Supercell};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mo_ta_is_the_strongest_first_shell_interaction() {
        let h = nbmotaw();
        use elements::*;
        let v_mota = h.v(0, MO, TA);
        for (a, b) in [(NB, MO), (NB, TA), (NB, W), (MO, W), (TA, W)] {
            assert!(v_mota < h.v(0, a, b), "Mo-Ta must dominate shell 1");
        }
    }

    #[test]
    fn interactions_are_symmetric() {
        let h = nbmotaw();
        for shell in 0..2 {
            for a in 0..4u8 {
                for b in 0..4u8 {
                    assert_eq!(
                        h.v(shell, Species(a), Species(b)),
                        h.v(shell, Species(b), Species(a))
                    );
                }
            }
        }
    }

    #[test]
    fn b2_order_beats_random_alloy() {
        let h = nbmotaw();
        let cell = Supercell::cubic(Structure::bcc(), 4);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        // (Nb,Mo | Ta,W) split puts the strong Mo–Ta and Nb–W bonds across
        // sublattices.
        let b2 = Configuration::b2_ordered(&cell, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut random_mean = 0.0;
        for _ in 0..20 {
            random_mean += h.total_energy(&Configuration::random(&comp, &mut rng), &nt);
        }
        random_mean /= 20.0;
        let e_b2 = h.total_energy(&b2, &nt);
        assert!(
            e_b2 < random_mean,
            "ordered {e_b2} must undercut random {random_mean}"
        );
    }

    #[test]
    fn energy_scale_is_physical() {
        // Per-atom energies should sit in the tens-of-meV range so that the
        // order-disorder transition lands at a few hundred kelvin
        // (k_B * 1000 K ≈ 86 meV).
        let h = nbmotaw();
        let cell = Supercell::cubic(Structure::bcc(), 4);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let c = Configuration::random(&comp, &mut rng);
        let per_atom = h.total_energy(&c, &nt) / cell.num_sites() as f64;
        assert!(per_atom.abs() < 0.5, "per-atom energy {per_atom} eV");
        assert!(per_atom.abs() > 0.001, "per-atom energy {per_atom} eV");
    }

    #[test]
    fn kb_matches_codata() {
        assert!((KB_EV_PER_K - 8.617333262e-5).abs() < 1e-15);
    }
}
