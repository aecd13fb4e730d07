//! Bit-exactness of the EPI energy kernels.
//!
//! The tolerance checks in `properties.rs` would pass a reordered sum that
//! moves every golden sampler fingerprint. Here `swap_delta`,
//! `total_energy` and `reassign_delta` must equal, `to_bits()` for
//! `to_bits()`, a reference that keeps the historical formulation: nested
//! per-shell matrices, and a swap ΔE built from six separate neighbor-list
//! passes.

use dt_hamiltonian::{DeltaWorkspace, EnergyModel, PairHamiltonian};
use dt_lattice::{Configuration, NeighborTable, SiteId, Species, Structure, Supercell};
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The historical Hamiltonian: `v[shell][a*m + b]`.
struct Reference {
    m: usize,
    v: Vec<Vec<f64>>,
}

impl Reference {
    fn site_energy(&self, species: &[Species], nt: &NeighborTable, site: SiteId) -> f64 {
        let si = species[site as usize];
        let mut e = 0.0;
        for shell in 0..self.v.len() {
            let row = &self.v[shell][si.index() * self.m..][..self.m];
            for &j in nt.neighbors(site, shell) {
                e += row[species[j as usize].index()];
            }
        }
        e
    }

    fn site_energy_with(
        &self,
        nt: &NeighborTable,
        site: SiteId,
        s_site: Species,
        lookup: impl Fn(SiteId) -> Species,
    ) -> f64 {
        let mut e = 0.0;
        for shell in 0..self.v.len() {
            let row = &self.v[shell][s_site.index() * self.m..][..self.m];
            for &j in nt.neighbors(site, shell) {
                e += row[lookup(j).index()];
            }
        }
        e
    }

    fn pair_energy_between_species(
        &self,
        nt: &NeighborTable,
        a: SiteId,
        b: SiteId,
        sa: Species,
        sb: Species,
    ) -> f64 {
        let mut e = 0.0;
        for shell in 0..self.v.len() {
            let mult = nt.neighbors(a, shell).iter().filter(|&&j| j == b).count() as f64;
            e += mult * self.v[shell][sa.index() * self.m + sb.index()];
        }
        e
    }

    fn total_energy(&self, species: &[Species], nt: &NeighborTable) -> f64 {
        let m = self.m;
        let mut total = 0.0;
        for shell in 0..self.v.len() {
            let v = &self.v[shell];
            let mut shell_sum = 0.0;
            for i in 0..nt.num_sites() as SiteId {
                let a = species[i as usize].index() * m;
                let row = &v[a..a + m];
                let mut site_sum = 0.0;
                for &j in nt.neighbors(i, shell) {
                    site_sum += row[species[j as usize].index()];
                }
                shell_sum += site_sum;
            }
            total += 0.5 * shell_sum;
        }
        total
    }

    /// The six-pass swap ΔE.
    fn swap_delta(&self, species: &[Species], nt: &NeighborTable, a: SiteId, b: SiteId) -> f64 {
        if a == b {
            return 0.0;
        }
        let sa = species[a as usize];
        let sb = species[b as usize];
        if sa == sb {
            return 0.0;
        }
        let before = self.site_energy(species, nt, a) + self.site_energy(species, nt, b)
            - self.pair_energy_between_species(nt, a, b, sa, sb);
        let lookup = |j: SiteId| {
            if j == a {
                sb
            } else if j == b {
                sa
            } else {
                species[j as usize]
            }
        };
        let after = self.site_energy_with(nt, a, sb, lookup)
            + self.site_energy_with(nt, b, sa, lookup)
            - self.pair_energy_between_species(nt, a, b, sb, sa);
        after - before
    }

    fn reassign_delta(
        &self,
        species: &[Species],
        nt: &NeighborTable,
        moves: &[(SiteId, Species)],
    ) -> f64 {
        if moves.is_empty() {
            return 0.0;
        }
        let mut in_move = vec![false; nt.num_sites()];
        for &(site, _) in moves {
            in_move[site as usize] = true;
        }
        let mut before = 0.0;
        for &(site, _) in moves {
            before += self.site_energy(species, nt, site);
            let s = species[site as usize];
            let mut internal = 0.0;
            for shell in 0..self.v.len() {
                let row = &self.v[shell][s.index() * self.m..][..self.m];
                for &j in nt.neighbors(site, shell) {
                    if in_move[j as usize] {
                        internal += row[species[j as usize].index()];
                    }
                }
            }
            before -= 0.5 * internal;
        }
        let lookup = |j: SiteId| -> Species {
            match moves.iter().find(|&&(s, _)| s == j) {
                Some(&(_, new_s)) => new_s,
                None => species[j as usize],
            }
        };
        let mut after = 0.0;
        for &(site, new_s) in moves {
            after += self.site_energy_with(nt, site, new_s, lookup);
        }
        for &(site, new_s) in moves {
            let mut internal = 0.0;
            for shell in 0..self.v.len() {
                for &j in nt.neighbors(site, shell) {
                    if in_move[j as usize] {
                        internal += self.v[shell][new_s.index() * self.m + lookup(j).index()];
                    }
                }
            }
            after -= 0.5 * internal;
        }
        after - before
    }
}

/// `shells` random symmetric `m × m` interaction matrices.
fn random_matrices(rng: &mut ChaCha8Rng, m: usize, shells: usize) -> Vec<Vec<f64>> {
    (0..shells)
        .map(|_| {
            let mut mat = vec![0.0; m * m];
            for a in 0..m {
                for b in a..m {
                    let v = rng.random_range(-0.1..0.1);
                    mat[a * m + b] = v;
                    mat[b * m + a] = v;
                }
            }
            mat
        })
        .collect()
}

fn structures() -> impl Strategy<Value = Structure> {
    prop_oneof![Just(Structure::bcc()), Just(Structure::fcc())]
}

/// A uniformly random (not composition-constrained) configuration.
fn random_config(rng: &mut ChaCha8Rng, num_sites: usize, m: usize) -> Configuration {
    let species = (0..num_sites)
        .map(|_| Species(rng.random_range(0..m as u8)))
        .collect();
    Configuration::from_species(species, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Half the pairs are drawn from a's neighbor list, so adjacent sites —
    /// at L = 1 and 2 linked through several periodic images, at L = 1 a
    /// site among its own neighbors — are exercised as often as far ones.
    #[test]
    fn swap_delta_is_bit_identical_to_six_pass_reference(
        structure in structures(),
        l in 1usize..=3,
        m in 2usize..=5,
        shells in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let cell = Supercell::cubic(structure, l);
        let nt = cell.neighbor_table(shells);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mats = random_matrices(&mut rng, m, shells);
        let h = PairHamiltonian::new(m, mats.clone());
        let reference = Reference { m, v: mats };
        let mut config = random_config(&mut rng, cell.num_sites(), m);
        let n = cell.num_sites() as SiteId;
        for _ in 0..32 {
            let a = rng.random_range(0..n);
            let b = if rng.random_bool(0.5) {
                let list = nt.neighbors(a, rng.random_range(0..shells));
                list[rng.random_range(0..list.len())]
            } else {
                rng.random_range(0..n)
            };
            let got = h.swap_delta(&config, &nt, a, b);
            let want = reference.swap_delta(config.species(), &nt, a, b);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "swap ({}, {}): {} vs {}", a, b, got, want);
            if rng.random_bool(0.5) {
                config.swap(a, b);
            }
        }
    }

    /// Pins the flat `[shell][a][b]` slab: same values, same summation order.
    #[test]
    fn total_and_reassign_are_bit_identical_to_nested_reference(
        structure in structures(),
        l in 1usize..=3,
        m in 2usize..=5,
        shells in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let cell = Supercell::cubic(structure, l);
        let nt = cell.neighbor_table(shells);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mats = random_matrices(&mut rng, m, shells);
        let h = PairHamiltonian::new(m, mats.clone());
        let reference = Reference { m, v: mats };
        let config = random_config(&mut rng, cell.num_sites(), m);
        prop_assert_eq!(
            h.total_energy(&config, &nt).to_bits(),
            reference.total_energy(config.species(), &nt).to_bits()
        );

        let mut ws = DeltaWorkspace::new(cell.num_sites());
        for _ in 0..8 {
            let mut sites: Vec<SiteId> = (0..cell.num_sites() as SiteId).collect();
            let k = rng.random_range(1..=sites.len().min(12));
            for i in 0..k {
                let j = rng.random_range(i..sites.len());
                sites.swap(i, j);
            }
            let moves: Vec<(SiteId, Species)> = sites[..k]
                .iter()
                .map(|&s| (s, Species(rng.random_range(0..m as u8))))
                .collect();
            let got = h.reassign_delta(&config, &nt, &moves, &mut ws);
            let want = reference.reassign_delta(config.species(), &nt, &moves);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "moves {:?}: {} vs {}", moves, got, want);
        }
    }
}
