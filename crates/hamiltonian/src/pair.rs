//! Effective pair-interaction (EPI) cluster-expansion Hamiltonian.

use dt_lattice::{Configuration, NeighborTable, SiteId, Species};

use crate::model::{DeltaWorkspace, EnergyModel, WorkspaceExt};

/// `E(σ) = Σ_s Σ_{⟨ij⟩ ∈ shell s} V_s(σ_i, σ_j)` with symmetric per-shell
/// interaction matrices, the standard on-lattice cluster expansion for
/// configurational thermodynamics of alloys.
///
/// Interactions are stored as one flat `[shell][a][b]` slab (eV per
/// *undirected* pair); the energy is computed over directed neighbor pairs
/// with a factor `1/2`, which is exact for the image-multiplicity neighbor
/// tables of `dt-lattice`.
#[derive(Debug, Clone, PartialEq)]
pub struct PairHamiltonian {
    num_species: usize,
    num_shells: usize,
    /// `v[(shell*m + a)*m + b]`, symmetric in (a, b).
    v: Vec<f64>,
}

impl PairHamiltonian {
    /// Build from per-shell interaction matrices (`matrices[s][a*m+b]`).
    ///
    /// # Panics
    /// Panics if a matrix has the wrong size or is not symmetric.
    pub fn new(num_species: usize, matrices: Vec<Vec<f64>>) -> Self {
        assert!(!matrices.is_empty(), "need at least one shell");
        for (s, m) in matrices.iter().enumerate() {
            assert_eq!(
                m.len(),
                num_species * num_species,
                "shell {s} matrix has wrong size"
            );
            for a in 0..num_species {
                for b in 0..a {
                    assert!(
                        (m[a * num_species + b] - m[b * num_species + a]).abs() < 1e-12,
                        "shell {s} matrix must be symmetric at ({a},{b})"
                    );
                }
            }
        }
        PairHamiltonian {
            num_species,
            num_shells: matrices.len(),
            v: matrices.concat(),
        }
    }

    /// Build from upper-triangle pair energies given as
    /// `pairs[s] = [(a, b, v_ab), ...]`; unspecified entries are zero.
    pub fn from_pairs(
        num_species: usize,
        num_shells: usize,
        pairs: &[(usize, usize, usize, f64)],
    ) -> Self {
        let mut v = vec![vec![0.0; num_species * num_species]; num_shells];
        for &(shell, a, b, val) in pairs {
            v[shell][a * num_species + b] = val;
            v[shell][b * num_species + a] = val;
        }
        PairHamiltonian::new(num_species, v)
    }

    /// Interaction energy of an `(a, b)` pair in `shell`.
    #[inline(always)]
    pub fn v(&self, shell: usize, a: Species, b: Species) -> f64 {
        self.row(shell, a)[b.index()]
    }

    /// `V_shell(s, ·)`: the `m` interactions of species `s` in `shell`.
    #[inline(always)]
    fn row(&self, shell: usize, s: Species) -> &[f64] {
        let m = self.num_species;
        &self.v[(shell * m + s.index()) * m..][..m]
    }

    /// Energy of every directed pair touching `site`, i.e.
    /// `Σ_s Σ_{j ∈ nb_s(site)} V_s(σ_site, σ_j)`.
    #[inline]
    fn site_energy(&self, config: &Configuration, neighbors: &NeighborTable, site: SiteId) -> f64 {
        let species = config.species();
        let si = species[site as usize];
        let mut e = 0.0;
        for shell in 0..self.num_shells {
            let row = self.row(shell, si);
            for &j in neighbors.neighbors(site, shell) {
                e += row[species[j as usize].index()];
            }
        }
        e
    }

    /// Like [`Self::site_energy`] but with the species on `site` overridden
    /// and overrides applied to marked neighbor sites via `lookup`.
    #[inline]
    fn site_energy_with<F>(
        &self,
        neighbors: &NeighborTable,
        site: SiteId,
        s_site: Species,
        lookup: F,
    ) -> f64
    where
        F: Fn(SiteId) -> Species,
    {
        let mut e = 0.0;
        for shell in 0..self.num_shells {
            let row = self.row(shell, s_site);
            for &j in neighbors.neighbors(site, shell) {
                e += row[lookup(j).index()];
            }
        }
        e
    }

    /// Mean pair energy of the ideal random alloy with mole fractions
    /// `fracs` — the infinite-temperature energy per site is
    /// `Σ_s z_s/2 · Σ_ab c_a c_b V_s(a,b)`. Used for analytic validation.
    pub fn random_alloy_energy_per_site(&self, neighbors: &NeighborTable, fracs: &[f64]) -> f64 {
        let m = self.num_species;
        let mut e = 0.0;
        for (shell, v) in self.v.chunks_exact(m * m).enumerate() {
            let z = neighbors.coordination(shell) as f64;
            let mut mean_v = 0.0;
            for a in 0..m {
                for b in 0..m {
                    mean_v += fracs[a] * fracs[b] * v[a * m + b];
                }
            }
            e += 0.5 * z * mean_v;
        }
        e
    }
}

impl EnergyModel for PairHamiltonian {
    fn num_species(&self) -> usize {
        self.num_species
    }

    fn num_shells(&self) -> usize {
        self.num_shells
    }

    fn total_energy(&self, config: &Configuration, neighbors: &NeighborTable) -> f64 {
        let species = config.species();
        let mut total = 0.0;
        for shell in 0..self.num_shells {
            let mut shell_sum = 0.0;
            for i in 0..neighbors.num_sites() as SiteId {
                let row = self.row(shell, species[i as usize]);
                let mut site_sum = 0.0;
                for &j in neighbors.neighbors(i, shell) {
                    site_sum += row[species[j as usize].index()];
                }
                shell_sum += site_sum;
            }
            total += 0.5 * shell_sum;
        }
        total
    }

    fn swap_delta(
        &self,
        config: &Configuration,
        neighbors: &NeighborTable,
        a: SiteId,
        b: SiteId,
    ) -> f64 {
        // Also covers `a == b`.
        let species = config.species();
        if species[a as usize] == species[b as usize] {
            return 0.0;
        }
        // ΔE = [E'(a) + E'(b) − E'(a–b)] − [E(a) + E(b) − E(a–b)] over the
        // directed pairs touching a or b, the direct a–b pairs (with image
        // multiplicity) subtracted once. Each sum gets the same terms in the
        // same order as its own pass over the list would, so ΔE is bit-stable.
        let (before_a, after_a, pair_before, pair_after) =
            self.swap_pass(species, neighbors, a, a, b);
        let (before_b, after_b, _, _) = self.swap_pass(species, neighbors, b, a, b);
        let before = before_a + before_b - pair_before;
        let after = after_a + after_b - pair_after;
        after - before
    }

    fn reassign_delta(
        &self,
        config: &Configuration,
        neighbors: &NeighborTable,
        moves: &[(SiteId, Species)],
        workspace: &mut DeltaWorkspace,
    ) -> f64 {
        if moves.is_empty() {
            return 0.0;
        }
        debug_assert_eq!(workspace.num_sites(), neighbors.num_sites());
        workspace.begin_move();
        for &(site, _) in moves {
            debug_assert!(!workspace.in_move(site), "duplicate site in reassignment");
            workspace.mark_site(site);
        }
        let species = config.species();

        // E_touch = Σ_{i∈S} site_energy(i) − ½ Σ_{i∈S} Σ_{j∈nb(i)∩S} V(σi,σj)
        // evaluated before and after; only pairs touching S contribute to ΔE.
        let mut before = 0.0;
        for &(site, _) in moves {
            before += self.site_energy(config, neighbors, site);
            before -= 0.5 * self.internal_pair_energy(config, neighbors, site, workspace);
        }

        // "After" species lookup: overridden for moved sites. `moves` is
        // small (k ≤ a few thousand), but lookups must be O(1): stash the
        // new species in a side map keyed by the workspace mark.
        let mut after_species: Vec<(SiteId, Species)> = moves.to_vec();
        after_species.sort_unstable_by_key(|&(s, _)| s);
        let lookup = |j: SiteId| -> Species {
            if workspace.in_move(j) {
                let idx = after_species
                    .binary_search_by_key(&j, |&(s, _)| s)
                    .expect("marked site present in move list");
                after_species[idx].1
            } else {
                species[j as usize]
            }
        };

        let mut after = 0.0;
        for &(site, new_s) in moves {
            after += self.site_energy_with(neighbors, site, new_s, lookup);
        }
        // Subtract the double-counted internal pairs of the "after" state.
        for &(site, new_s) in moves {
            let mut internal = 0.0;
            for shell in 0..self.num_shells {
                for &j in neighbors.neighbors(site, shell) {
                    if workspace.in_move(j) {
                        internal += self.v(shell, new_s, lookup(j));
                    }
                }
            }
            after -= 0.5 * internal;
        }
        after - before
    }

    fn energy_lower_bound(&self, neighbors: &NeighborTable) -> f64 {
        self.bound(neighbors, f64::min)
    }

    fn energy_upper_bound(&self, neighbors: &NeighborTable) -> f64 {
        self.bound(neighbors, f64::max)
    }
}

impl PairHamiltonian {
    /// One pass over `site`'s shells (`site` is `a` or `b`) for the swap of
    /// `a` and `b`: `(before, after, pair_before, pair_after)`, where
    /// `before`/`after` are the energies of the directed pairs leaving
    /// `site` with current and swapped species, and `pair_*` the energies
    /// of those that end on `b` — the a–b pairs on `a`'s pass; callers
    /// ignore them on `b`'s.
    #[inline(always)]
    fn swap_pass(
        &self,
        species: &[Species],
        neighbors: &NeighborTable,
        site: SiteId,
        a: SiteId,
        b: SiteId,
    ) -> (f64, f64, f64, f64) {
        let (sa, sb) = (species[a as usize], species[b as usize]);
        let (s_now, s_new) = if site == a { (sa, sb) } else { (sb, sa) };
        let (mut before, mut after) = (0.0, 0.0);
        let (mut pair_before, mut pair_after) = (0.0, 0.0);
        for shell in 0..self.num_shells {
            let row_now = self.row(shell, s_now);
            let row_new = self.row(shell, s_new);
            let mut mult = 0u32;
            for &j in neighbors.neighbors(site, shell) {
                let sj = species[j as usize];
                before += row_now[sj.index()];
                let sj_new = if j == a {
                    sb
                } else if j == b {
                    sa
                } else {
                    sj
                };
                after += row_new[sj_new.index()];
                mult += u32::from(j == b);
            }
            pair_before += f64::from(mult) * self.v(shell, sa, sb);
            pair_after += f64::from(mult) * self.v(shell, sb, sa);
        }
        (before, after, pair_before, pair_after)
    }

    /// Σ_{j∈nb(site)∩S} V(σ_site, σ_j) over all shells (current species).
    fn internal_pair_energy(
        &self,
        config: &Configuration,
        neighbors: &NeighborTable,
        site: SiteId,
        workspace: &DeltaWorkspace,
    ) -> f64 {
        let species = config.species();
        let s = species[site as usize];
        let mut e = 0.0;
        for shell in 0..self.num_shells {
            let row = self.row(shell, s);
            for &j in neighbors.neighbors(site, shell) {
                if workspace.in_move(j) {
                    e += row[species[j as usize].index()];
                }
            }
        }
        e
    }

    fn bound(&self, neighbors: &NeighborTable, pick: fn(f64, f64) -> f64) -> f64 {
        let n = neighbors.num_sites() as f64;
        let mut total = 0.0;
        let m2 = self.num_species * self.num_species;
        for (shell, v) in self.v.chunks_exact(m2).enumerate() {
            let z = neighbors.coordination(shell) as f64;
            let extreme = v.iter().copied().fold(v[0], pick);
            total += 0.5 * n * z * extreme;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_lattice::{Composition, Structure, Supercell};
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A small asymmetric-feeling (but symmetric) 3-species test model.
    fn toy_model() -> PairHamiltonian {
        PairHamiltonian::from_pairs(
            3,
            2,
            &[
                (0, 0, 1, -0.05),
                (0, 0, 2, 0.02),
                (0, 1, 2, -0.01),
                (0, 0, 0, 0.005),
                (1, 0, 1, 0.015),
                (1, 1, 2, -0.007),
            ],
        )
    }

    fn setup(l: usize) -> (Supercell, NeighborTable, Composition) {
        let cell = Supercell::cubic(Structure::bcc(), l);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(3, cell.num_sites()).unwrap();
        (cell, nt, comp)
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_rejected() {
        let mut m = vec![0.0; 4];
        m[1] = 1.0; // v(0,1) != v(1,0)
        let _ = PairHamiltonian::new(2, vec![m]);
    }

    #[test]
    fn swap_delta_matches_full_recompute() {
        let (_, nt, comp) = setup(3);
        let h = toy_model();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut config = Configuration::random(&comp, &mut rng);
        for _ in 0..200 {
            let a = rng.random_range(0..nt.num_sites()) as SiteId;
            let b = rng.random_range(0..nt.num_sites()) as SiteId;
            let e0 = h.total_energy(&config, &nt);
            let delta = h.swap_delta(&config, &nt, a, b);
            config.swap(a, b);
            let e1 = h.total_energy(&config, &nt);
            assert!(
                ((e1 - e0) - delta).abs() < 1e-9,
                "swap ({a},{b}): recompute {} vs delta {delta}",
                e1 - e0
            );
        }
    }

    #[test]
    fn swap_delta_of_adjacent_sites_is_exact() {
        let (_, nt, comp) = setup(2);
        let h = toy_model();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut config = Configuration::random(&comp, &mut rng);
        // Explicitly exercise neighbor pairs (including duplicate images in
        // the tiny L=2 cell).
        for i in 0..nt.num_sites() as SiteId {
            for &j in nt.neighbors(i, 0) {
                let e0 = h.total_energy(&config, &nt);
                let delta = h.swap_delta(&config, &nt, i, j);
                config.swap(i, j);
                let e1 = h.total_energy(&config, &nt);
                assert!(((e1 - e0) - delta).abs() < 1e-9);
                config.swap(i, j); // restore
            }
        }
    }

    #[test]
    fn reassign_delta_matches_full_recompute() {
        let (_, nt, comp) = setup(3);
        let h = toy_model();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut config = Configuration::random(&comp, &mut rng);
        let mut ws = DeltaWorkspace::new(nt.num_sites());
        for trial in 0..100 {
            let k = rng.random_range(1..=8usize);
            // Distinct random sites.
            let mut sites: Vec<SiteId> = (0..nt.num_sites() as SiteId).collect();
            for i in 0..k {
                let j = rng.random_range(i..sites.len());
                sites.swap(i, j);
            }
            let moves: Vec<(SiteId, Species)> = sites[..k]
                .iter()
                .map(|&s| (s, Species(rng.random_range(0..3u8))))
                .collect();
            let e0 = h.total_energy(&config, &nt);
            let delta = h.reassign_delta(&config, &nt, &moves, &mut ws);
            for &(s, sp) in &moves {
                config.set(s, sp);
            }
            let e1 = h.total_energy(&config, &nt);
            assert!(
                ((e1 - e0) - delta).abs() < 1e-9,
                "trial {trial}: recompute {} vs delta {delta}",
                e1 - e0
            );
        }
    }

    #[test]
    fn reassign_with_whole_lattice_matches() {
        let (_, nt, comp) = setup(2);
        let h = toy_model();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut config = Configuration::random(&comp, &mut rng);
        let mut ws = DeltaWorkspace::new(nt.num_sites());
        let moves: Vec<(SiteId, Species)> = (0..nt.num_sites() as SiteId)
            .map(|s| (s, Species(rng.random_range(0..3u8))))
            .collect();
        let e0 = h.total_energy(&config, &nt);
        let delta = h.reassign_delta(&config, &nt, &moves, &mut ws);
        for &(s, sp) in &moves {
            config.set(s, sp);
        }
        assert!(((h.total_energy(&config, &nt) - e0) - delta).abs() < 1e-9);
    }

    #[test]
    fn empty_reassign_is_zero() {
        let (_, nt, comp) = setup(2);
        let h = toy_model();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let config = Configuration::random(&comp, &mut rng);
        let mut ws = DeltaWorkspace::new(nt.num_sites());
        assert_eq!(h.reassign_delta(&config, &nt, &[], &mut ws), 0.0);
    }

    #[test]
    fn bounds_contain_sampled_energies() {
        let (_, nt, comp) = setup(3);
        let h = toy_model();
        let lo = h.energy_lower_bound(&nt);
        let hi = h.energy_upper_bound(&nt);
        assert!(lo < hi);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..50 {
            let c = Configuration::random(&comp, &mut rng);
            let e = h.total_energy(&c, &nt);
            assert!(e >= lo && e <= hi, "{lo} <= {e} <= {hi}");
        }
    }

    #[test]
    fn random_alloy_energy_matches_analytic_mean() {
        let (cell, nt, comp) = setup(4);
        let h = toy_model();
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let n = 400;
        let mut mean = 0.0;
        for _ in 0..n {
            let c = Configuration::random(&comp, &mut rng);
            mean += h.total_energy(&c, &nt);
        }
        mean /= n as f64;
        let analytic =
            h.random_alloy_energy_per_site(&nt, &comp.fractions()) * cell.num_sites() as f64;
        // Finite-size correction: sampling without replacement slightly
        // shifts pair probabilities ~O(1/N); allow a generous tolerance.
        let scale = (cell.num_sites() as f64) * 0.01;
        assert!(
            (mean - analytic).abs() < scale.max(0.5),
            "mean {mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn b2_ground_state_is_lower_than_random_for_ordering_model() {
        // A model where unlike first-shell pairs are favored and like
        // second-shell pairs are favored: B2 must beat random.
        let h = PairHamiltonian::from_pairs(
            4,
            2,
            &[
                (0, 0, 2, -0.05),
                (0, 0, 3, -0.05),
                (0, 1, 2, -0.05),
                (0, 1, 3, -0.05),
                (1, 0, 1, -0.02),
                (1, 2, 3, -0.02),
            ],
        );
        let cell = Supercell::cubic(Structure::bcc(), 4);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        let b2 = Configuration::b2_ordered(&cell, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let rand_cfg = Configuration::random(&comp, &mut rng);
        assert!(h.total_energy(&b2, &nt) < h.total_energy(&rand_cfg, &nt));
    }
}
