//! Classical (non-neural) proposal kernels.

use dt_lattice::{Configuration, SiteId, Species};
use rand::{Rng, RngExt};

use crate::kinds::{Proposal, ProposalContext, ProposalKernel, ProposedMove};

/// The classical local move: swap the species of two uniformly chosen
/// sites. Symmetric, so the proposal-ratio term is zero.
#[derive(Debug, Clone, Default)]
pub struct LocalSwap {
    /// When true, resample until the two sites carry different species
    /// (avoids no-op moves; still symmetric).
    pub distinct_species_only: bool,
}

impl LocalSwap {
    /// A swap kernel that skips no-op same-species swaps.
    pub fn new() -> Self {
        LocalSwap {
            distinct_species_only: true,
        }
    }
}

impl ProposalKernel for LocalSwap {
    fn propose(
        &mut self,
        config: &Configuration,
        _ctx: &ProposalContext<'_>,
        rng: &mut dyn Rng,
    ) -> Proposal {
        let n = config.num_sites();
        let (a, b) = loop {
            let a = rng.random_range(0..n) as SiteId;
            let b = rng.random_range(0..n) as SiteId;
            if a == b {
                continue;
            }
            if self.distinct_species_only && config.species_at(a) == config.species_at(b) {
                continue;
            }
            break (a, b);
        };
        Proposal {
            mv: ProposedMove::Swap { a, b },
            log_q_forward: 0.0,
            log_q_reverse: 0.0,
        }
    }

    fn name(&self) -> &str {
        "local-swap"
    }
}

/// Nearest-neighbor swap: exchange a site with one of its first-shell
/// neighbors — the physically local move class that mimics
/// vacancy-mediated diffusion kinetics.
///
/// Symmetric: site `i` is uniform and the neighbor `j` uniform over `i`'s
/// `z₁` neighbors; since every site has the same coordination and the
/// neighbor relation is symmetric (with image multiplicity),
/// `q(x'|x) = q(x|x') = [1/(N z₁)]·(multiplicity of the i–j bond)` for the
/// unordered pair either way.
///
/// Unlike [`LocalSwap`], same-species pairs are NOT resampled away: the
/// count of *unlike adjacent* pairs is configuration-dependent (it is
/// essentially the energy), so conditioning on it would make the proposal
/// asymmetric. Same-species draws are returned as harmless no-op swaps.
#[derive(Debug, Clone, Default)]
pub struct NeighborSwap;

impl NeighborSwap {
    /// A first-shell neighbor-swap kernel.
    pub fn new() -> Self {
        NeighborSwap
    }
}

impl ProposalKernel for NeighborSwap {
    fn propose(
        &mut self,
        config: &Configuration,
        ctx: &ProposalContext<'_>,
        rng: &mut dyn Rng,
    ) -> Proposal {
        let _ = config;
        let n = ctx.neighbors.num_sites();
        let a = rng.random_range(0..n) as SiteId;
        let nbrs = ctx.neighbors.neighbors(a, 0);
        let b = nbrs[rng.random_range(0..nbrs.len())];
        Proposal {
            mv: ProposedMove::Swap { a, b },
            log_q_forward: 0.0,
            log_q_reverse: 0.0,
        }
    }

    fn name(&self) -> &str {
        "neighbor-swap"
    }
}

/// The naive global update: choose `k` distinct sites and redistribute
/// their species multiset uniformly at random among them.
///
/// The multiset is identical before and after, so for a fixed site set the
/// proposal is symmetric: `q(x'|x) = q(x|x') = Π_a m_a! / k!` where `m_a`
/// counts species `a` in the multiset — both log terms are reported as 0
/// since they cancel. This is the "global updates have vanishing
/// acceptance" baseline of the paper's motivation.
#[derive(Debug, Clone)]
pub struct RandomReassign {
    k: usize,
    site_buf: Vec<SiteId>,
    species_buf: Vec<Species>,
}

impl RandomReassign {
    /// Kernel updating `k` sites per proposal.
    ///
    /// # Panics
    /// Panics when `k < 2`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "reassignment needs at least 2 sites");
        RandomReassign {
            k,
            site_buf: Vec::new(),
            species_buf: Vec::new(),
        }
    }

    /// The update size `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Choose `k` distinct sites uniformly (partial Fisher–Yates), ascending.
pub(crate) fn sample_distinct_sites(n: usize, k: usize, buf: &mut Vec<SiteId>, rng: &mut dyn Rng) {
    assert!(k <= n, "cannot choose {k} distinct sites from {n}");
    buf.clear();
    buf.extend(0..n as SiteId);
    for i in 0..k {
        let j = rng.random_range(i..n);
        buf.swap(i, j);
    }
    buf.truncate(k);
    buf.sort_unstable();
}

impl ProposalKernel for RandomReassign {
    fn propose(
        &mut self,
        config: &Configuration,
        _ctx: &ProposalContext<'_>,
        rng: &mut dyn Rng,
    ) -> Proposal {
        let n = config.num_sites();
        let k = self.k.min(n);
        let mut sites = std::mem::take(&mut self.site_buf);
        sample_distinct_sites(n, k, &mut sites, rng);

        // Shuffle the species multiset of the chosen sites.
        let mut species = std::mem::take(&mut self.species_buf);
        species.clear();
        species.extend(sites.iter().map(|&s| config.species_at(s)));
        for i in (1..species.len()).rev() {
            let j = rng.random_range(0..=i);
            species.swap(i, j);
        }

        let moves: Vec<(SiteId, Species)> =
            sites.iter().copied().zip(species.iter().copied()).collect();
        self.site_buf = sites;
        self.species_buf = species;
        Proposal {
            mv: ProposedMove::Reassign { moves },
            log_q_forward: 0.0,
            log_q_reverse: 0.0,
        }
    }

    fn name(&self) -> &str {
        "random-reassign"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::apply_move;
    use dt_lattice::{Composition, Structure, Supercell};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ctx_fixture() -> (Supercell, dt_lattice::NeighborTable, Composition) {
        let cell = Supercell::cubic(Structure::bcc(), 3);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        (cell, nt, comp)
    }

    #[test]
    fn local_swap_proposes_distinct_species() {
        let (_, nt, comp) = ctx_fixture();
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let config = Configuration::random(&comp, &mut rng);
        let mut kernel = LocalSwap::new();
        for _ in 0..100 {
            let p = kernel.propose(&config, &ctx, &mut rng);
            match p.mv {
                ProposedMove::Swap { a, b } => {
                    assert_ne!(a, b);
                    assert_ne!(config.species_at(a), config.species_at(b));
                }
                _ => panic!("local swap must produce Swap"),
            }
            assert_eq!(p.log_q_ratio(), 0.0);
        }
    }

    #[test]
    fn random_reassign_conserves_composition() {
        let (_, nt, comp) = ctx_fixture();
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut config = Configuration::random(&comp, &mut rng);
        let mut kernel = RandomReassign::new(10);
        for _ in 0..50 {
            let p = kernel.propose(&config, &ctx, &mut rng);
            apply_move(&mut config, &p.mv);
            assert!(config.composition_matches(&comp));
        }
    }

    #[test]
    fn random_reassign_sites_are_distinct_and_sorted() {
        let (_, nt, comp) = ctx_fixture();
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let config = Configuration::random(&comp, &mut rng);
        let mut kernel = RandomReassign::new(8);
        for _ in 0..20 {
            let p = kernel.propose(&config, &ctx, &mut rng);
            if let ProposedMove::Reassign { moves } = &p.mv {
                assert_eq!(moves.len(), 8);
                for w in moves.windows(2) {
                    assert!(w[0].0 < w[1].0, "sites must be strictly ascending");
                }
            } else {
                panic!("expected Reassign");
            }
        }
    }

    #[test]
    fn sample_distinct_sites_is_uniformish() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut buf = Vec::new();
        let mut hits = [0u32; 10];
        for _ in 0..20_000 {
            sample_distinct_sites(10, 3, &mut buf, &mut rng);
            for &s in &buf {
                hits[s as usize] += 1;
            }
        }
        // Each site should be hit ≈ 20000 * 3/10 = 6000 times.
        for (i, &h) in hits.iter().enumerate() {
            assert!((5600..6400).contains(&h), "site {i}: {h}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn reassign_needs_k_ge_2() {
        let _ = RandomReassign::new(1);
    }

    #[test]
    fn neighbor_swap_targets_first_shell() {
        let (_, nt, comp) = ctx_fixture();
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let config = Configuration::random(&comp, &mut rng);
        let mut kernel = NeighborSwap::new();
        for _ in 0..200 {
            let p = kernel.propose(&config, &ctx, &mut rng);
            let ProposedMove::Swap { a, b } = p.mv else {
                panic!("expected swap")
            };
            assert!(
                nt.neighbors(a, 0).contains(&b),
                "{b} is not a first-shell neighbor of {a}"
            );
            assert_eq!(p.log_q_ratio(), 0.0);
        }
    }
}
