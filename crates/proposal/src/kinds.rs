//! The proposal abstraction: moves, kernels, and move application.

use dt_hamiltonian::{DeltaWorkspace, EnergyModel};
use dt_lattice::{Composition, Configuration, NeighborTable, SiteId, Species};
use rand::Rng;

/// A candidate configuration update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProposedMove {
    /// Exchange the species of two sites.
    Swap {
        /// First site.
        a: SiteId,
        /// Second site.
        b: SiteId,
    },
    /// Simultaneously reassign the species of several distinct sites.
    /// The kernel guarantees the reassignment conserves composition.
    Reassign {
        /// `(site, new species)` pairs, sites strictly ascending.
        moves: Vec<(SiteId, Species)>,
    },
}

/// A proposed move together with the log proposal probabilities needed for
/// the Metropolis–Hastings correction:
/// `A = min(1, [π(x') q(x|x')] / [π(x) q(x'|x)])`.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The move itself.
    pub mv: ProposedMove,
    /// `ln q(x'|x)` — probability of proposing this move from the current
    /// state (up to kernel-constant factors that cancel with the reverse).
    pub log_q_forward: f64,
    /// `ln q(x|x')` — probability of the exact reverse move from the
    /// proposed state (same constant convention).
    pub log_q_reverse: f64,
}

impl Proposal {
    /// The `ln [q(x|x') / q(x'|x)]` term of the MH acceptance ratio.
    #[inline]
    pub fn log_q_ratio(&self) -> f64 {
        self.log_q_reverse - self.log_q_forward
    }
}

/// Immutable lattice context shared by proposal kernels.
#[derive(Clone, Copy)]
pub struct ProposalContext<'a> {
    /// Shell-resolved neighbor lists.
    pub neighbors: &'a NeighborTable,
    /// The fixed alloy composition.
    pub composition: &'a Composition,
}

/// One configuration and its private RNG stream: the argument of
/// [`ProposalKernel::propose_batch`].
pub struct ProposalSlot<'a> {
    /// The walker's current configuration.
    pub config: &'a Configuration,
    /// The walker's private RNG stream.
    pub rng: &'a mut dyn Rng,
}

/// A Monte Carlo proposal kernel.
///
/// The engines (`WlWalker::step`, `MetropolisSampler::step`) call
/// [`ProposalKernel::propose`]: one walker per rank, one proposal per
/// step, drawn from that walker's RNG stream.
///
/// Kernels may keep internal scratch buffers (hence `&mut self`) but must
/// not carry statistical state between proposals: each call must be a
/// valid draw from `q(·|x)` for the current configuration `x`.
pub trait ProposalKernel: Send {
    /// Draw a proposed move from the current configuration.
    fn propose(
        &mut self,
        config: &Configuration,
        ctx: &ProposalContext<'_>,
        rng: &mut dyn Rng,
    ) -> Proposal;

    /// Adapter: [`ProposalKernel::propose`] once per slot, in slot order,
    /// each from its slot's own stream, the proposals appended to `out`
    /// (cleared first). No engine calls it and no kernel overrides it; it
    /// stays because the frozen benchmark's proposal probe times its
    /// kernels through it with one slot.
    fn propose_batch(
        &mut self,
        slots: &mut [ProposalSlot<'_>],
        ctx: &ProposalContext<'_>,
        out: &mut Vec<Proposal>,
    ) {
        out.clear();
        out.reserve(slots.len());
        for slot in slots.iter_mut() {
            out.push(self.propose(slot.config, ctx, slot.rng));
        }
    }

    /// Human-readable kernel name for reports.
    fn name(&self) -> &str;

    /// Name of the sub-kernel that produced the most recent proposal.
    /// Mixtures override this so acceptance statistics can be attributed
    /// per component; plain kernels return [`ProposalKernel::name`].
    fn last_kernel_name(&self) -> &str {
        self.name()
    }
}

/// Apply a move to a configuration.
pub fn apply_move(config: &mut Configuration, mv: &ProposedMove) {
    match mv {
        ProposedMove::Swap { a, b } => config.swap(*a, *b),
        ProposedMove::Reassign { moves } => {
            for &(site, s) in moves {
                config.set(site, s);
            }
        }
    }
}

/// Energy change of a move under a model, via the model's incremental path.
pub fn move_delta<M: EnergyModel>(
    model: &M,
    config: &Configuration,
    neighbors: &NeighborTable,
    mv: &ProposedMove,
    workspace: &mut DeltaWorkspace,
) -> f64 {
    match mv {
        ProposedMove::Swap { a, b } => model.swap_delta(config, neighbors, *a, *b),
        ProposedMove::Reassign { moves } => {
            model.reassign_delta(config, neighbors, moves, workspace)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_lattice::{Composition, Structure, Supercell};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn apply_swap_and_reassign() {
        let comp = Composition::from_counts(vec![2, 2]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut c = Configuration::random(&comp, &mut rng);
        let before = c.species().to_vec();
        apply_move(&mut c, &ProposedMove::Swap { a: 0, b: 3 });
        assert_eq!(c.species_at(0), before[3]);
        assert_eq!(c.species_at(3), before[0]);

        apply_move(
            &mut c,
            &ProposedMove::Reassign {
                moves: vec![(1, Species(0)), (2, Species(1))],
            },
        );
        assert_eq!(c.species_at(1), Species(0));
        assert_eq!(c.species_at(2), Species(1));
    }

    #[test]
    fn move_delta_dispatches_both_variants() {
        let cell = Supercell::cubic(Structure::bcc(), 2);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(2, cell.num_sites()).unwrap();
        let h = dt_hamiltonian::PairHamiltonian::from_pairs(2, 2, &[(0, 0, 1, -0.01)]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut c = Configuration::random(&comp, &mut rng);
        let mut ws = DeltaWorkspace::new(cell.num_sites());

        use dt_hamiltonian::EnergyModel as _;
        let swap = ProposedMove::Swap { a: 0, b: 5 };
        let e0 = h.total_energy(&c, &nt);
        let d = move_delta(&h, &c, &nt, &swap, &mut ws);
        apply_move(&mut c, &swap);
        assert!(((h.total_energy(&c, &nt) - e0) - d).abs() < 1e-9);

        let re = ProposedMove::Reassign {
            moves: vec![(0, Species(1)), (7, Species(0))],
        };
        let e0 = h.total_energy(&c, &nt);
        let d = move_delta(&h, &c, &nt, &re, &mut ws);
        apply_move(&mut c, &re);
        assert!(((h.total_energy(&c, &nt) - e0) - d).abs() < 1e-9);
    }

    #[test]
    fn log_q_ratio_sign() {
        let p = Proposal {
            mv: ProposedMove::Swap { a: 0, b: 1 },
            log_q_forward: -2.0,
            log_q_reverse: -3.0,
        };
        assert_eq!(p.log_q_ratio(), -1.0);
    }
}
