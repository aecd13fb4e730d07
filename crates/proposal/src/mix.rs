//! Weighted mixtures of proposal kernels.
//!
//! DeepThermo interleaves cheap local swaps with expensive deep global
//! updates. Because the mixture weights are state-independent and every
//! component kernel individually satisfies detailed balance (given its
//! reported `q` ratio), the mixture kernel preserves the target ensemble.

use dt_lattice::Configuration;
use rand::{Rng, RngExt};

use crate::kinds::{Proposal, ProposalContext, ProposalKernel};

/// A state-independent mixture of proposal kernels: each proposal first
/// draws its component from the caller's RNG stream, then the component
/// draws the move from the same stream.
pub struct ProposalMix {
    kernels: Vec<(Box<dyn ProposalKernel>, f64)>,
    cumulative: Vec<f64>,
    /// Index of the kernel used for the most recent proposal.
    last_used: usize,
    name: String,
}

impl ProposalMix {
    /// Build from `(kernel, weight)` pairs; weights are normalized.
    ///
    /// # Panics
    /// Panics when empty or when any weight is non-positive.
    pub fn new(kernels: Vec<(Box<dyn ProposalKernel>, f64)>) -> Self {
        assert!(!kernels.is_empty(), "mixture needs at least one kernel");
        let total: f64 = kernels.iter().map(|&(_, w)| w).sum();
        assert!(
            kernels.iter().all(|&(_, w)| w > 0.0) && total > 0.0,
            "mixture weights must be positive"
        );
        let mut cumulative = Vec::with_capacity(kernels.len());
        let mut acc = 0.0;
        for &(_, w) in &kernels {
            acc += w / total;
            cumulative.push(acc);
        }
        // Guard against round-off on the final boundary.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        let name = kernels
            .iter()
            .map(|(k, _)| k.name())
            .collect::<Vec<_>>()
            .join("+");
        ProposalMix {
            kernels,
            cumulative,
            last_used: 0,
            name,
        }
    }

    /// Component index drawn from `u ∈ [0, 1)`.
    fn pick(&self, u: f64) -> usize {
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.kernels.len() - 1)
    }
}

impl ProposalKernel for ProposalMix {
    fn propose(
        &mut self,
        config: &Configuration,
        ctx: &ProposalContext<'_>,
        rng: &mut dyn Rng,
    ) -> Proposal {
        let u: f64 = rng.random();
        let idx = self.pick(u);
        self.last_used = idx;
        self.kernels[idx].0.propose(config, ctx, rng)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn last_kernel_name(&self) -> &str {
        self.kernels[self.last_used].0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{LocalSwap, RandomReassign};
    use dt_lattice::{Composition, Configuration, Structure, Supercell};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mixture_uses_all_kernels_with_roughly_right_frequency() {
        let cell = Supercell::cubic(Structure::bcc(), 2);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let config = Configuration::random(&comp, &mut rng);
        let mut mix = ProposalMix::new(vec![
            (Box::new(LocalSwap::new()), 3.0),
            (Box::new(RandomReassign::new(4)), 1.0),
        ]);
        let mut local = 0usize;
        for _ in 0..4000 {
            let _ = mix.propose(&config, &ctx, &mut rng);
            match mix.last_kernel_name() {
                "local-swap" => local += 1,
                other => assert_eq!(other, "random-reassign"),
            }
        }
        let frac = local as f64 / 4000.0;
        assert!((frac - 0.75).abs() < 0.03, "local fraction {frac}");
        assert_eq!(mix.name(), "local-swap+random-reassign");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = ProposalMix::new(vec![(Box::new(LocalSwap::new()), 0.0)]);
    }
}
