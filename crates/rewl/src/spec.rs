//! Kernel specifications: how each REWL rank builds (and retrains) its
//! proposal kernel.

use dt_proposal::{DeepProposalConfig, TrainerConfig};

/// Deep-proposal configuration for a REWL run.
#[derive(Debug, Clone)]
pub struct DeepSpec {
    /// Network / update-size configuration.
    pub proposal: DeepProposalConfig,
    /// Probability mass of the deep kernel in the local+deep mixture
    /// (0 < weight < 1; the rest goes to local swaps).
    pub deep_weight: f64,
    /// Trainer hyperparameters. `trainer.k` does not follow
    /// `proposal.k`: a spec that sets only the latter trains on 32-site
    /// contexts whatever it deploys on — see [`TrainerConfig::k`].
    pub trainer: TrainerConfig,
    /// Retrain every this many sweeps.
    pub train_every_sweeps: u64,
    /// Epochs per retraining round.
    pub epochs_per_round: usize,
    /// Sample-buffer capacity per rank.
    pub buffer_capacity: usize,
    /// Record a sample every this many sweeps.
    pub sample_every_sweeps: u64,
    /// Ignored: the walkers of a window always average their network
    /// weights after each retraining round (the simulated NCCL/RCCL
    /// allreduce). Kept so existing struct literals still compile; it
    /// still feeds `config_digest` through `Debug`, so checkpoints stay
    /// keyed as before.
    pub sync_weights: bool,
}

impl Default for DeepSpec {
    fn default() -> Self {
        DeepSpec {
            proposal: DeepProposalConfig::default(),
            deep_weight: 0.2,
            trainer: TrainerConfig::default(),
            train_every_sweeps: 50,
            epochs_per_round: 4,
            buffer_capacity: 256,
            sample_every_sweeps: 2,
            sync_weights: true,
        }
    }
}

/// What proposal kernel each walker runs.
#[derive(Debug, Clone)]
pub enum KernelSpec {
    /// Classical local swaps only (the baseline).
    LocalSwap,
    /// Local swaps mixed with naive k-site random reassignments.
    RandomGlobal {
        /// Sites per global update.
        k: usize,
        /// Probability mass of the global kernel.
        weight: f64,
    },
    /// DeepThermo: local swaps mixed with the trained deep proposal.
    Deep(Box<DeepSpec>),
}

impl KernelSpec {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            KernelSpec::LocalSwap => "local",
            KernelSpec::RandomGlobal { .. } => "random-global",
            KernelSpec::Deep(_) => "deep",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(KernelSpec::LocalSwap.label(), "local");
        assert_eq!(
            KernelSpec::RandomGlobal { k: 8, weight: 0.5 }.label(),
            "random-global"
        );
        assert_eq!(KernelSpec::Deep(Box::default()).label(), "deep");
    }

    #[test]
    fn default_deep_spec_is_sane() {
        let d = DeepSpec::default();
        assert!(d.deep_weight > 0.0 && d.deep_weight < 1.0);
        assert!(d.buffer_capacity > 0);
        assert!(d.train_every_sweeps > 0);
    }
}
