//! The deep, global, composition-conserving proposal — DeepThermo's core
//! contribution.
//!
//! ## Mechanism
//!
//! A proposal updates `k` sites chosen uniformly at random. The species
//! multiset currently on those sites is redistributed by **constrained
//! autoregressive decoding**: sites are visited in ascending index order
//! and a shared context network assigns each a species drawn from a
//! masked softmax, where the mask forbids species whose multiset budget is
//! exhausted — so composition is conserved *exactly*, by construction.
//!
//! The context features are local (decided-neighbor species histograms per
//! coordination shell) plus the remaining multiset budget, so a trained
//! network reproduces the short-range order of the ensemble it was trained
//! on and proposes *plausible global rearrangements* rather than uniform
//! noise.
//!
//! ## Exactness
//!
//! Metropolis–Hastings needs `q(x'|x)` and `q(x|x')`. Both are products of
//! masked-softmax factors along the decoding order:
//!
//! * forward: contexts evolve with the **new** species as they are decoded;
//! * reverse: the reverse move selects the same site set (selection
//!   probability cancels) and decodes the **old** species, so its contexts
//!   are the original configuration restricted to already-decoded sites.
//!
//! Both passes are replayed site-by-site in this module, giving log
//! probabilities that are exact to `f64` round-off. The property tests
//! verify the replay identity `log_prob(x' → x) == log_q_reverse` and that
//! the per-site factors normalize.

use dt_lattice::{Configuration, NeighborTable, SiteId, Species};
use dt_nn::{log_softmax_masked_into, sample_categorical, Activation, ForwardScratch, Mlp};
use dt_telemetry::{Phase, Telemetry};
use rand::Rng;

use crate::kinds::{Proposal, ProposalContext, ProposalKernel, ProposedMove};
use crate::local::sample_distinct_sites;

/// Describes the feature vector consumed by the proposal network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureLayout {
    /// Number of alloy species `m`.
    pub num_species: usize,
    /// Number of coordination shells read from the neighbor table.
    pub num_shells: usize,
}

impl FeatureLayout {
    /// Feature dimension:
    /// `shells·species` (decided-neighbor histograms) + `shells`
    /// (undecided fraction) + `species` (remaining multiset budget) + 1
    /// (decode progress).
    pub fn dim(&self) -> usize {
        self.num_shells * self.num_species + self.num_shells + self.num_species + 1
    }

    /// Fill `out` with the context features of `site`.
    ///
    /// `species` is the working species array, `decided[i]` marks sites
    /// whose species is part of the context, `remaining` is the unspent
    /// multiset budget, `remaining_slots` the number of undecoded sites,
    /// and `progress` the fraction of the move already decoded.
    #[allow(clippy::too_many_arguments)]
    pub fn fill(
        &self,
        out: &mut [f64],
        site: SiteId,
        neighbors: &NeighborTable,
        species: &[Species],
        decided: &[bool],
        remaining: &[usize],
        remaining_slots: usize,
        progress: f64,
    ) {
        debug_assert_eq!(out.len(), self.dim());
        out.fill(0.0);
        let m = self.num_species;
        for shell in 0..self.num_shells {
            let z = neighbors.coordination(shell) as f64;
            let base = shell * m;
            let mut undecided = 0usize;
            for &j in neighbors.neighbors(site, shell) {
                if decided[j as usize] {
                    out[base + species[j as usize].index()] += 1.0;
                } else {
                    undecided += 1;
                }
            }
            for v in &mut out[base..base + m] {
                *v /= z;
            }
            out[self.num_shells * m + shell] = undecided as f64 / z;
        }
        let rem_base = self.num_shells * m + self.num_shells;
        let slots = remaining_slots.max(1) as f64;
        for (a, &r) in remaining.iter().enumerate() {
            out[rem_base + a] = r as f64 / slots;
        }
        out[rem_base + m] = progress;
    }
}

/// Configuration of a [`DeepProposal`] kernel.
#[derive(Debug, Clone)]
pub struct DeepProposalConfig {
    /// Sites updated per proposal.
    pub k: usize,
    /// Hidden layer widths of the context network.
    pub hidden: Vec<usize>,
}

impl Default for DeepProposalConfig {
    fn default() -> Self {
        DeepProposalConfig {
            k: 32,
            hidden: vec![64, 64],
        }
    }
}

/// The deep autoregressive proposal kernel.
///
/// All inference runs on the batched engine in `dt-nn`. The forward
/// decode is genuinely autoregressive (each step's context depends on the
/// previous step's sampled species), so it decodes batch-1 out of a
/// reused [`ForwardScratch`]. Teacher-forced replay — the reverse
/// log-probability and [`DeepProposal::log_prob_of_reassignment`] — knows
/// every context row upfront and runs **one k-row forward**, bit-identical
/// to k batch-1 passes because the engine's per-row accumulation order is
/// batch-size-independent. After warm-up a proposal allocates only its
/// returned move list.
#[derive(Debug, Clone)]
pub struct DeepProposal {
    net: Mlp,
    layout: FeatureLayout,
    k: usize,
    tel: Telemetry,
    // Scratch buffers (reused across proposals; one kernel per walker).
    site_buf: Vec<SiteId>,
    decided: Vec<bool>,
    work: Vec<Species>,
    feat: Vec<f64>,
    /// Activation ping-pong buffers for the inference engine.
    scratch: ForwardScratch,
    /// `k × dim` feature rows for batched teacher-forced replay.
    batch_feat: Vec<f64>,
    /// `k × m` per-step species masks for batched replay.
    batch_mask: Vec<bool>,
    /// Per-step log-probabilities (`m`), written by the masked softmax.
    logp: Vec<f64>,
    /// Per-step species mask (`m`) for batch-1 decoding.
    mask: Vec<bool>,
    /// Remaining multiset budget (`m`).
    remaining: Vec<usize>,
    /// Second budget buffer: permutation checks and reverse replay.
    remaining_chk: Vec<usize>,
    /// Species sampled by the forward decode (`k`).
    new_species: Vec<Species>,
    /// Old species on the selected sites (`k`), for reverse replay.
    old_species: Vec<Species>,
}

impl DeepProposal {
    /// Fresh kernel with a randomly initialized network.
    pub fn new<R: Rng + ?Sized>(
        num_species: usize,
        num_shells: usize,
        cfg: &DeepProposalConfig,
        rng: &mut R,
    ) -> Self {
        let layout = FeatureLayout {
            num_species,
            num_shells,
        };
        let mut dims = vec![layout.dim()];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(num_species);
        let net = Mlp::new(&dims, Activation::Relu, Activation::Identity, rng);
        DeepProposal::with_net(net, layout, cfg.k)
    }

    /// Kernel around an existing (e.g. deserialized or freshly trained)
    /// network.
    ///
    /// # Panics
    /// Panics when the network shape does not match the layout.
    pub fn with_net(net: Mlp, layout: FeatureLayout, k: usize) -> Self {
        assert_eq!(net.in_dim(), layout.dim(), "network input dim mismatch");
        assert_eq!(
            net.out_dim(),
            layout.num_species,
            "network output dim mismatch"
        );
        assert!(k >= 2, "deep proposal needs k >= 2");
        let m = layout.num_species;
        DeepProposal {
            feat: vec![0.0; layout.dim()],
            scratch: ForwardScratch::for_mlp(&net, k),
            batch_feat: vec![0.0; k * layout.dim()],
            batch_mask: vec![false; k * m],
            logp: Vec::with_capacity(m),
            mask: Vec::with_capacity(m),
            remaining: vec![0; m],
            remaining_chk: vec![0; m],
            new_species: Vec::with_capacity(k),
            old_species: Vec::with_capacity(k),
            net,
            layout,
            k,
            tel: Telemetry::disabled(),
            site_buf: Vec::new(),
            decided: Vec::new(),
            work: Vec::new(),
        }
    }

    /// Pre-size every internal buffer for a system of `num_sites` sites so
    /// the first proposal is already steady-state (no warm-up
    /// allocations). Drivers call this once per rank before sampling.
    pub fn warm_up(&mut self, num_sites: usize) {
        let k = self.k.min(num_sites);
        let dim = self.layout.dim();
        let m = self.layout.num_species;
        self.site_buf.reserve(num_sites);
        if self.decided.len() < num_sites {
            self.decided.resize(num_sites, true);
        }
        self.work.reserve(num_sites);
        if self.batch_feat.len() < k * dim {
            self.batch_feat.resize(k * dim, 0.0);
        }
        if self.batch_mask.len() < k * m {
            self.batch_mask.resize(k * m, false);
        }
        self.new_species.reserve(k);
        self.old_species.reserve(k);
        self.scratch.reserve(&self.net, k);
    }

    /// Attach a telemetry handle; each proposal records one
    /// [`Phase::Inference`] span covering the forward decode and reverse
    /// replay network passes.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Sites updated per proposal.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The feature layout.
    pub fn layout(&self) -> FeatureLayout {
        self.layout
    }

    /// Borrow the context network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Mutable access for training.
    pub fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Exact log-probability that, starting from `config`, the constrained
    /// decoder would assign `targets[i]` to `sites[i]` (sites ascending).
    ///
    /// This is the teacher-forced replay used both for the reverse
    /// probability inside [`ProposalKernel::propose`] and by the property
    /// tests; `targets` must be a permutation of the species currently on
    /// `sites`. Because every target is known upfront, all `k` context
    /// rows are built first and the network runs **once** on the whole
    /// batch — bit-identical to k sequential batch-1 passes (see the
    /// `dt-nn` equivalence suite) but several times faster.
    pub fn log_prob_of_reassignment(
        &mut self,
        config: &Configuration,
        neighbors: &NeighborTable,
        sites: &[SiteId],
        targets: &[Species],
    ) -> f64 {
        assert_eq!(sites.len(), targets.len());
        {
            // Verify `targets` is a permutation of the multiset.
            let chk = std::mem::take(&mut self.remaining_chk);
            let mut chk = multiset_counts_into(config, sites, self.layout.num_species, chk);
            for s in targets {
                assert!(chk[s.index()] > 0, "targets must match the site multiset");
                chk[s.index()] -= 1;
            }
            self.remaining_chk = chk;
        }
        self.replay_log_prob(config, neighbors, sites, targets)
    }

    /// Batched teacher-forced replay core (no permutation check).
    ///
    /// Builds the `k × dim` feature rows and `k × m` masks by walking the
    /// decode order with the known targets, runs one k-row forward, then
    /// sums the masked log-softmax factors. Zero heap allocations at
    /// steady state.
    fn replay_log_prob(
        &mut self,
        config: &Configuration,
        neighbors: &NeighborTable,
        sites: &[SiteId],
        targets: &[Species],
    ) -> f64 {
        let m = self.layout.num_species;
        let dim = self.layout.dim();
        let k = sites.len();
        let n = config.num_sites();
        self.prepare_scratch(n, config, sites);
        let mut remaining =
            multiset_counts_into(config, sites, m, std::mem::take(&mut self.remaining));
        if self.batch_feat.len() < k * dim {
            self.batch_feat.resize(k * dim, 0.0);
        }
        if self.batch_mask.len() < k * m {
            self.batch_mask.resize(k * m, false);
        }
        let mut batch_feat = std::mem::take(&mut self.batch_feat);
        for (step, (&site, &target)) in sites.iter().zip(targets).enumerate() {
            self.layout.fill(
                &mut batch_feat[step * dim..(step + 1) * dim],
                site,
                neighbors,
                &self.work,
                &self.decided,
                &remaining,
                k - step,
                step as f64 / k as f64,
            );
            for (allowed, &r) in self.batch_mask[step * m..(step + 1) * m]
                .iter_mut()
                .zip(&remaining)
            {
                *allowed = r > 0;
            }
            remaining[target.index()] -= 1;
            self.work[site as usize] = target;
            self.decided[site as usize] = true;
        }
        // ONE k-row forward instead of k batch-1 passes.
        let logits = self
            .net
            .forward_into(&batch_feat[..k * dim], k, &mut self.scratch);
        let mut logp_total = 0.0;
        for (step, &target) in targets.iter().enumerate() {
            log_softmax_masked_into(
                &logits[step * m..(step + 1) * m],
                Some(&self.batch_mask[step * m..(step + 1) * m]),
                &mut self.logp,
            );
            logp_total += self.logp[target.index()];
        }
        self.batch_feat = batch_feat;
        self.remaining = remaining;
        logp_total
    }

    /// Masked per-species log-probabilities for the next decode step,
    /// written into `self.logp` (batch-1: the forward decode is genuinely
    /// autoregressive, but it runs out of the reused scratch, so no heap
    /// allocation happens per step).
    fn site_log_probs_into(
        &mut self,
        site: SiteId,
        neighbors: &NeighborTable,
        k: usize,
        step: usize,
        remaining: &[usize],
    ) {
        let remaining_slots = k - step;
        let progress = step as f64 / k as f64;
        // Split borrows: move feat out while the net runs.
        let mut feat = std::mem::take(&mut self.feat);
        self.layout.fill(
            &mut feat,
            site,
            neighbors,
            &self.work,
            &self.decided,
            remaining,
            remaining_slots,
            progress,
        );
        let logits = self.net.forward_into(&feat, 1, &mut self.scratch);
        self.mask.clear();
        self.mask.extend(remaining.iter().map(|&r| r > 0));
        log_softmax_masked_into(logits, Some(&self.mask), &mut self.logp);
        self.feat = feat;
    }

    fn prepare_scratch(&mut self, n: usize, config: &Configuration, sites: &[SiteId]) {
        self.work.clear();
        self.work.extend_from_slice(config.species());
        self.decided.clear();
        self.decided.resize(n, true);
        for &s in sites {
            self.decided[s as usize] = false;
        }
    }
}

/// Per-species counts of the multiset on `sites`, reusing `buf`.
fn multiset_counts_into(
    config: &Configuration,
    sites: &[SiteId],
    m: usize,
    mut buf: Vec<usize>,
) -> Vec<usize> {
    buf.clear();
    buf.resize(m, 0);
    for &s in sites {
        buf[config.species_at(s).index()] += 1;
    }
    buf
}

impl ProposalKernel for DeepProposal {
    fn propose(
        &mut self,
        config: &Configuration,
        ctx: &ProposalContext<'_>,
        rng: &mut dyn Rng,
    ) -> Proposal {
        let n = config.num_sites();
        let k = self.k.min(n);
        let m = self.layout.num_species;

        // Clone the handle so the span's borrow does not pin `self`.
        let tel = self.tel.clone();
        let _span = tel.span(Phase::Inference);

        let mut sites = std::mem::take(&mut self.site_buf);
        sample_distinct_sites(n, k, &mut sites, rng);

        // --- Forward decode: sample new species, contexts use new values.
        // Genuinely autoregressive (step t+1's context depends on the
        // species sampled at step t), so this is the one place batch-1
        // inference is unavoidable; it runs out of the reused scratch.
        self.prepare_scratch(n, config, &sites);
        let mut remaining_f =
            multiset_counts_into(config, &sites, m, std::mem::take(&mut self.remaining));
        self.new_species.clear();
        let mut log_q_forward = 0.0;
        for (step, &site) in sites.iter().enumerate() {
            self.site_log_probs_into(site, ctx.neighbors, k, step, &remaining_f);
            let (chosen, lp) = sample_categorical(&self.logp, rng);
            log_q_forward += lp;
            remaining_f[chosen] -= 1;
            let s = Species(chosen as u8);
            self.new_species.push(s);
            self.work[site as usize] = s;
            self.decided[site as usize] = true;
        }
        self.remaining = remaining_f;

        // --- Reverse replay: probability of decoding the old species when
        // starting from the proposed configuration. Non-selected sites are
        // identical in both states and decoded selected sites carry the old
        // species, so the context is the *original* configuration — and
        // every target is known upfront, so the whole replay is ONE k-row
        // batched forward.
        let mut old = std::mem::take(&mut self.old_species);
        old.clear();
        old.extend(sites.iter().map(|&s| config.species_at(s)));
        let log_q_reverse = self.replay_log_prob(config, ctx.neighbors, &sites, &old);
        self.old_species = old;

        let moves: Vec<(SiteId, Species)> = sites
            .iter()
            .copied()
            .zip(self.new_species.iter().copied())
            .collect();
        self.site_buf = sites;
        Proposal {
            mv: ProposedMove::Reassign { moves },
            log_q_forward,
            log_q_reverse,
        }
    }

    fn name(&self) -> &str {
        "deep-autoregressive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::apply_move;
    use dt_lattice::{Composition, Structure, Supercell};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fixture() -> (Supercell, NeighborTable, Composition) {
        let cell = Supercell::cubic(Structure::bcc(), 3);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        (cell, nt, comp)
    }

    fn kernel(k: usize, seed: u64) -> DeepProposal {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        DeepProposal::new(
            4,
            2,
            &DeepProposalConfig {
                k,
                hidden: vec![16, 16],
            },
            &mut rng,
        )
    }

    #[test]
    fn proposals_conserve_composition() {
        let (_, nt, comp) = fixture();
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut config = Configuration::random(&comp, &mut rng);
        let mut kern = kernel(12, 7);
        for _ in 0..30 {
            let p = kern.propose(&config, &ctx, &mut rng);
            apply_move(&mut config, &p.mv);
            assert!(config.composition_matches(&comp));
        }
    }

    #[test]
    fn forward_logprob_matches_teacher_forced_replay() {
        let (_, nt, comp) = fixture();
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let config = Configuration::random(&comp, &mut rng);
        let mut kern = kernel(10, 8);
        let p = kern.propose(&config, &ctx, &mut rng);
        let ProposedMove::Reassign { moves } = &p.mv else {
            panic!("expected reassign")
        };
        let sites: Vec<SiteId> = moves.iter().map(|&(s, _)| s).collect();
        let targets: Vec<Species> = moves.iter().map(|&(_, t)| t).collect();
        let replay = kern.log_prob_of_reassignment(&config, &nt, &sites, &targets);
        assert!(
            (replay - p.log_q_forward).abs() < 1e-10,
            "{replay} vs {}",
            p.log_q_forward
        );
    }

    #[test]
    fn reverse_logprob_matches_replay_from_proposed_state() {
        let (_, nt, comp) = fixture();
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = Configuration::random(&comp, &mut rng);
        let mut kern = kernel(8, 9);
        let p = kern.propose(&config, &ctx, &mut rng);
        let ProposedMove::Reassign { moves } = &p.mv else {
            panic!("expected reassign")
        };
        let sites: Vec<SiteId> = moves.iter().map(|&(s, _)| s).collect();
        let old: Vec<Species> = sites.iter().map(|&s| config.species_at(s)).collect();
        let mut proposed = config.clone();
        apply_move(&mut proposed, &p.mv);
        let replay = kern.log_prob_of_reassignment(&proposed, &nt, &sites, &old);
        assert!(
            (replay - p.log_q_reverse).abs() < 1e-10,
            "{replay} vs {}",
            p.log_q_reverse
        );
    }

    #[test]
    fn decode_probabilities_normalize_over_all_outcomes() {
        // Tiny system: 4 selected sites holding {0,0,1,1}; the 6 distinct
        // assignments must have probabilities summing to 1.
        let cell = Supercell::cubic(Structure::simple_cubic(), 2);
        let nt = cell.neighbor_table(1);
        let comp = Composition::equiatomic(2, 8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let config = Configuration::random(&comp, &mut rng);
        let mut kern = {
            let mut krng = ChaCha8Rng::seed_from_u64(11);
            DeepProposal::new(
                2,
                1,
                &DeepProposalConfig {
                    k: 4,
                    hidden: vec![8],
                },
                &mut krng,
            )
        };
        // Choose 4 sites with two of each species.
        let mut sites = Vec::new();
        let mut c0 = 0;
        let mut c1 = 0;
        for s in 0..8u32 {
            match config.species_at(s).0 {
                0 if c0 < 2 => {
                    sites.push(s);
                    c0 += 1;
                }
                1 if c1 < 2 => {
                    sites.push(s);
                    c1 += 1;
                }
                _ => {}
            }
        }
        sites.sort_unstable();
        assert_eq!(sites.len(), 4);

        // All distinct arrangements of {0,0,1,1} over 4 slots.
        let mut total = 0.0;
        let mut count = 0;
        for bits in 0u32..16 {
            if bits.count_ones() != 2 {
                continue;
            }
            let targets: Vec<Species> = (0..4)
                .map(|i| Species(u8::from(bits & (1 << i) != 0)))
                .collect();
            total += kern
                .log_prob_of_reassignment(&config, &nt, &sites, &targets)
                .exp();
            count += 1;
        }
        assert_eq!(count, 6);
        assert!((total - 1.0).abs() < 1e-9, "total probability {total}");
    }

    #[test]
    fn untrained_deep_proposal_behaves_like_random_on_average() {
        // With a random network the proposal is still a valid distribution;
        // log_q values must be finite and the identity move reachable.
        let (_, nt, comp) = fixture();
        let ctx = ProposalContext {
            neighbors: &nt,
            composition: &comp,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let config = Configuration::random(&comp, &mut rng);
        let mut kern = kernel(6, 10);
        for _ in 0..20 {
            let p = kern.propose(&config, &ctx, &mut rng);
            assert!(p.log_q_forward.is_finite());
            assert!(p.log_q_reverse.is_finite());
            assert!(p.log_q_forward <= 0.0 + 1e-12);
            assert!(p.log_q_reverse <= 0.0 + 1e-12);
        }
    }

    #[test]
    fn feature_layout_dim_matches_fill() {
        let (_, nt, comp) = fixture();
        let layout = FeatureLayout {
            num_species: 4,
            num_shells: 2,
        };
        assert_eq!(layout.dim(), 2 * 4 + 2 + 4 + 1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = Configuration::random(&comp, &mut rng);
        let mut out = vec![0.0; layout.dim()];
        let decided = vec![true; config.num_sites()];
        layout.fill(
            &mut out,
            0,
            &nt,
            config.species(),
            &decided,
            &[4, 4, 4, 4],
            16,
            0.0,
        );
        // Neighbor histograms normalize to <= 1 per shell.
        let shell0: f64 = out[0..4].iter().sum();
        assert!(
            (shell0 - 1.0).abs() < 1e-12,
            "all decided: fractions sum to 1"
        );
        assert_eq!(out[8], 0.0, "no undecided neighbors");
    }

    proptest! {
        /// The proposal context features must size and normalize correctly
        /// for every species count m ∈ 2..=6 and shell count ∈ 1..=6 —
        /// what the material layer needs to run arbitrary alloys through
        /// the deep kernel. For each shell, decided histogram + undecided
        /// fraction partition the coordination sphere.
        #[test]
        fn feature_sizing_is_material_agnostic(
            m in 2usize..=6,
            shells in 1usize..=6,
            bcc in any::<bool>(),
            seed in 0u64..1 << 48,
        ) {
            use rand::RngExt;
            let structure = if bcc { Structure::bcc() } else { Structure::fcc() };
            let cell = Supercell::cubic(structure, 2);
            let nt = cell.try_neighbor_table(shells).unwrap();
            let comp = Composition::equiatomic(m, cell.num_sites()).unwrap();
            let layout = FeatureLayout {
                num_species: m,
                num_shells: shells,
            };
            prop_assert_eq!(layout.dim(), shells * m + shells + m + 1);

            // The network built for this layout consumes exactly dim().
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let kern = DeepProposal::new(
                m,
                shells,
                &DeepProposalConfig {
                    k: 4,
                    hidden: vec![8],
                },
                &mut rng,
            );
            prop_assert_eq!(kern.layout(), layout);
            prop_assert_eq!(kern.net().in_dim(), layout.dim());

            let config = Configuration::random(&comp, &mut rng);
            let decided: Vec<bool> = (0..config.num_sites())
                .map(|_| rng.random_range(0..2u8) == 0)
                .collect();
            let mut out = vec![0.0; layout.dim()];
            layout.fill(
                &mut out,
                0,
                &nt,
                config.species(),
                &decided,
                comp.counts(),
                config.num_sites(),
                0.5,
            );
            for shell in 0..shells {
                let hist: f64 = out[shell * m..(shell + 1) * m].iter().sum();
                let undecided = out[shells * m + shell];
                prop_assert!(
                    (hist + undecided - 1.0).abs() < 1e-9,
                    "shell {}: {} + {} != 1",
                    shell, hist, undecided
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiset")]
    fn replay_rejects_non_permutation_targets() {
        let (_, nt, comp) = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let config = Configuration::random(&comp, &mut rng);
        let mut kern = kernel(4, 3);
        // Find 2 sites of species 0 and force targets that overdraw species 1.
        let sites: Vec<SiteId> = (0..config.num_sites() as SiteId)
            .filter(|&s| config.species_at(s) == Species(0))
            .take(2)
            .collect();
        let _ = kern.log_prob_of_reassignment(&config, &nt, &sites, &[Species(1), Species(1)]);
    }
}
