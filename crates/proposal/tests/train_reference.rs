//! `ProposalTrainer::train_epoch` against the trainer it replaced.
//!
//! `reference_epoch` below is the seed's epoch, frozen: a feature
//! `Matrix` per chunk, the `Matrix` forward/backward and per-row-`Vec`
//! loss kept under `crates/nn/tests/reference/`, the same clip and Adam.
//! Both trainers must leave **bit-equal weights** after every epoch —
//! the deep kernel's trajectories (and `GOLDEN_DEEP`) hang on it.

#[path = "../../nn/tests/reference/mod.rs"]
mod reference;

use dt_lattice::{Composition, Configuration, NeighborTable, SiteId, Structure, Supercell};
use dt_nn::{Adam, Matrix, Mlp};
use dt_proposal::train::random_training_set;
use dt_proposal::{
    DeepProposal, DeepProposalConfig, FeatureLayout, ProposalTrainer, SampleBuffer, TrainerConfig,
};
use rand::{Rng, RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use reference::RefMlp;

/// `local::sample_distinct_sites` as the trainer calls it.
fn sample_distinct_sites(n: usize, k: usize, buf: &mut Vec<SiteId>, rng: &mut dyn Rng) {
    buf.clear();
    buf.extend(0..n as SiteId);
    for i in 0..k {
        let j = rng.random_range(i..n);
        buf.swap(i, j);
    }
    buf.truncate(k);
    buf.sort_unstable();
}

/// The seed's `train_epoch`.
fn reference_epoch(
    cfg: &TrainerConfig,
    layout: FeatureLayout,
    adam: &mut Adam,
    net: &mut Mlp,
    buffer: &SampleBuffer,
    neighbors: &NeighborTable,
    rng: &mut dyn Rng,
) -> f64 {
    let m = layout.num_species;
    let dim = layout.dim();
    let mut total_loss = 0.0;
    let mut total_rows = 0usize;
    let configs: Vec<&Configuration> = buffer.iter().map(|(c, _)| c).collect();
    for chunk in configs.chunks(cfg.configs_per_batch) {
        let rows = chunk.len() * cfg.k.min(chunk[0].num_sites());
        let mut features = Matrix::zeros(rows, dim);
        let mut targets = Vec::with_capacity(rows);
        let mut masks = Vec::new();
        let mut row = 0usize;
        for config in chunk {
            let n = config.num_sites();
            let kk = cfg.k.min(n);
            let mut sites = Vec::new();
            sample_distinct_sites(n, kk, &mut sites, rng);
            let mut decided = vec![true; n];
            let mut remaining = vec![0usize; m];
            for &s in &sites {
                decided[s as usize] = false;
                remaining[config.species_at(s).index()] += 1;
            }
            for (step, &site) in sites.iter().enumerate() {
                layout.fill(
                    features.row_mut(row),
                    site,
                    neighbors,
                    config.species(),
                    &decided,
                    &remaining,
                    kk - step,
                    step as f64 / kk as f64,
                );
                let target = config.species_at(site);
                targets.push(target.index());
                masks.extend(remaining.iter().map(|&r| r > 0));
                remaining[target.index()] -= 1;
                decided[site as usize] = true;
                row += 1;
            }
        }
        assert_eq!(row, rows);

        let mut ref_net = RefMlp::from_mlp(net);
        let out = ref_net.forward_train(&features);
        let (loss, grad) = reference::softmax_cross_entropy_masked_flat(&out, &targets, &masks);
        ref_net.zero_grad();
        ref_net.backward(&grad);
        for (layer, r) in net.layers_mut().iter_mut().zip(ref_net.layers) {
            layer.gw = r.gw;
            layer.gb = r.gb;
        }
        net.clip_grad_norm(cfg.grad_clip);
        adam.step(net);

        total_loss += loss * rows as f64;
        total_rows += rows;
    }
    total_loss / total_rows as f64
}

#[test]
fn train_epoch_matches_reference_trainer_bit_for_bit() {
    let cell = Supercell::cubic(Structure::bcc(), 3);
    let nt = cell.neighbor_table(2);
    let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    // 40 configurations in chunks of 6: six full chunks and a short one
    // of 4; k = 13 keeps the row counts (78, 52) off every tile width.
    let buffer = random_training_set(&comp, 40, &mut rng);
    let cfg = TrainerConfig {
        k: 13,
        configs_per_batch: 6,
        ..TrainerConfig::default()
    };
    let deep = DeepProposal::new(
        4,
        2,
        &DeepProposalConfig {
            k: 12,
            hidden: vec![32, 32],
        },
        &mut rng,
    );
    let layout = deep.layout();
    let mut new_net = deep.net().clone();
    let mut old_net = deep.net().clone();
    let mut trainer = ProposalTrainer::new(layout, cfg.clone());
    let mut old_adam = Adam::with_lr(cfg.lr);
    let mut new_rng = ChaCha8Rng::seed_from_u64(77);
    let mut old_rng = ChaCha8Rng::seed_from_u64(77);

    for epoch in 0..8 {
        let new_loss = trainer
            .train_epoch(&mut new_net, &buffer, &nt, &mut new_rng)
            .unwrap();
        let old_loss = reference_epoch(
            &cfg,
            layout,
            &mut old_adam,
            &mut old_net,
            &buffer,
            &nt,
            &mut old_rng,
        );
        assert_eq!(
            new_loss.to_bits(),
            old_loss.to_bits(),
            "epoch {epoch} loss: {new_loss} vs {old_loss}"
        );
        let (new_params, old_params) = (new_net.flatten_params(), old_net.flatten_params());
        assert!(
            new_params
                .iter()
                .zip(&old_params)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "epoch {epoch}: weights diverged"
        );
    }
    // Same draws from the walker stream too.
    assert_eq!(new_rng.random::<u64>(), old_rng.random::<u64>());
}
