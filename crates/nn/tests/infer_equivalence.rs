//! Equivalence suite for the batched inference engine: `forward_into`
//! must be **bit-identical** to the `Mlp::forward` reference path for any
//! network shape, activation pairing, and batch size — the deep
//! proposal's Metropolis–Hastings log-probabilities depend on it.

use dt_nn::{
    log_softmax_masked, log_softmax_masked_into, softmax_cross_entropy_masked,
    softmax_cross_entropy_masked_flat, Activation, ForwardScratch, Matrix, Mlp,
};
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn activation(pick: u8) -> Activation {
    match pick % 3 {
        0 => Activation::Relu,
        1 => Activation::Tanh,
        _ => Activation::Identity,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batched scratch inference reproduces the reference forward pass
    /// bit-for-bit over random shapes, activations, and batch sizes.
    #[test]
    fn forward_into_is_bit_identical_to_forward(
        seed in any::<u64>(),
        dims in proptest::collection::vec(1usize..23, 2..5),
        rows in 1usize..9,
        hidden_pick in 0u8..3,
        out_pick in 0u8..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mlp = Mlp::new(&dims, activation(hidden_pick), activation(out_pick), &mut rng);
        let x: Vec<f64> = (0..rows * dims[0])
            .map(|_| rng.random::<f64>() * 6.0 - 3.0)
            .collect();
        let reference = mlp.forward(&Matrix::from_vec(rows, dims[0], x.clone()));
        let mut scratch = ForwardScratch::new();
        let got = mlp.forward_into(&x, rows, &mut scratch);
        prop_assert_eq!(got.len(), reference.data().len());
        for (g, e) in got.iter().zip(reference.data()) {
            prop_assert_eq!(g.to_bits(), e.to_bits(), "{} vs {}", g, e);
        }
    }

    /// A warmed scratch stays bit-identical when reused across many
    /// batches of varying size (ping-pong buffers carry no state between
    /// calls).
    #[test]
    fn scratch_reuse_does_not_leak_state(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mlp = Mlp::new(&[5, 11, 7, 3], Activation::Relu, Activation::Identity, &mut rng);
        let mut scratch = ForwardScratch::for_mlp(&mlp, 8);
        for rows in [8usize, 1, 3, 8, 2, 1] {
            let x: Vec<f64> = (0..rows * 5).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
            let reference = mlp.forward(&Matrix::from_vec(rows, 5, x.clone()));
            let got = mlp.forward_into(&x, rows, &mut scratch);
            for (g, e) in got.iter().zip(reference.data()) {
                prop_assert_eq!(g.to_bits(), e.to_bits());
            }
        }
    }

    /// Processing k rows in ONE batched call equals k separate batch-1
    /// calls bit-for-bit — the identity that lets replay and training
    /// batch freely.
    #[test]
    fn batched_rows_equal_sequential_batch1(
        seed in any::<u64>(),
        rows in 2usize..8,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mlp = Mlp::new(&[6, 16, 4], Activation::Tanh, Activation::Identity, &mut rng);
        let x: Vec<f64> = (0..rows * 6).map(|_| rng.random::<f64>() * 4.0 - 2.0).collect();
        let mut scratch = ForwardScratch::for_mlp(&mlp, rows);
        let batched: Vec<f64> = mlp.forward_into(&x, rows, &mut scratch).to_vec();
        for r in 0..rows {
            let row = &x[r * 6..(r + 1) * 6];
            let single = mlp.forward_into(row, 1, &mut scratch);
            for (b, s) in batched[r * 4..(r + 1) * 4].iter().zip(single) {
                prop_assert_eq!(b.to_bits(), s.to_bits());
            }
        }
    }

    /// The buffered log-softmax writes exactly what the allocating one
    /// returns.
    #[test]
    fn log_softmax_into_matches_allocating(
        logits in proptest::collection::vec(-40.0f64..40.0, 2..9),
        mask_bits in any::<u64>(),
    ) {
        let n = logits.len();
        let mut mask: Vec<bool> = (0..n).map(|i| mask_bits & (1 << i) != 0).collect();
        if !mask.iter().any(|&b| b) {
            mask[0] = true;
        }
        let want = log_softmax_masked(&logits, Some(&mask));
        let mut got = Vec::new();
        log_softmax_masked_into(&logits, Some(&mask), &mut got);
        for (g, e) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    /// Flat-mask cross-entropy equals the per-row-Vec form exactly
    /// (loss and gradient).
    #[test]
    fn flat_mask_cross_entropy_matches_rows(
        seed in any::<u64>(),
        rows in 1usize..6,
        cols in 2usize..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let logits = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.random::<f64>() * 4.0 - 2.0).collect(),
        );
        let mut masks_rows = Vec::new();
        let mut masks_flat = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..rows {
            let mut m: Vec<bool> = (0..cols).map(|_| rng.random::<f64>() < 0.7).collect();
            if !m.iter().any(|&b| b) {
                m[0] = true;
            }
            let allowed: Vec<usize> = (0..cols).filter(|&c| m[c]).collect();
            targets.push(allowed[rng.random_range(0..allowed.len())]);
            masks_flat.extend_from_slice(&m);
            masks_rows.push(m);
        }
        let (loss_a, grad_a) = softmax_cross_entropy_masked(&logits, &targets, &masks_rows);
        let mut grad_b = vec![f64::NAN; rows * cols];
        let loss_b = softmax_cross_entropy_masked_flat(
            logits.data(),
            &targets,
            &masks_flat,
            &mut Vec::new(),
            &mut grad_b,
        );
        prop_assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        for (a, b) in grad_a.data().iter().zip(&grad_b) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
