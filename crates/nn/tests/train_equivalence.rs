//! Equivalence suite for the training step: `Mlp::forward_train` +
//! `Mlp::backward` on a `TrainScratch` must leave **bit-identical**
//! outputs, `gw` and `gb` to the `Matrix` reference they replaced
//! (`reference/mod.rs`) — every trained weight, and so every
//! deep-proposal trajectory, depends on it.

mod reference;

use dt_nn::{mse_loss, softmax_cross_entropy_masked_flat, Activation, Matrix, Mlp, TrainScratch};
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use reference::RefMlp;

fn activation(pick: u8) -> Activation {
    match pick % 3 {
        0 => Activation::Relu,
        1 => Activation::Tanh,
        _ => Activation::Identity,
    }
}

fn assert_same_grads(mlp: &Mlp, reference: &RefMlp) -> Result<(), TestCaseError> {
    for (li, (l, r)) in mlp.layers().iter().zip(&reference.layers).enumerate() {
        for (a, b) in l.gw.data().iter().zip(r.gw.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "layer {} gw: {} vs {}", li, a, b);
        }
        for (a, b) in l.gb.iter().zip(&r.gb) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "layer {} gb: {} vs {}", li, a, b);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Outputs, `gw` and `gb` match the reference bit for bit: 1–3 hidden
    /// layers, widths that are multiples of no tile, odd row counts,
    /// every activation, exact zeros in the output gradient (the dW
    /// zero-skip), one backward or two before `zero_grad`, and a scratch
    /// carried over from a differently shaped step.
    #[test]
    fn step_is_bit_identical_to_matrix_reference(
        seed in any::<u64>(),
        dims in proptest::collection::vec(1usize..41, 3..6),
        rows in 1usize..71,
        hidden_pick in 0u8..3,
        out_pick in 0u8..3,
        twice in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&dims, activation(hidden_pick), activation(out_pick), &mut rng);
        let (in_dim, out_dim) = (dims[0], *dims.last().unwrap());
        let x: Vec<f64> = (0..rows * in_dim)
            .map(|_| rng.random::<f64>() * 4.0 - 2.0)
            .collect();
        let grad: Vec<f64> = (0..rows * out_dim)
            .map(|_| {
                if rng.random::<f64>() < 0.2 {
                    0.0
                } else {
                    rng.random::<f64>() * 2.0 - 1.0
                }
            })
            .collect();

        // A scratch warmed on another shape must carry nothing over.
        let mut scratch = TrainScratch::new();
        let other = Mlp::new(&[3, 50, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let _ = other.forward_train(&[0.5; 9], 3, &mut scratch);

        let mut reference = RefMlp::from_mlp(&mlp);
        let want = reference.forward_train(&Matrix::from_vec(rows, in_dim, x.clone()));
        let got = mlp.forward_train(&x, rows, &mut scratch);
        prop_assert_eq!(got.len(), want.data().len());
        for (g, e) in got.iter().zip(want.data()) {
            prop_assert_eq!(g.to_bits(), e.to_bits(), "output {} vs {}", g, e);
        }

        let grad_m = Matrix::from_vec(rows, out_dim, grad.clone());
        mlp.zero_grad();
        reference.zero_grad();
        for _ in 0..1 + usize::from(twice) {
            mlp.backward(&x, &grad, &mut scratch);
            reference.backward(&grad_m);
        }
        assert_same_grads(&mlp, &reference)?;

        // zero_grad keeps the sign of a zero, so a third accumulation on
        // top of scaled-to-zero accumulators is part of the contract too.
        mlp.zero_grad();
        reference.zero_grad();
        mlp.backward(&x, &grad, &mut scratch);
        reference.backward(&grad_m);
        assert_same_grads(&mlp, &reference)?;
    }

    /// The flat losses equal the `Matrix` ones they replaced, loss and
    /// gradient.
    #[test]
    fn flat_losses_match_matrix_reference(
        seed in any::<u64>(),
        rows in 1usize..9,
        cols in 2usize..7,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let logits: Vec<f64> = (0..rows * cols).map(|_| rng.random::<f64>() * 4.0 - 2.0).collect();
        let target: Vec<f64> = (0..rows * cols).map(|_| rng.random::<f64>()).collect();
        let logits_m = Matrix::from_vec(rows, cols, logits.clone());

        let mut grad = vec![f64::NAN; rows * cols];
        let loss = mse_loss(&logits, &target, &mut grad);
        let (want, want_grad) =
            reference::mse_loss(&logits_m, &Matrix::from_vec(rows, cols, target));
        prop_assert_eq!(loss.to_bits(), want.to_bits());
        for (a, b) in grad.iter().zip(want_grad.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        let mut masks = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..rows {
            let mut m: Vec<bool> = (0..cols).map(|_| rng.random::<f64>() < 0.7).collect();
            if !m.iter().any(|&b| b) {
                m[0] = true;
            }
            let allowed: Vec<usize> = (0..cols).filter(|&c| m[c]).collect();
            targets.push(allowed[rng.random_range(0..allowed.len())]);
            masks.extend_from_slice(&m);
        }
        let mut logp = Vec::new();
        let loss = softmax_cross_entropy_masked_flat(&logits, &targets, &masks, &mut logp, &mut grad);
        let (want, want_grad) =
            reference::softmax_cross_entropy_masked_flat(&logits_m, &targets, &masks);
        prop_assert_eq!(loss.to_bits(), want.to_bits());
        for (a, b) in grad.iter().zip(want_grad.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// A poisoned weight must surface: NaN loss and NaN output gradient, and
/// — because dX has no zero-skip, `0 · NaN` staying NaN — NaN parameter
/// gradients below the poisoned layer even from a finite output gradient
/// that is zero wherever it meets the poisoned weight.
#[test]
fn nan_weight_poisons_loss_and_gradients() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut mlp = Mlp::new(
        &[6, 9, 9, 3],
        Activation::Tanh,
        Activation::Identity,
        &mut rng,
    );
    // Output unit 1 reads hidden unit 4 through a NaN.
    mlp.layers_mut()[2].w[(1, 4)] = f64::NAN;
    let mut reference = RefMlp::from_mlp(&mlp);
    let rows = 5;
    let x: Vec<f64> = (0..rows * 6).map(|_| rng.random::<f64>() - 0.5).collect();
    let mut scratch = TrainScratch::new();
    let mut grad = vec![0.0; rows * 3];
    let out = mlp.forward_train(&x, rows, &mut scratch);
    let loss = softmax_cross_entropy_masked_flat(
        out,
        &[0, 1, 2, 0, 1],
        &[true; 15],
        &mut Vec::new(),
        &mut grad,
    );
    assert!(loss.is_nan(), "loss {loss} must be NaN");
    assert!(grad.iter().all(|g| g.is_nan()));

    // Output gradient exactly zero on unit 1 in every row: a zero-skip in
    // dX would hide the NaN weight from the layers below.
    let grad: Vec<f64> = (0..rows * 3)
        .map(|i| if i % 3 == 1 { 0.0 } else { 0.25 })
        .collect();
    mlp.zero_grad();
    mlp.backward(&x, &grad, &mut scratch);
    let layers = mlp.layers();
    // dX of the output layer is NaN in column 4 only ...
    for c in 0..9 {
        assert!(layers[1].gw[(4, c)].is_nan(), "layer 1 gw(4,{c})");
    }
    assert!(layers[1].gb[4].is_nan());
    assert!(layers[1].gb[3].is_finite());
    // ... and one layer further down it has reached every unit.
    assert!(layers[0].gw.data().iter().all(|g| g.is_nan()));
    assert!(layers[0].gb.iter().all(|g| g.is_nan()));

    // The reference is poisoned in exactly the same places.
    reference.forward_train(&Matrix::from_vec(rows, 6, x.clone()));
    reference.backward(&Matrix::from_vec(rows, 3, grad));
    for (l, r) in layers.iter().zip(&reference.layers) {
        for (a, b) in l.gw.data().iter().zip(r.gw.data()) {
            assert_eq!(a.is_nan(), b.is_nan());
        }
        for (a, b) in l.gb.iter().zip(&r.gb) {
            assert_eq!(a.is_nan(), b.is_nan());
        }
    }
}
