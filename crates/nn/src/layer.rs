//! Dense layers and activations with explicit backprop.

use rand::{Rng, RngExt};

use crate::matrix::Matrix;

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No-op (used on output layers).
    Identity,
}

impl Activation {
    /// Apply the activation to one value. This is the scalar kernel both
    /// the reference [`crate::Mlp::forward`] and the forward kernel build
    /// on, so the two are bit-identical by construction.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            Activation::Relu => {
                if v > 0.0 {
                    v
                } else {
                    0.0
                }
            }
            Activation::Tanh => v.tanh(),
            Activation::Identity => v,
        }
    }

    /// `grad ← grad ⊙ f'`, in place, from the layer's *activated* output
    /// `out = f(preactivation)`: a Relu unit is inactive exactly where its
    /// output is 0, and tanh' is `1 - out²` — so the training forward
    /// keeps one buffer per layer, not two, and the backward pass calls
    /// `tanh` never. (A NaN preactivation, which [`Activation::apply`]
    /// has already turned into an inactive 0, counts as inactive here;
    /// the `Matrix` reference, reading the preactivation, let its
    /// gradient through. Neither surfaces it — Relu's forward is where a
    /// NaN is lost.)
    #[inline(always)]
    pub fn backward_in_place(self, out: &[f64], grad: &mut [f64]) {
        debug_assert_eq!(out.len(), grad.len());
        match self {
            Activation::Relu => {
                // A select, not a branch: the pattern is unpredictable.
                for (g, &h) in grad.iter_mut().zip(out) {
                    *g = if h <= 0.0 { 0.0 } else { *g };
                }
            }
            Activation::Tanh => {
                for (g, &t) in grad.iter_mut().zip(out) {
                    *g *= 1.0 - t * t;
                }
            }
            Activation::Identity => {}
        }
    }

    /// Short tag used by the serializer.
    pub fn tag(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Identity => "id",
        }
    }

    /// Parse a serializer tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "relu" => Some(Activation::Relu),
            "tanh" => Some(Activation::Tanh),
            "id" => Some(Activation::Identity),
            _ => None,
        }
    }
}

/// A fully connected layer `y = x · Wᵀ + b` with its gradient
/// accumulators. Weights are stored `out × in`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, `out_dim × in_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f64>,
    /// Weight gradient accumulator.
    pub gw: Matrix,
    /// Bias gradient accumulator.
    pub gb: Vec<f64>,
}

impl Linear {
    /// He-initialized layer (good default for ReLU nets; harmless for
    /// tanh at these widths).
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let std = (2.0 / in_dim as f64).sqrt();
        let mut w = Matrix::zeros(out_dim, in_dim);
        for v in w.data_mut() {
            // Box–Muller from two uniforms keeps us independent of
            // distribution crates.
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            *v = std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
        Linear {
            gw: Matrix::zeros(out_dim, in_dim),
            gb: vec![0.0; out_dim],
            b: vec![0.0; out_dim],
            w,
        }
    }

    /// Build from explicit parameters (deserialization).
    pub fn from_params(w: Matrix, b: Vec<f64>) -> Self {
        assert_eq!(w.rows(), b.len(), "bias length must equal out_dim");
        Linear {
            gw: Matrix::zeros(w.rows(), w.cols()),
            gb: vec![0.0; b.len()],
            w,
            b,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Allocating reference forward (`&self`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul_transpose_b(&self.w);
        y.add_row_broadcast(&self.b);
        y
    }

    /// Clear gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.gw.scale(0.0);
        for g in &mut self.gb {
            *g = 0.0;
        }
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{input_grad, TrainScratch};
    use crate::Mlp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn relu_forward_backward() {
        let y = [-1.0, 2.0].map(|v| Activation::Relu.apply(v));
        assert_eq!(y, [0.0, 2.0]);
        let mut g = [5.0, 5.0];
        Activation::Relu.backward_in_place(&y, &mut g);
        assert_eq!(g, [0.0, 5.0]);
    }

    #[test]
    fn tanh_backward_matches_derivative() {
        let t = Activation::Tanh.apply(0.3);
        let mut g = [1.0];
        Activation::Tanh.backward_in_place(&[t], &mut g);
        assert!((g[0] - (1.0 - t * t)).abs() < 1e-12);
    }

    #[test]
    fn activation_tags_round_trip() {
        for a in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            assert_eq!(Activation::from_tag(a.tag()), Some(a));
        }
        assert_eq!(Activation::from_tag("nope"), None);
    }

    #[test]
    fn linear_forward_known_values() {
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, -1.0]]);
        let l = Linear::from_params(w, vec![0.5, 0.0]);
        let y = l.forward(&Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(y.data(), &[11.5, -4.0]);
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3], &[1.0, 0.5, -0.5]]);
        // Loss = sum(y); dL/dy = ones. One identity layer is the bare
        // `Linear`; its input gradient is the dX kernel's output.
        let ones = [1.0; 4];
        let mut net = Mlp::from_parts(
            vec![Linear::new(3, 2, &mut rng)],
            Activation::Identity,
            Activation::Identity,
        );
        let mut scratch = TrainScratch::new();
        let _ = net.forward_train(x.data(), 2, &mut scratch);
        net.zero_grad();
        net.backward(x.data(), &ones, &mut scratch);
        let mut l = net.layers()[0].clone();
        let mut gx = Matrix::zeros(2, 3);
        input_grad(&ones, &l.w, gx.data_mut());

        let eps = 1e-6;
        // Check a weight gradient.
        for (r, c) in [(0, 0), (1, 2)] {
            let orig = l.w[(r, c)];
            l.w[(r, c)] = orig + eps;
            let up: f64 = l.forward(&x).data().iter().sum();
            l.w[(r, c)] = orig - eps;
            let dn: f64 = l.forward(&x).data().iter().sum();
            l.w[(r, c)] = orig;
            let fd = (up - dn) / (2.0 * eps);
            assert!((l.gw[(r, c)] - fd).abs() < 1e-6, "gw({r},{c})");
        }
        // Check an input gradient by perturbing x.
        let mut x2 = x.clone();
        let orig = x2[(0, 1)];
        x2[(0, 1)] = orig + eps;
        let up: f64 = l.forward(&x2).data().iter().sum();
        x2[(0, 1)] = orig - eps;
        let dn: f64 = l.forward(&x2).data().iter().sum();
        let fd = (up - dn) / (2.0 * eps);
        assert!((gx[(0, 1)] - fd).abs() < 1e-6);
    }

    #[test]
    fn he_init_scale_is_reasonable() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let l = Linear::new(100, 50, &mut rng);
        let var: f64 = l.w.data().iter().map(|&v| v * v).sum::<f64>() / l.w.data().len() as f64;
        assert!((var - 0.02).abs() < 0.005, "He variance 2/100, got {var}");
        assert!(l.b.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn num_params_counts_weights_and_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(Linear::new(4, 3, &mut rng).num_params(), 15);
    }
}
