//! Multi-layer perceptrons.
//!
//! Inference ([`Mlp::forward_into`]) and training ([`Mlp::forward_train`])
//! share one forward loop, and that loop calls one kernel — the packed
//! tile kernel of [`crate::infer`] — for every batch size. The loop and
//! its kernel are compiled twice from one source, an SSE2 baseline at
//! 4-wide tiles and an AVX twin at 8-wide tiles, and each call picks
//! the copy the CPU supports. [`Mlp::forward`] is the allocating
//! reference both match bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

#[cfg(target_arch = "x86_64")]
use crate::infer::avx_detected;
use crate::infer::{linear_forward, packed_len, ForwardScratch, PackedWeights, J_AVX, J_BASE};
use crate::layer::{Activation, Linear};
use crate::matrix::Matrix;

/// Process-global weight-version source: every freshly built or mutably
/// re-exposed network takes a new, never-reused version, so two networks
/// share a version only when one is an unmutated clone of the other — in
/// which case their weights really are identical and a
/// [`ForwardScratch`]'s cached repack is valid for both.
static WEIGHTS_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_weights_version() -> u64 {
    WEIGHTS_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// A feed-forward network of [`Linear`] layers with a shared hidden
/// activation and a separate output activation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    out_act: Activation,
    /// Weight version for [`ForwardScratch`] repack caching; bumped on
    /// every mutable layer access.
    version: u64,
}

impl Mlp {
    /// Build an MLP with the given layer widths, e.g. `&[in, h1, h2, out]`.
    ///
    /// # Panics
    /// Panics when fewer than two dims are given.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden_act,
            out_act,
            version: next_weights_version(),
        }
    }

    /// Rebuild from parts (deserialization).
    pub fn from_parts(layers: Vec<Linear>, hidden_act: Activation, out_act: Activation) -> Self {
        assert!(!layers.is_empty());
        Mlp {
            layers,
            hidden_act,
            out_act,
            version: next_weights_version(),
        }
    }

    /// Layer widths `[in, ..., out]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.layers[0].in_dim()];
        dims.extend(self.layers.iter().map(Linear::out_dim));
        dims
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim()
    }

    /// Hidden activation.
    pub fn hidden_activation(&self) -> Activation {
        self.hidden_act
    }

    /// Output activation.
    pub fn output_activation(&self) -> Activation {
        self.out_act
    }

    /// The layers (for serialization and optimizer access).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable layer access (for optimizers).
    ///
    /// Conservatively assumes the caller changes the weights: any cached
    /// weight repack in a [`ForwardScratch`] is invalidated.
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        self.version = next_weights_version();
        &mut self.layers
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Allocating reference forward pass (`&self`, no caches) — safe to
    /// share across threads.
    ///
    /// Kept for training diagnostics and tests; hot paths should use the
    /// batch-first [`Mlp::forward_into`], which is bit-identical per row
    /// and allocation-free once warmed.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            let act = self.activation(i);
            for v in h.data_mut() {
                *v = act.apply(*v);
            }
        }
        h
    }

    /// **The** inference surface: a batch-first forward pass into
    /// reusable scratch buffers.
    ///
    /// `x` holds `rows ≥ 1` row-major feature rows of width
    /// [`Mlp::in_dim`]; the returned slice holds `rows` rows of width
    /// [`Mlp::out_dim`], borrowed from `scratch`. Each output row is
    /// bit-identical to [`Mlp::forward`] on that row alone, *regardless
    /// of the batch size* — the one kernel underneath accumulates in the
    /// same sequential k-order — which is what lets callers batch
    /// work across walkers without perturbing any Markov chain. A scratch
    /// warmed by [`ForwardScratch::reserve`] — or by a first call at the
    /// largest batch size — makes this perform **zero heap allocations**.
    ///
    /// # Panics
    /// Panics when `x` is shorter than `rows · in_dim`.
    pub fn forward_into<'a>(
        &self,
        x: &[f64],
        rows: usize,
        scratch: &'a mut ForwardScratch,
    ) -> &'a [f64] {
        scratch.reserve(self, rows);
        self.forward_ring(x, rows, &mut scratch.packed, &mut scratch.ring)
    }

    /// Activation applied after layer `i`.
    pub(crate) fn activation(&self, i: usize) -> Activation {
        if i + 1 == self.layers.len() {
            self.out_act
        } else {
            self.hidden_act
        }
    }

    /// The forward pass, under inference and training alike: layer `i`
    /// reads `x` (`i = 0`) or the previous slot and writes
    /// `ring[i % ring.len()]`. A ring of two ping-pongs
    /// ([`Mlp::forward_into`]); a ring of one buffer per layer keeps
    /// every layer's output for the backward pass
    /// ([`Mlp::forward_train`]). Every slot must already hold `rows` rows
    /// of the widest layer writing to it. Returns the last layer's
    /// output.
    ///
    /// Runs the AVX copy ([`J_AVX`]-wide tiles) when the CPU has AVX and
    /// the SSE2 baseline ([`J_BASE`]-wide) otherwise; both yield the
    /// same bits.
    #[allow(unsafe_code)]
    pub(crate) fn forward_ring<'a>(
        &self,
        x: &[f64],
        rows: usize,
        packed: &mut PackedWeights,
        ring: &'a mut [Vec<f64>],
    ) -> &'a [f64] {
        #[cfg(target_arch = "x86_64")]
        if avx_detected() {
            // SAFETY: `forward_ring_avx` only enables AVX, which
            // `avx_detected` has just found on this CPU.
            return unsafe { self.forward_ring_avx(x, rows, packed, ring) };
        }
        self.forward_tiled::<J_BASE>(x, rows, packed, ring)
    }

    /// [`Mlp::forward_ring`]'s AVX twin: the same loop and kernel,
    /// compiled with 256-bit vectors at the 8-wide tile.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    #[allow(unsafe_code)]
    unsafe fn forward_ring_avx<'a>(
        &self,
        x: &[f64],
        rows: usize,
        packed: &mut PackedWeights,
        ring: &'a mut [Vec<f64>],
    ) -> &'a [f64] {
        self.forward_tiled::<J_AVX>(x, rows, packed, ring)
    }

    /// The one forward loop, at column-tile width `J`; inlined into each
    /// copy of [`Mlp::forward_ring`] so each compiles its own kernel.
    #[inline(always)]
    pub(crate) fn forward_tiled<'a, const J: usize>(
        &self,
        x: &[f64],
        rows: usize,
        packed: &mut PackedWeights,
        ring: &'a mut [Vec<f64>],
    ) -> &'a [f64] {
        assert!(x.len() >= rows * self.in_dim(), "input rows too short");
        // The repack is cached across forwards and invalidated only when
        // the weights (or the tile width) change, so its cost amortizes
        // over entire sampling runs, not one batch.
        let packed_w = packed.refresh(self, J);
        let slots = ring.len();
        let mut off = 0;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = self.activation(i);
            let (src, dst): (&[f64], &mut [f64]) = if i == 0 {
                (x, ring[0].as_mut_slice())
            } else {
                // Distinct slots, so one split borrows both.
                let (prev, cur) = ((i - 1) % slots, i % slots);
                if prev < cur {
                    let (lo, hi) = ring.split_at_mut(cur);
                    (lo[prev].as_slice(), hi[0].as_mut_slice())
                } else {
                    let (lo, hi) = ring.split_at_mut(prev);
                    (hi[0].as_slice(), lo[cur].as_mut_slice())
                }
            };
            let wn = packed_len(layer.w.cols(), layer.w.rows(), J);
            linear_forward::<J>(
                src,
                rows,
                &packed_w[off..off + wn],
                layer.w.cols(),
                layer.w.rows(),
                &layer.b,
                act,
                dst,
            );
            off += wn;
        }
        &ring[(self.layers.len() - 1) % slots][..rows * self.out_dim()]
    }

    /// Weight version [`PackedWeights`] caches are keyed by.
    pub(crate) fn weights_version(&self) -> u64 {
        self.version
    }

    /// Mutable layers *without* a weight-version bump — for the backward
    /// pass, which writes only the gradient accumulators.
    pub(crate) fn grad_layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Zero every gradient accumulator.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Flatten all parameters (weights then bias, layer by layer) into one
    /// vector — the payload of the simulated weight allreduce.
    pub fn flatten_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            out.extend_from_slice(l.w.data());
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// Load parameters from a [`Mlp::flatten_params`] vector.
    ///
    /// # Panics
    /// Panics when the length does not match `num_params`.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        self.version = next_weights_version();
        let mut offset = 0;
        for l in &mut self.layers {
            let wlen = l.w.data().len();
            l.w.data_mut()
                .copy_from_slice(&params[offset..offset + wlen]);
            offset += wlen;
            let blen = l.b.len();
            l.b.copy_from_slice(&params[offset..offset + blen]);
            offset += blen;
        }
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
    pub fn grad_norm(&self) -> f64 {
        let mut acc = 0.0;
        for l in &self.layers {
            acc += l.gw.data().iter().map(|&v| v * v).sum::<f64>();
            acc += l.gb.iter().map(|&v| v * v).sum::<f64>();
        }
        acc.sqrt()
    }

    /// Scale all gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f64) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for l in &mut self.layers {
                l.gw.scale(s);
                for g in &mut l.gb {
                    *g *= s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;
    use crate::optim::Adam;
    use crate::train::TrainScratch;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dims_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mlp = Mlp::new(&[5, 8, 3], Activation::Relu, Activation::Identity, &mut rng);
        assert_eq!(mlp.dims(), vec![5, 8, 3]);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.num_params(), 5 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn forward_equals_forward_train() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mlp = Mlp::new(&[3, 6, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[&[0.1, 0.2, -0.3], &[1.0, -1.0, 0.5]]);
        let a = mlp.forward(&x);
        let mut scratch = TrainScratch::new();
        let b = mlp.forward_train(x.data(), 2, &mut scratch);
        assert_eq!(a.data(), b);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[&[0.3, -0.7], &[0.5, 0.1]]);
        let y = [1.0, -1.0];

        let mut scratch = TrainScratch::new();
        let mut grad = [0.0; 2];
        let out = mlp.forward_train(x.data(), 2, &mut scratch);
        mse_loss(out, &y, &mut grad);
        mlp.zero_grad();
        mlp.backward(x.data(), &grad, &mut scratch);

        let eps = 1e-6;
        let loss_of = |mlp: &Mlp| -> f64 {
            let out = mlp.forward(&x);
            mse_loss(out.data(), &y, &mut [0.0; 2])
        };
        // Spot-check several parameters in every layer.
        for li in 0..mlp.layers().len() {
            for &(r, c) in &[(0usize, 0usize), (0, 1)] {
                if r >= mlp.layers()[li].out_dim() || c >= mlp.layers()[li].in_dim() {
                    continue;
                }
                let orig = mlp.layers()[li].w[(r, c)];
                mlp.layers_mut()[li].w[(r, c)] = orig + eps;
                let up = loss_of(&mlp);
                mlp.layers_mut()[li].w[(r, c)] = orig - eps;
                let dn = loss_of(&mlp);
                mlp.layers_mut()[li].w[(r, c)] = orig;
                let fd = (up - dn) / (2.0 * eps);
                let got = mlp.layers()[li].gw[(r, c)];
                assert!(
                    (got - fd).abs() < 1e-5,
                    "layer {li} w({r},{c}): fd {fd} vs {got}"
                );
            }
        }
    }

    #[test]
    fn sgd_reduces_loss_on_regression() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut mlp = Mlp::new(&[1, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let xs: Vec<f64> = (0..16).map(|i| i as f64 / 8.0 - 1.0).collect();
        let y: Vec<f64> = xs.iter().map(|&v| v * v).collect();
        let mut adam = Adam::with_lr(0.01);
        let mut scratch = TrainScratch::new();
        let mut grad = [0.0; 16];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..1000 {
            let out = mlp.forward_train(&xs, 16, &mut scratch);
            let loss = mse_loss(out, &y, &mut grad);
            mlp.zero_grad();
            mlp.backward(&xs, &grad, &mut scratch);
            adam.step(&mut mlp);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.2, "{last} vs {first:?}");
    }

    #[test]
    fn flatten_set_params_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let a = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Identity, &mut rng);
        let mut b = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Identity, &mut rng);
        let params = a.flatten_params();
        assert_eq!(params.len(), a.num_params());
        b.set_params(&params);
        let x = Matrix::from_rows(&[&[0.4, -1.0, 2.0]]);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn set_params_rejects_wrong_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut a = Mlp::new(&[2, 2], Activation::Relu, Activation::Identity, &mut rng);
        a.set_params(&[0.0; 3]);
    }

    #[test]
    fn grad_clipping_bounds_norm() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut mlp = Mlp::new(&[2, 4, 2], Activation::Relu, Activation::Identity, &mut rng);
        let x = [10.0, -10.0];
        let mut scratch = TrainScratch::new();
        let _ = mlp.forward_train(&x, 1, &mut scratch);
        mlp.zero_grad();
        mlp.backward(&x, &[100.0; 2], &mut scratch);
        mlp.clip_grad_norm(1.0);
        assert!(mlp.grad_norm() <= 1.0 + 1e-9);
    }
}
