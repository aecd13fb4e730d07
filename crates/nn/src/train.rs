//! The training step: an allocation-free forward/backward beside
//! [`Mlp::forward_into`].
//!
//! [`Mlp::forward_train`] runs the inference engine's forward loop and
//! forward kernel over a ring of one buffer per layer, so every
//! layer's output survives for [`Mlp::backward`]. Like the forward
//! pass, the backward pass has an SSE2 baseline copy and an AVX twin
//! compiled from one body, and each call picks the copy the CPU
//! supports; the bits are the same either way. A grow-only
//! [`TrainScratch`] owned by the caller holds those, two gradient
//! ping-pong buffers and the dW/db temporaries, so a warmed step never
//! touches the allocator.
//!
//! The backward pass is specified by the [`Matrix`] products it replaces
//! and reproduces them bit for bit (`crates/nn/tests/train_equivalence.rs`
//! compares against the `Matrix` implementation kept under
//! `crates/nn/tests/reference/`):
//!
//! * **dW, db** accumulate over rows in ascending row order into zeroed
//!   temporaries that are then added to `gw`/`gb` — the order of
//!   [`Matrix::transpose_a_matmul`] (its skip of exactly-zero gradient
//!   entries included) and [`Matrix::column_sums`].
//! * **dX** sums each element over the layer's outputs in ascending
//!   order from `0.0` — the order of [`Matrix::matmul`], and like it with
//!   **no** zero-skip: `0 · NaN` must stay NaN so a poisoned weight
//!   surfaces. Speed comes from a register tile (independent accumulator
//!   chains), not from reordering a sum.
//! * The first layer's dX is never formed: nothing reads the gradient
//!   with respect to the input features.

#[cfg(target_arch = "x86_64")]
use crate::infer::avx_detected;
use crate::infer::{grow, PackedWeights};
use crate::matrix::Matrix;
use crate::mlp::Mlp;

/// Reusable buffers for [`Mlp::forward_train`] + [`Mlp::backward`].
///
/// Grow-only like [`crate::ForwardScratch`]: once warmed for the largest
/// batch a call site uses, a whole training step is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    /// Every layer's activated output from the last `forward_train`.
    acts: Vec<Vec<f64>>,
    /// Gradient ping-pong: a layer's output gradient and the dX it
    /// hands to the layer below.
    grads: [Vec<f64>; 2],
    /// One layer's dW / db before they are added to `gw` / `gb`.
    dw: Vec<f64>,
    db: Vec<f64>,
    /// Output units with a nonzero gradient in the row `param_grads` is on.
    active: Vec<usize>,
    packed: PackedWeights,
    /// Batch size of the last `forward_train`.
    rows: usize,
}

impl TrainScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        TrainScratch::default()
    }

    /// Grow the buffers so `max_rows`-row steps through `mlp` need no
    /// further allocation.
    fn reserve(&mut self, mlp: &Mlp, max_rows: usize) {
        let layers = mlp.layers();
        self.acts.resize_with(layers.len(), Vec::new);
        let (mut widest, mut most_weights) = (0, 0);
        for (buf, layer) in self.acts.iter_mut().zip(layers) {
            grow(buf, max_rows * layer.out_dim());
            widest = widest.max(layer.out_dim());
            most_weights = most_weights.max(layer.out_dim() * layer.in_dim());
        }
        for buf in &mut self.grads {
            grow(buf, max_rows * widest);
        }
        grow(&mut self.dw, most_weights);
        grow(&mut self.db, widest);
        grow(&mut self.active, widest);
        self.packed.reserve(mlp);
    }
}

impl Mlp {
    /// Training forward pass: [`Mlp::forward_into`]'s loop and kernels
    /// (so the returned `rows × out_dim` outputs are bit-identical to
    /// it), with every layer's output kept in `scratch` for
    /// [`Mlp::backward`].
    ///
    /// # Panics
    /// Panics when `x` is shorter than `rows · in_dim`.
    pub fn forward_train<'a>(
        &self,
        x: &[f64],
        rows: usize,
        scratch: &'a mut TrainScratch,
    ) -> &'a [f64] {
        scratch.reserve(self, rows);
        scratch.rows = rows;
        self.forward_ring(x, rows, &mut scratch.packed, &mut scratch.acts)
    }

    /// Backward pass from the gradient with respect to the outputs of
    /// the last [`Mlp::forward_train`]; accumulates into every layer's
    /// `gw` / `gb` (call [`Mlp::zero_grad`] first for a fresh gradient).
    /// `x` is the batch that forward was given.
    ///
    /// # Panics
    /// Panics when `scratch` does not hold a forward pass through a
    /// network of this depth, or `x` / `grad_out` are shorter than its
    /// rows.
    #[allow(unsafe_code)]
    pub fn backward(&mut self, x: &[f64], grad_out: &[f64], scratch: &mut TrainScratch) {
        #[cfg(target_arch = "x86_64")]
        if avx_detected() {
            // SAFETY: `backward_avx` only enables AVX, which
            // `avx_detected` has just found on this CPU.
            return unsafe { self.backward_avx(x, grad_out, scratch) };
        }
        self.backward_body(x, grad_out, scratch)
    }

    /// [`Mlp::backward`]'s AVX twin: the same body, compiled with
    /// 256-bit vectors.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    #[allow(unsafe_code)]
    unsafe fn backward_avx(&mut self, x: &[f64], grad_out: &[f64], scratch: &mut TrainScratch) {
        self.backward_body(x, grad_out, scratch)
    }

    /// The backward pass's one body; inlined into each copy of
    /// [`Mlp::backward`] so each compiles its own loops.
    #[inline(always)]
    fn backward_body(&mut self, x: &[f64], grad_out: &[f64], scratch: &mut TrainScratch) {
        let rows = scratch.rows;
        let depth = self.layers().len();
        assert_eq!(
            scratch.acts.len(),
            depth,
            "backward called before forward_train"
        );
        assert!(x.len() >= rows * self.in_dim(), "input rows too short");
        let TrainScratch {
            acts,
            grads: [cur, next],
            dw,
            db,
            active,
            ..
        } = scratch;
        let out = rows * self.out_dim();
        cur[..out].copy_from_slice(&grad_out[..out]);
        let (mut cur, mut next) = (cur, next);
        for i in (0..depth).rev() {
            let act = self.activation(i);
            let layer = &mut self.grad_layers_mut()[i];
            let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
            let g = &mut cur[..rows * out_dim];
            act.backward_in_place(&acts[i][..rows * out_dim], g);
            let input = if i == 0 { x } else { &acts[i - 1] };
            let (dw, db) = (&mut dw[..out_dim * in_dim], &mut db[..out_dim]);
            param_grads(g, &input[..rows * in_dim], in_dim, dw, db, active);
            for (a, &d) in layer.gw.data_mut().iter_mut().zip(&*dw) {
                *a += d;
            }
            for (a, &d) in layer.gb.iter_mut().zip(&*db) {
                *a += d;
            }
            if i > 0 {
                input_grad(g, &layer.w, &mut next[..rows * in_dim]);
                std::mem::swap(&mut cur, &mut next);
            }
        }
    }
}

/// `dw = gᵀ · x` and `db = colsum(g)` from zero, rows in ascending order.
///
/// `g` is `rows × db.len()`, `x` is `rows × in_dim`, `dw` is
/// `db.len() × in_dim`, `active` holds `db.len()` indices. A gradient
/// entry that is exactly zero adds nothing to `dw` —
/// [`Matrix::transpose_a_matmul`]'s skip, which under Relu is half of all
/// entries in no predictable pattern. So each row first compacts the
/// indices of its nonzero entries without a branch, and the axpy loop
/// runs over that list: one mispredicted loop exit per row instead of
/// one per skipped entry.
#[inline(always)]
fn param_grads(
    g: &[f64],
    x: &[f64],
    in_dim: usize,
    dw: &mut [f64],
    db: &mut [f64],
    active: &mut [usize],
) {
    let out_dim = db.len();
    dw.fill(0.0);
    db.fill(0.0);
    for (g_row, x_row) in g.chunks_exact(out_dim).zip(x.chunks_exact(in_dim)) {
        let mut n = 0;
        for (j, (&a, s)) in g_row.iter().zip(db.iter_mut()).enumerate() {
            *s += a;
            active[n] = j;
            n += usize::from(a != 0.0);
        }
        for &j in &active[..n] {
            let a = g_row[j];
            for (d, &b) in dw[j * in_dim..(j + 1) * in_dim].iter_mut().zip(x_row) {
                *d += a * b;
            }
        }
    }
}

/// Column-tile width of [`input_grad`].
const C_TILE: usize = 8;

/// `dx = g · w` — `g` is `rows × w.rows()`, `dx` is `rows × w.cols()` —
/// each element summed over `k = 0..w.rows()` in ascending order from
/// `0.0`, exactly as [`Matrix::matmul`] does, and like it without a
/// zero-skip.
///
/// Register-tiled 2 rows × [`C_TILE`] columns: sixteen independent
/// accumulator chains, each weight row segment loaded once per row pair.
/// The column tile is the outer loop so its `w.rows() × C_TILE` weight
/// block stays in L1 while the rows stream past.
#[inline(always)]
pub(crate) fn input_grad(g: &[f64], w: &Matrix, dx: &mut [f64]) {
    let (out_dim, in_dim) = (w.rows(), w.cols());
    let wd = w.data();
    let mut c0 = 0;
    while c0 < in_dim {
        let width = C_TILE.min(in_dim - c0);
        let mut g_rows = g.chunks_exact(2 * out_dim);
        let mut dx_rows = dx.chunks_exact_mut(2 * in_dim);
        for (g2, dx2) in g_rows.by_ref().zip(dx_rows.by_ref()) {
            let (g0, g1) = g2.split_at(out_dim);
            let mut a0 = [0.0f64; C_TILE];
            let mut a1 = [0.0f64; C_TILE];
            if width == C_TILE {
                // The full-width shape LLVM vectorizes.
                for ((&v0, &v1), w_row) in g0.iter().zip(g1).zip(wd.chunks_exact(in_dim)) {
                    let wr: &[f64; C_TILE] = w_row[c0..c0 + C_TILE]
                        .try_into()
                        .expect("tile is C_TILE wide");
                    for t in 0..C_TILE {
                        a0[t] += v0 * wr[t];
                        a1[t] += v1 * wr[t];
                    }
                }
            } else {
                for ((&v0, &v1), w_row) in g0.iter().zip(g1).zip(wd.chunks_exact(in_dim)) {
                    for (t, &b) in w_row[c0..c0 + width].iter().enumerate() {
                        a0[t] += v0 * b;
                        a1[t] += v1 * b;
                    }
                }
            }
            dx2[c0..c0 + width].copy_from_slice(&a0[..width]);
            dx2[in_dim + c0..in_dim + c0 + width].copy_from_slice(&a1[..width]);
        }
        // Odd trailing row.
        if let (Some(g0), Some(dx0)) = (
            g_rows.remainder().get(..out_dim),
            dx_rows.into_remainder().get_mut(..in_dim),
        ) {
            let mut a0 = [0.0f64; C_TILE];
            for (&v0, w_row) in g0.iter().zip(wd.chunks_exact(in_dim)) {
                for (t, &b) in w_row[c0..c0 + width].iter().enumerate() {
                    a0[t] += v0 * b;
                }
            }
            dx0[c0..c0 + width].copy_from_slice(&a0[..width]);
        }
        c0 += C_TILE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{J_AVX, J_BASE};
    use crate::layer::Activation;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Which copy of the two passes a step runs.
    #[derive(Debug, Clone, Copy)]
    enum Path {
        /// The SSE2 baseline: 4-wide forward tiles.
        Base,
        /// The 8-wide tile shape without AVX — runs on every host.
        Wide,
        /// `forward_train` + `backward` as callers run them: the AVX
        /// twins on a host with AVX.
        Dispatched,
    }

    /// One `forward_train` + `backward` step through `path`: the bits of
    /// the outputs, then of every layer's `gw` and `gb`.
    fn step(
        mlp: &mut Mlp,
        x: &[f64],
        rows: usize,
        grad_out: &[f64],
        scratch: &mut TrainScratch,
        path: Path,
    ) -> Vec<u64> {
        let out = match path {
            Path::Dispatched => mlp.forward_train(x, rows, scratch),
            Path::Base | Path::Wide => {
                scratch.reserve(mlp, rows);
                scratch.rows = rows;
                let TrainScratch { packed, acts, .. } = scratch;
                match path {
                    Path::Base => mlp.forward_tiled::<J_BASE>(x, rows, packed, acts),
                    _ => mlp.forward_tiled::<J_AVX>(x, rows, packed, acts),
                }
            }
        };
        let mut bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        mlp.zero_grad();
        match path {
            Path::Dispatched => mlp.backward(x, grad_out, scratch),
            Path::Base | Path::Wide => mlp.backward_body(x, grad_out, scratch),
        }
        for layer in mlp.layers() {
            bits.extend(layer.gw.data().iter().map(|v| v.to_bits()));
            bits.extend(layer.gb.iter().map(|v| v.to_bits()));
        }
        bits
    }

    #[test]
    fn both_copies_of_each_pass_are_bit_identical() {
        if !crate::kernel_path().starts_with("avx") {
            eprintln!("note: no AVX on this host; `Path::Dispatched` runs the baseline, not the AVX twins");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let acts = [Activation::Relu, Activation::Tanh, Activation::Identity];
        // One scratch for every copy: a cache keyed by weight version
        // alone would feed one width's packing to the other.
        let mut scratch = TrainScratch::new();
        for dims in [
            &[5usize, 3, 2][..],
            &[15, 32, 32, 4],
            &[24, 8, 1],
            &[7, 9, 21, 13, 3],
        ] {
            for (a, &hidden) in acts.iter().enumerate() {
                let out_act = acts[(a + 1) % acts.len()];
                let mut mlp = Mlp::new(dims, hidden, out_act, &mut rng);
                let (in_dim, out_dim) = (mlp.in_dim(), mlp.out_dim());
                for rows in [1usize, 2, 3, 5, 8, 13, 31, 64, 70] {
                    let x: Vec<f64> = (0..rows * in_dim)
                        .map(|_| rng.random::<f64>() * 4.0 - 2.0)
                        .collect();
                    // Every fourth gradient entry is exactly zero, which
                    // `param_grads` skips.
                    let grad_out: Vec<f64> = (0..rows * out_dim)
                        .map(|i| {
                            let g = rng.random::<f64>() - 0.5;
                            if i % 4 == 3 {
                                0.0
                            } else {
                                g
                            }
                        })
                        .collect();
                    let want = step(&mut mlp, &x, rows, &grad_out, &mut scratch, Path::Base);
                    // Base → 8-wide → dispatched → base: the packed cache
                    // switches width both ways.
                    for path in [Path::Wide, Path::Dispatched, Path::Base] {
                        let got = step(&mut mlp, &x, rows, &grad_out, &mut scratch, path);
                        assert_eq!(
                            got, want,
                            "{dims:?} {hidden:?}/{out_act:?} rows {rows} {path:?}"
                        );
                    }
                }
            }
        }
    }
}
