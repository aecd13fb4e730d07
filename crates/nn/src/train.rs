//! The training step: an allocation-free forward/backward beside
//! [`Mlp::forward_into`].
//!
//! [`Mlp::forward_train`] runs the inference engine's forward loop and
//! forward kernel over a ring of one buffer per layer, so every
//! layer's output survives for [`Mlp::backward`]; a grow-only
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
    pub fn backward(&mut self, x: &[f64], grad_out: &[f64], scratch: &mut TrainScratch) {
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
