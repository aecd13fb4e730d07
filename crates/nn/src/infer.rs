//! Batched, allocation-free inference.
//!
//! [`crate::Mlp::forward`] allocates a fresh [`Matrix`] per layer per
//! call, which dominates the cost of the deep proposal's decode loop,
//! where the network runs once per site per MC move (training runs on
//! the same kernels: see [`crate::train`]). The **one inference
//! surface** callers use is
//! [`crate::Mlp::forward_into`] — batch-first (`rows ≥ 1`), fed from a
//! [`ForwardScratch`]; everything below it is an internal layer:
//!
//! * [`ForwardScratch`] — a pair of ping-pong activation buffers reused
//!   across forward passes. Buffers grow on first use (or when a larger
//!   batch arrives) and are never shrunk, so a warmed scratch performs
//!   **zero heap allocations** per forward. One scratch per walker/thread;
//!   it is `Clone` so per-rank state can be snapshotted freely.
//! * `linear_forward` (crate-private) — the one forward kernel, for
//!   every batch size on every build: a tiled `X · Wᵀ` over weights
//!   repacked into zero-padded tiles of `J` columns, with the bias add
//!   and activation fused into the store. Each output element is
//!   accumulated in the **same sequential k-order** as the naive
//!   [`Matrix::matmul_transpose_b`] path, so results are bit-identical
//!   to [`crate::Mlp::forward`]; the speedup comes from running the tile's
//!   columns as vector lanes (the naive dot product is latency-bound on
//!   its single accumulator) and from not touching the allocator.
//! * Run-time dispatch — the tile width `J` is the kernel's const
//!   generic, and the forward pass is compiled twice from one source:
//!   an SSE2 baseline copy at `J = 4` and, on x86_64, an AVX twin at
//!   `J = 8` (`avx` only: no FMA, which would fuse the multiply-add and
//!   change the bits). Each call picks its copy with std's cached
//!   feature detection, so one binary runs on every x86_64 host and uses
//!   256-bit lanes where they exist. [`kernel_path`] names the copy this
//!   host runs. The backward pass ([`crate::train`]) dispatches the same
//!   way.
//!
//! Batching rules (see DESIGN.md, "Inference engine"): whenever every
//! input row is known upfront — teacher-forced replay, reverse
//! log-probabilities, surrogate batch prediction — build all rows and run
//! one k-row pass through [`crate::Mlp::forward_into`]. Genuinely
//! autoregressive decoding (sampling step t+1 needs the species drawn at
//! step t) cannot batch across *sites* and runs batch-1 — one walker per
//! rank, one decode per proposal — where the scratch still removes all
//! per-step allocation.

use crate::layer::Activation;
use crate::matrix::Matrix;
use crate::mlp::Mlp;

/// Reusable activation buffers for [`Mlp::forward_into`].
///
/// Holds two flat row-major buffers that the forward pass ping-pongs
/// between, so any number of layers needs only two allocations for the
/// lifetime of the scratch. All buffers grow geometrically and never
/// shrink: once warmed for the largest batch a call site uses, every
/// subsequent forward is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// The forward loop's ring of output buffers at length two: layer
    /// `i` writes `ring[i % 2]` and reads the other one.
    pub(crate) ring: [Vec<f64>; 2],
    pub(crate) packed: PackedWeights,
}

impl ForwardScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        ForwardScratch::default()
    }

    /// A scratch pre-sized for `max_rows`-row batches through `mlp`, so
    /// the very first forward already allocates nothing.
    pub fn for_mlp(mlp: &Mlp, max_rows: usize) -> Self {
        let mut scratch = ForwardScratch::new();
        scratch.reserve(mlp, max_rows);
        scratch
    }

    /// Grow the buffers so `max_rows`-row batches through `mlp` need no
    /// further allocation.
    pub fn reserve(&mut self, mlp: &Mlp, max_rows: usize) {
        let widest = mlp
            .layers()
            .iter()
            .map(|l| l.out_dim())
            .max()
            .unwrap_or(0)
            .max(mlp.in_dim());
        for buf in &mut self.ring {
            grow(buf, max_rows * widest);
        }
        self.packed.reserve(mlp);
    }
}

/// Grow-only resize: the buffers of both scratches never shrink.
pub(crate) fn grow<T: Clone + Default>(buf: &mut Vec<T>, need: usize) {
    if buf.len() < need {
        buf.resize(need, T::default());
    }
}

/// Column-major (input-index-major) repack of *every* layer's weights,
/// concatenated in layer order, so every forward reads contiguous
/// weight lanes. Cached across calls and keyed by the `Mlp` weight
/// version it was built from (0 = none) and the tile width it was packed
/// at: repacking happens once per weight update, not once per layer per
/// forward, and a scratch handed from one copy of the kernel to the
/// other repacks instead of feeding it the wrong layout.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedWeights {
    w: Vec<f64>,
    version: u64,
    tile: usize,
}

impl PackedWeights {
    /// Size for `mlp` at the widest tile ([`J_AVX`]), which fits either.
    pub(crate) fn reserve(&mut self, mlp: &Mlp) {
        let total: usize = mlp
            .layers()
            .iter()
            .map(|l| packed_len(l.w.cols(), l.w.rows(), J_AVX))
            .sum();
        if self.w.len() < total {
            self.w.resize(total, 0.0);
            self.version = 0;
        }
    }

    /// The weights of `mlp` packed at width `tile`, repacked first when
    /// the cache was built from another weight version or width.
    pub(crate) fn refresh(&mut self, mlp: &Mlp, tile: usize) -> &[f64] {
        let version = mlp.weights_version();
        if (self.version, self.tile) != (version, tile) {
            let mut off = 0;
            for layer in mlp.layers() {
                let wn = packed_len(layer.w.cols(), layer.w.rows(), tile);
                pack_weights_transposed(&layer.w, &mut self.w[off..off + wn], tile);
                off += wn;
            }
            (self.version, self.tile) = (version, tile);
        }
        &self.w
    }
}

/// Column-tile width of the baseline copy of [`linear_forward`]: two
/// 128-bit SSE2 accumulator lanes per row (a 2×8 tile spills there and
/// runs slower).
pub(crate) const J_BASE: usize = 4;

/// Column-tile width of the AVX copy of [`linear_forward`]: two 256-bit
/// accumulator lanes per row. Also the widest tile any copy packs for,
/// so [`PackedWeights::reserve`] sizes for it.
pub(crate) const J_AVX: usize = 8;

/// Whether this host runs the AVX copies of the forward and backward
/// passes: std's cached `is_x86_feature_detected!`, folded to a constant
/// when the build itself targets AVX.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// The copy of the forward and backward passes this host runs, for
/// tooling: `"avx (8-wide)"` when the CPU has AVX, else
/// `"baseline (4-wide)"` (SSE2 on x86_64). The width is the forward
/// kernel's column tile. Every copy yields the same bits; only the speed
/// differs.
pub fn kernel_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx_detected() {
        return "avx (8-wide)";
    }
    "baseline (4-wide)"
}

/// Length of the packed buffer [`pack_weights_transposed`] needs for an
/// `out_dim × in_dim` weight matrix at column-tile width `tile`: the
/// column count rounded up to a whole number of tiles. The tail tile is
/// zero-padded, which is what keeps the kernel's inner loop a single
/// full-width vector shape for *every* output width (a narrow tail tile
/// defeats LLVM's SLP vectorizer and runs scalar).
pub(crate) fn packed_len(in_dim: usize, out_dim: usize, tile: usize) -> usize {
    in_dim * out_dim.div_ceil(tile) * tile
}

/// Repack `w` (row-major `out_dim × in_dim`) into the tile-blocked
/// layout [`linear_forward`] consumes at column-tile width `tile`: the
/// output columns are cut into `tile`-wide tiles (the last tile
/// zero-padded past `out_dim`), and each tile stores its weights
/// input-index-major — `tile` contiguous values per input index `k`.
///
/// The kernel's inner loop therefore walks the packed buffer strictly
/// sequentially: no index arithmetic, no strided loads, and bounds
/// checks vanish into `chunks_exact`. Padding columns accumulate zeros
/// the epilogue never reads, so real outputs keep the exact sequential
/// k-order of the reference path.
///
/// # Panics
/// Panics when `wt` is shorter than [`packed_len`]`(w.cols(), w.rows(), tile)`.
pub(crate) fn pack_weights_transposed(w: &Matrix, wt: &mut [f64], tile: usize) {
    let in_dim = w.cols();
    let out_dim = w.rows();
    assert!(
        wt.len() >= packed_len(in_dim, out_dim, tile),
        "packed buffer too short"
    );
    let wd = w.data();
    let mut off = 0;
    let mut j = 0;
    while j < out_dim {
        let width = tile.min(out_dim - j);
        for k in 0..in_dim {
            for t in 0..tile {
                wt[off] = if t < width {
                    wd[(j + t) * in_dim + k]
                } else {
                    0.0
                };
                off += 1;
            }
        }
        j += tile;
    }
}

/// Fused `out = act(x · wᵀ + bias)` over the first `rows` rows of `x`,
/// with `w` packed by [`pack_weights_transposed`] at width `J`.
///
/// `x` is row-major `rows × in_dim`; `out` receives row-major
/// `rows × out_dim` (any tail beyond that is left untouched). Every
/// output element accumulates in the same sequential k-order as
/// [`Matrix::matmul_transpose_b`], so results are bit-identical to the
/// reference path for any `rows ≥ 1` and either tile width, while the
/// inner loop walks the packed weights contiguously and runs the `J`
/// columns as vector mul/add lanes. Runs correctly at any `J` on any
/// host; `#[inline(always)]` so the AVX twin of the forward pass
/// compiles its own 256-bit copy.
///
/// # Panics
/// Panics when `x` is shorter than `rows × in_dim`, `wt` is shorter than
/// [`packed_len`]`(in_dim, out_dim, J)`, `bias` does not match `out_dim`,
/// or `out` is shorter than `rows × out_dim`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn linear_forward<const J: usize>(
    x: &[f64],
    rows: usize,
    wt: &[f64],
    in_dim: usize,
    out_dim: usize,
    bias: &[f64],
    act: Activation,
    out: &mut [f64],
) {
    assert!(x.len() >= rows * in_dim, "input slice too short");
    assert!(
        wt.len() >= packed_len(in_dim, out_dim, J),
        "packed weights too short"
    );
    assert_eq!(bias.len(), out_dim, "bias length mismatch");
    assert!(out.len() >= rows * out_dim, "output slice too short");

    // Column-tile-major, 4/2/1-row × J-column tiles; the accumulator
    // arrays become vector lanes. The tile is 8 wide in the AVX copy and
    // 4 wide in the SSE2 baseline, where a 2×8 tile spills.
    // Keeping the column tile in the *outer* loop means each tile's
    // weight lines (one cache line per input index with an 8-wide tile)
    // are re-read from L1 by every row pair instead of re-streaming the
    // whole matrix once per pair — the difference between the proposal
    // batch widths (2–16 rows) scaling and not.
    //
    // Every tile accumulates at the full J width — the packed tail
    // tile is zero-padded, and only the epilogue narrows to `$real`
    // live columns. A width-specialized narrow tile looks cheaper but
    // LLVM's SLP vectorizer rejects it and emits scalar chains, which
    // is ~3x slower on narrow output layers than burning a few padded
    // lanes. Macro, not closure: each expansion keeps the constant
    // J accumulate shape while getting its own epilogue width.
    macro_rules! col_tile {
        ($j:expr, $off:expr, $real:expr) => {{
            let block = &wt[$off..$off + in_dim * J];
            let mut i = 0;
            // 4-row tiles first: eight vector accumulator chains, enough
            // to saturate both FP add ports (a 2-row tile's four chains
            // are add-latency-bound). The weight block is read strictly
            // sequentially and stays L1-resident across row tiles.
            while i + 4 <= rows {
                let x0 = &x[i * in_dim..][..in_dim];
                let x1 = &x[(i + 1) * in_dim..][..in_dim];
                let x2 = &x[(i + 2) * in_dim..][..in_dim];
                let x3 = &x[(i + 3) * in_dim..][..in_dim];
                let mut a0 = [0.0f64; J];
                let mut a1 = [0.0f64; J];
                let mut a2 = [0.0f64; J];
                let mut a3 = [0.0f64; J];
                for (((&v0, &v1), (&v2, &v3)), wr) in x0
                    .iter()
                    .zip(x1)
                    .zip(x2.iter().zip(x3))
                    .zip(block.chunks_exact(J))
                {
                    for t in 0..J {
                        a0[t] += v0 * wr[t];
                        a1[t] += v1 * wr[t];
                        a2[t] += v2 * wr[t];
                        a3[t] += v3 * wr[t];
                    }
                }
                for t in 0..$real {
                    out[i * out_dim + $j + t] = act.apply(a0[t] + bias[$j + t]);
                    out[(i + 1) * out_dim + $j + t] = act.apply(a1[t] + bias[$j + t]);
                    out[(i + 2) * out_dim + $j + t] = act.apply(a2[t] + bias[$j + t]);
                    out[(i + 3) * out_dim + $j + t] = act.apply(a3[t] + bias[$j + t]);
                }
                i += 4;
            }
            while i + 2 <= rows {
                let x0 = &x[i * in_dim..][..in_dim];
                let x1 = &x[(i + 1) * in_dim..][..in_dim];
                let mut a0 = [0.0f64; J];
                let mut a1 = [0.0f64; J];
                for ((&v0, &v1), wr) in x0.iter().zip(x1).zip(block.chunks_exact(J)) {
                    for t in 0..J {
                        a0[t] += v0 * wr[t];
                        a1[t] += v1 * wr[t];
                    }
                }
                for t in 0..$real {
                    out[i * out_dim + $j + t] = act.apply(a0[t] + bias[$j + t]);
                    out[(i + 1) * out_dim + $j + t] = act.apply(a1[t] + bias[$j + t]);
                }
                i += 2;
            }
            if i < rows {
                let x0 = &x[i * in_dim..][..in_dim];
                let mut a0 = [0.0f64; J];
                for (&v0, wr) in x0.iter().zip(block.chunks_exact(J)) {
                    for t in 0..J {
                        a0[t] += v0 * wr[t];
                    }
                }
                for t in 0..$real {
                    out[i * out_dim + $j + t] = act.apply(a0[t] + bias[$j + t]);
                }
            }
        }};
    }

    let mut off = 0;
    let mut j = 0;
    while j + J <= out_dim {
        col_tile!(j, off, J);
        off += in_dim * J;
        j += J;
    }
    if j < out_dim {
        let real = out_dim - j;
        col_tile!(j, off, real);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Reference: naive matmul_t + broadcast bias + activation map.
    fn reference(x: &Matrix, w: &Matrix, bias: &[f64], act: Activation) -> Matrix {
        let mut y = x.matmul_transpose_b(w);
        y.add_row_broadcast(bias);
        y.map(|v| act.apply(v))
    }

    type Kernel = fn(&[f64], usize, &[f64], usize, usize, &[f64], Activation, &mut [f64]);

    #[test]
    fn packed_kernel_is_bit_identical_to_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        use rand::RngExt;
        for &(rows, in_dim, out_dim) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 5),
            (1, 15, 32),
            (2, 1, 1),
            (2, 7, 5),
            (2, 8, 4),
            (3, 31, 64),
            (5, 64, 64),
            (8, 13, 3),
            (4, 15, 12),
            (7, 9, 21),
        ] {
            for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
                let x = Matrix::from_vec(
                    rows,
                    in_dim,
                    (0..rows * in_dim)
                        .map(|_| rng.random::<f64>() * 4.0 - 2.0)
                        .collect(),
                );
                let w = Matrix::from_vec(
                    out_dim,
                    in_dim,
                    (0..out_dim * in_dim)
                        .map(|_| rng.random::<f64>() * 2.0 - 1.0)
                        .collect(),
                );
                let bias: Vec<f64> = (0..out_dim).map(|_| rng.random::<f64>() - 0.5).collect();
                let want = reference(&x, &w, &bias, act);
                // Both tile widths, called directly: the generic kernel
                // runs at either width without AVX.
                let kernels: [(usize, Kernel); 2] = [
                    (J_BASE, linear_forward::<J_BASE>),
                    (J_AVX, linear_forward::<J_AVX>),
                ];
                for (tile, kernel) in kernels {
                    let mut wt = vec![f64::NAN; packed_len(in_dim, out_dim, tile)];
                    pack_weights_transposed(&w, &mut wt, tile);
                    let mut got = vec![f64::NAN; rows * out_dim];
                    kernel(x.data(), rows, &wt, in_dim, out_dim, &bias, act, &mut got);
                    for (g, e) in got.iter().zip(want.data()) {
                        assert_eq!(
                            g.to_bits(),
                            e.to_bits(),
                            "{rows}x{in_dim}x{out_dim} {act:?} at width {tile}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reserve_sizes_for_widest_layer() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mlp = Mlp::new(
            &[3, 17, 5],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let s = ForwardScratch::for_mlp(&mlp, 4);
        assert!(s.ring[0].len() >= 4 * 17);
        assert!(s.ring[1].len() >= 4 * 17);
    }
}
