//! # dt-nn
//!
//! A small, dependency-free dense neural-network library with explicit
//! backpropagation, written for DeepThermo's two models:
//!
//! * the **surrogate energy model** (regression MLP over pair-correlation
//!   descriptors), and
//! * the **deep proposal network** (classification MLP over local-context
//!   descriptors with composition-constrained softmax heads).
//!
//! The paper trains its networks with PyTorch on V100/MI250X GPUs; here the
//! models are small enough (10³–10⁵ parameters) that a straightforward
//! `f64` CPU implementation trains in milliseconds while keeping the exact
//! semantics the samplers need — in particular *numerically exact
//! log-probabilities* for Metropolis–Hastings corrections, which is why the
//! whole crate works in `f64`.
//!
//! Inference has **one surface**: the batch-first, steady-state
//! allocation-free [`Mlp::forward_into`] (fed from a [`ForwardScratch`];
//! see the [`infer`] module), which produces bit-identical results per
//! row for any batch size `rows ≥ 1`. [`Mlp::forward`] is its allocating
//! reference twin, kept for diagnostics and tests; the one forward
//! kernel underneath `forward_into` is crate-private.
//!
//! Training has **one step** on the same engine (see the [`train`]
//! module): [`Mlp::forward_train`] runs `forward_into`'s loop and
//! kernel but keeps every layer's output in a caller-owned
//! [`TrainScratch`], and [`Mlp::backward`] accumulates `gw`/`gb` from
//! them — bit-identical to the textbook [`Matrix`] products, and
//! allocation-free once the scratch is warm. Batches, targets and
//! gradients are flat row-major slices.
//!
//! Both passes are compiled twice from one source: an SSE2 baseline
//! copy and, on x86_64, an AVX twin whose forward kernel tiles 8 output
//! columns instead of 4. Each call picks the copy the CPU supports
//! (std's cached feature detection), so one binary runs on every host
//! and every copy yields the same bits; [`kernel_path`] names the copy
//! a host runs.
//!
//! # `unsafe`
//!
//! `#![deny(unsafe_code)]` holds for the whole crate except four scoped
//! allows: the two AVX twins, `Mlp::forward_ring_avx` (`mlp.rs`) and
//! `Mlp::backward_avx` (`train.rs`), and their one call site each. The
//! twins are `unsafe fn` because `#[target_feature]` on a safe function
//! needs a newer compiler than the workspace's `rust-version`; they are
//! safe to call exactly when the CPU has AVX, which each call site
//! checks just before the call (`// SAFETY:` comments there).
//!
//! ```
//! use dt_nn::{Activation, Adam, Mlp, TrainScratch};
//! use rand::SeedableRng;
//!
//! // Learn y = x0 * x1 on three points: 3 rows × 2 features, flat.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut mlp = Mlp::new(&[2, 16, 1], Activation::Tanh, Activation::Identity, &mut rng);
//! let mut adam = Adam::with_lr(1e-2);
//! let x = [0.5, -0.5, 1.0, 1.0, -1.0, 0.25];
//! let y = [-0.25, 1.0, -0.25];
//! let mut scratch = TrainScratch::new();
//! let mut grad = [0.0; 3];
//! let mut last = f64::INFINITY;
//! for _ in 0..200 {
//!     let out = mlp.forward_train(&x, 3, &mut scratch);
//!     last = dt_nn::mse_loss(out, &y, &mut grad);
//!     mlp.zero_grad();
//!     mlp.backward(&x, &grad, &mut scratch);
//!     adam.step(&mut mlp);
//! }
//! assert!(last < 0.05);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod infer;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod serialize;
pub mod train;

pub use infer::{kernel_path, ForwardScratch};
pub use layer::{Activation, Linear};
pub use loss::{
    log_softmax_masked, log_softmax_masked_into, mse_loss, sample_categorical,
    softmax_cross_entropy_masked_flat,
};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optim::Adam;
pub use serialize::{load_mlp, save_mlp, NnFormatError};
pub use train::TrainScratch;
