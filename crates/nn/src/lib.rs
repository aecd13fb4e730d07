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
//! reference twin, kept for diagnostics and tests; the fused row kernels
//! underneath `forward_into` are implementation details and no longer
//! part of the public API.
//!
//! Training has **one step** on the same engine (see the [`train`]
//! module): [`Mlp::forward_train`] runs `forward_into`'s loop and
//! kernels but keeps every layer's output in a caller-owned
//! [`TrainScratch`], and [`Mlp::backward`] accumulates `gw`/`gb` from
//! them — bit-identical to the textbook [`Matrix`] products, and
//! allocation-free once the scratch is warm. Batches, targets and
//! gradients are flat row-major slices.
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
#![forbid(unsafe_code)]

pub mod infer;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod serialize;
pub mod train;

pub use infer::ForwardScratch;
pub use layer::{Activation, Linear};
pub use loss::{
    log_softmax_masked, log_softmax_masked_into, mse_loss, sample_categorical,
    softmax_cross_entropy, softmax_cross_entropy_masked, softmax_cross_entropy_masked_flat,
};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optim::{Adam, Sgd};
pub use serialize::{load_mlp, load_mlp_from_file, save_mlp, save_mlp_to_file, NnFormatError};
pub use train::TrainScratch;
