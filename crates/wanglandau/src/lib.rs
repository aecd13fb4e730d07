//! # dt-wanglandau
//!
//! Wang–Landau flat-histogram sampling of the density of states g(E).
//!
//! Wang–Landau biases a random walk by the *inverse* of the running DOS
//! estimate, `π(σ) ∝ 1/g(E(σ))`, so the walker visits all energies with
//! equal frequency and `ln g` converges as the modification factor `ln f`
//! is annealed. It is the engine behind the paper's headline result —
//! directly evaluating a density of states spanning `~e^10,000` for a real
//! material — because it never needs `g` itself, only `ln g`.
//!
//! This crate provides:
//!
//! * [`EnergyGrid`] / [`VisitHistogram`] / [`DosEstimate`] — binning, visit
//!   counting with flatness checks, and the `ln g` accumulator,
//! * [`WlParams`] / [`LnfSchedule`] — the classic flatness-halving schedule
//!   and the `1/t` variant,
//! * [`WlWalker`] — a single walker generic over the [`EnergyModel`] and
//!   any [`ProposalKernel`], with the full Metropolis–Hastings correction
//!   `A = min(1, exp(ln g(E) − ln g(E') + ln q_rev − ln q_fwd))` so the
//!   deep, asymmetric proposals of `dt-proposal` sample the same ensemble
//!   as classical swaps,
//! * [`range::explore_energy_range`] — quench-based range discovery used to
//!   lay out energy windows before sampling.
//!
//! [`EnergyModel`]: dt_hamiltonian::EnergyModel
//! [`ProposalKernel`]: dt_proposal::ProposalKernel

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod histogram;
pub mod range;
pub mod schedule;
pub mod walker;

pub use checkpoint::{CheckpointError, WalkerCheckpoint};
pub use histogram::{DosEstimate, EnergyGrid, VisitHistogram};
pub use range::explore_energy_range;
pub use schedule::{LnfSchedule, WlParams};
pub use walker::{RoundTripStats, WlProgress, WlWalker};
