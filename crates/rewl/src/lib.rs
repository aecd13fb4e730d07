//! # dt-rewl
//!
//! Replica-exchange Wang–Landau (REWL): the parallel sampling framework of
//! DeepThermo.
//!
//! The global energy range is split into `M` overlapping windows with `W`
//! walkers each (`M·W` ranks ≡ GPUs in the paper). Each walker runs
//! Wang–Landau inside its window; periodically, walkers in adjacent
//! windows attempt configuration exchanges with the acceptance
//!
//! `P = min(1, [g_i(E_x) · g_j(E_y)] / [g_i(E_y) · g_j(E_x)])`
//!
//! (valid only when both energies lie in the overlap), which lets
//! configurations tunnel across the whole range while every walker keeps a
//! local, rapidly-flattening histogram. At the end, per-window `ln g`
//! pieces are averaged over the window's walkers and stitched into the
//! global density of states at the overlap bin where the `ln g` slopes
//! match best.
//!
//! Deep proposals plug in per window: each walker can carry a
//! [`dt_proposal::DeepProposal`] trained on-the-fly from its own samples,
//! with optional weight averaging across the walkers of a window
//! (simulating the paper's NCCL/RCCL allreduce).
//!
//! Two drivers are provided:
//! * [`run_rewl`] — ranks on a [`dt_hpc::ThreadCluster`], full exchange
//!   protocol over tagged messages (the faithful parallel implementation);
//! * [`run_rewl_on`] — ONE rank of the same protocol on any
//!   [`dt_hpc::Transport`] (the entry point for multi-process clusters,
//!   e.g. TCP workers — see [`dt_hpc::TcpTransport`]).
//!
//! The per-rank logic itself lives in `rank` (a phase state machine),
//! [`exchange`] (the swap protocol and message tags), and `gather`
//! (the final merge at rank 0); it is identical on every backend, so a
//! fault-free run yields bit-identical `ln g` regardless of transport.
//!
//! ## Fault tolerance
//!
//! Every rank is fail-stop, on both backends. A [`dt_hpc::FaultPlan`]
//! (on [`RewlConfig::faults`], or the communicator's for [`run_rewl_on`])
//! injects rank kills and message drops/delays. Every protocol receive is
//! one deadline-bounded receive, and the first one that fails — a dead
//! peer, an expired deadline, a payload that does not decode — ends the
//! rank with [`RewlError::PeerLost`]. So does a convergence vote that
//! loses a rank: the collective fails instead of completing without it
//! (see [`dt_hpc::Communicator::allreduce_sum`]). Votes are taken on the
//! rounds whose outcome can change (the first round of a life, a round
//! holding a flatness check, a rebalance round, the sweep-cap round). The loss spreads as each rank
//! exits, so the whole cluster stops, and no run returns a degraded
//! answer.
//!
//! Recovery is checkpoint/restart. With [`RewlConfig::checkpoint`] set the
//! cluster snapshots itself every few rounds (see [`checkpoint`]): every
//! rank ships its state to rank 0, which writes the round as one file
//! holding every rank's image under a checksum. Running the same
//! configuration again over the same directory — in process, or a
//! `deepthermo run --recover` supervisor restarting every rank — resumes
//! from the newest snapshot that decodes through [`load_resume_point`].
//! For the local and random-global kernels the resumed run is
//! bit-identical to a fault-free one (see `tests/fault_tolerance.rs` and
//! `tests/tcp_backend.rs`); the deep kernel's sample buffer is not
//! persisted, so its resumes are not. The fault plan is recorded in each
//! snapshot: a resume that requests a *different* non-empty plan is
//! refused with [`RewlError::FaultPlanMismatch`]. A directory holding
//! another run's snapshots (another configuration digest, rank count or
//! energy grid), or the per-rank files older versions wrote, is refused
//! with [`RewlError::CheckpointUnusable`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod driver;
pub mod exchange;
pub(crate) mod gather;
pub mod merge;
pub(crate) mod rank;
pub mod rebalance;
pub mod spec;
pub mod windows;
pub mod wire;

pub use checkpoint::{load_resume_point, CheckpointSpec, CkptError, RankCheckpoint, ResumePoint};
pub use driver::pilot_window_costs;
pub use driver::{run_rewl, run_rewl_on, RankRun, RewlConfig, RewlError, RewlOutput, WindowReport};
pub use exchange::{exchange_role, ExchangeRole};
pub use merge::merge_windows;
pub use rebalance::{plan_rebalance, Migration, RtSample};
pub use spec::{DeepSpec, KernelSpec};
pub use windows::WindowLayout;
pub use wire::{GatherPiece, WireError};
