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
//! [`run_rewl`] is built to survive a lossy cluster: a
//! [`dt_hpc::FaultPlan`] on [`RewlConfig::faults`] injects rank kills and
//! message drops/delays; every protocol receive is timeout-bounded, so a
//! dead or silent partner degrades an exchange or a weight sync instead
//! of hanging it; convergence is decided by a collective vote that only
//! counts survivors. Losses are reported through
//! [`WindowReport::lost_walkers`] and [`RewlOutput::lost_ranks`]. With
//! [`RewlConfig::checkpoint`] set, the cluster additionally snapshots
//! itself every few rounds (see [`checkpoint`]) and the next run over the
//! same directory resumes from the newest consistent snapshot. The fault
//! plan is recorded in the snapshot manifest; a resume that requests a
//! *different* non-empty plan is refused with
//! [`RewlError::FaultPlanMismatch`].
//!
//! ## Fail-stop
//!
//! With [`RewlConfig::recovery`] on (process clusters, through
//! [`run_rewl_on`]) a rank does not degrade around a loss: the first
//! failed protocol receive, or a converge vote that counts fewer than all
//! ranks, ends its life with [`RewlError::PeerLost`]. The loss spreads as
//! each rank exits, so the whole cluster stops, and its launcher restarts
//! every rank from the newest complete snapshot through
//! [`load_resume_point`] — ordinary checkpoint/restart. Rank 0 cannot
//! commit a snapshot with a rank missing, because the missing
//! confirmation ends its life first, so every snapshot such a run writes
//! is complete. For the local and random-global kernels the restarted
//! run is bit-identical to a fault-free one (see `tests/tcp_backend.rs`);
//! the deep kernel's sample buffer is not persisted, so its restarts
//! are not.

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

pub use checkpoint::{
    load_resume_point, CheckpointSpec, CkptError, RankCheckpoint, ResumePoint, RunManifest,
};
pub use driver::pilot_window_costs;
pub use driver::{run_rewl, run_rewl_on, RankRun, RewlConfig, RewlError, RewlOutput, WindowReport};
pub use exchange::{exchange_role, ExchangeRole};
pub use merge::merge_windows;
pub use rebalance::{plan_rebalance, Migration, RtSample};
pub use spec::{DeepSpec, KernelSpec};
pub use windows::WindowLayout;
pub use wire::{GatherPiece, WireError};
