//! # dt-hpc
//!
//! The simulated HPC substrate DeepThermo runs on.
//!
//! The paper deploys on Summit (NVIDIA V100) and Crusher/Frontier
//! (AMD MI250X) with one Wang–Landau walker per GPU, MPI for replica
//! exchange, and NCCL/RCCL allreduces for distributing retrained proposal
//! networks. This crate substitutes that stack with:
//!
//! * [`Communicator`] over a [`Transport`] — an MPI-flavored
//!   message-passing runtime (tagged point-to-point sends, and a barrier
//!   and a rank-ordered sum-allreduce written once over them) with two
//!   backends that differ only in how bytes reach a peer's mailbox:
//!   threads ([`ThreadCluster`]) and loopback sockets ([`TcpCluster`],
//!   `--cluster tcp:<n>`); used for *functionally real* parallel REWL runs
//!   at laptop scale;
//! * [`rank_rng`] — deterministic, independent per-rank ChaCha streams so
//!   parallel runs are exactly reproducible at any thread count;
//! * [`GpuSpec`] / [`PerfModel`] — calibrated analytic performance models
//!   of the V100 and MI250X (single GCD) with ring-allreduce communication
//!   costs, used to *project* wall-clock scaling to the paper's 3,000-GPU
//!   runs (see DESIGN.md, "Substitutions": absolute seconds are not
//!   reproducible on a laptop; the shapes — efficiency roll-off and the
//!   V100 : MI250X ratio — are);
//! * [`scaling`] — weak/strong scaling simulators that generate the rows
//!   of the paper's scaling tables (experiments E7/E8/E10).

#![warn(missing_docs)]
// The only unsafe code is the scoped `poll(2)` binding in `sys`.
#![deny(unsafe_code)]

//!
//! For robustness work the runtime also simulates an *unreliable* cluster:
//! [`FaultPlan`] injects deterministic message drops/delays and rank
//! kills, and [`ThreadCluster::run_with_faults`] converts rank panics into
//! [`RankOutcome::Died`]. Failure is fail-stop: every receive is
//! deadline-bounded, and a receive or collective that loses a peer
//! returns the [`CommError`] naming it instead of completing without it.

pub mod comm;
pub mod fault;
pub mod gpu;
pub mod perf;
pub mod rngstream;
pub mod scaling;
pub mod sys;
pub mod tcp;
pub mod thread_fabric;
pub mod transport;

pub use comm::{CommError, Communicator, SimulatedCrash, TrafficSnapshot};
pub use fault::{FaultEvent, FaultPlan, SendFate};
pub use gpu::GpuSpec;
pub use perf::{
    comparison_table, measured_vs_modeled, CostBreakdown, PerfModel, PhaseComparison, WorkloadShape,
};
pub use rngstream::rank_rng;
pub use scaling::{
    reproject_with_imbalance, strong_scaling_table, weak_scaling_table, window_imbalance_factor,
    ScalingRow,
};
pub use tcp::{TcpCluster, TcpRendezvous, TcpTransport};
pub use thread_fabric::{install_crash_hook, RankOutcome, ThreadCluster, ThreadTransport};
pub use transport::Transport;
