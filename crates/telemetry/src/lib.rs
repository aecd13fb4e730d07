//! # dt-telemetry
//!
//! The observability layer of DeepThermo: a lightweight metrics registry
//! (counters, gauges, monotonic histograms) and phase span timers with
//! near-zero overhead when disabled.
//!
//! The paper's headline claim is scalability to thousands of GPUs, and
//! window/walker tuning decisions hinge on *measured* per-phase costs
//! (moves vs. exchange vs. collective). This crate provides the
//! measurement surface every sampler and driver in the workspace
//! instruments against:
//!
//! * [`Telemetry`] — a cheaply-cloneable per-rank handle. Disabled
//!   handles ([`Telemetry::disabled`]) make every operation a single
//!   branch on a `None`; enabled handles accumulate into lock-free
//!   atomic slots shared by all clones.
//! * [`Phase`] — the fixed vocabulary of hot phases (move batches, ΔE
//!   evaluation, deep-proposal inference and training, replica exchange,
//!   weight allreduce, checkpoint, gather).
//! * [`MetricsRegistry`] — named counters/gauges/histograms for
//!   everything outside the fixed phase vocabulary (message traffic,
//!   acceptance counts, fault events).
//! * [`RankTelemetry`] — one rank's snapshot, exportable as JSONL
//!   ([`to_jsonl`]) and renderable as a human phase-breakdown table
//!   ([`phase_table`]); [`PhaseBreakdown`] aggregates ranks for the
//!   measured-vs-modeled roofline comparison in `dt-hpc`.
//!
//! ```
//! use dt_telemetry::{Phase, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! {
//!     let _span = tel.span(Phase::MoveBatch); // timed until drop
//! }
//! tel.add("moves", 128);
//! let snap = tel.snapshot(0);
//! assert_eq!(snap.counter("moves"), Some(128));
//! assert!(snap.phase_stat(Phase::MoveBatch).unwrap().count == 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod registry;
pub mod report;
mod ryu;
pub mod span;

pub use json::{parse_json, push_f64, push_json_string, validate_json, JsonError, JsonValue};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use report::{
    adaptive_counters, phase_table, to_jsonl, PhaseBreakdown, PhaseStat, RankTelemetry,
};
pub use span::{Phase, SpanGuard, Telemetry};
