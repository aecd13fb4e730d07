//! Phase span timers and the per-rank [`Telemetry`] handle.

use std::sync::Arc;
use std::time::Instant;

use crate::registry::{Histogram, MetricsRegistry};
use crate::report::{PhaseStat, RankTelemetry};

/// The fixed vocabulary of hot phases every sampler and driver times.
///
/// The first five mirror the components of the analytic roofline in
/// `dt-hpc` (`CostBreakdown`), so measured and modeled costs compare
/// phase-for-phase; the rest cover driver overheads the model folds away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// ΔE evaluation inside MC moves (memory-bound in the model).
    EnergyEval,
    /// Deep-proposal network inference (forward decode + reverse replay).
    Inference,
    /// Deep-proposal network training epochs.
    Train,
    /// Replica-exchange handshakes with window neighbors.
    Exchange,
    /// Weight averaging across a window (the simulated allreduce),
    /// including the collective convergence vote.
    Allreduce,
    /// Whole MC move batches (sweeps): proposal + ΔE + bookkeeping.
    MoveBatch,
    /// Cluster checkpoint writes and commit rounds.
    Checkpoint,
    /// The final gather/merge at rank 0.
    Gather,
}

impl Phase {
    /// Number of phases (slot-array size).
    pub const COUNT: usize = 8;

    /// Every phase, in slot order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::EnergyEval,
        Phase::Inference,
        Phase::Train,
        Phase::Exchange,
        Phase::Allreduce,
        Phase::MoveBatch,
        Phase::Checkpoint,
        Phase::Gather,
    ];

    /// Stable machine-readable name (used in JSONL and tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::EnergyEval => "energy_eval",
            Phase::Inference => "inference",
            Phase::Train => "train",
            Phase::Exchange => "exchange",
            Phase::Allreduce => "allreduce",
            Phase::MoveBatch => "move_batch",
            Phase::Checkpoint => "checkpoint",
            Phase::Gather => "gather",
        }
    }

    /// Phase by its stable name.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Shared interior of an enabled [`Telemetry`] handle. Each phase's
/// slot is one nanosecond [`Histogram`], whose sum and count are the
/// phase's total time and span count.
#[derive(Debug)]
struct TelemetryInner {
    phases: [Histogram; Phase::COUNT],
    registry: MetricsRegistry,
}

/// A per-rank telemetry handle.
///
/// Cloning is cheap and shares storage: a walker, its proposal kernels,
/// and the driving rank all record into the same slots. A *disabled*
/// handle ([`Telemetry::disabled`], also [`Default`]) reduces every
/// operation to one branch — no clock reads, no atomics — so
/// instrumentation can stay in hot paths unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// A recording handle.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                phases: Default::default(),
                registry: MetricsRegistry::new(),
            })),
        }
    }

    /// A no-op handle: every operation is a single branch.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Build a handle from a flag.
    pub fn new(enabled: bool) -> Self {
        if enabled {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start timing `phase`; the elapsed time is recorded when the
    /// returned guard drops. On a disabled handle the guard is inert and
    /// no clock is read.
    #[inline]
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        SpanGuard {
            slot: self
                .inner
                .as_deref()
                .map(|inner| (&inner.phases[phase as usize], Instant::now())),
        }
    }

    /// Record `ns` nanoseconds against `phase` directly.
    pub fn record_ns(&self, phase: Phase, ns: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.phases[phase as usize].record(ns);
        }
    }

    /// Add `n` to the named counter (no-op when disabled).
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.registry.counter(name).add(n);
        }
    }

    /// Set the named gauge (no-op when disabled).
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.registry.gauge(name).set(v);
        }
    }

    /// The metric registry of an enabled handle.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|inner| &inner.registry)
    }

    /// Snapshot everything recorded so far into a [`RankTelemetry`].
    /// A disabled handle snapshots to an empty report (all-zero phases).
    pub fn snapshot(&self, rank: usize) -> RankTelemetry {
        let mut phases = Vec::with_capacity(Phase::COUNT);
        let (counters, gauges) = match self.inner.as_deref() {
            Some(inner) => {
                for p in Phase::ALL {
                    let hist = &inner.phases[p as usize];
                    phases.push(PhaseStat {
                        phase: p,
                        total_s: hist.sum() as f64 * 1e-9,
                        count: hist.count(),
                        p50_s: hist.quantile(0.5) * 1e-9,
                        p99_s: hist.quantile(0.99) * 1e-9,
                    });
                }
                (
                    inner.registry.counter_values(),
                    inner.registry.gauge_values(),
                )
            }
            None => (Vec::new(), Vec::new()),
        };
        RankTelemetry {
            rank,
            phases,
            counters,
            gauges,
        }
    }
}

/// Times one phase from creation to drop. Obtained from
/// [`Telemetry::span`]; inert when the handle is disabled.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct SpanGuard<'a> {
    slot: Option<(&'a Histogram, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((slot, start)) = self.slot.take() {
            slot.record(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_elapsed_time() {
        let tel = Telemetry::enabled();
        {
            let _span = tel.span(Phase::Exchange);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = tel.snapshot(3);
        let stat = snap.phase_stat(Phase::Exchange).unwrap();
        assert_eq!(stat.count, 1);
        assert!(stat.total_s >= 0.002, "total {}", stat.total_s);
        assert_eq!(snap.rank, 3);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let _span = tel.span(Phase::MoveBatch);
        }
        tel.add("moves", 10);
        tel.set_gauge("x", 1.0);
        assert!(!tel.is_enabled());
        assert!(tel.registry().is_none());
        let snap = tel.snapshot(0);
        assert!(snap.phases.is_empty());
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        clone.record_ns(Phase::Train, 1000);
        tel.record_ns(Phase::Train, 500);
        let stat = tel.snapshot(0).phase_stat(Phase::Train).unwrap().clone();
        assert_eq!(stat.count, 2);
        assert!((stat.total_s - 1.5e-6).abs() < 1e-12);
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }
}
