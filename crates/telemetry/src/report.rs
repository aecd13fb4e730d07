//! Per-rank telemetry snapshots, JSONL export, and phase tables.

use crate::json::{push_f64, push_json_string};
use crate::span::Phase;

/// Canonical counter names of the adaptive-windows layer (round-trip
/// instrumentation and dynamic walker reallocation), as they appear in
/// [`RankTelemetry::counters`] and the JSONL export.
pub mod adaptive_counters {
    /// Completed round trips (lowest ↔ highest window bin) this rank's
    /// walker has made, including trips banked in windows it has since
    /// migrated out of.
    pub const ROUND_TRIPS_TOTAL: &str = "round_trips_total";
    /// Wall-clock nanoseconds inside completed boundary crossings.
    /// Telemetry only — the rebalance planner uses move counts, never
    /// wall-clock, so plans stay deterministic.
    pub const ROUND_TRIP_NS: &str = "round_trip_ns";
    /// Times this rank's walker was migrated to another window by the
    /// rebalance planner.
    pub const WALKERS_REBALANCED_TOTAL: &str = "walkers_rebalanced_total";
}

/// Accumulated statistics for one phase on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: Phase,
    /// Total wall-clock seconds spent in the phase.
    pub total_s: f64,
    /// Number of spans recorded.
    pub count: u64,
    /// Median span duration in seconds (log₂-bucket estimate).
    pub p50_s: f64,
    /// 99th-percentile span duration in seconds (log₂-bucket estimate).
    pub p99_s: f64,
}

/// One rank's telemetry snapshot: phase timings plus named
/// counters/gauges. Produced by `Telemetry::snapshot`; a disabled
/// handle snapshots to empty vectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTelemetry {
    /// Global rank that recorded this snapshot.
    pub rank: usize,
    /// Per-phase timings, in [`Phase::ALL`] order (empty when disabled).
    pub phases: Vec<PhaseStat>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

impl RankTelemetry {
    /// The stat for `phase`, if any spans were snapshot.
    pub fn phase_stat(&self, phase: Phase) -> Option<&PhaseStat> {
        self.phases.iter().find(|s| s.phase == phase)
    }

    /// The value of the named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// The value of the named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// This snapshot as one JSON object (one JSONL line, no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"rank\":");
        out.push_str(&self.rank.to_string());
        out.push_str(",\"phases\":{");
        for (i, s) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(s.phase.name());
            out.push_str("\":{\"total_s\":");
            push_f64(&mut out, s.total_s);
            out.push_str(",\"count\":");
            out.push_str(&s.count.to_string());
            out.push_str(",\"p50_s\":");
            push_f64(&mut out, s.p50_s);
            out.push_str(",\"p99_s\":");
            push_f64(&mut out, s.p99_s);
            out.push('}');
        }
        out.push_str("},\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push(':');
            push_f64(&mut out, *v);
        }
        out.push_str("}}");
        out
    }
}

/// Export rank snapshots as JSONL: one JSON object per line, trailing
/// newline included. Empty input yields an empty string.
pub fn to_jsonl(ranks: &[RankTelemetry]) -> String {
    let mut out = String::new();
    for r in ranks {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Cross-rank aggregate of phase timings, used for the phase table and
/// the measured-vs-modeled roofline comparison.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Number of rank snapshots aggregated.
    pub ranks: usize,
    /// Summed total seconds per phase, in [`Phase::ALL`] order.
    pub total_s: [f64; Phase::COUNT],
    /// Summed span counts per phase, in [`Phase::ALL`] order.
    pub count: [u64; Phase::COUNT],
}

impl PhaseBreakdown {
    /// Aggregate rank snapshots (empty snapshots contribute nothing).
    pub fn aggregate(ranks: &[RankTelemetry]) -> Self {
        let mut agg = PhaseBreakdown {
            ranks: ranks.len(),
            ..PhaseBreakdown::default()
        };
        for r in ranks {
            for s in &r.phases {
                agg.total_s[s.phase as usize] += s.total_s;
                agg.count[s.phase as usize] += s.count;
            }
        }
        agg
    }

    /// Summed seconds across ranks for `phase`.
    pub fn total(&self, phase: Phase) -> f64 {
        self.total_s[phase as usize]
    }

    /// Summed span count across ranks for `phase`.
    pub fn spans(&self, phase: Phase) -> u64 {
        self.count[phase as usize]
    }

    /// Sum over the non-overlapping phases (everything except
    /// [`Phase::MoveBatch`], which contains ΔE and inference time).
    pub fn accounted_s(&self) -> f64 {
        Phase::ALL
            .into_iter()
            .filter(|&p| p != Phase::MoveBatch)
            .map(|p| self.total(p))
            .sum()
    }
}

/// Render rank snapshots as a human-readable per-rank phase table:
/// one row per (rank, phase) with nonzero spans, plus a cross-rank
/// TOTAL section.
pub fn phase_table(ranks: &[RankTelemetry]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>5}  {:<11} {:>12} {:>10} {:>12} {:>12}\n",
        "rank", "phase", "total_s", "spans", "p50_s", "p99_s"
    ));
    for r in ranks {
        for s in &r.phases {
            if s.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:>5}  {:<11} {:>12.6} {:>10} {:>12.3e} {:>12.3e}\n",
                r.rank,
                s.phase.name(),
                s.total_s,
                s.count,
                s.p50_s,
                s.p99_s
            ));
        }
    }
    let agg = PhaseBreakdown::aggregate(ranks);
    out.push_str(&format!(
        "{:>5}  {:<11} {:>12} {:>10}\n",
        "-----", "-----------", "------------", "----------"
    ));
    for p in Phase::ALL {
        if agg.spans(p) == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:>5}  {:<11} {:>12.6} {:>10}\n",
            "TOTAL",
            p.name(),
            agg.total(p),
            agg.spans(p)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Telemetry;

    fn sample() -> Vec<RankTelemetry> {
        let mut out = Vec::new();
        for rank in 0..2 {
            let tel = Telemetry::enabled();
            tel.record_ns(Phase::MoveBatch, 4_000_000);
            tel.record_ns(Phase::EnergyEval, 1_000_000);
            tel.record_ns(Phase::Exchange, 2_000_000);
            tel.add("moves_proposed", 100 + rank as u64);
            tel.set_gauge("ln_f", 0.5);
            out.push(tel.snapshot(rank));
        }
        out
    }

    #[test]
    fn jsonl_has_one_valid_line_per_rank() {
        let ranks = sample();
        let jsonl = to_jsonl(&ranks);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            crate::json::validate_json(line).expect("line should parse");
            assert!(line.contains("\"move_batch\""));
            assert!(line.contains("\"moves_proposed\""));
        }
        assert!(lines[0].starts_with("{\"rank\":0"));
        assert!(lines[1].starts_with("{\"rank\":1"));
    }

    #[test]
    fn json_escapes_are_valid() {
        let snap = RankTelemetry {
            rank: 0,
            phases: vec![],
            counters: vec![("odd \"name\"\n".to_string(), 1)],
            gauges: vec![("inf".to_string(), f64::INFINITY)],
        };
        crate::json::validate_json(&snap.to_json()).expect("escaped JSON parses");
    }

    #[test]
    fn aggregate_sums_across_ranks() {
        let agg = PhaseBreakdown::aggregate(&sample());
        assert_eq!(agg.ranks, 2);
        assert!((agg.total(Phase::EnergyEval) - 2e-3).abs() < 1e-12);
        assert_eq!(agg.spans(Phase::Exchange), 2);
        // accounted excludes MoveBatch: 2*(1ms + 2ms) = 6ms.
        assert!((agg.accounted_s() - 6e-3).abs() < 1e-12);
    }

    #[test]
    fn table_lists_ranks_and_totals() {
        let table = phase_table(&sample());
        assert!(table.contains("energy_eval"));
        assert!(table.contains("TOTAL"));
        // Header + 2 ranks × 3 phases + separator + 3 totals.
        assert!(table.lines().count() >= 10);
    }

    #[test]
    fn counter_and_gauge_lookup() {
        let ranks = sample();
        assert_eq!(ranks[1].counter("moves_proposed"), Some(101));
        assert_eq!(ranks[0].gauge("ln_f"), Some(0.5));
        assert_eq!(ranks[0].counter("missing"), None);
    }
}
