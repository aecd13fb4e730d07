//! Run reports and text/CSV rendering.

use dt_proposal::MoveStats;
use dt_rewl::WindowReport;
use dt_telemetry::RankTelemetry;
use dt_thermo::{MicrocanonicalAccumulator, ThermoPoint};
use dt_wanglandau::DosEstimate;

/// Warren–Cowley SRO of one ordered species pair versus temperature.
#[derive(Debug, Clone, PartialEq)]
pub struct SroCurve {
    /// Shell index.
    pub shell: usize,
    /// Species pair (indices into the material's species set).
    pub pair: (u8, u8),
    /// Human-readable pair label, e.g. `"Mo-Ta"`.
    pub label: String,
    /// `(T, α)` samples.
    pub points: Vec<(f64, f64)>,
}

/// Everything a DeepThermo run produces.
#[derive(Debug, Clone)]
pub struct DeepThermoReport {
    /// Normalized density of states (absolute: `Σ g = multinomial count`).
    pub dos: DosEstimate,
    /// Visited-bin mask aligned with `dos`.
    pub mask: Vec<bool>,
    /// `max ln g − min ln g` over visited bins — the paper's headline
    /// "range of the density of states" (≈10⁴ at N = 8192).
    pub ln_g_range: f64,
    /// Thermodynamic curve over the configured temperature grid.
    pub thermo: Vec<ThermoPoint>,
    /// Heat-capacity-peak estimate of the order–disorder transition (K).
    pub transition_temperature: f64,
    /// Peak `C_v/k_B` (per supercell).
    pub cv_peak: f64,
    /// Warren–Cowley SRO curves for every unlike pair, first shell.
    pub sro_curves: Vec<SroCurve>,
    /// Merged microcanonical pair-probability accumulator, binned on the
    /// DOS grid (`obs_dim = num_shells · m²`). Kept in the report so a
    /// converged run can be exported as a serving artifact and
    /// re-reweighted at any temperature later.
    pub sro: MicrocanonicalAccumulator,
    /// Per-window sampling reports.
    pub windows: Vec<WindowReport>,
    /// Whether every walker converged.
    pub converged: bool,
    /// Total MC moves across walkers.
    pub total_moves: u64,
    /// Sweeps per walker.
    pub sweeps: u64,
    /// Merged acceptance statistics across all walkers.
    pub stats: MoveStats,
    /// Ranks that died during the run (fault tolerance).
    pub lost_ranks: Vec<usize>,
    /// Checkpoint round the run resumed from, if it did.
    pub resumed_from: Option<u64>,
    /// Times the `--recover` supervisor restarted the whole cluster from
    /// its newest complete checkpoint; zero unless a rank died.
    pub restarts: u64,
    /// Walker migrations performed by the dynamic rebalance planner;
    /// zero unless the run sampled with `rebalance_every > 0`.
    pub walkers_rebalanced: u64,
    /// Per-rank telemetry snapshots; empty unless the run sampled with
    /// `RewlConfig::telemetry` on (see `DeepThermoConfig::with_telemetry`).
    pub telemetry: Vec<RankTelemetry>,
}

impl DeepThermoReport {
    /// CSV of the thermodynamic curve: `T,U,Cv,F,S`.
    pub fn thermo_csv(&self) -> String {
        let mut s = String::from("T_K,U_eV,Cv_per_kB,F_eV,S_per_kB\n");
        for p in &self.thermo {
            s.push_str(&format!(
                "{:.2},{:.6},{:.6},{:.6},{:.6}\n",
                p.t, p.u, p.cv, p.f, p.s
            ));
        }
        s
    }

    /// CSV of the density of states over visited bins: `E,ln_g`.
    pub fn dos_csv(&self) -> String {
        let mut s = String::from("E_eV,ln_g\n");
        for (bin, &visited) in self.mask.iter().enumerate() {
            if visited {
                s.push_str(&format!(
                    "{:.6},{:.6}\n",
                    self.dos.grid().center(bin),
                    self.dos.ln_g_bin(bin)
                ));
            }
        }
        s
    }

    /// CSV of the SRO curves: `T,label,alpha`.
    pub fn sro_csv(&self) -> String {
        let mut s = String::from("T_K,pair,alpha\n");
        for curve in &self.sro_curves {
            for &(t, a) in &curve.points {
                s.push_str(&format!("{t:.2},{},{a:.6}\n", curve.label));
            }
        }
        s
    }

    /// The telemetry snapshots as JSONL (one JSON object per rank, per
    /// line); empty string when telemetry was off.
    pub fn telemetry_jsonl(&self) -> String {
        dt_telemetry::to_jsonl(&self.telemetry)
    }

    /// Human-readable per-rank phase-timing table; header-only when
    /// telemetry was off.
    pub fn phase_table(&self) -> String {
        dt_telemetry::phase_table(&self.telemetry)
    }

    /// Short human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "converged: {} (sweeps/walker: {}, total moves: {})\n",
            self.converged, self.sweeps, self.total_moves
        ));
        if let Some(round) = self.resumed_from {
            s.push_str(&format!("resumed from checkpoint round {round}\n"));
        }
        if !self.lost_ranks.is_empty() {
            s.push_str(&format!(
                "ranks lost during the run: {:?}\n",
                self.lost_ranks
            ));
        }
        if self.restarts > 0 {
            s.push_str(&format!(
                "ranks respawned: {} (whole-cluster restarts from the newest complete checkpoint)\n",
                self.restarts
            ));
        }
        s.push_str(&format!("ln g range: {:.1}\n", self.ln_g_range));
        s.push_str(&format!(
            "order-disorder transition: T_c ~ {:.0} K (Cv peak {:.2} kB)\n",
            self.transition_temperature, self.cv_peak
        ));
        for (kernel, proposed, accepted) in self.stats.iter() {
            s.push_str(&format!(
                "kernel {kernel}: {accepted}/{proposed} accepted ({:.1}%)\n",
                100.0 * accepted as f64 / proposed.max(1) as f64
            ));
        }
        if self.walkers_rebalanced > 0 {
            s.push_str(&format!(
                "walkers rebalanced: {}\n",
                self.walkers_rebalanced
            ));
        }
        let any_round_trips = self.windows.iter().any(|w| w.round_trips > 0);
        for w in &self.windows {
            s.push_str(&format!(
                "window {}: exchange rate {:.2} ({} of {})\n",
                w.window,
                w.exchange_rate(),
                w.exchange_accepted,
                w.exchange_attempts
            ));
            if any_round_trips {
                s.push_str(&format!(
                    "  round trips: {} (mean {} moves each)\n",
                    w.round_trips,
                    w.round_trip_moves / w.round_trips.max(1)
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_wanglandau::EnergyGrid;

    fn dummy() -> DeepThermoReport {
        DeepThermoReport {
            dos: DosEstimate::from_parts(EnergyGrid::new(0.0, 1.0, 2), vec![0.0, 1.0]),
            mask: vec![true, false],
            ln_g_range: 1.0,
            thermo: vec![ThermoPoint {
                t: 300.0,
                u: -1.0,
                cv: 2.0,
                f: -1.5,
                s: 0.5,
            }],
            transition_temperature: 300.0,
            cv_peak: 2.0,
            sro_curves: vec![SroCurve {
                shell: 0,
                pair: (1, 2),
                label: "Mo-Ta".into(),
                points: vec![(300.0, -0.4)],
            }],
            sro: MicrocanonicalAccumulator::new(2, 1),
            windows: vec![],
            converged: true,
            total_moves: 10,
            sweeps: 1,
            stats: MoveStats::new(),
            lost_ranks: vec![],
            resumed_from: None,
            restarts: 0,
            walkers_rebalanced: 0,
            telemetry: vec![],
        }
    }

    #[test]
    fn csv_renders_have_headers_and_rows() {
        let r = dummy();
        assert!(r.thermo_csv().starts_with("T_K,"));
        assert_eq!(r.thermo_csv().lines().count(), 2);
        // Only visited bins in the DOS CSV.
        assert_eq!(r.dos_csv().lines().count(), 2);
        assert!(r.sro_csv().contains("Mo-Ta"));
    }

    #[test]
    fn summary_mentions_tc() {
        assert!(dummy().summary().contains("T_c ~ 300"));
    }

    #[test]
    fn summary_surfaces_adaptive_counters_only_when_nonzero() {
        let mut r = dummy();
        r.windows = vec![WindowReport {
            window: 0,
            exchange_attempts: 4,
            exchange_accepted: 2,
            stats: MoveStats::new(),
            converged: true,
            ln_f: 1e-4,
            lost_walkers: 0,
            round_trips: 0,
            round_trip_moves: 0,
        }];
        let s = r.summary();
        assert!(!s.contains("walkers rebalanced"), "{s}");
        assert!(!s.contains("round trips"), "{s}");
        r.walkers_rebalanced = 3;
        r.windows[0].round_trips = 12;
        r.windows[0].round_trip_moves = 600;
        let s = r.summary();
        assert!(s.contains("walkers rebalanced: 3"), "{s}");
        assert!(s.contains("round trips: 12 (mean 50 moves each)"), "{s}");
    }

    #[test]
    fn summary_surfaces_recovery_counters_only_when_nonzero() {
        let mut r = dummy();
        assert!(!r.summary().contains("ranks respawned"));
        r.restarts = 2;
        let s = r.summary();
        assert!(
            s.contains(
                "ranks respawned: 2 (whole-cluster restarts from the newest complete checkpoint)"
            ),
            "{s}"
        );
    }
}
