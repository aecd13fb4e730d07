//! Modification-factor schedules.

/// How `ln f` is annealed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LnfSchedule {
    /// Classic Wang–Landau: multiply `ln f` by `reduction` whenever the
    /// visit histogram is flat at `flatness`.
    Flatness {
        /// Required `min/mean` visit ratio (e.g. 0.8).
        flatness: f64,
        /// Multiplicative reduction (e.g. 0.5 for halving).
        reduction: f64,
    },
    /// Belardinelli–Pereyra `1/t`: behave like `Flatness` until
    /// `ln f < num_bins / t` (t = total MC moves), then follow
    /// `ln f = num_bins / t`, which removes the saturation error of the
    /// pure flatness schedule.
    OneOverT {
        /// Flatness threshold for the initial phase.
        flatness: f64,
        /// Reduction factor for the initial phase.
        reduction: f64,
    },
}

/// Wang–Landau run parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WlParams {
    /// Initial modification factor (`ln f`); 1.0 is standard.
    pub ln_f_initial: f64,
    /// Terminate when `ln f` falls below this (e.g. 1e-8).
    pub ln_f_final: f64,
    /// The annealing schedule.
    pub schedule: LnfSchedule,
    /// Monte Carlo sweeps (N proposals each) between flatness checks.
    pub sweeps_per_check: usize,
}

impl Default for WlParams {
    fn default() -> Self {
        WlParams {
            ln_f_initial: 1.0,
            ln_f_final: 1e-8,
            schedule: LnfSchedule::Flatness {
                flatness: 0.8,
                reduction: 0.5,
            },
            sweeps_per_check: 10,
        }
    }
}

impl WlParams {
    /// Quick-converging parameters for tests and examples.
    pub fn fast() -> Self {
        WlParams {
            ln_f_initial: 1.0,
            ln_f_final: 1e-4,
            schedule: LnfSchedule::Flatness {
                flatness: 0.7,
                reduction: 0.5,
            },
            sweeps_per_check: 5,
        }
    }
}

/// Tracks the annealing state across a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleState {
    ln_f: f64,
    in_one_over_t_phase: bool,
}

impl ScheduleState {
    /// Start a schedule at `ln_f_initial`.
    pub fn new(params: &WlParams) -> Self {
        ScheduleState {
            ln_f: params.ln_f_initial,
            in_one_over_t_phase: false,
        }
    }

    /// Current `ln f`.
    pub fn ln_f(&self) -> f64 {
        self.ln_f
    }

    /// Rebuild a schedule position from checkpointed values.
    pub fn restore(ln_f: f64, in_one_over_t_phase: bool) -> Self {
        ScheduleState {
            ln_f,
            in_one_over_t_phase,
        }
    }

    /// Is the `1/t` phase active?
    pub fn in_one_over_t_phase(&self) -> bool {
        self.in_one_over_t_phase
    }

    /// Advance the schedule after a flatness check.
    ///
    /// * `flat` — did the stage histogram pass the flatness threshold?
    /// * `total_moves` — cumulative MC moves of the walker;
    /// * `num_bins` — bins in the walker's window.
    ///
    /// Returns `true` when the stage advanced (histogram should be reset).
    pub fn advance(
        &mut self,
        schedule: LnfSchedule,
        flat: bool,
        total_moves: u64,
        num_bins: usize,
    ) -> bool {
        match schedule {
            LnfSchedule::Flatness { reduction, .. } => {
                if flat {
                    self.ln_f *= reduction;
                    true
                } else {
                    false
                }
            }
            LnfSchedule::OneOverT { reduction, .. } => {
                let t_floor = num_bins as f64 / (total_moves.max(1) as f64);
                if self.in_one_over_t_phase || self.ln_f <= t_floor {
                    // Once in the 1/t phase, ln f follows the 1/t curve
                    // monotonically (never increases).
                    self.in_one_over_t_phase = true;
                    self.ln_f = self.ln_f.min(t_floor);
                    true
                } else if flat {
                    self.ln_f *= reduction;
                    if self.ln_f <= t_floor {
                        self.in_one_over_t_phase = true;
                        self.ln_f = t_floor.min(self.ln_f);
                    }
                    true
                } else {
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatness_schedule_halves_on_flat() {
        let params = WlParams::default();
        let mut st = ScheduleState::new(&params);
        assert_eq!(st.ln_f(), 1.0);
        assert!(!st.advance(params.schedule, false, 100, 10));
        assert_eq!(st.ln_f(), 1.0);
        assert!(st.advance(params.schedule, true, 200, 10));
        assert_eq!(st.ln_f(), 0.5);
    }

    #[test]
    fn one_over_t_takes_over() {
        let schedule = LnfSchedule::OneOverT {
            flatness: 0.8,
            reduction: 0.5,
        };
        let params = WlParams {
            schedule,
            ..WlParams::default()
        };
        let mut st = ScheduleState::new(&params);
        // Halve a few times while flat; many moves keep bins/t below ln f
        // so the flatness phase stays active.
        for _ in 0..3 {
            st.advance(schedule, true, 100_000, 10);
        }
        assert_eq!(st.ln_f(), 0.125);
        assert!(!st.in_one_over_t_phase());
        // Once ln f ≤ bins/t the 1/t phase takes over (here bins/t = 0.125).
        st.advance(schedule, false, 80, 10);
        assert!(st.in_one_over_t_phase());
        assert!((st.ln_f() - 0.125).abs() < 1e-12);
        // ln f then follows the 1/t curve and never increases.
        st.advance(schedule, false, 1000, 10);
        assert!((st.ln_f() - 0.01).abs() < 1e-12);
        st.advance(schedule, false, 2000, 10);
        assert!((st.ln_f() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn one_over_t_never_increases() {
        let schedule = LnfSchedule::OneOverT {
            flatness: 0.8,
            reduction: 0.5,
        };
        let params = WlParams {
            schedule,
            ..WlParams::default()
        };
        let mut st = ScheduleState::new(&params);
        st.advance(schedule, true, 1_000_000, 10); // deep 1/t
        let lnf = st.ln_f();
        st.advance(schedule, true, 1_000_001, 10);
        assert!(st.ln_f() <= lnf);
    }
}
