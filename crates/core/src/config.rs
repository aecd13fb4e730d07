//! Top-level run configuration.

use dt_hamiltonian::{Material, MaterialError};
use dt_lattice::Composition;
use dt_rewl::{KernelSpec, RewlConfig};
use dt_wanglandau::{LnfSchedule, WlParams};

use crate::error::ConfigError;

/// The material to simulate: an alloy system ([`Material`]) instantiated
/// on a concrete supercell size.
///
/// The [`Material`] carries the structure, species, composition ratios,
/// shell count, and EPI Hamiltonian; `MaterialSpec` adds the supercell
/// edge `L`. Compositions need not be equiatomic — the material's ratios
/// are apportioned over the supercell's sites.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialSpec {
    material: Material,
    l: usize,
}

impl MaterialSpec {
    /// An alloy system on an `L³`-cell cubic supercell.
    pub fn new(material: Material, l: usize) -> Self {
        MaterialSpec { material, l }
    }

    /// Equiatomic NbMoTaW on BCC — the paper's system, from the
    /// material registry.
    pub fn nbmotaw(l: usize) -> Self {
        MaterialSpec::new(Material::nbmotaw(), l)
    }

    /// The full alloy-system definition.
    pub fn material(&self) -> &Material {
        &self.material
    }

    /// Supercell edge in conventional cells.
    pub fn l(&self) -> usize {
        self.l
    }

    /// Number of lattice sites (`L³ ·` atoms per cell).
    pub fn num_sites(&self) -> usize {
        self.l.pow(3) * self.material.structure().atoms_per_cell()
    }

    /// Apportion the material's composition ratios over this supercell.
    ///
    /// # Errors
    /// Propagates ratio/site-count validation failures.
    pub fn composition(&self) -> Result<Composition, MaterialError> {
        self.material.composition(self.num_sites())
    }
}

/// Full configuration of a DeepThermo run.
#[derive(Debug, Clone)]
pub struct DeepThermoConfig {
    /// Material specification.
    pub material: MaterialSpec,
    /// Parallel sampling configuration (windows, walkers, kernels, WL
    /// schedule).
    pub rewl: RewlConfig,
    /// Quench sweeps for energy-range discovery.
    pub range_quench_sweeps: usize,
    /// Fractional padding of the discovered range.
    pub range_pad: f64,
    /// Temperature grid (K) for the thermodynamic curves.
    pub temperatures: Vec<f64>,
}

impl DeepThermoConfig {
    /// Production-flavored defaults: 4 windows × 2 walkers, deep proposals
    /// on, 1/t schedule to 1e-6, L=4 NbMoTaW.
    pub fn standard() -> Self {
        DeepThermoConfig {
            material: MaterialSpec::nbmotaw(4),
            rewl: RewlConfig {
                num_windows: 4,
                walkers_per_window: 2,
                num_bins: 128,
                wl: WlParams {
                    ln_f_initial: 1.0,
                    ln_f_final: 1e-6,
                    // The 1/t schedule guarantees steady ln f reduction even
                    // in windows whose histograms flatten slowly (the deep
                    // low-energy windows) — see dt-wanglandau::schedule.
                    schedule: LnfSchedule::OneOverT {
                        flatness: 0.8,
                        reduction: 0.5,
                    },
                    sweeps_per_check: 20,
                },
                max_sweeps: 2_000_000,
                seed: 2023,
                kernel: KernelSpec::Deep(Box::default()),
                ..RewlConfig::default()
            },
            range_quench_sweeps: 60,
            range_pad: 0.02,
            temperatures: dt_thermo::temperature_grid(50.0, 3000.0, 120),
        }
    }

    /// Small, fast-converging settings for demos, doctests, and CI.
    pub fn quick_demo() -> Self {
        let mut cfg = DeepThermoConfig::standard();
        cfg.material = MaterialSpec::nbmotaw(3);
        cfg.rewl.num_windows = 2;
        cfg.rewl.walkers_per_window = 2;
        cfg.rewl.num_bins = 48;
        cfg.rewl.wl.ln_f_final = 1e-3;
        cfg.rewl.wl.schedule = LnfSchedule::OneOverT {
            flatness: 0.7,
            reduction: 0.5,
        };
        cfg.rewl.wl.sweeps_per_check = 10;
        cfg.rewl.max_sweeps = 60_000;
        cfg.rewl.kernel = KernelSpec::LocalSwap;
        cfg.range_quench_sweeps = 30;
        cfg.temperatures = dt_thermo::temperature_grid(100.0, 2500.0, 60);
        cfg
    }

    /// Change the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rewl.seed = seed;
        self
    }

    /// Record per-rank telemetry during sampling (see
    /// [`crate::DeepThermoReport::telemetry`]).
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.rewl.telemetry = on;
        self
    }

    /// Check the configuration for inconsistencies that would make a run
    /// meaningless (or panic deep inside the sampler).
    ///
    /// # Errors
    /// The first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.material.material().species().is_empty() {
            return Err(ConfigError::EmptyComposition);
        }
        if self.material.l() == 0 {
            return Err(ConfigError::EmptySupercell);
        }
        if self.rewl.num_windows == 0 {
            return Err(ConfigError::NoWindows);
        }
        if self.rewl.walkers_per_window == 0 {
            return Err(ConfigError::NoWalkers);
        }
        if self.rewl.num_windows > 1 && !(self.rewl.overlap > 0.0 && self.rewl.overlap < 1.0) {
            return Err(ConfigError::BadOverlap(self.rewl.overlap));
        }
        if self.rewl.num_bins < 2 * self.rewl.num_windows {
            return Err(ConfigError::TooFewBins {
                bins: self.rewl.num_bins,
                windows: self.rewl.num_windows,
            });
        }
        if self.temperatures.is_empty() {
            return Err(ConfigError::NoTemperatures);
        }
        // A zero exchange cadence would sweep zero times per round and
        // never end; a zero observation or checkpoint cadence would divide
        // by zero on every rank.
        let checkpoint_every = self.rewl.checkpoint.as_ref().map_or(1, |c| c.every_rounds);
        let cadences = [
            (
                "rewl.exchange_every_sweeps",
                self.rewl.exchange_every_sweeps,
            ),
            ("rewl.observe_every_sweeps", self.rewl.observe_every_sweeps),
            ("rewl.checkpoint.every_rounds", checkpoint_every),
        ];
        for (field, n) in cadences {
            check(field, n as f64, n >= 1, POSITIVE)?;
        }
        validate_kernel(&self.rewl.kernel)
    }
}

const POSITIVE: &str = "at least 1";

fn check(
    field: &'static str,
    value: f64,
    ok: bool,
    expected: &'static str,
) -> Result<(), ConfigError> {
    if ok {
        Ok(())
    } else {
        Err(ConfigError::BadSetting {
            field,
            value,
            expected,
        })
    }
}

/// Reject a kernel the sampler would panic on at its first proposal,
/// retrain or sample: every field is checked here, before any rank starts.
fn validate_kernel(kernel: &KernelSpec) -> Result<(), ConfigError> {
    const SITES: &str = "at least 2";
    const FRACTION: &str = "in (0, 1)";
    let fraction = |w: f64| w > 0.0 && w < 1.0;
    match kernel {
        KernelSpec::LocalSwap => Ok(()),
        KernelSpec::RandomGlobal { k, weight } => {
            check("random.k", *k as f64, *k >= 2, SITES)?;
            check("random.weight", *weight, fraction(*weight), FRACTION)
        }
        KernelSpec::Deep(d) => {
            let k = d.proposal.k;
            check("deep.proposal.k", k as f64, k >= 2, SITES)?;
            check(
                "deep.deep_weight",
                d.deep_weight,
                fraction(d.deep_weight),
                FRACTION,
            )?;
            let counts = [
                ("deep.trainer.k", d.trainer.k as u64),
                (
                    "deep.trainer.configs_per_batch",
                    d.trainer.configs_per_batch as u64,
                ),
                ("deep.train_every_sweeps", d.train_every_sweeps),
                ("deep.sample_every_sweeps", d.sample_every_sweeps),
                ("deep.buffer_capacity", d.buffer_capacity as u64),
            ];
            for (field, n) in counts {
                check(field, n as f64, n >= 1, POSITIVE)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn material_site_counts() {
        assert_eq!(MaterialSpec::nbmotaw(4).num_sites(), 128);
        assert_eq!(MaterialSpec::nbmotaw(16).num_sites(), 8192);
    }

    #[test]
    fn builders_chain() {
        let cfg = DeepThermoConfig::quick_demo()
            .with_seed(7)
            .with_telemetry(true);
        assert_eq!(cfg.rewl.seed, 7);
        assert!(cfg.rewl.telemetry);
    }

    #[test]
    fn standard_uses_deep_proposals() {
        assert!(matches!(
            DeepThermoConfig::standard().rewl.kernel,
            KernelSpec::Deep(_)
        ));
    }

    #[test]
    fn validate_rejects_inconsistent_settings() {
        let rejects = |edit: fn(&mut DeepThermoConfig)| {
            let mut cfg = DeepThermoConfig::standard();
            assert_eq!(cfg.validate(), Ok(()));
            edit(&mut cfg);
            cfg.validate().unwrap_err()
        };
        assert_eq!(rejects(|c| c.rewl.num_windows = 0), ConfigError::NoWindows);
        assert_eq!(
            rejects(|c| c.rewl.walkers_per_window = 0),
            ConfigError::NoWalkers
        );
        assert_eq!(
            rejects(|c| c.rewl.overlap = 1.5),
            ConfigError::BadOverlap(1.5)
        );
        assert_eq!(
            rejects(|c| {
                c.rewl.num_windows = 8;
                c.rewl.num_bins = 10;
            }),
            ConfigError::TooFewBins {
                bins: 10,
                windows: 8
            }
        );
        assert_eq!(
            rejects(|c| c.material = MaterialSpec::nbmotaw(0)),
            ConfigError::EmptySupercell
        );
        assert_eq!(
            rejects(|c| c.temperatures.clear()),
            ConfigError::NoTemperatures
        );
        let bad = |field, value, expected| ConfigError::BadSetting {
            field,
            value,
            expected,
        };
        fn deep(c: &mut DeepThermoConfig) -> &mut dt_rewl::DeepSpec {
            match &mut c.rewl.kernel {
                KernelSpec::Deep(d) => d,
                _ => unreachable!("the standard config runs deep proposals"),
            }
        }
        assert_eq!(
            rejects(|c| deep(c).proposal.k = 1),
            bad("deep.proposal.k", 1.0, "at least 2")
        );
        assert_eq!(
            rejects(|c| deep(c).proposal.k = 0),
            bad("deep.proposal.k", 0.0, "at least 2")
        );
        assert_eq!(
            rejects(|c| deep(c).deep_weight = 1.0),
            bad("deep.deep_weight", 1.0, "in (0, 1)")
        );
        assert_eq!(
            rejects(|c| deep(c).deep_weight = 0.0),
            bad("deep.deep_weight", 0.0, "in (0, 1)")
        );
        assert_eq!(
            rejects(|c| deep(c).trainer.k = 0),
            bad("deep.trainer.k", 0.0, "at least 1")
        );
        assert_eq!(
            rejects(|c| deep(c).trainer.configs_per_batch = 0),
            bad("deep.trainer.configs_per_batch", 0.0, "at least 1")
        );
        assert_eq!(
            rejects(|c| deep(c).train_every_sweeps = 0),
            bad("deep.train_every_sweeps", 0.0, "at least 1")
        );
        assert_eq!(
            rejects(|c| deep(c).sample_every_sweeps = 0),
            bad("deep.sample_every_sweeps", 0.0, "at least 1")
        );
        assert_eq!(
            rejects(|c| deep(c).buffer_capacity = 0),
            bad("deep.buffer_capacity", 0.0, "at least 1")
        );
        assert_eq!(
            rejects(|c| c.rewl.kernel = KernelSpec::RandomGlobal { k: 1, weight: 0.2 }),
            bad("random.k", 1.0, "at least 2")
        );
        assert_eq!(
            rejects(|c| c.rewl.kernel = KernelSpec::RandomGlobal { k: 4, weight: -0.5 }),
            bad("random.weight", -0.5, "in (0, 1)")
        );
        assert_eq!(
            rejects(|c| c.rewl.kernel = KernelSpec::RandomGlobal {
                k: 4,
                weight: f64::NAN
            })
            .to_string(),
            "setting random.weight must be in (0, 1), got NaN"
        );
        assert_eq!(
            rejects(|c| c.rewl.exchange_every_sweeps = 0),
            bad("rewl.exchange_every_sweeps", 0.0, "at least 1")
        );
        assert_eq!(
            rejects(|c| c.rewl.observe_every_sweeps = 0),
            bad("rewl.observe_every_sweeps", 0.0, "at least 1")
        );
        assert_eq!(
            rejects(|c| {
                c.rewl.checkpoint = Some(dt_rewl::CheckpointSpec {
                    dir: "unused".into(),
                    every_rounds: 0,
                })
            }),
            bad("rewl.checkpoint.every_rounds", 0.0, "at least 1")
        );
    }
}
