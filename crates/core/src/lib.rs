//! # DeepThermo
//!
//! Deep-learning accelerated parallel Monte Carlo sampling for
//! thermodynamics evaluation of high-entropy alloys — a from-scratch Rust
//! reproduction of Yin, Wang & Shankar, IPDPS 2023.
//!
//! ## What it does
//!
//! DeepThermo evaluates the full thermodynamics of an on-lattice alloy —
//! density of states g(E), internal energy, heat capacity, entropy, free
//! energy, and Warren–Cowley short-range order as functions of temperature
//! — by replica-exchange Wang–Landau sampling whose configuration updates
//! are proposed by a neural network trained on the fly. The deep proposals
//! update many sites at once (globally) while their exactly-computable
//! forward/reverse probabilities keep the Metropolis–Hastings correction,
//! and hence the sampled ensemble, exact.
//!
//! ## Quickstart
//!
//! ```
//! # fn main() -> Result<(), deepthermo::DeepThermoError> {
//! use deepthermo::{DeepThermo, DeepThermoConfig};
//!
//! // A small NbMoTaW supercell with fast-converging settings.
//! let config = DeepThermoConfig::quick_demo();
//! let report = DeepThermo::from_material(config)?.run()?;
//! assert!(report.converged);
//! // The order–disorder transition shows up as a heat-capacity peak.
//! assert!(report.transition_temperature > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | layer | crate |
//! |---|---|
//! | lattice geometry & order parameters | [`dt_lattice`] |
//! | Hamiltonians & incremental ΔE | [`dt_hamiltonian`] |
//! | neural networks | [`dt_nn`] |
//! | energy surrogates | [`dt_surrogate`] |
//! | MC proposal kernels (incl. deep) | [`dt_proposal`] |
//! | Wang–Landau | [`dt_wanglandau`] |
//! | replica-exchange WL | [`dt_rewl`] |
//! | canonical baselines | [`dt_metropolis`] |
//! | DOS → thermodynamics | [`dt_thermo`] |
//! | simulated cluster & perf models | [`dt_hpc`] |
//! | metrics, spans & phase reports | [`dt_telemetry`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod cluster;
pub mod config;
pub mod error;
pub mod pipeline;
pub mod report;

pub use cluster::{ClusterSpec, WorkerOutcome};
pub use config::{DeepThermoConfig, MaterialSpec};
pub use error::{ConfigError, DeepThermoError};
pub use pipeline::DeepThermo;
pub use report::{DeepThermoReport, SroCurve};

// Re-export the sub-crates so downstream users need one dependency.
pub use dt_hamiltonian as hamiltonian;
pub use dt_hpc as hpc;
pub use dt_lattice as lattice;
pub use dt_metropolis as metropolis;
pub use dt_nn as nn;
pub use dt_proposal as proposal;
pub use dt_rewl as rewl;
pub use dt_serve as serve;
pub use dt_surrogate as surrogate;
pub use dt_telemetry as telemetry;
pub use dt_thermo as thermo;
pub use dt_wanglandau as wanglandau;
