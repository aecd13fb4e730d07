//! # dt-hamiltonian
//!
//! Configuration energy models for on-lattice alloy Monte Carlo.
//!
//! DeepThermo's samplers are generic over an [`EnergyModel`]: anything that
//! can produce a total configuration energy and *incremental* energy
//! differences for the two move classes the framework uses — two-site swaps
//! (the classical local proposal) and k-site reassignments (the deep,
//! global proposal).
//!
//! The concrete physics here is an effective pair-interaction (EPI)
//! cluster-expansion Hamiltonian ([`PairHamiltonian`]) with a parameter set
//! shaped after the NbMoTaW refractory high-entropy alloy
//! ([`nbmotaw::nbmotaw`]). The paper evaluated a deep-learning potential
//! trained on DFT; the sampling algorithms only ever see the [`EnergyModel`]
//! interface, so the EPI model is a faithful drop-in substrate (see
//! DESIGN.md, "Substitutions").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exact;
pub mod material;
pub mod model;
pub mod nbmotaw;
pub mod pair;

pub use material::{Material, MaterialError};
pub use model::{DeltaWorkspace, EnergyModel};
pub use nbmotaw::{nbmotaw, KB_EV_PER_K};
pub use pair::PairHamiltonian;
