//! # dt-lattice
//!
//! Periodic alloy supercells for on-lattice Monte Carlo sampling of
//! high-entropy alloys.
//!
//! This crate provides the geometric substrate of DeepThermo:
//!
//! * [`Structure`] — the Bravais lattice + basis (BCC, FCC, simple cubic),
//! * [`Supercell`] — an `Lx × Ly × Lz` periodic repetition of the structure
//!   with O(1) site indexing,
//! * [`NeighborTable`] — flat, shell-resolved neighbor lists built once and
//!   shared by every Monte Carlo walker,
//! * [`Configuration`] — a species assignment with fixed (canonical)
//!   composition and cheap swap/reassign updates,
//! * [`sro`] — Warren–Cowley short-range-order parameters used to
//!   characterize the order–disorder transition.
//!
//! Everything is deterministic and `Send + Sync` so walkers can share the
//! immutable geometry across threads (one walker per simulated GPU).
//!
//! ```
//! use dt_lattice::{Structure, Supercell, Composition, Configuration};
//! use rand::SeedableRng;
//!
//! let cell = Supercell::new(Structure::bcc(), [4, 4, 4]);
//! assert_eq!(cell.num_sites(), 128);
//! let neighbors = cell.neighbor_table(2); // first and second shells
//! assert_eq!(neighbors.coordination(0), 8); // BCC first shell
//! assert_eq!(neighbors.coordination(1), 6); // BCC second shell
//!
//! let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let config = Configuration::random(&comp, &mut rng);
//! assert_eq!(config.species_counts(), comp.counts());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod composition;
pub mod config;
pub mod error;
pub mod neighbors;
pub mod species;
pub mod sro;
pub mod structure;
pub mod supercell;

pub use composition::Composition;
pub use config::Configuration;
pub use error::LatticeError;
pub use neighbors::NeighborTable;
pub use species::{Species, SpeciesSet};
pub use sro::{SroAccumulator, WarrenCowley};
pub use structure::Structure;
pub use supercell::Supercell;

/// Convenient site index alias. `u32` keeps neighbor tables compact; 4 G
/// sites is far beyond any supercell this crate targets.
pub type SiteId = u32;
