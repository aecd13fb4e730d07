//! The workspace-level error type.
//!
//! Every fallible public entry point of the pipeline —
//! [`DeepThermo::from_material`](crate::DeepThermo::from_material),
//! [`run`](crate::DeepThermo::run),
//! [`run_cluster_rank`](crate::DeepThermo::run_cluster_rank),
//! [`evaluate`](crate::DeepThermo::evaluate) — and every mode of the
//! `deepthermo` binary returns [`DeepThermoError`], which wraps the typed
//! errors of the sub-crates (sampling, materials, model serialization,
//! serving) plus configuration, command-line, cluster and I/O failures of
//! the pipeline itself. Degraded but survivable situations (dead walkers,
//! lost messages) are *not* errors; they are reported inside the
//! [`DeepThermoReport`](crate::DeepThermoReport).

use std::path::PathBuf;

use dt_hamiltonian::MaterialError;
use dt_rewl::RewlError;
use dt_serve::ServeError;
use dt_surrogate::SerializeError;

/// An inconsistency in a [`DeepThermoConfig`](crate::DeepThermoConfig),
/// caught at construction time by
/// [`DeepThermoConfig::validate`](crate::DeepThermoConfig::validate).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `num_windows` is zero.
    NoWindows,
    /// `walkers_per_window` is zero.
    NoWalkers,
    /// The window overlap fraction is outside `(0, 1)`.
    BadOverlap(f64),
    /// Too few global energy bins for the window count: every window
    /// needs at least two bins of its own.
    TooFewBins {
        /// Configured global bin count.
        bins: usize,
        /// Configured window count.
        windows: usize,
    },
    /// The material has no species (an empty composition).
    EmptyComposition,
    /// The supercell edge is zero — no lattice sites at all.
    EmptySupercell,
    /// The temperature grid is empty, so no thermodynamic curve can be
    /// evaluated.
    NoTemperatures,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoWindows => write!(f, "num_windows must be at least 1"),
            ConfigError::NoWalkers => write!(f, "walkers_per_window must be at least 1"),
            ConfigError::BadOverlap(v) => {
                write!(f, "window overlap must lie in (0, 1), got {v}")
            }
            ConfigError::TooFewBins { bins, windows } => write!(
                f,
                "{bins} global bins cannot cover {windows} windows (need at least 2 per window)"
            ),
            ConfigError::EmptyComposition => write!(f, "the material declares no species"),
            ConfigError::EmptySupercell => write!(f, "supercell edge L must be at least 1"),
            ConfigError::NoTemperatures => write!(f, "the temperature grid is empty"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Any unrecoverable failure of a DeepThermo pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub enum DeepThermoError {
    /// The run configuration is inconsistent.
    Config(ConfigError),
    /// The parallel sampler failed: a lost rank or message (ranks are
    /// fail-stop), a root rank death, or a checkpoint directory the run
    /// cannot use.
    Sampling(RewlError),
    /// A serialized surrogate/proposal model could not be loaded.
    Model(SerializeError),
    /// A filesystem operation of the pipeline failed.
    Io {
        /// Path the operation targeted.
        path: PathBuf,
        /// Rendered `std::io::Error` (stored as text so this enum stays
        /// `Clone + PartialEq`).
        message: String,
    },
    /// Sampling visited no energy bins, so there is no density of
    /// states to evaluate.
    NoVisitedBins,
    /// The material definition is invalid: unknown registry name,
    /// unreadable or malformed `dtmat` file, inconsistent counts, or a
    /// structure that cannot expose the requested shells.
    Material(MaterialError),
    /// A multi-process cluster or serving fleet could not be assembled —
    /// a socket bind, process spawn, or rendezvous handshake failed — or
    /// one of its processes failed: a rank died with the restart budget
    /// spent (`--max-restarts` under `--recover`, 0 without); in a
    /// fleet, a shard exited abnormally.
    Cluster {
        /// What the orchestrator was doing when it failed.
        message: String,
    },
    /// Loading, binding or serving an artifact registry failed.
    Serve(ServeError),
    /// The command line is malformed: an unknown mode or flag, a flag
    /// missing its value, or a value that does not parse.
    Usage(String),
}

impl std::fmt::Display for DeepThermoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeepThermoError::Config(e) => write!(f, "invalid configuration: {e}"),
            DeepThermoError::Sampling(e) => write!(f, "sampling failed: {e}"),
            DeepThermoError::Model(e) => write!(f, "model deserialization failed: {e}"),
            DeepThermoError::Io { path, message } => {
                write!(f, "I/O failed on {}: {message}", path.display())
            }
            DeepThermoError::NoVisitedBins => {
                write!(f, "sampling visited no energy bins; nothing to evaluate")
            }
            DeepThermoError::Cluster { message } => write!(f, "cluster failed: {message}"),
            DeepThermoError::Material(e) => write!(f, "invalid material: {e}"),
            DeepThermoError::Serve(e) => write!(f, "serving failed: {e}"),
            DeepThermoError::Usage(message) => {
                write!(f, "{message} (see `deepthermo help`)")
            }
        }
    }
}

impl std::error::Error for DeepThermoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeepThermoError::Config(e) => Some(e),
            DeepThermoError::Sampling(e) => Some(e),
            DeepThermoError::Model(e) => Some(e),
            DeepThermoError::Material(e) => Some(e),
            DeepThermoError::Serve(e) => Some(e),
            DeepThermoError::Io { .. }
            | DeepThermoError::NoVisitedBins
            | DeepThermoError::Cluster { .. }
            | DeepThermoError::Usage(_) => None,
        }
    }
}

impl From<ConfigError> for DeepThermoError {
    fn from(e: ConfigError) -> Self {
        DeepThermoError::Config(e)
    }
}

impl From<RewlError> for DeepThermoError {
    fn from(e: RewlError) -> Self {
        DeepThermoError::Sampling(e)
    }
}

impl From<ServeError> for DeepThermoError {
    fn from(e: ServeError) -> Self {
        DeepThermoError::Serve(e)
    }
}

impl From<SerializeError> for DeepThermoError {
    fn from(e: SerializeError) -> Self {
        DeepThermoError::Model(e)
    }
}

impl From<MaterialError> for DeepThermoError {
    fn from(e: MaterialError) -> Self {
        DeepThermoError::Material(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_are_informative() {
        let e = DeepThermoError::from(ConfigError::BadOverlap(1.5));
        assert!(e.to_string().contains("overlap"));
        assert!(e.source().is_some());
        let e = DeepThermoError::Io {
            path: PathBuf::from("/nope"),
            message: "denied".into(),
        };
        assert!(e.to_string().contains("/nope"));
        assert!(e.source().is_none());
    }

    #[test]
    fn wraps_every_subcrate_error() {
        assert!(matches!(
            DeepThermoError::from(RewlError::RootRankDied("boom".into())),
            DeepThermoError::Sampling(_)
        ));
        assert!(matches!(
            DeepThermoError::from(ServeError::BadConfig("zero workers".into())),
            DeepThermoError::Serve(_)
        ));
        assert!(matches!(
            DeepThermoError::from(SerializeError::BadHeader),
            DeepThermoError::Model(_)
        ));
    }
}
