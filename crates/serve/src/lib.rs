//! # dt-serve
//!
//! The serving layer of DeepThermo: turn converged sampling runs into a
//! long-running thermodynamics query service.
//!
//! A REWL run takes minutes to hours to converge `ln g(E)`, but once it
//! has, every downstream query — canonical U/C_v/F/S curves, T_c
//! location, SRO reweighting, surrogate energy prediction — is a cheap
//! pure function over the converged artifact. This crate is the
//! "expensive train, cheap serve" split:
//!
//! * [`Artifact`] / [`ArtifactRegistry`] — converged run outputs
//!   (`ln g(E)`, visited-bin mask, microcanonical SRO accumulators,
//!   serialized surrogate models) persisted in an on-disk registry keyed
//!   by `(material, L, seed)` and loaded into memory for serving.
//!   Floating-point payloads are stored as exact bit patterns, so a
//!   served thermodynamic curve is bit-identical to one evaluated
//!   directly on the producing run's data.
//! * [`Server`] — a hand-rolled HTTP/1.1 JSON API (the workspace is
//!   offline/vendored; no external HTTP stack) over a readiness-driven
//!   event loop ([`reactor`]): nonblocking sockets polled by one
//!   reactor thread, parsed requests flowing through a bounded queue
//!   into a worker pool. Saturation returns `429` instead of queueing
//!   unboundedly, queued requests carry a deadline (`503` when
//!   exceeded), malformed or oversized bodies map to `4xx` — never a
//!   worker panic — and shutdown drains in-flight requests before the
//!   engine exits.
//! * [`Router`] / [`shard`] — the horizontal-scale tier: a router
//!   consistent-hashes artifact ids ([`HashRing`]) onto N shard
//!   processes, each owning a disjoint slice of the registry,
//!   bootstrapped over the `dt-hpc` TCP mesh and framed by its codec;
//!   a shard's liveness is its socket. The router runs the same event
//!   loop, its shard sockets in the same poll set and no workers, and
//!   returns the same [`ServeHandle`]; a shard submits forwarded
//!   requests to the same worker pool, so all three serve with one set
//!   of semantics.
//! * [`ResponseCache`] — single-flight LRU response cache for
//!   `POST /v1/thermo`; `canonical_curve` is pure, so identical
//!   `(artifact, T-grid)` requests are served from memory, and
//!   concurrent cold-key requesters park on one in-flight fill
//!   ([`singleflight`]) instead of stampeding the workers.
//! * `GET /metrics` — the `dt-telemetry` metrics registry (request
//!   counts, per-endpoint latency histograms, cache hit/miss, queue
//!   rejections) exported as JSON; the router aggregates per-shard
//!   counters into a fleet-wide view.
//!
//! See DESIGN.md ("Serving architecture" and "Serving fleet") for the
//! endpoint reference, the artifact directory layout, and the tiering
//! diagram.

#![warn(missing_docs)]
// The reactor's poll(2) binding lives in dt-hpc (`dt_hpc::sys`).
#![forbid(unsafe_code)]

pub mod api;
pub mod artifact;
pub mod cache;
pub mod fixture;
pub mod http;
pub mod reactor;
pub mod ring;
pub mod router;
pub mod server;
pub mod shard;
pub mod singleflight;

pub use api::AppState;
pub use artifact::{Artifact, ArtifactManifest, ArtifactRegistry};
pub use cache::{LruCache, ResponseCache};
pub use ring::HashRing;
pub use router::{Fleet, Router, RouterConfig};
pub use server::{ServeConfig, ServeHandle, ServeStats, Server};
pub use shard::{run_shard, ShardConfig, ShardStats};
pub use singleflight::SingleFlight;

use std::path::PathBuf;

/// Everything that can go wrong while building or serving a registry.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Reading or writing an artifact file failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// Rendered `std::io::Error`.
        message: String,
    },
    /// An artifact file exists but its contents are malformed.
    BadArtifact {
        /// The offending path.
        path: PathBuf,
        /// What was wrong.
        what: String,
    },
    /// Binding or configuring the listening socket failed.
    Bind {
        /// The requested address.
        addr: String,
        /// Rendered `std::io::Error`.
        message: String,
    },
    /// The server configuration is unusable (zero workers, zero queue
    /// depth, a router off rank 0, ...).
    BadConfig(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { path, message } => {
                write!(f, "artifact I/O failed at {}: {message}", path.display())
            }
            ServeError::BadArtifact { path, what } => {
                write!(f, "malformed artifact at {}: {what}", path.display())
            }
            ServeError::Bind { addr, message } => {
                write!(f, "cannot bind {addr}: {message}")
            }
            ServeError::BadConfig(what) => write!(f, "bad serve configuration: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}
