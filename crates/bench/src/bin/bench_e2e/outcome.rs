//! What one workload run produces, and the knobs every run shares.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Settings of one run, from the command line.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Feeds the sampler master seed (`rewl_tcp`; `rewl_local` and
    /// `rewl_deep` pin their own, see `sampler::Spec::pinned_seed`), the Zipf key
    /// stream, the temperature-grid perturbations, the verification
    /// sample, the exact-enumeration check and the probes' inputs.
    pub seed: u64,
    /// How long the timed part measures.
    pub seconds: f64,
    /// Full runs per timed part on `rewl_*`; default as many as fit in
    /// `seconds`, at least three.
    pub repeats: Option<usize>,
    /// Regime-guard spin before the timed part.
    pub spin: Duration,
    /// Toy sizes for the in-tree smoke test.
    pub toy: bool,
    /// Where `trace.json` and the scratch registry go.
    pub out_dir: PathBuf,
}

/// The per-repeat or per-segment values behind one reported metric.
#[derive(Debug)]
pub struct Samples {
    pub metric: &'static str,
    pub values: Vec<f64>,
}

/// Result of one workload run: operation counts, metric values, and the
/// per-repeat samples behind them.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, for the human report.
    pub failures: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// For min/median/max and the `unresolved` mark.
    pub samples: Vec<Samples>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; `why` is evaluated only when it failed.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Mark an already-counted operation as failed.
    pub fn fail(&mut self, why: String) {
        self.absorb(0, 1, Some(&why));
    }

    /// Add operations counted elsewhere (a client's log), with the first
    /// reason any of them failed.
    pub fn absorb(&mut self, attempted: u64, failed: u64, why: Option<&str>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(why) = why {
            if self.failures.len() < 8 {
                self.failures.push(why.to_string());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn sample(&mut self, metric: &'static str, values: Vec<f64>) {
        self.samples.push(Samples { metric, values });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}
