//! # dt-bench
//!
//! The benchmark harness: regenerates every table and figure of the
//! reconstructed DeepThermo evaluation (see DESIGN.md, "Reconstructed
//! experiment index", and EXPERIMENTS.md for measured results).
//!
//! Two binaries:
//!
//! * **`experiments`** (`src/bin/experiments/`) — one subcommand per
//!   experiment, parsed strictly by `deepthermo::cli`;
//!   `experiments help` lists them with their flags:
//!   `cargo run -p dt-bench --release --bin experiments -- fig_dos`
//! * **`bench_e2e`** — the end-to-end benchmark declared by
//!   `BENCHMARK.json`, with per-layer probes of every production kernel.
//!
//! This library holds the fixtures the experiments share and the one
//! writer ([`Report`]) all their output goes through.

#![forbid(unsafe_code)]

use std::fmt::Arguments;
use std::io::{ErrorKind, Write};

use dt_hamiltonian::{Material, PairHamiltonian};
use dt_lattice::{Composition, Configuration, NeighborTable, Supercell};
use dt_metropolis::MetropolisSampler;
use dt_proposal::{ProposalContext, ProposalKernel};
use dt_rewl::{run_rewl, KernelSpec, RewlConfig, RewlOutput};
use dt_telemetry::{parse_json, push_json_string, JsonValue};
use dt_wanglandau::{explore_energy_range, LnfSchedule, WlParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A ready-to-sample alloy system.
pub struct HeaSystem {
    /// The supercell.
    pub cell: Supercell,
    /// Shell-resolved neighbor lists.
    pub neighbors: NeighborTable,
    /// The site composition.
    pub comp: Composition,
    /// The EPI Hamiltonian.
    pub model: PairHamiltonian,
}

impl HeaSystem {
    /// Equiatomic NbMoTaW on a BCC `L³` supercell.
    pub fn nbmotaw(l: usize) -> Self {
        Self::from_material(&Material::nbmotaw(), l)
    }

    /// Any registered or file-defined material on an `L³` supercell.
    pub fn from_material(material: &Material, l: usize) -> Self {
        let cell = Supercell::cubic(material.structure().clone(), l);
        let neighbors = cell
            .try_neighbor_table(material.num_shells())
            .expect("material shells");
        let comp = material
            .composition(cell.num_sites())
            .expect("material composition");
        HeaSystem {
            cell,
            neighbors,
            comp,
            model: material.hamiltonian().clone(),
        }
    }

    /// Number of lattice sites.
    pub fn num_sites(&self) -> usize {
        self.cell.num_sites()
    }

    /// The energy range `sweeps` quench sweeps each way find, padded by
    /// 2 %, drawn from RNG seed 0.
    pub fn energy_range(&self, sweeps: usize) -> (f64, f64) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        explore_energy_range(
            &self.model,
            &self.neighbors,
            &self.comp,
            sweeps,
            0.02,
            &mut rng,
        )
    }

    /// The proposal kernels' view of this system.
    pub fn ctx(&self) -> ProposalContext<'_> {
        ProposalContext {
            neighbors: &self.neighbors,
            composition: &self.comp,
        }
    }

    /// A Metropolis sampler of this system at `t` kelvin from `start`.
    pub fn metropolis(
        &self,
        t: f64,
        start: Configuration,
        kernel: Box<dyn ProposalKernel>,
        seed: u64,
    ) -> MetropolisSampler {
        MetropolisSampler::new(t, start, &self.model, &self.neighbors, kernel, seed)
    }

    /// REWL over `range` with `cfg`.
    pub fn rewl(&self, range: (f64, f64), cfg: &RewlConfig) -> RewlOutput {
        run_rewl(&self.model, &self.neighbors, &self.comp, range, cfg).expect("sampling failed")
    }
}

/// The experiments' REWL plan: `windows` x `walkers` over `bins` bins at
/// 0.75 overlap; ln f from 1 to `ln_f_final` on the 1/t schedule
/// (flatness 0.7, halving, checked every 10 sweeps); exchange every 10
/// sweeps, observe every 4.
pub fn rewl_config(
    windows: usize,
    walkers: usize,
    bins: usize,
    ln_f_final: f64,
    max_sweeps: u64,
    seed: u64,
    kernel: KernelSpec,
) -> RewlConfig {
    RewlConfig {
        num_windows: windows,
        walkers_per_window: walkers,
        overlap: 0.75,
        num_bins: bins,
        wl: WlParams {
            ln_f_initial: 1.0,
            ln_f_final,
            schedule: LnfSchedule::OneOverT {
                flatness: 0.7,
                reduction: 0.5,
            },
            sweeps_per_check: 10,
        },
        exchange_every_sweeps: 10,
        observe_every_sweeps: 4,
        max_sweeps,
        seed,
        kernel,
        ..RewlConfig::default()
    }
}

/// Wall-clock a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The one writer of an experiment: lines (`writeln!(out, ...)`) and
/// CSV tables go to stdout as they are produced; the tables, plus the
/// records kept only for `--out` (the fixture and the gate verdicts),
/// become the `--out` JSON, one object per row keyed by its CSV header.
/// A closed stdout (`experiments ... | head`) ends the process with
/// exit 0.
#[derive(Default)]
pub struct Report {
    tables: Vec<(String, Vec<String>)>,
    failures: Vec<String>,
}

impl Report {
    /// Print formatted text: what `write!` and `writeln!` call.
    pub fn write_fmt(&mut self, text: Arguments) {
        emit(&text.to_string());
    }

    /// Print a CSV header and its rows, and keep them for `--out`.
    pub fn table(&mut self, header: &str, rows: Vec<String>) {
        emit(&format!(
            "{header}\n{}",
            rows.iter().map(|r| r.clone() + "\n").collect::<String>()
        ));
        self.record(header, rows);
    }

    /// Keep CSV rows for `--out` only.
    pub fn record(&mut self, header: &str, rows: Vec<String>) {
        self.tables.push((header.to_string(), rows));
    }

    /// Mark a gate failed: the run still writes `--out`, then prints
    /// `FAIL: why` and exits nonzero.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// The failed gates, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The `--out` document of experiment `id` (subcommand `name`): every
    /// table and record as a list of row objects, a cell that is a JSON
    /// number or boolean as itself, an empty one as `null`, any other as
    /// a string.
    pub fn to_json(&self, id: &str, name: &str) -> String {
        let mut out = String::from("{\n  \"experiment\": ");
        push_json_string(&mut out, id);
        out += ",\n  \"name\": ";
        push_json_string(&mut out, name);
        out += ",\n  \"tables\": [";
        for (t, (header, rows)) in self.tables.iter().enumerate() {
            out += if t == 0 { "\n    [" } else { ",\n    [" };
            for (r, row) in rows.iter().enumerate() {
                out += if r == 0 { "\n      {" } else { ",\n      {" };
                for (c, (key, cell)) in header.split(',').zip(row.split(',')).enumerate() {
                    out += if c == 0 { "" } else { ", " };
                    push_json_string(&mut out, key);
                    out += ": ";
                    match parse_json(cell) {
                        _ if cell.is_empty() => out += "null",
                        Ok(JsonValue::Number(_) | JsonValue::Bool(_)) => out += cell,
                        _ => push_json_string(&mut out, cell),
                    }
                }
                out += "}";
            }
            out += "\n    ]";
        }
        out += "\n  ],\n  \"failures\": [";
        for (i, why) in self.failures.iter().enumerate() {
            out += if i == 0 { "" } else { ", " };
            push_json_string(&mut out, why);
        }
        format!("{out}],\n  \"pass\": {}\n}}\n", self.failures.is_empty())
    }
}

/// Write to stdout; a reader that went away ends the run successfully.
fn emit(text: &str) {
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        other => other.expect("stdout"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let sys = HeaSystem::nbmotaw(2);
        assert_eq!(sys.num_sites(), 16);
        assert_eq!(sys.neighbors.num_sites(), sys.comp.num_sites());
    }

    #[test]
    fn timed_returns_result() {
        let (v, s) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn json_rows_are_keyed_by_the_csv_header() {
        let mut report = Report::default();
        report.record("name,n,x,ok,empty", vec!["a b,3,1.5e3,true,".into()]);
        report.fail("too slow".into());
        let doc = parse_json(&report.to_json("E0", "fig_x")).expect("valid JSON");
        let row = &doc.get("tables").and_then(JsonValue::as_array).unwrap()[0]
            .as_array()
            .unwrap()[0];
        assert_eq!(row.get("name").and_then(JsonValue::as_str), Some("a b"));
        assert_eq!(row.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(row.get("x").and_then(JsonValue::as_f64), Some(1500.0));
        assert_eq!(row.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(row.get("empty"), Some(&JsonValue::Null));
        assert_eq!(doc.get("pass").and_then(JsonValue::as_bool), Some(false));
    }
}
