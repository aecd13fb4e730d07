//! `experiments <name> [flags]` — regenerates one table or figure of the
//! reconstructed DeepThermo evaluation (DESIGN.md, "Reconstructed
//! experiment index"; measured results in EXPERIMENTS.md).
//!
//! [`EXPERIMENTS`] and [`FLAGS`] are the whole interface: `deepthermo::cli`
//! parses argv strictly against them before any work, and `experiments
//! help` is rendered from the two. Each experiment is one module whose
//! `run` prints through one [`Report`]; an experiment with an `--out` row
//! also writes its tables and gate verdicts there as JSON, and a failed
//! gate exits nonzero after that file is written.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use deepthermo::cli::{self, Args, Flag, Mode};
use deepthermo::DeepThermoError;
use dt_bench::Report;

/// What every experiment's `run` returns: a usage error before any work
/// (a failed gate is a [`Report::fail`]), else `Ok`.
type Run = Result<(), DeepThermoError>;

mod bench_alloy_agnostic;
mod bench_inference;
mod bench_rewl_adaptive;
mod bench_serve_sharded;
mod fig_ablation;
mod fig_acceptance;
mod fig_convergence;
mod fig_dos;
mod fig_phase_breakdown;
mod fig_replica_exchange;
mod fig_sro;
mod fig_surrogate;
mod fig_thermo;
mod table_cost_breakdown;
mod table_strong_scaling;
mod table_weak_scaling;

// The experiments, as bits of `Flag::modes`.
const FIG_SURROGATE: u32 = 1;
const FIG_ACCEPTANCE: u32 = 1 << 1;
const FIG_DOS: u32 = 1 << 2;
const FIG_THERMO: u32 = 1 << 3;
const FIG_SRO: u32 = 1 << 4;
const FIG_CONVERGENCE: u32 = 1 << 5;
const TABLE_WEAK_SCALING: u32 = 1 << 6;
const TABLE_STRONG_SCALING: u32 = 1 << 7;
const FIG_REPLICA_EXCHANGE: u32 = 1 << 8;
const TABLE_COST_BREAKDOWN: u32 = 1 << 9;
const FIG_PHASE_BREAKDOWN: u32 = 1 << 10;
const BENCH_INFERENCE: u32 = 1 << 11;
const BENCH_SERVE_SHARDED: u32 = 1 << 12;
const BENCH_REWL_ADAPTIVE: u32 = 1 << 13;
const BENCH_ALLOY_AGNOSTIC: u32 = 1 << 14;
const FIG_ABLATION: u32 = 1 << 15;

/// Every experiment: its name, its bit, and its E-id and line of `help`.
#[rustfmt::skip]
const EXPERIMENTS: &[Mode] = &[
    ("fig_surrogate", FIG_SURROGATE, "E1 — surrogate energy-model accuracy vs training-set size, plus a parity sample."),
    ("fig_acceptance", FIG_ACCEPTANCE, "E2 — proposal acceptance vs global-update size k: local, random global, deep untrained and trained."),
    ("fig_dos", FIG_DOS, "E3 — the density of states ln g(E) of NbMoTaW, normalized to the exact configuration count."),
    ("fig_thermo", FIG_THERMO, "E4 — U, C_v, F, S per atom vs T from the sampled DOS, and the order–disorder T_c."),
    ("fig_sro", FIG_SRO, "E5 — Warren–Cowley SRO vs T by DOS reweighting, cross-checked against direct Metropolis."),
    ("fig_convergence", FIG_CONVERGENCE, "E6 — time-to-solution: tunneling, ln f stage progress and autocorrelation per kernel."),
    ("table_weak_scaling", TABLE_WEAK_SCALING, "E7 — weak scaling to 3,000 GPUs (perf model), plus measured thread-parallel REWL."),
    ("table_strong_scaling", TABLE_STRONG_SCALING, "E8 — strong scaling (perf model), plus a measured window decomposition."),
    ("fig_replica_exchange", FIG_REPLICA_EXCHANGE, "E9 — replica-exchange acceptance vs window overlap, per window pair."),
    ("table_cost_breakdown", TABLE_COST_BREAKDOWN, "E10 — per-iteration cost breakdown (perf model), plus measured CPU kernel timings."),
    ("fig_phase_breakdown", FIG_PHASE_BREAKDOWN, "E11 — measured telemetry phase shares vs the roofline cost model."),
    ("bench_inference", BENCH_INFERENCE, "E13 — batched inference vs the batch-1 seed path; bit-identity and speedup gates."),
    ("bench_serve_sharded", BENCH_SERVE_SHARDED, "E14 — sharded serving fleet: 1→4 shard scaling, tail latency and stampede gates."),
    ("bench_rewl_adaptive", BENCH_REWL_ADAPTIVE, "E16 — adaptive energy windows vs the uniform layout; convergence speedup gate."),
    ("bench_alloy_agnostic", BENCH_ALLOY_AGNOSTIC, "E17 — every registry material through surrogate, REWL and thermodynamics gates."),
    ("fig_ablation", FIG_ABLATION, "Ablations — deep mixture weight, training cadence and ln f schedule."),
];

/// Every flag the experiments read, grouped by experiment in `help` order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { modes: FIG_SURROGATE, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
    Flag { modes: FIG_ACCEPTANCE, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
    Flag { modes: FIG_ACCEPTANCE, name: "--t", metavar: "K", default: "900", help: "temperature of every canonical run" },
    Flag { modes: FIG_DOS, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
    Flag { modes: FIG_DOS, name: "--lnf", metavar: "X", default: "1e-4", help: "final ln f target" },
    Flag { modes: FIG_THERMO, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
    Flag { modes: FIG_SRO, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
    Flag { modes: FIG_CONVERGENCE, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
    Flag { modes: FIG_REPLICA_EXCHANGE, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
    Flag { modes: FIG_PHASE_BREAKDOWN, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
    Flag { modes: FIG_PHASE_BREAKDOWN, name: "--max-sweeps", metavar: "N", default: "30000", help: "sweeps budget per walker" },
    Flag { modes: FIG_PHASE_BREAKDOWN, name: "--seed", metavar: "S", default: "1", help: "REWL seed" },
    Flag { modes: BENCH_INFERENCE, name: "--l", metavar: "N", default: "4", help: "supercell edge in unit cells" },
    Flag { modes: BENCH_INFERENCE, name: "--k", metavar: "N", default: "32", help: "sites per deep update" },
    Flag { modes: BENCH_INFERENCE, name: "--pairs", metavar: "N", default: "16", help: "fixed proposals replayed per repetition" },
    Flag { modes: BENCH_INFERENCE, name: "--reps", metavar: "N", default: "100", help: "repetitions per timing pass" },
    Flag { modes: BENCH_INFERENCE, name: "--passes", metavar: "N", default: "5", help: "timing passes per path; the best is kept" },
    Flag { modes: BENCH_INFERENCE, name: "--gate", metavar: "X", default: "3.0", help: "minimum batched speedup on both workloads (a host without AVX reaches about 2.1x and should pass 1.5)" },
    Flag { modes: BENCH_INFERENCE, name: "--out", metavar: "PATH", default: "BENCH_inference.json", help: "measurements and verdicts as JSON" },
    Flag { modes: BENCH_SERVE_SHARDED, name: "--keys", metavar: "N", default: "32", help: "fixture artifacts, Zipf(1.0)-ranked" },
    Flag { modes: BENCH_SERVE_SHARDED, name: "--connections", metavar: "N", default: "8", help: "keep-alive client connections" },
    Flag { modes: BENCH_SERVE_SHARDED, name: "--requests", metavar: "N", default: "400", help: "requests per connection" },
    Flag { modes: BENCH_SERVE_SHARDED, name: "--num-t", metavar: "N", default: "64", help: "temperature points per request" },
    Flag { modes: BENCH_SERVE_SHARDED, name: "--gate", metavar: "X", default: "3.0", help: "minimum cached-throughput scaling from 1 to 4 shards (enforced on 8 or more hardware threads)" },
    Flag { modes: BENCH_SERVE_SHARDED, name: "--out", metavar: "PATH", default: "BENCH_serve_sharded.json", help: "measurements and verdicts as JSON" },
    Flag { modes: BENCH_REWL_ADAPTIVE, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
    Flag { modes: BENCH_REWL_ADAPTIVE, name: "--seeds", metavar: "N", default: "3", help: "seeds 1..=N, each run under both layouts" },
    Flag { modes: BENCH_REWL_ADAPTIVE, name: "--gate", metavar: "X", default: "1.3", help: "minimum aggregate speedup in sweeps" },
    Flag { modes: BENCH_REWL_ADAPTIVE, name: "--out", metavar: "PATH", default: "BENCH_rewl_adaptive.json", help: "measurements and verdicts as JSON" },
    Flag { modes: BENCH_ALLOY_AGNOSTIC, name: "--l", metavar: "N", default: "2", help: "supercell edge in unit cells" },
    Flag { modes: BENCH_ALLOY_AGNOSTIC, name: "--max-sweeps", metavar: "N", default: "200000", help: "REWL sweeps budget per walker" },
    Flag { modes: BENCH_ALLOY_AGNOSTIC, name: "--r2-gate", metavar: "X", default: "0.9", help: "minimum surrogate test R²" },
    Flag { modes: BENCH_ALLOY_AGNOSTIC, name: "--train-count", metavar: "N", default: "240", help: "surrogate dataset size" },
    Flag { modes: BENCH_ALLOY_AGNOSTIC, name: "--out", metavar: "PATH", default: "BENCH_alloy_agnostic.json", help: "measurements and verdicts as JSON" },
    Flag { modes: FIG_ABLATION, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
];

/// Counts allocations while [`allocations_in`] has it armed; every other
/// experiment pays one relaxed load per allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Count heap allocations performed by `f`.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

fn main() -> ExitCode {
    let mut out = Report::default();
    match dispatch(&mut out) {
        Ok(()) if out.failures().is_empty() => return ExitCode::SUCCESS,
        Ok(()) => {
            for why in out.failures() {
                eprintln!("FAIL: {why}");
            }
        }
        Err(DeepThermoError::Usage(m)) => eprintln!("error: {m} (see `experiments help`)"),
        Err(e) => eprintln!("error: {e}"),
    }
    ExitCode::FAILURE
}

fn dispatch(out: &mut Report) -> Run {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, flags)) = argv.split_first() else {
        return Err(DeepThermoError::Usage("no experiment given".to_string()));
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        write!(
            out,
            "experiments — regenerate the reconstructed DeepThermo figures and tables\n\n\
             usage: experiments <name> [flags]\n\nexperiments:\n{}",
            cli::usage(EXPERIMENTS, FLAGS)
        );
        return Ok(());
    }
    let Some(&(_, bit, about)) = EXPERIMENTS.iter().find(|m| m.0 == name) else {
        return Err(DeepThermoError::Usage(format!(
            "unknown experiment {name:?}"
        )));
    };
    let args = Args::parse(EXPERIMENTS, FLAGS, bit, flags)?;
    match bit {
        FIG_SURROGATE => fig_surrogate::run(&args, out),
        FIG_ACCEPTANCE => fig_acceptance::run(&args, out),
        FIG_DOS => fig_dos::run(&args, out),
        FIG_THERMO => fig_thermo::run(&args, out),
        FIG_SRO => fig_sro::run(&args, out),
        FIG_CONVERGENCE => fig_convergence::run(&args, out),
        TABLE_WEAK_SCALING => table_weak_scaling::run(out),
        TABLE_STRONG_SCALING => table_strong_scaling::run(out),
        FIG_REPLICA_EXCHANGE => fig_replica_exchange::run(&args, out),
        TABLE_COST_BREAKDOWN => table_cost_breakdown::run(out),
        FIG_PHASE_BREAKDOWN => fig_phase_breakdown::run(&args, out),
        BENCH_INFERENCE => bench_inference::run(&args, out),
        BENCH_SERVE_SHARDED => bench_serve_sharded::run(&args, out),
        BENCH_REWL_ADAPTIVE => bench_rewl_adaptive::run(&args, out),
        BENCH_ALLOY_AGNOSTIC => bench_alloy_agnostic::run(&args, out),
        _ => fig_ablation::run(&args, out),
    }?;
    if cli::row(FLAGS, bit, "--out").is_some() {
        let path: String = args.get("--out")?;
        let id = about.split(' ').next().unwrap_or(name);
        std::fs::write(&path, out.to_json(id, name)).map_err(|e| DeepThermoError::Io {
            path: path.clone().into(),
            message: e.to_string(),
        })?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
