//! The three sampler workloads: `rewl_local`, `rewl_deep`, `rewl_tcp`.
//!
//! Each builds the configuration `deepthermo run` builds for the same
//! flags (`quick_demo()` plus overrides) and times the call a user makes:
//! `DeepThermo::run()` on threads, or one `run_cluster_rank()` per rank
//! over loopback TCP.

use std::time::Instant;

use deepthermo::hamiltonian::exact::ExactDos;
use deepthermo::hamiltonian::{Material, PairHamiltonian};
use deepthermo::hpc::{FaultPlan, RankOutcome, TcpCluster};
use deepthermo::lattice::{Composition, Structure, Supercell};
use deepthermo::proposal::{DeepProposalConfig, TrainerConfig};
use deepthermo::rewl::{run_rewl, run_rewl_on, DeepSpec, KernelSpec, RewlConfig, RewlOutput};
use deepthermo::telemetry::{Phase, RankTelemetry};
use deepthermo::wanglandau::{explore_energy_range, LnfSchedule, WlParams};
use deepthermo::{DeepThermo, DeepThermoConfig, DeepThermoReport, MaterialSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::catalogue::SETUP_FLOOR_S;
use crate::host;
use crate::outcome::{Outcome, RunParams};
use crate::stats::{fnv1a, lower_quartile, median, min_med_max};
use crate::trace::{self, SpanRef, Tracer};

/// Which engine path a sampler workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Local,
    Deep,
    Tcp,
}

/// Sizes of one sampler workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub l: usize,
    pub bins: usize,
    /// The stated accuracy: every walker's final `ln f`. The issue's
    /// values (1e-5 / 5e-4 / 1e-5) give 8–18 s runs on two CPUs and more
    /// on one; these put a run at 3.1 s, 3.7 s and 2 s, so that four or
    /// more fit the timed part.
    pub ln_f_final: f64,
    /// The sampler's master seed where it is not `--seed`.
    ///
    /// `--seed` can feed the sampler only where every seed does the same
    /// work, which is where the 1/t phase of the schedule decides when
    /// `ln_f_final` is reached. On `rewl_tcp` it does: 16 seeds took the
    /// same 42 600 sweeps. On `rewl_local` the flatness phase before it
    /// ends by 9500 sweeps for 23 seeds in 40 but as late as 25 240 for
    /// the rest, so only runs of 50 000 sweeps — 10 s on one CPU — are
    /// the same for every seed. On `rewl_deep` the flatness phase decides
    /// at any `ln f` that fits: six seeds measured 1780–3610 sweeps at
    /// 1.5e-3. Time to the density of states is then a draw, twice as long
    /// for one seed as for another, and no bound on it would hold over ten
    /// seeds. Those two run `deepthermo run`'s default seed, for which
    /// `rewl_local` is in the 1/t phase (18 990 sweeps).
    pub pinned_seed: Option<u64>,
}

pub fn spec(workload: &str, toy: bool) -> Option<Spec> {
    let (kind, l, bins, ln_f_final, toy_ln_f, pinned_seed) = match workload {
        "rewl_local" => (Kind::Local, 6, 512, 5e-5, 2e-2, Some(2023)),
        "rewl_deep" => (Kind::Deep, 4, 256, 3e-3, 1e-1, Some(2023)),
        "rewl_tcp" => (Kind::Tcp, 3, 144, 5e-5, 2e-2, None),
        _ => return None,
    };
    Some(Spec {
        kind,
        l: if toy { 3 } else { l },
        bins: if toy { 48 } else { bins },
        ln_f_final: if toy { toy_ln_f } else { ln_f_final },
        pinned_seed,
    })
}

/// `deepthermo run --l L --windows 2 --walkers 1 --bins B --lnf X
/// --max-sweeps 2000000 --kernel local|deep --seed S`; `rewl_tcp` also
/// exchanges every sweep.
pub fn config(spec: &Spec, seed: u64) -> DeepThermoConfig {
    let mut cfg = DeepThermoConfig::quick_demo().with_seed(spec.pinned_seed.unwrap_or(seed));
    cfg.material = MaterialSpec::new(Material::nbmotaw(), spec.l);
    cfg.rewl.num_windows = 2;
    cfg.rewl.walkers_per_window = 1;
    cfg.rewl.num_bins = spec.bins;
    cfg.rewl.wl.ln_f_final = spec.ln_f_final;
    cfg.rewl.max_sweeps = 2_000_000;
    cfg.temperatures = deepthermo::thermo::temperature_grid(100.0, 3000.0, 100);
    if spec.kind == Kind::Tcp {
        // The one override `deepthermo run` has no flag for. At its 10
        // sweeps between exchanges, exchange + allreduce were two thirds of
        // a rank's wall on two CPUs, nearly all of it waiting to be woken,
        // and are a sixth of its CPU time on one. This workload exists to
        // show a change to the comm path, so it exchanges every sweep,
        // which puts them at nearly 60 %.
        cfg.rewl.exchange_every_sweeps = 1;
    }
    cfg.rewl.kernel = match spec.kind {
        Kind::Local | Kind::Tcp => KernelSpec::LocalSwap,
        Kind::Deep => KernelSpec::Deep(Box::new(DeepSpec {
            proposal: DeepProposalConfig {
                k: 12,
                hidden: vec![32, 32],
            },
            deep_weight: 0.15,
            ..DeepSpec::default()
        })),
    };
    cfg
}

/// The order–disorder transition of NbMoTaW sits near 1100 K. The issue's
/// window, 900–1300 K, held for its three pinned runs; with `--seed`
/// feeding the sampler the C_v peak (read off a 29 K grid) measured
/// 1213–1360 K over 16 seeds at L=6 and 1067–1184 K at L=3, where two
/// seeds in 52 put a second bump at 803 K on top. Outside this window the
/// density of states is garbage.
const TC_WINDOW_K: (f64, f64) = (700.0, 1500.0);

/// What must repeat exactly between two runs of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    sweeps: u64,
    total_moves: u64,
    ln_g_bits: u64,
}

fn fingerprint(report: &DeepThermoReport) -> Fingerprint {
    let mut bytes = Vec::with_capacity(report.dos.ln_g().len() * 8);
    for (bin, &visited) in report.mask.iter().enumerate() {
        if visited {
            bytes.extend_from_slice(&report.dos.ln_g_bin(bin).to_bits().to_le_bytes());
        }
    }
    Fingerprint {
        sweeps: report.sweeps,
        total_moves: report.total_moves,
        ln_g_bits: fnv1a(&bytes),
    }
}

/// One operation as the user runs it.
fn run_once(runner: &DeepThermo, kind: Kind) -> Result<DeepThermoReport, String> {
    match kind {
        Kind::Local | Kind::Deep => runner.run().map_err(|e| e.to_string()),
        Kind::Tcp => {
            let size = runner.config().rewl.num_windows * runner.config().rewl.walkers_per_window;
            root_report(TcpCluster::run_loopback(size, FaultPlan::none(), |comm| {
                runner.run_cluster_rank(comm).map_err(|e| e.to_string())
            }))
        }
    }
}

/// Rank 0's report out of a cluster's per-rank outcomes; any rank's error
/// or death fails the run.
fn root_report(
    ranks: Vec<RankOutcome<Result<Option<DeepThermoReport>, String>>>,
) -> Result<DeepThermoReport, String> {
    let mut root = None;
    for (rank, outcome) in ranks.into_iter().enumerate() {
        let result = match outcome {
            RankOutcome::Completed(result) => result,
            RankOutcome::Died { cause } => Err(format!("died: {cause}")),
        };
        if let Some(report) = result.map_err(|e| format!("rank {rank}: {e}"))? {
            root = Some(report);
        }
    }
    root.ok_or_else(|| "rank 0 assembled no report".to_string())
}

/// Check one finished run; a failed check fails the operation. Toy runs
/// stop at an ln f too loose for a meaningful C_v peak.
fn check_report(
    out: &mut Outcome,
    what: &str,
    report: &DeepThermoReport,
    first: &Fingerprint,
    toy: bool,
) {
    let tc = report.transition_temperature;
    let fp = fingerprint(report);
    let ok = report.converged
        && report.lost_ranks.is_empty()
        && (toy || (TC_WINDOW_K.0..=TC_WINDOW_K.1).contains(&tc))
        && fp == *first;
    out.op(ok, || {
        format!(
            "{what}: converged={} lost_ranks={:?} T_c={tc:.0} K (window {TC_WINDOW_K:?}) {fp:?} vs first {first:?}",
            report.converged, report.lost_ranks
        )
    });
}

fn timed_setup(cfg: &DeepThermoConfig, reps: usize) -> Result<(DeepThermo, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut runner = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let built = DeepThermo::from_material(cfg.clone()).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64());
        runner = Some(built);
    }
    Ok((runner.expect("at least one setup repetition"), times))
}

/// The workload's own warm-up: the same system at a loose `ln f`, so
/// code, allocator and sockets are faulted in before the first timed run.
fn warm_up(cfg: &DeepThermoConfig, kind: Kind) -> Result<(), String> {
    let mut warm = cfg.clone();
    warm.rewl.wl.ln_f_final = 0.25;
    let runner = DeepThermo::from_material(warm).map_err(|e| e.to_string())?;
    run_once(&runner, kind).map(|_| ())
}

/// End-to-end run, tracing off: the numbers a user would see. Each
/// repeat is one full run to convergence; the reported values are those of
/// the lower-quartile repeat.
pub fn end_to_end(spec: &Spec, p: &RunParams) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config(spec, p.seed);
    host::busy_spin(p.spin);

    // Set-up: everything before the timed part — the system and
    // neighbor-table build. Repeated, because one build is microseconds.
    let (runner, setup_times) = match timed_setup(&cfg, if p.toy { 3 } else { 101 }) {
        Ok(v) => v,
        Err(e) => {
            out.op(false, || format!("set-up failed: {e}"));
            return out;
        }
    };
    if let Err(e) = warm_up(&cfg, spec.kind) {
        out.op(false, || format!("warm-up failed: {e}"));
        return out;
    }

    // As many full runs as fit in `seconds`, at least three; `--repeats`
    // fixes the count instead.
    let started = Instant::now();
    let enough = |done: usize, last_s: f64| match p.repeats {
        Some(n) => done >= n,
        None => done >= 3 && started.elapsed().as_secs_f64() + last_s > p.seconds,
    };
    let mut times = Vec::new();
    let mut last: Option<(DeepThermoReport, Fingerprint)> = None;
    let mut repeat = 0;
    let mut last_s = 0.0;
    // Read after the first repeat, so that it does not depend on how many
    // fit: at HEAD a `rewl_tcp` run leaves about 1 kB per exchange round
    // behind until it ends (45 MB), and what the allocator keeps of that
    // over eight runs measured anything from 65 to 79 MB.
    let mut rss_mb = 0.0;
    while !enough(repeat, last_s) {
        let t0 = Instant::now();
        let result = run_once(&runner, spec.kind);
        last_s = t0.elapsed().as_secs_f64();
        if repeat == 0 {
            rss_mb = host::peak_rss_mb();
        }
        match result {
            Ok(report) => {
                let first = last
                    .as_ref()
                    .map_or_else(|| fingerprint(&report), |(_, fp)| *fp);
                check_report(
                    &mut out,
                    &format!("repeat {repeat}"),
                    &report,
                    &first,
                    p.toy,
                );
                times.push(last_s);
                last = Some((report, first));
            }
            Err(e) => {
                out.op(false, || format!("repeat {repeat}: {e}"));
                break;
            }
        }
        repeat += 1;
    }
    exact_oracle(&mut out, spec.kind, p.seed);
    let Some((report, _)) = last else {
        return out;
    };

    // Every repeat does identical work (checked above), so they differ
    // only by what the machine did meanwhile: this box slows by a third
    // for seconds at a time and never speeds up. The slow side has a long
    // tail and the fast side none, so the value reported is the lower
    // quartile of the repeats — the fastest of four, the second fastest of
    // five to eight; the median of three moved with the
    // episodes (ten runs spread by 21-25 %).
    let moves = report.total_moves as f64;
    let (best, _, slowest) = min_med_max(&times);
    let steady = lower_quartile(&times);
    let setup = median(&setup_times);
    out.set("setup_s", SETUP_FLOOR_S + setup);
    out.set("ops_per_s", moves / steady);
    out.set("op_time_ms", steady * 1e3);
    out.set("peak_rss_mb", rss_mb);
    out.sample(
        "setup_s",
        setup_times.iter().map(|t| SETUP_FLOOR_S + t).collect(),
    );
    out.sample("ops_per_s", times.iter().map(|t| moves / t).collect());
    out.sample("op_time_ms", times.iter().map(|t| t * 1e3).collect());
    out.note(format!(
        "set-up measured {setup:.6} s; peak RSS {:.1} MB at the end; {} runs to ln f = {:e} with sampler seed {}: {} s, best {best:.4} s, slowest {slowest:.4} s; sweeps = {}, total_moves = {}, T_c = {:.0} K",
        host::peak_rss_mb(),
        times.len(),
        spec.ln_f_final,
        cfg.rewl.seed,
        times
            .iter()
            .map(|t| format!("{t:.2}"))
            .collect::<Vec<_>>()
            .join(" "),
        report.sweeps,
        report.total_moves,
        report.transition_temperature,
    ));
    out
}

/// The enumerable reference: BCC L=2 binary alloy (16 sites, 12870
/// configurations), sampled with this workload's kernel and compared
/// bin-by-bin with exact enumeration.
fn exact_oracle(out: &mut Outcome, kind: Kind, seed: u64) {
    let cell = Supercell::cubic(Structure::bcc(), 2);
    let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
    let (nt, comp) = match (
        cell.try_neighbor_table(1),
        Composition::equiatomic(2, cell.num_sites()),
    ) {
        (Ok(nt), Ok(comp)) => (nt, comp),
        _ => {
            out.op(false, || "exact oracle: cannot build the L=2 cell".into());
            return;
        }
    };
    let kernel = match kind {
        Kind::Local | Kind::Tcp => KernelSpec::LocalSwap,
        Kind::Deep => KernelSpec::Deep(Box::new(DeepSpec {
            proposal: DeepProposalConfig {
                k: 4,
                hidden: vec![12],
            },
            deep_weight: 0.25,
            trainer: TrainerConfig {
                k: 4,
                ..TrainerConfig::default()
            },
            train_every_sweeps: 100,
            epochs_per_round: 2,
            buffer_capacity: 64,
            sample_every_sweeps: 5,
            sync_weights: true,
        })),
    };
    let cfg = RewlConfig {
        num_windows: 2,
        walkers_per_window: 1,
        num_bins: 49,
        wl: WlParams {
            ln_f_initial: 1.0,
            ln_f_final: 1e-4,
            schedule: LnfSchedule::OneOverT {
                flatness: 0.8,
                reduction: 0.5,
            },
            sweeps_per_check: 20,
        },
        max_sweeps: 3_000_000,
        seed,
        kernel,
        ..RewlConfig::default()
    };
    let t0 = Instant::now();
    let result = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg);
    let elapsed = t0.elapsed().as_secs_f64();
    let err = match &result {
        Ok(run) if run.converged => {
            max_ln_g_error(run, &ExactDos::enumerate(&h, &nt, &comp), &comp)
        }
        _ => f64::INFINITY,
    };
    out.op(err < 0.4, || {
        format!("exact oracle ({kind:?} kernel): max |d ln g| = {err:.3} (limit 0.4)")
    });
    out.note(format!(
        "exact oracle ({kind:?} kernel, BCC L=2 binary): max |d ln g| = {err:.3} in {elapsed:.2} s"
    ));
}

/// Max |Δ ln g| over the exact levels; an unvisited level is infinite.
fn max_ln_g_error(run: &RewlOutput, exact: &ExactDos, comp: &Composition) -> f64 {
    let mut dos = run.dos.clone();
    dos.normalize_total(comp.ln_num_configurations(), Some(&run.mask));
    let mut worst: f64 = 0.0;
    for (&e, &count) in exact.energies().iter().zip(exact.counts()) {
        match dos.grid().bin(e) {
            Some(bin) if run.mask[bin] => {
                worst = worst.max((dos.ln_g_bin(bin) - (count as f64).ln()).abs());
            }
            _ => return f64::INFINITY,
        }
    }
    worst
}

/// The stages of `DeepThermo::run`, called one by one through the public
/// functions it is made of, each under a span. `under` is the span that
/// caused this rank's work; rank 0 also evaluates.
fn staged_rank(
    runner: &DeepThermo,
    tracer: &Tracer,
    under: SpanRef,
    sample: impl FnOnce((f64, f64)) -> Result<Option<RewlOutput>, String>,
) -> Result<Option<DeepThermoReport>, String> {
    let _rank = tracer.span_under(under, "rank");
    let cfg = runner.config();
    let range = {
        let _s = tracer.span("core.range");
        // Same stream as DeepThermo's private discover_range.
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.rewl.seed ^ 0x5eed);
        explore_energy_range(
            runner.model(),
            runner.neighbors(),
            runner.composition(),
            cfg.range_quench_sweeps,
            cfg.range_pad,
            &mut rng,
        )
    };
    let output = {
        let _s = tracer.span("core.sample");
        sample(range)?
    };
    match output {
        Some(output) => {
            let _s = tracer.span("core.evaluate");
            runner.evaluate(output).map(Some).map_err(|e| e.to_string())
        }
        None => Ok(None),
    }
}

/// One traced operation: the same work as [`run_once`], stage by stage.
fn run_staged(
    runner: &DeepThermo,
    kind: Kind,
    tracer: &Tracer,
    under: SpanRef,
) -> Result<DeepThermoReport, String> {
    let cfg = runner.config();
    match kind {
        Kind::Local | Kind::Deep => staged_rank(runner, tracer, under, |range| {
            run_rewl(
                runner.model(),
                runner.neighbors(),
                runner.composition(),
                range,
                &cfg.rewl,
            )
            .map(Some)
            .map_err(|e| e.to_string())
        })
        .and_then(|report| report.ok_or_else(|| "no report".to_string())),
        Kind::Tcp => {
            let size = cfg.rewl.num_windows * cfg.rewl.walkers_per_window;
            root_report(TcpCluster::run_loopback(size, FaultPlan::none(), |comm| {
                staged_rank(runner, tracer, under, |range| {
                    run_rewl_on(
                        comm,
                        runner.model(),
                        runner.neighbors(),
                        runner.composition(),
                        range,
                        &cfg.rewl,
                    )
                    .map(|run| run.output)
                    .map_err(|e| e.to_string())
                })
            }))
        }
    }
}

/// Rank-mean total seconds of one phase in the program's own report.
fn phase_mean_s(telemetry: &[RankTelemetry], phase: Phase) -> f64 {
    if telemetry.is_empty() {
        return 0.0;
    }
    telemetry
        .iter()
        .filter_map(|t| t.phase_stat(phase))
        .map(|s| s.total_s)
        .sum::<f64>()
        / telemetry.len() as f64
}

fn counter_sum(telemetry: &[RankTelemetry], name: &str) -> u64 {
    telemetry.iter().filter_map(|t| t.counter(name)).sum()
}

/// Traced run: the operation as the user runs it, with the program's
/// telemetry on, stage by stage under spans with telemetry on, and as the
/// user runs it once more. Files the spans' numbers in the outcome; the
/// layer probes are added by the caller, which also gets the mean wall of
/// the two untraced runs (`None` if one did not finish).
pub fn traced(spec: &Spec, p: &RunParams, tracer: &Tracer) -> (Outcome, Option<f64>) {
    let mut out = Outcome::default();
    let untraced_s = traced_into(&mut out, spec, p, tracer);
    (out, untraced_s)
}

fn traced_into(out: &mut Outcome, spec: &Spec, p: &RunParams, tracer: &Tracer) -> Option<f64> {
    let cfg = config(spec, p.seed);
    host::busy_spin(p.spin);

    let built = {
        let _s = tracer.span("core.build");
        DeepThermo::from_material(cfg.clone())
    };
    let traced_runner = DeepThermo::from_material(cfg.clone().with_telemetry(true));
    let (runner, traced_runner) = match (built, traced_runner) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            out.op(false, || format!("set-up failed: {e}"));
            return None;
        }
    };
    if let Err(e) = warm_up(&cfg, spec.kind) {
        out.op(false, || format!("warm-up failed: {e}"));
        return None;
    }

    // Telemetry and spans must not change a bit of the result: every run
    // is checked against the first one's fingerprint.
    let mut first: Option<Fingerprint> = None;
    let mut timed =
        |out: &mut Outcome, what: &str, run: &dyn Fn() -> Result<DeepThermoReport, String>| {
            let t0 = Instant::now();
            let result = run();
            let dt = t0.elapsed().as_secs_f64();
            match result {
                Ok(report) => {
                    let fp = *first.get_or_insert_with(|| fingerprint(&report));
                    check_report(out, what, &report, &fp, p.toy);
                    Some((dt, report))
                }
                Err(e) => {
                    out.op(false, || format!("{what}: {e}"));
                    None
                }
            }
        };
    // The untraced reference brackets the two instrumented runs: this box
    // drifts by tens of percent within a minute, and the mean of a run
    // before and a run after cancels a steady drift.
    let before = timed(out, "untraced run", &|| run_once(&runner, spec.kind));
    let telemetry = timed(out, "run with telemetry", &|| {
        run_once(&traced_runner, spec.kind)
    });
    let op = tracer.span("run");
    let op_ref = op.handle();
    let staged = timed(out, "traced run", &|| {
        run_staged(&traced_runner, spec.kind, tracer, op_ref)
    });
    drop(op);
    let after = timed(out, "second untraced run", &|| run_once(&runner, spec.kind));
    let (
        Some(first),
        Some((before_s, _)),
        Some((telemetry_s, _)),
        Some((traced_s, report)),
        Some((after_s, _)),
    ) = (first, before, telemetry, staged, after)
    else {
        return None;
    };
    let untraced_s = 0.5 * (before_s + after_s);

    let export_dir = p.out_dir.join(format!("export-{}", std::process::id()));
    let exported = {
        let _s = tracer.span("core.export");
        traced_runner.export_artifact(&report, &export_dir)
    };
    match exported {
        Ok(dir) => out.set("core.export_bytes", host::dir_bytes(&dir) as f64),
        Err(e) => out.op(false, || format!("export_artifact: {e}")),
    }
    let _ = std::fs::remove_dir_all(&export_dir);

    // rewl_tcp must agree bit for bit with the same config on threads.
    if spec.kind == Kind::Tcp {
        match runner.run() {
            Ok(twin) => {
                let fp = fingerprint(&twin);
                out.op(fp == first, || {
                    format!("thread twin differs from TCP: {fp:?} vs {first:?}")
                });
            }
            Err(e) => out.op(false, || format!("thread twin: {e}")),
        }
    }

    // Stage times of the traced operation: its spans share its trace id. With several ranks the longest span of a name blocks.
    let spans = tracer.snapshot();
    let longest = |name: &str, trace: Option<u64>| {
        spans
            .iter()
            .filter(|s| s.name == name && trace.is_none_or(|t| s.trace == t))
            .map(|s| s.duration_ns())
            .max()
            .unwrap_or(0) as f64
            / 1e9
    };
    let op_trace = Some(op_ref.trace);
    out.set("core.build_s", longest("core.build", None));
    out.set("core.range_s", longest("core.range", op_trace));
    out.set("core.sample_s", longest("core.sample", op_trace));
    out.set("core.evaluate_s", longest("core.evaluate", op_trace));
    out.set("core.export_s", longest("core.export", None));
    let attributed = trace::cover_frac(&spans, op_ref.id, |s| {
        s.trace == op_ref.trace && s.name.starts_with("core.")
    });
    out.set("core.attributed_frac", attributed);
    // A toy run is milliseconds long; thread start-up is then a visible
    // share of it.
    out.op(p.toy || attributed >= 0.95, || {
        format!("core.attributed_frac = {attributed:.3} < 0.95")
    });
    out.set(
        "telemetry.enabled_overhead_frac",
        telemetry_s / untraced_s - 1.0,
    );
    out.set("trace_overhead_frac", traced_s / untraced_s - 1.0);

    let tel = &report.telemetry;
    for (name, phase) in [
        ("telemetry.phase.energy_eval_s", Phase::EnergyEval),
        ("telemetry.phase.inference_s", Phase::Inference),
        ("telemetry.phase.train_s", Phase::Train),
        ("telemetry.phase.move_batch_s", Phase::MoveBatch),
        ("telemetry.phase.exchange_s", Phase::Exchange),
        ("telemetry.phase.allreduce_s", Phase::Allreduce),
        ("telemetry.phase.gather_s", Phase::Gather),
    ] {
        out.set(name, phase_mean_s(tel, phase));
    }

    let attempts: u64 = report.windows.iter().map(|w| w.exchange_attempts).sum();
    let accepted: u64 = report.windows.iter().map(|w| w.exchange_accepted).sum();
    let round_trips: u64 = report.windows.iter().map(|w| w.round_trips).sum();
    let rounds = report.sweeps / cfg.rewl.exchange_every_sweeps.max(1);
    out.set("wanglandau.sweeps_to_converge", report.sweeps as f64);
    out.set("rewl.total_moves", report.total_moves as f64);
    out.set("rewl.exchange_rounds", rounds as f64);
    out.set("rewl.round_trips", round_trips as f64);
    out.set(
        "rewl.exchange_accept_frac",
        accepted as f64 / attempts.max(1) as f64,
    );
    out.set(
        "rewl.moves_per_round_trip",
        report.total_moves as f64 / round_trips.max(1) as f64,
    );
    out.set(
        "hpc.bytes_per_exchange_round",
        counter_sum(tel, "comm_send_bytes") as f64 / rounds.max(1) as f64,
    );
    for (name, kernel) in [
        ("proposal.local_accept_frac", "local"),
        ("proposal.deep_accept_frac", "deep"),
    ] {
        let (proposed, acc) = report
            .stats
            .iter()
            .filter(|(k, _, _)| k.contains(kernel))
            .fold((0u64, 0u64), |(p, a), (_, dp, da)| (p + dp, a + da));
        out.set(name, acc as f64 / proposed.max(1) as f64);
    }
    out.note(format!(
        "untraced {before_s:.3} s before and {after_s:.3} s after, telemetry on {telemetry_s:.3} s, staged under spans with telemetry on {traced_s:.3} s; ranks {}",
        cfg.rewl.num_windows * cfg.rewl.walkers_per_window
    ));
    Some(untraced_s)
}
