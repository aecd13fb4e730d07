//! `bench_e2e` — the repository's benchmark: five workloads, end-to-end
//! metrics measured through the calls a user makes, and a separate traced
//! run that yields per-layer numbers. See `README.md` beside this file.

mod catalogue;
mod fleet;
mod host;
mod outcome;
mod probes;
mod sampler;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use deepthermo::telemetry::{parse_json, push_f64, push_json_string, JsonValue};

use catalogue::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use outcome::{Outcome, RunParams};
use trace::Tracer;

const USAGE: &str = "\
bench_e2e — end-to-end and per-layer benchmark of DeepThermo

usage: bench_e2e [--workload NAME] [--seed S] [--seconds N] [--repeats N]
                 [--trace [0|1]] [--out DIR] [--aa] [--list] [--smoke]

  --workload NAME  run one workload (default: all five, in order)
  --seed S         feeds the sampler master seed (rewl_tcp; rewl_local and
                   rewl_deep pin 2023, see README.md), the Zipf key
                   stream, the temperature-grid perturbations, the
                   exact-enumeration check and the probes' inputs
                                                         (default 1)
  --seconds N      how long the timed part measures      (default 16)
  --repeats N      rewl_*: full runs per timed part (default: as many as
                   fit in --seconds, at least three)
  --trace [0|1]    1: the traced run — per-layer metrics and trace.json
  --out DIR        where trace.json and scratch files go
                   (default $CARGO_TARGET_DIR/bench_e2e, else target/bench_e2e)
  --aa             run the full set twice and compare the two (A/A)
  --list           print workload and metric names
  --smoke          toy sizes, no regime guard: all five workloads, end to
                   end and traced, in a few seconds

Every workload runs confined to one CPU (README.md says why).
The last line of standard output is one JSON object:
{\"correct\":…,\"attempted\":…,\"failed\":…,\"metrics\":{name:{\"value\":…,\"unit\":…}}}
Exit code 1 when any check failed.
";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Cli {
    workload: Option<String>,
    trace: bool,
    aa: bool,
    list: bool,
    smoke: bool,
    params: RunParams,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut cli = Cli {
        workload: None,
        trace: false,
        aa: false,
        list: false,
        smoke: false,
        params: RunParams {
            seed: 1,
            seconds: 16.0,
            repeats: None,
            spin: Duration::from_secs(3),
            toy: false,
            out_dir: PathBuf::from(target).join("bench_e2e"),
        },
    };
    let mut it = args.iter().peekable();
    fn value<'a>(
        flag: &str,
        it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(arg, &mut it)?;
                if catalogue::workload(name).is_none() {
                    return Err(format!("unknown workload {name:?} (see --list)"));
                }
                cli.workload = Some(name.clone());
            }
            "--seed" => cli.params.seed = number(arg, value(arg, &mut it)?)?,
            "--seconds" => {
                cli.params.seconds = number(arg, value(arg, &mut it)?)?;
                if !(cli.params.seconds > 0.0 && cli.params.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--repeats" => {
                let n: usize = number(arg, value(arg, &mut it)?)?;
                if n == 0 {
                    return Err("--repeats must be at least 1".into());
                }
                cli.params.repeats = Some(n);
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => cli.params.out_dir = PathBuf::from(value(arg, &mut it)?),
            "--aa" => cli.aa = true,
            "--list" => cli.list = true,
            "--smoke" => cli.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Run one workload once, end to end (tracing off) or traced.
fn run_workload(name: &str, traced: bool, p: &RunParams) -> Outcome {
    // Every workload runs on one CPU (`host::pin_to_one_cpu` says why),
    // from set-up to the last probe.
    let pin = host::pin_to_one_cpu();
    let mut out = measure(name, traced, p);
    out.note(match &pin {
        Some(pin) => format!("ran on CPU {} alone", pin.cpu),
        None => "could not be confined to one CPU: ran on all".into(),
    });
    out
}

fn measure(name: &str, traced: bool, p: &RunParams) -> Outcome {
    if !traced {
        return match sampler::spec(name, p.toy) {
            Some(spec) => sampler::end_to_end(&spec, p),
            None => fleet::end_to_end(&fleet::spec(name, p.toy), p),
        };
    }
    let tracer = Tracer::new();
    // The probes run on the workload's own system: its supercell edge,
    // or the fixtures' L=3 on serve_*.
    let (mut out, untraced_run_s, probe_l) = match sampler::spec(name, p.toy) {
        Some(spec) => {
            let (out, untraced_run_s) = sampler::traced(&spec, p, &tracer);
            (out, untraced_run_s, spec.l)
        }
        None => (
            fleet::traced(&fleet::spec(name, p.toy), p, &tracer),
            None,
            3,
        ),
    };
    probes::run(&mut out, probe_l, untraced_run_s, p, &tracer);
    let spans = tracer.snapshot();
    let path = p.out_dir.join(format!("trace-{name}.json"));
    let header = [
        ("workload", format!("\"{name}\"")),
        ("seed", p.seed.to_string()),
    ];
    let written = std::fs::create_dir_all(&p.out_dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(&header, &spans, 4000)))
        // The most recent traced workload is also plain `trace.json`.
        .and_then(|()| std::fs::copy(&path, p.out_dir.join("trace.json")).map(|_| ()));
    match written {
        Ok(()) => out.note(format!("{} spans -> {}", spans.len(), path.display())),
        Err(e) => out.op(false, || format!("cannot write {}: {e}", path.display())),
    }
    out
}

fn metric_set(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        failed == 0,
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_json_string(&mut s, name);
        s.push_str(":{\"value\":");
        push_f64(&mut s, *value);
        s.push_str(",\"unit\":");
        push_json_string(&mut s, unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// The result line of one workload run: every name of the run's metric
/// set, 0 where the workload does not exercise the layer.
fn outcome_json(out: &Outcome, traced: bool) -> String {
    let metrics: Vec<(String, f64, &str)> = metric_set(traced)
        .iter()
        .map(|m| {
            let value = out.values.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_string(), value, m.unit)
        })
        .collect();
    result_json(out.attempted, out.failed, &metrics)
}

/// What a multi-workload run keeps of one workload's process.
struct ChildReport {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    /// Metrics the child marked `UNRESOLVED`.
    unresolved: Vec<String>,
}

/// Run one workload in a process of its own, as the driver does, so that
/// its peak memory is its own: an allocator keeps what an earlier workload
/// freed, and `VmHWM` cannot be reset below it. The child's report is
/// passed through; its result line is parsed.
fn run_in_child(name: &str, traced: bool, p: &RunParams) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", name, "--seed", &p.seed.to_string()])
        .args(["--seconds", &p.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&p.out_dir);
    if let Some(n) = p.repeats {
        command.args(["--repeats", &n.to_string()]);
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{name}: no result line"))?;
    println!("{report}");
    let v = parse_json(line).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let count = |key: &str| v.get(key).and_then(JsonValue::as_u64);
    let (Some(attempted), Some(failed), Some(JsonValue::Object(metrics))) =
        (count("attempted"), count("failed"), v.get("metrics"))
    else {
        return Err(format!("{name}: malformed result line"));
    };
    Ok(ChildReport {
        values: metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        attempted,
        failed,
        unresolved: report
            .lines()
            .filter(|l| l.contains("UNRESOLVED"))
            .filter_map(|l| l.split_whitespace().next().map(str::to_string))
            .collect(),
    })
}

/// One report row: value, unit, and what the per-repeat or per-segment
/// samples behind it say.
fn metric_row(
    name: &str,
    unit: &str,
    value: f64,
    samples: Option<(&[f64], f64)>,
    bound: Option<f64>,
) -> String {
    let mut line = format!("  {name:<40} {value:>16.6} {unit:<6}");
    if let Some((values, scale)) = samples {
        let (lo, med, hi) = stats::min_med_max(values);
        line.push_str(&format!(
            " n={} min/med/max {:.6}/{:.6}/{:.6}",
            values.len(),
            lo * scale,
            med * scale,
            hi * scale
        ));
        if let Some((spread, bound)) = unresolved(bound, values) {
            line.push_str(&format!(
                " UNRESOLVED (spread {:.1}% > bound {:.0}%)",
                spread * 100.0,
                bound * 100.0
            ));
        }
    }
    line
}

/// Human-readable report of one workload run.
fn print_outcome(name: &str, traced: bool, out: &Outcome) {
    let w = catalogue::workload(name).expect("known workload");
    println!(
        "== {name} ({}) — {} ==",
        if traced { "traced" } else { "end to end" },
        w.op
    );
    let samples_of = |metric: &str| {
        out.samples
            .iter()
            .find(|s| s.metric == metric)
            .map(|s| s.values.as_slice())
    };
    for m in metric_set(traced) {
        let value = out.values.get(m.name).copied().unwrap_or(0.0);
        let samples = samples_of(m.name).map(|v| (v, 1.0));
        println!("{}", metric_row(m.name, m.unit, value, samples, m.bound));
    }
    if !traced {
        println!("  under this workload's own names:");
        for n in w.native {
            let value = out.values.get(n.source).copied().unwrap_or(0.0) * n.scale;
            let samples = samples_of(n.source).map(|v| (v, n.scale));
            println!("{}", metric_row(n.name, n.unit, value, samples, None));
        }
    }
    for note in &out.notes {
        println!("  note: {note}");
    }
    println!(
        "  operations: {} failed / {} attempted",
        out.failed, out.attempted
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
}

/// The within-run spread of a metric's samples, and the bound, when the
/// spread exceeds the bound: the value is then not resolved to within the
/// bound by this run alone.
fn unresolved(bound: Option<f64>, samples: &[f64]) -> Option<(f64, f64)> {
    let bound = bound?;
    if samples.len() < 2 {
        return None;
    }
    let spread = stats::quartile_spread(samples);
    (spread > bound).then_some((spread, bound))
}

/// Is `b` worse than `a` by more than the metric's bound?
fn regressed(m: &Metric, a: f64, b: f64) -> (f64, bool) {
    let worse_by = match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    (worse_by, m.bound.is_some_and(|bound| worse_by > bound))
}

/// A/A: the full set twice back to back; both values, their relative
/// difference and the bound, per end-to-end metric and workload.
fn run_aa(p: &RunParams) -> Result<bool, String> {
    let mut sets: Vec<Vec<ChildReport>> = Vec::new();
    for set in ["A", "B"] {
        let mut reports = Vec::new();
        for w in WORKLOADS {
            println!("-- A/A set {set}: {}", w.name);
            reports.push(run_in_child(w.name, false, p)?);
        }
        sets.push(reports);
    }
    println!(
        "{:<12} {:<14} {:>16} {:>16} {:>9} {:>7}  status",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    let mut ok = true;
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        ok &= a.failed == 0 && b.failed == 0;
        for m in END_TO_END {
            let va = a.values.get(m.name).copied().unwrap_or(0.0);
            let vb = b.values.get(m.name).copied().unwrap_or(0.0);
            let (ab, bad_ab) = regressed(m, va, vb);
            let (_, bad_ba) = regressed(m, vb, va);
            let unresolved = [a, b]
                .iter()
                .any(|r| r.unresolved.iter().any(|n| n == m.name));
            let status = if bad_ab || bad_ba {
                ok = false;
                "DISAGREE"
            } else if unresolved {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<12} {:<14} {va:>16.6} {vb:>16.6} {:>8.2}% {:>6.0}%  {status}",
                w.name,
                m.name,
                ab * 100.0,
                m.bound.unwrap_or(0.0) * 100.0
            );
        }
        println!(
            "{:<12} operations      A {}/{} failed, B {}/{} failed",
            w.name, a.failed, a.attempted, b.failed, b.attempted
        );
    }
    Ok(ok)
}

/// Every workload at toy size, end to end and traced: exercises the whole
/// harness (fleet, TCP cluster, probes, trace file) in a few seconds.
fn smoke(out_dir: &std::path::Path) -> Result<(), String> {
    let p = RunParams {
        seed: 1,
        seconds: 0.5,
        repeats: Some(2),
        spin: Duration::ZERO,
        toy: true,
        out_dir: out_dir.to_path_buf(),
    };
    for w in WORKLOADS {
        for traced in [false, true] {
            let out = run_workload(w.name, traced, &p);
            print_outcome(w.name, traced, &out);
            if out.failed > 0 || out.attempted == 0 {
                return Err(format!(
                    "{} ({}): {} failed / {} attempted: {:?}",
                    w.name,
                    if traced { "traced" } else { "end to end" },
                    out.failed,
                    out.attempted,
                    out.failures
                ));
            }
            // Every name of the run's metric set must have been measured;
            // per-layer names a workload does not exercise stay absent
            // and read 0.
            if !traced {
                if let Some(m) = END_TO_END.iter().find(|m| !out.values.contains_key(m.name)) {
                    return Err(format!("{}: {} was not measured", w.name, m.name));
                }
            }
            parse_json(&outcome_json(&out, traced)).map_err(|e| format!("result line: {e}"))?;
        }
    }
    Ok(())
}

fn print_list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    for (title, set) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        println!("{title} metrics:");
        for m in set {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(" bound {:.0}%", b * 100.0));
            println!(
                "  {:<40} {:<6} better: {}{bound}",
                m.name,
                m.unit,
                m.better.as_str()
            );
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        print_list();
        return ExitCode::SUCCESS;
    }
    if cli.smoke {
        return match smoke(&cli.params.out_dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cli.aa {
        return match run_aa(&cli.params) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "bench_e2e: seed {}, {} s per timed part, {} hardware threads",
        cli.params.seed,
        cli.params.seconds,
        host::nproc()
    );
    if let Some(name) = &cli.workload {
        let out = run_workload(name, cli.trace, &cli.params);
        print_outcome(name, cli.trace, &out);
        println!("{}", outcome_json(&out, cli.trace));
        return if out.failed == 0 && out.attempted > 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    // All five, each in its own process; one combined result line with
    // `workload/metric` names.
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for w in WORKLOADS {
        let report = match run_in_child(w.name, cli.trace, &cli.params) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        attempted += report.attempted;
        failed += report.failed;
        for m in metric_set(cli.trace) {
            let value = report.values.get(m.name).copied().unwrap_or(0.0);
            metrics.push((format!("{}/{}", w.name, m.name), value, m.unit));
        }
    }
    println!("{}", result_json(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn command_line_as_the_driver_writes_it() {
        let cli = parse_cli(&args(&[
            "--workload",
            "serve_hot",
            "--seed",
            "42",
            "--seconds",
            "12",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve_hot"));
        assert_eq!(cli.params.seed, 42);
        assert_eq!(cli.params.seconds, 12.0);
        assert!(!cli.trace);
        assert!(parse_cli(&args(&["--trace", "1"])).unwrap().trace);
        // Bare --trace is on, and does not swallow the next flag.
        let cli = parse_cli(&args(&["--trace", "--seed", "3"])).unwrap();
        assert!(cli.trace && cli.params.seed == 3);
        assert!(parse_cli(&args(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&args(&["--seed"])).is_err());
        assert!(parse_cli(&args(&["--seconds", "0"])).is_err());
        assert!(parse_cli(&args(&["--repeats", "0"])).is_err());
        assert!(parse_cli(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn result_line_round_trips_through_the_repo_json_parser() {
        let mut out = Outcome::default();
        out.op(true, String::new);
        out.op(false, || "a check".into());
        for (i, m) in END_TO_END.iter().enumerate() {
            out.set(m.name, 1.5 + i as f64 * 1e-7);
        }
        let v = parse_json(&outcome_json(&out, false)).unwrap();
        let JsonValue::Object(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(1));
        let JsonValue::Object(metrics) = v.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for (i, m) in END_TO_END.iter().enumerate() {
            let entry = v.get("metrics").unwrap().get(m.name).unwrap();
            // Every digit survives.
            assert_eq!(
                entry.get("value").unwrap().as_f64(),
                Some(1.5 + i as f64 * 1e-7)
            );
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
        }
        // The traced line carries every per-layer name, measured or not.
        let v = parse_json(&outcome_json(&Outcome::default(), true)).unwrap();
        let JsonValue::Object(metrics) = v.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn benchmark_json_and_the_catalogue_agree() {
        let v = parse_json(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let JsonValue::Object(top) = &v else {
            panic!("not an object")
        };
        let mut keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let array = |key: &str| v.get(key).unwrap().as_array().unwrap();
        let text = |e: &JsonValue, key: &str| e.get(key).unwrap().as_str().unwrap().to_string();
        let valid_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };

        let listed: Vec<(String, String)> = array("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours
            .iter()
            .all(|(n, why)| valid_name(n) && why.len() <= 200 && !why.contains('\n')));

        for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String, Option<f64>)> = array(key)
                .iter()
                .map(|m| {
                    (
                        text(m, "name"),
                        text(m, "unit"),
                        text(m, "better"),
                        m.get("bound").and_then(JsonValue::as_f64),
                    )
                })
                .collect();
            let ours: Vec<(String, String, String, Option<f64>)> = set
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect();
            assert_eq!(listed, ours, "{key}");
            for m in set {
                assert!(valid_name(m.name), "{}", m.name);
                assert!(
                    m.unit.len() <= 16
                        && m.unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
                );
                assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "a name is used twice"
        );

        let seconds = v.get("run_seconds").unwrap().as_u64().unwrap();
        assert!((1..=60).contains(&seconds));
        let paths: Vec<&str> = array("paths").iter().map(|p| p.as_str().unwrap()).collect();
        assert_eq!(paths, ["crates/bench/src/bin/bench_e2e"]);
        // The command names nothing of the repo outside `paths`.
        let command: Vec<&str> = array("command")
            .iter()
            .map(|c| c.as_str().unwrap())
            .collect();
        assert!(command.len() <= 32);
        for arg in command.iter().filter(|a| a.contains('/')) {
            assert!(arg.starts_with(paths[0]) && !arg.contains(".."), "{arg}");
        }
    }

    #[test]
    fn worse_is_judged_in_the_metrics_own_direction() {
        let lower = &END_TO_END[0];
        assert_eq!(lower.better, Better::Lower);
        let (by, bad) = regressed(lower, 1.0, 1.3);
        assert!((by - 0.3).abs() < 1e-12 && bad);
        assert!(!regressed(lower, 1.0, 0.5).1);
        let higher = END_TO_END
            .iter()
            .find(|m| m.better == Better::Higher)
            .unwrap();
        assert!(regressed(higher, 100.0, 70.0).1);
        assert!(!regressed(higher, 100.0, 80.0).1);
        assert!(!regressed(higher, 100.0, 140.0).1);
    }

    #[test]
    fn smoke_all_five_workloads_at_toy_size() {
        let dir = std::env::temp_dir().join(format!("bench_e2e-smoke-{}", std::process::id()));
        let started = std::time::Instant::now();
        let result = smoke(&dir);
        let trace = std::fs::read_to_string(dir.join("trace.json"));
        let _ = std::fs::remove_dir_all(&dir);
        result.unwrap();
        let v = parse_json(&trace.expect("the traced runs write trace.json")).unwrap();
        assert!(v
            .get("spans")
            .unwrap()
            .as_array()
            .is_some_and(|s| !s.is_empty()));
        assert!(v.get("by_name").unwrap().get("probes").is_some());
        eprintln!("smoke took {:.1} s", started.elapsed().as_secs_f64());
    }
}
