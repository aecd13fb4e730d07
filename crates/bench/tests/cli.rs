//! `experiments` validates its command line against its flag table
//! before any work: every form below used to run (with a default, a
//! first value or a panic) and now ends the process nonzero, at once,
//! with one line naming the flag. A closed stdout ends a run cleanly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `experiments args`; expect a fast failure, no stdout, and an
/// error line naming `flag`.
fn rejects(args: &[&str], flag: &str) {
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("launch the experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must fail:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must do no work");
    assert!(
        stderr.contains(flag),
        "{args:?}: error must name {flag}:\n{stderr}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "{args:?} must fail before any work"
    );
}

#[test]
fn a_misspelled_flag_is_rejected() {
    rejects(&["bench_rewl_adaptive", "--gaet", "9"], "--gaet");
}

#[test]
fn an_unparsable_value_is_rejected() {
    let args = [
        "bench_serve_sharded",
        "--connections",
        "1",
        "--requests",
        "5x",
    ];
    rejects(&args, "--requests");
}

#[test]
fn a_repeated_flag_is_rejected() {
    rejects(&["fig_dos", "--l", "2", "--l", "3"], "--l");
}

#[test]
fn a_flag_without_its_value_is_rejected() {
    rejects(&["fig_dos", "--l", "2", "--lnf"], "--lnf");
}

#[test]
fn zero_counts_are_rejected() {
    rejects(&["bench_serve_sharded", "--requests", "0"], "--requests");
    rejects(
        &["bench_serve_sharded", "--connections", "0"],
        "--connections",
    );
}

#[test]
fn the_retired_knobs_are_rejected() {
    rejects(&["bench_serve_sharded", "--min-cores", "1"], "--min-cores");
    rejects(
        &["bench_serve_sharded", "--serve-workers", "4"],
        "--serve-workers",
    );
}

#[test]
fn a_reader_that_stops_early_ends_the_run_successfully() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("table_weak_scaling")
        .stdout(Stdio::piped())
        .spawn()
        .expect("launch the experiments binary");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    for _ in 0..2 {
        lines.next().expect("a line").expect("utf-8");
    }
    drop(lines);
    assert!(child.wait().expect("exit status").success());
}
