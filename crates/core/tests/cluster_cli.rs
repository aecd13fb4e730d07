//! End-to-end tests of `deepthermo run --cluster tcp:<n>`: the real
//! binary spawning real worker processes over loopback TCP. The cluster
//! run must write byte-identical outputs to the in-process run under the
//! same seed, survive an injected worker kill, and reject a rank count
//! that does not match the sampling plan.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_deepthermo")
}

/// Flags for a small fast NbMoTaW run (2 windows x 2 walkers).
const BASE: &[&str] = &[
    "run",
    "--l",
    "2",
    "--kernel",
    "local",
    "--windows",
    "2",
    "--walkers",
    "2",
    "--bins",
    "40",
    "--tpoints",
    "20",
];

fn deepthermo(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("launch the deepthermo binary")
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dt-cluster-cli-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

#[test]
fn tcp_cluster_cli_matches_the_in_process_run_byte_for_byte() {
    let dir = scratch("compare");
    let thread_out = dir.join("thread-out");
    let tcp_out = dir.join("tcp-out");
    let common = ["--seed", "7", "--lnf", "1e-3", "--max-sweeps", "60000"];

    let mut thread_args: Vec<&str> = BASE.to_vec();
    thread_args.extend_from_slice(&common);
    thread_args.extend_from_slice(&["--out", thread_out.to_str().unwrap()]);
    let out = deepthermo(&thread_args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut tcp_args: Vec<&str> = BASE.to_vec();
    tcp_args.extend_from_slice(&common);
    tcp_args.extend_from_slice(&["--out", tcp_out.to_str().unwrap(), "--cluster", "tcp:4"]);
    let out = deepthermo(&tcp_args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for name in ["dos.csv", "sro.csv", "thermo.csv", "summary.txt"] {
        assert_eq!(
            read(&thread_out, name),
            read(&tcp_out, name),
            "{name} differs between thread and TCP backends"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_cluster_cli_survives_an_injected_worker_kill() {
    let dir = scratch("kill");
    let out_dir = dir.join("out");
    let mut args: Vec<&str> = BASE.to_vec();
    args.extend_from_slice(&[
        "--seed",
        "3",
        "--lnf",
        "1e-4",
        "--max-sweeps",
        "100000",
        "--cluster",
        "tcp:4",
        "--kill",
        "3:4",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    let out = deepthermo(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("worker rank 3 died"),
        "root must report the injected death:\n{stdout}"
    );
    let summary = String::from_utf8(read(&out_dir, "summary.txt")).unwrap();
    assert!(
        summary.contains("ranks lost during the run: [3]"),
        "summary must record the loss:\n{summary}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The self-healing gate, end to end through the real binary: a cluster
/// run that loses a worker under `--recover` must produce byte-identical
/// science outputs to the fault-free cluster run, report the supervised
/// respawn on stdout, and record nonzero recovery counters in the
/// summary.
#[test]
fn tcp_cluster_cli_recovers_a_killed_worker_bit_for_bit() {
    let dir = scratch("recover");
    let clean_out = dir.join("clean");
    let healed_out = dir.join("healed");
    let common = [
        "--seed",
        "5",
        "--lnf",
        "1e-3",
        "--max-sweeps",
        "60000",
        "--cluster",
        "tcp:4",
    ];

    let mut clean_args: Vec<&str> = BASE.to_vec();
    clean_args.extend_from_slice(&common);
    clean_args.extend_from_slice(&["--out", clean_out.to_str().unwrap()]);
    let out = deepthermo(&clean_args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Same seed, worker rank 2 (window 1's leader) killed at round 3;
    // the supervisor respawns it and the replacement rejoins from its
    // checkpoint.
    let mut heal_args: Vec<&str> = BASE.to_vec();
    heal_args.extend_from_slice(&common);
    heal_args.extend_from_slice(&[
        "--out",
        healed_out.to_str().unwrap(),
        "--kill",
        "2:3",
        "--recover",
        "--max-restarts",
        "2",
    ]);
    let out = deepthermo(&heal_args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("worker rank 2 recovered after 1 supervised respawn"),
        "root must report the recovery:\n{stdout}"
    );

    let summary = String::from_utf8(read(&healed_out, "summary.txt")).unwrap();
    assert!(
        summary.contains("ranks respawned: 1"),
        "summary must record the respawn:\n{summary}"
    );
    assert!(
        !summary.contains("ranks lost"),
        "a recovered run loses nothing:\n{summary}"
    );

    // The science outputs must match the fault-free run byte for byte
    // (summary.txt legitimately differs by the recovery lines).
    for name in ["dos.csv", "sro.csv", "thermo.csv"] {
        assert_eq!(
            read(&clean_out, name),
            read(&healed_out, name),
            "{name} differs between the fault-free and the recovered run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_cluster_cli_rejects_a_kill_of_a_rank_outside_the_cluster() {
    let dir = scratch("kill-range");
    let out_dir = dir.join("out");
    let mut args: Vec<&str> = BASE.to_vec();
    args.extend_from_slice(&[
        "--cluster",
        "tcp:4",
        "--kill",
        "9:3",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    let out = deepthermo(&args);
    assert!(!out.status.success(), "rank 9 is not in a 4-rank cluster");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rank 9") && stderr.contains("ranks 0..=3"),
        "error must name the valid range:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_cluster_cli_rejects_a_rank_count_that_mismatches_the_plan() {
    let dir = scratch("mismatch");
    let out_dir = dir.join("out");
    let mut args: Vec<&str> = BASE.to_vec();
    args.extend_from_slice(&["--cluster", "tcp:3", "--out", out_dir.to_str().unwrap()]);
    let out = deepthermo(&args);
    assert!(
        !out.status.success(),
        "a 3-rank cluster cannot run a 2x2 plan"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("need exactly 4 ranks"),
        "error must name the required rank count:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
