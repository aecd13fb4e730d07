//! Multi-process cluster orchestration for `deepthermo run --cluster`.
//!
//! The in-process drivers ([`DeepThermo::run`] over the thread fabric)
//! and this module run the *same* rank program
//! ([`DeepThermo::run_cluster_rank`]); only the transport differs. Here
//! each rank is a separate OS process talking TCP:
//!
//! * The **root** process binds a loopback rendezvous socket, spawns
//!   `size - 1` worker copies of its own executable (forwarding the
//!   original CLI flags plus hidden `--worker-rank R --rendezvous ADDR`
//!   flags), then becomes rank 0 of the mesh.
//! * Each **worker** rebuilds the identical configuration from the
//!   forwarded flags, dials the rendezvous, and runs its rank. Workers
//!   write no files; their window pieces (and telemetry) travel back to
//!   rank 0 over the wire.
//!
//! A fault-free cluster run is bit-identical to the thread backend under
//! the same seed, and `--kill R:ROUND` injects the same simulated rank
//! death the thread fabric supports — the process exits with
//! [`KILLED_EXIT_CODE`] and the survivors degrade exactly as they do
//! in-process.
//!
//! With `--recover` every rank runs fail-stop (`RewlConfig::recovery`)
//! and the root becomes a **supervisor**: the first death it sees — a
//! worker exit, or rank 0's own `PeerLost` or injected crash — ends the
//! life of the whole cluster. The supervisor stops every worker, binds a
//! fresh rendezvous, respawns all workers and re-runs rank 0; every rank
//! resumes fault-free ([`FaultPlan::none`]) from the newest complete
//! checkpoint, so the run ends bit-identical to a fault-free one.
//! Restarts back off exponentially under a budget (`--max-restarts`); a
//! death past the budget is an error naming the checkpoint to resume
//! from, never a degraded run (see DESIGN.md, "Fault tolerance").

use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dt_hpc::{
    install_crash_hook, Communicator, FaultPlan, SimulatedCrash, TcpRendezvous, TcpTransport,
};
use dt_rewl::{checkpoint::config_digest, load_resume_point, RewlError};

use crate::error::DeepThermoError;
use crate::pipeline::DeepThermo;
use crate::report::DeepThermoReport;

/// Hidden flag carrying a worker's rank (never shown in usage text).
pub const WORKER_RANK_FLAG: &str = "--worker-rank";
/// Hidden flag carrying the rendezvous address.
pub const RENDEZVOUS_FLAG: &str = "--rendezvous";
/// Hidden flag carrying the cluster's restart generation: how many times
/// the supervisor restarted every rank before this life. A worker of a
/// restarted life (generation above 0) runs fault-free.
pub const RESPAWN_COUNT_FLAG: &str = "--respawn-count";

/// A parsed `--cluster` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Total rank count, including the root process.
    pub size: usize,
}

impl std::str::FromStr for ClusterSpec {
    type Err = String;

    /// Parse a `--cluster` value of the form `tcp:<ranks>`.
    ///
    /// # Errors
    /// A human-readable message when the backend is not `tcp` or the
    /// rank count is missing, malformed, or below 2.
    fn from_str(arg: &str) -> Result<ClusterSpec, String> {
        let ranks = arg
            .strip_prefix("tcp:")
            .ok_or_else(|| format!("unsupported cluster spec {arg:?} (expected tcp:<ranks>)"))?;
        let size: usize = ranks
            .parse()
            .map_err(|_| format!("bad rank count in cluster spec {arg:?}"))?;
        if size < 2 {
            return Err(format!(
                "a cluster needs at least 2 ranks, got {size} (drop --cluster to run in-process)"
            ));
        }
        Ok(ClusterSpec { size })
    }
}

impl ClusterSpec {
    /// Check the rank count against the sampling plan: the REWL driver
    /// needs exactly one rank per walker.
    ///
    /// # Errors
    /// [`DeepThermoError::Cluster`] when `size != windows × walkers`.
    pub fn validate_against(&self, runner: &DeepThermo) -> Result<(), DeepThermoError> {
        let rewl = &runner.config().rewl;
        let need = rewl.num_windows * rewl.walkers_per_window;
        if self.size != need {
            return Err(DeepThermoError::Cluster {
                message: format!(
                    "--cluster tcp:{} does not match the sampling plan: {} windows x {} walkers \
                     need exactly {} ranks",
                    self.size, rewl.num_windows, rewl.walkers_per_window, need
                ),
            });
        }
        Ok(())
    }
}

/// Parse a `--kill R:ROUND` value for a `size`-rank cluster into a fault
/// plan. Every process of the cluster parses the same forwarded flag, so
/// they all hold the same plan — kill events fire on the owning rank's
/// own communicator, just like on the thread fabric.
///
/// # Errors
/// A human-readable message when the value is not `rank:round` or the
/// rank is not one of the cluster's.
pub fn parse_kill(arg: &str, size: usize) -> Result<FaultPlan, String> {
    let (rank, round) = arg
        .split_once(':')
        .ok_or_else(|| format!("bad --kill value {arg:?} (expected RANK:ROUND)"))?;
    let rank: usize = rank
        .parse()
        .map_err(|_| format!("bad rank in --kill {arg:?}"))?;
    let round: u64 = round
        .parse()
        .map_err(|_| format!("bad round in --kill {arg:?}"))?;
    if rank >= size {
        return Err(format!(
            "--kill {arg} names rank {rank}, but a {size}-rank cluster has ranks 0..={}",
            size - 1
        ));
    }
    Ok(FaultPlan::none().kill_at_round(rank, round))
}

/// A [`DeepThermoError::Cluster`] for the step `what` of assembling or
/// running a cluster of processes, which failed with `e`.
pub fn cluster_err(what: &str, e: impl std::fmt::Display) -> DeepThermoError {
    DeepThermoError::Cluster {
        message: format!("{what}: {e}"),
    }
}

/// How a rank's process ended, as judged by the root from its exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// The worker ran its rank to completion.
    Completed,
    /// The worker died from an injected [`SimulatedCrash`] (exit code
    /// [`KILLED_EXIT_CODE`]); the survivors degraded around it.
    Killed,
    /// The worker failed for a real reason (nonzero exit, signal, or a
    /// wait failure).
    Failed,
    /// The rank died at least once, each death restarted the whole
    /// cluster, and its last life ran to completion.
    Recovered {
        /// How many cluster restarts this rank's deaths caused.
        respawns: u64,
    },
}

/// Delay before the first whole-cluster restart; it doubles per restart
/// up to [`RESTART_BACKOFF_CAP`].
const RESTART_BACKOFF: Duration = Duration::from_millis(100);
/// Ceiling on the restart delay.
const RESTART_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Exit code a worker uses to report a *simulated* crash, so the root
/// can tell injected faults apart from real failures.
pub const KILLED_EXIT_CODE: u8 = 86;

/// A rank's death in one life of the cluster.
struct Death {
    rank: usize,
    /// An injected kill; it wins a tie when a restart is attributed.
    injected: bool,
    /// When the supervisor saw it.
    at: Instant,
    cause: String,
}

/// How one life of the cluster ended.
struct Life {
    /// Rank 0's report, or the error that ended it.
    root: Result<DeepThermoReport, DeepThermoError>,
    /// One outcome per worker, index `rank - 1`.
    workers: Vec<WorkerOutcome>,
    /// The deaths the supervisor saw, rank 0's included.
    deaths: Vec<Death>,
}

/// Root side of a multi-process run: spawn the workers, run rank 0,
/// evaluate, then reap the children. `worker_args` is the argv (minus the
/// program name) each worker is re-launched with; it must rebuild the
/// same configuration this process holds.
///
/// With `max_restarts` (`--recover`) the first death restarts the whole
/// cluster — every worker stopped and respawned with the next
/// [`RESPAWN_COUNT_FLAG`] generation, rank 0 re-run — after an
/// exponential backoff, until that budget is spent. The restart is
/// attributed to the first rank that died, an injected kill winning a
/// tie. Without it dead workers are only reaped, and the survivors
/// degrade around them.
///
/// Returns the report plus one [`WorkerOutcome`] per rank, rank 0
/// included.
///
/// # Errors
/// [`DeepThermoError::Cluster`] when the mesh cannot be assembled or a
/// death finds the restart budget spent, plus everything
/// [`DeepThermo::run_cluster_rank`] can return.
pub fn run_cluster_root(
    runner: &DeepThermo,
    spec: ClusterSpec,
    plan: FaultPlan,
    worker_args: &[String],
    max_restarts: Option<u64>,
) -> Result<(DeepThermoReport, Vec<WorkerOutcome>), DeepThermoError> {
    spec.validate_against(runner)?;
    let exe = std::env::current_exe().map_err(|e| cluster_err("locate own executable", e))?;
    install_crash_hook();
    let mut respawns = vec![0u64; spec.size];
    let mut restarts = 0u64;
    loop {
        // A fault plan describes the first life; every restart is a
        // fault-free replay from the newest complete checkpoint.
        let life_plan = if restarts == 0 {
            plan.clone()
        } else {
            FaultPlan::none()
        };
        let life = run_life(
            runner,
            &exe,
            worker_args,
            spec.size,
            restarts,
            life_plan,
            max_restarts.is_some(),
        )?;
        let error = match life.root {
            Ok(mut report) => {
                report.restarts = restarts;
                let outcomes = std::iter::once(WorkerOutcome::Completed)
                    .chain(life.workers)
                    .zip(&respawns)
                    .map(|(outcome, &n)| match outcome {
                        WorkerOutcome::Completed if n > 0 => {
                            WorkerOutcome::Recovered { respawns: n }
                        }
                        outcome => outcome,
                    })
                    .collect();
                return Ok((report, outcomes));
            }
            Err(error) => error,
        };
        // The first death, an injected kill winning a tie.
        let first = life.deaths.into_iter().min_by_key(|d| (!d.injected, d.at));
        let (Some(max_restarts), Some(Death { rank, cause, .. })) = (max_restarts, first) else {
            return Err(error);
        };
        if restarts >= max_restarts {
            return Err(DeepThermoError::Cluster {
                message: format!(
                    "rank {rank} {cause} after {restarts} restart(s), the budget of \
                     --max-restarts; {}",
                    newest_checkpoint(runner, spec.size)
                ),
            });
        }
        let delay = RESTART_BACKOFF
            .saturating_mul(1u32 << restarts.min(16))
            .min(RESTART_BACKOFF_CAP);
        restarts += 1;
        respawns[rank] += 1;
        eprintln!(
            "cluster: rank {rank} {cause} — restarting all {} ranks from the newest complete \
             checkpoint in {:.1} ms (restart {restarts}/{max_restarts})",
            spec.size,
            delay.as_secs_f64() * 1e3,
        );
        std::thread::sleep(delay);
    }
}

/// Where a rerun would resume, for the error that ends a run whose
/// restart budget is spent.
fn newest_checkpoint(runner: &DeepThermo, size: usize) -> String {
    let rewl = &runner.config().rewl;
    let Some(spec) = rewl.checkpoint.as_ref() else {
        return "no checkpoint directory is configured".to_string();
    };
    match load_resume_point(&spec.dir, config_digest(rewl), size) {
        Some(rp) => format!(
            "the newest complete checkpoint is round {} in {}; a rerun resumes from it",
            rp.round,
            spec.dir.display()
        ),
        None => format!("{} holds no complete checkpoint yet", spec.dir.display()),
    }
}

/// One life of the cluster: bind a rendezvous, spawn every worker as
/// restart generation `generation`, run rank 0 on this thread, and reap
/// the workers. With `fail_fast` (`--recover`) the first worker death
/// kills every other worker; rank 0 ending without a report always does.
fn run_life(
    runner: &DeepThermo,
    exe: &Path,
    args: &[String],
    size: usize,
    generation: u64,
    plan: FaultPlan,
    fail_fast: bool,
) -> Result<Life, DeepThermoError> {
    let rendezvous =
        TcpRendezvous::bind("127.0.0.1:0").map_err(|e| cluster_err("bind rendezvous", e))?;
    let addr = rendezvous
        .local_addr()
        .map_err(|e| cluster_err("read rendezvous address", e))?
        .to_string();
    let mut children = Vec::with_capacity(size - 1);
    for rank in 1..size {
        match spawn_worker(exe, args, rank, &addr, generation) {
            Ok(child) => children.push(child),
            Err(e) => {
                // Don't leave already-spawned workers dialing a mesh
                // that will never assemble.
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(e);
            }
        }
    }
    let abort = AtomicBool::new(false);
    let (root, at, (workers, mut deaths)) = std::thread::scope(|scope| {
        let abort = &abort;
        let reaper = scope.spawn(move || reap(children, fail_fast, abort));
        let root = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let transport = rendezvous
                .into_transport(size)
                .map_err(|e| cluster_err("assemble TCP mesh", e))?;
            runner.run_cluster_rank(Communicator::new(transport, plan))
        }));
        let at = Instant::now();
        if !matches!(root, Ok(Ok(Some(_)))) {
            abort.store(true, Ordering::SeqCst);
        }
        (root, at, reaper.join().expect("the reaper does not panic"))
    });
    let mut rank0_died = |injected, cause| {
        deaths.push(Death {
            rank: 0,
            injected,
            at,
            cause,
        })
    };
    let root = match root {
        Ok(Ok(Some(report))) => Ok(report),
        Ok(Ok(None)) => Err(DeepThermoError::Cluster {
            message: "rank 0 produced no report".to_string(),
        }),
        Ok(Err(error)) => {
            if let DeepThermoError::Sampling(lost @ RewlError::PeerLost { .. }) = &error {
                rank0_died(false, format!("stopped: {lost}"));
            }
            Err(error)
        }
        Err(payload) => {
            let Some(crash) = payload.downcast_ref::<SimulatedCrash>() else {
                std::panic::resume_unwind(payload)
            };
            rank0_died(true, "died from an injected fault".to_string());
            let cause = format!("simulated crash of rank 0 at round {}", crash.round);
            Err(RewlError::RootRankDied(cause).into())
        }
    };
    Ok(Life {
        root,
        workers,
        deaths,
    })
}

fn spawn_worker(
    exe: &Path,
    args: &[String],
    rank: usize,
    addr: &str,
    generation: u64,
) -> Result<Child, DeepThermoError> {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .arg(WORKER_RANK_FLAG)
        .arg(rank.to_string())
        .arg(RENDEZVOUS_FLAG)
        .arg(addr);
    if generation > 0 {
        cmd.arg(RESPAWN_COUNT_FLAG).arg(generation.to_string());
    }
    cmd.spawn()
        .map_err(|e| cluster_err(&format!("spawn worker rank {rank}"), e))
}

/// Classify a worker exit status.
fn classify_exit(status: ExitStatus) -> WorkerOutcome {
    if status.success() {
        WorkerOutcome::Completed
    } else if status.code() == Some(KILLED_EXIT_CODE as i32) {
        WorkerOutcome::Killed
    } else {
        WorkerOutcome::Failed
    }
}

/// How long the reaper lets workers stop on their own once the life is
/// over — fail-stop ranks exit as soon as they see the loss — before it
/// kills them. Their own exit codes are what attributes the death.
const STOP_GRACE: Duration = Duration::from_secs(1);

/// Reap one life's workers (index `rank - 1`) until every one has ended,
/// recording each death. Once `abort` is raised — or, with `fail_fast`,
/// once a worker died — the life is over: a worker still running
/// [`STOP_GRACE`] later is killed and reads `Failed`, not as a death.
fn reap(
    mut children: Vec<Child>,
    fail_fast: bool,
    abort: &AtomicBool,
) -> (Vec<WorkerOutcome>, Vec<Death>) {
    let mut outcomes: Vec<Option<WorkerOutcome>> = vec![None; children.len()];
    let mut deaths = Vec::new();
    let mut over: Option<Instant> = None;
    loop {
        if abort.load(Ordering::SeqCst) || (fail_fast && !deaths.is_empty()) {
            over.get_or_insert_with(Instant::now);
        }
        let kill = over.is_some_and(|t| t.elapsed() >= STOP_GRACE);
        for (rank, (child, slot)) in (1..).zip(children.iter_mut().zip(&mut outcomes)) {
            if slot.is_some() {
                continue;
            }
            let outcome = match child.try_wait() {
                Ok(Some(status)) => classify_exit(status),
                Ok(None) if kill => {
                    let _ = child.kill();
                    let _ = child.wait();
                    *slot = Some(WorkerOutcome::Failed);
                    continue;
                }
                Ok(None) => continue,
                Err(_) => WorkerOutcome::Failed,
            };
            if outcome != WorkerOutcome::Completed {
                let injected = outcome == WorkerOutcome::Killed;
                let cause = if injected {
                    "died from an injected fault"
                } else {
                    "exited abnormally"
                };
                deaths.push(Death {
                    rank,
                    injected,
                    at: Instant::now(),
                    cause: cause.to_string(),
                });
            }
            *slot = Some(outcome);
        }
        if outcomes.iter().all(Option::is_some) {
            return (outcomes.into_iter().flatten().collect(), deaths);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Worker side of a multi-process run: dial the rendezvous as `rank`,
/// run the rank program, and report how it ended. An injected
/// [`SimulatedCrash`] is caught and returned as
/// [`WorkerOutcome::Killed`] (the caller should exit with
/// [`KILLED_EXIT_CODE`]); any other panic is resumed.
///
/// # Errors
/// [`DeepThermoError::Cluster`] when the rendezvous cannot be reached,
/// plus everything [`DeepThermo::run_cluster_rank`] can return.
pub fn run_cluster_worker(
    runner: &DeepThermo,
    rank: usize,
    size: usize,
    rendezvous: &str,
    plan: FaultPlan,
) -> Result<WorkerOutcome, DeepThermoError> {
    let transport = TcpTransport::connect(rendezvous, rank, size)
        .map_err(|e| cluster_err(&format!("rank {rank} dial rendezvous {rendezvous}"), e))?;
    install_crash_hook();
    let comm = Communicator::new(transport, plan);
    match std::panic::catch_unwind(AssertUnwindSafe(|| runner.run_cluster_rank(comm))) {
        Ok(Ok(report)) => {
            debug_assert!(report.is_none(), "only rank 0 assembles a report");
            Ok(WorkerOutcome::Completed)
        }
        Ok(Err(e)) => Err(e),
        Err(payload) if payload.downcast_ref::<SimulatedCrash>().is_some() => {
            Ok(WorkerOutcome::Killed)
        }
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_spec_parses_tcp_sizes() {
        assert_eq!("tcp:4".parse(), Ok(ClusterSpec { size: 4 }));
        for bad in ["tcp:1", "tcp:", "mpi:4", "4"] {
            assert!(bad.parse::<ClusterSpec>().is_err(), "{bad}");
        }
    }

    #[test]
    fn cluster_spec_must_match_the_sampling_plan() {
        let runner = DeepThermo::from_material(crate::DeepThermoConfig::quick_demo()).unwrap();
        let rewl = &runner.config().rewl;
        let need = rewl.num_windows * rewl.walkers_per_window;
        assert!(ClusterSpec { size: need }.validate_against(&runner).is_ok());
        let err = ClusterSpec { size: need + 1 }
            .validate_against(&runner)
            .unwrap_err();
        assert!(matches!(err, DeepThermoError::Cluster { .. }));
        assert!(err.to_string().contains("ranks"));
    }

    #[test]
    fn kill_flag_parses_into_a_fault_plan() {
        assert!(parse_kill("3:5", 4).is_ok());
        assert!(parse_kill("3", 4).is_err());
        assert!(parse_kill("a:5", 4).is_err());
        assert!(parse_kill("3:b", 4).is_err());
        let outside = parse_kill("4:5", 4).unwrap_err();
        assert!(outside.contains("ranks 0..=3"), "{outside}");
    }
}
