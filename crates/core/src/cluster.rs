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
//! death the thread fabric supports — the process exits cleanly with
//! [`WorkerOutcome::Killed`] and the survivors degrade exactly as they
//! do in-process.
//!
//! With `--recover` the root becomes a **supervisor**: it reaps worker
//! exits while rank 0 samples, distinguishes injected kills (exit code
//! [`KILLED_EXIT_CODE`]) from real crashes, and respawns dead workers
//! with bounded exponential backoff under a per-rank restart budget
//! ([`RecoveryPolicy`]). A replacement process re-binds its rank id in
//! the mesh, restores its state from its own newest checkpoint, and
//! replays its death round — converging to the same answer, bit for bit,
//! as a fault-free run. When the budget is exhausted the cluster falls
//! back to graceful degradation (see DESIGN.md, "Failure model").

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dt_hpc::{
    install_crash_hook, Communicator, FaultPlan, SimulatedCrash, TcpRendezvous, TcpTransport,
};

use crate::error::DeepThermoError;
use crate::pipeline::DeepThermo;
use crate::report::DeepThermoReport;

/// Hidden flag carrying a worker's rank (never shown in usage text).
pub const WORKER_RANK_FLAG: &str = "--worker-rank";
/// Hidden flag carrying the rendezvous address.
pub const RENDEZVOUS_FLAG: &str = "--rendezvous";
/// Hidden flag carrying how many times a worker has been respawned by the
/// supervisor; a nonzero value tells the replacement to resume from its
/// own newest checkpoint and rejoin the mesh instead of bootstrapping.
pub const RESPAWN_COUNT_FLAG: &str = "--respawn-count";

/// A parsed `--cluster` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Total rank count, including the root process.
    pub size: usize,
}

impl ClusterSpec {
    /// Parse a `--cluster` value of the form `tcp:<ranks>`.
    ///
    /// # Errors
    /// A human-readable message when the backend is not `tcp` or the
    /// rank count is missing, malformed, or below 2.
    pub fn parse(arg: &str) -> Result<ClusterSpec, String> {
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

/// Parse a `--kill R:ROUND` value into a fault plan. Every process of
/// the cluster parses the same forwarded flag, so they all hold the same
/// plan — kill events fire on the owning rank's own communicator, just
/// like on the thread fabric.
///
/// # Errors
/// A human-readable message when the value is not `rank:round`.
pub fn parse_kill(arg: &str) -> Result<FaultPlan, String> {
    let (rank, round) = arg
        .split_once(':')
        .ok_or_else(|| format!("bad --kill value {arg:?} (expected RANK:ROUND)"))?;
    let rank: usize = rank
        .parse()
        .map_err(|_| format!("bad rank in --kill {arg:?}"))?;
    let round: u64 = round
        .parse()
        .map_err(|_| format!("bad round in --kill {arg:?}"))?;
    Ok(FaultPlan::none().kill_at_round(rank, round))
}

fn cluster_err(what: &str, e: impl std::fmt::Display) -> DeepThermoError {
    DeepThermoError::Cluster {
        message: format!("{what}: {e}"),
    }
}

/// How a worker process ended, as judged by the root from its exit code.
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
    /// The worker died at least once but a supervised replacement
    /// rejoined from its checkpoint and ran the rank to completion.
    Recovered {
        /// How many times the rank was respawned.
        respawns: u64,
    },
}

/// Supervisor policy for `--recover`: how often and how patiently a dead
/// worker is respawned before the cluster falls back to degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Respawn budget *per rank*; once exhausted the rank stays dead and
    /// the survivors degrade around it exactly as with recovery off.
    pub max_restarts: u64,
    /// First respawn delay; doubles per attempt (exponential backoff).
    pub backoff_base: Duration,
    /// Ceiling on the backoff delay.
    pub backoff_cap: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_restarts: 3,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// Exit code a worker uses to report a *simulated* crash, so the root
/// can tell injected faults apart from real failures.
pub const KILLED_EXIT_CODE: u8 = 86;

/// Root side of a multi-process run: bind the rendezvous, spawn the
/// workers, run rank 0, evaluate, then reap the children. `worker_args`
/// is the argv (minus the program name) each worker is re-launched with;
/// it must rebuild the same configuration this process holds.
///
/// With a `policy` (`--recover`) the reaping thread is a supervisor:
/// injected kills (exit code [`KILLED_EXIT_CODE`]) are distinguished from
/// real crashes, and dead workers are respawned with bounded exponential
/// backoff until `policy.max_restarts` is exhausted — after which the
/// cluster falls back to graceful degradation. Respawned workers are
/// re-launched with [`RESPAWN_COUNT_FLAG`] so the replacement rejoins from
/// its own newest checkpoint.
///
/// Returns the report plus one [`WorkerOutcome`] per worker rank
/// (`1..size`).
///
/// # Errors
/// [`DeepThermoError::Cluster`] when the mesh cannot be assembled, plus
/// everything [`DeepThermo::run_cluster_rank`] can return.
pub fn run_cluster_root(
    runner: &DeepThermo,
    spec: ClusterSpec,
    plan: FaultPlan,
    worker_args: &[String],
    policy: Option<RecoveryPolicy>,
) -> Result<(DeepThermoReport, Vec<WorkerOutcome>), DeepThermoError> {
    spec.validate_against(runner)?;
    let rendezvous =
        TcpRendezvous::bind("127.0.0.1:0").map_err(|e| cluster_err("bind rendezvous", e))?;
    let addr = rendezvous
        .local_addr()
        .map_err(|e| cluster_err("read rendezvous address", e))?
        .to_string();
    let exe = std::env::current_exe().map_err(|e| cluster_err("locate own executable", e))?;

    let mut workers: Vec<Supervised> = Vec::with_capacity(spec.size - 1);
    for rank in 1..spec.size {
        match spawn_worker(&exe, worker_args, rank, &addr, 0) {
            Ok(child) => workers.push(Supervised {
                rank,
                child,
                respawns: 0,
                injected_deaths: 0,
                done: None,
            }),
            Err(e) => {
                // Don't leave already-spawned workers dialing a mesh
                // that will never assemble.
                for mut w in workers {
                    let _ = w.child.kill();
                    let _ = w.child.wait();
                }
                return Err(e);
            }
        }
    }

    // The supervisor reaps (and under a recovery policy, respawns)
    // workers while rank 0 samples on this thread.
    let ctx = SupervisorCtx {
        exe,
        args: worker_args.to_vec(),
        addr,
        policy,
    };
    let stop_respawn = Arc::new(AtomicBool::new(false));
    let abort = Arc::new(AtomicBool::new(false));
    let supervisor = {
        let stop_respawn = Arc::clone(&stop_respawn);
        let abort = Arc::clone(&abort);
        std::thread::spawn(move || supervise(ctx, workers, &stop_respawn, &abort))
    };

    let mesh = if policy.is_some() {
        rendezvous.into_transport_recovering(spec.size)
    } else {
        rendezvous.into_transport(spec.size)
    };
    let result = match mesh {
        Ok(transport) => {
            let comm = Communicator::new(transport, plan);
            runner.run_cluster_rank(comm)
        }
        Err(e) => Err(cluster_err("assemble TCP mesh", e)),
    };

    // Rank 0 is done (or failed): no further respawns make sense. On
    // failure, reap the children instead of waiting on a broken mesh.
    stop_respawn.store(true, Ordering::SeqCst);
    if result.is_err() {
        abort.store(true, Ordering::SeqCst);
    }
    let outcomes = supervisor.join().unwrap_or_default();

    let report = result?.ok_or_else(|| DeepThermoError::Cluster {
        message: "rank 0 produced no report".to_string(),
    })?;
    Ok((report, outcomes))
}

/// One worker under supervision.
struct Supervised {
    rank: usize,
    child: Child,
    respawns: u64,
    injected_deaths: u64,
    done: Option<WorkerOutcome>,
}

/// Everything the supervisor needs to re-launch a worker.
struct SupervisorCtx {
    exe: PathBuf,
    args: Vec<String>,
    addr: String,
    policy: Option<RecoveryPolicy>,
}

fn spawn_worker(
    exe: &PathBuf,
    args: &[String],
    rank: usize,
    addr: &str,
    respawns: u64,
) -> Result<Child, DeepThermoError> {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .arg(WORKER_RANK_FLAG)
        .arg(rank.to_string())
        .arg(RENDEZVOUS_FLAG)
        .arg(addr);
    if respawns > 0 {
        cmd.arg(RESPAWN_COUNT_FLAG).arg(respawns.to_string());
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

/// The supervisor loop: poll every live worker, reap exits, respawn dead
/// workers under the recovery policy (exponential backoff, per-rank
/// budget), and drain the rest once `stop_respawn` is raised. `abort`
/// kills whatever is still running (rank 0 failed; the mesh is gone).
fn supervise(
    ctx: SupervisorCtx,
    mut workers: Vec<Supervised>,
    stop_respawn: &AtomicBool,
    abort: &AtomicBool,
) -> Vec<WorkerOutcome> {
    loop {
        if abort.load(Ordering::SeqCst) {
            for w in &mut workers {
                if w.done.is_none() {
                    let _ = w.child.kill();
                    let _ = w.child.wait();
                    w.done = Some(WorkerOutcome::Failed);
                }
            }
        }
        let mut pending = false;
        for w in &mut workers {
            if w.done.is_some() {
                continue;
            }
            let status = match w.child.try_wait() {
                Ok(Some(status)) => status,
                Ok(None) => {
                    pending = true;
                    continue;
                }
                Err(_) => {
                    w.done = Some(WorkerOutcome::Failed);
                    continue;
                }
            };
            match classify_exit(status) {
                WorkerOutcome::Completed => {
                    w.done = Some(if w.respawns > 0 {
                        WorkerOutcome::Recovered {
                            respawns: w.respawns,
                        }
                    } else {
                        WorkerOutcome::Completed
                    });
                }
                death => {
                    let injected = death == WorkerOutcome::Killed;
                    if injected {
                        w.injected_deaths += 1;
                    }
                    let respawnable = ctx
                        .policy
                        .filter(|p| w.respawns < p.max_restarts)
                        .filter(|_| !stop_respawn.load(Ordering::SeqCst));
                    match respawnable {
                        Some(p) => {
                            let delay = p
                                .backoff_base
                                .saturating_mul(1u32 << w.respawns.min(16) as u32)
                                .min(p.backoff_cap);
                            eprintln!(
                                "cluster: worker rank {} {} — respawning in {:.1} ms \
                                 (attempt {}/{})",
                                w.rank,
                                if injected {
                                    "died from an injected fault".to_string()
                                } else {
                                    format!("crashed ({status})")
                                },
                                delay.as_secs_f64() * 1e3,
                                w.respawns + 1,
                                p.max_restarts,
                            );
                            std::thread::sleep(delay);
                            w.respawns += 1;
                            match spawn_worker(&ctx.exe, &ctx.args, w.rank, &ctx.addr, w.respawns) {
                                Ok(child) => {
                                    w.child = child;
                                    pending = true;
                                }
                                Err(e) => {
                                    eprintln!("cluster: respawn of rank {} failed: {e}", w.rank);
                                    w.done = Some(WorkerOutcome::Failed);
                                }
                            }
                        }
                        None => {
                            if ctx.policy.is_some() && !stop_respawn.load(Ordering::SeqCst) {
                                eprintln!(
                                    "cluster: worker rank {} exhausted its restart budget; \
                                     survivors degrade around it",
                                    w.rank
                                );
                            }
                            w.done = Some(death);
                        }
                    }
                }
            }
        }
        if !pending && workers.iter().all(|w| w.done.is_some()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    workers.into_iter().map(|w| w.done.unwrap()).collect()
}

/// Worker side of a multi-process run: dial the rendezvous as `rank`,
/// run the rank program, and report how it ended. An injected
/// [`SimulatedCrash`] is caught and returned as
/// [`WorkerOutcome::Killed`] (the caller should exit with
/// [`KILLED_EXIT_CODE`]); any other panic is resumed.
///
/// In a recovering cluster (`recover`) a first life (`respawns == 0`)
/// dials the rendezvous with re-admission enabled; a replacement life
/// re-binds its rank id in the existing mesh and resumes from its own
/// newest checkpoint (the rank engine reads `respawns` out of the
/// config). Kills already spent on earlier lives are disarmed so the
/// replacement does not immediately re-die.
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
    recover: bool,
    respawns: u64,
) -> Result<WorkerOutcome, DeepThermoError> {
    let transport = match (recover, respawns) {
        (false, _) => TcpTransport::connect(rendezvous, rank, size),
        (true, 0) => TcpTransport::connect_recovering(rendezvous, rank, size),
        (true, _) => TcpTransport::reconnect(rendezvous, rank, size),
    }
    .map_err(|e| cluster_err(&format!("rank {rank} dial rendezvous {rendezvous}"), e))?;
    install_crash_hook();
    let comm = Communicator::new(transport, plan.disarm_kills(rank, respawns));
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
        assert_eq!(ClusterSpec::parse("tcp:4"), Ok(ClusterSpec { size: 4 }));
        assert!(ClusterSpec::parse("tcp:1").is_err());
        assert!(ClusterSpec::parse("tcp:").is_err());
        assert!(ClusterSpec::parse("mpi:4").is_err());
        assert!(ClusterSpec::parse("4").is_err());
    }

    #[test]
    fn cluster_spec_must_match_the_sampling_plan() {
        let runner = DeepThermo::nbmotaw(crate::DeepThermoConfig::quick_demo()).unwrap();
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
        assert!(parse_kill("3:5").is_ok());
        assert!(parse_kill("3").is_err());
        assert!(parse_kill("a:5").is_err());
        assert!(parse_kill("3:b").is_err());
    }
}
