//! The `deepthermo` command-line interface.
//!
//! Run `deepthermo help` for the full usage text. Modes:
//!
//! * `run` — execute the full pipeline on equiatomic NbMoTaW and write
//!   `thermo.csv`, `dos.csv`, `sro.csv`, and `summary.txt` into `--out`.
//!   With `--checkpoint DIR` the cluster snapshots itself as it runs and
//!   a rerun resumes from the newest consistent snapshot. With
//!   `--telemetry` it records per-rank phase timings. With
//!   `--export-artifact DIR` the converged run is also exported into a
//!   serving registry.
//! * `info` — print the configured material and sampling plan.
//! * `serve` — load an artifact registry and answer thermodynamics
//!   queries over HTTP until `POST /v1/shutdown` (see DESIGN.md,
//!   "Serving architecture"). With `--shards N` the process becomes a
//!   router and re-executes itself as N shard processes, each serving a
//!   disjoint consistent-hash slice of the registry (DESIGN.md,
//!   "Serving fleet").
//! * `route` / `shard` — the two fleet tiers as standalone modes, for
//!   deployments where shards run on their own hosts: `route` binds the
//!   rendezvous and fronts the fleet, `shard` dials in as one rank.
//! * `fixture` — write a synthetic demo artifact into a registry, so
//!   `serve` can be exercised without a converged run.
//!
//! Pipeline failures (inconsistent flags, a dead root rank, unreadable
//! checkpoint directories) are rendered with their full error chain and
//! exit nonzero instead of panicking.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use deepthermo::cluster::{self, ClusterSpec, RecoveryPolicy, WorkerOutcome};
use deepthermo::hamiltonian::Material;
use deepthermo::hpc::{FaultEvent, FaultPlan, TcpRendezvous, TcpTransport};
use deepthermo::rewl::{CheckpointSpec, DeepSpec, KernelSpec};
use deepthermo::{DeepThermo, DeepThermoConfig, DeepThermoError, DeepThermoReport, MaterialSpec};
use dt_serve::{
    run_shard, ArtifactRegistry, Router, RouterConfig, ServeConfig, Server, ShardConfig,
};

/// Hidden flag carrying a shard's rank when `serve --shards N` re-execs
/// itself as the shard tier (mirrors [`cluster::WORKER_RANK_FLAG`]).
const SHARD_RANK_FLAG: &str = "--shard-rank";

const USAGE: &str = "\
deepthermo — deep-learning accelerated parallel Monte Carlo for HEA thermodynamics

usage: deepthermo <mode> [flags]

modes:
  run       Sample the configured material and write thermo/DOS/SRO curves.
  info      Print the configured material and sampling plan.
  serve     Serve converged artifacts over an HTTP/JSON API; with
            --shards N, boot a sharded fleet (router + N shard
            processes) instead of a single server.
  route     Run only the router tier of a fleet, rendezvousing with
            externally launched shards.
  shard     Run one shard of a fleet, dialing a router's rendezvous.
  fixture   Write a synthetic demo artifact into a registry.
  help      Show this message.

run / info flags:
  --material NAME|PATH   alloy system: a registry name (nbmotaw, crconi)
                         or a path to a `dtmat v1` material file
                                                      (default nbmotaw)
  --l N                  supercell edge in unit cells (default 3)
  --kernel K             deep | local | random        (default deep)
  --seed S               master RNG seed              (default 2023)
  --windows N            REWL energy windows          (default 2)
  --walkers N            walkers per window           (default 2)
  --bins N               global energy bins           (default 16·L², ≤512)
  --lnf X                final ln f target            (default 1e-4)
  --max-sweeps N         sweeps budget per walker     (default 300000)
  --tmin K --tmax K      temperature range            (default 100..3000)
  --tpoints N            temperature grid points      (default 100)
  --out DIR              output directory             (default deepthermo-out)
  --checkpoint DIR       snapshot into DIR and resume from it on rerun
  --export-artifact DIR  also export the run into a serving registry
  --telemetry            record per-rank phase timings
  --adaptive-windows     place window boundaries by equal estimated
                         diffusion cost (cheap pilot pass) instead of
                         equal widths
  --rebalance-every N    reassign walkers from fast windows to slow ones
                         every N exchange rounds      (default 0 = off)
  --cluster tcp:N        run N ranks as separate processes over loopback
                         TCP (N must equal windows x walkers); the result
                         is bit-identical to the in-process run
  --kill R:ROUND         (with --cluster) crash rank R at exchange round
                         ROUND; without --recover the survivors degrade
                         around it, the one mode whose result differs
                         from a fault-free run
  --recover              (with --cluster) fail-stop + restart: the first
                         lost rank stops the cluster, and every rank
                         restarts from the newest complete checkpoint
                         (taken every 10 rounds) — the run ends
                         bit-identical to a fault-free one, or with an
                         error, never degraded
  --max-restarts N       (with --recover) whole-cluster restarts allowed;
                         one more death is an error     (default 3)
  --chaos-seed S         (with --cluster) deterministic multi-fault
                         schedule (kill + message drops/delays) derived
                         entirely from S; recorded into the checkpoint
                         manifest and verified on resume
  --chaos-rounds N       (with --chaos-seed) rounds the schedule spans
                                                        (default 20)

serve flags:
  --registry DIR         artifact registry to load    (default deepthermo-registry)
  --addr HOST:PORT       listen address               (default 127.0.0.1:8080)
  --serve-workers N      worker threads               (default 4)
  --queue-depth N        bounded admission queue      (default 128)
  --cache N              /v1/thermo LRU cache entries (default 256)
  --shards N             boot a fleet: this process becomes the router
                         and re-executes itself as N shard processes,
                         each owning a disjoint hash-ring slice of the
                         registry                     (default 0 = single server)

route flags (plus the serve flags above, minus --registry):
  --rendezvous HOST:PORT address to bind for shard registration (required)
  --shards N             how many shards will dial in (required)

shard flags:
  --rendezvous HOST:PORT router rendezvous to dial    (required)
  --rank R               this shard's rank, 1..=N     (required)
  --shards N             fleet shard count            (required)
  --registry DIR         artifact registry to load    (default deepthermo-registry)
  --serve-workers N      worker threads               (default 2)
  --cache N              /v1/thermo LRU cache entries (default 256)

fixture flags:
  --registry DIR         registry to write into       (default deepthermo-registry)
  --tag NAME             artifact id suffix (fixture-NAME) (default demo)

endpoints (serve/route): GET /healthz /metrics /v1/artifacts,
POST /v1/thermo /v1/sro /v1/predict /v1/shutdown — see DESIGN.md.
";

fn arg<T: std::str::FromStr>(flag: &str, default: T) -> T {
    std::env::args()
        .skip_while(|a| a != flag)
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn opt_arg(flag: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != flag).nth(1)
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Render a pipeline error with its full source chain.
fn render_error(e: &DeepThermoError) {
    eprintln!("error: {e}");
    let mut source = std::error::Error::source(e);
    while let Some(cause) = source {
        eprintln!("  caused by: {cause}");
        source = cause.source();
    }
}

fn main() -> ExitCode {
    // A worker process re-launched by `--cluster` carries hidden flags;
    // it runs its rank silently and never touches the filesystem.
    if opt_arg(cluster::WORKER_RANK_FLAG).is_some() {
        return worker();
    }
    // Likewise for a shard process re-launched by `serve --shards N`.
    if opt_arg(SHARD_RANK_FLAG).is_some() {
        return shard_child();
    }
    let mode = std::env::args().nth(1).unwrap_or_default();
    match mode.as_str() {
        "run" => run(),
        "info" => info(),
        "serve" => serve(),
        "route" => route_mode(),
        "shard" => shard_mode(),
        "fixture" => write_fixture(),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        "" => {
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
        other => {
            eprintln!("unknown mode {other:?}\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Load the `--registry` directory, with a populate hint on failure.
fn load_registry() -> Result<ArtifactRegistry, ExitCode> {
    let registry_dir = arg("--registry", "deepthermo-registry".to_string());
    let registry = ArtifactRegistry::open(&registry_dir).map_err(|e| {
        eprintln!("error: {e}");
        eprintln!("  (populate a registry with `deepthermo run --export-artifact {registry_dir}` or `deepthermo fixture --registry {registry_dir}`)");
        ExitCode::FAILURE
    })?;
    if registry.is_empty() {
        eprintln!("warning: registry {registry_dir} holds no artifacts; only /healthz and /metrics will be useful");
    }
    Ok(registry)
}

/// The HTTP front-door configuration shared by `serve` and `route`.
fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: arg("--addr", "127.0.0.1:8080".to_string()),
        workers: arg("--serve-workers", 4),
        queue_depth: arg("--queue-depth", 128),
        cache_capacity: arg("--cache", 256),
        ..ServeConfig::default()
    }
}

fn print_serve_stats(stats: &dt_serve::ServeStats) {
    println!(
        "drained: {} requests handled, {} connections admitted, {} rejected (429), {} deadline-expired (503), {} handler panics",
        stats.requests_handled,
        stats.connections_admitted,
        stats.queue_rejections,
        stats.deadline_expired,
        stats.handler_panics
    );
}

fn serve() -> ExitCode {
    let shards: usize = arg("--shards", 0);
    if shards > 0 {
        return serve_fleet(shards);
    }
    let registry = match load_registry() {
        Ok(r) => r,
        Err(code) => return code,
    };
    let loaded: Vec<String> = registry.ids().iter().map(|s| s.to_string()).collect();
    let handle = match Server::start(registry, serve_config()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "deepthermo serve: listening on http://{} ({} artifacts: {})",
        handle.local_addr(),
        loaded.len(),
        loaded.join(", ")
    );
    println!(
        "stop with: curl -X POST http://{}/v1/shutdown",
        handle.local_addr()
    );
    let stats = handle.join();
    print_serve_stats(&stats);
    ExitCode::SUCCESS
}

/// `serve --shards N`: become the router and re-execute this binary as
/// `N` shard processes, exactly like `run --cluster` re-executes its
/// workers. Each shard loads the same `--registry` and keeps only its
/// hash-ring slice; the router consistent-hashes requests across them.
fn serve_fleet(shards: usize) -> ExitCode {
    // Validate the registry up front for a friendly error, even though
    // only the shard processes actually serve from it.
    let registry = match load_registry() {
        Ok(r) => r,
        Err(code) => return code,
    };
    let rendezvous = match TcpRendezvous::bind("127.0.0.1:0") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot bind shard rendezvous: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendezvous_addr = match rendezvous.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => {
            eprintln!("error: cannot read rendezvous address: {e}");
            return ExitCode::FAILURE;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let passthrough: Vec<String> = std::env::args().skip(1).collect();
    let mut children = Vec::with_capacity(shards);
    for rank in 1..=shards {
        let spawned = std::process::Command::new(&exe)
            .args(&passthrough)
            .arg(SHARD_RANK_FLAG)
            .arg(rank.to_string())
            .arg(cluster::RENDEZVOUS_FLAG)
            .arg(&rendezvous_addr)
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                eprintln!("error: cannot spawn shard {}: {e}", rank - 1);
                for mut c in children {
                    let _ = c.kill();
                }
                return ExitCode::FAILURE;
            }
        }
    }
    let transport = match rendezvous.into_transport(shards + 1) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: fleet rendezvous failed: {e}");
            for mut c in children {
                let _ = c.kill();
            }
            return ExitCode::FAILURE;
        }
    };
    let config = RouterConfig {
        serve: serve_config(),
        ..RouterConfig::default()
    };
    let handle = match Router::start(transport, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            for mut c in children {
                let _ = c.kill();
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "deepthermo serve: router on http://{} fronting {shards} shard processes ({} artifacts sliced by consistent hashing)",
        handle.local_addr(),
        registry.len()
    );
    println!(
        "stop with: curl -X POST http://{}/v1/shutdown  (drains every shard first)",
        handle.local_addr()
    );
    let stats = handle.join();
    print_serve_stats(&stats);
    let mut failures = 0;
    for (shard, mut child) in children.into_iter().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("warning: shard {shard} exited abnormally: {status}");
                failures += 1;
            }
            Err(e) => {
                eprintln!("warning: cannot reap shard {shard}: {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Entry point of a shard process re-launched by `serve --shards N`:
/// dial the rendezvous, serve our ring slice, exit when drained.
fn shard_child() -> ExitCode {
    let (Some(rank), Some(addr)) = (
        opt_arg(SHARD_RANK_FLAG).and_then(|v| v.parse::<usize>().ok()),
        opt_arg(cluster::RENDEZVOUS_FLAG),
    ) else {
        eprintln!("error: malformed shard invocation (these flags are internal)");
        return ExitCode::FAILURE;
    };
    let shards: usize = arg("--shards", 0);
    run_shard_process(rank, shards + 1, &addr, false)
}

/// `shard` mode: one externally managed shard of a fleet whose router
/// runs `deepthermo route` (or `serve --shards` on another host).
fn shard_mode() -> ExitCode {
    let Some(addr) = opt_arg(cluster::RENDEZVOUS_FLAG) else {
        eprintln!("error: shard mode needs --rendezvous HOST:PORT (the router's rendezvous)");
        return ExitCode::FAILURE;
    };
    let rank: usize = arg("--rank", 0);
    let shards: usize = arg("--shards", 0);
    if rank == 0 || shards == 0 || rank > shards {
        eprintln!("error: shard mode needs --rank R in 1..=N and --shards N");
        return ExitCode::FAILURE;
    }
    run_shard_process(rank, shards + 1, &addr, true)
}

fn run_shard_process(rank: usize, size: usize, addr: &str, verbose: bool) -> ExitCode {
    let registry = match load_registry() {
        Ok(r) => r,
        Err(code) => return code,
    };
    let transport = match TcpTransport::connect(addr, rank, size) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: shard rank {rank} cannot join the fleet at {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = ShardConfig {
        workers: arg("--serve-workers", 2),
        cache_capacity: arg("--cache", 256),
        ..ShardConfig::default()
    };
    if verbose {
        println!("shard {}: joined fleet at {addr} as rank {rank}", rank - 1);
    }
    match run_shard(transport, registry, &config) {
        Ok(stats) => {
            if verbose {
                println!(
                    "shard {} drained: {} artifacts owned, {} requests handled, {} handler panics",
                    rank - 1,
                    stats.artifacts,
                    stats.requests_handled,
                    stats.handler_panics
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `route` mode: only the router tier. Binds the rendezvous at the
/// given address, waits for `--shards N` externally launched shards to
/// dial in, then opens the HTTP front door.
fn route_mode() -> ExitCode {
    let Some(addr) = opt_arg(cluster::RENDEZVOUS_FLAG) else {
        eprintln!("error: route mode needs --rendezvous HOST:PORT to bind for shard registration");
        return ExitCode::FAILURE;
    };
    let shards: usize = arg("--shards", 0);
    if shards == 0 {
        eprintln!("error: route mode needs --shards N (how many shards will dial in)");
        return ExitCode::FAILURE;
    }
    let rendezvous = match TcpRendezvous::bind(&addr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot bind rendezvous {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("route: waiting for {shards} shards at {addr} (start them with `deepthermo shard --rendezvous {addr} --shards {shards} --rank R`)");
    let transport = match rendezvous.into_transport(shards + 1) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: fleet rendezvous failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = RouterConfig {
        serve: serve_config(),
        ..RouterConfig::default()
    };
    let handle = match Router::start(transport, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "route: router on http://{} fronting {shards} shards",
        handle.local_addr()
    );
    let stats = handle.join();
    print_serve_stats(&stats);
    ExitCode::SUCCESS
}

fn write_fixture() -> ExitCode {
    let registry_dir = arg("--registry", "deepthermo-registry".to_string());
    let tag = arg("--tag", "demo".to_string());
    let artifact = dt_serve::fixture::fixture_artifact(&tag);
    match artifact.save(&registry_dir) {
        Ok(dir) => {
            println!(
                "wrote fixture artifact {} to {}",
                artifact.manifest.id,
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn build_config() -> Result<DeepThermoConfig, DeepThermoError> {
    let l: usize = arg("--l", 3);
    let material = Material::resolve(&arg("--material", "nbmotaw".to_string()))
        .map_err(DeepThermoError::from)?;
    let mut cfg = DeepThermoConfig::quick_demo().with_seed(arg("--seed", 2023));
    cfg.material = MaterialSpec::new(material, l);
    cfg.rewl.num_windows = arg("--windows", 2);
    cfg.rewl.walkers_per_window = arg("--walkers", 2);
    cfg.rewl.num_bins = arg("--bins", (16 * l * l).min(512));
    cfg.rewl.wl.ln_f_final = arg("--lnf", 1e-4);
    cfg.rewl.max_sweeps = arg("--max-sweeps", 300_000u64);
    cfg.temperatures = dt_thermo::temperature_grid(
        arg("--tmin", 100.0),
        arg("--tmax", 3000.0),
        arg("--tpoints", 100),
    );
    let kernel: String = arg("--kernel", "deep".to_string());
    cfg.rewl.kernel = match kernel.as_str() {
        "local" => KernelSpec::LocalSwap,
        "random" => KernelSpec::RandomGlobal {
            k: arg("--k", 12),
            weight: 0.2,
        },
        _ => KernelSpec::Deep(Box::new(DeepSpec {
            proposal: deepthermo::proposal::DeepProposalConfig {
                k: arg("--k", 12),
                hidden: vec![32, 32],
            },
            deep_weight: 0.15,
            ..DeepSpec::default()
        })),
    };
    cfg.rewl.recovery = has_flag("--recover");
    cfg.rewl.adaptive_windows = has_flag("--adaptive-windows");
    cfg.rewl.rebalance_every = arg("--rebalance-every", 0u64);
    Ok(cfg.with_telemetry(has_flag("--telemetry")))
}

/// A restart resumes from a checkpoint; when `--recover` is on and no
/// `--checkpoint` was given, every process of the cluster derives the
/// same default directory under `--out`.
fn apply_recovery_defaults(cfg: &mut DeepThermoConfig) {
    if cfg.rewl.recovery && cfg.rewl.checkpoint.is_none() {
        let out = arg("--out", "deepthermo-out".to_string());
        cfg.rewl.checkpoint = Some(CheckpointSpec::new(PathBuf::from(out).join("checkpoints")));
    }
}

fn info() -> ExitCode {
    let runner = match build_config().and_then(DeepThermo::from_material) {
        Ok(r) => r,
        Err(e) => {
            render_error(&e);
            return ExitCode::FAILURE;
        }
    };
    let comp = runner.composition();
    let mat = runner.config().material.material();
    println!(
        "material: {} ({}) on {}",
        mat.display_name(),
        mat.composition_summary(),
        mat.structure().name().to_uppercase()
    );
    println!(
        "species: {}",
        mat.species()
            .iter()
            .map(|(_, name)| name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("shells: {}", mat.num_shells());
    println!("sites: {}", comp.num_sites());
    println!(
        "configuration space: e^{:.1} states",
        comp.ln_num_configurations()
    );
    println!(
        "windows x walkers: {} x {}",
        runner.config().rewl.num_windows,
        runner.config().rewl.walkers_per_window
    );
    println!("kernel: {}", runner.config().rewl.kernel.label());
    ExitCode::SUCCESS
}

/// In cluster mode every process must hold the same checkpoint spec in
/// its config *before* sampling starts (there is no shared
/// `run_resumable` call to inject it), so `--checkpoint` is applied to
/// the config directly.
fn apply_cluster_checkpoint(cfg: &mut DeepThermoConfig) {
    if let Some(dir) = opt_arg("--checkpoint") {
        if cfg.rewl.checkpoint.is_none() {
            cfg.rewl.checkpoint = Some(CheckpointSpec::new(dir));
        }
    }
}

/// The fault plan shared by every process of a cluster run: a seeded
/// chaos schedule (when `--chaos-seed` is given), plus any explicit
/// `--kill` event. A rank of a restarted life (nonzero
/// [`cluster::RESPAWN_COUNT_FLAG`]) replays fault-free.
fn cluster_fault_plan(size: usize) -> Result<FaultPlan, DeepThermoError> {
    if arg(cluster::RESPAWN_COUNT_FLAG, 0u64) > 0 {
        return Ok(FaultPlan::none());
    }
    let mut plan = match opt_arg("--chaos-seed") {
        Some(v) => {
            let seed: u64 = v.parse().map_err(|_| DeepThermoError::Cluster {
                message: format!("bad --chaos-seed value {v:?} (expected an integer)"),
            })?;
            FaultPlan::chaos(seed, size, arg("--chaos-rounds", 20u64))
        }
        None => FaultPlan::none(),
    };
    if let Some(v) = opt_arg("--kill") {
        let kill = cluster::parse_kill(&v, size)
            .map_err(|message| DeepThermoError::Cluster { message })?;
        for e in kill.events() {
            if let FaultEvent::KillAtRound { rank, round } = e {
                plan = plan.kill_at_round(*rank, *round);
            }
        }
    }
    Ok(plan)
}

/// Entry point of a `--worker-rank` process: dial the rendezvous, run
/// one rank, exit. A simulated crash exits with a reserved code so the
/// root can tell it apart from a real failure.
fn worker() -> ExitCode {
    let (rank, rendezvous, spec) = match (
        opt_arg(cluster::WORKER_RANK_FLAG).and_then(|v| v.parse::<usize>().ok()),
        opt_arg(cluster::RENDEZVOUS_FLAG),
        opt_arg("--cluster").map(|v| ClusterSpec::parse(&v)),
    ) {
        (Some(rank), Some(addr), Some(Ok(spec))) => (rank, addr, spec),
        _ => {
            eprintln!("error: malformed worker invocation (these flags are internal)");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = match build_config() {
        Ok(c) => c,
        Err(e) => {
            render_error(&e);
            return ExitCode::FAILURE;
        }
    };
    apply_cluster_checkpoint(&mut cfg);
    apply_recovery_defaults(&mut cfg);
    let plan = match cluster_fault_plan(spec.size) {
        Ok(p) => p,
        Err(e) => {
            render_error(&e);
            return ExitCode::FAILURE;
        }
    };
    let runner = match DeepThermo::from_material(cfg) {
        Ok(r) => r,
        Err(e) => {
            render_error(&e);
            return ExitCode::FAILURE;
        }
    };
    let outcome = cluster::run_cluster_worker(&runner, rank, spec.size, &rendezvous, plan);
    match outcome {
        Ok(WorkerOutcome::Killed) => ExitCode::from(cluster::KILLED_EXIT_CODE),
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            render_error(&e);
            ExitCode::FAILURE
        }
    }
}

/// Root side of `run --cluster`: spawn the workers, run rank 0, report
/// per-worker outcomes.
fn run_cluster(
    runner: &DeepThermo,
    spec: ClusterSpec,
) -> Result<DeepThermoReport, DeepThermoError> {
    let plan = cluster_fault_plan(spec.size)?;
    let worker_args: Vec<String> = std::env::args().skip(1).collect();
    println!(
        "cluster: {} ranks as separate processes over loopback TCP (this process is rank 0)",
        spec.size
    );
    let policy = runner.config().rewl.recovery.then(|| RecoveryPolicy {
        max_restarts: arg("--max-restarts", 3u64),
        ..RecoveryPolicy::default()
    });
    if let Some(policy) = &policy {
        println!(
            "recovery: supervising the cluster (budget {} whole-cluster restarts)",
            policy.max_restarts
        );
    }
    let (report, outcomes) = cluster::run_cluster_root(runner, spec, plan, &worker_args, policy)?;
    for (rank, outcome) in outcomes.iter().enumerate() {
        let who = if rank == 0 { "root" } else { "worker" };
        match outcome {
            WorkerOutcome::Completed => {}
            WorkerOutcome::Killed => {
                println!("{who} rank {rank} died from the injected fault; survivors degraded")
            }
            WorkerOutcome::Failed => eprintln!("warning: {who} rank {rank} exited abnormally"),
            WorkerOutcome::Recovered { respawns } => {
                println!("{who} rank {rank} recovered after {respawns} supervised respawn(s)")
            }
        }
    }
    Ok(report)
}

fn run() -> ExitCode {
    let out_dir: PathBuf = PathBuf::from(arg("--out", "deepthermo-out".to_string()));
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let cluster_spec = match opt_arg("--cluster").map(|v| ClusterSpec::parse(&v)) {
        Some(Ok(spec)) => Some(spec),
        Some(Err(msg)) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let mut cfg = match build_config() {
        Ok(c) => c,
        Err(e) => {
            render_error(&e);
            return ExitCode::FAILURE;
        }
    };
    if cluster_spec.is_some() {
        apply_cluster_checkpoint(&mut cfg);
        apply_recovery_defaults(&mut cfg);
        if let Some(spec) = cfg.rewl.checkpoint.as_ref().filter(|_| cfg.rewl.recovery) {
            println!(
                "recovery: checkpointing every {} rounds into {} (a lost rank restarts every \
                 rank from the newest complete snapshot)",
                spec.every_rounds,
                spec.dir.display()
            );
        }
    } else if cfg.rewl.recovery {
        eprintln!("warning: --recover only applies to --cluster runs; ignoring");
        cfg.rewl.recovery = false;
    }
    println!(
        "deepthermo: {} N={}, kernel={}, {} windows x {} walkers, seed {}",
        cfg.material.material().display_name(),
        cfg.material.num_sites(),
        cfg.rewl.kernel.label(),
        cfg.rewl.num_windows,
        cfg.rewl.walkers_per_window,
        cfg.rewl.seed
    );
    let start = std::time::Instant::now();
    let runner = match DeepThermo::from_material(cfg) {
        Ok(r) => r,
        Err(e) => {
            render_error(&e);
            return ExitCode::FAILURE;
        }
    };
    let outcome = match (cluster_spec, opt_arg("--checkpoint")) {
        (Some(spec), dir) => {
            if let Some(dir) = dir {
                println!("checkpointing into {dir} (reruns resume from the newest snapshot)");
            }
            run_cluster(&runner, spec)
        }
        (None, Some(dir)) => {
            println!("checkpointing into {dir} (reruns resume from the newest snapshot)");
            runner.run_resumable(dir)
        }
        (None, None) => runner.run(),
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            render_error(&e);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "sampling finished in {:.1} s ({} total moves)",
        start.elapsed().as_secs_f64(),
        report.total_moves
    );
    print!("{}", report.summary());
    if !report.telemetry.is_empty() {
        println!("{}", report.phase_table());
    }

    let write = |name: &str, contents: String| -> std::io::Result<()> {
        fs::write(out_dir.join(name), contents)
    };
    let mut result = write("thermo.csv", report.thermo_csv())
        .and_then(|()| write("dos.csv", report.dos_csv()))
        .and_then(|()| write("sro.csv", report.sro_csv()))
        .and_then(|()| write("summary.txt", report.summary()));
    let mut written = "thermo.csv, dos.csv, sro.csv, summary.txt".to_string();
    if !report.telemetry.is_empty() {
        result = result.and_then(|()| write("telemetry.jsonl", report.telemetry_jsonl()));
        written.push_str(", telemetry.jsonl");
    }
    if let Some(registry_dir) = opt_arg("--export-artifact") {
        match runner.export_artifact(&report, &registry_dir) {
            Ok(dir) => println!("exported serving artifact to {}", dir.display()),
            Err(e) => {
                render_error(&e);
                return ExitCode::FAILURE;
            }
        }
    }
    match result {
        Ok(()) => {
            println!("wrote {written} to {}", out_dir.display());
            if !report.converged {
                eprintln!("warning: run hit max sweeps before ln f target");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write outputs: {e}");
            ExitCode::FAILURE
        }
    }
}
