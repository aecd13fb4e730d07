//! The `deepthermo` command-line interface: `run` and `info` sample a
//! material, `serve`, `route` and `shard` answer thermodynamics queries
//! over converged artifacts (DESIGN.md, "Serving architecture" and
//! "Serving fleet"), and `fixture` writes a demo artifact.
//!
//! [`MODES`] and [`FLAGS`] are the whole interface: the flag table,
//! read through [`deepthermo::cli`], is the only code that reads argv,
//! and `deepthermo help` is rendered from the two. A mode's flags are
//! parsed strictly before any work — an unknown flag, a flag without
//! its value, a value that does not parse or an unknown kernel is an
//! error. Every mode returns `Result<(), DeepThermoError>`; `main`
//! renders the error with its full source chain and exits nonzero.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use deepthermo::cli::{self, Args, Flag, Mode};
use deepthermo::cluster::{self, cluster_err, ClusterSpec, WorkerOutcome};
use deepthermo::hamiltonian::Material;
use deepthermo::hpc::{FaultPlan, TcpRendezvous, TcpTransport};
use deepthermo::proposal::DeepProposalConfig;
use deepthermo::rewl::{CheckpointSpec, DeepSpec, KernelSpec};
use deepthermo::{
    ConfigError, DeepThermo, DeepThermoConfig, DeepThermoError, DeepThermoReport, MaterialSpec,
};
use dt_serve::{
    run_shard, ArtifactRegistry, Router, RouterConfig, ServeConfig, ServeHandle, ServeStats,
    Server, ShardConfig,
};

/// Hidden flag carrying a shard's rank when `serve --shards N` re-execs
/// itself as the shard tier (mirrors [`cluster::WORKER_RANK_FLAG`]).
const SHARD_RANK_FLAG: &str = "--shard-rank";

// The modes, as bits of `Flag::modes`.
const RUN: u32 = 1;
const INFO: u32 = 1 << 1;
const SERVE: u32 = 1 << 2;
const ROUTE: u32 = 1 << 3;
const SHARD: u32 = 1 << 4;
const FIXTURE: u32 = 1 << 5;

/// Every mode: its name, its bit, and its line of `help`.
#[rustfmt::skip]
const MODES: &[Mode] = &[
    ("run", RUN, "Sample the configured material and write thermo/DOS/SRO curves."),
    ("info", INFO, "Print the configured material and sampling plan."),
    ("serve", SERVE, "Serve converged artifacts over an HTTP/JSON API; with --shards N, boot a sharded fleet (router + N shard processes) instead of a single server."),
    ("route", ROUTE, "Run only the router tier of a fleet, rendezvousing with externally launched shards."),
    ("shard", SHARD, "Run one shard of a fleet, dialing a router's rendezvous."),
    ("fixture", FIXTURE, "Write a synthetic demo artifact into a registry."),
];

/// Every flag the binary reads, in `help` order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { modes: RUN | INFO, name: "--material", metavar: "NAME|PATH", default: "nbmotaw", help: "alloy system: a registry name (nbmotaw, crconi) or a path to a `dtmat v1` material file" },
    Flag { modes: RUN | INFO, name: "--l", metavar: "N", default: "3", help: "supercell edge in unit cells" },
    Flag { modes: RUN | INFO, name: "--kernel", metavar: "deep|local|random", default: "deep", help: "proposal kernel" },
    Flag { modes: RUN | INFO, name: "--k", metavar: "N", default: "12", help: "sites per deep or random global update" },
    Flag { modes: RUN | INFO, name: "--seed", metavar: "S", default: "2023", help: "master RNG seed" },
    Flag { modes: RUN | INFO, name: "--windows", metavar: "N", default: "2", help: "REWL energy windows" },
    Flag { modes: RUN | INFO, name: "--walkers", metavar: "N", default: "2", help: "walkers per window" },
    Flag { modes: RUN | INFO, name: "--bins", metavar: "N", default: "", help: "global energy bins (default 16·L², at most 512)" },
    Flag { modes: RUN | INFO, name: "--lnf", metavar: "X", default: "1e-4", help: "final ln f target" },
    Flag { modes: RUN | INFO, name: "--max-sweeps", metavar: "N", default: "300000", help: "sweeps budget per walker" },
    Flag { modes: RUN | INFO, name: "--tmin", metavar: "K", default: "100", help: "lowest temperature of the curves" },
    Flag { modes: RUN | INFO, name: "--tmax", metavar: "K", default: "3000", help: "highest temperature of the curves" },
    Flag { modes: RUN | INFO, name: "--tpoints", metavar: "N", default: "100", help: "temperature grid points" },
    Flag { modes: RUN | INFO, name: "--adaptive-windows", metavar: "", default: "", help: "place window boundaries by equal estimated diffusion cost (cheap pilot pass) instead of equal widths" },
    Flag { modes: RUN | INFO, name: "--rebalance-every", metavar: "N", default: "0", help: "reassign walkers from fast windows to slow ones every N exchange rounds; 0 = off" },
    Flag { modes: RUN, name: "--out", metavar: "DIR", default: "deepthermo-out", help: "output directory" },
    Flag { modes: RUN, name: "--checkpoint", metavar: "DIR", default: "", help: "snapshot into DIR and resume from it on rerun" },
    Flag { modes: RUN, name: "--export-artifact", metavar: "DIR", default: "", help: "also export the run into a serving registry" },
    Flag { modes: RUN, name: "--telemetry", metavar: "", default: "", help: "record per-rank phase timings" },
    Flag { modes: RUN, name: "--cluster", metavar: "tcp:N", default: "", help: "run N ranks as separate processes over loopback TCP (N must equal windows x walkers); the result is bit-identical to the in-process run" },
    Flag { modes: RUN, name: "--kill", metavar: "R:ROUND", default: "", help: "(with --cluster) crash rank R at exchange round ROUND; the run stops with an error naming the newest complete checkpoint, or restarts under --recover" },
    Flag { modes: RUN, name: "--recover", metavar: "", default: "", help: "(with --cluster) restart: the first lost rank stops the cluster, and every rank restarts from the newest complete checkpoint (every 10 rounds, into --checkpoint or OUT/checkpoints) — the run ends bit-identical to a fault-free one, or with an error" },
    Flag { modes: RUN, name: "--max-restarts", metavar: "N", default: "3", help: "(with --recover) whole-cluster restarts allowed; one more death is an error" },
    Flag { modes: RUN, name: "--chaos-seed", metavar: "S", default: "", help: "(with --cluster) deterministic multi-fault schedule (kill + message drops/delays) derived entirely from S; recorded into every checkpoint snapshot and verified on resume" },
    Flag { modes: RUN, name: "--chaos-rounds", metavar: "N", default: "20", help: "(with --chaos-seed) rounds the schedule spans" },
    Flag { modes: RUN, name: cluster::WORKER_RANK_FLAG, metavar: "R", default: "", help: "" },
    Flag { modes: RUN, name: cluster::RESPAWN_COUNT_FLAG, metavar: "G", default: "0", help: "" },
    Flag { modes: RUN | SERVE, name: cluster::RENDEZVOUS_FLAG, metavar: "HOST:PORT", default: "", help: "" },
    Flag { modes: SERVE, name: SHARD_RANK_FLAG, metavar: "R", default: "", help: "" },
    Flag { modes: SERVE | ROUTE, name: "--addr", metavar: "HOST:PORT", default: "127.0.0.1:8080", help: "listen address" },
    Flag { modes: SERVE, name: "--serve-workers", metavar: "N", default: "4", help: "worker threads" },
    Flag { modes: SERVE | ROUTE, name: "--queue-depth", metavar: "N", default: "128", help: "bounded admission queue (a router: requests in flight to its shards)" },
    Flag { modes: SERVE | ROUTE | SHARD, name: "--cache", metavar: "N", default: "256", help: "/v1/thermo LRU cache entries" },
    Flag { modes: SERVE | SHARD, name: "--registry", metavar: "DIR", default: "deepthermo-registry", help: "artifact registry to load" },
    Flag { modes: SERVE, name: "--shards", metavar: "N", default: "0", help: "boot a fleet: this process becomes the router and re-executes itself as N shard processes, each owning a disjoint hash-ring slice of the registry; 0 = single server" },
    Flag { modes: ROUTE, name: cluster::RENDEZVOUS_FLAG, metavar: "HOST:PORT", default: "", help: "address to bind for shard registration (required)" },
    Flag { modes: ROUTE, name: "--shards", metavar: "N", default: "", help: "how many shards will dial in (required)" },
    Flag { modes: SHARD, name: cluster::RENDEZVOUS_FLAG, metavar: "HOST:PORT", default: "", help: "router rendezvous to dial (required)" },
    Flag { modes: SHARD, name: "--rank", metavar: "R", default: "", help: "this shard's rank, 1..=N (required)" },
    Flag { modes: SHARD, name: "--shards", metavar: "N", default: "", help: "fleet shard count (required)" },
    Flag { modes: SHARD, name: "--serve-workers", metavar: "N", default: "2", help: "worker threads" },
    Flag { modes: FIXTURE, name: "--registry", metavar: "DIR", default: "deepthermo-registry", help: "registry to write into" },
    Flag { modes: FIXTURE, name: "--tag", metavar: "NAME", default: "demo", help: "artifact id suffix (fixture-NAME)" },
];

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            let mut source = std::error::Error::source(&e);
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = cause.source();
            }
            ExitCode::FAILURE
        }
    }
}

fn dispatch() -> Result<(), DeepThermoError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, flags)) = argv.split_first() else {
        return Err(DeepThermoError::Usage("no mode given".to_string()));
    };
    if matches!(mode.as_str(), "help" | "--help" | "-h") {
        print!(
            "deepthermo — deep-learning accelerated parallel Monte Carlo for HEA \
             thermodynamics\n\nusage: deepthermo <mode> [flags]\n\nmodes:\n{}\n\
             endpoints (serve/route): GET /healthz /metrics /v1/artifacts,\n\
             POST /v1/thermo /v1/sro /v1/predict /v1/shutdown — see DESIGN.md.\n",
            cli::usage(MODES, FLAGS)
        );
        return Ok(());
    }
    let Some(&(_, bit, _)) = MODES.iter().find(|m| m.0 == mode) else {
        return Err(DeepThermoError::Usage(format!("unknown mode {mode:?}")));
    };
    let args = Args::parse(MODES, FLAGS, bit, flags)?;
    match bit {
        RUN if args.has(cluster::WORKER_RANK_FLAG) => worker(&args),
        RUN => run(&args),
        INFO => info(&args),
        SERVE if args.has(SHARD_RANK_FLAG) => shard_child(&args),
        SERVE => serve(&args),
        ROUTE => route_mode(&args),
        SHARD => shard_mode(&args),
        _ => write_fixture(&args),
    }
}

/// Load the `--registry` directory, with a populate hint on failure.
fn load_registry(args: &Args) -> Result<ArtifactRegistry, DeepThermoError> {
    let dir: String = args.get("--registry")?;
    let registry = ArtifactRegistry::open(&dir).inspect_err(|_| {
        eprintln!("hint: populate a registry with `deepthermo run --export-artifact {dir}` or `deepthermo fixture --registry {dir}`");
    })?;
    if registry.is_empty() {
        eprintln!(
            "warning: registry {dir} holds no artifacts; only /healthz and /metrics will be useful"
        );
    }
    Ok(registry)
}

/// The HTTP front-door configuration shared by `serve` and `route`. A
/// router has no workers: `serve --shards N` passes `--serve-workers` on
/// to its shard processes.
fn serve_config(args: &Args) -> Result<ServeConfig, DeepThermoError> {
    Ok(ServeConfig {
        addr: args.get("--addr")?,
        queue_depth: args.get("--queue-depth")?,
        cache_capacity: args.get("--cache")?,
        ..ServeConfig::default()
    })
}

fn print_serve_stats(stats: &ServeStats) {
    println!(
        "drained: {} requests handled, {} connections admitted, {} rejected (429), {} deadline-expired (503), {} handler panics",
        stats.requests_handled,
        stats.connections_admitted,
        stats.queue_rejections,
        stats.deadline_expired,
        stats.handler_panics
    );
}

fn serve(args: &Args) -> Result<(), DeepThermoError> {
    let shards: usize = args.get("--shards")?;
    let mut config = serve_config(args)?;
    let registry = load_registry(args)?;
    if shards > 0 {
        return serve_fleet(&registry, shards, config);
    }
    config.workers = args.get("--serve-workers")?;
    let loaded: Vec<String> = registry.ids().iter().map(|s| s.to_string()).collect();
    let handle = Server::start(registry, config)?;
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
    print_serve_stats(&handle.join());
    Ok(())
}

/// `serve --shards N`: become the router and re-execute this binary as
/// `N` shard processes, exactly like `run --cluster` re-executes its
/// workers. Each shard loads the same `--registry` (validated here for a
/// friendly error) and keeps only its hash-ring slice; the router
/// consistent-hashes requests across them.
fn serve_fleet(
    registry: &ArtifactRegistry,
    shards: usize,
    serve: ServeConfig,
) -> Result<(), DeepThermoError> {
    let rendezvous = TcpRendezvous::bind("127.0.0.1:0")
        .map_err(|e| cluster_err("cannot bind shard rendezvous", e))?;
    let addr = rendezvous
        .local_addr()
        .map_err(|e| cluster_err("cannot read rendezvous address", e))?
        .to_string();
    let exe =
        std::env::current_exe().map_err(|e| cluster_err("cannot locate own executable", e))?;
    let passthrough: Vec<String> = std::env::args().skip(1).collect();
    let mut children = Vec::with_capacity(shards);
    let started = (|| {
        for rank in 1..=shards {
            let child = Command::new(&exe)
                .args(&passthrough)
                .args([SHARD_RANK_FLAG, &rank.to_string()])
                .args([cluster::RENDEZVOUS_FLAG, &addr])
                .spawn()
                .map_err(|e| cluster_err(&format!("cannot spawn shard {}", rank - 1), e))?;
            children.push(child);
        }
        start_router(rendezvous, shards, serve)
    })();
    let handle = started.inspect_err(|_| {
        for child in &mut children {
            let _ = child.kill();
        }
    })?;
    println!(
        "deepthermo serve: router on http://{} fronting {shards} shard processes ({} artifacts sliced by consistent hashing)",
        handle.local_addr(),
        registry.len()
    );
    println!(
        "stop with: curl -X POST http://{}/v1/shutdown  (drains every shard first)",
        handle.local_addr()
    );
    print_serve_stats(&handle.join());
    let mut failed = Vec::new();
    for (shard, mut child) in children.into_iter().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("shard {shard} exited abnormally: {status}")),
            Err(e) => failed.push(format!("cannot reap shard {shard}: {e}")),
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(DeepThermoError::Cluster {
            message: failed.join("; "),
        })
    }
}

/// Wait for `shards` shards to dial `rendezvous`, then open the router's
/// HTTP front door.
fn start_router(
    rendezvous: TcpRendezvous,
    shards: usize,
    serve: ServeConfig,
) -> Result<ServeHandle, DeepThermoError> {
    let transport = rendezvous
        .into_transport(shards + 1)
        .map_err(|e| cluster_err("fleet rendezvous failed", e))?;
    let config = RouterConfig {
        serve,
        ..RouterConfig::default()
    };
    Router::start(transport, config).map_err(DeepThermoError::from)
}

/// Entry point of a shard process re-launched by `serve --shards N`:
/// dial the rendezvous, serve our ring slice, exit when drained. The
/// serve flags it was not given take the shard tier's defaults.
fn shard_child(args: &Args) -> Result<(), DeepThermoError> {
    let rank = args.get(SHARD_RANK_FLAG)?;
    let addr: String = args.get(cluster::RENDEZVOUS_FLAG)?;
    run_shard_process(&args.in_mode(SHARD), rank, &addr, false)
}

/// `shard` mode: one externally managed shard of a fleet whose router
/// runs `deepthermo route` (or `serve --shards` on another host).
fn shard_mode(args: &Args) -> Result<(), DeepThermoError> {
    let addr: String = args.get(cluster::RENDEZVOUS_FLAG)?;
    let rank: usize = args.get("--rank")?;
    if rank == 0 || rank > args.get("--shards")? {
        return Err(DeepThermoError::Usage(
            "--rank R must lie in 1..=N of --shards N".into(),
        ));
    }
    run_shard_process(args, rank, &addr, true)
}

fn run_shard_process(
    args: &Args,
    rank: usize,
    addr: &str,
    verbose: bool,
) -> Result<(), DeepThermoError> {
    let size = args.get::<usize>("--shards")? + 1;
    let config = ShardConfig {
        workers: args.get("--serve-workers")?,
        cache_capacity: args.get("--cache")?,
        ..ShardConfig::default()
    };
    let registry = load_registry(args)?;
    let transport = TcpTransport::connect(addr, rank, size).map_err(|e| {
        cluster_err(
            &format!("shard rank {rank} cannot join the fleet at {addr}"),
            e,
        )
    })?;
    if verbose {
        println!("shard {}: joined fleet at {addr} as rank {rank}", rank - 1);
    }
    let stats = run_shard(transport, registry, &config)?;
    if verbose {
        println!(
            "shard {} drained: {} artifacts owned, {} requests handled, {} handler panics",
            rank - 1,
            stats.artifacts,
            stats.requests_handled,
            stats.handler_panics
        );
    }
    Ok(())
}

/// `route` mode: only the router tier. Binds the rendezvous at the
/// given address, waits for `--shards N` externally launched shards to
/// dial in, then opens the HTTP front door.
fn route_mode(args: &Args) -> Result<(), DeepThermoError> {
    let addr: String = args.get(cluster::RENDEZVOUS_FLAG)?;
    let shards: usize = args.get("--shards")?;
    if shards == 0 {
        return Err(DeepThermoError::Usage(
            "route needs at least one shard".into(),
        ));
    }
    let serve = serve_config(args)?;
    let rendezvous = TcpRendezvous::bind(&addr)
        .map_err(|e| cluster_err(&format!("cannot bind rendezvous {addr}"), e))?;
    println!("route: waiting for {shards} shards at {addr} (start them with `deepthermo shard --rendezvous {addr} --shards {shards} --rank R`)");
    let handle = start_router(rendezvous, shards, serve)?;
    println!(
        "route: router on http://{} fronting {shards} shards",
        handle.local_addr()
    );
    print_serve_stats(&handle.join());
    Ok(())
}

fn write_fixture(args: &Args) -> Result<(), DeepThermoError> {
    let registry: PathBuf = args.get("--registry")?;
    let artifact = dt_serve::fixture::fixture_artifact(&args.get::<String>("--tag")?);
    let dir = artifact.save(&registry)?;
    println!(
        "wrote fixture artifact {} to {}",
        artifact.manifest.id,
        dir.display()
    );
    Ok(())
}

/// The material and sampling plan shared by `run` and `info`.
fn build_config(args: &Args) -> Result<DeepThermoConfig, DeepThermoError> {
    let l: usize = args.get("--l")?;
    let material = Material::resolve(&args.get::<String>("--material")?)?;
    let mut cfg = DeepThermoConfig::quick_demo().with_seed(args.get("--seed")?);
    cfg.material = MaterialSpec::new(material, l);
    cfg.rewl.num_windows = args.get("--windows")?;
    cfg.rewl.walkers_per_window = args.get("--walkers")?;
    cfg.rewl.num_bins = args.opt("--bins")?.unwrap_or((16 * l * l).min(512));
    cfg.rewl.wl.ln_f_final = args.get("--lnf")?;
    cfg.rewl.max_sweeps = args.get("--max-sweeps")?;
    let (t_min, t_max) = (args.get("--tmin")?, args.get("--tmax")?);
    cfg.temperatures = dt_thermo::try_temperature_grid(t_min, t_max, args.get("--tpoints")?)
        .map_err(|e| DeepThermoError::Usage(format!("--tmin/--tmax/--tpoints: {e}")))?;
    let k = args.get("--k")?;
    cfg.rewl.kernel = match args.get::<String>("--kernel")?.as_str() {
        "local" => KernelSpec::LocalSwap,
        "random" => KernelSpec::RandomGlobal { k, weight: 0.2 },
        "deep" => KernelSpec::Deep(Box::new(DeepSpec {
            proposal: DeepProposalConfig {
                k,
                hidden: vec![32, 32],
            },
            deep_weight: 0.15,
            ..DeepSpec::default()
        })),
        other => {
            return Err(DeepThermoError::Usage(format!(
                "--kernel expects deep|local|random, got {other:?}"
            )))
        }
    };
    cfg.rewl.adaptive_windows = args.has("--adaptive-windows");
    cfg.rewl.rebalance_every = args.get("--rebalance-every")?;
    // `--k` is the one kernel field a flag sets, so name the flag; every
    // other inconsistency surfaces from `DeepThermo::from_material`.
    if let Err(ConfigError::BadSetting {
        field: "random.k" | "deep.proposal.k",
        value,
        expected,
    }) = cfg.validate()
    {
        return Err(DeepThermoError::Usage(format!(
            "--k must be {expected}, got {value}"
        )));
    }
    Ok(cfg)
}

/// The configuration every process of a `run` builds from the same
/// flags. `--checkpoint` is the one checkpoint setting; under
/// `--recover` (cluster runs only) it defaults to `OUT/checkpoints`, so
/// a restart has a snapshot to resume from.
fn run_config(args: &Args, clustered: bool) -> Result<DeepThermoConfig, DeepThermoError> {
    let mut cfg = build_config(args)?.with_telemetry(args.has("--telemetry"));
    let dir = match args.opt::<PathBuf>("--checkpoint")? {
        None if clustered && args.has("--recover") => {
            Some(args.get::<PathBuf>("--out")?.join("checkpoints"))
        }
        dir => dir,
    };
    cfg.rewl.checkpoint = dir.map(CheckpointSpec::new);
    Ok(cfg)
}

/// The fault plan shared by every process of a cluster run: a seeded
/// chaos schedule (when `--chaos-seed` is given), plus any explicit
/// `--kill` event. A rank of a restarted life (nonzero
/// [`cluster::RESPAWN_COUNT_FLAG`]) replays fault-free.
fn cluster_fault_plan(args: &Args, size: usize) -> Result<FaultPlan, DeepThermoError> {
    if args.get::<u64>(cluster::RESPAWN_COUNT_FLAG)? > 0 {
        return Ok(FaultPlan::none());
    }
    let rounds = args.get("--chaos-rounds")?;
    let mut plan = match args.opt("--chaos-seed")? {
        Some(seed) => FaultPlan::chaos(seed, size, rounds),
        None => FaultPlan::none(),
    };
    if let Some(kill) = args.opt::<String>("--kill")? {
        let kill = cluster::parse_kill(&kill, size)
            .map_err(|message| DeepThermoError::Cluster { message })?;
        for e in kill.events() {
            plan.push(e.clone());
        }
    }
    Ok(plan)
}

/// Entry point of a `--worker-rank` process: dial the rendezvous, run
/// one rank, exit. A simulated crash exits with a reserved code so the
/// root can tell it apart from a real failure.
fn worker(args: &Args) -> Result<(), DeepThermoError> {
    let rank = args.get(cluster::WORKER_RANK_FLAG)?;
    let rendezvous: String = args.get(cluster::RENDEZVOUS_FLAG)?;
    let spec: ClusterSpec = args.get("--cluster")?;
    let plan = cluster_fault_plan(args, spec.size)?;
    let runner = DeepThermo::from_material(run_config(args, true)?)?;
    match cluster::run_cluster_worker(&runner, rank, spec.size, &rendezvous, plan)? {
        WorkerOutcome::Killed => std::process::exit(cluster::KILLED_EXIT_CODE.into()),
        _ => Ok(()),
    }
}

/// Root side of `run --cluster`: spawn the workers, run rank 0, report
/// per-worker outcomes. `max_restarts` is `--recover`'s budget, 0
/// without it.
fn run_cluster(
    runner: &DeepThermo,
    spec: ClusterSpec,
    plan: FaultPlan,
    max_restarts: u64,
) -> Result<DeepThermoReport, DeepThermoError> {
    let worker_args: Vec<String> = std::env::args().skip(1).collect();
    println!(
        "cluster: {} ranks as separate processes over loopback TCP (this process is rank 0)",
        spec.size
    );
    if max_restarts > 0 {
        println!(
            "--recover: supervising the cluster (budget {max_restarts} whole-cluster restarts \
             from the newest complete snapshot)"
        );
    }
    let (report, outcomes) =
        cluster::run_cluster_root(runner, spec, plan, &worker_args, max_restarts)?;
    for (rank, outcome) in outcomes.iter().enumerate() {
        let who = if rank == 0 { "root" } else { "worker" };
        match outcome {
            WorkerOutcome::Completed => {}
            WorkerOutcome::Killed | WorkerOutcome::Failed => {
                eprintln!("warning: {who} rank {rank} exited abnormally")
            }
            WorkerOutcome::Recovered { respawns } => {
                println!("{who} rank {rank} recovered after {respawns} supervised respawn(s)")
            }
        }
    }
    Ok(report)
}

fn info(args: &Args) -> Result<(), DeepThermoError> {
    let runner = DeepThermo::from_material(build_config(args)?)?;
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
    println!("nn kernel: {}", deepthermo::nn::kernel_path());
    Ok(())
}

fn run(args: &Args) -> Result<(), DeepThermoError> {
    let cluster: Option<ClusterSpec> = args.opt("--cluster")?;
    if cluster.is_none() {
        let cluster_only = [
            "--kill",
            "--recover",
            "--max-restarts",
            "--chaos-seed",
            "--chaos-rounds",
        ];
        for flag in cluster_only.into_iter().filter(|f| args.has(f)) {
            eprintln!("warning: {flag} only applies to --cluster runs; ignoring");
        }
    }
    let cfg = run_config(args, cluster.is_some())?;
    let plan = cluster
        .map(|spec| cluster_fault_plan(args, spec.size))
        .transpose()?;
    let max_restarts = if cluster.is_some() && args.has("--recover") {
        args.get("--max-restarts")?
    } else {
        0
    };
    let out_dir: PathBuf = args.get("--out")?;
    let export: Option<PathBuf> = args.opt("--export-artifact")?;
    let io_error = |path: PathBuf, e: std::io::Error| DeepThermoError::Io {
        path,
        message: e.to_string(),
    };
    fs::create_dir_all(&out_dir).map_err(|e| io_error(out_dir.clone(), e))?;
    if let Some(spec) = &cfg.rewl.checkpoint {
        println!(
            "checkpointing every {} rounds into {} (reruns resume from the newest snapshot)",
            spec.every_rounds,
            spec.dir.display()
        );
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
    let runner = DeepThermo::from_material(cfg)?;
    let report = match cluster.zip(plan) {
        Some((spec, plan)) => run_cluster(&runner, spec, plan, max_restarts)?,
        None => runner.run()?,
    };
    println!(
        "sampling finished in {:.1} s ({} total moves)",
        start.elapsed().as_secs_f64(),
        report.total_moves
    );
    print!("{}", report.summary());
    let mut outputs = vec![
        ("thermo.csv", report.thermo_csv()),
        ("dos.csv", report.dos_csv()),
        ("sro.csv", report.sro_csv()),
        ("summary.txt", report.summary()),
    ];
    if !report.telemetry.is_empty() {
        println!("{}", report.phase_table());
        outputs.push(("telemetry.jsonl", report.telemetry_jsonl()));
    }
    for (name, contents) in &outputs {
        let path = out_dir.join(name);
        fs::write(&path, contents).map_err(|e| io_error(path, e))?;
    }
    if let Some(registry_dir) = export {
        let dir = runner.export_artifact(&report, registry_dir)?;
        println!("exported serving artifact to {}", dir.display());
    }
    let written: Vec<&str> = outputs.iter().map(|(name, _)| *name).collect();
    println!("wrote {} to {}", written.join(", "), out_dir.display());
    if !report.converged {
        eprintln!("warning: run hit max sweeps before ln f target");
    }
    Ok(())
}
