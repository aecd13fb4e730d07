//! Per-layer probes: one public function of each layer, called in a loop
//! from here and timed under a span. They run in every traced run, on the
//! workload's own system where the layer depends on it (`l` = supercell
//! edge), so each row of the layer table has a number beside the
//! end-to-end metric it is expected to move.

use std::hint::black_box;
use std::time::{Duration, Instant};

use deepthermo::hamiltonian::{DeltaWorkspace, EnergyModel, Material};
use deepthermo::hpc::{Communicator, FaultPlan, TcpCluster, ThreadCluster, Transport};
use deepthermo::lattice::{
    Composition, Configuration, NeighborTable, SiteId, Species, SroAccumulator, Supercell,
};
use deepthermo::nn::ForwardScratch;
use deepthermo::proposal::{
    train::random_training_set, DeepProposal, DeepProposalConfig, LocalSwap, ProposalContext,
    ProposalKernel, ProposalSlot, ProposalTrainer,
};
use deepthermo::rewl::{wire, DeepSpec};
use deepthermo::serve::fixture::fixture_artifact;
use deepthermo::serve::http::{try_parse_request, Request};
use deepthermo::serve::{AppState, ArtifactRegistry, HashRing};
use deepthermo::surrogate::SurrogateModel;
use deepthermo::thermo::{try_canonical_curve, try_temperature_grid, KB_EV_PER_K};
use deepthermo::wanglandau::{explore_energy_range, EnergyGrid, WlWalker};
use deepthermo::DeepThermoConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::outcome::{Outcome, RunParams};
use crate::stats::{median, SplitMix64};
use crate::trace::Tracer;

/// Median time of one call, in nanoseconds: `batches` timed batches of
/// `per_batch` calls each, after one untimed batch. No call index repeats,
/// so a probe that wants fresh input on every call gets it.
fn ns_per_call(batches: usize, per_batch: usize, mut call: impl FnMut(usize)) -> f64 {
    for i in 0..per_batch {
        call(i);
    }
    let samples: Vec<f64> = (0..batches)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..per_batch {
                call((b + 1) * per_batch + i);
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// The NbMoTaW system of edge `l`, as `DeepThermo::from_material` builds it.
struct System {
    material: Material,
    cell: Supercell,
    neighbors: NeighborTable,
    comp: Composition,
    config: Configuration,
}

fn system(l: usize, seed: u64) -> Result<System, String> {
    let material = Material::nbmotaw();
    let cell = Supercell::cubic(material.structure().clone(), l);
    let neighbors = cell
        .try_neighbor_table(material.num_shells())
        .map_err(|e| e.to_string())?;
    let comp = material
        .composition(cell.num_sites())
        .map_err(|e| e.to_string())?;
    let config = Configuration::random(&comp, &mut ChaCha8Rng::seed_from_u64(seed));
    Ok(System {
        material,
        cell,
        neighbors,
        comp,
        config,
    })
}

/// Run every probe and file its number in `out`. `untraced_run_s` is the
/// wall of a traced sampler workload's untraced run.
pub fn run(
    out: &mut Outcome,
    l: usize,
    untraced_run_s: Option<f64>,
    p: &RunParams,
    tracer: &Tracer,
) {
    let _all = tracer.span("probes");
    // Toy runs keep every probe but shrink its loops.
    let scale = if p.toy { 20 } else { 1 };
    let sys = match system(l, p.seed) {
        Ok(s) => s,
        Err(e) => {
            out.op(false, || format!("probe system: {e}"));
            return;
        }
    };
    lattice_and_hamiltonian(out, &sys, p.seed, scale, tracer);
    nn_and_proposal(out, &sys, p.seed, scale, tracer);
    wanglandau_and_rewl(out, &sys, untraced_run_s, p.seed, scale, tracer);
    hpc(out, scale, tracer);
    serving_layers(out, scale, tracer);
}

fn lattice_and_hamiltonian(
    out: &mut Outcome,
    sys: &System,
    seed: u64,
    scale: usize,
    tracer: &Tracer,
) {
    let model = sys.material.hamiltonian();
    let n = sys.cell.num_sites();
    let shells = sys.material.num_shells();
    {
        let _s = tracer.span("lattice.neighbor_build");
        out.set(
            "lattice.neighbor_build_us",
            ns_per_call(5, 1, |_| {
                black_box(
                    sys.cell
                        .try_neighbor_table(shells)
                        .expect("built once already"),
                );
            }) / 1e3,
        );
    }
    {
        let _s = tracer.span("lattice.sro_observe");
        let mut acc = SroAccumulator::new(shells, sys.comp.num_species());
        out.set(
            "lattice.sro_observe_us",
            ns_per_call(5, 200 / scale, |_| {
                acc.accumulate(&sys.config, &sys.neighbors)
            }) / 1e3,
        );
        black_box(acc.samples());
    }

    // Unlike-species pairs, as the local kernel proposes them.
    let mut rng = SplitMix64::derive(seed, 0xde17a);
    let mut pairs: Vec<(SiteId, SiteId)> = Vec::with_capacity(4096);
    while pairs.len() < 4096 {
        let (a, b) = (rng.below(n) as SiteId, rng.below(n) as SiteId);
        if sys.config.species_at(a) != sys.config.species_at(b) {
            pairs.push((a, b));
        }
    }
    {
        let _s = tracer.span("hamiltonian.swap_delta");
        let mut acc = 0.0;
        out.set(
            "hamiltonian.swap_delta_ns",
            ns_per_call(7, 40_000 / scale, |i| {
                let (a, b) = pairs[i % pairs.len()];
                acc += model.swap_delta(&sys.config, &sys.neighbors, a, b);
            }),
        );
        black_box(acc);
    }
    // Computed, not measured: per site and neighbor one 4-byte neighbor
    // id, one species byte and two 8-byte V entries.
    let z: usize = (0..shells).map(|s| sys.neighbors.coordination(s)).sum();
    out.set(
        "hamiltonian.swap_delta_bytes_computed",
        (2 * z * (4 + 1 + 16)) as f64,
    );

    // k = 12 reassignments that permute the species already on the
    // chosen sites, so composition is conserved as the kernels guarantee.
    let k = 12;
    let moves: Vec<Vec<(SiteId, Species)>> = (0..256)
        .map(|_| {
            let mut sites: Vec<SiteId> = Vec::with_capacity(k);
            while sites.len() < k {
                let s = rng.below(n) as SiteId;
                if !sites.contains(&s) {
                    sites.push(s);
                }
            }
            sites.sort_unstable();
            let rotate = 1 + rng.below(k - 1);
            (0..k)
                .map(|i| (sites[i], sys.config.species_at(sites[(i + rotate) % k])))
                .collect()
        })
        .collect();
    {
        let _s = tracer.span("hamiltonian.reassign_delta");
        let mut ws = DeltaWorkspace::new(n);
        let mut acc = 0.0;
        out.set(
            "hamiltonian.reassign_delta_ns",
            ns_per_call(7, 4000 / scale, |i| {
                acc += model.reassign_delta(
                    &sys.config,
                    &sys.neighbors,
                    &moves[i % moves.len()],
                    &mut ws,
                );
            }),
        );
        black_box(acc);
    }
    {
        let _s = tracer.span("hamiltonian.total_energy");
        out.set(
            "hamiltonian.total_energy_us",
            ns_per_call(5, 400 / scale, |_| {
                black_box(model.total_energy(&sys.config, &sys.neighbors));
            }) / 1e3,
        );
    }
}

fn nn_and_proposal(out: &mut Outcome, sys: &System, seed: u64, scale: usize, tracer: &Tracer) {
    // The `rewl_deep` kernel: k = 12, hidden 32 x 32, DeepSpec defaults.
    let spec = DeepSpec::default();
    let proposal_cfg = DeepProposalConfig {
        k: 12,
        hidden: vec![32, 32],
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdee9);
    let mut deep = DeepProposal::new(
        sys.comp.num_species(),
        sys.material.num_shells(),
        &proposal_cfg,
        &mut rng,
    );
    deep.warm_up(sys.cell.num_sites());
    let ctx = ProposalContext {
        neighbors: &sys.neighbors,
        composition: &sys.comp,
    };

    {
        let _s = tracer.span("nn.forward_into");
        let net = deep.net().clone();
        let mut scratch = ForwardScratch::for_mlp(&net, 12);
        let x: Vec<f64> = (0..12 * net.in_dim())
            .map(|i| (i % 7) as f64 * 0.125)
            .collect();
        for (name, rows) in [
            ("nn.forward_row_ns_b1", 1usize),
            ("nn.forward_row_ns_b12", 12),
        ] {
            let per_call = ns_per_call(7, 4000 / scale, |_| {
                black_box(net.forward_into(&x, rows, &mut scratch));
            });
            out.set(name, per_call / rows as f64);
        }
        // Computed: one multiply and one add per weight.
        let flops: usize = net
            .layers()
            .iter()
            .map(|layer| 2 * layer.w.rows() * layer.w.cols())
            .sum();
        out.set("nn.flops_per_row", flops as f64);
    }

    let mut out_buf = Vec::with_capacity(1);
    let mut time_kernel = |kernel: &mut dyn ProposalKernel, calls: usize| {
        let mut stream = ChaCha8Rng::seed_from_u64(seed ^ 0x510f);
        ns_per_call(7, calls, |_| {
            let mut slots = [ProposalSlot {
                config: &sys.config,
                rng: &mut stream,
            }];
            kernel.propose_batch(&mut slots, &ctx, &mut out_buf);
            black_box(&out_buf);
        })
    };
    {
        let _s = tracer.span("proposal.local");
        out.set(
            "proposal.local_ns",
            time_kernel(&mut LocalSwap::new(), 40_000 / scale),
        );
    }
    {
        let _s = tracer.span("proposal.deep");
        out.set("proposal.deep_ns", time_kernel(&mut deep, 400 / scale));
    }
    {
        let _s = tracer.span("proposal.train_epoch");
        let buffer = random_training_set(&sys.comp, spec.buffer_capacity / scale.min(8), &mut rng);
        let mut trainer = ProposalTrainer::new(deep.layout(), spec.trainer.clone());
        let mut net = deep.net().clone();
        out.set(
            "proposal.train_epoch_ms",
            ns_per_call(3, 1, |_| {
                black_box(trainer.train_epoch(&mut net, &buffer, &sys.neighbors, &mut rng));
            }) / 1e6,
        );
    }
}

fn wanglandau_and_rewl(
    out: &mut Outcome,
    sys: &System,
    untraced_run_s: Option<f64>,
    seed: u64,
    scale: usize,
    tracer: &Tracer,
) {
    let model = sys.material.hamiltonian();
    let cfg = DeepThermoConfig::quick_demo();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let (e_min, e_max) = explore_energy_range(
        model,
        &sys.neighbors,
        &sys.comp,
        cfg.range_quench_sweeps,
        cfg.range_pad,
        &mut rng,
    );
    // The upper half of the range: where a random configuration lives.
    let grid = EnergyGrid::new(0.5 * (e_min + e_max), e_max, 64);
    let mut walker = WlWalker::new(
        grid,
        cfg.rewl.wl,
        sys.config.clone(),
        model,
        &sys.neighbors,
        Box::new(LocalSwap::new()),
        seed,
    );
    if !walker.drive_into_window(model, &sys.neighbors, 200) {
        out.op(false, || {
            "wanglandau probe: walker never entered its window".into()
        });
        return;
    }
    let ctx = ProposalContext {
        neighbors: &sys.neighbors,
        composition: &sys.comp,
    };
    {
        let _s = tracer.span("wanglandau.step");
        out.set(
            "wanglandau.step_ns",
            ns_per_call(7, 40_000 / scale, |_| {
                black_box(walker.step(model, &sys.neighbors, &ctx));
            }),
        );
    }
    {
        let _s = tracer.span("rewl.wire_walker");
        let checkpoint = walker.checkpoint();
        let mut ok = true;
        out.set(
            "rewl.wire_walker_us",
            ns_per_call(5, 200 / scale, |_| {
                let bytes = wire::encode_walker(&checkpoint);
                ok &= wire::decode_walker(black_box(&bytes)).is_ok();
            }) / 1e3,
        );
        out.op(ok, || "rewl probe: an encoded walker did not decode".into());
    }
    // How much of a run is not WL steps: 1 − moves · step / ranks / wall
    // of the untraced run. All workloads run 2 ranks; those confined to
    // one CPU step one rank at a time. Only a traced sampler run has
    // those numbers; serve_* leave it at 0.
    if let (Some(&moves), Some(run_s)) = (out.values.get("rewl.total_moves"), untraced_run_s) {
        let abreast = crate::host::nproc().min(2) as f64;
        let stepping_s = moves * out.values["wanglandau.step_ns"] * 1e-9 / abreast;
        out.set("rewl.overhead_frac", 1.0 - stepping_s / run_s);
    }
}

/// `rounds` allreduces of a `len`-vector and `rounds` 8-byte ping-pongs
/// between 2 ranks; rank 0 reports `(allreduce us, pingpong us)`.
fn comm_rounds<T: Transport>(
    comm: &Communicator<T>,
    rounds: usize,
    len: usize,
) -> Option<(f64, f64)> {
    const TAG: u64 = 17;
    let wait = Duration::from_secs(10);
    let mut v = vec![1.0f64; len];
    comm.barrier().ok()?;
    let t0 = Instant::now();
    for _ in 0..rounds {
        comm.allreduce_sum(&mut v).ok()?;
    }
    let allreduce_us = t0.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    comm.barrier().ok()?;
    let t0 = Instant::now();
    for _ in 0..rounds {
        if comm.rank() == 0 {
            comm.send(1, TAG, vec![0u8; 8]);
            comm.recv_timeout(1, TAG, wait).ok()?;
        } else {
            let ping = comm.recv_timeout(0, TAG, wait).ok()?;
            comm.send(0, TAG, ping);
        }
    }
    let pingpong_us = t0.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    Some((allreduce_us, pingpong_us))
}

fn hpc(out: &mut Outcome, scale: usize, tracer: &Tracer) {
    // One allreduce of a num_bins vector, as the convergence vote and
    // the weight sync do; 512 is the widest grid of the workloads.
    let (rounds, len) = (2000 / scale, 512);
    let thread = {
        let _s = tracer.span("hpc.thread");
        ThreadCluster::run(2, |comm| comm_rounds(&comm, rounds, len))
            .into_iter()
            .next()
            .flatten()
    };
    let tcp = {
        let _s = tracer.span("hpc.tcp");
        TcpCluster::run_loopback(2, FaultPlan::none(), |comm| comm_rounds(&comm, rounds, len))
            .into_iter()
            .next()
            .and_then(|o| o.completed())
            .flatten()
    };
    match (thread, tcp) {
        (Some(thread), Some(tcp)) => {
            out.set("hpc.allreduce_us_thread", thread.0);
            out.set("hpc.pingpong_us_thread", thread.1);
            out.set("hpc.allreduce_us_tcp", tcp.0);
            out.set("hpc.pingpong_us_tcp", tcp.1);
        }
        _ => out.op(false, || "hpc probe: a collective or receive failed".into()),
    }
}

fn serving_layers(out: &mut Outcome, scale: usize, tracer: &Tracer) {
    let artifact = fixture_artifact("probe");
    let (energies, ln_g) = artifact.visited_dos();
    let temps = try_temperature_grid(300.0, 3000.0, 256).expect("a valid grid");
    {
        let _s = tracer.span("thermo.canonical_curve");
        out.set(
            "thermo.canonical_curve_us",
            ns_per_call(5, 20 / scale.min(10), |_| {
                black_box(
                    try_canonical_curve(&energies, &ln_g, &temps, KB_EV_PER_K)
                        .expect("fixture DOS"),
                );
            }) / 1e3,
        );
    }
    if let Some(sro) = &artifact.sro {
        let _s = tracer.span("thermo.sro_reweight");
        let (grid_e, grid_ln_g) = artifact.grid_dos_masked();
        let beta = 1.0 / (KB_EV_PER_K * 1000.0);
        out.set(
            "thermo.sro_reweight_us",
            ns_per_call(5, 200 / scale, |_| {
                black_box(sro.canonical_average(&grid_e, &grid_ln_g, beta));
            }) / 1e3,
        );
    }
    if let Some(Ok(model)) = artifact.surrogate_text.as_deref().map(SurrogateModel::load) {
        let _s = tracer.span("surrogate.predict_rows");
        let rows = 64;
        let x: Vec<f64> = (0..rows * model.descriptor().dim())
            .map(|i| (i % 11) as f64 * 0.09)
            .collect();
        let mut scratch = model.forward_scratch(rows);
        let mut preds = Vec::with_capacity(rows);
        let per_call = ns_per_call(7, 2000 / scale, |_| {
            model.predict_rows_with(&x, rows, &mut scratch, &mut preds);
            black_box(&preds);
        });
        out.set("surrogate.predict_row_ns", per_call / rows as f64);
    }

    let thermo_request = |t_min: f64| Request {
        method: "POST".into(),
        target: "/v1/thermo".into(),
        http11: true,
        headers: Vec::new(),
        body: format!(
            "{{\"artifact\":\"fixture-probe\",\"t_min\":{t_min},\"t_max\":3000,\"num_t\":256}}"
        )
        .into_bytes(),
    };
    let mut registry = ArtifactRegistry::new();
    registry.insert(artifact);
    match AppState::new(registry, 1024) {
        Ok(state) => {
            let _s = tracer.span("serve.handle");
            let hot = thermo_request(300.0);
            let mut ok = true;
            out.set(
                "serve.handle_hit_us",
                ns_per_call(5, 400 / scale, |_| ok &= state.handle(&hot).status == 200) / 1e3,
            );
            // A new grid per call: evaluate, encode, insert.
            out.set(
                "serve.handle_miss_us",
                ns_per_call(5, 40 / scale.min(10), |i| {
                    ok &= state.handle(&thermo_request(301.0 + i as f64)).status == 200;
                }) / 1e3,
            );
            out.op(ok, || {
                "serve probe: AppState::handle answered non-200".into()
            });
        }
        Err(e) => out.op(false, || format!("serve probe: {e}")),
    }
    {
        let _s = tracer.span("serve.http_parse");
        let body = thermo_request(300.0).body;
        let mut raw = format!(
            "POST /v1/thermo HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let mut ok = true;
        out.set(
            "serve.http_parse_ns",
            ns_per_call(7, 20_000 / scale, |_| {
                ok &= matches!(try_parse_request(black_box(&raw), 1 << 20), Ok(Some(_)));
            }),
        );
        out.op(ok, || {
            "serve probe: a well-formed request did not parse".into()
        });
    }
    {
        let _s = tracer.span("serve.ring_lookup");
        let ring = HashRing::new(2);
        let keys: Vec<String> = (0..32).map(|i| format!("fixture-z{i:02}")).collect();
        let mut acc = 0usize;
        out.set(
            "serve.ring_lookup_ns",
            ns_per_call(7, 40_000 / scale, |i| {
                acc += ring.shard_for(&keys[i % keys.len()])
            }),
        );
        black_box(acc);
    }
}
