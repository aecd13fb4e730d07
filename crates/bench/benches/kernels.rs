//! Criterion benches of the hot computational kernels (supports E10):
//! energy evaluation, incremental deltas, proposal generation, the
//! proposal network's forward pass, one proposal-training epoch, and
//! the serving path's number writer and `/v1/thermo` handler.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dt_bench::HeaSystem;
use dt_hamiltonian::{DeltaWorkspace, EnergyModel};
use dt_lattice::{Configuration, Species};
use dt_nn::Matrix;
use dt_proposal::train::random_training_set;
use dt_proposal::{
    DeepProposal, DeepProposalConfig, LocalSwap, ProposalContext, ProposalKernel, ProposalTrainer,
    TrainerConfig,
};
use dt_serve::fixture::fixture_artifact;
use dt_serve::http::Request;
use dt_serve::{AppState, ArtifactRegistry};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let sys = HeaSystem::nbmotaw(4); // 128 sites
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let config = Configuration::random(&sys.comp, &mut rng);
    let n = sys.num_sites();

    c.bench_function("total_energy_n128", |b| {
        b.iter(|| black_box(sys.model.total_energy(black_box(&config), &sys.neighbors)))
    });

    c.bench_function("swap_delta", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| {
            let a = r.random_range(0..n) as u32;
            let bb = r.random_range(0..n) as u32;
            black_box(sys.model.swap_delta(&config, &sys.neighbors, a, bb))
        })
    });

    c.bench_function("reassign_delta_k32", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(2);
        let mut ws = DeltaWorkspace::new(n);
        b.iter_batched(
            || {
                let mut sites: Vec<u32> = (0..n as u32).collect();
                for i in 0..32 {
                    let j = r.random_range(i..n);
                    sites.swap(i, j);
                }
                sites[..32]
                    .iter()
                    .map(|&s| (s, Species(r.random_range(0..4u8))))
                    .collect::<Vec<_>>()
            },
            |moves| {
                black_box(
                    sys.model
                        .reassign_delta(&config, &sys.neighbors, &moves, &mut ws),
                )
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("local_swap_proposal", |b| {
        let ctx = ProposalContext {
            neighbors: &sys.neighbors,
            composition: &sys.comp,
        };
        let mut kernel = LocalSwap::new();
        let mut r = ChaCha8Rng::seed_from_u64(3);
        b.iter(|| black_box(kernel.propose(&config, &ctx, &mut r)))
    });

    c.bench_function("deep_proposal_k32", |b| {
        let ctx = ProposalContext {
            neighbors: &sys.neighbors,
            composition: &sys.comp,
        };
        let mut kernel = DeepProposal::new(
            4,
            2,
            &DeepProposalConfig {
                k: 32,
                hidden: vec![64, 64],
            },
            &mut rng,
        );
        let mut r = ChaCha8Rng::seed_from_u64(4);
        b.iter(|| black_box(kernel.propose(&config, &ctx, &mut r)))
    });

    c.bench_function("mlp_forward_15x64x64x4", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(5);
        let net = dt_nn::Mlp::new(
            &[15, 64, 64, 4],
            dt_nn::Activation::Relu,
            dt_nn::Activation::Identity,
            &mut r,
        );
        let x = Matrix::from_vec(1, 15, (0..15).map(|i| i as f64 / 15.0).collect());
        b.iter(|| black_box(net.forward(black_box(&x))))
    });

    c.bench_function("mlp_forward_into_batch1_15x64x64x4", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(5);
        let net = dt_nn::Mlp::new(
            &[15, 64, 64, 4],
            dt_nn::Activation::Relu,
            dt_nn::Activation::Identity,
            &mut r,
        );
        let x: Vec<f64> = (0..15).map(|i| i as f64 / 15.0).collect();
        let mut scratch = dt_nn::ForwardScratch::for_mlp(&net, 1);
        b.iter(|| black_box(net.forward_into(black_box(&x), 1, &mut scratch)[0]))
    });

    c.bench_function("mlp_forward_into_batch32_15x64x64x4", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(5);
        let net = dt_nn::Mlp::new(
            &[15, 64, 64, 4],
            dt_nn::Activation::Relu,
            dt_nn::Activation::Identity,
            &mut r,
        );
        let x: Vec<f64> = (0..32 * 15).map(|i| (i % 15) as f64 / 15.0).collect();
        let mut scratch = dt_nn::ForwardScratch::for_mlp(&net, 32);
        b.iter(|| black_box(net.forward_into(black_box(&x), 32, &mut scratch)[0]))
    });

    // One retraining epoch at the `rewl_deep` shape of `bench_e2e`: L=4,
    // 256 buffered configurations × trainer k=32 = 8 192 rows in chunks
    // of 256 through a 15→32→32→4 net (the `proposal.train_epoch_ms`
    // probe, without the e2e harness).
    c.bench_function("train_epoch_256x32_15x32x32x4", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(6);
        let deep = DeepProposal::new(
            4,
            2,
            &DeepProposalConfig {
                k: 12,
                hidden: vec![32, 32],
            },
            &mut r,
        );
        let buffer = random_training_set(&sys.comp, 256, &mut r);
        let mut trainer = ProposalTrainer::new(deep.layout(), TrainerConfig::default());
        let mut net = deep.net().clone();
        b.iter(|| black_box(trainer.train_epoch(&mut net, &buffer, &sys.neighbors, &mut r)))
    });

    c.bench_function("neighbor_table_build_l8", |b| {
        b.iter(|| {
            let cell = dt_lattice::Supercell::cubic(dt_lattice::Structure::bcc(), 8);
            black_box(cell.neighbor_table(2))
        })
    });

    // The numbers of one 256-point `/v1/thermo` body (5 series × 256),
    // with the magnitudes and digit counts a served curve has.
    c.bench_function("push_f64_x1280", |b| {
        let values: Vec<f64> = (0..1280)
            .map(|i| (i as f64 * 0.37).sin() * 10f64.powi(i % 7 - 3))
            .collect();
        let mut out = String::with_capacity(32 * values.len());
        b.iter(|| {
            out.clear();
            for &v in black_box(&values) {
                dt_telemetry::push_f64(&mut out, v);
            }
            black_box(out.len())
        })
    });

    // `AppState::handle` on a 256-point grid, as `bench_e2e`'s
    // `serve.handle_{miss,hit}_us` probes drive it: a miss evaluates,
    // encodes and inserts (a new grid per call), a hit clones the body.
    let thermo_request = |t_min: f64| Request {
        method: "POST".into(),
        target: "/v1/thermo".into(),
        http11: true,
        headers: Vec::new(),
        body: format!(
            "{{\"artifact\":\"fixture-bench\",\"t_min\":{t_min},\"t_max\":3000,\"num_t\":256}}"
        )
        .into_bytes(),
    };
    let serve_state = || {
        let mut registry = ArtifactRegistry::new();
        registry.insert(fixture_artifact("bench"));
        AppState::new(registry, 1024).expect("fixture artifact")
    };
    c.bench_function("handle_thermo_miss_256", |b| {
        let state = serve_state();
        let mut t_min = 300.0;
        b.iter(|| {
            t_min += 1e-3;
            black_box(state.handle(&thermo_request(t_min)).status)
        })
    });
    c.bench_function("handle_thermo_hit_256", |b| {
        let state = serve_state();
        let request = thermo_request(300.0);
        b.iter(|| black_box(state.handle(black_box(&request)).status))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_kernels
}
criterion_main!(benches);
