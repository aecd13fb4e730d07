//! E13 — batched inference engine throughput versus the batch-1 seed path.
//!
//! Reproduces the two hot inference workloads of the deep proposal on an
//! NbMoTaW fixture and times each twice:
//!
//! * **reverse replay** — the teacher-forced `log_prob_of_reassignment`
//!   computed on every Metropolis–Hastings step, as one k-row batched
//!   forward (engine) versus k sequential allocating batch-1 passes
//!   (`Matrix::row_vector` + `Mlp::forward` + per-step mask `Vec` +
//!   allocating `log_softmax_masked` — the seed implementation);
//! * **training forward** — the teacher-forced feature chunk a
//!   `ProposalTrainer` epoch consumes, as one multi-row forward versus
//!   row-by-row batch-1 passes.
//!
//! Asserts the batched log-probabilities are **bit-identical** to the
//! batch-1 references, counts heap allocations per forward on both paths,
//! enforces the `--gate` speedup (default 3x) on both workloads, and
//! writes the measurements to `--out` (default `BENCH_inference.json`).
//! Exits nonzero if identity or the gate fails, so CI can use it as a
//! regression fence.

use std::num::NonZeroUsize;

use dt_bench::{timed, HeaSystem};
use dt_lattice::{Configuration, NeighborTable, SiteId, Species};
use dt_nn::{log_softmax_masked, ForwardScratch, Matrix, Mlp};
use dt_proposal::{DeepProposal, DeepProposalConfig, FeatureLayout, ProposalKernel, ProposedMove};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::allocations_in;

use crate::{Args, Report, Run};

/// The seed implementation of teacher-forced replay: one allocating
/// batch-1 forward per site.
fn replay_batch1(
    net: &Mlp,
    layout: FeatureLayout,
    config: &Configuration,
    neighbors: &NeighborTable,
    sites: &[SiteId],
    targets: &[Species],
) -> f64 {
    let m = layout.num_species;
    let n = config.num_sites();
    let mut work = config.species().to_vec();
    let mut decided = vec![true; n];
    for &s in sites {
        decided[s as usize] = false;
    }
    let mut remaining = vec![0usize; m];
    for &s in sites {
        remaining[config.species_at(s).index()] += 1;
    }
    let k = sites.len();
    let mut feat = vec![0.0; layout.dim()];
    let mut total = 0.0;
    for (step, (&site, &target)) in sites.iter().zip(targets).enumerate() {
        layout.fill(
            &mut feat,
            site,
            neighbors,
            &work,
            &decided,
            &remaining,
            k - step,
            step as f64 / k as f64,
        );
        let logits = net.forward(&Matrix::row_vector(&feat));
        let mask: Vec<bool> = remaining.iter().map(|&r| r > 0).collect();
        let logp = log_softmax_masked(logits.row(0), Some(&mask));
        total += logp[target.index()];
        remaining[target.index()] -= 1;
        work[site as usize] = target;
        decided[site as usize] = true;
    }
    total
}

pub fn run(args: &Args, out: &mut Report) -> Run {
    let l: usize = args.get("--l")?;
    let k: usize = args.get("--k")?;
    let pairs = args.get::<NonZeroUsize>("--pairs")?.get();
    let reps = args.get::<NonZeroUsize>("--reps")?.get();
    let passes = args.get::<NonZeroUsize>("--passes")?.get();
    let gate: f64 = args.get("--gate")?;

    let sys = HeaSystem::nbmotaw(l);
    let ctx = sys.ctx();
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let config = Configuration::random(&sys.comp, &mut rng);
    let mut kern = DeepProposal::new(
        sys.comp.num_species(),
        2,
        &DeepProposalConfig {
            k,
            hidden: vec![64, 64],
        },
        &mut rng,
    );
    kern.warm_up(sys.num_sites());
    let layout = kern.layout();
    let dim = layout.dim();

    // Fixed (sites, targets) pairs drawn from the kernel itself.
    let moves: Vec<(Vec<SiteId>, Vec<Species>)> = (0..pairs)
        .map(|_| {
            let p = kern.propose(&config, &ctx, &mut rng);
            let ProposedMove::Reassign { moves } = &p.mv else {
                panic!("deep kernel must emit a reassignment")
            };
            (
                moves.iter().map(|&(s, _)| s).collect(),
                moves.iter().map(|&(_, t)| t).collect(),
            )
        })
        .collect();

    // Bit-identity fence: the batched engine must reproduce the seed
    // path exactly or the speedup is meaningless for MH sampling.
    for (sites, targets) in &moves {
        let batched = kern.log_prob_of_reassignment(&config, &sys.neighbors, sites, targets);
        let reference = replay_batch1(kern.net(), layout, &config, &sys.neighbors, sites, targets);
        assert_eq!(
            batched.to_bits(),
            reference.to_bits(),
            "batched replay diverged: {batched} vs {reference}"
        );
    }

    // Allocations per forward pass on each path (steady state).
    let (s0, t0) = &moves[0];
    let allocs_batch1 = allocations_in(|| {
        std::hint::black_box(replay_batch1(
            kern.net(),
            layout,
            &config,
            &sys.neighbors,
            s0,
            t0,
        ));
    }) as f64
        / k as f64;
    let allocs_batched = allocations_in(|| {
        std::hint::black_box(kern.log_prob_of_reassignment(&config, &sys.neighbors, s0, t0));
    }) as f64;

    // Reverse-replay throughput: best of `passes` timing passes per
    // path, so scheduler noise on shared runners cannot sink either side.
    let mut sink = 0.0;
    let total_rows = (reps * pairs * k) as f64;
    let mut replay_b1_rows_s = 0.0f64;
    let mut replay_batched_rows_s = 0.0f64;
    for _ in 0..passes {
        let (_, sec) = timed(|| {
            for _ in 0..reps {
                for (sites, targets) in &moves {
                    sink +=
                        replay_batch1(kern.net(), layout, &config, &sys.neighbors, sites, targets);
                }
            }
        });
        replay_b1_rows_s = replay_b1_rows_s.max(total_rows / sec);
        let (_, sec) = timed(|| {
            for _ in 0..reps {
                for (sites, targets) in &moves {
                    sink += kern.log_prob_of_reassignment(&config, &sys.neighbors, sites, targets);
                }
            }
        });
        replay_batched_rows_s = replay_batched_rows_s.max(total_rows / sec);
    }
    assert!(sink.is_finite());
    let replay_speedup = replay_batched_rows_s / replay_b1_rows_s;

    // Training-forward throughput: the teacher-forced feature chunk of a
    // trainer epoch, batch-1 versus one multi-row forward.
    let train_rows = pairs * k;
    let mut chunk = vec![0.0; train_rows * dim];
    {
        // Teacher-forced features, identical construction to replay.
        let m = layout.num_species;
        for (pair, (sites, targets)) in moves.iter().enumerate() {
            let mut work = config.species().to_vec();
            let mut decided = vec![true; config.num_sites()];
            for &s in sites {
                decided[s as usize] = false;
            }
            let mut remaining = vec![0usize; m];
            for &s in sites {
                remaining[config.species_at(s).index()] += 1;
            }
            for (step, (&site, &target)) in sites.iter().zip(targets).enumerate() {
                let row = pair * k + step;
                layout.fill(
                    &mut chunk[row * dim..(row + 1) * dim],
                    site,
                    &sys.neighbors,
                    &work,
                    &decided,
                    &remaining,
                    k - step,
                    step as f64 / k as f64,
                );
                remaining[target.index()] -= 1;
                work[site as usize] = target;
                decided[site as usize] = true;
            }
        }
    }
    let net = kern.net().clone();
    let mut scratch = ForwardScratch::for_mlp(&net, train_rows);
    let mut sink2 = 0.0;
    let train_total_rows = (reps * train_rows) as f64;
    let mut train_b1_rows_s = 0.0f64;
    let mut train_batched_rows_s = 0.0f64;
    for _ in 0..passes {
        let (_, sec) = timed(|| {
            for _ in 0..reps {
                for row in chunk.chunks_exact(dim) {
                    let logits = net.forward(&Matrix::row_vector(row));
                    sink2 += logits.data()[0];
                }
            }
        });
        train_b1_rows_s = train_b1_rows_s.max(train_total_rows / sec);
        let (_, sec) = timed(|| {
            for _ in 0..reps {
                let logits = net.forward_into(&chunk, train_rows, &mut scratch);
                sink2 += logits[0];
            }
        });
        train_batched_rows_s = train_batched_rows_s.max(train_total_rows / sec);
    }
    assert!(sink2.is_finite());
    let train_speedup = train_batched_rows_s / train_b1_rows_s;

    out.table(
        "workload,batch1_rows_per_s,batched_rows_per_s,speedup,allocs_per_forward_batch1,allocs_per_forward_batched",
        vec![
            format!(
                "reverse_replay,{replay_b1_rows_s:.0},{replay_batched_rows_s:.0},{replay_speedup:.2},{allocs_batch1:.1},{allocs_batched:.1}"
            ),
            format!(
                "training_forward,{train_b1_rows_s:.0},{train_batched_rows_s:.0},{train_speedup:.2},,"
            ),
        ],
    );
    // Recorded because a CPU with AVX runs dt-nn's AVX copy of the
    // kernels, at twice the tile width (8 columns instead of 4).
    let avx = dt_nn::kernel_path().starts_with("avx");
    out.record(
        "l,k,hidden,pairs,reps,passes,avx,bit_identical,replay_speedup,training_speedup,gate",
        vec![format!(
            "{l},{k},64x64,{pairs},{reps},{passes},{avx},true,{replay_speedup:.3},{train_speedup:.3},{gate:.1}"
        )],
    );
    let pass = replay_speedup >= gate && train_speedup >= gate;
    if !pass {
        out.fail(format!(
            "speedup gate {gate}x not met (replay {replay_speedup:.2}x, training {train_speedup:.2}x)"
        ));
    }
    Ok(())
}
