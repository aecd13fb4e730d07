//! Asserts that warmed-up teacher-forced replay — the hot path on every
//! deep-proposal Metropolis–Hastings step — and a second training epoch
//! over a same-sized buffer perform **zero heap allocations**, using a
//! counting global allocator.
//!
//! This file must stay a single `#[test]`: the counter is process-global,
//! and concurrent tests in the same binary would race it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dt_lattice::{Composition, Configuration, SiteId, Species, Structure, Supercell};
use dt_proposal::train::random_training_set;
use dt_proposal::{
    DeepProposal, DeepProposalConfig, ProposalContext, ProposalKernel, ProposalTrainer,
    ProposedMove, TrainerConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Count heap allocations performed by `f`.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn warmed_replay_is_allocation_free() {
    let cell = Supercell::cubic(Structure::bcc(), 2);
    let nt = cell.neighbor_table(2);
    let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
    let ctx = ProposalContext {
        neighbors: &nt,
        composition: &comp,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let config = Configuration::random(&comp, &mut rng);
    let mut kern = DeepProposal::new(
        4,
        2,
        &DeepProposalConfig {
            k: 8,
            hidden: vec![16, 16],
        },
        &mut rng,
    );
    kern.warm_up(cell.num_sites());

    // One full proposal to derive a (sites, targets) pair and finish
    // warming every internal buffer.
    let p = kern.propose(&config, &ctx, &mut rng);
    let ProposedMove::Reassign { moves } = &p.mv else {
        panic!("deep kernel must emit a reassignment")
    };
    let sites: Vec<SiteId> = moves.iter().map(|&(s, _)| s).collect();
    let targets: Vec<Species> = moves.iter().map(|&(_, t)| t).collect();
    let want = kern.log_prob_of_reassignment(&config, &nt, &sites, &targets);

    // Steady state: the replay that runs on every MH step must not touch
    // the allocator.
    let mut sink = 0.0;
    let count = allocations_in(|| {
        for _ in 0..100 {
            sink += kern.log_prob_of_reassignment(&config, &nt, &sites, &targets);
        }
    });
    assert!((sink / 100.0 - want).abs() < 1e-12);
    assert_eq!(
        count, 0,
        "warmed-up replay must not allocate, saw {count} allocations"
    );

    // Retraining: the first epoch grows the trainer's flat buffers, the
    // training scratch and Adam's moments; every later epoch over a
    // buffer of that size (short last chunk included: 11 = 4 + 4 + 3)
    // reuses them.
    let buffer = random_training_set(&comp, 11, &mut rng);
    let mut trainer = ProposalTrainer::new(
        kern.layout(),
        TrainerConfig {
            k: 8,
            configs_per_batch: 4,
            ..TrainerConfig::default()
        },
    );
    let first = trainer
        .train_epoch(kern.net_mut(), &buffer, &nt, &mut rng)
        .unwrap();
    let mut second = f64::NAN;
    let count = allocations_in(|| {
        second = trainer
            .train_epoch(kern.net_mut(), &buffer, &nt, &mut rng)
            .unwrap();
    });
    assert!(first.is_finite() && second.is_finite());
    assert_eq!(
        count, 0,
        "a second train_epoch must not allocate, saw {count} allocations"
    );

    // Sanity check that the counter actually counts.
    let count = allocations_in(|| {
        let v: Vec<f64> = Vec::with_capacity(64);
        std::hint::black_box(&v);
    });
    assert!(count >= 1, "counter should see an explicit allocation");
}
