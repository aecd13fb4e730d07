//! An allocation budget for a whole Wang–Landau step — proposal, ΔE,
//! acceptance, DOS/histogram update, round-trip tracking and the
//! per-kernel acceptance counters — using a counting global allocator:
//! a warmed local-swap step makes **zero** heap allocations, and in a
//! local + deep mixture only the deep proposals allocate (their returned
//! move list and the ΔE path's sorted copy of it: two each).
//!
//! This file must stay a single `#[test]`: the counter is process-global,
//! and concurrent tests in the same binary would race it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dt_hamiltonian::PairHamiltonian;
use dt_lattice::{Composition, Configuration, Structure, Supercell};
use dt_proposal::{
    DeepProposal, DeepProposalConfig, LocalSwap, ProposalContext, ProposalKernel, ProposalMix,
};
use dt_wanglandau::{EnergyGrid, WlParams, WlWalker};
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

const WARM_STEPS: usize = 2_000;
const STEPS: usize = 10_000;

#[test]
fn warmed_wl_step_stays_inside_its_allocation_budget() {
    let cell = Supercell::cubic(Structure::bcc(), 3);
    let nt = cell.neighbor_table(2);
    let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
    let h = PairHamiltonian::from_pairs(
        4,
        2,
        &[(0, 0, 1, -0.02), (0, 2, 3, -0.015), (1, 0, 2, 0.01)],
    );
    let ctx = ProposalContext {
        neighbors: &nt,
        composition: &comp,
    };
    // Wide enough that every reachable energy is in the window.
    let grid = EnergyGrid::new(-10.0, 10.0, 64);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut walker_with = |kernel: Box<dyn ProposalKernel>| {
        let config = Configuration::random(&comp, &mut rng);
        WlWalker::new(
            grid.clone(),
            WlParams::default(),
            config,
            &h,
            &nt,
            kernel,
            17,
        )
    };

    // Local swaps: nothing in a step may touch the allocator.
    let mut walker = walker_with(Box::new(LocalSwap::new()));
    for _ in 0..WARM_STEPS {
        walker.step(&h, &nt, &ctx);
    }
    let count = allocations_in(|| {
        for _ in 0..STEPS {
            walker.step(&h, &nt, &ctx);
        }
    });
    assert_eq!(
        count, 0,
        "a warmed local-swap WL step must not allocate, saw {count} in {STEPS} steps"
    );

    // The production mixture: only the deep proposals may allocate.
    let mut deep = DeepProposal::new(
        4,
        2,
        &DeepProposalConfig {
            k: 12,
            hidden: vec![32, 32],
        },
        &mut ChaCha8Rng::seed_from_u64(23),
    );
    deep.warm_up(cell.num_sites());
    let mut walker = walker_with(Box::new(ProposalMix::new(vec![
        (Box::new(LocalSwap::new()) as Box<dyn ProposalKernel>, 0.85),
        (Box::new(deep), 0.15),
    ])));
    for _ in 0..WARM_STEPS {
        walker.step(&h, &nt, &ctx);
    }
    let deep_before = walker.stats().counts("deep-autoregressive").0;
    let count = allocations_in(|| {
        for _ in 0..STEPS {
            walker.step(&h, &nt, &ctx);
        }
    });
    let deep_proposals = (walker.stats().counts("deep-autoregressive").0 - deep_before) as usize;
    assert!(deep_proposals > STEPS / 10, "the mixture must draw deep");
    assert!(
        count <= 2 * deep_proposals,
        "a warmed mixture WL step may allocate only for its deep proposals: \
         saw {count} allocations for {deep_proposals} deep proposals in {STEPS} steps"
    );

    // Sanity check that the counter actually counts.
    let count = allocations_in(|| {
        let v: Vec<f64> = Vec::with_capacity(64);
        std::hint::black_box(&v);
    });
    assert!(count >= 1, "counter should see an explicit allocation");
}
