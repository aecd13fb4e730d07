//! An allocation budget for the request path, held with a counting
//! global allocator: a `/v1/thermo` miss, a hit and a `/v1/sro` answer
//! each make a few dozen heap allocations, independent of how many
//! numbers the body carries. Per-number formatting temporaries or a
//! per-temperature key fragment put these in the thousands.
//!
//! Counting is armed — and the count kept — per thread (see
//! `crates/nn/tests/alloc_free.rs`): `AppState::handle` is synchronous,
//! so everything a request allocates is allocated on the test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dt_serve::fixture::fixture_artifact;
use dt_serve::http::Request;
use dt_serve::{AppState, ArtifactRegistry};

struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    if COUNTING.with(|c| c.get()) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn state() -> AppState {
    let mut registry = ArtifactRegistry::new();
    registry.insert(fixture_artifact("budget"));
    AppState::new(registry, 64).unwrap()
}

fn post(target: &str, t_min: f64, num_t: usize) -> Request {
    Request {
        method: "POST".into(),
        target: target.into(),
        http11: true,
        headers: Vec::new(),
        body: format!(
            "{{\"artifact\":\"fixture-budget\",\"t_min\":{t_min},\"t_max\":3000,\"num_t\":{num_t}}}"
        )
        .into_bytes(),
    }
}

/// Heap allocations `handle` makes answering `req` with `x-cache: want`
/// (or no such header), the response's drop left out.
fn allocations_handling(state: &AppState, req: &Request, want: Option<&str>) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let resp = state.handle(req);
    COUNTING.with(|c| c.set(false));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let x_cache = resp.extra_headers.iter().find(|(k, _)| *k == "x-cache");
    assert_eq!(x_cache.map(|(_, v)| v.as_str()), want);
    ALLOCATIONS.with(|n| n.get())
}

#[test]
fn a_thermo_miss_allocates_a_few_dozen_times_whatever_the_grid() {
    let state = state();
    // Warm the metric slots and the cache's tables.
    allocations_handling(&state, &post("/v1/thermo", 299.0, 8), Some("miss"));
    let miss =
        |num_t| allocations_handling(&state, &post("/v1/thermo", 300.0, num_t), Some("miss"));
    let (small, typical, large) = (miss(64), miss(256), miss(2048));
    assert!(typical <= 64, "256-point miss: {typical} allocations");
    assert!(
        large <= small + 16,
        "allocations grow with the grid: {small} at 64 points, {large} at 2048"
    );
}

#[test]
fn a_thermo_hit_allocates_at_most_sixteen_times() {
    let state = state();
    let req = post("/v1/thermo", 300.0, 256);
    allocations_handling(&state, &req, Some("miss"));
    let hit = allocations_handling(&state, &req, Some("hit"));
    assert!(hit <= 16, "256-point hit: {hit} allocations");
}

#[test]
fn a_32_point_sro_answer_allocates_under_a_hundred_times() {
    let state = state();
    allocations_handling(&state, &post("/v1/sro", 299.0, 2), None);
    let sro = allocations_handling(&state, &post("/v1/sro", 300.0, 32), None);
    assert!(sro <= 96, "32-point sro (2 080 numbers): {sro} allocations");
}
