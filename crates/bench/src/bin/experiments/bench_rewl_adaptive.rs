//! E16 — adaptive energy windows versus the uniform layout.
//!
//! Runs the same E9-size REWL problem (NbMoTaW `--l 3`, 4 windows × 2
//! walkers, 64 bins, 0.75 overlap) twice per seed:
//!
//! * **uniform** — the static equal-width `WindowLayout::new` baseline;
//! * **adaptive** — `--adaptive-windows` semantics: per-window pilot
//!   round-trip costs refit the boundaries (`equal_diffusion`), plus
//!   dynamic walker reallocation every `--rebalance-every` rounds.
//!
//! Time-to-converged-DOS is measured in sweeps per walker (the
//! deterministic MC clock — machine-independent, so the gate is stable
//! on shared CI runners); wall seconds ride along for reference. The
//! `--gate` speedup (default 1.3x) is enforced on the *aggregate* over
//! all seeds — `Σ uniform sweeps / Σ adaptive sweeps` — and the run also
//! requires the measured per-window round-trip spread (max/min mean
//! moves per round trip) to shrink on every seed.
//!
//! The measured window costs then re-run the E7/E8 weak-scaling
//! projection ([`dt_hpc::reproject_with_imbalance`]): synchronous REWL
//! rounds gate on the slowest window, so the 3,000-GPU efficiency under
//! the uniform layout's cost skew versus the adaptive layout's residual
//! skew quantifies what equal-diffusion windows buy back at scale.
//!
//! Writes `--out` (default `BENCH_rewl_adaptive.json`) and exits
//! nonzero when a run fails to converge, the spread fails to shrink, or
//! the gate fails — a CI regression fence.

use std::num::NonZeroU64;

use dt_bench::{rewl_config, timed, HeaSystem};
use dt_hpc::{
    reproject_with_imbalance, weak_scaling_table, window_imbalance_factor, GpuSpec, WorkloadShape,
};
use dt_rewl::{KernelSpec, RewlConfig, RewlOutput};
use dt_wanglandau::LnfSchedule;

use crate::{Args, Report, Run};

fn config(seed: u64, adaptive: bool) -> RewlConfig {
    let mut cfg = rewl_config(4, 2, 64, 1e-4, 400_000, seed, KernelSpec::LocalSwap);
    cfg.wl.schedule = LnfSchedule::Flatness {
        flatness: 0.8,
        reduction: 0.5,
    };
    cfg.wl.sweeps_per_check = 20;
    cfg.adaptive_windows = adaptive;
    cfg.rebalance_every = if adaptive { 4 } else { 0 };
    cfg
}

/// Mean moves per round trip for every window; windows that never
/// completed a trip (none on this fixture) read as their raw leg moves.
fn window_costs(out: &RewlOutput) -> Vec<f64> {
    out.windows
        .iter()
        .map(|w| w.round_trip_moves as f64 / w.round_trips.max(1) as f64)
        .collect()
}

/// Max/min round-trip cost across windows — 1.0 means perfectly even.
fn spread(costs: &[f64]) -> f64 {
    let max = costs.iter().cloned().fold(f64::MIN, f64::max);
    let min = costs.iter().cloned().fold(f64::MAX, f64::min);
    max / min.max(1.0)
}

pub fn run(args: &Args, out: &mut Report) -> Run {
    let l: usize = args.get("--l")?;
    let seeds = args.get::<NonZeroU64>("--seeds")?.get();
    let gate: f64 = args.get("--gate")?;

    let sys = HeaSystem::nbmotaw(l);
    let range = sys.energy_range(30);

    let mut rows = Vec::new();
    let mut walls = Vec::new();
    let mut uniform_sweeps = 0u64;
    let mut adaptive_sweeps = 0u64;
    let mut uniform_wall = 0.0f64;
    let mut adaptive_wall = 0.0f64;
    let mut all_converged = true;
    let mut spread_shrinks = true;
    // Mean per-window costs across seeds, for the scaling reprojection.
    let mut uniform_cost_sum = vec![0.0f64; 4];
    let mut adaptive_cost_sum = vec![0.0f64; 4];

    for seed in 1..=seeds {
        let (uni, uni_s) = timed(|| sys.rewl(range, &config(seed, false)));
        let (ada, ada_s) = timed(|| sys.rewl(range, &config(seed, true)));
        all_converged &= uni.converged && ada.converged;

        let uni_costs = window_costs(&uni);
        let ada_costs = window_costs(&ada);
        let (uni_spread, ada_spread) = (spread(&uni_costs), spread(&ada_costs));
        spread_shrinks &= ada_spread < uni_spread;
        for w in 0..4 {
            uniform_cost_sum[w] += uni_costs[w];
            adaptive_cost_sum[w] += ada_costs[w];
        }
        uniform_sweeps += uni.sweeps;
        adaptive_sweeps += ada.sweeps;
        uniform_wall += uni_s;
        adaptive_wall += ada_s;

        let speedup = uni.sweeps as f64 / ada.sweeps as f64;
        rows.push(format!(
            "{seed},{},{},{speedup:.2},{uni_spread:.2},{ada_spread:.2},{}",
            uni.sweeps, ada.sweeps, ada.walkers_rebalanced
        ));
        walls.push(format!(
            "{seed},{uni_s:.2},{},{ada_s:.2},{}",
            uni.converged, ada.converged
        ));
    }

    out.table(
        "seed,uniform_sweeps,adaptive_sweeps,speedup,uniform_rt_spread,adaptive_rt_spread,walkers_rebalanced",
        rows,
    );

    // E7/E8 reprojection: weak-scaling efficiency at the paper's
    // 3,000-GPU deployment under each layout's measured cost skew.
    let mean = |sums: &[f64]| sums.iter().map(|c| c / seeds as f64).collect::<Vec<_>>();
    let (uni_costs, ada_costs) = (mean(&uniform_cost_sum), mean(&adaptive_cost_sum));
    let shape = WorkloadShape::paper_default();
    let base = weak_scaling_table(&GpuSpec::v100(), &shape, &[8, 3000]);
    let uni_eff = reproject_with_imbalance(&base, &uni_costs)[1].efficiency;
    let ada_eff = reproject_with_imbalance(&base, &ada_costs)[1].efficiency;

    let speedup = uniform_sweeps as f64 / adaptive_sweeps as f64;
    let wall_speedup = uniform_wall / adaptive_wall;
    out.record(
        "seed,uniform_wall_s,uniform_converged,adaptive_wall_s,adaptive_converged",
        walls,
    );
    out.record(
        "l,windows,walkers_per_window,bins,overlap,seeds,uniform_sweeps,adaptive_sweeps,\
         speedup,wall_speedup,uniform_imbalance,adaptive_imbalance,uniform_efficiency_3000,\
         adaptive_efficiency_3000,gate,all_converged,spread_shrinks",
        vec![format!(
            "{l},4,2,64,0.75,{seeds},{uniform_sweeps},{adaptive_sweeps},{speedup:.3},\
             {wall_speedup:.3},{:.3},{:.3},{uni_eff:.3},{ada_eff:.3},{gate:.2},\
             {all_converged},{spread_shrinks}",
            window_imbalance_factor(&uni_costs),
            window_imbalance_factor(&ada_costs),
        )],
    );
    let pass = all_converged && spread_shrinks && speedup >= gate;
    if !pass {
        out.fail(format!(
            "adaptive windows gate — speedup {speedup:.2}x (need {gate:.2}x), \
             all_converged={all_converged}, spread_shrinks={spread_shrinks}"
        ));
    }
    Ok(())
}
