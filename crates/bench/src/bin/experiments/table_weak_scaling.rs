//! E7 — Weak scaling to 3,000 GPUs (V100 vs MI250X).
//!
//! Two layers (DESIGN.md, "Substitutions"): the projected table from the
//! calibrated performance model reproduces the paper's scaling shapes at
//! fleet sizes no laptop can host; the measured table runs the real
//! thread-parallel REWL at small walker counts on this machine.

use dt_bench::{rewl_config, timed, HeaSystem};
use dt_hpc::{weak_scaling_table, GpuSpec, WorkloadShape};
use dt_rewl::KernelSpec;

use crate::{Report, Run};

pub fn run(out: &mut Report) -> Run {
    writeln!(
        out,
        "# E7: weak scaling (projected, perf model, paper workload)"
    );
    let shape = WorkloadShape::paper_default();
    let ranks = [8usize, 32, 128, 512, 1024, 2048, 3000];
    for gpu in [GpuSpec::v100(), GpuSpec::mi250x_gcd()] {
        let rows: Vec<String> = weak_scaling_table(&gpu, &shape, &ranks)
            .into_iter()
            .map(|r| {
                format!(
                    "{},{},{:.5},{:.4e},{:.3}",
                    gpu.name, r.ranks, r.time_per_iteration_s, r.throughput, r.efficiency
                )
            })
            .collect();
        out.table("gpu,ranks,s_per_iter,agg_moves_per_s,efficiency", rows);
        writeln!(out);
    }

    writeln!(out, "# E7b: measured thread-parallel REWL (this machine)");
    let sys = HeaSystem::nbmotaw(3);
    let range = sys.energy_range(30);
    let mut rows = Vec::new();
    for (windows, per_window) in [(2usize, 1usize), (2, 2), (4, 2), (4, 4), (8, 4)] {
        let cfg = rewl_config(
            windows,
            per_window,
            48,
            1e-2,
            10_000,
            1,
            KernelSpec::LocalSwap,
        );
        let (res, wall) = timed(|| sys.rewl(range, &cfg));
        rows.push(format!(
            "{},{windows},{wall:.2},{:.4e}",
            windows * per_window,
            res.total_moves as f64 / wall
        ));
    }
    out.table("walkers,windows,wall_s,agg_moves_per_s", rows);
    Ok(())
}
