//! E8 — Strong scaling: a fixed global sampling workload over more GPUs.
//!
//! Projected from the calibrated performance model (communication is not
//! divided, so efficiency falls faster than weak scaling — the Amdahl
//! shape the paper's strong-scaling table shows), plus a measured
//! fixed-range REWL decomposition study on this machine.

use dt_bench::{rewl_config, timed, HeaSystem};
use dt_hpc::{strong_scaling_table, GpuSpec, WorkloadShape};
use dt_rewl::KernelSpec;

use crate::{Report, Run};

pub fn run(out: &mut Report) -> Run {
    writeln!(out, "# E8: strong scaling (projected, perf model)");
    let shape = WorkloadShape::paper_default();
    let ranks = [1usize, 2, 4, 8, 16, 32, 64];
    for gpu in [GpuSpec::v100(), GpuSpec::mi250x_gcd()] {
        let rows: Vec<String> = strong_scaling_table(&gpu, &shape, &ranks)
            .into_iter()
            .map(|r| {
                format!(
                    "{},{},{:.5},{:.3}",
                    gpu.name, r.ranks, r.time_per_iteration_s, r.efficiency
                )
            })
            .collect();
        out.table("gpu,ranks,s_per_iter,efficiency", rows);
        writeln!(out);
    }

    writeln!(
        out,
        "# E8b: measured window decomposition at fixed range/accuracy"
    );
    let sys = HeaSystem::nbmotaw(3);
    let range = sys.energy_range(30);
    let mut rows = Vec::new();
    for windows in [1usize, 2, 4, 8] {
        let cfg = rewl_config(windows, 1, 48, 1e-3, 300_000, 3, KernelSpec::LocalSwap);
        let (res, wall) = timed(|| sys.rewl(range, &cfg));
        rows.push(format!(
            "{windows},{},{wall:.2},{}",
            res.sweeps, res.converged
        ));
    }
    out.table("windows,sweeps_to_converge,wall_s,converged", rows);
    writeln!(
        out,
        "\n# narrower windows flatten faster: sweeps_to_converge drops"
    );
    writeln!(out, "# with window count — the REWL strong-scaling win");
    Ok(())
}
