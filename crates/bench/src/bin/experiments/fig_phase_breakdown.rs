//! E11 — Measured phase breakdown vs the roofline cost model.
//!
//! Runs a small telemetry-instrumented REWL sampling of NbMoTaW with the
//! deep proposal kernel, prints the per-rank phase-timing table, and then
//! compares the measured cross-rank phase *shares* (energy evaluation,
//! proposal-network inference, training, replica exchange, weight
//! allreduce) against the analytic performance model's projected cost
//! breakdown for the paper workload.

use dt_bench::{rewl_config, timed, HeaSystem};
use dt_hpc::{comparison_table, measured_vs_modeled, GpuSpec, PerfModel, WorkloadShape};
use dt_proposal::DeepProposalConfig;
use dt_rewl::{DeepSpec, KernelSpec, RewlConfig};
use dt_telemetry::PhaseBreakdown;

use crate::{Args, Report, Run};

pub fn run(args: &Args, out: &mut Report) -> Run {
    let l: usize = args.get("--l")?;
    let sys = HeaSystem::nbmotaw(l);
    let range = sys.energy_range(30);

    let cfg = RewlConfig {
        telemetry: true,
        ..rewl_config(
            2,
            2,
            (16 * l * l).min(512),
            1e-2,
            args.get("--max-sweeps")?,
            args.get("--seed")?,
            KernelSpec::Deep(Box::new(DeepSpec {
                proposal: DeepProposalConfig {
                    k: 8,
                    hidden: vec![24],
                },
                deep_weight: 0.2,
                ..DeepSpec::default()
            })),
        )
    };

    writeln!(
        out,
        "# E11: measured phase breakdown, NbMoTaW N={}, {} windows x {} walkers, deep proposals",
        sys.num_sites(),
        cfg.num_windows,
        cfg.walkers_per_window
    );
    let (res, wall) = timed(|| sys.rewl(range, &cfg));
    writeln!(
        out,
        "# wall {wall:.2} s, {} total moves, converged: {}\n",
        res.total_moves, res.converged
    );

    writeln!(out, "{}", dt_telemetry::phase_table(&res.telemetry));

    let measured = PhaseBreakdown::aggregate(&res.telemetry);
    let modeled = PerfModel::new(GpuSpec::v100(), WorkloadShape::paper_default())
        .iteration(cfg.num_windows * cfg.walkers_per_window);
    writeln!(
        out,
        "# measured shares (this machine) vs modeled shares (V100 roofline, paper workload)"
    );
    let shares = measured_vs_modeled(&measured, &modeled);
    write!(out, "{}", comparison_table(&shares));
    writeln!(
        out,
        "\n# accounted phase time: {:.2} s of {:.2} s aggregate wall across {} ranks",
        measured.accounted_s(),
        wall * res.telemetry.len() as f64,
        res.telemetry.len()
    );
    Ok(())
}
