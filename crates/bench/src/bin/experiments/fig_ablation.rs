//! Ablations — design choices called out in DESIGN.md.
//!
//! 1. Deep-kernel mixture weight: acceptance and convergence as the deep
//!    fraction grows.
//! 2. Training cadence: how often retraining pays off.
//! 3. 1/t vs flatness-only schedule: final ln f and sweeps.

use dt_bench::{rewl_config, HeaSystem};
use dt_proposal::{DeepProposalConfig, TrainerConfig};
use dt_rewl::{DeepSpec, KernelSpec, RewlConfig};
use dt_wanglandau::LnfSchedule;

use crate::{Args, Report, Run};

fn base_cfg(kernel: KernelSpec) -> RewlConfig {
    rewl_config(2, 2, 48, 1e-3, 60_000, 11, kernel)
}

fn deep_spec(weight: f64, train_every: u64) -> DeepSpec {
    DeepSpec {
        proposal: DeepProposalConfig {
            k: 12,
            hidden: vec![32, 32],
        },
        deep_weight: weight,
        trainer: TrainerConfig {
            k: 12,
            ..TrainerConfig::default()
        },
        train_every_sweeps: train_every,
        epochs_per_round: 2,
        buffer_capacity: 128,
        sample_every_sweeps: 4,
        sync_weights: true,
    }
}

pub fn run(args: &Args, out: &mut Report) -> Run {
    let l: usize = args.get("--l")?;
    let sys = HeaSystem::nbmotaw(l);
    let range = sys.energy_range(30);

    writeln!(out, "# ablation 1: deep mixture weight");
    let mut rows = Vec::new();
    for weight in [0.05f64, 0.2, 0.5] {
        let cfg = base_cfg(KernelSpec::Deep(Box::new(deep_spec(weight, 50))));
        let res = sys.rewl(range, &cfg);
        let mut deep_acc = 0.0;
        for w in &res.windows {
            if let Some(a) = w.stats.acceptance("deep-autoregressive") {
                deep_acc = a;
            }
        }
        rows.push(format!(
            "{weight},{},{deep_acc:.4},{}",
            res.sweeps, res.converged
        ));
    }
    out.table("deep_weight,sweeps,deep_acceptance,converged", rows);

    writeln!(
        out,
        "\n# ablation 2: training cadence (sweeps between retrains)"
    );
    let mut rows = Vec::new();
    for cadence in [25u64, 100, 1000] {
        let cfg = base_cfg(KernelSpec::Deep(Box::new(deep_spec(0.2, cadence))));
        let res = sys.rewl(range, &cfg);
        let mut deep_acc = 0.0;
        for w in &res.windows {
            if let Some(a) = w.stats.acceptance("deep-autoregressive") {
                deep_acc = a;
            }
        }
        rows.push(format!("{cadence},{},{deep_acc:.4}", res.sweeps));
    }
    out.table("train_every_sweeps,sweeps,deep_acceptance", rows);

    writeln!(out, "\n# ablation 3: ln f schedule");
    let mut rows = Vec::new();
    for (name, schedule) in [
        (
            "one_over_t",
            LnfSchedule::OneOverT {
                flatness: 0.7,
                reduction: 0.5,
            },
        ),
        (
            "flatness",
            LnfSchedule::Flatness {
                flatness: 0.8,
                reduction: 0.5,
            },
        ),
    ] {
        let mut cfg = base_cfg(KernelSpec::LocalSwap);
        cfg.wl.schedule = schedule;
        let res = sys.rewl(range, &cfg);
        let ln_f_max = res.windows.iter().map(|w| w.ln_f).fold(0.0f64, f64::max);
        rows.push(format!(
            "{name},{},{ln_f_max:.3e},{}",
            res.sweeps, res.converged
        ));
    }
    out.table("schedule,sweeps,final_lnf_max,converged", rows);
    Ok(())
}
