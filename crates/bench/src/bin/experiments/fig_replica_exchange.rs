//! E9 — Replica-exchange acceptance versus window overlap.
//!
//! Regenerates the overlap ablation: exchange acceptance between adjacent
//! windows as a function of the overlap fraction, per window pair.

use dt_bench::{rewl_config, HeaSystem};
use dt_rewl::{KernelSpec, RewlConfig};

use crate::{Args, Report, Run};

pub fn run(args: &Args, out: &mut Report) -> Run {
    let l: usize = args.get("--l")?;
    let sys = HeaSystem::nbmotaw(l);
    let range = sys.energy_range(30);
    writeln!(
        out,
        "# E9: replica-exchange acceptance vs overlap, NbMoTaW N={}",
        sys.num_sites()
    );

    let mut rows = Vec::new();
    for overlap in [0.5f64, 0.75, 0.9] {
        let cfg = RewlConfig {
            overlap,
            ..rewl_config(4, 2, 64, 1e-3, 100_000, 5, KernelSpec::LocalSwap)
        };
        let res = sys.rewl(range, &cfg);
        for w in &res.windows {
            if w.exchange_attempts > 0 {
                rows.push(format!(
                    "{overlap},{},{},{},{:.4}",
                    w.window,
                    w.exchange_attempts,
                    w.exchange_accepted,
                    w.exchange_rate()
                ));
            }
        }
    }
    out.table("overlap,window_pair,attempts,accepted,acceptance", rows);
    writeln!(
        out,
        "\n# expected shape: acceptance grows with overlap (more shared"
    );
    writeln!(out, "# energy support between adjacent windows)");
    Ok(())
}
