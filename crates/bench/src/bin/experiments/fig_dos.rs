//! E3 — The density of states of NbMoTaW.
//!
//! Regenerates the headline figure: `ln g(E)` over the reachable energy
//! range, normalized to the exact total configuration count, with the
//! `ln g` range (the paper's `~e^10,000` at N = 8192) reported at the end.

use dt_bench::{rewl_config, timed, HeaSystem};
use dt_lattice::Composition;
use dt_rewl::KernelSpec;

use crate::{Args, Report, Run};

pub fn run(args: &Args, out: &mut Report) -> Run {
    let l: usize = args.get("--l")?;
    let lnf: f64 = args.get("--lnf")?;
    let sys = HeaSystem::nbmotaw(l);
    let range = sys.energy_range(60);

    writeln!(
        out,
        "# E3: DOS of NbMoTaW N={} over [{:.3}, {:.3}] eV",
        sys.num_sites(),
        range.0,
        range.1
    );
    writeln!(
        out,
        "# exact ln(total configurations) = {:.1}  (paper scale N=8192: {:.0})",
        sys.comp.ln_num_configurations(),
        Composition::equiatomic(4, 8192)
            .expect("valid")
            .ln_num_configurations()
    );

    let cfg = rewl_config(
        2,
        2,
        (24 * l * l).min(512),
        lnf,
        2_000_000,
        7,
        KernelSpec::Deep(Box::new(dt_rewl::DeepSpec {
            proposal: dt_proposal::DeepProposalConfig {
                k: 12,
                hidden: vec![32, 32],
            },
            deep_weight: 0.15,
            ..dt_rewl::DeepSpec::default()
        })),
    );
    let (res, secs) = timed(|| sys.rewl(range, &cfg));
    let mut dos = res.dos.clone();
    dos.normalize_total(sys.comp.ln_num_configurations(), Some(&res.mask));

    let rows: Vec<String> = res
        .mask
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v)
        .map(|(b, _)| format!("{:.5},{:.4}", dos.grid().center(b), dos.ln_g_bin(b)))
        .collect();
    out.table("E_eV,ln_g", rows);

    writeln!(
        out,
        "\n# ln g range over visited bins: {:.1}",
        dos.ln_g_range(Some(&res.mask))
    );
    writeln!(
        out,
        "# converged: {} in {} sweeps/walker, {:.1} s wall, {} total moves",
        res.converged, res.sweeps, secs, res.total_moves
    );
    for w in &res.windows {
        writeln!(
            out,
            "# window {}: final ln f = {:.2e}, exchange rate {:.2}",
            w.window,
            w.ln_f,
            w.exchange_rate()
        );
    }
    Ok(())
}
