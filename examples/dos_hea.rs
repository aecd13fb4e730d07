//! Density of states of a high-entropy alloy over an astronomically large
//! configuration space — the paper's headline capability.
//!
//! ```text
//! cargo run --release --example dos_hea [-- --l 4]
//! ```
//!
//! For an equiatomic quaternary alloy of N atoms the configuration count
//! is `N!/( (N/4)! )^4 ≈ e^{1.386·N}`, i.e. `~e^10,000` at the paper's
//! N = 8192. This example samples `ln g(E)` with replica-exchange
//! Wang–Landau and prints the curve; the `ln g` *range* it reports is the
//! quantity the abstract quotes. (The supercell edge is configurable: the
//! default L=3 finishes in seconds; L=16 is the paper-scale workload and
//! is CPU-hours on a laptop.)

use deepthermo::lattice::Composition;
use deepthermo::{DeepThermo, DeepThermoConfig, DeepThermoError, MaterialSpec};

fn main() -> Result<(), DeepThermoError> {
    let l = std::env::args()
        .skip_while(|a| a != "--l")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize);

    let mut config = DeepThermoConfig::quick_demo();
    config.material = MaterialSpec::nbmotaw(l);
    config.rewl.num_bins = (16 * l * l).min(512);
    config.rewl.max_sweeps = 200_000;
    let n = config.material.num_sites();

    let comp = Composition::equiatomic(4, n).expect("valid composition");
    println!(
        "NbMoTaW, N = {n}: exact configuration count = e^{:.1}",
        comp.ln_num_configurations()
    );
    println!("(paper scale: N = 8192 gives e^{:.0})\n", {
        Composition::equiatomic(4, 8192)
            .expect("valid")
            .ln_num_configurations()
    });

    let runner = DeepThermo::from_material(config)?;
    let report = runner.run()?;

    println!(
        "sampled ln g(E) over {} visited bins:",
        report.mask.iter().filter(|&&v| v).count()
    );
    println!("{:>12} {:>14}", "E [eV]", "ln g");
    let visited: Vec<usize> = report
        .mask
        .iter()
        .enumerate()
        .filter_map(|(b, &v)| v.then_some(b))
        .collect();
    for &bin in visited.iter().step_by((visited.len() / 24).max(1)) {
        println!(
            "{:>12.4} {:>14.2}",
            report.dos.grid().center(bin),
            report.dos.ln_g_bin(bin)
        );
    }

    println!(
        "\nln g spans {:.1} natural-log units (visited bins)",
        report.ln_g_range
    );
    println!(
        "normalization check: ln Σ g = {:.2} vs exact {:.2}",
        deepthermo::wanglandau::histogram::log_sum_exp(
            visited.iter().map(|&b| report.dos.ln_g_bin(b))
        ),
        comp.ln_num_configurations()
    );
    Ok(())
}
