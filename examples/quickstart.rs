//! Quickstart: evaluate the thermodynamics of a small NbMoTaW supercell.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Runs the full DeepThermo pipeline on a 3×3×3 BCC supercell (54 atoms):
//! energy-range discovery, parallel replica-exchange Wang–Landau sampling,
//! and evaluation of U(T), C_v(T), S(T) plus Warren–Cowley short-range
//! order, finishing with the order–disorder transition estimate.

use deepthermo::{DeepThermo, DeepThermoConfig, DeepThermoError};

fn main() -> Result<(), DeepThermoError> {
    let config = DeepThermoConfig::quick_demo();
    println!(
        "DeepThermo quickstart: NbMoTaW, {} sites, {} windows x {} walkers",
        config.material.num_sites(),
        config.rewl.num_windows,
        config.rewl.walkers_per_window
    );

    let runner = DeepThermo::from_material(config)?;
    let report = runner.run()?;

    println!("\n== summary =====================================");
    print!("{}", report.summary());

    println!("\n== thermodynamics (every 10th point) ===========");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "T [K]", "U [eV]", "Cv/kB", "S/kB"
    );
    for p in report.thermo.iter().step_by(10) {
        println!("{:>8.0} {:>12.4} {:>12.3} {:>12.3}", p.t, p.u, p.cv, p.s);
    }

    println!("\n== first-shell Warren-Cowley SRO at the ends ===");
    for curve in &report.sro_curves {
        let lo = curve.points.first().expect("points");
        let hi = curve.points.last().expect("points");
        println!(
            "{:>6}: alpha({:.0} K) = {:+.3}   alpha({:.0} K) = {:+.3}",
            curve.label, lo.0, lo.1, hi.0, hi.1
        );
    }

    println!(
        "\nDensity of states spans e^{:.0}; transition near {:.0} K.",
        report.ln_g_range, report.transition_temperature
    );
    Ok(())
}
