//! Phase-transition study: the workload that motivates the paper.
//!
//! ```text
//! cargo run --release --example phase_transition [-- --l 4]
//! ```
//!
//! Samples the density of states of equiatomic NbMoTaW with DeepThermo's
//! deep proposals, then walks the temperature axis to characterize the
//! B2-type order–disorder transition: heat-capacity peak, entropy release
//! toward the ideal-mixing limit `ln 4` per atom, and the Mo–Ta
//! Warren–Cowley parameter's collapse across T_c.

use deepthermo::hamiltonian::KB_EV_PER_K;
use deepthermo::rewl::KernelSpec;
use deepthermo::{DeepThermo, DeepThermoConfig, DeepThermoError};

fn main() -> Result<(), DeepThermoError> {
    let l = std::env::args()
        .skip_while(|a| a != "--l")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize);

    let mut config = DeepThermoConfig::quick_demo();
    config.rewl.kernel = KernelSpec::Deep(Box::default());
    config.material = deepthermo::MaterialSpec::nbmotaw(l);
    config.rewl.max_sweeps = 150_000;
    let n = config.material.num_sites();
    println!("Phase transition of NbMoTaW, {n} atoms, deep proposals on\n");

    let runner = DeepThermo::from_material(config)?;
    let report = runner.run()?;
    assert!(matches!(runner.config().rewl.kernel, KernelSpec::Deep(_)));

    println!("{}", report.summary());

    // Entropy must approach the ideal-mixing value at high temperature.
    let s_per_atom_hot = report.thermo.last().expect("points").s / n as f64;
    println!(
        "entropy per atom at {:.0} K: {:.3} kB (ideal mixing ln 4 = {:.3})",
        report.thermo.last().expect("points").t,
        s_per_atom_hot,
        4.0f64.ln()
    );

    // Transition signatures.
    let (tc, cv) = (report.transition_temperature, report.cv_peak);
    println!(
        "heat-capacity peak: Cv/kB = {:.2} per cell ({:.3} per atom) at {tc:.0} K",
        cv,
        cv / n as f64
    );
    println!(
        "thermal scale check: kB*Tc = {:.1} meV vs strongest EPI 46.5 meV",
        KB_EV_PER_K * tc * 1e3
    );

    let mo_ta = report
        .sro_curves
        .iter()
        .find(|c| c.label == "Mo-Ta")
        .expect("Mo-Ta SRO curve");
    println!("\nMo-Ta first-shell Warren-Cowley parameter:");
    println!("{:>8} {:>10}", "T [K]", "alpha");
    for (t, a) in mo_ta.points.iter().step_by(6) {
        println!("{t:>8.0} {a:>10.3}");
    }
    let a_cold = mo_ta.points.first().expect("points").1;
    let a_hot = mo_ta.points.last().expect("points").1;
    println!(
        "\nordering strength decays {:.2} -> {:.2} across the transition",
        a_cold, a_hot
    );
    Ok(())
}
