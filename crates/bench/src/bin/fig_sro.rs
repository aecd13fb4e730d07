//! E5 — Warren–Cowley short-range order versus temperature.
//!
//! Regenerates the SRO(T) curves (the "phase transition behaviours" the
//! abstract highlights) from a single Wang–Landau run via microcanonical
//! reweighting, and cross-checks two temperatures against direct
//! Metropolis sampling.
//!
//! ```text
//! cargo run -p dt-bench --release --bin fig_sro [-- --l 3]
//! ```

use deepthermo::{DeepThermo, DeepThermoConfig, MaterialSpec};
use dt_bench::{arg, print_csv};
use dt_lattice::{Configuration, Species, SroAccumulator};
use dt_metropolis::MetropolisSampler;
use dt_proposal::{LocalSwap, ProposalContext};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let l: usize = arg("--l", 3);
    let mut cfg = DeepThermoConfig::quick_demo();
    cfg.material = MaterialSpec::nbmotaw(l);
    cfg.rewl.max_sweeps = 150_000;
    cfg.rewl.wl.ln_f_final = 3e-4;
    cfg.temperatures = dt_thermo::temperature_grid(100.0, 3000.0, 60);

    println!("# E5: SRO(T) of NbMoTaW N={}", cfg.material.num_sites());
    let runner = DeepThermo::from_material(cfg).expect("valid config");
    let report = runner.run().expect("sampling failed");

    // Reweighted curves for every unlike pair.
    let temps: Vec<f64> = report.sro_curves[0]
        .points
        .iter()
        .map(|&(t, _)| t)
        .collect();
    let rows: Vec<String> = temps
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let alphas: Vec<String> = report
                .sro_curves
                .iter()
                .map(|c| format!("{:.4}", c.points[i].1))
                .collect();
            format!("{t:.0},{}", alphas.join(","))
        })
        .collect();
    let header = format!(
        "T_K,{}",
        report
            .sro_curves
            .iter()
            .map(|c| c.label.replace('-', "_"))
            .collect::<Vec<_>>()
            .join(",")
    );
    print_csv(&header, &rows);

    // Cross-check: direct Metropolis at two temperatures.
    println!("\n# cross-check vs direct Metropolis (Mo-Ta, first shell)");
    let ctx = ProposalContext {
        neighbors: runner.neighbors(),
        composition: runner.composition(),
    };
    let mo_ta = report
        .sro_curves
        .iter()
        .find(|c| c.label == "Mo-Ta")
        .expect("curve");
    let mut rows = Vec::new();
    for &t in &[800.0f64, 2000.0] {
        let mut rng = ChaCha8Rng::seed_from_u64(t as u64);
        let c0 = Configuration::random(runner.composition(), &mut rng);
        let mut sampler = MetropolisSampler::new(
            t,
            c0,
            runner.model(),
            runner.neighbors(),
            Box::new(LocalSwap::new()),
            3,
        );
        let mut acc = SroAccumulator::new(2, 4);
        sampler.run(
            runner.model(),
            runner.neighbors(),
            &ctx,
            400,
            2000,
            4,
            |c, _| acc.accumulate(c, runner.neighbors()),
        );
        let wc = acc
            .mean_alpha(runner.neighbors(), runner.composition())
            .expect("samples");
        let direct = wc.alpha(0, Species(1), Species(2));
        let reweighted = mo_ta
            .points
            .iter()
            .min_by(|a, b| {
                (a.0 - t)
                    .abs()
                    .partial_cmp(&(b.0 - t).abs())
                    .expect("finite")
            })
            .expect("points")
            .1;
        rows.push(format!("{t:.0},{reweighted:.4},{direct:.4}"));
    }
    print_csv("T_K,alpha_reweighted,alpha_direct_metropolis", &rows);
}
