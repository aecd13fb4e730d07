//! E4 — Thermodynamics of NbMoTaW from the sampled DOS.
//!
//! Regenerates the U(T) / C_v(T) / S(T) / F(T) curves and the
//! order–disorder transition estimate.
//!
//! ```text
//! cargo run -p dt-bench --release --bin fig_thermo [-- --l 3]
//! ```

use deepthermo::{DeepThermo, DeepThermoConfig, MaterialSpec};
use dt_bench::{arg, print_csv};

fn main() {
    let l: usize = arg("--l", 3);
    let mut cfg = DeepThermoConfig::quick_demo();
    cfg.material = MaterialSpec::nbmotaw(l);
    cfg.rewl.max_sweeps = 150_000;
    cfg.rewl.wl.ln_f_final = 3e-4;
    // Start above the DOS-noise floor: ln g errors in the rarely-visited
    // ground-state bins are exponentially amplified below ~300 K and
    // produce spurious low-T Cv structure (a standard flat-histogram
    // caveat; deeper ln_f_final pushes the floor down).
    cfg.temperatures = dt_thermo::temperature_grid(300.0, 3000.0, 109);
    let n = cfg.material.num_sites();

    println!("# E4: thermodynamics of NbMoTaW N={n}");
    let report = DeepThermo::from_material(cfg)
        .expect("valid config")
        .run()
        .expect("sampling failed");

    let rows: Vec<String> = report
        .thermo
        .iter()
        .map(|p| {
            format!(
                "{:.1},{:.5},{:.5},{:.5},{:.5}",
                p.t,
                p.u / n as f64,
                p.cv / n as f64,
                p.f / n as f64,
                p.s / n as f64
            )
        })
        .collect();
    print_csv("T_K,U_eV_atom,Cv_kB_atom,F_eV_atom,S_kB_atom", &rows);

    println!(
        "\n# order-disorder transition: T_c = {:.0} K, Cv peak {:.3} kB/atom",
        report.transition_temperature,
        report.cv_peak / n as f64
    );
    println!(
        "# S(T_max)/atom = {:.3} kB (ideal mixing ln 4 = {:.3})",
        report.thermo.last().expect("points").s / n as f64,
        4f64.ln()
    );
    println!("# converged: {}", report.converged);
}
