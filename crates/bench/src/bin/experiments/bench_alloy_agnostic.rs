//! E17 — the alloy-agnostic material layer, end to end.
//!
//! Runs every built-in material of the registry through the same
//! pipeline the CLI drives — surrogate training on the material's EPI
//! Hamiltonian, REWL to DOS convergence, canonical thermodynamics —
//! and gates that the layer generalizes beyond the paper's NbMoTaW
//! fixture:
//!
//! * **convergence** — each material's REWL run reaches its `ln f`
//!   target within `--max-sweeps`;
//! * **surrogate quality** — a surrogate trained on each material's
//!   descriptor reaches test R² ≥ `--r2-gate` (the pair-correlation
//!   descriptor is a sufficient statistic for any EPI Hamiltonian, so
//!   high R² must hold for *every* material, not just NbMoTaW);
//! * **physicality** — hot entropy per atom approaches (from below) the
//!   ideal-mixing bound of the material's composition, and C_v ≥ 0
//!   everywhere.
//!
//! Writes `--out` (default `BENCH_alloy_agnostic.json`) and exits
//! nonzero when any gate fails — the CI fence for the material layer.

use dt_bench::{rewl_config, timed, HeaSystem};
use dt_hamiltonian::Material;
use dt_rewl::KernelSpec;
use dt_surrogate::{Dataset, PairCorrelationDescriptor, SamplingStrategy, SurrogateModel};
use dt_thermo::{canonical_curve, temperature_grid, KB_EV_PER_K};
use dt_wanglandau::explore_energy_range;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Args, Report, Run};

struct MaterialResult {
    key: String,
    converged: bool,
    sweeps: u64,
    wall_s: f64,
    r2: f64,
    s_hot_frac: f64,
    cv_ok: bool,
}

fn run_material(mat: &Material, l: usize, max_sweeps: u64, train_count: usize) -> MaterialResult {
    let sys = HeaSystem::from_material(mat, l);
    let mut rng = ChaCha8Rng::seed_from_u64(17);

    // Surrogate quality on this material's energy surface.
    let descriptor = PairCorrelationDescriptor {
        num_species: mat.num_species(),
        num_shells: mat.num_shells(),
    };
    let data = Dataset::generate(
        &sys.model,
        &sys.neighbors,
        &sys.comp,
        descriptor,
        train_count,
        SamplingStrategy::Annealed,
        &mut rng,
    );
    let (train, test) = data.split(0.8);
    let opts = dt_surrogate::TrainingOptions {
        hidden: vec![32],
        epochs: 250,
        ..Default::default()
    };
    let (_, train_report) = SurrogateModel::train(descriptor, &train, &test, &opts, &mut rng);

    // REWL to convergence on the true Hamiltonian.
    let range = explore_energy_range(&sys.model, &sys.neighbors, &sys.comp, 30, 0.02, &mut rng);
    let cfg = rewl_config(2, 2, 40, 1e-3, max_sweeps, 5, KernelSpec::LocalSwap);
    let (out, wall_s) = timed(|| sys.rewl(range, &cfg));

    // Canonical thermodynamics from the sampled DOS.
    let mut dos = out.dos.clone();
    dos.normalize_total(sys.comp.ln_num_configurations(), Some(&out.mask));
    let (mut energies, mut ln_g) = (Vec::new(), Vec::new());
    for (b, &vis) in out.mask.iter().enumerate() {
        if vis {
            energies.push(dos.grid().center(b));
            ln_g.push(dos.ln_g_bin(b));
        }
    }
    let temps = temperature_grid(200.0, 3000.0, 40);
    let curve = canonical_curve(&energies, &ln_g, &temps, KB_EV_PER_K);
    let n = sys.comp.num_sites() as f64;
    let s_max = sys.comp.ln_num_configurations() / n;
    let s_hot = curve.last().expect("curve").s / n;

    MaterialResult {
        key: mat.key().to_string(),
        converged: out.converged,
        sweeps: out.sweeps,
        wall_s,
        r2: train_report.test_r2,
        s_hot_frac: s_hot / s_max,
        cv_ok: curve.iter().all(|p| p.cv >= -1e-9 && p.cv.is_finite()),
    }
}

pub fn run(args: &Args, out: &mut Report) -> Run {
    let l: usize = args.get("--l")?;
    let max_sweeps: u64 = args.get("--max-sweeps")?;
    let r2_gate: f64 = args.get("--r2-gate")?;
    let train_count: usize = args.get("--train-count")?;

    let mut rows = Vec::new();
    let mut materials = Vec::new();
    let mut pass = true;
    for name in Material::builtin_names() {
        let mat = Material::builtin(name).expect("registry name");
        let r = run_material(&mat, l, max_sweeps, train_count);
        // Hot entropy must close in on ideal mixing without exceeding it.
        let s_ok = r.s_hot_frac > 0.6 && r.s_hot_frac < 1.02;
        let mat_pass = r.converged && r.r2 >= r2_gate && s_ok && r.cv_ok;
        pass &= mat_pass;
        rows.push(format!(
            "{},{},{},{:.1},{:.4},{:.3},{},{}",
            r.key, r.converged, r.sweeps, r.wall_s, r.r2, r.s_hot_frac, r.cv_ok, mat_pass
        ));
        materials.push(format!(
            "{},{},{},{},{:.2},{:.4}",
            r.key,
            mat.structure().name(),
            mat.num_species(),
            mat.num_shells(),
            r.wall_s,
            r.s_hot_frac
        ));
    }

    out.table(
        "material,converged,sweeps,wall_s,surrogate_r2,s_hot_frac,cv_ok,pass",
        rows,
    );
    out.record(
        "material,structure,species,shells,wall_s,s_hot_over_s_max",
        materials,
    );
    out.record(
        "l,windows,walkers_per_window,bins,train_count,min_surrogate_r2,s_hot_frac_min,s_hot_frac_max",
        vec![format!("{l},2,2,40,{train_count},{r2_gate:.2},0.6,1.02")],
    );
    if !pass {
        out.fail("alloy-agnostic gate — see the pass column".to_string());
    }
    Ok(())
}
