//! Cross-crate integration: the full DeepThermo pipeline produces the same
//! physics whether it samples with classical local swaps or with deep
//! global proposals, and both agree with exact enumeration where that is
//! possible.

use deepthermo::hamiltonian::{exact::ExactDos, PairHamiltonian, KB_EV_PER_K};
use deepthermo::lattice::{Composition, Structure, Supercell};
use deepthermo::rewl::{run_rewl, DeepSpec, KernelSpec, RewlConfig};
use deepthermo::thermo::canonical_curve;
use deepthermo::wanglandau::{LnfSchedule, WlParams};
use deepthermo::{DeepThermo, DeepThermoConfig};

/// Binary enumerable reference system (BCC L=2, 16 sites).
fn binary_system() -> (
    Supercell,
    deepthermo::lattice::NeighborTable,
    Composition,
    PairHamiltonian,
) {
    let cell = Supercell::cubic(Structure::bcc(), 2);
    let nt = cell.neighbor_table(1);
    let comp = Composition::equiatomic(2, cell.num_sites()).unwrap();
    let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
    (cell, nt, comp, h)
}

fn rewl_cfg(kernel: KernelSpec, seed: u64) -> RewlConfig {
    RewlConfig {
        num_windows: 2,
        walkers_per_window: 2,
        overlap: 0.75,
        num_bins: 49,
        wl: WlParams {
            ln_f_initial: 1.0,
            ln_f_final: 5e-6,
            schedule: LnfSchedule::Flatness {
                flatness: 0.8,
                reduction: 0.5,
            },
            sweeps_per_check: 20,
        },
        exchange_every_sweeps: 10,
        observe_every_sweeps: 2,
        max_sweeps: 300_000,
        seed,
        kernel,
        ..RewlConfig::default()
    }
}

#[test]
fn canonical_curve_from_sampled_dos_matches_exact() {
    let (_, nt, comp, h) = binary_system();
    let exact = ExactDos::enumerate(&h, &nt, &comp);
    let out = run_rewl(
        &h,
        &nt,
        &comp,
        (-0.645, -0.155),
        &rewl_cfg(KernelSpec::LocalSwap, 21),
    )
    .unwrap();
    assert!(out.converged);
    let mut dos = out.dos.clone();
    dos.normalize_total(comp.ln_num_configurations(), Some(&out.mask));

    let mut energies = Vec::new();
    let mut ln_g = Vec::new();
    for (b, &vis) in out.mask.iter().enumerate() {
        if vis {
            energies.push(dos.grid().center(b));
            ln_g.push(dos.ln_g_bin(b));
        }
    }
    let temps = [400.0, 800.0, 1600.0, 3200.0];
    let curve = canonical_curve(&energies, &ln_g, &temps, KB_EV_PER_K);
    for (p, &t) in curve.iter().zip(&temps) {
        let beta = 1.0 / (KB_EV_PER_K * t);
        let exact_u = exact.mean_energy(beta);
        assert!(
            (p.u - exact_u).abs() < 0.01,
            "T={t}: sampled U {} vs exact {exact_u}",
            p.u
        );
        let exact_cv = exact.heat_capacity(beta);
        assert!(
            (p.cv - exact_cv).abs() < 0.2 * exact_cv.max(0.5),
            "T={t}: sampled Cv {} vs exact {exact_cv}",
            p.cv
        );
    }
}

#[test]
fn deep_and_local_kernels_sample_the_same_dos() {
    let (_, nt, comp, h) = binary_system();
    let local = run_rewl(
        &h,
        &nt,
        &comp,
        (-0.645, -0.155),
        &rewl_cfg(KernelSpec::LocalSwap, 31),
    )
    .unwrap();
    let deep_spec = DeepSpec {
        proposal: deepthermo::proposal::DeepProposalConfig {
            k: 4,
            hidden: vec![12],
        },
        deep_weight: 0.3,
        ..DeepSpec::default()
    };
    let deep = run_rewl(
        &h,
        &nt,
        &comp,
        (-0.645, -0.155),
        &rewl_cfg(KernelSpec::Deep(Box::new(deep_spec)), 32),
    )
    .unwrap();
    assert!(local.converged && deep.converged);

    let mut dl = local.dos.clone();
    dl.normalize_total(comp.ln_num_configurations(), Some(&local.mask));
    let mut dd = deep.dos.clone();
    dd.normalize_total(comp.ln_num_configurations(), Some(&deep.mask));
    let mut compared = 0;
    for b in 0..local.mask.len() {
        if local.mask[b] && deep.mask[b] {
            let diff = (dl.ln_g_bin(b) - dd.ln_g_bin(b)).abs();
            assert!(diff < 0.6, "bin {b}: |Δ ln g| = {diff}");
            compared += 1;
        }
    }
    // The L=2 binary spectrum has exactly 5 energy levels
    // (-0.64, -0.50, -0.40, -0.34, -0.32), so 5 co-visited bins is full
    // coverage.
    assert!(compared >= 5, "only {compared} co-visited bins");
}

#[test]
fn full_pipeline_physics_is_sane() {
    let report = DeepThermo::from_material(DeepThermoConfig::quick_demo().with_seed(77))
        .unwrap()
        .run()
        .unwrap();
    assert!(report.converged);

    // Entropy per atom must approach ln 4 from below at high T and stay
    // far below it at low T (ordered phase).
    let n = 54.0;
    let s_cold = report.thermo.first().unwrap().s / n;
    let s_hot = report.thermo.last().unwrap().s / n;
    assert!(s_hot > s_cold);
    assert!(s_hot < 4.0f64.ln() + 0.05, "S/atom hot = {s_hot}");
    assert!(s_hot > 0.8 * 4.0f64.ln(), "S/atom hot = {s_hot}");

    // Free energy decreases with T; U increases.
    for w in report.thermo.windows(2) {
        assert!(w[1].f <= w[0].f + 1e-9, "F must not increase with T");
        assert!(w[1].u >= w[0].u - 0.05, "U must not decrease notably");
    }

    // The strongest EPI (Mo-Ta) must give the most negative low-T SRO
    // among unlike pairs on opposite sublattices.
    let low_t_alpha = |label: &str| {
        report
            .sro_curves
            .iter()
            .find(|c| c.label == label)
            .expect("curve")
            .points[0]
            .1
    };
    assert!(low_t_alpha("Mo-Ta") < -0.5);
    assert!(low_t_alpha("Mo-Ta") <= low_t_alpha("Nb-Ta") + 1e-9);
}

#[test]
fn window_exchange_statistics_are_consistent() {
    let (_, nt, comp, h) = binary_system();
    let out = run_rewl(
        &h,
        &nt,
        &comp,
        (-0.645, -0.155),
        &rewl_cfg(KernelSpec::LocalSwap, 41),
    )
    .unwrap();
    // Only initiators (here: window 0) count attempts; accepted ≤ attempts.
    let w0 = &out.windows[0];
    assert!(w0.exchange_attempts > 0);
    assert!(w0.exchange_accepted <= w0.exchange_attempts);
    let w1 = &out.windows[1];
    assert_eq!(w1.exchange_attempts, 0);
    assert_eq!(w1.exchange_accepted, 0);
}
