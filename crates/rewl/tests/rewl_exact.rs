//! End-to-end REWL validation: the parallel, windowed, replica-exchanging
//! sampler must reproduce the exact density of states of an enumerable
//! system, deterministically.

use dt_hamiltonian::{exact::ExactDos, PairHamiltonian};
use dt_lattice::{Composition, Structure, Supercell};
use dt_proposal::{DeepProposalConfig, TrainerConfig};
use dt_rewl::{run_rewl, DeepSpec, KernelSpec, RewlConfig};
use dt_wanglandau::{LnfSchedule, WlParams};

fn system() -> (
    Supercell,
    dt_lattice::NeighborTable,
    Composition,
    PairHamiltonian,
) {
    let cell = Supercell::cubic(Structure::bcc(), 2);
    let nt = cell.neighbor_table(1);
    let comp = Composition::equiatomic(2, cell.num_sites()).unwrap();
    let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
    (cell, nt, comp, h)
}

fn wl_params() -> WlParams {
    WlParams {
        ln_f_initial: 1.0,
        ln_f_final: 5e-6,
        schedule: LnfSchedule::Flatness {
            flatness: 0.8,
            reduction: 0.5,
        },
        sweeps_per_check: 20,
    }
}

fn base_config(kernel: KernelSpec, seed: u64) -> RewlConfig {
    RewlConfig {
        num_windows: 2,
        walkers_per_window: 2,
        overlap: 0.75,
        num_bins: 49,
        wl: wl_params(),
        exchange_every_sweeps: 10,
        observe_every_sweeps: 2,
        max_sweeps: 300_000,
        seed,
        kernel,
        ..RewlConfig::default()
    }
}

/// Max |Δ ln g| between a REWL output and exact enumeration.
fn compare_to_exact(out: &dt_rewl::RewlOutput, comp: &Composition, h: &PairHamiltonian) -> f64 {
    let (_, nt, _, _) = system();
    let exact = ExactDos::enumerate(h, &nt, comp);
    let mut dos = out.dos.clone();
    dos.normalize_total(comp.ln_num_configurations(), Some(&out.mask));
    let mut max_err: f64 = 0.0;
    for (&e, &count) in exact.energies().iter().zip(exact.counts()) {
        let bin = dos.grid().bin(e).expect("level in grid");
        assert!(out.mask[bin], "exact level {e} unvisited");
        max_err = max_err.max((dos.ln_g_bin(bin) - (count as f64).ln()).abs());
    }
    max_err
}

#[test]
fn rewl_matches_exact_dos() {
    let (_, nt, comp, h) = system();
    let cfg = base_config(KernelSpec::LocalSwap, 3);
    let out = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg).unwrap();
    assert!(out.converged, "REWL did not converge");
    // Replica exchange must actually fire.
    assert!(out.windows[0].exchange_attempts > 0);
    assert!(
        out.windows[0].exchange_rate() > 0.05,
        "exchange rate {}",
        out.windows[0].exchange_rate()
    );
    let err = compare_to_exact(&out, &comp, &h);
    assert!(err < 0.4, "max |Δ ln g| = {err}");
}

#[test]
fn rewl_is_deterministic() {
    let (_, nt, comp, h) = system();
    let cfg = base_config(KernelSpec::LocalSwap, 11);
    let a = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg).unwrap();
    let b = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg).unwrap();
    assert_eq!(
        a.dos.ln_g(),
        b.dos.ln_g(),
        "same seed must give identical DOS"
    );
    assert_eq!(a.mask, b.mask);
    assert_eq!(a.sweeps, b.sweeps);
    assert_eq!(a.total_moves, b.total_moves);

    let c = run_rewl(
        &h,
        &nt,
        &comp,
        (-0.645, -0.155),
        &base_config(KernelSpec::LocalSwap, 12),
    )
    .unwrap();
    assert_ne!(a.dos.ln_g(), c.dos.ln_g(), "different seeds must differ");
}

#[test]
fn deep_rewl_with_training_matches_exact() {
    let (_, nt, comp, h) = system();
    let deep = DeepSpec {
        proposal: DeepProposalConfig {
            k: 4,
            hidden: vec![12],
        },
        deep_weight: 0.25,
        trainer: TrainerConfig {
            k: 4,
            lr: 3e-3,
            grad_clip: 5.0,
            configs_per_batch: 8,
        },
        train_every_sweeps: 100,
        epochs_per_round: 2,
        buffer_capacity: 64,
        sample_every_sweeps: 5,
        sync_weights: true,
    };
    let mut cfg = base_config(KernelSpec::Deep(Box::new(deep)), 7);
    cfg.max_sweeps = 300_000;
    let out = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg).unwrap();
    assert!(out.converged, "deep REWL did not converge");
    let err = compare_to_exact(&out, &comp, &h);
    assert!(err < 0.4, "max |Δ ln g| = {err}");
    // Both kernels must have been exercised.
    let mut saw_deep = false;
    let mut saw_local = false;
    for win in &out.windows {
        for (name, p, _) in win.stats.iter() {
            if name.contains("deep") && p > 0 {
                saw_deep = true;
            }
            if name.contains("local") && p > 0 {
                saw_local = true;
            }
        }
    }
    assert!(saw_deep && saw_local, "mixture must exercise both kernels");
}

#[test]
fn sro_accumulator_is_populated() {
    let (_, nt, comp, h) = system();
    let mut cfg = base_config(KernelSpec::LocalSwap, 9);
    cfg.max_sweeps = 50_000;
    cfg.wl.ln_f_final = 1e-4; // quick run; SRO only needs coverage
    let out = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg).unwrap();
    // The L=2 spectrum is sparse (levels every 2-4 bins), so only a
    // fraction of the 49 bins is reachable at all.
    let sampled_bins = (0..cfg.num_bins).filter(|&b| out.sro.count(b) > 0).count();
    assert!(sampled_bins >= 5, "only {sampled_bins} bins sampled");
    // Pair probabilities must sum to 1 over (a,b) within the shell.
    for b in 0..cfg.num_bins {
        if let Some(mean) = out.sro.bin_mean(b) {
            let total: f64 = mean.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "bin {b}: Σp = {total}");
        }
    }
}

/// With telemetry on, every rank contributes a snapshot with phase
/// timings, acceptance counters, and fabric traffic counters.
#[test]
fn telemetry_snapshots_cover_every_rank() {
    let (_, nt, comp, h) = system();
    let mut cfg = base_config(KernelSpec::LocalSwap, 21);
    cfg.telemetry = true;
    cfg.wl.ln_f_final = 1e-3; // short run; telemetry only needs coverage
    let out = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg).unwrap();
    assert_eq!(out.telemetry.len(), 4, "one snapshot per surviving rank");
    for (rank, t) in out.telemetry.iter().enumerate() {
        assert_eq!(t.rank, rank);
        let mb = t.phase_stat(dt_telemetry::Phase::MoveBatch).unwrap();
        assert!(mb.count > 0, "rank {rank} recorded no sweeps");
        let ee = t.phase_stat(dt_telemetry::Phase::EnergyEval).unwrap();
        assert!(ee.count > mb.count, "ΔE evals outnumber sweeps");
        assert!(t.phase_stat(dt_telemetry::Phase::Allreduce).unwrap().count > 0);
        assert!(t.counter("sweeps").unwrap() > 0);
        assert!(t.counter("comm_sends").unwrap() > 0);
        assert!(t.counter("proposed_local-swap").unwrap() > 0);
        assert!(t.gauge("ln_f").is_some());
    }
    // The JSONL export of a real run must be syntactically valid.
    for line in dt_telemetry::to_jsonl(&out.telemetry).lines() {
        dt_telemetry::validate_json(line).expect("telemetry JSONL line parses");
    }
    // Telemetry must not perturb sampling: a telemetry-off run with the
    // same seed produces the identical DOS.
    let mut cfg_off = cfg.clone();
    cfg_off.telemetry = false;
    let base = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg_off).unwrap();
    assert_eq!(out.dos.ln_g(), base.dos.ln_g());
    assert!(base.telemetry.is_empty());
}
