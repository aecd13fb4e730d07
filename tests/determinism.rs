//! Reproducibility guarantees: same seed ⇒ identical results, across the
//! whole pipeline, including thread-parallel runs.

use deepthermo::{DeepThermo, DeepThermoConfig};

#[test]
fn pipeline_is_bitwise_deterministic() {
    let run = |seed: u64| {
        let report = DeepThermo::from_material(DeepThermoConfig::quick_demo().with_seed(seed))
            .unwrap()
            .run()
            .unwrap();
        (
            report.dos.ln_g().to_vec(),
            report.mask.clone(),
            report.transition_temperature,
            report.total_moves,
            report.sweeps,
        )
    };
    let a = run(123);
    let b = run(123);
    assert_eq!(a.0, b.0, "ln g must be bit-identical for equal seeds");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    assert_eq!(a.4, b.4);

    let c = run(124);
    assert_ne!(a.0, c.0, "different seeds must explore differently");
}

#[test]
fn deep_kernel_pipeline_is_deterministic_too() {
    use deepthermo::proposal::DeepProposalConfig;
    use deepthermo::rewl::{DeepSpec, KernelSpec};
    let spec = DeepSpec {
        proposal: DeepProposalConfig {
            k: 6,
            hidden: vec![16],
        },
        deep_weight: 0.2,
        train_every_sweeps: 200,
        epochs_per_round: 1,
        buffer_capacity: 32,
        sample_every_sweeps: 10,
        sync_weights: true,
        ..DeepSpec::default()
    };
    let run = |seed: u64| {
        let mut cfg = DeepThermoConfig::quick_demo().with_seed(seed);
        cfg.rewl.kernel = KernelSpec::Deep(Box::new(spec.clone()));
        cfg.rewl.max_sweeps = 20_000;
        cfg.rewl.wl.ln_f_final = 1e-2;
        let report = DeepThermo::from_material(cfg).unwrap().run().unwrap();
        (report.dos.ln_g().to_vec(), report.total_moves)
    };
    let a = run(55);
    let b = run(55);
    assert_eq!(a, b, "deep pipeline must be deterministic (incl. training)");
}
