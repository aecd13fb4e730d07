//! Every [`DeepThermoError`] variant a user can hit must be reachable
//! through the public API — and arrive as a typed error, not a panic.

use deepthermo::hamiltonian::{Material, MaterialError, PairHamiltonian};
use deepthermo::hpc::{FaultPlan, RankOutcome, TcpCluster};
use deepthermo::rewl::CheckpointSpec;
use deepthermo::surrogate::{SerializeError, SurrogateModel};
use deepthermo::{ConfigError, DeepThermo, DeepThermoConfig, DeepThermoError};

#[test]
fn inconsistent_config_is_a_typed_error() {
    let mut cfg = DeepThermoConfig::quick_demo();
    cfg.rewl.num_windows = 0;
    match DeepThermo::from_material(cfg) {
        Err(DeepThermoError::Config(ConfigError::NoWindows)) => {}
        Ok(_) => panic!("expected Config(NoWindows), got Ok"),
        Err(other) => panic!("expected Config(NoWindows), got {other:?}"),
    }

    let mut cfg = DeepThermoConfig::quick_demo();
    cfg.rewl.overlap = 2.0;
    assert!(matches!(
        DeepThermo::from_material(cfg),
        Err(DeepThermoError::Config(ConfigError::BadOverlap(_)))
    ));
}

#[test]
fn mismatched_model_is_a_typed_error() {
    // A binary Hamiltonian against the quaternary NbMoTaW species.
    let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
    let nb = Material::nbmotaw();
    let built = Material::new(
        "mismatched",
        "Mismatched",
        nb.structure().clone(),
        nb.species().clone(),
        vec![1.0; 4],
        1,
        h,
    );
    match built.map_err(DeepThermoError::from) {
        Err(DeepThermoError::Material(MaterialError::SpeciesCountMismatch {
            species: 4,
            hamiltonian: 2,
        })) => {}
        Ok(_) => panic!("expected SpeciesCountMismatch, got Ok"),
        Err(other) => panic!("expected SpeciesCountMismatch, got {other:?}"),
    }
}

/// A runner whose checkpoint directory sits under a plain file, so it
/// cannot be created; `label` keeps concurrent tests apart.
fn blocked_checkpoint_runner(label: &str) -> (DeepThermo, std::path::PathBuf) {
    let blocker =
        std::env::temp_dir().join(format!("dt-error-paths-{label}-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let mut cfg = DeepThermoConfig::quick_demo();
    cfg.rewl.checkpoint = Some(CheckpointSpec::new(blocker.join("snapshots")));
    (DeepThermo::from_material(cfg).unwrap(), blocker)
}

fn assert_io_error<T: std::fmt::Debug>(result: Result<T, DeepThermoError>) {
    match result {
        Err(DeepThermoError::Io { path, message }) => {
            assert!(path.ends_with("snapshots"));
            assert!(!message.is_empty());
        }
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn unusable_checkpoint_dir_is_an_io_error() {
    let (runner, blocker) = blocked_checkpoint_runner("threads");
    assert_io_error(runner.run());
    std::fs::remove_file(&blocker).unwrap();
}

#[test]
fn unusable_checkpoint_dir_is_an_io_error_on_every_cluster_rank() {
    let (runner, blocker) = blocked_checkpoint_runner("tcp");
    let size = 4;
    let outcomes = TcpCluster::run_loopback(size, FaultPlan::none(), |comm| {
        runner.run_cluster_rank(comm)
    });
    assert_eq!(outcomes.len(), size);
    for outcome in outcomes {
        match outcome {
            RankOutcome::Completed(result) => assert_io_error(result),
            RankOutcome::Died { cause } => panic!("no rank may die: {cause}"),
        }
    }
    std::fs::remove_file(&blocker).unwrap();
}

#[test]
fn corrupt_model_text_converts_into_the_workspace_error() {
    let err = SurrogateModel::load("dtsur v1\nnot a real body").unwrap_err();
    let wrapped = DeepThermoError::from(err);
    assert!(matches!(wrapped, DeepThermoError::Model(_)));
    assert!(wrapped.to_string().contains("model"));
    // The source chain bottoms out in the typed serializer error.
    let source = std::error::Error::source(&wrapped).expect("wrapped errors keep their source");
    assert!(source.downcast_ref::<SerializeError>().is_some());
}

#[test]
fn root_rank_death_surfaces_as_a_sampling_error() {
    let mut cfg = DeepThermoConfig::quick_demo();
    cfg.rewl.faults = FaultPlan::none().kill_at_round(0, 2);
    let runner = DeepThermo::from_material(cfg).unwrap();
    match runner.run() {
        Err(DeepThermoError::Sampling(e)) => {
            assert!(e.to_string().contains("rank 0"), "cause: {e}");
        }
        other => panic!("expected Sampling, got {other:?}"),
    }
}
