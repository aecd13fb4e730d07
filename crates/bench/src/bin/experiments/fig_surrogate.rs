//! E1 — Surrogate energy-model accuracy.
//!
//! Regenerates the paper's model-accuracy figure: MAE/RMSE/R² versus
//! training-set size, plus a parity-plot sample (truth vs prediction).

use dt_bench::HeaSystem;
use dt_surrogate::{
    parity_points, Dataset, PairCorrelationDescriptor, SamplingStrategy, SurrogateModel,
    TrainingOptions,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Args, Report, Run};

pub fn run(args: &Args, out: &mut Report) -> Run {
    let l: usize = args.get("--l")?;
    let sys = HeaSystem::nbmotaw(l);
    let descriptor = PairCorrelationDescriptor {
        num_species: 4,
        num_shells: 2,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(1);

    writeln!(
        out,
        "# E1: surrogate accuracy, NbMoTaW N={}",
        sys.num_sites()
    );
    let mut rows = Vec::new();
    let mut last_model: Option<(SurrogateModel, Dataset)> = None;
    for &size in &[32usize, 64, 128, 256, 512, 1024] {
        let ds = Dataset::generate(
            &sys.model,
            &sys.neighbors,
            &sys.comp,
            descriptor,
            size + 128,
            SamplingStrategy::Annealed,
            &mut rng,
        );
        let (train, test) = ds.split(size as f64 / (size + 128) as f64);
        let (model, report) = SurrogateModel::train(
            descriptor,
            &train,
            &test,
            &TrainingOptions::default(),
            &mut rng,
        );
        rows.push(format!(
            "{size},{:.4},{:.4},{:.5}",
            report.test_mae * 1e3,
            report.test_rmse * 1e3,
            report.test_r2
        ));
        last_model = Some((model, test));
    }
    out.table("train_size,mae_mev_site,rmse_mev_site,r2", rows);

    // Parity sample from the largest model.
    let (model, test) = last_model.expect("trained");
    let pred = model.predict_rows(&test.x);
    let parity = parity_points(&pred, test.y.data());
    let rows: Vec<String> = parity
        .iter()
        .take(24)
        .map(|&(t, p)| format!("{t:.5},{p:.5}"))
        .collect();
    writeln!(out);
    out.table("truth_ev_site,predicted_ev_site", rows);
    Ok(())
}
