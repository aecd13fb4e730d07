//! E10 — Per-iteration cost breakdown.
//!
//! Projected component costs (energy evaluation, proposal-network
//! inference, training, replica exchange, weight allreduce) per GPU on
//! V100 and MI250X from the performance model, plus measured CPU kernel
//! timings of the same components on this machine.

use dt_bench::{timed, HeaSystem};
use dt_hamiltonian::EnergyModel;
use dt_hpc::{GpuSpec, PerfModel, WorkloadShape};
use dt_lattice::Configuration;
use dt_proposal::{
    DeepProposal, DeepProposalConfig, ProposalKernel, ProposalTrainer, SampleBuffer, TrainerConfig,
};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Report, Run};

pub fn run(out: &mut Report) -> Run {
    writeln!(
        out,
        "# E10: projected per-iteration cost breakdown (paper workload)"
    );
    let shape = WorkloadShape::paper_default();
    let ranks = 1024;
    let mut rows = Vec::new();
    for gpu in [GpuSpec::v100(), GpuSpec::mi250x_gcd()] {
        let model = PerfModel::new(gpu.clone(), shape.clone());
        let b = model.iteration(ranks);
        rows.push(format!(
            "{},{ranks},{:.5},{:.5},{:.5},{:.6},{:.6},{:.5}",
            gpu.name,
            b.energy_eval_s,
            b.nn_inference_s,
            b.training_s,
            b.exchange_s,
            b.allreduce_s,
            b.total()
        ));
    }
    out.table(
        "gpu,ranks,energy_eval_s,nn_inference_s,training_s,exchange_s,allreduce_s,total_s",
        rows,
    );

    writeln!(
        out,
        "\n# measured CPU kernel timings (this machine, NbMoTaW L=4)"
    );
    let sys = HeaSystem::nbmotaw(4);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let config = Configuration::random(&sys.comp, &mut rng);
    let ctx = sys.ctx();

    let mut rows = Vec::new();
    // Full energy evaluation.
    let (_, t_total) = timed(|| {
        let mut acc = 0.0;
        for _ in 0..1000 {
            acc += sys.model.total_energy(&config, &sys.neighbors);
        }
        acc
    });
    rows.push(format!("total_energy_eval,{:.3}", t_total / 1000.0 * 1e6));

    // Incremental swap delta.
    let (_, t_swap) = timed(|| {
        let mut acc = 0.0;
        let n = sys.num_sites();
        let mut r = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100_000 {
            let a = r.random_range(0..n) as u32;
            let b = r.random_range(0..n) as u32;
            acc += sys.model.swap_delta(&config, &sys.neighbors, a, b);
        }
        acc
    });
    rows.push(format!("swap_delta,{:.4}", t_swap / 100_000.0 * 1e6));

    // Deep proposal (inference-dominated).
    let k = 32;
    let mut deep = DeepProposal::new(
        4,
        2,
        &DeepProposalConfig {
            k,
            hidden: vec![64, 64],
        },
        &mut rng,
    );
    let mut prop_rng = ChaCha8Rng::seed_from_u64(2);
    let (_, t_deep) = timed(|| {
        for _ in 0..200 {
            let _ = deep.propose(&config, &ctx, &mut prop_rng);
        }
    });
    rows.push(format!("deep_proposal_k{k},{:.1}", t_deep / 200.0 * 1e6));

    // Training epoch.
    let mut buffer = SampleBuffer::new(32);
    for _ in 0..32 {
        buffer.push(Configuration::random(&sys.comp, &mut rng), 0.0);
    }
    let mut trainer = ProposalTrainer::new(
        deep.layout(),
        TrainerConfig {
            k,
            ..TrainerConfig::default()
        },
    );
    let (_, t_train) = timed(|| {
        for _ in 0..5 {
            trainer.train_epoch(deep.net_mut(), &buffer, &sys.neighbors, &mut prop_rng);
        }
    });
    rows.push(format!("train_epoch_32cfg,{:.1}", t_train / 5.0 * 1e6));

    out.table("kernel,microseconds", rows);
    Ok(())
}
