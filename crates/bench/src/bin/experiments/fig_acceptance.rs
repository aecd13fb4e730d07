//! E2 — Proposal acceptance versus global-update size k.
//!
//! The paper's motivating figure: naive global updates have exponentially
//! vanishing acceptance with update size, while trained deep proposals
//! keep a usable acceptance at large k. Measured here in the canonical
//! ensemble at fixed temperature, starting from an equilibrated
//! configuration.

use dt_bench::HeaSystem;
use dt_lattice::Configuration;
use dt_proposal::{
    DeepProposal, DeepProposalConfig, LocalSwap, ProposalKernel, ProposalTrainer, RandomReassign,
    SampleBuffer, TrainerConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Args, Report, Run};

pub fn run(args: &Args, out: &mut Report) -> Run {
    let l: usize = args.get("--l")?;
    let t: f64 = args.get("--t")?;
    let sys = HeaSystem::nbmotaw(l);
    let ctx = sys.ctx();
    let mut rng = ChaCha8Rng::seed_from_u64(0);

    writeln!(
        out,
        "# E2: acceptance vs update size, NbMoTaW N={}, T={t} K",
        sys.num_sites()
    );

    // Equilibrate a configuration and collect training samples for the
    // deep kernel (the paper's on-the-fly loop, frozen for measurement).
    let mut buffer = SampleBuffer::new(128);
    let start = Configuration::random(&sys.comp, &mut rng);
    let mut equilibrator = sys.metropolis(t, start, Box::new(LocalSwap::new()), 1);
    equilibrator.run(&sys.model, &sys.neighbors, &ctx, 600, 600, 5, |c, e| {
        buffer.push(c.clone(), e);
    });
    let equilibrated = equilibrator.config().clone();

    let measure = |kernel: Box<dyn ProposalKernel>, seed: u64| -> f64 {
        let mut sampler = sys.metropolis(t, equilibrated.clone(), kernel, seed);
        for _ in 0..4000 {
            sampler.step(&sys.model, &sys.neighbors, &ctx);
        }
        sampler.stats().total_accepted() as f64 / sampler.stats().total_proposed() as f64
    };

    let mut rows = Vec::new();
    let local = measure(Box::new(LocalSwap::new()), 11);
    for &k in &[4usize, 8, 16, 32, 54] {
        let k = k.min(sys.num_sites());
        // Naive global baseline.
        let naive = measure(Box::new(RandomReassign::new(k)), 20 + k as u64);

        // Untrained deep kernel.
        let untrained = DeepProposal::new(
            4,
            2,
            &DeepProposalConfig {
                k,
                hidden: vec![32, 32],
            },
            &mut rng,
        );
        let acc_untrained = measure(Box::new(untrained.clone()), 40 + k as u64);

        // Trained deep kernel (fit on the equilibrated samples).
        let mut trained = untrained;
        let mut trainer = ProposalTrainer::new(
            trained.layout(),
            TrainerConfig {
                k,
                ..TrainerConfig::default()
            },
        );
        for _ in 0..30 {
            trainer.train_epoch(trained.net_mut(), &buffer, &sys.neighbors, &mut rng);
        }
        let acc_trained = measure(Box::new(trained), 60 + k as u64);

        rows.push(format!(
            "{k},{local:.4},{naive:.6},{acc_untrained:.4},{acc_trained:.4}"
        ));
    }
    out.table(
        "k,local_swap,random_global,deep_untrained,deep_trained",
        rows,
    );
    writeln!(
        out,
        "\n# expected shape: random_global collapses with k; deep_trained"
    );
    writeln!(
        out,
        "# stays well above it (the paper's motivation for DL proposals)"
    );
    Ok(())
}
