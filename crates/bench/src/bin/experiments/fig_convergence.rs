//! E6 — Time-to-solution: DeepThermo vs classical Wang–Landau.
//!
//! Three views of the mixing-speed story behind the paper's speedup:
//!
//! 1. **Tunneling time** — sweeps per round trip between the low- and
//!    high-energy ends of the range during flat-histogram sampling (the
//!    standard Wang–Landau efficiency metric);
//! 2. **Stage progress** — `ln f` stages completed in a fixed sweep budget
//!    on a mid-range window (flatness schedule);
//! 3. **Autocorrelation** — integrated autocorrelation time of the energy
//!    at fixed temperature.

use dt_bench::HeaSystem;
use dt_lattice::Configuration;
use dt_metropolis::integrated_autocorrelation_time;
use dt_proposal::{
    DeepProposal, DeepProposalConfig, LocalSwap, ProposalKernel, ProposalMix, ProposalTrainer,
    RandomReassign, SampleBuffer, TrainerConfig,
};
use dt_wanglandau::{explore_energy_range, EnergyGrid, LnfSchedule, WlParams, WlWalker};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Args, Report, Run};

pub fn run(args: &Args, out: &mut Report) -> Run {
    let l: usize = args.get("--l")?;
    let sys = HeaSystem::nbmotaw(l);
    let ctx = sys.ctx();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let range = explore_energy_range(&sys.model, &sys.neighbors, &sys.comp, 40, 0.02, &mut rng);
    writeln!(out, "# E6: convergence, NbMoTaW N={}", sys.num_sites());

    // Pre-train a deep kernel at a mid-range temperature (stand-in for the
    // on-the-fly loop; isolates proposal quality from training cost).
    let k = (sys.num_sites() / 4).max(4);
    let mut deep = DeepProposal::new(
        4,
        2,
        &DeepProposalConfig {
            k,
            hidden: vec![32, 32],
        },
        &mut rng,
    );
    {
        let mut buffer = SampleBuffer::new(128);
        let mut eq = sys.metropolis(
            900.0,
            Configuration::random(&sys.comp, &mut rng),
            Box::new(LocalSwap::new()),
            2,
        );
        eq.run(&sys.model, &sys.neighbors, &ctx, 400, 400, 4, |c, e| {
            buffer.push(c.clone(), e)
        });
        let mut trainer = ProposalTrainer::new(
            deep.layout(),
            TrainerConfig {
                k,
                ..TrainerConfig::default()
            },
        );
        for _ in 0..40 {
            trainer.train_epoch(deep.net_mut(), &buffer, &sys.neighbors, &mut rng);
        }
    }

    type KernelFactory = Box<dyn Fn() -> Box<dyn ProposalKernel>>;
    let kernels: Vec<(&str, KernelFactory)> = vec![
        ("local", Box::new(|| Box::new(LocalSwap::new()))),
        (
            "random_global",
            Box::new(move || {
                Box::new(ProposalMix::new(vec![
                    (Box::new(LocalSwap::new()) as Box<dyn ProposalKernel>, 0.8),
                    (Box::new(RandomReassign::new(k)), 0.2),
                ]))
            }),
        ),
        (
            "deepthermo",
            Box::new(move || {
                Box::new(ProposalMix::new(vec![
                    (Box::new(LocalSwap::new()) as Box<dyn ProposalKernel>, 0.8),
                    (Box::new(deep.clone()), 0.2),
                ]))
            }),
        ),
    ];

    // A Wang–Landau walker over `grid` that never finishes its schedule
    // (ln f -> 1e-12), from a random configuration drawn with `start`.
    let wl_walker = |grid, schedule, start, kernel, seed| {
        let params = WlParams {
            ln_f_initial: 1.0,
            ln_f_final: 1e-12,
            schedule,
            sweeps_per_check: 10,
        };
        let config = Configuration::random(&sys.comp, &mut ChaCha8Rng::seed_from_u64(start));
        WlWalker::new(
            grid,
            params,
            config,
            &sys.model,
            &sys.neighbors,
            kernel,
            seed,
        )
    };

    // --- 1. tunneling time over the full range (1/t schedule keeps the
    // walk progressing regardless of flatness) -------------------------
    writeln!(
        out,
        "\n# tunneling: round trips between the low/high 30% marks"
    );
    let span = range.1 - range.0;
    let (lo_thr, hi_thr) = (range.0 + 0.3 * span, range.1 - 0.3 * span);
    let budget_sweeps = 8_000u64;
    let mut rows = Vec::new();
    for (name, factory) in &kernels {
        let one_over_t = LnfSchedule::OneOverT {
            flatness: 0.7,
            reduction: 0.5,
        };
        let grid = EnergyGrid::new(range.0, range.1, 16 * l);
        let mut walker = wl_walker(grid, one_over_t, 5, factory(), 9);
        walker.drive_into_window(&sys.model, &sys.neighbors, 5_000);
        // Half-trip state machine: low → high and high → low each count a
        // half; two halves make a round trip.
        let mut half_trips = 0u64;
        let mut at_low = walker.energy() < lo_thr;
        for s in 0..budget_sweeps {
            walker.sweep(&sys.model, &sys.neighbors, &ctx);
            if s % 10 == 9 {
                walker.check_and_advance(&sys.model, &sys.neighbors);
            }
            let e = walker.energy();
            if at_low && e > hi_thr {
                at_low = false;
                half_trips += 1;
            } else if !at_low && e < lo_thr {
                at_low = true;
                half_trips += 1;
            }
        }
        let round_trips = half_trips / 2;
        let per_trip = if round_trips > 0 {
            format!("{:.0}", budget_sweeps as f64 / round_trips as f64)
        } else {
            "inf".to_string()
        };
        rows.push(format!("{name},{round_trips},{per_trip}"));
    }
    out.table(
        "kernel,round_trips_in_8000_sweeps,sweeps_per_round_trip",
        rows,
    );

    // --- 2. ln f stage progress on a mid-range window ------------------
    writeln!(
        out,
        "\n# stage progress: ln f stages completed in 5,000 sweeps"
    );
    let window = EnergyGrid::new(range.0 + 0.3 * span, range.1 - 0.2 * span, 8 * l);
    let mut rows = Vec::new();
    for (name, factory) in &kernels {
        let flatness = LnfSchedule::Flatness {
            flatness: 0.8,
            reduction: 0.5,
        };
        let mut walker = wl_walker(window.clone(), flatness, 6, factory(), 11);
        assert!(walker.drive_into_window(&sys.model, &sys.neighbors, 5_000));
        for s in 0..5_000u64 {
            walker.sweep(&sys.model, &sys.neighbors, &ctx);
            if s % 10 == 9 {
                walker.check_and_advance(&sys.model, &sys.neighbors);
            }
        }
        rows.push(format!("{name},{},{:.3e}", walker.stages(), walker.ln_f()));
    }
    out.table("kernel,stages_completed,final_lnf", rows);

    // --- 3. energy autocorrelation at fixed T --------------------------
    writeln!(out, "\n# integrated autocorrelation time of E at T = 900 K");
    let mut rows = Vec::new();
    for (name, factory) in &kernels {
        let mut sampler = sys.metropolis(
            900.0,
            Configuration::random(&sys.comp, &mut ChaCha8Rng::seed_from_u64(8)),
            factory(),
            17,
        );
        let mut energies = Vec::with_capacity(4000);
        sampler.run(&sys.model, &sys.neighbors, &ctx, 300, 4000, 1, |_, e| {
            energies.push(e)
        });
        let tau = integrated_autocorrelation_time(&energies);
        rows.push(format!("{name},{tau:.2}"));
    }
    out.table("kernel,tau_int_sweeps", rows);
    Ok(())
}
