//! Fault tolerance: REWL on a lossy simulated cluster.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```
//!
//! Every rank is fail-stop. This example kills one walker mid-run on the
//! thread cluster: the run stops with a typed error instead of returning
//! a degraded answer. Rerunning the same configuration over the same
//! checkpoint directory resumes from the newest complete snapshot,
//! converges, matches exact enumeration, and is bit-identical to a run
//! that never failed.

use deepthermo::hamiltonian::{exact::ExactDos, PairHamiltonian};
use deepthermo::hpc::FaultPlan;
use deepthermo::lattice::{Composition, Structure, Supercell};
use deepthermo::rewl::{run_rewl, CheckpointSpec, KernelSpec, RewlConfig, RewlError};
use deepthermo::wanglandau::{LnfSchedule, WlParams};
use deepthermo::DeepThermoError;

fn main() -> Result<(), DeepThermoError> {
    // BCC 2x2x2, 2 species: small enough to enumerate exactly.
    let cell = Supercell::cubic(Structure::bcc(), 2);
    let nt = cell.neighbor_table(1);
    let comp = Composition::equiatomic(2, cell.num_sites()).expect("composition");
    let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
    let range = (-0.645, -0.155);
    let dir = std::env::temp_dir().join(format!("dt-fault-injection-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = RewlConfig {
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
        seed: 3,
        kernel: KernelSpec::LocalSwap,
        checkpoint: Some(CheckpointSpec::new(&dir).every_rounds(5)),
        ..RewlConfig::default()
    };

    // Kill rank 3 (window 1, second walker) at round 12, after the
    // round-10 snapshot is committed.
    println!("running 2 windows x 2 walkers, killing rank 3 at round 12...");
    let faulty = RewlConfig {
        faults: FaultPlan::none().kill_at_round(3, 12),
        ..cfg.clone()
    };
    match run_rewl(&h, &nt, &comp, range, &faulty) {
        Err(lost @ RewlError::PeerLost { .. }) => println!("the run stopped: {lost}"),
        other => panic!("a killed walker must stop the run, got {other:?}"),
    }

    println!("rerunning over {} ...", dir.display());
    let out = run_rewl(&h, &nt, &comp, range, &cfg)?;
    let resumed = out.resumed_from.expect("the rerun resumes from a snapshot");
    println!("resumed from round {resumed}; converged: {}", out.converged);
    for w in &out.windows {
        println!(
            "window {}: exchange rate {:.2} ({} of {})",
            w.window,
            w.exchange_rate(),
            w.exchange_accepted,
            w.exchange_attempts
        );
    }

    // The resumed DOS must match exact enumeration...
    let exact = ExactDos::enumerate(&h, &nt, &comp);
    let mut dos = out.dos.clone();
    dos.normalize_total(comp.ln_num_configurations(), Some(&out.mask));
    let mut max_err: f64 = 0.0;
    for (&e, &count) in exact.energies().iter().zip(exact.counts()) {
        let bin = dos.grid().bin(e).expect("level in grid");
        assert!(out.mask[bin], "exact level {e} unvisited");
        max_err = max_err.max((dos.ln_g_bin(bin) - (count as f64).ln()).abs());
    }
    println!("max |ln g - exact| over visited bins: {max_err:.3}");
    assert!(out.converged, "the resumed run must converge");
    assert!(max_err < 0.6, "the resumed run must stay accurate");

    // ...and equal, bit for bit, a run that never failed.
    let clean = run_rewl(
        &h,
        &nt,
        &comp,
        range,
        &RewlConfig {
            checkpoint: None,
            ..cfg
        },
    )?;
    let same = (0..dos.grid().num_bins())
        .all(|b| clean.dos.ln_g_bin(b).to_bits() == out.dos.ln_g_bin(b).to_bits());
    assert!(same && clean.total_moves == out.total_moves);
    println!("ok: the rerun resumed and matches the fault-free run bit for bit");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
