//! Bit-identity regression fingerprints of the thread-backend driver.
//!
//! These tests pin the *exact* bits of a fixed-seed REWL run — ln g(E),
//! the SRO accumulator, and the exchange counters — so any refactor of
//! the driver/transport stack can prove it preserved behaviour. The
//! golden values were captured from the pre-refactor monolithic driver;
//! if one of these tests fails, the sampler's output changed and the
//! change is NOT behaviour-preserving.

use dt_hamiltonian::PairHamiltonian;
use dt_lattice::{Composition, Structure, Supercell};
use dt_proposal::{DeepProposalConfig, TrainerConfig};
use dt_rewl::{run_rewl, DeepSpec, KernelSpec, RewlConfig, RewlOutput};
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

fn base_config(kernel: KernelSpec, seed: u64) -> RewlConfig {
    RewlConfig {
        num_windows: 2,
        walkers_per_window: 2,
        overlap: 0.75,
        num_bins: 49,
        wl: WlParams {
            ln_f_initial: 1.0,
            ln_f_final: 1e-3,
            schedule: LnfSchedule::Flatness {
                flatness: 0.8,
                reduction: 0.5,
            },
            sweeps_per_check: 20,
        },
        exchange_every_sweeps: 10,
        observe_every_sweeps: 2,
        max_sweeps: 60_000,
        seed,
        kernel,
        ..RewlConfig::default()
    }
}

/// FNV-1a, continued from `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a over every bit of the run's scientific output.
fn fingerprint(out: &RewlOutput) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
    for b in 0..out.dos.grid().num_bins() {
        eat(&out.dos.ln_g_bin(b).to_bits().to_le_bytes());
    }
    for &m in &out.mask {
        eat(&[u8::from(m)]);
    }
    for b in 0..out.sro.num_bins() {
        eat(&out.sro.count(b).to_le_bytes());
        if let Some(mean) = out.sro.bin_mean(b) {
            for v in mean {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    for w in &out.windows {
        eat(&w.exchange_attempts.to_le_bytes());
        eat(&w.exchange_accepted.to_le_bytes());
        eat(&w.ln_f.to_bits().to_le_bytes());
        eat(&[u8::from(w.converged)]);
    }
    eat(&out.total_moves.to_le_bytes());
    eat(&out.sweeps.to_le_bytes());
    h
}

/// [`fingerprint`] continued over every window's per-kernel
/// [`dt_proposal::MoveStats`] (name bytes, proposed, accepted, in name
/// order): which sub-kernel each move is attributed to is part of the
/// pinned behaviour too.
fn fingerprint_with_stats(out: &RewlOutput) -> u64 {
    let mut h = fingerprint(out);
    for w in &out.windows {
        for (name, proposed, accepted) in w.stats.iter() {
            h = fnv1a(h, name.as_bytes());
            h = fnv1a(h, &proposed.to_le_bytes());
            h = fnv1a(h, &accepted.to_le_bytes());
        }
    }
    h
}

/// Assert both fingerprints of a run.
fn assert_golden(what: &str, out: &RewlOutput, golden: u64, golden_stats: u64) {
    let fp = fingerprint(out);
    assert_eq!(fp, golden, "{what} fingerprint drifted: got {fp:#018x}");
    let fp = fingerprint_with_stats(out);
    assert_eq!(
        fp, golden_stats,
        "{what} fingerprint with move statistics drifted: got {fp:#018x}"
    );
}

/// Golden fingerprint of the local-swap run below, captured from the
/// pre-refactor driver (commit beae1ef).
const GOLDEN_LOCAL: u64 = 0x36ab_645c_fcbc_f323;

/// Golden fingerprint of the deep-kernel run below, captured from the
/// pre-refactor driver (commit beae1ef).
const GOLDEN_DEEP: u64 = 0x9eec_c736_9fa4_efde;

/// Golden fingerprint of the random-global run below, captured at commit
/// a4b16fd (the last one whose walkers stepped through `propose_batch`).
const GOLDEN_RANDOM_GLOBAL: u64 = 0xce50_1a88_1ad3_3a69;

/// The three runs' [`fingerprint_with_stats`], captured at commit a4b16fd.
const GOLDEN_LOCAL_STATS: u64 = 0x3f67_7500_6c58_5e63;
const GOLDEN_DEEP_STATS: u64 = 0x5aa6_6050_b16a_6909;
const GOLDEN_RANDOM_GLOBAL_STATS: u64 = 0x5def_529f_2ce1_ec73;

#[test]
fn local_swap_run_is_bit_identical_to_pre_refactor_driver() {
    let (_, nt, comp, h) = system();
    let cfg = base_config(KernelSpec::LocalSwap, 7);
    let out = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg).unwrap();
    assert_golden("local-swap", &out, GOLDEN_LOCAL, GOLDEN_LOCAL_STATS);
}

#[test]
fn deep_kernel_run_is_bit_identical_to_pre_refactor_driver() {
    let (_, nt, comp, h) = system();
    let spec = DeepSpec {
        proposal: DeepProposalConfig {
            k: 4,
            hidden: vec![8],
        },
        deep_weight: 0.2,
        trainer: TrainerConfig::default(),
        train_every_sweeps: 40,
        epochs_per_round: 1,
        buffer_capacity: 64,
        sample_every_sweeps: 4,
        sync_weights: true,
    };
    let cfg = base_config(KernelSpec::Deep(Box::new(spec)), 11);
    let out = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg).unwrap();
    assert_golden("deep-kernel", &out, GOLDEN_DEEP, GOLDEN_DEEP_STATS);
}

#[test]
fn random_global_run_is_bit_identical_to_batch_first_walker() {
    let (_, nt, comp, h) = system();
    let cfg = base_config(KernelSpec::RandomGlobal { k: 4, weight: 0.3 }, 13);
    let out = run_rewl(&h, &nt, &comp, (-0.645, -0.155), &cfg).unwrap();
    assert_golden(
        "random-global",
        &out,
        GOLDEN_RANDOM_GLOBAL,
        GOLDEN_RANDOM_GLOBAL_STATS,
    );
}
