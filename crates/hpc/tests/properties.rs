//! Property tests of the simulated cluster: collectives behave like their
//! MPI counterparts under arbitrary payloads and rank counts, and the
//! performance model respects its structural invariants.

use dt_hpc::{
    rank_rng, strong_scaling_table, weak_scaling_table, GpuSpec, ThreadCluster, WorkloadShape,
};
use proptest::prelude::*;

proptest! {
    // Thread clusters are comparatively slow to spin up; keep cases modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// allreduce_sum equals the serial sum for arbitrary payloads.
    #[test]
    fn allreduce_matches_serial_sum(
        size in 1usize..6,
        payload in proptest::collection::vec(-1e6f64..1e6, 1..8),
    ) {
        let expected: Vec<f64> = payload.iter().map(|&v| v * size as f64).collect();
        let results = ThreadCluster::run(size, |comm| {
            let mut v = payload.clone();
            comm.allreduce_sum(&mut v).unwrap();
            v
        });
        for r in results {
            for (a, b) in r.iter().zip(&expected) {
                prop_assert!((a - b).abs() < 1e-6 * b.abs().max(1.0));
            }
        }
    }

    /// Every rank receives exactly the messages addressed to it, in
    /// per-(peer, tag) FIFO order.
    #[test]
    fn point_to_point_is_fifo_per_tag(size in 2usize..5, rounds in 1usize..6) {
        let results = ThreadCluster::run(size, move |comm| {
            let me = comm.rank();
            let next = (me + 1) % comm.size();
            let prev = (me + comm.size() - 1) % comm.size();
            for r in 0..rounds {
                comm.send(next, 7, vec![me as u8, r as u8]);
            }
            let mut got = Vec::new();
            for _ in 0..rounds {
                got.push(
                    comm.recv_timeout(prev, 7, std::time::Duration::from_secs(30))
                        .unwrap(),
                );
            }
            (prev, got)
        });
        for (prev, got) in results {
            for (r, msg) in got.iter().enumerate() {
                prop_assert_eq!(msg[0] as usize, prev);
                prop_assert_eq!(msg[1] as usize, r);
            }
        }
    }

    /// Per-rank RNG streams are deterministic and pairwise distinct.
    #[test]
    fn rng_streams_distinct(seed in any::<u64>(), a in 0u64..64, b in 0u64..64) {
        use rand::RngExt;
        prop_assume!(a != b);
        let mut ra = rank_rng(seed, a);
        let mut rb = rank_rng(seed, b);
        let va: Vec<u64> = (0..8).map(|_| ra.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| rb.random()).collect();
        prop_assert_ne!(va.clone(), vb);
        let mut ra2 = rank_rng(seed, a);
        let va2: Vec<u64> = (0..8).map(|_| ra2.random()).collect();
        prop_assert_eq!(va, va2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weak-scaling efficiency is in (0, 1], monotone non-increasing, and
    /// aggregate throughput is monotone increasing for any GPU.
    #[test]
    fn weak_scaling_invariants(pick in 0u8..2, base in 1usize..16) {
        let gpu = if pick == 0 { GpuSpec::v100() } else { GpuSpec::mi250x_gcd() };
        let ranks: Vec<usize> = (0..5).map(|i| base << i).collect();
        let rows = weak_scaling_table(&gpu, &WorkloadShape::paper_default(), &ranks);
        for w in rows.windows(2) {
            prop_assert!(w[1].efficiency <= w[0].efficiency + 1e-12);
            prop_assert!(w[1].throughput >= w[0].throughput);
        }
        for r in &rows {
            prop_assert!(r.efficiency > 0.0 && r.efficiency <= 1.0 + 1e-12);
            prop_assert!(r.time_per_iteration_s > 0.0);
        }
    }

    /// Strong scaling: time per iteration decreases with ranks.
    #[test]
    fn strong_scaling_time_decreases(pick in 0u8..2) {
        let gpu = if pick == 0 { GpuSpec::v100() } else { GpuSpec::mi250x_gcd() };
        let ranks = [1usize, 2, 4, 8, 16];
        let rows = strong_scaling_table(&gpu, &WorkloadShape::paper_default(), &ranks);
        for w in rows.windows(2) {
            prop_assert!(w[1].time_per_iteration_s < w[0].time_per_iteration_s);
        }
    }
}
