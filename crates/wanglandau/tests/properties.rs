//! Property tests of the flat-histogram bookkeeping.

use dt_wanglandau::{DosEstimate, EnergyGrid, VisitHistogram};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every in-range energy maps to exactly one bin whose center is
    /// within half a bin width.
    #[test]
    fn binning_is_total_and_centered(
        e_min in -100.0f64..100.0,
        width in 0.001f64..50.0,
        bins in 1usize..200,
        frac in 0.0f64..1.0,
    ) {
        let e_max = e_min + width;
        let grid = EnergyGrid::new(e_min, e_max, bins);
        let e = e_min + frac * width;
        let bin = grid.bin(e).expect("in-range energy must bin");
        prop_assert!(bin < bins);
        prop_assert!((grid.center(bin) - e).abs() <= grid.bin_width() / 2.0 + 1e-12);
        // Outside is outside.
        prop_assert!(grid.bin(e_min - width * 0.01 - 1e-9).is_none());
        prop_assert!(grid.bin(e_max + width * 0.01 + 1e-9).is_none());
    }

    /// Grid slices agree with the parent grid bin-for-bin.
    #[test]
    fn slices_are_consistent(bins in 4usize..100, lo_frac in 0.0f64..0.5, len_frac in 0.1f64..0.5) {
        let grid = EnergyGrid::new(0.0, 1.0, bins);
        let lo = ((bins as f64 * lo_frac) as usize).min(bins - 2);
        let hi = (lo + 2 + (bins as f64 * len_frac) as usize).min(bins);
        let slice = grid.slice(lo, hi);
        for b in 0..slice.num_bins() {
            prop_assert!((slice.center(b) - grid.center(lo + b)).abs() < 1e-12);
        }
        // A point in the slice bins identically (offset by lo).
        let e = slice.center(slice.num_bins() / 2);
        prop_assert_eq!(slice.bin(e).unwrap() + lo, grid.bin(e).unwrap());
    }

    /// Flatness is scale-free: multiplying all visit counts by a constant
    /// leaves the ratio unchanged; an exactly uniform histogram is flat at
    /// any threshold < 1.
    #[test]
    fn flatness_invariances(
        visits in proptest::collection::vec(1u64..50, 2..20),
        scale in 2u64..10,
    ) {
        let mut h1 = VisitHistogram::new(visits.len());
        let mut h2 = VisitHistogram::new(visits.len());
        for (bin, &v) in visits.iter().enumerate() {
            for _ in 0..v {
                h1.record(bin);
            }
            for _ in 0..v * scale {
                h2.record(bin);
            }
        }
        prop_assert!((h1.flatness() - h2.flatness()).abs() < 1e-12);

        let mut uniform = VisitHistogram::new(visits.len());
        for bin in 0..visits.len() {
            for _ in 0..7 {
                uniform.record(bin);
            }
        }
        prop_assert!(uniform.is_flat(0.999));
        prop_assert!((uniform.flatness() - 1.0).abs() < 1e-12);
    }

    /// DOS normalization: `normalize_total` imposes the requested total
    /// and keeps the shape, for any ln g values.
    #[test]
    fn dos_normalizations(
        ln_g in proptest::collection::vec(-50.0f64..50.0, 2..30),
        ln_total in -10.0f64..20.0,
    ) {
        let grid = EnergyGrid::new(0.0, 1.0, ln_g.len());
        let mut dos = DosEstimate::from_parts(grid, ln_g.clone());
        dos.normalize_total(ln_total, None);
        let total: f64 = dos.ln_g().iter().map(|&v| v.exp()).sum();
        prop_assert!((total.ln() - ln_total).abs() < 1e-9);
        // Shape (differences) preserved.
        for w in 0..ln_g.len() - 1 {
            let orig = ln_g[w + 1] - ln_g[w];
            prop_assert!((dos.ln_g()[w + 1] - dos.ln_g()[w] - orig).abs() < 1e-9);
        }
    }
}
