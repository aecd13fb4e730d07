//! Energy binning, visit histograms, and the `ln g` accumulator.

/// A uniform energy grid over `[e_min, e_max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyGrid {
    e_min: f64,
    e_max: f64,
    bin_width: f64,
    num_bins: usize,
}

impl EnergyGrid {
    /// Grid with a fixed number of bins.
    ///
    /// # Panics
    /// Panics when `e_max <= e_min` or `num_bins == 0`.
    pub fn new(e_min: f64, e_max: f64, num_bins: usize) -> Self {
        assert!(e_max > e_min, "empty energy range [{e_min}, {e_max}]");
        assert!(num_bins > 0, "need at least one bin");
        EnergyGrid {
            e_min,
            e_max,
            bin_width: (e_max - e_min) / num_bins as f64,
            num_bins,
        }
    }

    /// Grid with a fixed bin width (the last bin may overhang `e_max`).
    pub fn with_bin_width(e_min: f64, e_max: f64, bin_width: f64) -> Self {
        assert!(e_max > e_min, "empty energy range");
        assert!(bin_width > 0.0, "bin width must be positive");
        let num_bins = ((e_max - e_min) / bin_width).ceil().max(1.0) as usize;
        EnergyGrid {
            e_min,
            e_max: e_min + num_bins as f64 * bin_width,
            bin_width,
            num_bins,
        }
    }

    /// Lower edge of the grid.
    pub fn e_min(&self) -> f64 {
        self.e_min
    }

    /// Upper edge of the grid.
    pub fn e_max(&self) -> f64 {
        self.e_max
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Bin index of an energy, or `None` outside the grid. The upper edge
    /// is inclusive (maps to the last bin).
    #[inline]
    pub fn bin(&self, e: f64) -> Option<usize> {
        if e < self.e_min || e > self.e_max {
            return None;
        }
        let idx = ((e - self.e_min) / self.bin_width) as usize;
        Some(idx.min(self.num_bins - 1))
    }

    /// Center energy of a bin.
    pub fn center(&self, bin: usize) -> f64 {
        self.e_min + (bin as f64 + 0.5) * self.bin_width
    }

    /// All bin centers.
    pub fn centers(&self) -> Vec<f64> {
        (0..self.num_bins).map(|b| self.center(b)).collect()
    }

    /// The visited `(energies, ln g)` pairs of a DOS on this grid, in bin
    /// order: the inputs of every canonical sum (`canonical_curve` in
    /// `DeepThermo::evaluate` and in the serving layer).
    pub fn visited_dos(&self, ln_g: &[f64], mask: &[bool]) -> (Vec<f64>, Vec<f64>) {
        let mut energies = Vec::new();
        let mut visited_ln_g = Vec::new();
        for (bin, &vis) in mask.iter().enumerate() {
            if vis {
                energies.push(self.center(bin));
                visited_ln_g.push(ln_g[bin]);
            }
        }
        (energies, visited_ln_g)
    }

    /// The full-grid `(energies, ln g)` of a DOS on this grid with
    /// unvisited bins at `-inf`: the inputs of every SRO reweighting
    /// (`canonical_average`).
    pub fn masked_dos(&self, ln_g: &[f64], mask: &[bool]) -> (Vec<f64>, Vec<f64>) {
        let masked_ln_g = (0..self.num_bins)
            .map(|b| if mask[b] { ln_g[b] } else { f64::NEG_INFINITY })
            .collect();
        (self.centers(), masked_ln_g)
    }

    /// The sub-grid covering bins `[lo, hi)` (used to carve REWL windows
    /// that share bin boundaries with the global grid).
    pub fn slice(&self, lo: usize, hi: usize) -> EnergyGrid {
        assert!(lo < hi && hi <= self.num_bins, "bad slice [{lo}, {hi})");
        EnergyGrid {
            e_min: self.e_min + lo as f64 * self.bin_width,
            e_max: self.e_min + hi as f64 * self.bin_width,
            bin_width: self.bin_width,
            num_bins: hi - lo,
        }
    }
}

/// Visit counts with ever-visited masking and flatness checks.
///
/// Flatness is evaluated over bins that have *ever* been visited during the
/// current `ln f` stage window, which is the standard way to cope with
/// unreachable bins at the edges of an over-estimated energy range.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitHistogram {
    visits: Vec<u64>,
    ever_visited: Vec<bool>,
}

impl VisitHistogram {
    /// Fresh histogram with `num_bins` bins.
    pub fn new(num_bins: usize) -> Self {
        VisitHistogram {
            visits: vec![0; num_bins],
            ever_visited: vec![false; num_bins],
        }
    }

    /// Record a visit.
    #[inline]
    pub fn record(&mut self, bin: usize) {
        self.visits[bin] += 1;
        self.ever_visited[bin] = true;
    }

    /// Record `n` visits to a bin at once — used when restoring a
    /// histogram from a checkpoint, where replaying `record` per visit
    /// would be O(total visits). `n == 0` marks the bin ever-visited
    /// without adding stage visits.
    #[inline]
    pub fn record_n(&mut self, bin: usize, n: u64) {
        self.visits[bin] += n;
        self.ever_visited[bin] = true;
    }

    /// Visits of one bin in the current stage.
    pub fn visits(&self, bin: usize) -> u64 {
        self.visits[bin]
    }

    /// Has the bin ever been visited (across stages)?
    pub fn ever_visited(&self, bin: usize) -> bool {
        self.ever_visited[bin]
    }

    /// Number of ever-visited bins.
    pub fn num_visited(&self) -> usize {
        self.ever_visited.iter().filter(|&&v| v).count()
    }

    /// Flatness ratio `min_visits / mean_visits` over ever-visited bins
    /// (0 when any visited bin has zero visits this stage).
    pub fn flatness(&self) -> f64 {
        let mut min = u64::MAX;
        let mut sum = 0u64;
        let mut n = 0u64;
        for (v, &ever) in self.visits.iter().zip(&self.ever_visited) {
            if ever {
                min = min.min(*v);
                sum += v;
                n += 1;
            }
        }
        if n == 0 || sum == 0 {
            return 0.0;
        }
        let mean = sum as f64 / n as f64;
        min as f64 / mean
    }

    /// Is the histogram flat at `threshold` (e.g. 0.8)?
    pub fn is_flat(&self, threshold: f64) -> bool {
        self.flatness() >= threshold
    }

    /// Reset stage visits (keeps the ever-visited mask).
    pub fn reset_stage(&mut self) {
        self.visits.iter_mut().for_each(|v| *v = 0);
    }

    /// Total visits this stage.
    pub fn total_visits(&self) -> u64 {
        self.visits.iter().sum()
    }
}

/// The running `ln g(E)` estimate over a grid.
#[derive(Debug, Clone, PartialEq)]
pub struct DosEstimate {
    grid: EnergyGrid,
    ln_g: Vec<f64>,
}

impl DosEstimate {
    /// Flat (zero) estimate over a grid.
    pub fn new(grid: EnergyGrid) -> Self {
        let n = grid.num_bins();
        DosEstimate {
            grid,
            ln_g: vec![0.0; n],
        }
    }

    /// Rebuild from raw parts (e.g. after merging windows).
    pub fn from_parts(grid: EnergyGrid, ln_g: Vec<f64>) -> Self {
        assert_eq!(grid.num_bins(), ln_g.len());
        DosEstimate { grid, ln_g }
    }

    /// The grid.
    pub fn grid(&self) -> &EnergyGrid {
        &self.grid
    }

    /// Raw `ln g` values.
    pub fn ln_g(&self) -> &[f64] {
        &self.ln_g
    }

    /// `ln g` of one bin.
    #[inline]
    pub fn ln_g_bin(&self, bin: usize) -> f64 {
        self.ln_g[bin]
    }

    /// Add `ln f` to a bin (the Wang–Landau update).
    #[inline]
    pub fn bump(&mut self, bin: usize, ln_f: f64) {
        self.ln_g[bin] += ln_f;
    }

    /// Shift all values so `ln Σ_bins g(E) = ln_total` over `mask`-true
    /// bins — e.g. to impose the exact total configuration count
    /// `ln Σ g = ln(N!/Π N_a!)`.
    pub fn normalize_total(&mut self, ln_total: f64, mask: Option<&[bool]>) {
        let cur = log_sum_exp(
            self.ln_g
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask.is_none_or(|m| m[i]))
                .map(|(_, &v)| v),
        );
        if cur.is_finite() {
            let shift = ln_total - cur;
            for v in &mut self.ln_g {
                *v += shift;
            }
        }
    }

    /// The spread `max − min` of `ln g` over `mask`-true bins — the
    /// paper's "range of the density of states" (≈10⁴ for N=8192 NbMoTaW).
    pub fn ln_g_range(&self, mask: Option<&[bool]>) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (i, &v) in self.ln_g.iter().enumerate() {
            if mask.is_none_or(|m| m[i]) {
                min = min.min(v);
                max = max.max(v);
            }
        }
        if min.is_finite() {
            max - min
        } else {
            0.0
        }
    }
}

/// Numerically stable `ln Σ exp(x_i)`.
pub fn log_sum_exp<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let xs: Vec<f64> = xs.into_iter().collect();
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    max + xs.iter().map(|&x| (x - max).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_binning_edges() {
        let g = EnergyGrid::new(-1.0, 1.0, 4);
        assert_eq!(g.bin(-1.0), Some(0));
        assert_eq!(g.bin(-0.51), Some(0));
        assert_eq!(g.bin(-0.5), Some(1));
        assert_eq!(g.bin(1.0), Some(3), "upper edge inclusive");
        assert_eq!(g.bin(1.0001), None);
        assert_eq!(g.bin(-1.0001), None);
        assert_eq!(g.center(0), -0.75);
    }

    #[test]
    fn grid_with_bin_width_covers_range() {
        let g = EnergyGrid::with_bin_width(0.0, 1.0, 0.3);
        assert_eq!(g.num_bins(), 4);
        assert!((g.e_max() - 1.2).abs() < 1e-12);
        assert!(g.bin(1.15).is_some());
    }

    #[test]
    fn grid_slice_shares_boundaries() {
        let g = EnergyGrid::new(0.0, 10.0, 10);
        let s = g.slice(2, 5);
        assert_eq!(s.num_bins(), 3);
        assert!((s.e_min() - 2.0).abs() < 1e-12);
        assert!((s.e_max() - 5.0).abs() < 1e-12);
        assert_eq!(s.bin(2.5), Some(0));
    }

    #[test]
    fn flatness_over_visited_bins_only() {
        let mut h = VisitHistogram::new(4);
        h.record(0);
        h.record(0);
        h.record(1);
        // Bins 2, 3 never visited: excluded.
        assert!((h.flatness() - (1.0 / 1.5)).abs() < 1e-12);
        assert!(!h.is_flat(0.8));
        h.record(1);
        assert!(h.is_flat(0.99));
        assert_eq!(h.num_visited(), 2);
    }

    #[test]
    fn stage_reset_keeps_mask() {
        let mut h = VisitHistogram::new(3);
        h.record(2);
        h.reset_stage();
        assert_eq!(h.visits(2), 0);
        assert!(h.ever_visited(2));
        // A visited bin with zero stage visits ⇒ flatness 0.
        assert_eq!(h.flatness(), 0.0);
    }

    #[test]
    fn dos_normalize_total() {
        let grid = EnergyGrid::new(0.0, 3.0, 3);
        let mut dos = DosEstimate::from_parts(grid, vec![5.0, 7.0, 6.0]);
        // Impose ln Σ g = ln 100.
        dos.normalize_total(100.0f64.ln(), None);
        let total: f64 = dos.ln_g().iter().map(|&v| v.exp()).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dos_range_with_mask() {
        let grid = EnergyGrid::new(0.0, 3.0, 3);
        let dos = DosEstimate::from_parts(grid, vec![1.0, 50.0, 3.0]);
        assert_eq!(dos.ln_g_range(None), 49.0);
        let mask = [true, false, true];
        assert_eq!(dos.ln_g_range(Some(&mask)), 2.0);
    }

    #[test]
    fn log_sum_exp_is_stable() {
        let v = log_sum_exp([1000.0, 1000.0]);
        assert!((v - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(std::iter::empty()), f64::NEG_INFINITY);
    }
}
