//! Order statistics and the seeded input generators.
//!
//! Everything the program under test receives is derived from `--seed`
//! through [`SplitMix64`]: the Zipf key stream, the temperature-grid
//! perturbations, and the 1 % verification sample.

/// Median of `values` (mean of the two middle elements for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank quantile of an ascending-sorted sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(min, median, max)` of a sample.
pub fn min_med_max(values: &[f64]) -> (f64, f64, f64) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, median(values), hi)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Nearest-rank quantile of an ascending-sorted `f64` sample.
fn at(sorted: &[f64], q: f64) -> f64 {
    sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1]
}

/// The first quartile by nearest rank: the fastest of up to four times,
/// the second fastest of five to eight, the fourth of sixteen.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of nothing");
    at(&sorted(values), 0.25)
}

/// How far the middle half of a sample spreads: `(q3 − q1) / median`,
/// quartiles by nearest rank — for three repeats, `(max − min) / median`.
/// Decides whether a median is resolved against its bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let at = |q: f64| at(&v, q);
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / med.abs()
    }
}

/// splitmix64: a tiny, well-mixed deterministic stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// A stream for one purpose (`salt`) of one run (`seed`).
    pub fn derive(seed: u64, salt: u64) -> Self {
        let mut s = SplitMix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// Zipf(1.0) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 1..=n {
            total += 1.0 / r as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn pick(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a over a response body: the 1 % verification sample keeps this
/// instead of the body so the generator's memory stays flat.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
        assert_eq!(quantile_sorted(&[9], 0.99), 9);
        assert_eq!(min_med_max(&[2.0, 8.0, 4.0]), (2.0, 4.0, 8.0));
        assert_eq!(lower_quartile(&[5.0, 3.0, 8.0]), 3.0);
        assert_eq!(lower_quartile(&[5.0, 3.0, 8.0, 4.0, 9.0]), 4.0);
        let sixteen: Vec<f64> = (1..=16).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&sixteen), 4.0);
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartile_spread(&v), (6.0 - 2.0) / 4.5);
        // Three repeats: (max - min) / median.
        assert_eq!(quartile_spread(&[4.0, 5.0, 7.0]), 0.6);
    }

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        let zipf = Zipf::new(32);
        let draw = |seed| {
            let mut rng = SplitMix64::derive(seed, 1);
            (0..64).map(|_| zipf.pick(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Rank 0 is the hottest key and every rank stays in range.
        let mut rng = SplitMix64::derive(3, 1);
        let mut counts = [0usize; 32];
        for _ in 0..20_000 {
            counts[zipf.pick(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[8]);
        assert!(counts.iter().all(|&c| c > 0));
        // Distinct purposes of one seed get distinct streams.
        assert_ne!(
            SplitMix64::derive(5, 1).next_u64(),
            SplitMix64::derive(5, 2).next_u64()
        );
    }
}
