//! Losses and (masked) softmax utilities.
//!
//! The masked log-softmax here is the numerical heart of DeepThermo's deep
//! proposal: during constrained autoregressive decoding, species whose
//! remaining composition count is zero are masked out, and the *exact*
//! log-probability of each decoded species feeds the Metropolis–Hastings
//! acceptance ratio. All paths use the standard max-subtraction trick so
//! probabilities stay finite for any logit magnitude.

use rand::{Rng, RngExt};

/// Mean-squared-error loss over all elements.
///
/// Returns the loss and writes `dL/d_pred`, already divided by the
/// element count, into `grad`.
pub fn mse_loss(pred: &[f64], target: &[f64], grad: &mut [f64]) -> f64 {
    assert_eq!(pred.len(), target.len(), "mse shape mismatch");
    assert_eq!(pred.len(), grad.len(), "mse gradient shape mismatch");
    let n = pred.len() as f64;
    let mut loss = 0.0;
    for ((g, &p), &t) in grad.iter_mut().zip(pred).zip(target) {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    loss / n
}

/// Row-wise log-softmax with an optional mask of allowed classes.
///
/// Masked-out entries get `-inf`. `mask.len()` must equal the row length
/// when provided, and at least one entry must be allowed.
pub fn log_softmax_masked(logits: &[f64], mask: Option<&[bool]>) -> Vec<f64> {
    let mut out = Vec::with_capacity(logits.len());
    log_softmax_masked_into(logits, mask, &mut out);
    out
}

/// [`log_softmax_masked`] writing into a reused buffer.
///
/// `out` is cleared and refilled; a buffer with enough capacity makes the
/// call allocation-free, which matters in the deep proposal's per-site
/// decode loop. The arithmetic is identical to [`log_softmax_masked`], so
/// results are bit-identical.
pub fn log_softmax_masked_into(logits: &[f64], mask: Option<&[bool]>, out: &mut Vec<f64>) {
    if let Some(m) = mask {
        assert_eq!(m.len(), logits.len(), "mask length mismatch");
        assert!(m.iter().any(|&a| a), "mask must allow at least one class");
    }
    let allowed = |i: usize| mask.is_none_or(|m| m[i]);
    let max = logits
        .iter()
        .enumerate()
        .filter(|&(i, _)| allowed(i))
        .map(|(_, &v)| v)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut lse = 0.0;
    for (i, &v) in logits.iter().enumerate() {
        if allowed(i) {
            lse += (v - max).exp();
        }
    }
    let lse = max + lse.ln();
    out.clear();
    out.extend(logits.iter().enumerate().map(|(i, &v)| {
        if allowed(i) {
            v - lse
        } else {
            f64::NEG_INFINITY
        }
    }));
}

/// Masked softmax cross-entropy over flat row-major buffers — the form
/// the proposal trainer feeds: `logits`, `masks` and `grad` hold
/// `targets.len()` rows of equal width, and each row's mask names its
/// allowed classes (e.g. species whose composition count is exhausted
/// during constrained decoding are masked out). Targets must be allowed
/// by their row's mask. `logp` is per-row scratch for
/// [`log_softmax_masked_into`]. Returns the mean loss and writes
/// `dL/d_logits` into `grad` (zero for masked classes); allocation-free
/// once `logp` holds one row.
pub fn softmax_cross_entropy_masked_flat(
    logits: &[f64],
    targets: &[usize],
    masks: &[bool],
    logp: &mut Vec<f64>,
    grad: &mut [f64],
) -> f64 {
    let rows = targets.len();
    assert!(rows > 0, "empty batch");
    assert_eq!(logits.len() % rows, 0, "target count mismatch");
    assert_eq!(masks.len(), logits.len(), "flat mask length mismatch");
    assert_eq!(grad.len(), logits.len(), "gradient shape mismatch");
    let cols = logits.len() / rows;
    let mut loss = 0.0;
    for (r, (((&t, row), mask), g_row)) in targets
        .iter()
        .zip(logits.chunks_exact(cols))
        .zip(masks.chunks_exact(cols))
        .zip(grad.chunks_exact_mut(cols))
        .enumerate()
    {
        log_softmax_masked_into(row, Some(mask), logp);
        debug_assert!(mask[t], "target {t} masked out in row {r}");
        loss -= logp[t];
        for (c, (g, &lp)) in g_row.iter_mut().zip(logp.iter()).enumerate() {
            *g = if lp == f64::NEG_INFINITY {
                0.0
            } else {
                (lp.exp() - f64::from(u8::from(c == t))) / rows as f64
            };
        }
    }
    loss / rows as f64
}

/// Sample a class index from log-probabilities (as produced by
/// [`log_softmax_masked`]); `-inf` entries are never chosen.
///
/// Returns the class and its log-probability.
pub fn sample_categorical<R: Rng + ?Sized>(logp: &[f64], rng: &mut R) -> (usize, f64) {
    let u: f64 = rng.random();
    let mut acc = 0.0;
    let mut last_valid = None;
    for (i, &lp) in logp.iter().enumerate() {
        if lp == f64::NEG_INFINITY {
            continue;
        }
        last_valid = Some(i);
        acc += lp.exp();
        if u < acc {
            return (i, lp);
        }
    }
    // Floating-point slack: fall back to the last valid class.
    let i = last_valid.expect("at least one valid class");
    (i, logp[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mse_known_value() {
        let mut grad = [0.0; 2];
        let loss = mse_loss(&[1.0, 2.0], &[0.0, 4.0], &mut grad);
        assert!((loss - 2.5).abs() < 1e-12); // (1 + 4)/2
        assert_eq!(grad, [1.0, -2.0]);
    }

    #[test]
    fn log_softmax_normalizes() {
        let lp = log_softmax_masked(&[1.0, 2.0, 3.0], None);
        let total: f64 = lp.iter().map(|&v| v.exp()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Shift invariance.
        let lp2 = log_softmax_masked(&[101.0, 102.0, 103.0], None);
        for (a, b) in lp.iter().zip(&lp2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn log_softmax_handles_extreme_logits() {
        let lp = log_softmax_masked(&[1e6, 0.0, -1e6], None);
        assert!((lp[0] - 0.0).abs() < 1e-9);
        assert!(lp[1] < -1e5);
        let total: f64 = lp.iter().map(|&v| v.exp()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn masked_log_softmax_excludes_classes() {
        let lp = log_softmax_masked(&[5.0, 1.0, 1.0], Some(&[false, true, true]));
        assert_eq!(lp[0], f64::NEG_INFINITY);
        assert!((lp[1] - 0.5f64.ln()).abs() < 1e-12);
        assert!((lp[2] - 0.5f64.ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn fully_masked_row_panics() {
        let _ = log_softmax_masked(&[1.0, 2.0], Some(&[false, false]));
    }

    /// Mean loss and gradient of [`softmax_cross_entropy_masked_flat`].
    fn cross_entropy(logits: &[f64], targets: &[usize], masks: &[bool]) -> (f64, Vec<f64>) {
        let mut grad = vec![f64::NAN; logits.len()];
        let loss =
            softmax_cross_entropy_masked_flat(logits, targets, masks, &mut Vec::new(), &mut grad);
        (loss, grad)
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = [0.2, -0.1, 0.5, 1.0, 0.0, -1.0];
        let targets = [2usize, 0];
        let masks = [true; 6];
        let (_, grad) = cross_entropy(&logits, &targets, &masks);
        let eps = 1e-6;
        for i in [0usize, 2, 4] {
            let mut up = logits;
            up[i] += eps;
            let mut dn = logits;
            dn[i] -= eps;
            let (lu, _) = cross_entropy(&up, &targets, &masks);
            let (ld, _) = cross_entropy(&dn, &targets, &masks);
            let fd = (lu - ld) / (2.0 * eps);
            assert!((grad[i] - fd).abs() < 1e-6, "logit {i}");
        }
    }

    #[test]
    fn masked_cross_entropy_ignores_masked_classes() {
        let (loss, grad) = cross_entropy(&[9.0, 0.0, 0.0], &[1], &[false, true, true]);
        // With class 0 masked, classes 1/2 are symmetric: loss = ln 2.
        assert!((loss - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(grad[0], 0.0);
    }

    #[test]
    fn categorical_sampling_matches_probabilities() {
        let logp = log_softmax_masked(&[0.0, 0.0, (4.0f64).ln()], None);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            let (i, lp) = sample_categorical(&logp, &mut rng);
            assert!((lp - logp[i]).abs() < 1e-12);
            counts[i] += 1;
        }
        let p2 = counts[2] as f64 / n as f64;
        assert!((p2 - 4.0 / 6.0).abs() < 0.02, "p2 = {p2}");
    }

    #[test]
    fn categorical_sampling_skips_masked() {
        let logp = log_softmax_masked(&[3.0, 1.0], Some(&[false, true]));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(sample_categorical(&logp, &mut rng).0, 1);
        }
    }
}
