//! Acceptance bookkeeping per proposal kernel.

use std::collections::BTreeMap;

/// Proposed/accepted counters keyed by kernel name. Mergeable across
/// walkers so parallel runs can report fleet-wide acceptance rates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MoveStats {
    counts: BTreeMap<String, (u64, u64)>,
}

impl MoveStats {
    /// Empty statistics.
    pub fn new() -> Self {
        MoveStats::default()
    }

    /// Record one proposal outcome for `kernel`.
    pub fn record(&mut self, kernel: &str, accepted: bool) {
        self.record_n(kernel, 1, u64::from(accepted));
    }

    /// Record `proposed` proposals of which `accepted` were accepted, in
    /// one step — used when reconstructing statistics from serialized
    /// counters, where replaying `record` per move would be O(count).
    ///
    /// # Panics
    /// Panics when `accepted > proposed`.
    pub fn record_n(&mut self, kernel: &str, proposed: u64, accepted: u64) {
        assert!(
            accepted <= proposed,
            "{kernel}: accepted {accepted} > proposed {proposed}"
        );
        // Look up by `&str`: this runs once per Monte Carlo move, and a
        // name is allocated only the first time it is seen.
        if let Some(entry) = self.counts.get_mut(kernel) {
            entry.0 += proposed;
            entry.1 += accepted;
        } else {
            self.counts.insert(kernel.to_string(), (proposed, accepted));
        }
    }

    /// `(proposed, accepted)` for a kernel, zero if unseen.
    pub fn counts(&self, kernel: &str) -> (u64, u64) {
        self.counts.get(kernel).copied().unwrap_or((0, 0))
    }

    /// Acceptance rate of a kernel (`None` before any proposal).
    pub fn acceptance(&self, kernel: &str) -> Option<f64> {
        let (p, a) = self.counts(kernel);
        (p > 0).then(|| a as f64 / p as f64)
    }

    /// Total proposals across kernels.
    pub fn total_proposed(&self) -> u64 {
        self.counts.values().map(|&(p, _)| p).sum()
    }

    /// Total accepted across kernels.
    pub fn total_accepted(&self) -> u64 {
        self.counts.values().map(|&(_, a)| a).sum()
    }

    /// Merge another walker's statistics into this one.
    pub fn merge(&mut self, other: &MoveStats) {
        for (k, &(p, a)) in &other.counts {
            let entry = self.counts.entry(k.clone()).or_insert((0, 0));
            entry.0 += p;
            entry.1 += a;
        }
    }

    /// Iterate `(kernel, proposed, accepted)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.counts.iter().map(|(k, &(p, a))| (k.as_str(), p, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rates() {
        let mut s = MoveStats::new();
        s.record("local", true);
        s.record("local", false);
        s.record("deep", true);
        assert_eq!(s.counts("local"), (2, 1));
        assert_eq!(s.acceptance("local"), Some(0.5));
        assert_eq!(s.acceptance("deep"), Some(1.0));
        assert_eq!(s.acceptance("unknown"), None);
        assert_eq!(s.total_proposed(), 3);
        assert_eq!(s.total_accepted(), 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MoveStats::new();
        a.record("x", true);
        let mut b = MoveStats::new();
        b.record("x", false);
        b.record("y", true);
        a.merge(&b);
        assert_eq!(a.counts("x"), (2, 1));
        assert_eq!(a.counts("y"), (1, 1));
        let names: Vec<&str> = a.iter().map(|(k, _, _)| k).collect();
        assert_eq!(names, vec!["x", "y"]);
    }
}
