//! Acceptance bookkeeping per proposal kernel.

/// Proposed/accepted counters keyed by kernel name. Mergeable across
/// walkers so parallel runs can report fleet-wide acceptance rates.
///
/// Every Monte Carlo move records into it, so the entries live in a
/// name-sorted `Vec` with the index of the last hit: a walker that keeps
/// proposing with one kernel pays one string compare per move. Equality
/// looks at the counts only.
#[derive(Debug, Clone, Default)]
pub struct MoveStats {
    /// `(kernel, proposed, accepted)`, sorted by kernel name.
    entries: Vec<(String, u64, u64)>,
    /// Index of the entry the last record hit.
    last: usize,
}

impl PartialEq for MoveStats {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for MoveStats {}

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
        let hit = self.entries.get(self.last).is_some_and(|e| e.0 == kernel);
        if !hit {
            // A name is allocated only the first time it is seen.
            self.last = match self.entries.binary_search_by(|e| e.0.as_str().cmp(kernel)) {
                Ok(i) => i,
                Err(i) => {
                    self.entries.insert(i, (kernel.to_string(), 0, 0));
                    i
                }
            };
        }
        let entry = &mut self.entries[self.last];
        entry.1 += proposed;
        entry.2 += accepted;
    }

    /// `(proposed, accepted)` for a kernel, zero if unseen.
    pub fn counts(&self, kernel: &str) -> (u64, u64) {
        self.iter()
            .find(|&(k, _, _)| k == kernel)
            .map_or((0, 0), |(_, p, a)| (p, a))
    }

    /// Acceptance rate of a kernel (`None` before any proposal).
    pub fn acceptance(&self, kernel: &str) -> Option<f64> {
        let (p, a) = self.counts(kernel);
        (p > 0).then(|| a as f64 / p as f64)
    }

    /// Total proposals across kernels.
    pub fn total_proposed(&self) -> u64 {
        self.iter().map(|(_, p, _)| p).sum()
    }

    /// Total accepted across kernels.
    pub fn total_accepted(&self) -> u64 {
        self.iter().map(|(_, _, a)| a).sum()
    }

    /// Merge another walker's statistics into this one.
    pub fn merge(&mut self, other: &MoveStats) {
        for (k, p, a) in other.iter() {
            self.record_n(k, p, a);
        }
    }

    /// Iterate `(kernel, proposed, accepted)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.entries.iter().map(|(k, p, a)| (k.as_str(), *p, *a))
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

    #[test]
    fn order_and_equality_ignore_the_recording_history() {
        let mut a = MoveStats::new();
        for name in ["local-swap", "deep", "local-swap", "b", "deep", "zz"] {
            a.record(name, true);
        }
        let mut b = MoveStats::new();
        b.record_n("zz", 1, 1);
        b.record_n("b", 1, 1);
        b.record_n("deep", 2, 2);
        b.record_n("local-swap", 2, 2);
        assert_eq!(a, b, "same counts, different last hit");
        let names: Vec<&str> = a.iter().map(|(k, _, _)| k).collect();
        assert_eq!(names, vec!["b", "deep", "local-swap", "zz"]);
        assert_eq!(a.counts("deep"), (2, 2));
        assert_eq!(a.counts("missing"), (0, 0));
    }
}
