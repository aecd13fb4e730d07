//! Dynamic walker reallocation: the rebalance planner.
//!
//! At rebalance rounds every rank ships its walker's round-trip sample
//! (move-count based, so bit-deterministic given the run seed) to rank 0,
//! which scores each window's diffusion speed and plans at most one
//! migration per round: the highest-ranked walker of the fastest window
//! (with ≥ 2 walkers) moves to the slowest window, adopting a copy of the
//! slow window's WL state from that window's lowest-ranked member (the
//! *donor*). The plan is broadcast and applied by every rank in lockstep,
//! keeping the shared rank→window assignment identical everywhere.
//!
//! Wall-clock round-trip times are exported through telemetry only —
//! planning uses move counts exclusively so recovered runs replay the
//! exact same plans.

/// One rank's deterministic round-trip sample (move counts only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RtSample {
    /// Completed boundary crossings.
    pub crossings: u64,
    /// Moves spent inside completed crossings.
    pub crossing_moves: u64,
    /// Moves spent in the currently open (incomplete) leg.
    pub pending_moves: u64,
}

/// One planned walker migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The rank that changes windows.
    pub migrant: usize,
    /// Window it leaves.
    pub from_window: usize,
    /// Window it joins.
    pub to_window: usize,
    /// Member of `to_window` that ships its WL state to the migrant.
    pub donor: usize,
}

/// A slow window must score at least this many times the fastest
/// window's cost before a walker is moved — hysteresis against
/// ping-ponging walkers between statistically even windows.
pub const REBALANCE_RATIO: f64 = 2.0;

/// Estimated diffusion cost of a window in moves-per-crossing: the mean
/// over completed crossings of its members, or — when no member has
/// completed one — the largest open first-passage leg, which is a
/// measured lower bound on the (still unknown) crossing time. An empty
/// window costs 0, so it is never the slow one.
fn window_cost(samples: &[(usize, RtSample)]) -> f64 {
    let crossings: u64 = samples.iter().map(|(_, s)| s.crossings).sum();
    let crossing_moves: u64 = samples.iter().map(|(_, s)| s.crossing_moves).sum();
    if crossings > 0 {
        crossing_moves as f64 / crossings as f64
    } else {
        samples
            .iter()
            .map(|(_, s)| s.pending_moves)
            .max()
            .unwrap_or(0) as f64
    }
}

/// Compute the migration plan for one rebalance round from every rank's
/// sample (`samples[rank]`). Returns at most one migration; `None` when
/// windows are balanced within [`REBALANCE_RATIO`] or the fastest window
/// cannot spare a walker.
pub fn plan_rebalance(
    assignment: &[usize],
    num_windows: usize,
    samples: &[RtSample],
) -> Option<Migration> {
    assert_eq!(assignment.len(), samples.len());
    if num_windows < 2 {
        return None;
    }
    // Members per window, in ascending rank order.
    let mut members: Vec<Vec<(usize, RtSample)>> = vec![Vec::new(); num_windows];
    for (rank, &s) in samples.iter().enumerate() {
        members[assignment[rank]].push((rank, s));
    }
    let cost: Vec<f64> = members.iter().map(|m| window_cost(m)).collect();
    // Slowest window overall; fastest among windows that can give up a
    // walker without going empty. First index wins ties — deterministic.
    let slow = (0..num_windows).max_by(|&a, &b| cost[a].partial_cmp(&cost[b]).expect("finite"))?;
    let fast = (0..num_windows)
        .filter(|&w| members[w].len() >= 2 && w != slow)
        .min_by(|&a, &b| cost[a].partial_cmp(&cost[b]).expect("finite"))?;
    let (fast_cost, slow_cost) = (cost[fast], cost[slow]);
    if slow_cost <= REBALANCE_RATIO * fast_cost {
        return None;
    }
    // Move the fast window's highest rank (never its lowest: that keeps
    // retrain-leader and donor identities stable) onto the slow window,
    // seeded from the slow window's lowest-ranked member.
    let migrant = members[fast].last().expect(">= 2 members").0;
    let donor = members[slow].first().expect("a slow window has members").0;
    Some(Migration {
        migrant,
        from_window: fast,
        to_window: slow,
        donor,
    })
}

/// Encode a plan for the broadcast wire message: `[]` for no-op, else
/// `[migrant, from, to, donor]`.
pub fn encode_plan(plan: Option<Migration>) -> Vec<u64> {
    match plan {
        None => Vec::new(),
        Some(m) => vec![
            m.migrant as u64,
            m.from_window as u64,
            m.to_window as u64,
            m.donor as u64,
        ],
    }
}

/// Decode a broadcast plan: `None` for the no-op plan `[]` and for a
/// malformed payload, which the engine tells apart by length and treats
/// as a lost coordinator.
pub fn decode_plan(words: &[u64], num_ranks: usize, num_windows: usize) -> Option<Migration> {
    if words.len() != 4 {
        return None;
    }
    let (migrant, from, to, donor) = (
        words[0] as usize,
        words[1] as usize,
        words[2] as usize,
        words[3] as usize,
    );
    if migrant >= num_ranks || donor >= num_ranks || from >= num_windows || to >= num_windows {
        return None;
    }
    if from == to || migrant == donor {
        return None;
    }
    Some(Migration {
        migrant,
        from_window: from,
        to_window: to,
        donor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(crossings: u64, crossing_moves: u64, pending: u64) -> RtSample {
        RtSample {
            crossings,
            crossing_moves,
            pending_moves: pending,
        }
    }

    #[test]
    fn moves_walker_from_fast_to_slow_window() {
        // Windows of 2: window 0 crosses every 100 moves, window 2 every
        // 10_000 — far past the ratio, so rank 1 (highest in window 0)
        // must move to window 2, seeded by rank 4 (lowest in window 2).
        let assignment = vec![0, 0, 1, 1, 2, 2];
        let samples = vec![
            s(10, 1_000, 5),
            s(10, 1_000, 9),
            s(8, 4_000, 3),
            s(8, 4_000, 7),
            s(2, 20_000, 100),
            s(2, 20_000, 50),
        ];
        let plan = plan_rebalance(&assignment, 3, &samples).expect("imbalance must trigger");
        assert_eq!(
            plan,
            Migration {
                migrant: 1,
                from_window: 0,
                to_window: 2,
                donor: 4,
            }
        );
    }

    #[test]
    fn balanced_windows_plan_nothing() {
        let assignment = vec![0, 0, 1, 1];
        let samples = vec![s(10, 1_000, 0), s(10, 1_000, 0), s(9, 950, 0), s(9, 950, 0)];
        assert_eq!(plan_rebalance(&assignment, 2, &samples), None);
    }

    #[test]
    fn fast_window_with_one_walker_cannot_donate() {
        // Window 0 is fastest but has a single member; window 1 cannot be
        // both source and destination, so nothing moves.
        let assignment = vec![0, 1, 1];
        let samples = vec![s(10, 100, 0), s(2, 20_000, 0), s(2, 20_000, 0)];
        assert_eq!(plan_rebalance(&assignment, 2, &samples), None);
    }

    #[test]
    fn windows_without_crossings_score_by_pending_leg() {
        // Window 1 never completed a crossing but its open leg is huge —
        // it must be recognized as the slow one.
        let assignment = vec![0, 0, 1, 1];
        let samples = vec![
            s(20, 2_000, 10),
            s(20, 2_000, 4),
            s(0, 0, 90_000),
            s(0, 0, 10),
        ];
        let plan = plan_rebalance(&assignment, 2, &samples).expect("pending leg must count");
        assert_eq!(plan.to_window, 1);
        assert_eq!(plan.migrant, 1);
        assert_eq!(plan.donor, 2);
    }

    #[test]
    fn plan_wire_round_trips() {
        let plan = Some(Migration {
            migrant: 3,
            from_window: 1,
            to_window: 0,
            donor: 0,
        });
        assert_eq!(decode_plan(&encode_plan(plan), 4, 2), plan);
        assert_eq!(decode_plan(&encode_plan(None), 4, 2), None);
        // Out-of-range and degenerate payloads read as no-op.
        assert_eq!(decode_plan(&[9, 0, 1, 0], 4, 2), None);
        assert_eq!(decode_plan(&[1, 0, 0, 0], 4, 2), None);
        assert_eq!(decode_plan(&[1, 5, 1, 0], 4, 2), None);
        assert_eq!(decode_plan(&[1, 0], 4, 2), None);
    }
}
