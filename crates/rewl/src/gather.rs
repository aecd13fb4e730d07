//! The final gather: window averaging, accumulator reduction, and output
//! assembly at rank 0.
//!
//! Every rank ends its run by shipping one [`crate::GatherPiece`] — its
//! final state in checkpoint form (window `ln g`, visited mask, move
//! statistics, counters, SRO accumulator totals) — to rank 0 (tag
//! `GATHER_PIECE`; a checkpoint round ships the same piece under
//! `CKPT_IMAGE`). Rank 0 receives them through its one collection
//! (`RankEngine::collect`), which validates the shape of what arrives —
//! a dead peer, a timeout, or a malformed message ends the run like any
//! other lost receive. This module then averages each window's walkers
//! (aligning their additive `ln g` constants on co-visited bins), and
//! stitches the windows into the global density of states.

use dt_proposal::MoveStats;
use dt_telemetry::RankTelemetry;
use dt_thermo::MicrocanonicalAccumulator;

use crate::checkpoint::RankCheckpoint;
use crate::driver::{RewlConfig, RewlOutput, WindowReport};
use crate::merge::merge_windows;
use crate::windows::WindowLayout;

/// The SRO accumulator a rank's state carries as per-bin totals (the
/// inverse of [`accumulator_totals`]). The state must fit it
/// (`rank::fits`).
pub(crate) fn accumulator_from(
    rc: &RankCheckpoint,
    global_bins: usize,
    obs_dim: usize,
) -> MicrocanonicalAccumulator {
    let mut acc = MicrocanonicalAccumulator::new(global_bins, obs_dim);
    for (b, &count) in rc.sro_counts.iter().enumerate() {
        acc.record_sum(b, &rc.sro_sums[b * obs_dim..(b + 1) * obs_dim], count);
    }
    acc
}

/// Average the `ln_g` of a window's walkers after aligning their additive
/// constants on co-visited bins; mask is the union of visited bins.
pub(crate) fn average_window(members: &[&RankCheckpoint]) -> (Vec<f64>, Vec<bool>) {
    let walkers: Vec<_> = members.iter().map(|rc| &rc.walker).collect();
    let reference = walkers[0];
    let bins = reference.ln_g.len();
    let mut sum = vec![0.0f64; bins];
    let mut count = vec![0u32; bins];
    for (mi, piece) in walkers.iter().enumerate() {
        // Align to the reference on co-visited bins.
        let mut shift = 0.0;
        if mi > 0 {
            let mut acc = 0.0;
            let mut n = 0usize;
            for b in 0..bins {
                if piece.ever_visited[b] && reference.ever_visited[b] {
                    acc += reference.ln_g[b] - piece.ln_g[b];
                    n += 1;
                }
            }
            if n > 0 {
                shift = acc / n as f64;
            }
        }
        for b in 0..bins {
            if piece.ever_visited[b] {
                sum[b] += piece.ln_g[b] + shift;
                count[b] += 1;
            }
        }
    }
    let mask: Vec<bool> = count.iter().map(|&c| c > 0).collect();
    let avg = sum
        .iter()
        .zip(&count)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    (avg, mask)
}

/// Per-bin `(totals, counts)` of an accumulator — the wire/checkpoint
/// representation (means are re-derived from totals on merge).
pub(crate) fn accumulator_totals(
    acc: &MicrocanonicalAccumulator,
    obs_dim: usize,
) -> (Vec<f64>, Vec<u64>) {
    let bins = acc.num_bins();
    let mut sums = Vec::with_capacity(bins * obs_dim);
    let mut counts = Vec::with_capacity(bins);
    for b in 0..bins {
        let c = acc.count(b);
        counts.push(c);
        match acc.bin_mean(b) {
            Some(mean) => sums.extend(mean.iter().map(|&m| m * c as f64)),
            None => sums.extend(std::iter::repeat_n(0.0, obs_dim)),
        }
    }
    (sums, counts)
}

/// Rank 0's final step: average each window's walkers (`per_rank` holds
/// every rank's final state, in rank order), build the per-window
/// reports, and merge the windows into the global DOS.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_output(
    layout: &WindowLayout,
    cfg: &RewlConfig,
    assignment: &[usize],
    per_rank: &[RankCheckpoint],
    merged_sro: MicrocanonicalAccumulator,
    sweeps: u64,
    resumed_round: Option<u64>,
    telemetry: Vec<RankTelemetry>,
) -> RewlOutput {
    let mut pieces = Vec::with_capacity(cfg.num_windows);
    let mut reports = Vec::with_capacity(cfg.num_windows);
    for win in 0..cfg.num_windows {
        // Walker reallocation can leave windows with unequal headcounts;
        // group by the final rank→window assignment, not by rank blocks.
        let members: Vec<&RankCheckpoint> = per_rank
            .iter()
            .zip(assignment)
            .filter(|&(_, &a)| a == win)
            .map(|(p, _)| p)
            .collect();
        pieces.push(average_window(&members));
        let mut stats = MoveStats::new();
        let mut attempts = 0u64;
        let mut accepted = 0u64;
        let mut all_conv = true;
        let mut ln_f_max = 0.0f64;
        let mut round_trips = 0u64;
        let mut round_trip_moves = 0u64;
        for p in &members {
            stats.merge(&p.stats);
            attempts += p.exchange_attempts;
            accepted += p.exchange_accepted;
            all_conv &= p.walker.ln_f <= cfg.wl.ln_f_final;
            ln_f_max = ln_f_max.max(p.walker.ln_f);
            // Two boundary crossings make one round trip.
            round_trips += (p.rt_banked_crossings + p.walker.rt_crossings) / 2;
            round_trip_moves += p.rt_banked_moves + p.walker.rt_crossing_moves;
        }
        reports.push(WindowReport {
            window: win,
            exchange_attempts: attempts,
            exchange_accepted: accepted,
            stats,
            converged: all_conv,
            ln_f: ln_f_max,
            round_trips,
            round_trip_moves,
        });
    }
    let (dos, mask) = merge_windows(layout, &pieces);
    let total_moves = per_rank.iter().map(|rc| rc.walker.total_moves).sum();
    let converged_all = reports.iter().all(|r| r.converged);
    let walkers_rebalanced = per_rank.iter().map(|rc| rc.rebalanced).sum();
    RewlOutput {
        dos,
        mask,
        windows: reports,
        converged: converged_all,
        sweeps,
        sro: merged_sro,
        total_moves,
        resumed_from: resumed_round,
        telemetry,
        walkers_rebalanced,
    }
}
