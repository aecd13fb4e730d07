//! The final gather: rank pieces, window averaging, accumulator
//! reduction, and output assembly at rank 0.
//!
//! Every rank ends its run by shipping one [`GatherPiece`] — its final
//! state in checkpoint form (window `ln g`, visited mask, move statistics,
//! counters, SRO accumulator totals) — to rank 0 (tag `GATHER_PIECE`).
//! Rank 0 validates the shape of what arrives — a dead peer, a timeout,
//! or a malformed message drops that *rank* from the merge, not the run —
//! averages each window's surviving walkers (aligning their additive
//! `ln g` constants on co-visited bins), and stitches the windows into the
//! global density of states.

use std::time::Instant;

use dt_hpc::{Communicator, Transport};
use dt_proposal::MoveStats;
use dt_telemetry::RankTelemetry;
use dt_thermo::MicrocanonicalAccumulator;

use crate::driver::{RewlConfig, RewlError, RewlOutput, WindowReport};
use crate::exchange::{recv_until, tags};
use crate::merge::merge_windows;
use crate::windows::WindowLayout;
use crate::wire::{self, GatherPiece};

/// Receive one rank's gather contribution and rebuild its SRO
/// accumulator, validating every shape; any timeout, dead peer, or
/// malformed payload drops the whole rank. The receive is bounded by the
/// caller's absolute `deadline` (one budget per collection phase, not per
/// message).
pub(crate) fn recv_rank_piece<T: Transport>(
    comm: &Communicator<T>,
    other: usize,
    window_bins: usize,
    global_bins: usize,
    obs_dim: usize,
    deadline: Instant,
) -> Result<(GatherPiece, MicrocanonicalAccumulator), String> {
    let bytes = recv_until(comm, other, tags::GATHER_PIECE, deadline).map_err(|e| e.to_string())?;
    let piece = wire::decode_piece(&bytes).map_err(|e| e.to_string())?;
    // Decoding already tied every vector to the counts the piece states.
    let state = &piece.state;
    if state.walker.num_bins != window_bins {
        return Err(format!(
            "piece shape mismatch: {} bins, expected {window_bins}",
            state.walker.num_bins
        ));
    }
    if state.sro_counts.len() != global_bins || state.obs_dim != obs_dim {
        return Err(format!(
            "accumulator shape mismatch: {} bins × {}, expected {global_bins} × {obs_dim}",
            state.sro_counts.len(),
            state.obs_dim
        ));
    }
    let mut acc = MicrocanonicalAccumulator::new(global_bins, obs_dim);
    for (b, &count) in state.sro_counts.iter().enumerate() {
        acc.record_sum(b, &state.sro_sums[b * obs_dim..(b + 1) * obs_dim], count);
    }
    Ok((piece, acc))
}

/// Average the `ln_g` of a window's walkers after aligning their additive
/// constants on co-visited bins; mask is the union of visited bins.
pub(crate) fn average_window(members: &[&GatherPiece]) -> (Vec<f64>, Vec<bool>) {
    let walkers: Vec<_> = members.iter().map(|p| &p.state.walker).collect();
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

/// Rank 0's final step: average each window's surviving walkers, build
/// the per-window reports, and merge the windows into the global DOS.
///
/// # Errors
/// [`RewlError::WindowLost`] when a window has no surviving pieces.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_output(
    layout: &WindowLayout,
    cfg: &RewlConfig,
    assignment: &[usize],
    per_rank: &[Option<GatherPiece>],
    merged_sro: MicrocanonicalAccumulator,
    lost_ranks: Vec<usize>,
    sweeps: u64,
    resumed_round: Option<u64>,
    telemetry: Vec<RankTelemetry>,
) -> Result<RewlOutput, RewlError> {
    let mut pieces = Vec::with_capacity(cfg.num_windows);
    let mut reports = Vec::with_capacity(cfg.num_windows);
    for win in 0..cfg.num_windows {
        // Walker reallocation can leave windows with unequal headcounts;
        // group by the final rank→window assignment, not by rank blocks.
        let started = assignment.iter().filter(|&&a| a == win).count();
        let members: Vec<&GatherPiece> = per_rank
            .iter()
            .enumerate()
            .filter(|&(r, _)| assignment[r] == win)
            .filter_map(|(_, p)| p.as_ref())
            .collect();
        if members.is_empty() {
            return Err(RewlError::WindowLost {
                window: win,
                walkers: started,
            });
        }
        pieces.push(average_window(&members));
        let mut stats = MoveStats::new();
        let mut attempts = 0u64;
        let mut accepted = 0u64;
        let mut all_conv = true;
        let mut ln_f_max = 0.0f64;
        let mut round_trips = 0u64;
        let mut round_trip_moves = 0u64;
        for p in members.iter().map(|p| &p.state) {
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
            lost_walkers: started - members.len(),
            round_trips,
            round_trip_moves,
        });
    }
    let (dos, mask) = merge_windows(layout, &pieces);
    let total_moves = per_rank
        .iter()
        .flatten()
        .map(|p| p.state.walker.total_moves)
        .sum();
    let converged_all = reports.iter().all(|r| r.converged);
    let walkers_rebalanced = per_rank.iter().flatten().map(|p| p.state.rebalanced).sum();
    Ok(RewlOutput {
        dos,
        mask,
        windows: reports,
        converged: converged_all,
        sweeps,
        sro: merged_sro,
        total_moves,
        lost_ranks,
        resumed_from: resumed_round,
        telemetry,
        walkers_rebalanced,
    })
}
