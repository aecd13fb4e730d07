//! The replica-exchange protocol: pairing, message tags, and the typed
//! initiator/responder handshake.
//!
//! Every `exchange_every_sweeps` sweeps the windows pair up by round
//! parity — even rounds pair windows (0,1), (2,3), …; odd rounds pair
//! (1,2), (3,4), … — and within an active pair each lower-window walker
//! (the *initiator*) is matched to one upper-window walker (the
//! *responder*) by a round-rotating slot permutation, so every walker
//! pair of adjacent windows eventually meets. The handshake is three
//! messages:
//!
//! 1. initiator → responder: its current energy `E_a`;
//! 2. responder → initiator: `[valid, ln g_b(E_b) − ln g_b(E_a)]`
//!    followed by its own `(E_b, configuration)`;
//! 3. initiator decides with the REWL acceptance rule and sends the
//!    decision byte, followed on acceptance by its own
//!    `(E_a, configuration)`.
//!
//! Each side applies the partner's state only after validating that it
//! lands in its own window. The responder ships its state whether or not
//! the swap is accepted, which costs one state per rejection and saves a
//! round trip per acceptance.
//!
//! Every receive is deadline-bounded (`recv_resilient`): a dead or silent
//! partner fails the attempt — state untouched — with a `CommError`,
//! which ends the rank, instead of hanging the round. Message tags carry
//! the round number ([`tags::with_round`]) so a straggler's late frames
//! can never be mistaken for the current round's.

use std::time::{Duration, Instant};

use dt_hpc::{CommError, Communicator, Transport};
use dt_wanglandau::WlWalker;

use crate::wire;

/// Message tags of the rank protocol. All values stay below bit 63 even
/// after [`with_round`](tags::with_round) packing, so they can never
/// collide with the TCP backend's reserved collective tag space.
pub mod tags {
    /// Initiator's energy opening an exchange handshake.
    pub const EXCH_ENERGY: u64 = 1;
    /// Responder's `[valid, Δln g]` reply with its `(E_b, configuration)`
    /// ([`crate::wire::encode_exchange_reply`]).
    pub const EXCH_REPLY: u64 = 2;
    /// Initiator's accept/reject decision, with its `(E_a,
    /// configuration)` on acceptance
    /// ([`crate::wire::encode_exchange_decision`]).
    pub const EXCH_DECISION: u64 = 3;
    /// Walker → window leader: local deep-proposal weights.
    pub const SYNC_PARAMS: u64 = 5;
    /// Window leader → walker: averaged deep-proposal weights.
    pub const SYNC_PARAMS_BACK: u64 = 6;
    /// Gather: a rank's whole contribution, one framed message.
    pub const GATHER_PIECE: u64 = 7;
    /// Checkpoint-commit confirmation to rank 0.
    pub const CKPT_META: u64 = 13;
    /// Gather: a rank's telemetry snapshot (multi-process backends only).
    pub const GATHER_TELEMETRY: u64 = 14;
    /// Rebalance: a rank's round-trip sample for the planner (rank 0).
    pub const RT_STATS: u64 = 15;
    /// Rebalance: rank 0's broadcast migration plan.
    pub const REBALANCE_PLAN: u64 = 16;
    /// Rebalance: donor → migrant serialized walker state.
    pub const REBALANCE_STATE: u64 = 17;

    /// Pack a round number into the tag space so protocol rounds can
    /// never cross-talk.
    pub fn with_round(tag: u64, round: u64) -> u64 {
        (round << 8) | tag
    }
}

/// First receive timeout of the bounded retry schedule.
const RECV_BASE: Duration = Duration::from_millis(100);
/// Retries with doubling timeout: total patience ≈ 6.3 s before a peer
/// is written off for this protocol step.
const RECV_RETRIES: u32 = 6;
/// Patience for the final gather and checkpoint commits, where peers are
/// known to be at (or past) the same protocol point.
pub(crate) const COLLECT_DEADLINE: Duration = Duration::from_secs(30);

/// Deadline-bounded receive with exponential backoff. Returns the first
/// hard failure: a dead peer immediately, a timeout after the full retry
/// budget. Never blocks unboundedly.
pub(crate) fn recv_resilient<T: Transport>(
    comm: &Communicator<T>,
    from: usize,
    tag: u64,
) -> Result<Vec<u8>, CommError> {
    let mut timeout = RECV_BASE;
    let mut last = CommError::Timeout { from, tag };
    for _ in 0..RECV_RETRIES {
        match comm.recv_timeout(from, tag, timeout) {
            Ok(bytes) => return Ok(bytes),
            Err(dead @ CommError::RankDead(_)) => return Err(dead),
            Err(timed_out) => last = timed_out,
        }
        timeout *= 2;
    }
    Err(last)
}

/// Receive against a SHARED absolute deadline — the collection form of
/// [`recv_resilient`], for gather-style phases where rank 0 drains many
/// peers in sequence. A flat per-message timeout there overshoots by
/// `ranks × timeout` in the worst case; one deadline bounds the whole
/// phase instead. Backoff still doubles between attempts (capped), and a
/// dead peer fails immediately.
pub(crate) fn recv_until<T: Transport>(
    comm: &Communicator<T>,
    from: usize,
    tag: u64,
    deadline: Instant,
) -> Result<Vec<u8>, CommError> {
    let mut timeout = RECV_BASE;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(CommError::Timeout { from, tag });
        }
        match comm.recv_timeout(from, tag, timeout.min(remaining)) {
            Ok(bytes) => return Ok(bytes),
            Err(dead @ CommError::RankDead(_)) => return Err(dead),
            Err(_) => {}
        }
        timeout = (timeout * 2).min(Duration::from_secs(2));
    }
}

/// A rank's role in one exchange round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeRole {
    /// Lower window of an active pair: opens the handshake with `partner`.
    Initiator {
        /// The responder rank in the window above.
        partner: usize,
    },
    /// Upper window of an active pair: answers `initiator`'s handshake.
    Responder {
        /// The initiating rank in the window below.
        initiator: usize,
    },
    /// Not part of any active pair this round.
    Idle,
}

/// The pairing function: which role `rank` plays in `round` under the
/// rank→window map `assignment`. Within each window, members keep a
/// stable identity given by ascending rank order; the lower window's
/// member `i` (for `i < min(|lower|, |upper|)`) initiates toward the
/// upper window's member `(i + round) mod |upper|`. Deterministic and
/// symmetric — if it names a partner, the partner's role names this rank
/// back. For the uniform assignment `rank → rank / w` this is the classic
/// slot rotation (see the tests); runs that never rebalance pass that
/// assignment.
pub fn exchange_role(
    rank: usize,
    round: u64,
    assignment: &[usize],
    num_windows: usize,
) -> ExchangeRole {
    let window = assignment[rank];
    let parity = (round % 2) as usize;
    let members = |win: usize| {
        assignment
            .iter()
            .enumerate()
            .filter(move |&(_, &w)| w == win)
            .map(|(r, _)| r)
    };
    let idx = members(window)
        .position(|r| r == rank)
        .expect("a rank is a member of its own window");
    if window % 2 == parity && window + 1 < num_windows {
        let (lower, upper) = (members(window).count(), members(window + 1).count());
        // Only the first min(|lower|, |upper|) members initiate, so the
        // rotation below maps them injectively into the upper window.
        if idx >= lower.min(upper) {
            return ExchangeRole::Idle;
        }
        let partner = members(window + 1).nth((idx + round as usize) % upper);
        ExchangeRole::Initiator {
            partner: partner.expect("index below the member count"),
        }
    } else if window % 2 != parity && window > 0 {
        let (lower, upper) = (members(window - 1).count(), members(window).count());
        let initiator_idx = (idx + upper - (round as usize % upper)) % upper;
        if initiator_idx >= lower.min(upper) {
            return ExchangeRole::Idle;
        }
        let initiator = members(window - 1).nth(initiator_idx);
        ExchangeRole::Responder {
            initiator: initiator.expect("index below the member count"),
        }
    } else {
        ExchangeRole::Idle
    }
}

/// The initiator ('a') side of one replica-exchange attempt. Returns
/// whether the swap was applied locally. A comm failure fails the
/// attempt without touching walker state.
pub(crate) fn exchange_as_initiator<T: Transport>(
    comm: &Communicator<T>,
    walker: &mut WlWalker,
    partner: usize,
    round: u64,
    m_species: usize,
) -> Result<bool, CommError> {
    comm.send(
        partner,
        tags::with_round(tags::EXCH_ENERGY, round),
        wire::encode_f64s(&[walker.energy()]),
    );
    let reply_bytes = recv_resilient(comm, partner, tags::with_round(tags::EXCH_REPLY, round))?;
    // A malformed or invalid reply voids the attempt before any RNG draw.
    // The partner's state must land in this walker's window, which
    // `ln_g_at(E_b)` checks before the draw.
    let mut theirs = None;
    if let Ok(reply) = wire::decode_exchange_reply(&reply_bytes, m_species) {
        if let (Some(delta), Some(g_mine), Some(g_at_b)) = (
            reply.delta_ln_g,
            walker.ln_g_at(walker.energy()),
            walker.ln_g_at(reply.energy),
        ) {
            let ln_acc = g_mine - g_at_b + delta;
            let u: f64 = rand::RngExt::random(walker.rng_mut());
            if ln_acc >= 0.0 || u < ln_acc.exp() {
                theirs = Some((reply.energy, reply.config));
            }
        }
    }
    let mine = theirs.is_some().then(|| (walker.energy(), walker.config()));
    comm.send(
        partner,
        tags::with_round(tags::EXCH_DECISION, round),
        wire::encode_exchange_decision(mine),
    );
    match theirs {
        Some((e, c)) => {
            walker.set_state(c, e);
            Ok(true)
        }
        None => Ok(false),
    }
}

/// The responder ('b') side of one replica-exchange attempt.
pub(crate) fn exchange_as_responder<T: Transport>(
    comm: &Communicator<T>,
    walker: &mut WlWalker,
    initiator: usize,
    round: u64,
    m_species: usize,
) -> Result<bool, CommError> {
    let e_a_bytes = recv_resilient(comm, initiator, tags::with_round(tags::EXCH_ENERGY, round))?;
    let e_a = wire::decode_f64s(&e_a_bytes)
        .ok()
        .and_then(|v| v.first().copied());
    let delta = e_a.and_then(|e_a| {
        let g_at_a = walker.ln_g_at(e_a)?;
        Some(walker.ln_g_at(walker.energy())? - g_at_a)
    });
    comm.send(
        initiator,
        tags::with_round(tags::EXCH_REPLY, round),
        wire::encode_exchange_reply(delta, walker.energy(), walker.config()),
    );
    let decision = recv_resilient(
        comm,
        initiator,
        tags::with_round(tags::EXCH_DECISION, round),
    )?;
    // Only the initiator counts the exchange, so window reports read as
    // "attempts toward the next window". The accepted state must land in
    // this walker's window; a malformed or out-of-window payload voids
    // the swap (the initiator then holds a duplicate of our
    // configuration, which is harmless: any in-window configuration is a
    // valid WL state).
    match wire::decode_exchange_decision(&decision, m_species) {
        Ok(Some((e, c))) if walker.ln_g_at(e).is_some() => {
            walker.set_state(c, e);
            Ok(true)
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_hamiltonian::PairHamiltonian;
    use dt_hpc::ThreadCluster;
    use dt_lattice::{Composition, Configuration, NeighborTable, Structure, Supercell};
    use dt_proposal::LocalSwap;
    use dt_wanglandau::{EnergyGrid, WlParams, WlWalker};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn with_round_tags_never_collide_across_rounds() {
        let mut seen = std::collections::HashSet::new();
        let all_tags = [
            tags::EXCH_ENERGY,
            tags::EXCH_REPLY,
            tags::EXCH_DECISION,
            tags::SYNC_PARAMS,
            tags::SYNC_PARAMS_BACK,
            tags::GATHER_PIECE,
            tags::CKPT_META,
            tags::GATHER_TELEMETRY,
            tags::RT_STATS,
            tags::REBALANCE_PLAN,
            tags::REBALANCE_STATE,
        ];
        for round in 0..2_000u64 {
            for &tag in &all_tags {
                let packed = tags::with_round(tag, round);
                assert!(seen.insert(packed), "collision: tag {tag} round {round}");
                // Bit 63 is reserved by the TCP backend for collectives.
                assert!(packed < 1 << 63);
            }
        }
        assert_eq!(seen.len(), all_tags.len() * 2_000);
        // Rounds far beyond any realistic run still stay clear of bit 63.
        assert!(tags::with_round(tags::REBALANCE_STATE, 1 << 40) < 1 << 63);
    }

    /// The uniform rank→window map of a `w × m` layout.
    fn uniform(w: usize, m: usize) -> Vec<usize> {
        (0..w * m).map(|r| r / w).collect()
    }

    /// The closed-form slot rotation the driver used before walkers
    /// could change windows — kept as the reference the pairing function
    /// must reproduce on the uniform assignment.
    fn classic_role(rank: usize, round: u64, w: usize, num_windows: usize) -> ExchangeRole {
        let window = rank / w;
        let slot = rank % w;
        let parity = (round % 2) as usize;
        if window % 2 == parity && window + 1 < num_windows {
            let partner_slot = (slot + round as usize) % w;
            ExchangeRole::Initiator {
                partner: (window + 1) * w + partner_slot,
            }
        } else if window % 2 != parity && window > 0 {
            let initiator_slot = (slot + w - (round as usize % w)) % w;
            ExchangeRole::Responder {
                initiator: (window - 1) * w + initiator_slot,
            }
        } else {
            ExchangeRole::Idle
        }
    }

    #[test]
    fn assigned_pairing_reduces_to_legacy_for_uniform_assignment() {
        for w in 1usize..=4 {
            for m in 1usize..=5 {
                let assignment = uniform(w, m);
                for round in 0..24u64 {
                    for rank in 0..w * m {
                        assert_eq!(
                            exchange_role(rank, round, &assignment, m),
                            classic_role(rank, round, w, m),
                            "w={w} m={m} round={round} rank={rank}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn assigned_pairing_is_an_involution_for_skewed_assignments() {
        // Hand-built unbalanced maps and uniform layouts alike: the
        // pairing must stay a self-inverse partial matching.
        let cases: Vec<(Vec<usize>, usize)> = vec![
            (vec![0, 0, 0, 1], 2),
            (vec![0, 1, 1, 1], 2),
            (vec![0, 2, 1, 0, 2, 2, 1], 3),
            (vec![1, 0, 3, 2, 0, 1, 2, 3, 3], 4),
            (vec![0, 0, 1, 2, 2, 2, 2], 3),
            (uniform(1, 1), 1),
            (uniform(3, 2), 2),
            (uniform(2, 5), 5),
            (uniform(4, 3), 3),
        ];
        for (assignment, m) in cases {
            let size = assignment.len();
            for round in 0..32u64 {
                let mut partner_of = vec![None; size];
                #[allow(clippy::needless_range_loop)]
                for rank in 0..size {
                    match exchange_role(rank, round, &assignment, m) {
                        ExchangeRole::Initiator { partner } => {
                            assert_eq!(
                                exchange_role(partner, round, &assignment, m),
                                ExchangeRole::Responder { initiator: rank },
                                "{assignment:?} round={round} rank={rank}"
                            );
                            partner_of[rank] = Some(partner);
                        }
                        ExchangeRole::Responder { initiator } => {
                            assert_eq!(
                                exchange_role(initiator, round, &assignment, m),
                                ExchangeRole::Initiator { partner: rank },
                                "{assignment:?} round={round} rank={rank}"
                            );
                            partner_of[rank] = Some(initiator);
                        }
                        ExchangeRole::Idle => {}
                    }
                }
                for rank in 0..size {
                    if let Some(p) = partner_of[rank] {
                        assert_ne!(p, rank);
                        assert_eq!(partner_of[p], Some(rank));
                        assert_ne!(assignment[p], assignment[rank], "cross-window only");
                    }
                }
            }
        }
    }

    #[test]
    fn every_cross_window_pair_eventually_meets() {
        let (w, m) = (3usize, 2usize);
        let mut met = std::collections::HashSet::new();
        let assignment = uniform(w, m);
        for round in 0..64u64 {
            for rank in 0..w * m {
                if let ExchangeRole::Initiator { partner } =
                    exchange_role(rank, round, &assignment, m)
                {
                    met.insert((rank, partner));
                }
            }
        }
        // Each walker of window k must meet every walker of window k+1.
        for win in 0..m - 1 {
            for a in 0..w {
                for b in 0..w {
                    let pair = (win * w + a, (win + 1) * w + b);
                    assert!(met.contains(&pair), "pair {pair:?} never paired");
                }
            }
        }
    }

    fn system() -> (Supercell, NeighborTable, Composition, PairHamiltonian) {
        let cell = Supercell::cubic(Structure::bcc(), 2);
        let nt = cell.neighbor_table(1);
        let comp = Composition::equiatomic(2, cell.num_sites()).unwrap();
        let h = PairHamiltonian::from_pairs(2, 1, &[(0, 0, 1, -0.01)]);
        (cell, nt, comp, h)
    }

    fn walker_on(
        grid: EnergyGrid,
        model: &PairHamiltonian,
        neighbors: &NeighborTable,
        comp: &Composition,
        seed: u64,
    ) -> WlWalker {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = Configuration::random(comp, &mut rng);
        let mut walker = WlWalker::new(
            grid,
            WlParams::default(),
            config,
            model,
            neighbors,
            Box::new(LocalSwap::new()),
            seed,
        );
        assert!(walker.drive_into_window(model, neighbors, 50_000));
        walker
    }

    /// On identical fresh grids the acceptance is ln_acc = 0 ⇒ certain;
    /// both sides must agree and end up holding each other's state.
    #[test]
    fn accepted_swap_agrees_on_both_sides_and_crosses_states() {
        let (_, nt, comp, h) = system();
        let grid = EnergyGrid::new(-0.645, -0.155, 24);
        let results = ThreadCluster::run(2, |comm| {
            let mut walker = walker_on(grid.clone(), &h, &nt, &comp, 40 + comm.rank() as u64);
            let e_before = walker.energy();
            let swapped = if comm.rank() == 0 {
                exchange_as_initiator(&comm, &mut walker, 1, 0, comp.num_species())
            } else {
                exchange_as_responder(&comm, &mut walker, 0, 0, comp.num_species())
            };
            (e_before, swapped.unwrap(), walker.energy())
        });
        let (e0, swapped0, e0_after) = results[0];
        let (e1, swapped1, e1_after) = results[1];
        assert!(swapped0 && swapped1, "both sides must apply the swap");
        assert_eq!(
            e0_after.to_bits(),
            e1.to_bits(),
            "initiator holds b's state"
        );
        assert_eq!(
            e1_after.to_bits(),
            e0.to_bits(),
            "responder holds a's state"
        );
    }

    /// A reply that does not decode voids the attempt before the
    /// initiator draws from its stream, and the decision it sends back
    /// is a bare rejection.
    #[test]
    fn malformed_reply_is_declined_without_an_rng_draw() {
        let (_, nt, comp, h) = system();
        let grid = EnergyGrid::new(-0.645, -0.155, 24);
        let results = ThreadCluster::run(2, |comm| {
            if comm.rank() == 1 {
                let opener = tags::with_round(tags::EXCH_ENERGY, 5);
                recv_resilient(&comm, 0, opener).unwrap();
                // A reply with an out-of-range flag byte.
                comm.send(0, tags::with_round(tags::EXCH_REPLY, 5), vec![9; 40]);
                let decision = tags::with_round(tags::EXCH_DECISION, 5);
                return (recv_resilient(&comm, 0, decision).unwrap(), true);
            }
            let mut walker = walker_on(grid.clone(), &h, &nt, &comp, 3);
            let (e, pos) = (walker.energy(), walker.rng_mut().get_word_pos());
            let swapped = exchange_as_initiator(&comm, &mut walker, 1, 5, comp.num_species());
            let untouched =
                walker.energy().to_bits() == e.to_bits() && walker.rng_mut().get_word_pos() == pos;
            (Vec::new(), swapped == Ok(false) && untouched)
        });
        assert!(results[0].1, "initiator state and stream untouched");
        assert_eq!(results[1].0, [0], "a bare rejection");
    }

    /// Disjoint windows: the responder cannot place the initiator's
    /// energy, so the attempt must be declined symmetrically with both
    /// walkers untouched.
    #[test]
    fn out_of_window_energy_is_declined_on_both_sides() {
        let (_, nt, comp, h) = system();
        let results = ThreadCluster::run(2, |comm| {
            let mut walker = if comm.rank() == 0 {
                walker_on(EnergyGrid::new(-0.645, -0.155, 24), &h, &nt, &comp, 7)
            } else {
                // A window no physical configuration can reach: every
                // initiator energy is out-of-window for this responder.
                let mut rng = ChaCha8Rng::seed_from_u64(8);
                let config = Configuration::random(&comp, &mut rng);
                WlWalker::new(
                    EnergyGrid::new(10.0, 11.0, 8),
                    WlParams::default(),
                    config,
                    &h,
                    &nt,
                    Box::new(LocalSwap::new()),
                    8,
                )
            };
            let e_before = walker.energy();
            let swapped = if comm.rank() == 0 {
                exchange_as_initiator(&comm, &mut walker, 1, 3, comp.num_species())
            } else {
                exchange_as_responder(&comm, &mut walker, 0, 3, comp.num_species())
            };
            (e_before, swapped.unwrap(), walker.energy())
        });
        for (rank, (e_before, swapped, e_after)) in results.into_iter().enumerate() {
            assert!(!swapped, "rank {rank}: swap must be declined");
            assert_eq!(e_before.to_bits(), e_after.to_bits(), "state untouched");
        }
    }
}
