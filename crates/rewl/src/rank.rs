//! The per-rank REWL engine: one walker's life as an explicit state
//! machine over a pluggable [`Transport`].
//!
//! Each rank's life steps through the round phases
//!
//! ```text
//! Checkpoint → Sample → Retrain → Exchange → Rebalance → Converge
//!     ↑                                                    │
//!     └──────────────── not converged ─────────────────────┘
//!                                                          ↓ converged / cap
//!                                                       Gather
//! ```
//!
//! `Rebalance` is a strict no-op unless [`RewlConfig::rebalance_every`]
//! is set — zero messages, zero RNG draws — so runs without dynamic
//! reallocation are bit-identical to the pre-rebalance protocol.
//!
//! The engine is backend-agnostic: [`crate::run_rewl`] drives it on the
//! in-memory thread fabric, [`crate::run_rewl_on`] on any transport
//! (e.g. TCP worker processes). Phase order, message schedule, and RNG
//! consumption are identical on every backend, so a fault-free run
//! produces bit-identical `ln g` regardless of the wire underneath.
//!
//! Every rank is fail-stop: a failed protocol receive — a dead peer, an
//! exhausted deadline, a payload that does not decode — ends the rank's
//! life with [`RewlError::PeerLost`], and so does a vote that counts fewer
//! than every rank. The run is then restarted from its newest complete
//! checkpoint.

use dt_hamiltonian::EnergyModel;
use dt_hpc::{rank_rng, Communicator, Transport};
use dt_lattice::{sro::ordered_pair_counts, Composition, Configuration, NeighborTable};
use dt_proposal::{
    DeepProposal, LocalSwap, ProposalContext, ProposalKernel, ProposalMix, ProposalTrainer,
    RandomReassign, SampleBuffer,
};
use dt_telemetry::{adaptive_counters, Phase, RankTelemetry, Telemetry};
use dt_thermo::MicrocanonicalAccumulator;
use dt_wanglandau::{EnergyGrid, WalkerCheckpoint, WlWalker};

use std::time::Instant;

use crate::checkpoint::{CheckpointSpec, RankCheckpoint, ResumePoint, RunManifest};
use crate::driver::{RewlConfig, RewlError, RewlOutput};
use crate::exchange::{
    self, exchange_role, recv_resilient, recv_until, tags, ExchangeRole, COLLECT_DEADLINE,
};
use crate::gather::{self, accumulator_totals};
use crate::rebalance::{self, Migration, RtSample};
use crate::spec::{DeepSpec, KernelSpec};
use crate::windows::WindowLayout;
use crate::wire::{self, GatherPiece};

/// What one rank hands back to its driver: the assembled output (rank 0
/// only; `None` elsewhere) plus this rank's telemetry snapshot (when
/// enabled), or the error that ended the rank.
pub(crate) type RankReturn = Result<(Option<RewlOutput>, Option<RankTelemetry>), RewlError>;

/// Whether a walker snapshot was taken on `grid`, bit for bit.
fn on_grid(cp: &WalkerCheckpoint, grid: &EnergyGrid) -> bool {
    cp.num_bins == grid.num_bins()
        && cp.e_min.to_bits() == grid.e_min().to_bits()
        && cp.e_max.to_bits() == grid.e_max().to_bits()
}

/// Whether a rank's state fits a window on `grid` and a
/// `global_bins × obs_dim` SRO accumulator — what a resumed or gathered
/// state must satisfy.
pub(crate) fn fits(
    rc: &RankCheckpoint,
    grid: &EnergyGrid,
    global_bins: usize,
    obs_dim: usize,
) -> bool {
    on_grid(&rc.walker, grid) && rc.obs_dim == obs_dim && rc.sro_counts.len() == global_bins
}

/// Whether `round` is a rebalance round.
fn rebalance_due(cfg: &RewlConfig, round: u64) -> bool {
    cfg.rebalance_every > 0 && (round + 1) % cfg.rebalance_every == 0
}

/// Whether `round` takes the convergence vote: whether the vote's inputs
/// can have changed since the last one. They change only when
///
/// * this is the first round of the rank's life (`first_round`, fresh or
///   resumed) — nothing has been voted yet;
/// * a flatness check falls in the round's sweeps `(r·E, (r+1)·E]`, the
///   one place `ln f` moves;
/// * it is a rebalance round, where a migrant adopts its donor's `ln f`;
/// * the sweep cap is reached (`(r+1)·E ≥ max_sweeps`).
///
/// A pure function of the round and the config, never of rank-local
/// state, so every rank — a restored one with an older sweep counter
/// included — skips the same collectives.
fn vote_due(cfg: &RewlConfig, first_round: u64, round: u64) -> bool {
    let every = cfg.exchange_every_sweeps;
    let check = (cfg.wl.sweeps_per_check as u64).max(1);
    let (start, end) = (
        round.saturating_mul(every),
        (round + 1).saturating_mul(every),
    );
    round == first_round
        || end / check > start / check
        || rebalance_due(cfg, round)
        || end >= cfg.max_sweeps
}

/// Per-rank deep-proposal state.
struct DeepState {
    deep: DeepProposal,
    trainer: ProposalTrainer,
    buffer: SampleBuffer,
    spec: DeepSpec,
}

impl DeepState {
    /// The retrain cadence: on every `train_every_sweeps`-th sweep with a
    /// non-empty buffer, run `epochs_per_round` epochs drawing site subsets
    /// from the walker's own stream. Returns whether the network changed,
    /// i.e. whether the walker's kernel must be rebuilt from it.
    fn retrain(&mut self, sweeps: u64, neighbors: &NeighborTable, rng: &mut dyn rand::Rng) -> bool {
        if sweeps % self.spec.train_every_sweeps != 0 || self.buffer.is_empty() {
            return false;
        }
        for _ in 0..self.spec.epochs_per_round {
            self.trainer
                .train_epoch(self.deep.net_mut(), &self.buffer, neighbors, rng);
        }
        true
    }
}

fn build_kernel(spec: &KernelSpec, deep_state: &Option<DeepState>) -> Box<dyn ProposalKernel> {
    match spec {
        KernelSpec::LocalSwap => Box::new(LocalSwap::new()),
        KernelSpec::RandomGlobal { k, weight } => Box::new(ProposalMix::new(vec![
            (
                Box::new(LocalSwap::new()) as Box<dyn ProposalKernel>,
                1.0 - weight,
            ),
            (Box::new(RandomReassign::new(*k)), *weight),
        ])),
        KernelSpec::Deep(ds) => {
            let deep = deep_state
                .as_ref()
                .expect("deep state must exist for deep kernels")
                .deep
                .clone();
            Box::new(ProposalMix::new(vec![
                (
                    Box::new(LocalSwap::new()) as Box<dyn ProposalKernel>,
                    1.0 - ds.deep_weight,
                ),
                (Box::new(deep), ds.deep_weight),
            ]))
        }
    }
}

/// Build per-rank deep-proposal state (when the kernel spec asks for it),
/// consuming setup RNG exactly as the walker-construction path expects.
fn init_deep_state(
    kernel: &KernelSpec,
    comp: &Composition,
    num_shells: usize,
    tel: &Telemetry,
    rng: &mut impl rand::Rng,
) -> Option<DeepState> {
    match kernel {
        KernelSpec::Deep(ds) => {
            let mut deep = DeepProposal::new(comp.num_species(), num_shells, &ds.proposal, rng);
            // Pre-size every inference buffer so the sampling loop never
            // allocates on a proposal.
            deep.warm_up(comp.num_sites());
            deep.set_telemetry(tel.clone());
            let layout = deep.layout();
            let mut trainer = ProposalTrainer::new(layout, ds.trainer.clone());
            trainer.set_telemetry(tel.clone());
            Some(DeepState {
                deep,
                trainer,
                buffer: SampleBuffer::new(ds.buffer_capacity),
                spec: (**ds).clone(),
            })
        }
        _ => None,
    }
}

/// Directed pair probabilities `p_s(a,b)` of a configuration, written
/// shell-major into `out` (`len = num_shells · m²`).
fn fill_pair_probabilities(
    config: &Configuration,
    neighbors: &NeighborTable,
    num_shells: usize,
    m: usize,
    out: &mut [f64],
) {
    for shell in 0..num_shells {
        let counts = ordered_pair_counts(config, neighbors, shell, m);
        let total = neighbors.directed_pair_count(shell) as f64;
        for (o, &c) in out[shell * m * m..(shell + 1) * m * m]
            .iter_mut()
            .zip(&counts)
        {
            *o = c as f64 / total;
        }
    }
}

/// The phases of one rank's life. Each round visits
/// `Checkpoint → Sample → Retrain → Exchange → Rebalance → Converge`;
/// the converge decision loops back or falls through to the terminal
/// `Gather`. `Rebalance` is a strict no-op (no messages, no RNG draws)
/// unless [`RewlConfig::rebalance_every`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EnginePhase {
    /// Cluster snapshot (if due) + fault poll (start of round).
    Checkpoint,
    /// `exchange_every_sweeps` WL sweeps with SRO observation.
    Sample,
    /// Deep-proposal retraining and window-wide weight averaging.
    Retrain,
    /// Replica exchange with the paired rank (if any).
    Exchange,
    /// Dynamic walker reallocation: rank 0 gathers round-trip stats,
    /// plans at most one migration, and broadcasts the plan (rebalance
    /// rounds only).
    Rebalance,
    /// Collective convergence poll on the rounds whose outcome can
    /// change ([`vote_due`]); decides loop-back vs gather.
    Converge,
    /// Terminal: ship (or collect) the gather pieces.
    Gather,
}

/// One rank's REWL run as a state machine over an arbitrary transport.
pub(crate) struct RankEngine<'a, M, T: Transport> {
    comm: Communicator<T>,
    model: &'a M,
    neighbors: &'a NeighborTable,
    comp: &'a Composition,
    layout: &'a WindowLayout,
    cfg: &'a RewlConfig,
    digest: u64,
    /// Ship telemetry snapshots over the wire at gather time (multi-
    /// process backends). The thread driver collects snapshots in memory
    /// instead and keeps this off, so its message schedule is unchanged.
    wire_telemetry: bool,

    rank: usize,
    window: usize,
    m_species: usize,
    num_shells: usize,
    obs_dim: usize,
    global_bins: usize,

    tel: Telemetry,
    deep_state: Option<DeepState>,
    walker: WlWalker,
    sro: MicrocanonicalAccumulator,
    obs_buf: Vec<f64>,
    exchange_attempts: u64,
    exchange_accepted: u64,
    sweeps: u64,
    sweeps_since_check: u64,
    resumed_round: Option<u64>,
    round: u64,
    /// The cluster-wide rank→window assignment. Starts uniform
    /// (`rank / W`) and is mutated in lockstep on every rank by applied
    /// rebalance plans; identical everywhere by construction.
    assignment: Vec<usize>,
    /// Migrations this rank's walker has undergone.
    rebalanced: u64,
    /// Round-trip crossings completed in windows this rank has since
    /// left (banked at migration so cumulative stats survive the reset).
    rt_banked_crossings: u64,
    /// Moves inside those banked crossings.
    rt_banked_moves: u64,
    /// Wall-clock nanoseconds inside banked crossings (telemetry only —
    /// never checkpointed, never planned on).
    rt_banked_ns: u64,
}

impl<'a, M: EnergyModel, T: Transport> RankEngine<'a, M, T> {
    /// Set up this rank's walker (fresh or restored from `resume`),
    /// deep-proposal state, and accumulators. Setup draws from the rank
    /// RNG in a fixed order, so every backend consumes the stream
    /// identically. `resume` has passed `find_resume_point`'s shape checks, so
    /// every restored piece fits this run's layout.
    ///
    /// `wire_telemetry` marks a rank on a transport of its own
    /// ([`crate::run_rewl_on`]), which ships its telemetry over the wire.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        comm: Communicator<T>,
        model: &'a M,
        neighbors: &'a NeighborTable,
        comp: &'a Composition,
        layout: &'a WindowLayout,
        cfg: &'a RewlConfig,
        digest: u64,
        resume: Option<&'a ResumePoint>,
        wire_telemetry: bool,
    ) -> Self {
        let rank = comm.rank();
        let w = cfg.walkers_per_window;
        // Rank→window assignment: uniform on a fresh start, or — when
        // this rank's checkpoint recorded one (rebalancing runs only) —
        // the assignment at the snapshot round, which already folds in
        // every migration applied before the checkpoint.
        let resumed_rc = resume.map(|rp| &rp.ranks[rank]);
        let assignment: Vec<usize> = resumed_rc
            .map(|rc| rc.assignment.clone())
            .filter(|a| !a.is_empty())
            .unwrap_or_else(|| (0..comm.size()).map(|r| r / w).collect());
        let window = assignment[rank];
        let m_species = comp.num_species();
        let num_shells = model.num_shells();
        let obs_dim = num_shells * m_species * m_species;
        let grid = layout.window_grid(window);
        let global_bins = layout.global_grid().num_bins();
        let mut rng = rank_rng(cfg.seed, rank as u64);
        let tel = Telemetry::new(cfg.telemetry);

        let mut deep_state = init_deep_state(&cfg.kernel, comp, num_shells, &tel, &mut rng);

        let walker_seed = cfg.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut sro = MicrocanonicalAccumulator::new(global_bins, obs_dim);
        let mut exchange_attempts = 0u64;
        let mut exchange_accepted = 0u64;
        let mut sweeps = 0u64;
        let mut sweeps_since_check = 0u64;
        let resumed_round = resume.map(|rp| rp.round);
        let (rebalanced, rt_banked_crossings, rt_banked_moves) = resumed_rc
            .map(|rc| (rc.rebalanced, rc.rt_banked_crossings, rc.rt_banked_moves))
            .unwrap_or((0, 0, 0));

        let mut walker = match resumed_rc {
            Some(rc) => {
                // Restore the deep net BEFORE building the kernel so the
                // walker samples with the trained weights. (The deep
                // sample buffer is not persisted; it refills during
                // sampling.)
                if let (Some(ds), Some(params)) = (deep_state.as_mut(), rc.deep_params.as_ref()) {
                    ds.deep.net_mut().set_params(params);
                }
                let kernel = build_kernel(&cfg.kernel, &deep_state);
                let mut walker =
                    WlWalker::from_checkpoint(&rc.walker, cfg.wl.clone(), kernel, walker_seed);
                // Same seed + saved stream position ⇒ the RNG continues
                // bit-exactly where the snapshot left off.
                walker.rng_mut().set_word_pos(rc.rng_word_pos);
                walker.set_stats(rc.stats.clone());
                exchange_attempts = rc.exchange_attempts;
                exchange_accepted = rc.exchange_accepted;
                sweeps = rc.sweeps;
                sweeps_since_check = rc.sweeps_since_check;
                for b in 0..global_bins {
                    sro.record_sum(
                        b,
                        &rc.sro_sums[b * obs_dim..(b + 1) * obs_dim],
                        rc.sro_counts[b],
                    );
                }
                walker
            }
            None => {
                let config = Configuration::random(comp, &mut rng);
                let kernel = build_kernel(&cfg.kernel, &deep_state);
                let mut walker = WlWalker::new(
                    grid,
                    cfg.wl.clone(),
                    config,
                    model,
                    neighbors,
                    kernel,
                    walker_seed,
                );
                assert!(
                    walker.drive_into_window(model, neighbors, 20_000),
                    "rank {rank}: failed to reach window {window} {:?}",
                    layout.bin_range(window)
                );
                walker
            }
        };
        walker.set_telemetry(tel.clone());

        RankEngine {
            comm,
            model,
            neighbors,
            comp,
            layout,
            cfg,
            digest,
            wire_telemetry,
            rank,
            window,
            m_species,
            num_shells,
            obs_dim,
            global_bins,
            tel,
            deep_state,
            walker,
            sro,
            obs_buf: vec![0.0f64; obs_dim],
            exchange_attempts,
            exchange_accepted,
            sweeps,
            sweeps_since_check,
            resumed_round,
            round: resumed_round.unwrap_or(0),
            assignment,
            rebalanced,
            rt_banked_crossings,
            rt_banked_moves,
            rt_banked_ns: 0,
        }
    }

    /// Drive the state machine to completion.
    pub(crate) fn run(mut self) -> RankReturn {
        let mut phase = EnginePhase::Checkpoint;
        loop {
            phase = match phase {
                EnginePhase::Checkpoint => self.phase_checkpoint()?,
                EnginePhase::Sample => self.phase_sample(),
                EnginePhase::Retrain => self.phase_retrain()?,
                EnginePhase::Exchange => self.phase_exchange()?,
                EnginePhase::Rebalance => self.phase_rebalance()?,
                EnginePhase::Converge => self.phase_converge()?,
                EnginePhase::Gather => return self.phase_gather(),
            };
        }
    }

    /// The fail-stop error for a loss of `peer` in this round.
    fn lost(&self, peer: usize) -> RewlError {
        RewlError::PeerLost {
            peer,
            round: self.round,
        }
    }

    /// Judge a protocol receive from `peer`, or the decoding of its
    /// payload: any failure ends this rank's life.
    fn received<V, E>(&self, peer: usize, got: Result<V, E>) -> Result<V, RewlError> {
        got.map_err(|_| self.lost(peer))
    }

    /// Start of round: the periodic cluster snapshot (if due), THEN the
    /// fault poll, so a rank killed at a snapshot round has already
    /// written and confirmed its file and the round still commits.
    /// (Checkpoint writes consume no walker RNG, so snapshots cannot
    /// perturb the stream.)
    fn phase_checkpoint(&mut self) -> Result<EnginePhase, RewlError> {
        let cfg = self.cfg;
        if let Some(spec) = cfg.checkpoint.as_ref() {
            let due = self.round > 0 && self.round % spec.every_rounds == 0;
            if due && Some(self.round) != self.resumed_round {
                let tel = self.tel.clone();
                let _span = tel.span(Phase::Checkpoint);
                self.checkpoint_cluster(spec)?;
            }
        }
        self.comm.poll_faults(self.round);
        Ok(EnginePhase::Sample)
    }

    /// `exchange_every_sweeps` WL sweeps, with flatness checks, SRO
    /// observations, and deep-sample collection on their own cadences.
    fn phase_sample(&mut self) -> EnginePhase {
        let ctx = ProposalContext {
            neighbors: self.neighbors,
            composition: self.comp,
        };
        for _ in 0..self.cfg.exchange_every_sweeps {
            self.walker.sweep(self.model, self.neighbors, &ctx);
            self.sweeps += 1;
            self.sweeps_since_check += 1;
            if self.sweeps_since_check >= self.cfg.wl.sweeps_per_check as u64 {
                self.walker.check_and_advance(self.model, self.neighbors);
                self.sweeps_since_check = 0;
            }
            if self.sweeps % self.cfg.observe_every_sweeps == 0 {
                if let Some(bin) = self.layout.global_grid().bin(self.walker.energy()) {
                    fill_pair_probabilities(
                        self.walker.config(),
                        self.neighbors,
                        self.num_shells,
                        self.m_species,
                        &mut self.obs_buf,
                    );
                    self.sro.record(bin, &self.obs_buf);
                }
            }
            if let Some(ds) = self.deep_state.as_mut() {
                if self.sweeps % ds.spec.sample_every_sweeps == 0 {
                    ds.buffer
                        .push(self.walker.config().clone(), self.walker.energy());
                }
            }
        }
        EnginePhase::Retrain
    }

    /// Deep retraining plus window-wide weight averaging (simulated
    /// allreduce, see [`Self::average_weights`]).
    fn phase_retrain(&mut self) -> Result<EnginePhase, RewlError> {
        let mut kernel_dirty = self
            .deep_state
            .as_mut()
            .is_some_and(|ds| ds.retrain(self.sweeps, self.neighbors, self.walker.rng_mut()));
        let params = self
            .deep_state
            .as_ref()
            .map(|ds| ds.deep.net().flatten_params());
        let peers = self.window_peers();
        if let Some(params) = params.filter(|_| peers.len() > 1) {
            let averaged = {
                let _span = self.tel.span(Phase::Allreduce);
                self.average_weights(&peers, params)?
            };
            if let Some(ds) = self.deep_state.as_mut() {
                ds.deep.net_mut().set_params(&averaged);
            }
            kernel_dirty = true;
        }
        if kernel_dirty {
            self.walker
                .set_kernel(build_kernel(&self.cfg.kernel, &self.deep_state));
        }
        Ok(EnginePhase::Exchange)
    }

    /// Average deep-proposal weights over this window's `peers` (ascending
    /// rank order; the leader is the lowest rank — under the uniform
    /// assignment exactly the classic `window·W` block, and after a
    /// rebalance it follows the walkers to their new windows). Returns the
    /// averaged weights every member adopts.
    fn average_weights(&self, peers: &[usize], params: Vec<f64>) -> Result<Vec<f64>, RewlError> {
        let up = tags::with_round(tags::SYNC_PARAMS, self.round);
        let down = tags::with_round(tags::SYNC_PARAMS_BACK, self.round);
        // A weight vector of exactly this rank's length, or nothing.
        let len = params.len();
        let decode = |bytes: &[u8]| {
            wire::decode_f64s(bytes)
                .ok()
                .filter(|v| v.len() == len)
                .ok_or(())
        };
        let leader = peers[0];
        if self.rank != leader {
            self.comm.send(leader, up, wire::encode_f64s(&params));
            let bytes = self.received(leader, recv_resilient(&self.comm, leader, down))?;
            return self.received(leader, decode(&bytes));
        }
        let mut acc = params;
        for &other in &peers[1..] {
            let bytes = self.received(other, recv_resilient(&self.comm, other, up))?;
            let theirs = self.received(other, decode(&bytes))?;
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        let contributors = peers.len() as f64;
        for a in &mut acc {
            *a /= contributors;
        }
        let payload = wire::encode_f64s(&acc);
        for &other in &peers[1..] {
            self.comm.send(other, down, payload.clone());
        }
        Ok(acc)
    }

    /// Replica exchange with this round's paired rank, if the pairing
    /// function names one. A partner lost before or during the handshake
    /// surfaces as a bounded comm error, which ends this rank.
    fn phase_exchange(&mut self) -> Result<EnginePhase, RewlError> {
        // Without rebalancing the assignment stays the uniform `rank / W`
        // it started as, for which this is the classic slot rotation.
        let (peer, initiates) = match exchange_role(
            self.rank,
            self.round,
            &self.assignment,
            self.cfg.num_windows,
        ) {
            ExchangeRole::Initiator { partner } => (partner, true),
            ExchangeRole::Responder { initiator } => (initiator, false),
            ExchangeRole::Idle => return Ok(EnginePhase::Rebalance),
        };
        let _span = self.tel.span(Phase::Exchange);
        let (comm, walker, round, m) = (&self.comm, &mut self.walker, self.round, self.m_species);
        let swapped = if initiates {
            self.exchange_attempts += 1;
            exchange::exchange_as_initiator(comm, walker, peer, round, m)
        } else {
            exchange::exchange_as_responder(comm, walker, peer, round, m)
        };
        // Only the initiator counts accepted swaps.
        if self.received(peer, swapped)? && initiates {
            self.exchange_accepted += 1;
        }
        Ok(EnginePhase::Rebalance)
    }

    /// Ranks currently assigned to this rank's window, ascending.
    fn window_peers(&self) -> Vec<usize> {
        (0..self.comm.size())
            .filter(|&r| self.assignment[r] == self.window)
            .collect()
    }

    /// Dynamic walker reallocation. On rebalance rounds every rank ships
    /// its walker's round-trip sample (move counts only — deterministic)
    /// to rank 0, which plans at most one fast→slow migration and
    /// broadcasts it; every rank applies the plan in lockstep so the
    /// shared assignment never diverges. When `rebalance_every` is 0 the
    /// phase is a strict no-op: no messages, no RNG draws — the protocol
    /// (and every golden fingerprint) is bit-identical to a build without
    /// this phase.
    fn phase_rebalance(&mut self) -> Result<EnginePhase, RewlError> {
        if !rebalance_due(self.cfg, self.round) {
            return Ok(EnginePhase::Converge);
        }
        let rt = self.walker.round_trip_stats();
        let sample = [rt.crossings, rt.crossing_moves, rt.pending_moves];
        let plan = if self.rank == 0 {
            let mut samples = Vec::with_capacity(self.comm.size());
            samples.push(RtSample {
                crossings: sample[0],
                crossing_moves: sample[1],
                pending_moves: sample[2],
            });
            // One shared deadline bounds the whole collection.
            let deadline = Instant::now() + COLLECT_DEADLINE;
            let tag = tags::with_round(tags::RT_STATS, self.round);
            for other in 1..self.comm.size() {
                let bytes = self.received(other, recv_until(&self.comm, other, tag, deadline))?;
                let vals = self.received(other, wire::decode_u64s(&bytes))?;
                let &[crossings, crossing_moves, pending_moves] = vals.as_slice() else {
                    return Err(self.lost(other));
                };
                samples.push(RtSample {
                    crossings,
                    crossing_moves,
                    pending_moves,
                });
            }
            let plan = rebalance::plan_rebalance(&self.assignment, self.cfg.num_windows, &samples);
            let payload = wire::encode_u64s(&rebalance::encode_plan(plan));
            for other in 1..self.comm.size() {
                self.comm.send(
                    other,
                    tags::with_round(tags::REBALANCE_PLAN, self.round),
                    payload.clone(),
                );
            }
            plan
        } else {
            let stats_tag = tags::with_round(tags::RT_STATS, self.round);
            self.comm.send(0, stats_tag, wire::encode_u64s(&sample));
            let plan_tag = tags::with_round(tags::REBALANCE_PLAN, self.round);
            let bytes = self.received(0, recv_resilient(&self.comm, 0, plan_tag))?;
            let words = self.received(0, wire::decode_u64s(&bytes))?;
            // `[]` is the no-op plan; any other payload must decode.
            if words.is_empty() {
                None
            } else {
                let plan = rebalance::decode_plan(&words, self.comm.size(), self.cfg.num_windows);
                Some(self.received(0, plan.ok_or(()))?)
            }
        };
        if let Some(m) = plan {
            self.apply_rebalance(m)?;
        }
        Ok(EnginePhase::Converge)
    }

    /// Apply one broadcast migration on every rank in lockstep: the
    /// donor ships its full WL state to the migrant, the migrant adopts
    /// it (keeping its OWN RNG stream and move counters), and everyone
    /// updates the shared assignment.
    fn apply_rebalance(&mut self, m: Migration) -> Result<(), RewlError> {
        let tag = tags::with_round(tags::REBALANCE_STATE, self.round);
        if self.rank == m.donor {
            self.comm.send(
                m.migrant,
                tag,
                wire::encode_walker(&self.walker.checkpoint()),
            );
        }
        if self.rank == m.migrant {
            let bytes = self.received(m.donor, recv_resilient(&self.comm, m.donor, tag))?;
            // The donor's state must sit on the target window's grid.
            let grid = self.layout.window_grid(m.to_window);
            let cp = wire::decode_walker(&bytes)
                .ok()
                .filter(|cp| on_grid(cp, &grid));
            let cp = self.received(m.donor, cp.ok_or(()))?;
            self.adopt_window(cp);
        }
        self.assignment[m.migrant] = m.to_window;
        if self.rank == m.migrant {
            self.window = m.to_window;
        }
        Ok(())
    }

    /// Adopt a donor's WL state on the target window. The migrant keeps
    /// its own identity: RNG seed and stream position, cumulative move
    /// count, and proposal statistics stay local — only the WL estimator
    /// state (configuration, energy, `ln g`, histogram, `ln f` schedule)
    /// is copied. Round-trip counters reset; the old window's totals are
    /// banked for cumulative telemetry.
    fn adopt_window(&mut self, mut cp: WalkerCheckpoint) {
        let old_rt = self.walker.round_trip_stats();
        self.rt_banked_crossings += old_rt.crossings;
        self.rt_banked_moves += old_rt.crossing_moves;
        self.rt_banked_ns += old_rt.crossing_ns;
        let word_pos = self.walker.rng_mut().get_word_pos();
        let stats = self.walker.stats().clone();
        cp.total_moves = self.walker.total_moves();
        cp.rt_last_boundary = 0;
        cp.rt_crossings = 0;
        cp.rt_crossing_moves = 0;
        cp.rt_leg_start_moves = cp.total_moves;
        let walker_seed = self.cfg.seed ^ (self.rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let kernel = build_kernel(&self.cfg.kernel, &self.deep_state);
        let mut walker = WlWalker::from_checkpoint(&cp, self.cfg.wl.clone(), kernel, walker_seed);
        walker.rng_mut().set_word_pos(word_pos);
        walker.set_stats(stats);
        walker.set_telemetry(self.tel.clone());
        self.walker = walker;
        self.rebalanced += 1;
    }

    /// Collective convergence poll. Every rank of one allreduce
    /// generation sees identical sums, so the stop decision is collective
    /// and no rank can exit the round loop while a peer keeps waiting
    /// for it: `[Σ converged, Σ 1 (= contributors), Σ hit-sweep-cap]`.
    /// The vote is taken only on rounds whose outcome can change
    /// ([`vote_due`]); every other round continues, which is what the
    /// last vote decided. A lost rank is therefore noticed at the next
    /// vote or at a failed receive; a vote short of any rank ends every
    /// rank's life.
    fn phase_converge(&mut self) -> Result<EnginePhase, RewlError> {
        let first_round = self.resumed_round.unwrap_or(0);
        if !vote_due(self.cfg, first_round, self.round) {
            self.round += 1;
            return Ok(EnginePhase::Checkpoint);
        }
        let mut flags = [
            f64::from(u8::from(self.walker.ln_f() <= self.cfg.wl.ln_f_final)),
            1.0,
            f64::from(u8::from(self.sweeps >= self.cfg.max_sweeps)),
        ];
        let reduced = {
            let _span = self.tel.span(Phase::Allreduce);
            self.comm.allreduce_sum(&mut flags)
        };
        self.received(0, reduced)?;
        let size = self.comm.size();
        if (flags[1].round() as usize) < size {
            // Only rank 0 knows whom it counted missing; name the first
            // rank this one sees dead.
            let peer = (0..size).find(|&r| !self.comm.is_alive(r));
            return Err(self.lost(peer.unwrap_or(0)));
        }
        self.round += 1;
        if flags[0].round() as usize >= size || flags[2] > 0.5 {
            Ok(EnginePhase::Gather)
        } else {
            Ok(EnginePhase::Checkpoint)
        }
    }

    /// Terminal phase: non-root ranks ship their piece to rank 0; rank 0
    /// collects every rank, merges, and assembles the output.
    fn phase_gather(mut self) -> RankReturn {
        let piece = GatherPiece {
            state: self.rank_checkpoint(),
            reserved: [0; 3],
        };
        let wire_tel = self.wire_telemetry && self.tel.is_enabled();
        if self.rank != 0 {
            {
                let _span = self.tel.span(Phase::Gather);
                self.comm
                    .send(0, tags::GATHER_PIECE, wire::encode_piece(&piece));
            }
            let snap = self.snapshot();
            if wire_tel {
                if let Some(snap) = snap.as_ref() {
                    self.comm
                        .send(0, tags::GATHER_TELEMETRY, wire::encode_telemetry(snap));
                }
            }
            return Ok((None, snap));
        }

        // Rank 0: collect every other rank. (Its own accumulator seeds the
        // merge directly, so the totals its piece carries go unused.)
        let mut pieces = Vec::with_capacity(self.comm.size());
        pieces.push(piece);
        let mut merged_sro = std::mem::replace(&mut self.sro, MicrocanonicalAccumulator::new(1, 1));
        // ONE deadline bounds the whole collection: every peer is at (or
        // past) the gather already, so their payloads race each other,
        // not the clock.
        let deadline = Instant::now() + COLLECT_DEADLINE;
        {
            let _span = self.tel.span(Phase::Gather);
            for other in 1..self.comm.size() {
                let grid = self.layout.window_grid(self.assignment[other]);
                let got = gather::recv_rank_piece(
                    &self.comm,
                    other,
                    &grid,
                    self.global_bins,
                    self.obs_dim,
                    deadline,
                );
                let (piece, acc) = self.received(other, got.ok_or(()))?;
                merged_sro.merge(&acc);
                pieces.push(piece);
            }
        }
        let rank_tel = self.snapshot();
        // Multi-process backends gather telemetry over the wire (the
        // thread driver collects the in-memory snapshots instead).
        let mut telemetry = Vec::new();
        if wire_tel {
            telemetry.extend(rank_tel.clone());
            for other in 1..self.comm.size() {
                let got = recv_until(&self.comm, other, tags::GATHER_TELEMETRY, deadline);
                let bytes = self.received(other, got)?;
                telemetry.push(self.received(other, wire::decode_telemetry(&bytes))?);
            }
        }
        let out = gather::assemble_output(
            self.layout,
            self.cfg,
            &self.assignment,
            &pieces,
            merged_sro,
            self.sweeps,
            self.resumed_round,
            telemetry,
        );
        Ok((Some(out), rank_tel))
    }

    /// Snapshot this rank's telemetry, folding in the sampler's acceptance
    /// statistics, exchange and round-trip counters, and the transport's
    /// message-traffic counters. Returns `None` when disabled.
    fn snapshot(&self) -> Option<RankTelemetry> {
        if !self.tel.is_enabled() {
            return None;
        }
        self.tel.set_gauge("ln_f", self.walker.ln_f());
        let mut snap = self.tel.snapshot(self.rank);
        for (name, proposed, accepted) in self.walker.stats().iter() {
            snap.counters.push((format!("proposed_{name}"), proposed));
            snap.counters.push((format!("accepted_{name}"), accepted));
        }
        let rt = self.walker.round_trip_stats();
        let t = self.comm.traffic();
        snap.counters.extend(
            [
                ("exchange_attempts", self.exchange_attempts),
                ("exchange_accepted", self.exchange_accepted),
                ("sweeps", self.sweeps),
                (
                    adaptive_counters::ROUND_TRIPS_TOTAL,
                    (self.rt_banked_crossings + rt.crossings) / 2,
                ),
                (
                    adaptive_counters::ROUND_TRIP_NS,
                    self.rt_banked_ns + rt.crossing_ns,
                ),
                (adaptive_counters::WALKERS_REBALANCED_TOTAL, self.rebalanced),
                ("comm_sends", t.sends),
                ("comm_send_bytes", t.send_bytes),
                ("comm_recvs", t.recvs),
                ("comm_recv_bytes", t.recv_bytes),
                ("comm_timeouts", t.timeouts),
                ("comm_dead_peer_errors", t.dead_peer_errors),
                ("comm_dropped_sends", t.dropped_sends),
                ("comm_delayed_sends", t.delayed_sends),
            ]
            .map(|(name, v)| (name.to_string(), v)),
        );
        snap.counters.sort();
        Some(snap)
    }

    /// This rank's state as a checkpoint — what a cluster snapshot
    /// persists, and what the final gather ships to rank 0.
    fn rank_checkpoint(&mut self) -> RankCheckpoint {
        let (sro_sums, sro_counts) = accumulator_totals(&self.sro, self.obs_dim);
        RankCheckpoint {
            exchange_attempts: self.exchange_attempts,
            exchange_accepted: self.exchange_accepted,
            sweeps: self.sweeps,
            sweeps_since_check: self.sweeps_since_check,
            rng_word_pos: self.walker.rng_mut().get_word_pos(),
            coll_gens: self.comm.collective_generations(),
            rebalanced: self.rebalanced,
            rt_banked_crossings: self.rt_banked_crossings,
            rt_banked_moves: self.rt_banked_moves,
            // Rebalance state is persisted only on rebalancing runs so
            // non-adaptive checkpoint files stay byte-identical.
            assignment: if self.cfg.rebalance_every > 0 {
                self.assignment.clone()
            } else {
                Vec::new()
            },
            deep_params: self
                .deep_state
                .as_ref()
                .map(|ds| ds.deep.net().flatten_params()),
            stats: self.walker.stats().clone(),
            obs_dim: self.obs_dim,
            sro_sums,
            sro_counts,
            walker: self.walker.checkpoint(),
        }
    }

    /// One cluster snapshot: every rank persists its state, then rank 0
    /// commits the round by writing the manifest listing who made it. The
    /// data-then-commit order means a crash anywhere in here leaves
    /// either a complete committed snapshot or garbage no reader will
    /// trust. Only a round every rank wrote commits.
    fn checkpoint_cluster(&mut self, spec: &CheckpointSpec) -> Result<(), RewlError> {
        let round = self.round;
        let rc = self.rank_checkpoint();
        let wrote = match rc.write(&spec.dir, round, self.rank) {
            Ok(()) => true,
            Err(e) => {
                eprintln!(
                    "rewl: rank {}: checkpoint write at round {round} failed: {e}",
                    self.rank
                );
                false
            }
        };
        if self.rank != 0 {
            self.comm.send(
                0,
                tags::with_round(tags::CKPT_META, round),
                vec![u8::from(wrote)],
            );
            return Ok(());
        }
        // Rank 0 commits: collect confirmations (one shared deadline for
        // the whole commit round), then write the manifest.
        let mut complete = wrote;
        let deadline = Instant::now() + COLLECT_DEADLINE;
        let tag = tags::with_round(tags::CKPT_META, round);
        for other in 1..self.comm.size() {
            let meta = self.received(other, recv_until(&self.comm, other, tag, deadline))?;
            complete &= meta.first() == Some(&1);
        }
        if !complete {
            // A rank failed to write: leave the round uncommitted.
            return Ok(());
        }
        let manifest = RunManifest {
            round,
            ranks: self.comm.size(),
            digest: self.digest,
            alive: vec![true; self.comm.size()],
            faults: self.comm.fault_plan().clone(),
            assignment: rc.assignment,
        };
        if let Err(e) = manifest.write(&spec.dir) {
            eprintln!("rewl: manifest write at round {round} failed: {e}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `phase_sample`'s check cadence round by round over one
    /// life and compares the rounds where a vote input moves with
    /// [`vote_due`]: every such round votes, and no other round does.
    #[test]
    fn votes_fall_on_every_round_whose_outcome_can_change() {
        let mut skipped = 0u64;
        for every in 1..=25u64 {
            for check in 1..=25u64 {
                for rebalance_every in [0, 3, 7] {
                    for max_sweeps in [1, 37, 100, 250] {
                        let mut cfg = RewlConfig {
                            exchange_every_sweeps: every,
                            max_sweeps,
                            rebalance_every,
                            ..RewlConfig::default()
                        };
                        cfg.wl.sweeps_per_check = check as usize;
                        for first_round in [0u64, 5, 13] {
                            // A resumed life restores the counters its
                            // snapshot took at `first_round`.
                            let mut sweeps = first_round * every;
                            let mut since_check = sweeps % check;
                            for round in first_round.. {
                                let mut checked = false;
                                for _ in 0..every {
                                    sweeps += 1;
                                    since_check += 1;
                                    if since_check >= check {
                                        checked = true;
                                        since_check = 0;
                                    }
                                }
                                let capped = sweeps >= max_sweeps;
                                let moved = round == first_round
                                    || checked
                                    || rebalance_due(&cfg, round)
                                    || capped;
                                assert_eq!(
                                    vote_due(&cfg, first_round, round),
                                    moved,
                                    "E={every} C={check} rebalance={rebalance_every} \
                                     max={max_sweeps} first={first_round} round={round}"
                                );
                                skipped += u64::from(!moved);
                                if capped {
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(skipped > 0, "some rounds must skip the vote");
    }

    /// A life resumed at round 12, one sweep per round, a check every
    /// 10: the first round votes, then only the rounds ending a check.
    #[test]
    fn a_resumed_life_votes_first_then_on_check_rounds() {
        let mut cfg = RewlConfig {
            exchange_every_sweeps: 1,
            ..RewlConfig::default()
        };
        cfg.wl.sweeps_per_check = 10;
        let votes: Vec<u64> = (12..40).filter(|&r| vote_due(&cfg, 12, r)).collect();
        assert_eq!(votes, vec![12, 19, 29, 39]);
    }
}
