//! An MPI-flavored communicator with fault awareness, generic over the
//! message-passing backend.
//!
//! Semantics mirror the subset of MPI the paper's REWL implementation
//! needs: tagged point-to-point messages, a barrier and a sum-allreduce.
//! The bytes move through a pluggable [`Transport`] — in-memory mailboxes
//! shared between threads ([`crate::ThreadTransport`]) or real loopback
//! sockets ([`crate::TcpTransport`]) — while everything here is written
//! once for both:
//!
//! - the collectives are point-to-point messages on reserved tags with
//!   rank 0 coordinating ([`Communicator::allreduce_sum`]), so every
//!   backend sums in the same (rank) order and fails the same way;
//! - a [`crate::FaultPlan`] can drop or delay specific messages and crash
//!   ranks at chosen rounds, deterministically;
//! - every receive is deadline-bounded ([`Communicator::recv_timeout`]),
//!   returning [`CommError`] instead of hanging;
//! - per-rank traffic counters ([`Communicator::traffic`]) feed the
//!   telemetry snapshots.
//!
//! Failure is fail-stop, and it is decided here, once for every caller. A
//! rank's departure (a return or a panic under
//! [`crate::ThreadCluster::run_with_faults`], or a closed connection on
//! the TCP backend) is recorded in its peers' mailboxes, so a receive
//! from the departed rank fails fast with [`CommError::RankDead`]. A
//! collective never completes without one of its contributors: it
//! returns the [`CommError`] naming the rank it lost, and a contribution
//! of the wrong shape is [`CommError::Malformed`], never a panic.
//!
//! There is deliberately no infallible `recv` wrapper: a dead peer must
//! surface as a [`CommError`] at the call site, never as a panic deep in
//! the backend.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dt_codec::bin::{Reader, Writer};

use crate::fault::{FaultPlan, FaultRuntime, SendFate};
use crate::thread_fabric::ThreadTransport;
use crate::transport::Transport;

/// Why a communication call could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The deadline elapsed before a matching message arrived.
    Timeout {
        /// Rank the receive was posted against.
        from: usize,
        /// Message tag the receive was posted against.
        tag: u64,
    },
    /// The peer rank is dead and no matching message remains in flight.
    RankDead(usize),
    /// A collective frame arrived that does not have the shape the call
    /// expects: the contributor and this rank have diverged.
    Malformed {
        /// Rank the frame came from.
        from: usize,
        /// Collective tag the frame arrived on.
        tag: u64,
    },
}

impl CommError {
    /// The rank this error names: the one waited for, the dead one, or
    /// the sender of the malformed frame.
    pub fn peer(&self) -> usize {
        match *self {
            CommError::Timeout { from, .. } | CommError::Malformed { from, .. } => from,
            CommError::RankDead(rank) => rank,
        }
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { from, tag } => {
                write!(f, "timed out waiting for tag {tag} from rank {from}")
            }
            CommError::RankDead(rank) => write!(f, "rank {rank} is dead"),
            CommError::Malformed { from, tag } => {
                write!(
                    f,
                    "malformed collective frame on tag {tag} from rank {from}"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Payload carried by kill faults; recognized by the panic handler so an
/// injected crash reports cleanly.
#[derive(Debug, Clone)]
pub struct SimulatedCrash {
    /// Rank that was crashed.
    pub rank: usize,
    /// Round at which the kill fired.
    pub round: u64,
}

/// Per-rank message-traffic counters, accumulated lock-free as the rank
/// communicates.
#[derive(Debug, Default)]
struct TrafficCounters {
    sends: AtomicU64,
    send_bytes: AtomicU64,
    recvs: AtomicU64,
    recv_bytes: AtomicU64,
    timeouts: AtomicU64,
    dead_peer_errors: AtomicU64,
    dropped_sends: AtomicU64,
    delayed_sends: AtomicU64,
}

/// A point-in-time copy of one rank's traffic counters
/// ([`Communicator::traffic`]). Feeds the per-rank telemetry snapshot in
/// the REWL driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Messages this rank sent (including delayed, excluding dropped).
    pub sends: u64,
    /// Payload bytes across all sends that entered the fabric.
    pub send_bytes: u64,
    /// Messages this rank successfully received.
    pub recvs: u64,
    /// Payload bytes across all successful receives.
    pub recv_bytes: u64,
    /// Receives that failed with [`CommError::Timeout`].
    pub timeouts: u64,
    /// Receives that failed with [`CommError::RankDead`].
    pub dead_peer_errors: u64,
    /// Sends eaten by the fault plan.
    pub dropped_sends: u64,
    /// Sends the fault plan put in flight with a delay.
    pub delayed_sends: u64,
}

/// Upper bound on every blocking collective wait, so that no wait — even
/// one reached through an unexpected interleaving — is unbounded. Generous
/// enough that it only trips on a contributor that is alive but stuck; it
/// then fails the call with [`CommError::Timeout`].
const WATCHDOG: Duration = Duration::from_secs(300);

/// Collective tags live above bit 63; driver tags (`with_round`
/// included) stay below it.
const COLL_BIT: u64 = 1 << 63;
const K_BARRIER_ARRIVE: u64 = 1;
const K_BARRIER_RELEASE: u64 = 2;
const K_REDUCE_CONTRIB: u64 = 3;
const K_REDUCE_RESULT: u64 = 4;

fn coll_tag(kind: u64, generation: u64) -> u64 {
    debug_assert!(generation < 1 << 56, "collective generation overflow");
    COLL_BIT | (kind << 56) | generation
}

/// A rank's handle to the cluster.
///
/// Mirrors an MPI communicator: owned per rank, `Send` so it can move
/// into the rank's thread (or live in the rank's process on the TCP
/// backend). Generic over the [`Transport`] moving the bytes; the
/// collectives, fault injection and traffic accounting live here, above
/// the backend.
pub struct Communicator<T: Transport = ThreadTransport> {
    transport: T,
    faults: FaultRuntime,
    traffic: TrafficCounters,
    /// Calls made so far of `[barrier, allreduce_sum]`; the third slot is
    /// reserved (it numbered broadcasts, and `dtrewlrank` checkpoints
    /// still carry it). Each call tags its frames with its generation, so
    /// rounds never collide.
    coll_gens: [AtomicU64; 3],
}

impl<T: Transport> Communicator<T> {
    /// Wrap a transport with a fault plan. Drop/delay events match on the
    /// *sending* rank, so per-rank runtimes (one per communicator) count
    /// exactly the same matches a cluster-wide runtime would.
    pub fn new(transport: T, plan: FaultPlan) -> Self {
        Communicator {
            transport,
            faults: FaultRuntime::new(plan),
            traffic: TrafficCounters::default(),
            coll_gens: Default::default(),
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of ranks in the cluster (including dead ones).
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The fault plan this communicator was built with. Drivers record it
    /// into checkpoint snapshots so a resume can verify the same failure
    /// schedule is being replayed.
    pub fn fault_plan(&self) -> &FaultPlan {
        self.faults.plan()
    }

    /// This rank's collective generation counters `[barrier, reduce,
    /// reserved]`. A rank checkpoint records them.
    pub fn collective_generations(&self) -> [u64; 3] {
        self.coll_gens.each_ref().map(|g| g.load(Ordering::SeqCst))
    }

    /// A point-in-time copy of this rank's message-traffic counters.
    pub fn traffic(&self) -> TrafficSnapshot {
        let c = &self.traffic;
        TrafficSnapshot {
            sends: c.sends.load(Ordering::Relaxed),
            send_bytes: c.send_bytes.load(Ordering::Relaxed),
            recvs: c.recvs.load(Ordering::Relaxed),
            recv_bytes: c.recv_bytes.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            dead_peer_errors: c.dead_peer_errors.load(Ordering::Relaxed),
            dropped_sends: c.dropped_sends.load(Ordering::Relaxed),
            delayed_sends: c.delayed_sends.load(Ordering::Relaxed),
        }
    }

    /// Crash this rank (panic with a [`SimulatedCrash`] payload) if the
    /// fault plan schedules a kill at or before `round`. Rank programs
    /// call this once per round; the cluster harness
    /// ([`crate::ThreadCluster::run_with_faults`], or the worker process
    /// boundary on the TCP backend) converts the unwind into a dead-rank
    /// outcome.
    pub fn poll_faults(&self, round: u64) {
        self.faults.set_round(round);
        if let Some(kill_round) = self.faults.plan().kill_due(self.rank(), round) {
            std::panic::panic_any(SimulatedCrash {
                rank: self.rank(),
                round: kill_round,
            });
        }
    }

    /// Send `data` to rank `to` with a message `tag` (non-blocking,
    /// buffered — like `MPI_Send` with an eager protocol). Sends to dead
    /// ranks are silently discarded, as are messages the fault plan
    /// drops; delayed messages become receivable only after their delay.
    pub fn send(&self, to: usize, tag: u64, data: Vec<u8>) {
        let delay = match self.faults.on_send(self.rank(), to, tag) {
            SendFate::Drop => {
                self.traffic.dropped_sends.fetch_add(1, Ordering::Relaxed);
                return;
            }
            SendFate::Deliver => None,
            SendFate::Delay(d) => {
                self.traffic.delayed_sends.fetch_add(1, Ordering::Relaxed);
                Some(d)
            }
        };
        self.traffic.sends.fetch_add(1, Ordering::Relaxed);
        self.traffic
            .send_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.transport.send(to, tag, data, delay);
    }

    /// Blocking receive with a deadline. Already-buffered messages from a
    /// dead sender are still delivered first.
    ///
    /// # Errors
    /// [`CommError::Timeout`] when `timeout` elapses,
    /// [`CommError::RankDead`] as soon as `from` is known dead with no
    /// matching message in flight.
    pub fn recv_timeout(
        &self,
        from: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<u8>, CommError> {
        match self.transport.recv_timeout(from, tag, timeout) {
            Ok(payload) => {
                self.count_recv(payload.len());
                Ok(payload)
            }
            Err(e) => Err(self.count_recv_error(e)),
        }
    }

    /// Block until every rank has entered the barrier. SPMD, like
    /// [`Self::allreduce_sum`], of which it is the zero-element case on
    /// tags and a generation counter of its own.
    ///
    /// # Errors
    /// Those of [`Self::allreduce_sum`].
    pub fn barrier(&self) -> Result<(), CommError> {
        self.reduce(0, [K_BARRIER_ARRIVE, K_BARRIER_RELEASE], &mut [])
    }

    /// Element-wise sum allreduce: after the call every rank's `data`
    /// holds the sum over all ranks' contributions, added in rank order —
    /// bit-identical on every rank and every backend. SPMD: every rank
    /// must make the same collective calls in the same order, with equal
    /// lengths.
    ///
    /// Rank 0 coordinates. The frames travel on reserved tags straight
    /// through the transport: the fault plan and the traffic counters see
    /// driver messages only.
    ///
    /// # Errors
    /// Fail-stop: the call completes over every rank or not at all, and
    /// `data` is left untouched when it fails. Rank 0's call fails with
    /// the first contributor it cannot use — [`CommError::RankDead`]`(r)`,
    /// [`CommError::Timeout`] after the 300 s watchdog, or
    /// [`CommError::Malformed`] for a frame of the wrong length — and
    /// sends no result. Any other rank's call fails with
    /// [`CommError::RankDead`]`(0)` once the coordinator has stopped (the
    /// way a caller answers rank 0's error), or with the coordinator's
    /// [`CommError::Timeout`] / [`CommError::Malformed`].
    pub fn allreduce_sum(&self, data: &mut [f64]) -> Result<(), CommError> {
        self.reduce(1, [K_REDUCE_CONTRIB, K_REDUCE_RESULT], data)
    }

    fn reduce(&self, slot: usize, [up, down]: [u64; 2], data: &mut [f64]) -> Result<(), CommError> {
        let generation = self.coll_gens[slot].fetch_add(1, Ordering::SeqCst);
        let (up, down) = (coll_tag(up, generation), coll_tag(down, generation));
        let (t, len) = (&self.transport, data.len());
        let receive = |from: usize, tag: u64| {
            let bytes = t.recv_timeout(from, tag, WATCHDOG)?;
            Reader::new(&bytes)
                .rest_f64s()
                .ok()
                .filter(|v| v.len() == len)
                .ok_or(CommError::Malformed { from, tag })
        };
        if t.rank() != 0 {
            t.send(0, up, Writer::new().f64s(data).finish(), None);
            let sum = receive(0, down)?;
            data.copy_from_slice(&sum);
            return Ok(());
        }
        let mut sum = data.to_vec();
        for r in 1..t.size() {
            let theirs = receive(r, up)?;
            sum.iter_mut().zip(theirs).for_each(|(a, x)| *a += x);
        }
        let bytes = Writer::new().f64s(&sum).finish();
        for r in 1..t.size() {
            t.send(r, down, bytes.clone(), None);
        }
        data.copy_from_slice(&sum);
        Ok(())
    }

    fn count_recv(&self, bytes: usize) {
        self.traffic.recvs.fetch_add(1, Ordering::Relaxed);
        self.traffic
            .recv_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn count_recv_error(&self, e: CommError) -> CommError {
        match e {
            CommError::Timeout { .. } => {
                self.traffic.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            CommError::RankDead(_) => {
                self.traffic
                    .dead_peer_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
            // Only the collectives decode frames, and they count nothing.
            CommError::Malformed { .. } => {}
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::{RankOutcome, TcpCluster, ThreadCluster};
    use std::time::Instant;

    /// Receive deadline for test paths where the message is known to be
    /// on its way.
    const PATIENCE: Duration = Duration::from_secs(30);

    #[test]
    fn ping_pong_round_trip() {
        let results = ThreadCluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1, 2, 3]);
                comm.recv_timeout(1, 8, PATIENCE).unwrap()
            } else {
                let got = comm.recv_timeout(0, 7, PATIENCE).unwrap();
                comm.send(0, 8, got.iter().map(|b| b * 2).collect());
                vec![]
            }
        });
        assert_eq!(results[0], vec![2, 4, 6]);
    }

    #[test]
    fn tagged_messages_do_not_cross() {
        let results = ThreadCluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![11]);
                comm.send(1, 2, vec![22]);
                vec![]
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv_timeout(0, 2, PATIENCE).unwrap();
                let a = comm.recv_timeout(0, 1, PATIENCE).unwrap();
                vec![a[0], b[0]]
            }
        });
        assert_eq!(results[1], vec![11, 22]);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let size = 5;
        let results = ThreadCluster::run(size, |comm| {
            let mut v = vec![comm.rank() as f64, 1.0];
            comm.allreduce_sum(&mut v).unwrap();
            v
        });
        let expected = vec![(0..5).sum::<usize>() as f64, 5.0];
        for r in results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn repeated_allreduce_rounds_are_isolated() {
        let results = ThreadCluster::run(3, |comm| {
            let mut out = Vec::new();
            for round in 0..4u64 {
                let mut v = vec![(comm.rank() as u64 + round) as f64];
                comm.allreduce_sum(&mut v).unwrap();
                out.push(v[0]);
            }
            out
        });
        for r in results {
            assert_eq!(r, vec![3.0, 6.0, 9.0, 12.0]);
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        let results = ThreadCluster::run(8, |comm| {
            phase1.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // After the barrier every rank must observe all 8 arrivals.
            phase1.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&c| c == 8));
    }

    #[test]
    fn many_rounds_of_mixed_collectives() {
        let results = ThreadCluster::run(4, |comm| {
            let mut acc = 0.0;
            for _ in 0..10 {
                comm.barrier().unwrap();
                let mut v = vec![1.0];
                comm.allreduce_sum(&mut v).unwrap();
                acc += v[0];
            }
            acc
        });
        for r in results {
            assert_eq!(r, 40.0);
        }
    }

    #[test]
    fn recv_timeout_expires_on_silence() {
        let results = ThreadCluster::run(2, |comm| {
            let got = if comm.rank() == 0 {
                comm.recv_timeout(1, 3, Duration::from_millis(50))
            } else {
                Ok(vec![]) // rank 1 stays silent but alive
            };
            // Rank 1 stays in the cluster until rank 0's wait is over.
            comm.barrier().unwrap();
            got
        });
        assert_eq!(
            results[0],
            Err(CommError::Timeout { from: 1, tag: 3 }),
            "silent peer must surface a timeout, not hang"
        );
    }

    #[test]
    fn dropped_message_surfaces_timeout_not_hang() {
        let plan = FaultPlan::none().drop_message(1, 0, 0);
        let started = Instant::now();
        let outcomes = ThreadCluster::run_with_faults(2, plan, |comm| {
            let got = if comm.rank() == 0 {
                comm.recv_timeout(1, 9, Duration::from_millis(100))
            } else {
                comm.send(0, 9, vec![1]); // eaten by the plan
                Ok(vec![])
            };
            // Rank 1 stays in the cluster until rank 0's wait is over.
            comm.barrier().unwrap();
            got
        });
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "watchdog: dropped message stalled the cluster"
        );
        let r0 = match &outcomes[0] {
            RankOutcome::Completed(r) => r,
            dead => panic!("rank 0 should complete, got {dead:?}"),
        };
        assert_eq!(r0, &Err(CommError::Timeout { from: 1, tag: 9 }));
    }

    #[test]
    fn delayed_message_arrives_late_but_intact() {
        let plan = FaultPlan::none().delay_message(1, 0, 0, Duration::from_millis(60));
        let outcomes = ThreadCluster::run_with_faults(2, plan, |comm| {
            if comm.rank() == 0 {
                let early = comm.recv_timeout(1, 4, Duration::from_millis(5));
                let late = comm.recv_timeout(1, 4, Duration::from_secs(5));
                (early, late)
            } else {
                comm.send(0, 4, vec![7, 7]);
                (Ok(vec![]), Ok(vec![]))
            }
        });
        match &outcomes[0] {
            RankOutcome::Completed((early, late)) => {
                assert_eq!(early, &Err(CommError::Timeout { from: 1, tag: 4 }));
                assert_eq!(late, &Ok(vec![7, 7]));
            }
            dead => panic!("rank 0 died: {dead:?}"),
        }
    }

    #[test]
    fn killed_rank_unblocks_peer_recv_with_rank_dead() {
        let plan = FaultPlan::none().kill_at_round(1, 0);
        let outcomes = ThreadCluster::run_with_faults(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.recv_timeout(1, 2, Duration::from_secs(30))
            } else {
                comm.poll_faults(0); // dies here
                comm.send(0, 2, vec![1]);
                Ok(vec![])
            }
        });
        assert!(outcomes[1].is_dead());
        match &outcomes[0] {
            RankOutcome::Completed(r) => assert_eq!(r, &Err(CommError::RankDead(1))),
            dead => panic!("rank 0 died: {dead:?}"),
        }
    }

    #[test]
    fn buffered_messages_from_dead_rank_still_deliver() {
        let plan = FaultPlan::none().kill_at_round(1, 0);
        let outcomes = ThreadCluster::run_with_faults(2, plan, |comm| {
            if comm.rank() == 0 {
                let first = comm.recv_timeout(1, 6, Duration::from_secs(30));
                let second = comm.recv_timeout(1, 6, Duration::from_secs(30));
                (first, second)
            } else {
                comm.send(0, 6, vec![5]); // in flight before the crash
                comm.poll_faults(0);
                unreachable!("rank 1 must die at poll");
            }
        });
        match &outcomes[0] {
            RankOutcome::Completed((first, second)) => {
                assert_eq!(first, &Ok(vec![5]), "in-flight message must survive");
                assert_eq!(second, &Err(CommError::RankDead(1)));
            }
            dead => panic!("rank 0 died: {dead:?}"),
        }
    }

    /// A rank that returns departs like one that dies: its buffered
    /// messages still deliver, then a peer blocked on it gets `RankDead`
    /// at once instead of waiting out its deadline.
    #[test]
    fn returned_rank_departs_after_its_buffered_messages() {
        let outcomes = ThreadCluster::run_with_faults(2, FaultPlan::none(), |comm| {
            if comm.rank() == 1 {
                comm.send(0, 6, vec![5]);
                return None;
            }
            let first = comm.recv_timeout(1, 6, PATIENCE);
            let started = Instant::now();
            let second = comm.recv_timeout(1, 6, PATIENCE);
            Some((
                first,
                second,
                started.elapsed(),
                comm.transport().is_alive(1),
            ))
        });
        let (first, second, waited, alive) = outcomes
            .into_iter()
            .next()
            .and_then(RankOutcome::completed)
            .flatten()
            .expect("rank 0 completes");
        assert_eq!(first, Ok(vec![5]), "a buffered message must survive");
        assert_eq!(second, Err(CommError::RankDead(1)));
        assert!(waited < Duration::from_secs(10), "waited {waited:?}");
        assert!(!alive, "a returned rank is departed");
    }

    /// A contributor that dies before entering the collectives fails
    /// them, fail-stop: rank 0's barrier names the dead rank, and once
    /// rank 0 has stopped on that, every other rank's names rank 0.
    #[test]
    fn collectives_fail_stop_when_a_contributor_dies() {
        fn body<T: Transport>(comm: Communicator<T>) -> Result<(), CommError> {
            if comm.rank() == 2 {
                // Give peers a chance to block in the barrier first, so
                // the death must actively release them.
                std::thread::sleep(Duration::from_millis(30));
                comm.poll_faults(0);
                unreachable!();
            }
            comm.barrier()?;
            comm.allreduce_sum(&mut [1.0])
        }
        let plan = FaultPlan::none().kill_at_round(2, 0);
        let started = Instant::now();
        for outcomes in [
            ThreadCluster::run_with_faults(4, plan.clone(), body),
            TcpCluster::run_loopback(4, plan, body),
        ] {
            assert!(outcomes[2].is_dead());
            for (rank, outcome) in outcomes.iter().enumerate() {
                let expected = match rank {
                    0 => CommError::RankDead(2),
                    2 => continue,
                    _ => CommError::RankDead(0),
                };
                match outcome {
                    RankOutcome::Completed(r) => assert_eq!(r, &Err(expected), "rank {rank}"),
                    dead => panic!("rank {rank} died: {dead:?}"),
                }
            }
        }
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    /// A contribution of the wrong length is a typed error on rank 0
    /// naming its sender, not a panic.
    #[test]
    fn malformed_contribution_is_a_typed_error_on_both_backends() {
        fn body<T: Transport>(comm: Communicator<T>) -> Result<(), CommError> {
            if comm.rank() == 1 {
                let tag = coll_tag(K_REDUCE_CONTRIB, 0);
                comm.transport().send(0, tag, vec![0; 7], None);
                return Ok(());
            }
            comm.allreduce_sum(&mut [1.0])
        }
        for outcomes in [
            ThreadCluster::run_with_faults(2, FaultPlan::none(), body),
            TcpCluster::run_loopback(2, FaultPlan::none(), body),
        ] {
            match &outcomes[0] {
                RankOutcome::Completed(Err(CommError::Malformed { from: 1, tag })) => {
                    assert_eq!(*tag, coll_tag(K_REDUCE_CONTRIB, 0));
                }
                other => panic!("rank 0: expected Malformed from rank 1, got {other:?}"),
            }
        }
    }

    /// The sum is taken in rank order whatever order the ranks enter in:
    /// with these contributions arrival order (3, 2, 1, 0) gives 0.0.
    #[test]
    fn allreduce_is_rank_ordered_on_both_backends() {
        fn body<T: Transport>(comm: Communicator<T>) -> Vec<u64> {
            let mine = [1e16, 1.0, -1e16, 1.0][comm.rank()];
            (0..50)
                .map(|_| {
                    std::thread::sleep(Duration::from_millis(3 - comm.rank() as u64));
                    let mut v = [mine];
                    comm.allreduce_sum(&mut v).unwrap();
                    v[0].to_bits()
                })
                .collect()
        }
        let expected = vec![1.0f64.to_bits(); 50];
        for sums in ThreadCluster::run(4, body) {
            assert_eq!(sums, expected, "thread backend");
        }
        for outcome in TcpCluster::run_loopback(4, FaultPlan::none(), body) {
            assert_eq!(outcome.completed(), Some(expected.clone()), "TCP backend");
        }
    }

    /// Collective frames bypass the fault runtime: `nth_match` counts the
    /// driver's messages only, however many barriers and allreduces (whose
    /// frames also travel rank 1 → rank 0) run in between.
    #[test]
    fn fault_plan_counts_driver_messages_only() {
        let plan = FaultPlan::none().drop_message(1, 0, 2);
        let outcomes = ThreadCluster::run_with_faults(2, plan, |comm| {
            let mut arrived = Vec::new();
            for i in 0..4u64 {
                comm.barrier().unwrap();
                comm.allreduce_sum(&mut [1.0]).unwrap();
                if comm.rank() == 1 {
                    comm.send(0, 10 + i, vec![i as u8]);
                }
                // A thread-backend send is in the mailbox when it returns,
                // so after this barrier message `i` is there or was eaten.
                comm.barrier().unwrap();
                if comm.rank() == 0 {
                    // A deadline already passed takes only what is there.
                    arrived.push(comm.recv_timeout(1, 10 + i, Duration::ZERO).is_ok());
                }
            }
            (arrived, comm.traffic())
        });
        let mut outcomes = outcomes.into_iter();
        let (arrived, _) = outcomes.next().unwrap().completed().expect("rank 0 alive");
        let (_, sent) = outcomes.next().unwrap().completed().expect("rank 1 alive");
        assert_eq!(arrived, [true, true, false, true]);
        assert_eq!((sent.sends, sent.dropped_sends), (3, 1));
    }

    #[test]
    fn traffic_counters_track_messages_and_failures() {
        let plan = FaultPlan::none().drop_message(0, 1, 0);
        let outcomes = ThreadCluster::run_with_faults(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![0; 8]); // eaten by the plan
                comm.send(1, 2, vec![0; 16]);
                comm.barrier().unwrap();
                comm.traffic()
            } else {
                let _ = comm.recv_timeout(0, 2, PATIENCE).unwrap();
                let timed_out = comm.recv_timeout(0, 99, Duration::from_millis(20));
                assert!(matches!(timed_out, Err(CommError::Timeout { .. })));
                comm.barrier().unwrap();
                comm.traffic()
            }
        });
        let mut outcomes = outcomes.into_iter();
        let t0 = outcomes.next().unwrap().completed().expect("rank 0 alive");
        let t1 = outcomes.next().unwrap().completed().expect("rank 1 alive");
        assert_eq!(t0.sends, 1, "dropped send must not count as delivered");
        assert_eq!(t0.dropped_sends, 1);
        assert_eq!(t0.send_bytes, 16);
        assert_eq!(t1.recvs, 1);
        assert_eq!(t1.recv_bytes, 16);
        assert_eq!(t1.timeouts, 1);
    }
}
