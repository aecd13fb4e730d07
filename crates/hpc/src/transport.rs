//! The pluggable message-passing backend of the simulated cluster.
//!
//! [`Transport`] is the seam between the REWL protocol logic (which lives
//! in [`crate::Communicator`] and above) and the machinery that actually
//! moves bytes between ranks. Two implementations ship:
//!
//! * [`crate::ThreadTransport`] — the in-memory thread fabric: a rank is
//!   a thread, a message is a `Vec<u8>` moved between mailboxes, and the
//!   collectives are condvar-coordinated shared state;
//! * [`crate::TcpTransport`] — real `std::net` loopback sockets with
//!   length-prefixed frames, one connection per peer pair, enabling true
//!   multi-process runs (`deepthermo run --cluster tcp:<n>`).
//!
//! Everything *above* the trait — fault injection, traffic accounting,
//! retry schedules, the exchange protocol — is backend-agnostic.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::comm::CommError;

/// Upper bound applied to blocking collective waits so that no wait —
/// even one reached through an unexpected interleaving — is unbounded.
/// Generous enough that it only trips on genuine deadlocks.
pub(crate) const WATCHDOG: Duration = Duration::from_secs(300);

/// A message-passing backend connecting `size` ranks.
///
/// Implementations must provide tagged point-to-point messaging with
/// per-`(peer, tag)` FIFO order, dead-peer detection, and the three
/// collectives the REWL driver uses. All collective calls are SPMD: every
/// live rank must invoke the same collectives in the same order.
///
/// Sends are non-blocking and buffered (MPI eager protocol); sends to
/// dead ranks are silently discarded. `delay` (injected by the fault
/// layer) holds a message for the given duration before it becomes
/// receivable.
pub trait Transport: Send {
    /// This rank's id.
    fn rank(&self) -> usize;

    /// Number of ranks in the cluster (including dead ones).
    fn size(&self) -> usize;

    /// Whether `rank` is still alive.
    fn is_alive(&self, rank: usize) -> bool;

    /// Number of ranks currently alive.
    fn live_count(&self) -> usize;

    /// Send `data` to rank `to` under `tag`, optionally held for `delay`
    /// before delivery.
    fn send(&self, to: usize, tag: u64, data: Vec<u8>, delay: Option<Duration>);

    /// Non-blocking receive: `Ok(Some(..))` if a deliverable message is
    /// queued, `Ok(None)` if not, `Err(RankDead)` if `from` is dead with
    /// nothing in flight.
    ///
    /// # Errors
    /// [`CommError::RankDead`] when `from` is dead and no matching
    /// message remains buffered or in flight.
    fn try_recv(&self, from: usize, tag: u64) -> Result<Option<Vec<u8>>, CommError>;

    /// Blocking receive with a deadline. Already-buffered messages from a
    /// dead sender are still delivered first.
    ///
    /// # Errors
    /// [`CommError::Timeout`] when `timeout` elapses,
    /// [`CommError::RankDead`] as soon as `from` is known dead with no
    /// matching message in flight.
    fn recv_timeout(&self, from: usize, tag: u64, timeout: Duration) -> Result<Vec<u8>, CommError>;

    /// Block until every *live* rank has entered the barrier.
    ///
    /// # Errors
    /// [`CommError::RankDead`] when the barrier cannot complete because
    /// its coordinator died (TCP backend; the thread fabric is
    /// coordinator-free and completes over survivors).
    fn barrier(&self) -> Result<(), CommError>;

    /// Element-wise sum allreduce over the *live* ranks: on return every
    /// surviving rank's `data` holds the sum of all survivors'
    /// contributions. All ranks must pass equal lengths.
    ///
    /// # Errors
    /// [`CommError::RankDead`] when the reduction's coordinator died
    /// (TCP backend only); `data` is left untouched in that case.
    fn allreduce_sum(&self, data: &mut [f64]) -> Result<(), CommError>;

    /// Broadcast from `root`: returns the root's payload on every rank
    /// (`data` is ignored on non-roots).
    ///
    /// # Errors
    /// [`CommError::RankDead`] on every waiter when the root died before
    /// providing its payload.
    fn broadcast_checked(&self, root: usize, data: Vec<u8>) -> Result<Vec<u8>, CommError>;

    /// Start heartbeat-based liveness: ping every live peer each
    /// `interval` and declare a peer dead when nothing (heartbeat or
    /// data) has arrived from it for `deadline`. Backends without an
    /// active failure detector (the thread fabric, where death is
    /// announced synchronously) ignore this.
    fn start_heartbeats(&self, _interval: Duration, _deadline: Duration) {}

    /// Number of heartbeat deadlines missed so far (peers declared dead
    /// by the heartbeat monitor rather than by connection teardown).
    fn heartbeat_misses(&self) -> u64 {
        0
    }

    /// Put the transport in recovery mode: a dead peer is treated as
    /// *temporarily* absent — coordinator-side collective receives keep
    /// waiting for it (up to a recovery deadline) instead of skipping it,
    /// so a respawned replacement can contribute to the generation it
    /// missed. Backends without re-admission ignore this.
    fn set_recovery(&self, _enabled: bool) {}

    /// This rank's collective-protocol generation counters
    /// `[barrier, reduce, broadcast]`. A replacement rank restores these
    /// from its checkpoint so its collective traffic lands in the same
    /// generation namespace as the survivors'. Coordinator-free backends
    /// return zeros.
    fn collective_generations(&self) -> [u64; 3] {
        [0; 3]
    }

    /// Restore the collective generation counters (see
    /// [`Transport::collective_generations`]). A no-op on backends
    /// without generation-tagged collectives.
    fn set_collective_generations(&self, _gens: [u64; 3]) {}
}

/// Key of a pending message: (source rank, tag).
pub(crate) type MsgKey = (usize, u64);

/// A buffered message; `deliver_at` is in the future for delayed sends.
pub(crate) struct Envelope {
    pub(crate) deliver_at: Instant,
    pub(crate) payload: Vec<u8>,
}

/// One rank's mailbox: per-`(peer, tag)` FIFO queues plus a wakeup
/// signal. Shared by both backends — the thread fabric holds one per rank
/// in the shared fabric, the TCP transport holds its own fed by per-peer
/// reader threads.
#[derive(Default)]
pub(crate) struct Inbox {
    queues: Mutex<HashMap<MsgKey, VecDeque<Envelope>>>,
    signal: Condvar,
}

impl Inbox {
    /// Enqueue a message and wake any waiter.
    pub(crate) fn push(&self, from: usize, tag: u64, payload: Vec<u8>, deliver_at: Instant) {
        self.queues
            .lock()
            .entry((from, tag))
            .or_default()
            .push_back(Envelope {
                deliver_at,
                payload,
            });
        self.signal.notify_all();
    }

    /// Wake every waiter (used to announce peer deaths).
    pub(crate) fn notify_all(&self) {
        self.signal.notify_all();
    }

    /// Pop the first deliverable message of `key`. A queue goes with its
    /// last message: every exchange round and collective generation uses
    /// a fresh tag, so a drained queue left in the map would never be
    /// used again and the map would grow with the length of the run.
    fn pop_ready(
        queues: &mut HashMap<MsgKey, VecDeque<Envelope>>,
        key: MsgKey,
        now: Instant,
    ) -> Option<Vec<u8>> {
        let q = queues.get_mut(&key)?;
        let pos = q.iter().position(|m| m.deliver_at <= now)?;
        let payload = q.remove(pos).expect("position just found").payload;
        if q.is_empty() {
            queues.remove(&key);
        }
        Some(payload)
    }

    /// Non-blocking take; `sender_dead` is consulted only when nothing is
    /// buffered or in flight from `from`.
    pub(crate) fn try_take(
        &self,
        from: usize,
        tag: u64,
        sender_dead: &dyn Fn() -> bool,
    ) -> Result<Option<Vec<u8>>, CommError> {
        let mut queues = self.queues.lock();
        if let Some(payload) = Self::pop_ready(&mut queues, (from, tag), Instant::now()) {
            return Ok(Some(payload));
        }
        if queues.contains_key(&(from, tag)) {
            // Delayed messages still in flight; the sender's death does
            // not recall them.
            return Ok(None);
        }
        if sender_dead() {
            return Err(CommError::RankDead(from));
        }
        Ok(None)
    }

    /// Blocking take with a deadline; semantics mirror
    /// [`Transport::recv_timeout`].
    pub(crate) fn take_deadline(
        &self,
        from: usize,
        tag: u64,
        timeout: Duration,
        sender_dead: &dyn Fn() -> bool,
    ) -> Result<Vec<u8>, CommError> {
        let deadline = Instant::now() + timeout;
        let mut queues = self.queues.lock();
        loop {
            let now = Instant::now();
            if let Some(payload) = Self::pop_ready(&mut queues, (from, tag), now) {
                return Ok(payload);
            }
            let earliest_delayed = queues
                .get(&(from, tag))
                .and_then(|q| q.iter().map(|m| m.deliver_at).min());
            if earliest_delayed.is_none() && sender_dead() {
                return Err(CommError::RankDead(from));
            }
            if now >= deadline {
                return Err(CommError::Timeout { from, tag });
            }
            // Sleep until whichever comes first: the deadline or the
            // moment a delayed message matures. Death notifications wake
            // every mailbox waiter, so re-check on every wakeup.
            let mut wake = deadline;
            if let Some(t) = earliest_delayed {
                wake = wake.min(t);
            }
            let nap = wake
                .saturating_duration_since(now)
                .max(Duration::from_millis(1));
            self.signal.wait_for(&mut queues, nap);
        }
    }
}

#[cfg(test)]
impl Inbox {
    /// Number of `(peer, tag)` queues currently holding messages.
    pub(crate) fn pending_queues(&self) -> usize {
        self.queues.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use crate::{FaultPlan, TcpCluster, ThreadCluster};
    use std::time::Duration;

    /// Each round uses a tag of its own, as exchange rounds and
    /// collective generations do; after every message is received no
    /// queue may be left behind on either backend.
    #[test]
    fn drained_queues_leave_the_inbox_on_both_backends() {
        const ROUNDS: u64 = 200;
        let patience = Duration::from_secs(30);
        let thread = ThreadCluster::run(2, |comm| {
            let peer = 1 - comm.rank();
            for tag in 0..ROUNDS {
                comm.send(peer, tag, vec![tag as u8]);
                assert_eq!(comm.recv_timeout(peer, tag, patience), Ok(vec![tag as u8]));
            }
            comm.barrier().unwrap();
            comm.transport().pending_queues()
        });
        assert_eq!(thread, vec![0, 0]);
        let tcp = TcpCluster::run_loopback(2, FaultPlan::none(), |comm| {
            let peer = 1 - comm.rank();
            for tag in 0..ROUNDS {
                comm.send(peer, tag, vec![tag as u8]);
                assert_eq!(comm.recv_timeout(peer, tag, patience), Ok(vec![tag as u8]));
                // Collectives ride on generation-numbered tags of their own.
                comm.barrier().unwrap();
            }
            comm.transport().pending_queues()
        });
        for outcome in tcp {
            assert_eq!(outcome.completed(), Some(0));
        }
    }
}
