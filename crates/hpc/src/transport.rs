//! The pluggable message-passing backend of the simulated cluster.
//!
//! [`Transport`] is the seam between the protocol logic (everything in
//! [`crate::Communicator`] and above: collectives, fault injection,
//! traffic accounting, the REWL exchange) and the machinery that moves
//! bytes between ranks. A backend decides two things only — how a byte
//! vector reaches a peer's [`Mailbox`], and how a peer's death is noticed:
//!
//! * [`crate::ThreadTransport`] — a rank is a thread, a send pushes a
//!   `Vec<u8>` straight into the destination rank's mailbox, and the
//!   cluster harness announces a death to every mailbox when a rank
//!   panics;
//! * [`crate::TcpTransport`] — real `std::net` loopback sockets with
//!   length-prefixed frames, one connection per peer pair; per-peer reader
//!   threads feed the rank's mailbox and a closed connection is the death
//!   notice. Enables true multi-process runs (`deepthermo run --cluster
//!   tcp:<n>`).
//!
//! Receiving, liveness queries and the collectives are the same code on
//! both.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::comm::CommError;

/// Lock `m`, ignoring poisoning: a rank that panics (an injected kill
/// included) while holding a mailbox or socket lock must not take its
/// survivors down with it. Every critical section in this crate leaves
/// its data valid at each step, so the guard of a poisoned lock is as good
/// as any other.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A message-passing backend connecting `size` ranks.
///
/// Implementations provide tagged point-to-point sends into the
/// destination's [`Mailbox`] with per-`(peer, tag)` FIFO order, and mark
/// peers dead in their own rank's mailbox when they notice a death.
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

    /// Send `data` to rank `to` under `tag`, optionally held for `delay`
    /// before delivery.
    fn send(&self, to: usize, tag: u64, data: Vec<u8>, delay: Option<Duration>);

    /// This rank's mailbox: what it has been sent, and whom it knows dead.
    fn mailbox(&self) -> &Mailbox;

    /// Whether `rank` is still alive.
    fn is_alive(&self, rank: usize) -> bool {
        !self.mailbox().is_dead(rank)
    }

    /// Number of ranks currently alive.
    fn live_count(&self) -> usize {
        self.mailbox().live_count()
    }

    /// Non-blocking receive: `Ok(Some(..))` if a deliverable message is
    /// queued, `Ok(None)` if not.
    ///
    /// # Errors
    /// [`CommError::RankDead`] when `from` is dead and no matching
    /// message remains buffered or in flight.
    fn try_recv(&self, from: usize, tag: u64) -> Result<Option<Vec<u8>>, CommError> {
        self.mailbox().try_take(from, tag)
    }

    /// Blocking receive with a deadline. Already-buffered messages from a
    /// dead sender are still delivered first.
    ///
    /// # Errors
    /// [`CommError::Timeout`] when `timeout` elapses,
    /// [`CommError::RankDead`] as soon as `from` is known dead with no
    /// matching message in flight.
    fn recv_timeout(&self, from: usize, tag: u64, timeout: Duration) -> Result<Vec<u8>, CommError> {
        self.mailbox().take_deadline(from, tag, timeout)
    }
}

/// Key of a pending message: (source rank, tag).
type MsgKey = (usize, u64);

/// A buffered message; `deliver_at` is in the future for delayed sends.
struct Envelope {
    deliver_at: Instant,
    payload: Vec<u8>,
}

/// One rank's mailbox: per-`(peer, tag)` FIFO queues, the rank's view of
/// which peers are dead, and one wakeup signal for both. Every backend
/// holds one per rank — the thread cluster shares them all so a send is a
/// push into the destination's, the TCP transport feeds its own from
/// per-peer reader threads.
pub struct Mailbox {
    queues: Mutex<HashMap<MsgKey, VecDeque<Envelope>>>,
    signal: Condvar,
    dead: Vec<AtomicBool>,
    live: AtomicUsize,
}

impl Mailbox {
    /// The mailbox of one rank of a `size`-rank cluster, everyone alive.
    pub(crate) fn new(size: usize) -> Self {
        Mailbox {
            queues: Mutex::default(),
            signal: Condvar::new(),
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
            live: AtomicUsize::new(size),
        }
    }

    /// Enqueue a message from `from`, receivable once `delay` has passed,
    /// and wake any waiter.
    pub(crate) fn push(&self, from: usize, tag: u64, payload: Vec<u8>, delay: Duration) {
        let deliver_at = Instant::now() + delay;
        lock(&self.queues)
            .entry((from, tag))
            .or_default()
            .push_back(Envelope {
                deliver_at,
                payload,
            });
        self.signal.notify_all();
    }

    /// Whether this rank knows `rank` to be dead.
    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::SeqCst)
    }

    /// Number of ranks this rank believes alive.
    pub(crate) fn live_count(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Record that `rank` died and wake every waiter, so receives from the
    /// corpse fail fast. Idempotent.
    ///
    /// The flag flips under the queue lock, so a receiver is either
    /// before its liveness check or already parked on the signal — the
    /// wakeup cannot fall between the two. The live count moves first:
    /// whoever reads the new flag reads the matching count.
    pub(crate) fn mark_dead(&self, rank: usize) {
        let _queues = lock(&self.queues);
        if !self.dead[rank].load(Ordering::SeqCst) {
            self.live.fetch_sub(1, Ordering::SeqCst);
            self.dead[rank].store(true, Ordering::SeqCst);
        }
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

    /// Non-blocking take; semantics of [`Transport::try_recv`].
    fn try_take(&self, from: usize, tag: u64) -> Result<Option<Vec<u8>>, CommError> {
        let mut queues = lock(&self.queues);
        if let Some(payload) = Self::pop_ready(&mut queues, (from, tag), Instant::now()) {
            return Ok(Some(payload));
        }
        // Delayed messages still in flight are not recalled by the
        // sender's death.
        if !queues.contains_key(&(from, tag)) && self.is_dead(from) {
            return Err(CommError::RankDead(from));
        }
        Ok(None)
    }

    /// Blocking take with a deadline; semantics of
    /// [`Transport::recv_timeout`].
    fn take_deadline(
        &self,
        from: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<u8>, CommError> {
        let deadline = Instant::now() + timeout;
        let mut queues = lock(&self.queues);
        loop {
            let now = Instant::now();
            if let Some(payload) = Self::pop_ready(&mut queues, (from, tag), now) {
                return Ok(payload);
            }
            let earliest_delayed = queues
                .get(&(from, tag))
                .and_then(|q| q.iter().map(|m| m.deliver_at).min());
            if earliest_delayed.is_none() && self.is_dead(from) {
                return Err(CommError::RankDead(from));
            }
            if now >= deadline {
                return Err(CommError::Timeout { from, tag });
            }
            // Sleep until whichever comes first: the deadline or the
            // moment a delayed message matures. Death notices wake every
            // waiter, so re-check on every wakeup.
            let nap = earliest_delayed
                .map_or(deadline, |t| t.min(deadline))
                .saturating_duration_since(now)
                .max(Duration::from_millis(1));
            queues = self
                .signal
                .wait_timeout(queues, nap)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

#[cfg(test)]
impl Mailbox {
    /// Number of `(peer, tag)` queues currently holding messages.
    pub(crate) fn pending_queues(&self) -> usize {
        lock(&self.queues).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, TcpCluster, ThreadCluster};
    use std::sync::Arc;

    /// Each round uses a tag of its own, as exchange rounds and
    /// collective generations do; after every message is received no
    /// queue may be left behind on either backend.
    #[test]
    fn drained_queues_leave_the_inbox_on_both_backends() {
        const ROUNDS: u64 = 200;
        fn body<T: Transport>(comm: crate::Communicator<T>) -> usize {
            let patience = Duration::from_secs(30);
            let peer = 1 - comm.rank();
            for tag in 0..ROUNDS {
                comm.send(peer, tag, vec![tag as u8]);
                assert_eq!(comm.recv_timeout(peer, tag, patience), Ok(vec![tag as u8]));
                // Collectives ride on generation-numbered tags of their own.
                comm.barrier().unwrap();
            }
            comm.transport().mailbox().pending_queues()
        }
        assert_eq!(ThreadCluster::run(2, body), vec![0, 0]);
        for outcome in TcpCluster::run_loopback(2, FaultPlan::none(), body) {
            assert_eq!(outcome.completed(), Some(0));
        }
    }

    /// A rank that panics while holding a lock must not poison it for its
    /// survivors.
    #[test]
    fn lock_returns_the_guard_of_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(5u32));
        let m2 = Arc::clone(&m);
        let died = std::thread::spawn(move || {
            let _held = lock(&m2);
            panic!("die holding the lock");
        })
        .join();
        assert!(died.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 5);
    }
}
