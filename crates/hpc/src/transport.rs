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
//!   cluster harness announces a departure to every mailbox when a rank
//!   returns or panics;
//! * [`crate::TcpTransport`] — real `std::net` loopback sockets with
//!   length-prefixed frames, one connection per peer pair; the one
//!   thread a TCP transport belongs to reads its peers' sockets into the
//!   rank's mailbox itself when it waits for a message, and the end of a
//!   socket is the death notice.
//!   Enables true multi-process runs (`deepthermo run --cluster
//!   tcp:<n>`).
//!
//! The mailbox, its deadlines and the collectives are the same code on
//! both; a receive from a departed peer fails with
//! [`CommError::RankDead`], which is how the rank program learns of it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
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
/// Implementations provide tagged point-to-point sends that end in the
/// destination's [`Mailbox`] with per-`(peer, tag)` FIFO order, and mark
/// peers dead in their own rank's mailbox when they notice a death.
///
/// Sends are buffered (MPI eager protocol): they never wait for a
/// matching receive, only — on TCP, past the socket buffers — for the
/// receiver to read, and a send that waits keeps receiving meanwhile.
/// Sends to dead ranks are silently discarded. `delay` (injected by the
/// fault layer) holds a message for the given duration before it becomes
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

    /// Whether `rank` is still alive, as far as this rank has seen: its
    /// death has not reached this rank's mailbox.
    fn is_alive(&self, rank: usize) -> bool {
        !self.mailbox().is_dead(rank)
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

/// A buffered message; delayed sends carry the instant they mature.
struct Envelope {
    deliver_at: Option<Instant>,
    payload: Vec<u8>,
}

/// What [`Mailbox::next`] finds for a receiver.
pub(crate) enum Next {
    /// The message.
    Deliver(Vec<u8>),
    /// Nothing deliverable yet: look again by this instant (the deadline,
    /// or sooner when a delayed message for the key matures).
    Wait(Instant),
}

/// What the mailbox lock guards.
struct Inbox {
    queues: HashMap<MsgKey, VecDeque<Envelope>>,
    /// Threads parked on the signal; a change nobody waits for wakes
    /// nobody.
    waiters: usize,
}

/// One rank's mailbox: per-`(peer, tag)` FIFO queues, the rank's view of
/// which peers are dead, and one wakeup signal for both. Every backend
/// holds one per rank — the thread cluster shares them all so a send is
/// a push into the destination's; a TCP transport fills its own as it
/// reads its sockets.
pub struct Mailbox {
    inbox: Mutex<Inbox>,
    signal: Condvar,
    dead: Vec<AtomicBool>,
}

impl Mailbox {
    /// The mailbox of one rank of a `size`-rank cluster, everyone alive.
    pub(crate) fn new(size: usize) -> Self {
        Mailbox {
            inbox: Mutex::new(Inbox {
                queues: HashMap::new(),
                waiters: 0,
            }),
            signal: Condvar::new(),
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Enqueue a message from `from`, receivable once `delay` has passed,
    /// and wake any waiter.
    pub(crate) fn push(&self, from: usize, tag: u64, payload: Vec<u8>, delay: Duration) {
        let mut inbox = lock(&self.inbox);
        inbox
            .queues
            .entry((from, tag))
            .or_default()
            .push_back(Envelope {
                deliver_at: (!delay.is_zero()).then(|| Instant::now() + delay),
                payload,
            });
        self.wake(inbox);
    }

    /// Release the lock, then wake every waiter if there is one. A waiter
    /// woken under the lock would only block on it again.
    fn wake(&self, inbox: MutexGuard<'_, Inbox>) {
        let waiting = inbox.waiters > 0;
        drop(inbox);
        if waiting {
            self.signal.notify_all();
        }
    }

    /// Whether this rank knows `rank` to be dead.
    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::SeqCst)
    }

    /// Record that `rank` died and wake every waiter, so receives from the
    /// corpse fail fast. Idempotent.
    ///
    /// The flag flips under the lock, so a receiver is either before its
    /// liveness check or already counted among the waiters — the wakeup
    /// cannot fall between the two.
    pub(crate) fn mark_dead(&self, rank: usize) {
        let inbox = lock(&self.inbox);
        self.dead[rank].store(true, Ordering::SeqCst);
        self.wake(inbox);
    }

    /// Pop the first message of `key` deliverable at `cutoff`. A queue
    /// goes with its last message: every exchange round and collective
    /// generation uses a fresh tag, so a drained queue left in the map
    /// would never be used again and the map would grow with the length
    /// of the run.
    fn pop_ready(
        queues: &mut HashMap<MsgKey, VecDeque<Envelope>>,
        key: MsgKey,
        cutoff: Instant,
    ) -> Option<Vec<u8>> {
        let q = queues.get_mut(&key)?;
        let pos = q
            .iter()
            .position(|m| m.deliver_at.is_none_or(|t| t <= cutoff))?;
        let payload = q.remove(pos).expect("position just found").payload;
        if q.is_empty() {
            queues.remove(&key);
        }
        Some(payload)
    }

    /// What a receive of `(from, tag)` due by `deadline` finds now.
    ///
    /// # Errors
    /// Those of [`Transport::recv_timeout`].
    pub(crate) fn next(&self, from: usize, tag: u64, deadline: Instant) -> Result<Next, CommError> {
        Self::next_in(
            &mut lock(&self.inbox),
            self.is_dead(from),
            from,
            tag,
            deadline,
        )
    }

    /// [`Self::next`] under the lock; `dead`: `from` is known dead.
    fn next_in(
        inbox: &mut Inbox,
        dead: bool,
        from: usize,
        tag: u64,
        deadline: Instant,
    ) -> Result<Next, CommError> {
        // A delayed message that matures after the deadline misses this
        // receive, however late the thread gets to look.
        let now = Instant::now();
        if let Some(payload) = Self::pop_ready(&mut inbox.queues, (from, tag), now.min(deadline)) {
            return Ok(Next::Deliver(payload));
        }
        let earliest_delayed = inbox
            .queues
            .get(&(from, tag))
            .and_then(|q| q.iter().filter_map(|m| m.deliver_at).min());
        if dead && earliest_delayed.is_none() {
            return Err(CommError::RankDead(from));
        }
        if now >= deadline {
            return Err(CommError::Timeout { from, tag });
        }
        Ok(Next::Wait(
            earliest_delayed.map_or(deadline, |t| t.min(deadline)),
        ))
    }

    /// Blocking take with a deadline, for a mailbox that other threads
    /// fill; semantics of [`Transport::recv_timeout`].
    fn take_deadline(
        &self,
        from: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<u8>, CommError> {
        let deadline = Instant::now() + timeout;
        let mut inbox = lock(&self.inbox);
        loop {
            let wake_at = match Self::next_in(&mut inbox, self.is_dead(from), from, tag, deadline)?
            {
                Next::Deliver(payload) => return Ok(payload),
                Next::Wait(wake_at) => wake_at,
            };
            // Sleep until whichever comes first: the deadline or the
            // moment a delayed message matures. Arrivals and death
            // notices wake every waiter, so re-check on every wakeup.
            let nap = wake_at
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            inbox.waiters += 1;
            inbox = self
                .signal
                .wait_timeout(inbox, nap)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            inbox.waiters -= 1;
        }
    }
}

#[cfg(test)]
impl Mailbox {
    /// Number of `(peer, tag)` queues currently holding messages.
    pub(crate) fn pending_queues(&self) -> usize {
        lock(&self.inbox).queues.len()
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
