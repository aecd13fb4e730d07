//! The in-memory thread backend: ranks are threads, messages are moved
//! `Vec<u8>`s, collectives are condvar-coordinated shared state.
//!
//! This is the original DeepThermo fabric, now packaged as a
//! [`Transport`] implementation. Its semantics are unchanged: tagged
//! point-to-point messages with per-`(peer, tag)` FIFO order,
//! generation-counted collectives that count *live* ranks (a rank death
//! settles any collective the survivors have fully entered), and
//! [`ThreadCluster::run_with_faults`] converting rank panics into
//! [`RankOutcome::Died`] while survivors keep running.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::comm::{CommError, Communicator, SimulatedCrash};
use crate::fault::FaultPlan;
use crate::transport::{Inbox, Transport, WATCHDOG};

/// Shared collective state (barrier / allreduce / broadcast), generation
/// counted so it can be reused round after round.
struct Collectives {
    lock: Mutex<CollectiveState>,
    signal: Condvar,
}

struct CollectiveState {
    /// Ranks still alive; collectives complete when `*_arrived` reaches
    /// this count.
    live: usize,
    barrier_arrived: usize,
    barrier_generation: u64,
    reduce_arrived: usize,
    reduce_generation: u64,
    reduce_accum: Vec<f64>,
    reduce_result: Vec<f64>,
    bcast_arrived: usize,
    bcast_generation: u64,
    bcast_payload: Option<Vec<u8>>,
    /// Generation the current `bcast_payload` was provided for; lets
    /// waiters distinguish a fresh payload from a stale one left by a
    /// previous round after the root died.
    bcast_provided_generation: Option<u64>,
}

impl CollectiveState {
    /// Complete any collective that the survivors have now fully entered.
    /// Called after a death shrinks `live`.
    fn settle_after_death(&mut self) {
        if self.live == 0 {
            return;
        }
        if self.barrier_arrived >= self.live {
            self.barrier_arrived = 0;
            self.barrier_generation += 1;
        }
        if self.reduce_arrived >= self.live {
            self.reduce_arrived = 0;
            self.reduce_result = std::mem::take(&mut self.reduce_accum);
            self.reduce_generation += 1;
        }
        if self.bcast_arrived >= self.live {
            self.bcast_arrived = 0;
            self.bcast_generation += 1;
        }
    }
}

/// The shared fabric of a [`ThreadCluster`].
struct Fabric {
    size: usize,
    inboxes: Vec<Inbox>,
    collectives: Collectives,
    dead: Vec<AtomicBool>,
}

impl Fabric {
    fn new(size: usize) -> Self {
        Fabric {
            size,
            inboxes: (0..size).map(|_| Inbox::default()).collect(),
            collectives: Collectives {
                lock: Mutex::new(CollectiveState {
                    live: size,
                    barrier_arrived: 0,
                    barrier_generation: 0,
                    reduce_arrived: 0,
                    reduce_generation: 0,
                    reduce_accum: Vec::new(),
                    reduce_result: Vec::new(),
                    bcast_arrived: 0,
                    bcast_generation: 0,
                    bcast_payload: None,
                    bcast_provided_generation: None,
                }),
                signal: Condvar::new(),
            },
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::SeqCst)
    }

    /// Record a rank death and wake everyone who may be waiting on it:
    /// collective waiters (a now-complete round is settled first) and all
    /// mailbox waiters (so receives from the corpse fail fast).
    fn mark_dead(&self, rank: usize) {
        if self.dead[rank].swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut st = self.collectives.lock.lock();
            st.live -= 1;
            st.settle_after_death();
            self.collectives.signal.notify_all();
        }
        for mb in &self.inboxes {
            mb.notify_all();
        }
    }
}

/// A rank's handle to the shared in-memory fabric — the thread backend of
/// [`Transport`].
pub struct ThreadTransport {
    rank: usize,
    fabric: Arc<Fabric>,
}

impl Transport for ThreadTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.fabric.size
    }

    fn is_alive(&self, rank: usize) -> bool {
        !self.fabric.is_dead(rank)
    }

    fn live_count(&self) -> usize {
        self.fabric.collectives.lock.lock().live
    }

    fn send(&self, to: usize, tag: u64, data: Vec<u8>, delay: Option<Duration>) {
        assert!(to < self.fabric.size, "send to invalid rank {to}");
        if self.fabric.is_dead(to) {
            return;
        }
        let deliver_at = match delay {
            Some(d) => Instant::now() + d,
            None => Instant::now(),
        };
        self.fabric.inboxes[to].push(self.rank, tag, data, deliver_at);
    }

    fn try_recv(&self, from: usize, tag: u64) -> Result<Option<Vec<u8>>, CommError> {
        self.fabric.inboxes[self.rank].try_take(from, tag, &|| self.fabric.is_dead(from))
    }

    fn recv_timeout(&self, from: usize, tag: u64, timeout: Duration) -> Result<Vec<u8>, CommError> {
        self.fabric.inboxes[self.rank]
            .take_deadline(from, tag, timeout, &|| self.fabric.is_dead(from))
    }

    fn barrier(&self) -> Result<(), CommError> {
        let c = &self.fabric.collectives;
        let mut st = c.lock.lock();
        let generation = st.barrier_generation;
        st.barrier_arrived += 1;
        if st.barrier_arrived >= st.live {
            st.barrier_arrived = 0;
            st.barrier_generation += 1;
            c.signal.notify_all();
        } else {
            let deadline = Instant::now() + WATCHDOG;
            while st.barrier_generation == generation {
                let r = c
                    .signal
                    .wait_for(&mut st, deadline.saturating_duration_since(Instant::now()));
                if r.timed_out() && st.barrier_generation == generation {
                    panic!("rank {}: barrier watchdog expired", self.rank);
                }
            }
        }
        Ok(())
    }

    fn allreduce_sum(&self, data: &mut [f64]) -> Result<(), CommError> {
        let c = &self.fabric.collectives;
        let mut st = c.lock.lock();
        let generation = st.reduce_generation;
        if st.reduce_arrived == 0 {
            st.reduce_accum = vec![0.0; data.len()];
        }
        assert_eq!(
            st.reduce_accum.len(),
            data.len(),
            "allreduce length mismatch across ranks"
        );
        for (a, &d) in st.reduce_accum.iter_mut().zip(data.iter()) {
            *a += d;
        }
        st.reduce_arrived += 1;
        if st.reduce_arrived >= st.live {
            st.reduce_arrived = 0;
            st.reduce_result = std::mem::take(&mut st.reduce_accum);
            st.reduce_generation += 1;
            c.signal.notify_all();
        } else {
            let deadline = Instant::now() + WATCHDOG;
            while st.reduce_generation == generation {
                let r = c
                    .signal
                    .wait_for(&mut st, deadline.saturating_duration_since(Instant::now()));
                if r.timed_out() && st.reduce_generation == generation {
                    panic!("rank {}: allreduce watchdog expired", self.rank);
                }
            }
        }
        data.copy_from_slice(&st.reduce_result);
        Ok(())
    }

    fn broadcast_checked(&self, root: usize, data: Vec<u8>) -> Result<Vec<u8>, CommError> {
        let c = &self.fabric.collectives;
        let mut st = c.lock.lock();
        let generation = st.bcast_generation;
        if self.rank == root {
            st.bcast_payload = Some(data);
            st.bcast_provided_generation = Some(generation);
        }
        st.bcast_arrived += 1;
        if st.bcast_arrived >= st.live {
            st.bcast_arrived = 0;
            st.bcast_generation += 1;
            c.signal.notify_all();
        } else {
            let deadline = Instant::now() + WATCHDOG;
            while st.bcast_generation == generation {
                let r = c
                    .signal
                    .wait_for(&mut st, deadline.saturating_duration_since(Instant::now()));
                if r.timed_out() && st.bcast_generation == generation {
                    panic!("rank {}: broadcast watchdog expired", self.rank);
                }
            }
        }
        // A payload left over from an earlier round must not masquerade
        // as this round's: only accept one provided for `generation`.
        if st.bcast_provided_generation == Some(generation) {
            Ok(st
                .bcast_payload
                .clone()
                .expect("payload present when provided"))
        } else {
            Err(CommError::RankDead(root))
        }
    }
}

/// How one rank's program ended under [`ThreadCluster::run_with_faults`].
#[derive(Debug)]
pub enum RankOutcome<T> {
    /// The rank ran to completion.
    Completed(T),
    /// The rank died (injected kill or genuine panic) before finishing.
    Died {
        /// Human-readable cause extracted from the panic payload.
        cause: String,
    },
}

impl<T> RankOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            RankOutcome::Completed(v) => Some(v),
            RankOutcome::Died { .. } => None,
        }
    }

    /// Whether the rank died.
    pub fn is_dead(&self) -> bool {
        matches!(self, RankOutcome::Died { .. })
    }
}

pub(crate) fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(crash) = payload.downcast_ref::<SimulatedCrash>() {
        format!(
            "simulated crash of rank {} at round {}",
            crash.rank, crash.round
        )
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked".to_string()
    }
}

/// Install the process-wide panic hook that silences the default "thread
/// panicked" stderr noise for injected [`SimulatedCrash`] unwinds only.
/// Installed once: hook swapping per call would race when multiple
/// clusters run concurrently (e.g. parallel tests). Multi-process
/// drivers call this in each worker before `catch_unwind`ing the rank
/// program, so a scheduled kill dies quietly there too.
pub fn install_crash_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimulatedCrash>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Launches `size` ranks on threads and runs `f(comm)` on each; returns
/// the per-rank results in rank order.
pub struct ThreadCluster;

impl ThreadCluster {
    /// Run a cluster program. Panics in any rank propagate.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator<ThreadTransport>) -> T + Sync,
    {
        Self::run_with_faults(size, FaultPlan::none(), f)
            .into_iter()
            .map(|outcome| match outcome {
                RankOutcome::Completed(v) => v,
                RankOutcome::Died { cause } => panic!("rank panicked: {cause}"),
            })
            .collect()
    }

    /// Run a cluster program under a fault plan. A rank that panics —
    /// from an injected [`FaultEvent::KillAtRound`](crate::FaultEvent)
    /// via [`Communicator::poll_faults`], or from a genuine bug — is
    /// caught at the fabric boundary, announced to the survivors (its
    /// death unblocks their receives and collectives), and reported as
    /// [`RankOutcome::Died`] instead of tearing the cluster down.
    pub fn run_with_faults<T, F>(size: usize, plan: FaultPlan, f: F) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(Communicator<ThreadTransport>) -> T + Sync,
    {
        assert!(size > 0, "cluster needs at least one rank");
        let fabric = Arc::new(Fabric::new(size));
        install_crash_hook();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let transport = ThreadTransport {
                        rank,
                        fabric: Arc::clone(&fabric),
                    };
                    let comm = Communicator::new(transport, plan.clone());
                    let f = &f;
                    let fabric = Arc::clone(&fabric);
                    scope.spawn(move || match catch_unwind(AssertUnwindSafe(|| f(comm))) {
                        Ok(v) => RankOutcome::Completed(v),
                        Err(payload) => {
                            // Announce the death *before* returning so
                            // peers blocked on this rank unblock promptly.
                            fabric.mark_dead(rank);
                            RankOutcome::Died {
                                cause: describe_panic(payload.as_ref()),
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread itself must not die"))
                .collect()
        })
    }
}

#[cfg(test)]
impl ThreadTransport {
    /// Queues still held by this rank's inbox.
    pub(crate) fn pending_queues(&self) -> usize {
        self.fabric.inboxes[self.rank].pending_queues()
    }
}
