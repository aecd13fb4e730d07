//! The in-memory thread backend, and the rank harness both backends'
//! in-process clusters run on.
//!
//! A rank is a thread and a send is a push of the `Vec<u8>` into the
//! destination rank's [`Mailbox`]; the cluster shares every mailbox, so
//! nothing else is needed to move a message. Receives, liveness and the
//! collectives are the backend-independent code in [`Transport`]'s
//! provided methods and [`Communicator`]. [`ThreadCluster::run_with_faults`]
//! converts a rank panic into [`RankOutcome::Died`] and announces every
//! departure, return or panic, to every mailbox, which is what unblocks
//! peers' receives and lets their collectives complete without the rank.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::comm::{Communicator, SimulatedCrash};
use crate::fault::FaultPlan;
use crate::transport::{Mailbox, Transport};

/// A rank's handle to the cluster's mailboxes — the thread backend of
/// [`Transport`].
pub struct ThreadTransport {
    rank: usize,
    /// Every rank's mailbox, indexed by rank; ours is `mailboxes[rank]`.
    mailboxes: Arc<[Mailbox]>,
}

impl Transport for ThreadTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.mailboxes.len()
    }

    fn send(&self, to: usize, tag: u64, data: Vec<u8>, delay: Option<Duration>) {
        assert!(to < self.size(), "send to invalid rank {to}");
        if self.is_alive(to) {
            self.mailboxes[to].push(self.rank, tag, data, delay.unwrap_or_default());
        }
    }

    fn mailbox(&self) -> &Mailbox {
        &self.mailboxes[self.rank]
    }
}

/// How one rank's program ended under a cluster harness
/// ([`ThreadCluster::run_with_faults`], [`crate::TcpCluster::run_loopback`]).
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

fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
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

/// One life of a rank program: a panic — an injected
/// [`SimulatedCrash`] or a genuine bug — becomes [`RankOutcome::Died`]
/// instead of tearing the cluster down.
pub(crate) fn run_rank<T>(program: impl FnOnce() -> T) -> RankOutcome<T> {
    match catch_unwind(AssertUnwindSafe(program)) {
        Ok(v) => RankOutcome::Completed(v),
        Err(payload) => RankOutcome::Died {
            cause: describe_panic(payload.as_ref()),
        },
    }
}

/// Run `rank_main(rank)` on one thread per rank; outcomes in rank order.
pub(crate) fn spawn_ranks<T: Send>(
    size: usize,
    rank_main: impl Fn(usize) -> RankOutcome<T> + Sync,
) -> Vec<RankOutcome<T>> {
    assert!(size > 0, "cluster needs at least one rank");
    install_crash_hook();
    std::thread::scope(|scope| {
        let rank_main = &rank_main;
        let handles: Vec<_> = (0..size)
            .map(|rank| scope.spawn(move || rank_main(rank)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread itself must not die"))
            .collect()
    })
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
    /// caught at the harness and reported as [`RankOutcome::Died`]
    /// instead of tearing the cluster down. Every departed rank, returned
    /// or dead, is announced to the others, as a closed socket is on TCP.
    pub fn run_with_faults<T, F>(size: usize, plan: FaultPlan, f: F) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(Communicator<ThreadTransport>) -> T + Sync,
    {
        let mailboxes: Arc<[Mailbox]> = (0..size).map(|_| Mailbox::new(size)).collect();
        spawn_ranks(size, |rank| {
            let transport = ThreadTransport {
                rank,
                mailboxes: Arc::clone(&mailboxes),
            };
            let comm = Communicator::new(transport, plan.clone());
            let outcome = run_rank(|| f(comm));
            // Announce the departure *before* joining so peers blocked on
            // this rank unblock promptly.
            mailboxes.iter().for_each(|mb| mb.mark_dead(rank));
            outcome
        })
    }
}
