//! A readiness-driven event loop and the one worker pool behind it: the
//! serving engine under both tiers and inside every shard.
//!
//! ```text
//!            accept + read + parse            bounded job queue
//! clients ──▶ reactor thread ──submit──▶ [queue] ──pop──▶ worker × N
//!               ▲    │ full? 429, close    ▲         │ waited > deadline? 503
//!               │    │ parse error? 4xx    │         │ panic? 500
//!               │    └─ poll(2) over       │         ├─ Reply::Conn ─┐
//!               │      nonblocking sockets │         └─ Reply::Rpc ──┼─▶ mesh → router
//!               └──── completions (mpsc + wake pipe) ◀───────────────┘
//! router ─mesh─▶ shard receive loop ─submit┘
//! ```
//!
//! One reactor thread owns the sockets: it runs `poll(2)` over its
//! accepted connections, reads whatever bytes are ready, and feeds the
//! incremental parser ([`crate::http::try_parse_request`]); only a
//! *complete* request occupies a worker, so ten thousand idle
//! connections cost ten thousand buffers, not ten thousand threads.
//! Workers return responses over a completion channel and wake the
//! reactor through a self-pipe; the reactor serializes the response
//! into the connection's write buffer and drains it under `POLLOUT`, so
//! a wedged client cannot stall anything but itself.
//!
//! `Workers` is the only worker pool in the crate. Each `Job` says
//! where its answer goes: `Reply::Conn` back to the reactor, or
//! `Reply::Rpc` onto the fleet mesh, which is how a shard
//! ([`crate::shard`]) serves the router's requests with the engine's
//! semantics: the queue is bounded (`429` when full), queued jobs carry
//! deadlines (`503` when stale), and handler panics are contained
//! (`500`).
//!
//! This module owns the crate's only `unsafe` code: the three-line FFI
//! binding to `poll(2)` in the private `sys` module — `std` links libc
//! on every Unix target, so no external crate is needed.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dt_hpc::{TcpTransport, Transport};
use dt_telemetry::MetricsRegistry;

use crate::http::{
    try_parse_request, write_response, HttpReadError, Request, Response, MAX_BODY_BYTES,
};
use crate::server::{ServeConfig, ServeHandle};
use crate::shard::encode_response;
use crate::ServeError;

/// The three-line `poll(2)` binding. `#![deny(unsafe_code)]` holds for
/// the rest of the crate; this module carries the single scoped allow.
mod sys {
    #![allow(unsafe_code)]

    use std::ffi::{c_int, c_ulong};
    use std::io;
    use std::os::unix::io::RawFd;

    /// Readable (POSIX `POLLIN`).
    pub const POLLIN: i16 = 0x001;
    /// Writable (POSIX `POLLOUT`).
    pub const POLLOUT: i16 = 0x004;

    /// Mirror of C `struct pollfd` (`<poll.h>`).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        /// File descriptor to watch.
        pub fd: RawFd,
        /// Requested events.
        pub events: i16,
        /// Returned events (`POLLERR`/`POLLHUP`/`POLLNVAL` may appear
        /// even when unrequested).
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Block until an fd is ready or `timeout_ms` elapses. `EINTR` is
    /// reported as zero ready fds — the caller's loop just re-polls.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // pollfd records, valid for the whole call; the kernel writes
        // only the `revents` fields.
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                c_int::from(timeout_ms),
            )
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }
}

use sys::{poll_fds, PollFd, POLLIN, POLLOUT};

/// What the engine serves: one request in, one response out, plus the
/// drain flag and the counter registry. [`crate::api::AppState`] (a
/// shard or standalone server) and [`crate::router::RouterState`] (the
/// routing tier) both implement it, so the two tiers share this exact
/// engine.
pub(crate) trait App: Send + Sync + 'static {
    /// Handle one parsed request.
    fn handle(&self, req: &Request) -> Response;
    /// Whether a graceful drain has been requested.
    fn shutdown_requested(&self) -> bool;
    /// Begin a graceful drain (a router drains its shards first).
    fn shutdown(&self);
    /// The counter registry (`connections_admitted` etc. live here).
    fn metrics(&self) -> &MetricsRegistry;
}

/// A parsed request waiting for a worker.
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) enqueued: Instant,
    pub(crate) reply: Reply,
}

/// Where a job's response goes.
pub(crate) enum Reply {
    /// To the reactor, for connection `token`.
    Conn { token: u64, to: Completions },
    /// To the router (rank 0 of the fleet mesh), tagged `req_id`.
    Rpc {
        req_id: u64,
        transport: Arc<TcpTransport>,
    },
}

impl Reply {
    fn send(self, response: Response, close: bool) {
        match self {
            Reply::Conn { token, to } => {
                let _ = to.tx.send(Completion {
                    token,
                    response,
                    close,
                });
                // A full pipe means a wakeup is already pending; that's enough.
                let _ = (&*to.wake).write(&[1]);
            }
            Reply::Rpc { req_id, transport } => {
                transport.send(0, req_id, encode_response(&response), None);
            }
        }
    }
}

/// A finished response travelling worker → reactor.
struct Completion {
    token: u64,
    response: Response,
    close: bool,
}

/// The workers' way back to the reactor: a completion channel plus a
/// self-pipe write end to interrupt `poll`.
#[derive(Clone)]
pub(crate) struct Completions {
    tx: Sender<Completion>,
    wake: Arc<UnixStream>,
}

/// The bounded job queue between the submitters and the workers.
struct JobQueue {
    /// The queued jobs, and whether the queue is closed.
    state: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    depth: usize,
}

impl JobQueue {
    fn new(depth: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Queue `job`; `false` (and the job dropped) when `depth` jobs
    /// already wait.
    fn submit(&self, job: Job) -> bool {
        let mut state = self.state.lock().expect("job queue lock");
        if state.0.len() >= self.depth {
            return false;
        }
        state.0.push_back(job);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// The oldest job, blocking until one arrives; `None` once the
    /// queue is closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("job queue lock");
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).expect("job queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("job queue lock").1 = true;
        self.ready.notify_all();
    }
}

/// The worker pool: `N` threads popping one bounded queue. Dropping it
/// closes the queue without waiting; [`Workers::finish`] also waits.
pub(crate) struct Workers {
    queue: Arc<JobQueue>,
    threads: Vec<JoinHandle<()>>,
}

impl Workers {
    /// Spawn `workers` threads answering `app`'s jobs from a queue of
    /// `queue_depth`; a job older than `deadline` is answered `503`.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] for zero workers or a zero queue
    /// depth, or when a thread cannot be spawned.
    pub(crate) fn start(
        app: Arc<dyn App>,
        workers: usize,
        queue_depth: usize,
        deadline: Duration,
    ) -> Result<Workers, ServeError> {
        if workers == 0 || queue_depth == 0 {
            return Err(ServeError::BadConfig(
                "workers and queue_depth must be > 0".into(),
            ));
        }
        let mut pool = Workers {
            queue: Arc::new(JobQueue::new(queue_depth)),
            threads: Vec::with_capacity(workers),
        };
        for i in 0..workers {
            let (queue, app) = (Arc::clone(&pool.queue), Arc::clone(&app));
            let thread = std::thread::Builder::new()
                .name(format!("dt-serve-worker-{i}"))
                .spawn(move || work(&queue, &*app, deadline))
                .map_err(|e| ServeError::BadConfig(format!("spawning worker: {e}")))?;
            pool.threads.push(thread);
        }
        Ok(pool)
    }

    /// Queue `job` for a worker; `false` when the queue is full.
    pub(crate) fn submit(&self, job: Job) -> bool {
        self.queue.submit(job)
    }

    /// Answer every queued job, then stop the workers.
    pub(crate) fn finish(mut self) {
        self.queue.close();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// One worker's whole life: answer jobs until the queue closes.
fn work(queue: &JobQueue, app: &dyn App, deadline: Duration) {
    let expired = app.metrics().counter("deadline_expired");
    let panics = app.metrics().counter("handler_panics");
    while let Some(job) = queue.pop() {
        let (response, close) = if job.enqueued.elapsed() > deadline {
            expired.inc();
            (Response::error(503, "queue deadline exceeded"), true)
        } else {
            // A panicking handler answers 500 and costs only this
            // request — the worker thread survives.
            let response = match catch_unwind(AssertUnwindSafe(|| app.handle(&job.req))) {
                Ok(resp) => resp,
                Err(_) => {
                    panics.inc();
                    Response::error(500, "internal error")
                }
            };
            (response, job.req.wants_close() || app.shutdown_requested())
        };
        job.reply.send(response, close);
    }
}

/// One accepted connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by the parser.
    rbuf: Vec<u8>,
    /// Serialized response bytes not yet written, from `wpos` on.
    wbuf: Vec<u8>,
    wpos: usize,
    /// A request from this connection sits in the queue or a worker.
    in_flight: bool,
    /// Close once `wbuf` drains (protocol error, `Connection: close`,
    /// rejection, or drain).
    close_after_write: bool,
    /// Framing is unreliable (protocol error): never parse again.
    protocol_dead: bool,
    /// The peer half-closed; serve what's in flight, then drop.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            in_flight: false,
            close_after_write: false,
            protocol_dead: false,
            eof: false,
        }
    }

    fn write_pending(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Queue `response` for writing and push what fits right now.
    /// Returns `false` when the transport failed and the connection
    /// should be dropped.
    fn send_response(&mut self, response: &Response, close: bool) -> bool {
        self.wbuf.clear();
        self.wpos = 0;
        write_response(&mut self.wbuf, response, close).expect("Vec write is infallible");
        self.close_after_write = self.close_after_write || close;
        self.flush_some()
    }

    /// Write as much of `wbuf` as the socket accepts without blocking.
    fn flush_some(&mut self) -> bool {
        while self.write_pending() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// A connection with nothing queued, nothing in flight, and nothing
    /// to write — safe to close during a drain.
    fn idle(&self) -> bool {
        !self.in_flight && !self.write_pending()
    }
}

/// Keep per-connection read buffers bounded even when a client
/// pipelines aggressively while a request is in flight.
const READ_HIGH_WATER: usize = 256 * 1024;

/// Start `cfg.workers` workers, bind `cfg.addr`, and spawn the reactor
/// thread, which finishes the workers once it has drained.
pub(crate) fn start_engine(
    app: Arc<dyn App>,
    cfg: &ServeConfig,
) -> Result<ServeHandle, ServeError> {
    let workers = Workers::start(
        Arc::clone(&app),
        cfg.workers,
        cfg.queue_depth,
        cfg.queue_deadline,
    )?;
    let bind_err = |e: std::io::Error| ServeError::Bind {
        addr: cfg.addr.clone(),
        message: e.to_string(),
    };
    let listener = TcpListener::bind(&cfg.addr).map_err(bind_err)?;
    let addr = listener.local_addr().map_err(bind_err)?;
    listener.set_nonblocking(true).map_err(bind_err)?;
    let (wake_rx, wake_tx) = UnixStream::pair().map_err(bind_err)?;
    wake_rx.set_nonblocking(true).map_err(bind_err)?;
    wake_tx.set_nonblocking(true).map_err(bind_err)?;
    let (tx, done) = channel();
    let to = Completions {
        tx,
        wake: Arc::new(wake_tx),
    };
    let reactor_app = Arc::clone(&app);
    let reactor = std::thread::Builder::new()
        .name("dt-serve-reactor".into())
        .spawn(move || {
            reactor_loop(listener, &*reactor_app, &workers, &done, &wake_rx, &to);
            workers.finish();
        })
        .map_err(bind_err)?;
    Ok(ServeHandle { app, addr, reactor })
}

/// The poll loop: the reactor's whole life.
#[allow(clippy::too_many_lines)]
fn reactor_loop(
    listener: TcpListener,
    app: &dyn App,
    workers: &Workers,
    done: &Receiver<Completion>,
    wake_rx: &UnixStream,
    to: &Completions,
) {
    let admitted = app.metrics().counter("connections_admitted");
    let rejected = app.metrics().counter("queue_rejections");
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut draining = false;
    let dispatch = |token: u64, conn: &mut Conn, dead: &mut Vec<u64>| {
        parse_and_dispatch(token, conn, workers, to, &rejected, dead);
    };

    loop {
        // ---- build the poll set: wake pipe, listener, every conn ----
        let mut fds = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd {
            fd: wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        if let Some(l) = &listener {
            fds.push(PollFd {
                fd: l.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }
        let base = fds.len();
        let mut order: Vec<u64> = Vec::with_capacity(conns.len());
        for (&token, conn) in &conns {
            let mut events = 0i16;
            if conn.write_pending() {
                events |= POLLOUT;
            }
            // Read unless this client is already over its buffer
            // budget; error/hangup events arrive regardless.
            if !conn.eof && conn.rbuf.len() < READ_HIGH_WATER {
                events |= POLLIN;
            }
            fds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            order.push(token);
        }

        // Short timeout so drains initiated via the handler (the
        // /v1/shutdown flag flip) are noticed promptly.
        if poll_fds(&mut fds, 25).is_err() {
            // poll(2) failing outright is unrecoverable for this
            // reactor; drop everything rather than spin.
            return;
        }

        // ---- wake pipe: drain the bytes, completions follow below ----
        if fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            let mut pipe: &UnixStream = wake_rx;
            while let Ok(n) = pipe.read(&mut sink) {
                if n < sink.len() {
                    break;
                }
            }
        }

        // ---- worker completions: fill write buffers ----
        let mut dead: Vec<u64> = Vec::new();
        while let Ok(comp) = done.try_recv() {
            let Some(conn) = conns.get_mut(&comp.token) else {
                continue; // connection vanished while the worker ran
            };
            conn.in_flight = false;
            let close = comp.close || draining || app.shutdown_requested();
            if !conn.send_response(&comp.response, close) {
                dead.push(comp.token);
                continue;
            }
            if !conn.write_pending() {
                if conn.close_after_write {
                    dead.push(comp.token);
                } else {
                    // Response fully flushed: a pipelined request may
                    // already be buffered.
                    dispatch(comp.token, conn, &mut dead);
                }
            }
        }

        // ---- new connections ----
        if listener.is_some() && fds.get(1).is_some_and(|f| f.revents & POLLIN != 0) {
            while let Some(l) = &listener {
                match l.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Nagle + delayed ACK stalls keep-alive
                        // request/response cycles by ~40 ms.
                        let _ = stream.set_nodelay(true);
                        admitted.inc();
                        conns.insert(next_token, Conn::new(stream));
                        next_token += 1;
                    }
                    Err(_) => break,
                }
            }
        }

        // ---- per-connection readiness ----
        for (i, &token) in order.iter().enumerate() {
            let revents = fds[base + i].revents;
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if revents & POLLOUT != 0 && !conn.flush_some() {
                dead.push(token);
                continue;
            }
            if !conn.write_pending() && conn.close_after_write {
                dead.push(token);
                continue;
            }
            if revents & POLLIN != 0 {
                if !read_ready(conn) {
                    dead.push(token);
                    continue;
                }
                if !conn.in_flight && !conn.write_pending() {
                    dispatch(token, conn, &mut dead);
                }
            }
            // POLLERR/POLLHUP with nothing in flight: the peer is gone.
            if revents & POLLIN == 0 && revents & POLLOUT == 0 {
                let conn = &conns[&token];
                if conn.idle() {
                    dead.push(token);
                }
            }
        }

        for token in dead.drain(..) {
            if let Some(conn) = conns.remove(&token) {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
        }

        // ---- drain ----
        if !draining && app.shutdown_requested() {
            draining = true;
            listener = None; // closes the listen socket: connects now fail
        }
        if draining {
            // Idle connections close now; in-flight requests and
            // unflushed responses finish first. A racing request that
            // parsed this very iteration is in flight, so it is kept
            // and answered before its connection closes.
            conns.retain(|_, conn| {
                let keep = !conn.idle();
                if !keep {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                }
                keep
            });
            if conns.is_empty() {
                return;
            }
        }
    }
}

/// Pull whatever bytes are ready into `conn.rbuf`. Returns `false`
/// when the connection died mid-read with nothing in flight.
fn read_ready(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                // Peer half-closed: a response may still be owed, and
                // buffered bytes may hold one last complete request.
                return conn.in_flight || conn.write_pending() || !conn.rbuf.is_empty();
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                if conn.rbuf.len() >= READ_HIGH_WATER {
                    return true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return conn.in_flight || conn.write_pending(),
        }
    }
}

/// Try to parse one complete request off `conn.rbuf` and hand it to
/// the workers; answer protocol errors and queue-full inline.
fn parse_and_dispatch(
    token: u64,
    conn: &mut Conn,
    workers: &Workers,
    to: &Completions,
    rejected: &dt_telemetry::Counter,
    dead: &mut Vec<u64>,
) {
    if conn.protocol_dead || conn.in_flight {
        return;
    }
    let response = match try_parse_request(&conn.rbuf, MAX_BODY_BYTES) {
        Ok(None) => {
            if conn.eof && !conn.write_pending() {
                dead.push(token);
            }
            return;
        }
        Ok(Some((req, consumed))) => {
            conn.rbuf.drain(..consumed);
            let job = Job {
                req,
                enqueued: Instant::now(),
                reply: Reply::Conn {
                    token,
                    to: to.clone(),
                },
            };
            if workers.submit(job) {
                conn.in_flight = true;
                return;
            }
            rejected.inc();
            Response::error(429, "service saturated, retry later")
        }
        // Framing is unreliable after a protocol error: answer and
        // close, exactly like the blocking engine did.
        Err(e @ HttpReadError::BodyTooLarge { .. }) => Response::error(413, &e.to_string()),
        Err(e @ HttpReadError::HeadersTooLarge) => Response::error(431, &e.to_string()),
        Err(e @ HttpReadError::Unsupported(_)) => Response::error(501, &e.to_string()),
        Err(e @ HttpReadError::Malformed(_)) => Response::error(400, &e.to_string()),
    };
    conn.protocol_dead = true;
    if !conn.send_response(&response, true) || !conn.write_pending() {
        dead.push(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every request with its own target.
    struct Echo(MetricsRegistry);

    impl App for Echo {
        fn handle(&self, req: &Request) -> Response {
            Response::json(200, req.target.clone())
        }
        fn shutdown_requested(&self) -> bool {
            false
        }
        fn shutdown(&self) {}
        fn metrics(&self) -> &MetricsRegistry {
            &self.0
        }
    }

    fn echo_workers(workers: usize, queue_depth: usize) -> Workers {
        let app = Arc::new(Echo(MetricsRegistry::new()));
        Workers::start(app, workers, queue_depth, Duration::from_secs(60)).unwrap()
    }

    /// A completion sink whose wake pipe never fills up the test.
    fn completions() -> (Completions, Receiver<Completion>, UnixStream) {
        let (wake_rx, wake_tx) = UnixStream::pair().unwrap();
        wake_tx.set_nonblocking(true).unwrap();
        let (tx, rx) = channel();
        let to = Completions {
            tx,
            wake: Arc::new(wake_tx),
        };
        (to, rx, wake_rx)
    }

    fn job(token: u64, to: &Completions) -> Job {
        Job {
            req: Request {
                method: "GET".into(),
                target: format!("/{token}"),
                http11: true,
                headers: Vec::new(),
                body: Vec::new(),
            },
            enqueued: Instant::now(),
            reply: Reply::Conn {
                token,
                to: to.clone(),
            },
        }
    }

    /// Every answered token, sorted, after checking each body echoes it.
    fn answered(rx: &Receiver<Completion>) -> Vec<u64> {
        let mut tokens: Vec<u64> = rx
            .try_iter()
            .map(|c| {
                assert_eq!(c.response.body, format!("/{}", c.token));
                c.token
            })
            .collect();
        tokens.sort_unstable();
        tokens
    }

    #[test]
    fn submit_refuses_at_depth_without_blocking() {
        let (to, _rx, _wake) = completions();
        let queue = JobQueue::new(2);
        assert!(queue.submit(job(1, &to)));
        assert!(queue.submit(job(2, &to)));
        assert!(!queue.submit(job(3, &to)), "a full queue refuses at once");
        assert_eq!(queue.pop().unwrap().req.target, "/1");
        assert!(queue.submit(job(3, &to)));
        assert_eq!(queue.pop().unwrap().req.target, "/2");
        assert_eq!(queue.pop().unwrap().req.target, "/3");
        queue.close();
        assert!(queue.pop().is_none());
    }

    #[test]
    fn finish_answers_every_queued_job() {
        let (to, rx, _wake) = completions();
        let workers = echo_workers(1, 16);
        for token in 0..16 {
            assert!(workers.submit(job(token, &to)));
        }
        workers.finish();
        assert_eq!(answered(&rx), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn each_job_is_answered_exactly_once() {
        const SUBMITTERS: u64 = 4;
        const PER_SUBMITTER: u64 = 250;
        let (to, rx, _wake) = completions();
        let workers = echo_workers(3, 8);
        std::thread::scope(|s| {
            for t in 0..SUBMITTERS {
                let (workers, to) = (&workers, &to);
                s.spawn(move || {
                    for token in t * PER_SUBMITTER..(t + 1) * PER_SUBMITTER {
                        while !workers.submit(job(token, to)) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        workers.finish();
        assert_eq!(
            answered(&rx),
            (0..SUBMITTERS * PER_SUBMITTER).collect::<Vec<_>>()
        );
    }
}
