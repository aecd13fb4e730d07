//! A readiness-driven event loop, the serving engine under both tiers,
//! and the one worker pool, behind a standalone server and inside every
//! shard.
//!
//! ```text
//!            accept + read + parse            bounded job queue, one wake per job
//! clients ──▶ reactor thread ──submit──▶ [queue] ──pop──▶ worker × N
//!               ▲    │ full? 429, close    ▲         │ waited > deadline? 503
//!               │    │ parse error? 4xx    │         │ panic? 500
//!               │    └─ poll(2) over       │         ├─ Reply::Conn ─┐
//!               │      nonblocking sockets │         └─ Reply::Rpc ──┼─▶ link → router
//!               └──── completions (mpsc + wake pipe) ◀───────────────┘   ▲
//! router link ─▶ shard receive thread ─┬───┘ miss                        │
//!                                      └─ hit: answered on this thread ──┘
//!
//! router:  clients ──▶ reactor thread ──frame──▶ shard links ─┐ (in the same
//!                        ▲  routes, fans out    reply frames  │  poll set)
//!                        └──── matched by req_id ◀────────────┘
//! ```
//!
//! One reactor thread owns the sockets: it runs `poll(2)` over its
//! accepted connections, reads whatever bytes are ready, and feeds the
//! incremental parser ([`crate::http::try_parse_request`]). `poll(2)` is
//! level-triggered, so a read that leaves room in its buffer is a
//! socket's last until the next poll: no read is made only to hear
//! `EAGAIN`. Only a *complete* request reaches the reactor's `Backend`,
//! which answers it at once or later, so ten thousand idle connections
//! cost ten thousand buffers, not ten thousand threads. The reactor
//! serializes each response into its connection's write buffer and
//! drains it under `POLLOUT`, so a wedged client cannot stall anything
//! but itself.
//!
//! A standalone server's backend is `Pool`: the worker pool, whose
//! workers return responses over a completion channel and wake the
//! reactor through a self-pipe. The router's backend is its shard links
//! ([`crate::router`]), whose sockets join the same poll set: the router
//! computes nothing, so it has no workers.
//!
//! `Workers` is the only worker pool in the crate: its threads wait on
//! one condvar, and each queued job wakes one of them. Each `Job` says
//! where its answer goes: `Reply::Conn` back to the reactor, or
//! `Reply::Rpc` onto the shard's link to the router, which is how a
//! shard ([`crate::shard`]) evaluates the router's requests with the
//! engine's semantics: the queue is bounded (`429` when full), queued
//! jobs carry deadlines (`503` when stale), and handler panics are
//! contained (`500`). A shard's receive thread answers a cache hit
//! itself, so a hit never waits in the queue and neither bound applies
//! to it.
//!
//! `poll(2)` itself is [`dt_hpc::sys`], the workspace's one binding to
//! it, which the TCP transport shares.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dt_hpc::sys::{poll_fds, PollFd, POLLIN, POLLOUT};
use dt_telemetry::MetricsRegistry;

use crate::http::{
    try_parse_request, write_response, HttpReadError, Request, Response, MAX_BODY_BYTES,
};
use crate::server::{ServeConfig, ServeHandle};
use crate::shard::{reply_on, Link};
use crate::ServeError;

/// What the front door's owner and the reactor see of a served
/// application: its drain flag and its counters.
pub(crate) trait Control: Send + Sync + 'static {
    /// Whether a graceful drain has been requested.
    fn shutdown_requested(&self) -> bool;
    /// Begin a graceful drain (a router drains its shards first).
    fn shutdown(&self);
    /// The counter registry (`connections_admitted` etc. live here).
    fn metrics(&self) -> &MetricsRegistry;
}

/// What workers serve: one request in, one response out.
/// [`crate::api::AppState`] (a shard or standalone server) implements it.
pub(crate) trait App: Control {
    /// Handle one parsed request.
    fn handle(&self, req: &Request) -> Response;
}

/// Where the reactor sends a complete request and gets its answer back:
/// the worker pool ([`Pool`]) or the router's shard links.
pub(crate) trait Backend {
    /// Take connection `token`'s request.
    fn submit(&mut self, token: u64, req: Request) -> Admit;
    /// Append the descriptors this backend waits on to the poll set.
    fn poll_set(&self, fds: &mut Vec<PollFd>);
    /// After each poll, `fds` being the ones it appended: push every
    /// answer that is ready.
    fn ready(&mut self, fds: &[PollFd], done: &mut Vec<Completion>);
    /// The application asked to drain: begin what must finish before the
    /// front door closes.
    fn drain(&mut self) {}
    /// Whether work the front door's close must wait for, owed to no
    /// connection, is still in flight (a router's own shard drain).
    fn busy(&self) -> bool {
        false
    }
    /// The front door has closed: finish what is queued.
    fn finish(self)
    where
        Self: Sized,
    {
    }
}

/// What [`Backend::submit`] did with a request.
pub(crate) enum Admit {
    /// Taken: its answer comes through [`Backend::ready`].
    Queued,
    /// Answered at once.
    Now(Response),
    /// Refused: the backend holds as many requests as it may (`429`).
    Full,
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
    /// To the router, over the shard's link, tagged `req_id`.
    Rpc { req_id: u64, link: Link },
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
            Reply::Rpc { req_id, link } => reply_on(&link, req_id, &response),
        }
    }
}

/// A finished response on its way to connection `token`.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) response: Response,
    /// Close the connection once it is written.
    pub(crate) close: bool,
}

/// The workers' way back to the reactor: a completion channel plus a
/// self-pipe write end to interrupt `poll`.
#[derive(Clone)]
pub(crate) struct Completions {
    tx: Sender<Completion>,
    wake: Arc<UnixStream>,
}

/// The bounded job queue: one condvar wakes one worker per job.
struct JobQueue {
    /// The queued jobs, and whether the queue is closed.
    state: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    depth: usize,
}

impl JobQueue {
    /// Queue `job`; `false` (and the job dropped) when `depth` jobs
    /// already wait.
    fn push(&self, job: Job) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.0.len() >= self.depth {
            return false;
        }
        state.0.push_back(job);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// The oldest job, blocking until one comes; `None` once the queue is
    /// closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        self.ready.notify_all();
    }
}

/// The worker pool: `N` threads taking jobs off one bounded queue.
/// Dropping it closes the queue without waiting; [`Workers::finish`]
/// also waits.
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
            queue: Arc::new(JobQueue {
                state: Mutex::new((VecDeque::with_capacity(queue_depth), false)),
                ready: Condvar::new(),
                depth: queue_depth,
            }),
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

    /// Queue `job` for a worker; `false` (and the job dropped) when
    /// `queue_depth` jobs already wait.
    pub(crate) fn submit(&self, job: Job) -> bool {
        self.queue.push(job)
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

/// One worker's whole life: answer jobs until the queue closes and is
/// empty.
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

/// The worker pool as a reactor backend: requests go to the bounded
/// queue, and answers come back over the completion channel, whose
/// self-pipe wakes the reactor.
pub(crate) struct Pool {
    workers: Workers,
    to: Completions,
    done: Receiver<Completion>,
    wake_rx: UnixStream,
}

impl Pool {
    /// Start `cfg.workers` workers answering `app`'s requests.
    ///
    /// # Errors
    /// Those of [`Workers::start`], or a self-pipe that cannot be made.
    pub(crate) fn start(app: Arc<dyn App>, cfg: &ServeConfig) -> Result<Pool, ServeError> {
        let workers = Workers::start(app, cfg.workers, cfg.queue_depth, cfg.queue_deadline)?;
        let pipe_err = |e: std::io::Error| ServeError::Bind {
            addr: cfg.addr.clone(),
            message: e.to_string(),
        };
        let (wake_rx, wake_tx) = UnixStream::pair().map_err(pipe_err)?;
        wake_rx.set_nonblocking(true).map_err(pipe_err)?;
        wake_tx.set_nonblocking(true).map_err(pipe_err)?;
        let (tx, done) = channel();
        Ok(Pool {
            workers,
            to: Completions {
                tx,
                wake: Arc::new(wake_tx),
            },
            done,
            wake_rx,
        })
    }
}

impl Backend for Pool {
    fn submit(&mut self, token: u64, req: Request) -> Admit {
        let job = Job {
            req,
            enqueued: Instant::now(),
            reply: Reply::Conn {
                token,
                to: self.to.clone(),
            },
        };
        if self.workers.submit(job) {
            Admit::Queued
        } else {
            Admit::Full
        }
    }

    fn poll_set(&self, fds: &mut Vec<PollFd>) {
        fds.push(PollFd {
            fd: self.wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
    }

    fn ready(&mut self, fds: &[PollFd], done: &mut Vec<Completion>) {
        // Drain the wake pipe's bytes; the completions follow.
        if fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            while let Ok(n) = (&self.wake_rx).read(&mut sink) {
                if n < sink.len() {
                    break;
                }
            }
        }
        done.extend(self.done.try_iter());
    }

    fn finish(self) {
        self.workers.finish();
    }
}

/// Write as much of `buf[*pos..]` as `stream` takes without blocking;
/// `false` when the connection failed.
pub(crate) fn write_some(stream: &TcpStream, buf: &[u8], pos: &mut usize) -> bool {
    while *pos < buf.len() {
        match (&*stream).write(&buf[*pos..]) {
            Ok(0) => return false,
            Ok(n) => *pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// One accepted connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by the parser.
    rbuf: Vec<u8>,
    /// Serialized response bytes not yet written, from `wpos` on.
    wbuf: Vec<u8>,
    wpos: usize,
    /// A request from this connection is with the backend.
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
    /// Returns `false` when the connection is done with: its transport
    /// failed, or the whole response is out and it closes after it.
    fn send_response(&mut self, response: &Response, close: bool) -> bool {
        self.wbuf.clear();
        self.wpos = 0;
        write_response(&mut self.wbuf, response, close).expect("Vec write is infallible");
        self.close_after_write = self.close_after_write || close;
        self.flush_some() && (self.write_pending() || !self.close_after_write)
    }

    /// Write as much of `wbuf` as the socket accepts without blocking.
    fn flush_some(&mut self) -> bool {
        write_some(&self.stream, &self.wbuf, &mut self.wpos)
    }

    /// A connection with nothing with the backend and nothing to write —
    /// safe to close during a drain.
    fn idle(&self) -> bool {
        !self.in_flight && !self.write_pending()
    }
}

/// Keep per-connection read buffers bounded even when a client
/// pipelines aggressively while a request is in flight.
const READ_HIGH_WATER: usize = 256 * 1024;

/// Bind `addr` and spawn the reactor thread over `backend`, which it
/// finishes once it has drained.
pub(crate) fn start_engine<B: Backend + Send + 'static>(
    control: Arc<dyn Control>,
    addr: &str,
    mut backend: B,
) -> Result<ServeHandle, ServeError> {
    let bind_err = |e: std::io::Error| ServeError::Bind {
        addr: addr.to_string(),
        message: e.to_string(),
    };
    let listener = TcpListener::bind(addr).map_err(bind_err)?;
    let local = listener.local_addr().map_err(bind_err)?;
    listener.set_nonblocking(true).map_err(bind_err)?;
    let reactor_control = Arc::clone(&control);
    let reactor = std::thread::Builder::new()
        .name("dt-serve-reactor".into())
        .spawn(move || {
            reactor_loop(listener, &*reactor_control, &mut backend);
            backend.finish();
        })
        .map_err(bind_err)?;
    Ok(ServeHandle {
        control,
        addr: local,
        reactor,
    })
}

/// The poll loop: the reactor's whole life.
#[allow(clippy::too_many_lines)]
fn reactor_loop<B: Backend>(listener: TcpListener, control: &dyn Control, backend: &mut B) {
    let admitted = control.metrics().counter("connections_admitted");
    let rejected = control.metrics().counter("queue_rejections");
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut draining = false;
    let mut done = Vec::new();

    loop {
        // ---- the poll set: the backend's, the listener, every conn ----
        let mut fds = Vec::with_capacity(conns.len() + 4);
        backend.poll_set(&mut fds);
        let own = fds.len();
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
        // /v1/shutdown flag flip) and backend deadlines are noticed
        // promptly.
        if poll_fds(&mut fds, 25).is_err() {
            // poll(2) failing outright is unrecoverable for this
            // reactor; drop everything rather than spin.
            return;
        }
        let closing = draining || control.shutdown_requested();

        // ---- the backend's answers: fill write buffers ----
        backend.ready(&fds[..own], &mut done);
        let mut dead: Vec<u64> = Vec::new();
        for comp in done.drain(..) {
            let Some(conn) = conns.get_mut(&comp.token) else {
                continue; // connection vanished while the backend worked
            };
            conn.in_flight = false;
            if !conn.send_response(&comp.response, comp.close || closing) {
                dead.push(comp.token);
            } else if !conn.write_pending() {
                // Response fully flushed: a pipelined request may
                // already be buffered.
                dispatch(comp.token, conn, backend, &rejected, closing, &mut dead);
            }
        }

        // ---- new connections ----
        if listener.is_some() && fds.get(own).is_some_and(|f| f.revents & POLLIN != 0) {
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
                    dispatch(token, conn, backend, &rejected, closing, &mut dead);
                }
            }
            // POLLERR/POLLHUP with nothing in flight: the peer is gone.
            if revents & POLLIN == 0 && revents & POLLOUT == 0 && conn.idle() {
                dead.push(token);
            }
        }

        for token in dead.drain(..) {
            if let Some(conn) = conns.remove(&token) {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
        }

        // ---- drain ----
        if !draining && control.shutdown_requested() {
            draining = true;
            listener = None; // closes the listen socket: connects now fail
            backend.drain();
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
            if conns.is_empty() && !backend.busy() {
                return;
            }
        }
    }
}

/// Pull the bytes that are ready into `conn.rbuf`. Returns `false`
/// when the connection died mid-read with nothing in flight.
///
/// A read that leaves room in its chunk has taken all the socket held,
/// so it is the last: `poll(2)` is level-triggered and reports whatever
/// comes later, and the read that could only say `EAGAIN` is never made.
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
                if n < chunk.len() || conn.rbuf.len() >= READ_HIGH_WATER {
                    return true;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return conn.in_flight || conn.write_pending(),
        }
    }
}

/// Parse the requests buffered on `conn` and hand them to the backend,
/// one at a time: until one is queued, or a response is still being
/// written. Answers that come at once (a router's own endpoints, `429`,
/// protocol errors) are written here; `closing` closes the connection
/// after its answer.
fn dispatch(
    token: u64,
    conn: &mut Conn,
    backend: &mut impl Backend,
    rejected: &dt_telemetry::Counter,
    closing: bool,
    dead: &mut Vec<u64>,
) {
    while !conn.protocol_dead && !conn.in_flight && !conn.write_pending() {
        let (response, close) = match try_parse_request(&conn.rbuf, MAX_BODY_BYTES) {
            Ok(None) => {
                if conn.eof {
                    dead.push(token);
                }
                return;
            }
            Ok(Some((req, consumed))) => {
                conn.rbuf.drain(..consumed);
                let close = req.wants_close() || closing;
                match backend.submit(token, req) {
                    Admit::Queued => {
                        conn.in_flight = true;
                        return;
                    }
                    Admit::Now(response) => (response, close),
                    Admit::Full => {
                        rejected.inc();
                        conn.protocol_dead = true;
                        (Response::error(429, "service saturated, retry later"), true)
                    }
                }
            }
            // Framing is unreliable after a protocol error: answer and
            // close, exactly like the blocking engine did.
            Err(e) => {
                conn.protocol_dead = true;
                let status = match e {
                    HttpReadError::BodyTooLarge { .. } => 413,
                    HttpReadError::HeadersTooLarge => 431,
                    HttpReadError::Unsupported(_) => 501,
                    HttpReadError::Malformed(_) => 400,
                };
                (Response::error(status, &e.to_string()), true)
            }
        };
        if !conn.send_response(&response, close) {
            dead.push(token);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every request with its own target, once `hold` is free;
    /// `started` hears of each request as its handling begins.
    struct Echo {
        metrics: MetricsRegistry,
        started: Mutex<Sender<()>>,
        hold: Mutex<()>,
    }

    impl Echo {
        fn new() -> (Arc<Echo>, Receiver<()>) {
            let (started, starts) = channel();
            let echo = Echo {
                metrics: MetricsRegistry::new(),
                started: Mutex::new(started),
                hold: Mutex::new(()),
            };
            (Arc::new(echo), starts)
        }
    }

    impl App for Echo {
        fn handle(&self, req: &Request) -> Response {
            let _ = self.started.lock().unwrap().send(());
            drop(self.hold.lock().unwrap());
            Response::json(200, req.target.clone())
        }
    }

    impl Control for Echo {
        fn shutdown_requested(&self) -> bool {
            false
        }
        fn shutdown(&self) {}
        fn metrics(&self) -> &MetricsRegistry {
            &self.metrics
        }
    }

    fn echo_workers(workers: usize, queue_depth: usize) -> Workers {
        Workers::start(Echo::new().0, workers, queue_depth, Duration::from_secs(60)).unwrap()
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
        let (to, rx, _wake) = completions();
        let (echo, starts) = Echo::new();
        let held = echo.hold.lock().unwrap();
        let workers = Workers::start(echo.clone(), 1, 2, Duration::from_secs(60)).unwrap();
        assert!(workers.submit(job(1, &to)));
        // The one worker has taken job 1 and waits on the hold.
        starts.recv().unwrap();
        assert!(workers.submit(job(2, &to)));
        assert!(workers.submit(job(3, &to)));
        assert!(!workers.submit(job(4, &to)), "a full queue refuses at once");
        drop(held);
        workers.finish();
        let order: Vec<u64> = rx.try_iter().map(|c| c.token).collect();
        assert_eq!(order, [1, 2, 3], "answered in queue order");
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
