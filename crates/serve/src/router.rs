//! The router tier: one HTTP front door for a fleet of shards.
//!
//! The router runs the same readiness-driven event loop as the
//! standalone server ([`crate::reactor`]), but with its shard links as
//! the backend instead of a worker pool: it consistent-hashes the
//! artifact id in each request onto a shard ([`crate::ring::HashRing`])
//! and writes the request frame to that shard's socket (rank 0 = router,
//! ranks `1..=N` = shards; see [`crate::shard`] for the wire protocol).
//! The shard sockets sit in the reactor's one `poll(2)` set: the router
//! routes on the reactor thread, writes each frame from a per-link buffer
//! under `POLLOUT`, and hands a reply frame to the connection waiting on
//! its `req_id`. It has no threads of its own. Fan-out endpoints
//! (`/metrics`, `/v1/artifacts`, `/v1/shutdown`) ask every live shard at
//! once and merge once the last has answered.
//!
//! Failure routing is slice-local by construction: a dead shard — seen
//! at its own socket's end — turns *its* keys into `503 shard down`
//! while every other slice keeps serving, the property the fleet
//! integration tests pin down. A shard that has not answered by
//! [`RouterConfig::rpc_deadline`] costs its request `504` (its late reply
//! is dropped), a reply that does not decode costs it `502`, and a frame
//! header over its bound ends that shard's link.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dt_hpc::sys::{PollFd, POLLIN, POLLOUT};
use dt_hpc::tcp::{encode_frame, FrameDecoder};
use dt_hpc::{TcpRendezvous, TcpTransport, Transport};
use dt_telemetry::{parse_json, push_f64, push_json_string, JsonValue, MetricsRegistry};

use crate::api::no_route;
use crate::artifact::ArtifactRegistry;
use crate::http::{serialize_request, Request, Response};
use crate::reactor::{start_engine, write_some, Admit, Backend, Completion, Control};
use crate::ring::HashRing;
use crate::server::{ServeConfig, ServeHandle, ServeStats};
use crate::shard::{
    encode_rpc, run_shard, take_response, ShardConfig, ShardStats, OP_DRAIN, OP_HTTP, TAG_REQ,
};
use crate::ServeError;

/// Tuning for the router tier.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The HTTP front-door configuration: listen address, and the
    /// `queue_depth` of requests in flight to shards (a router has no
    /// workers, so it ignores `workers` and `queue_deadline`).
    pub serve: ServeConfig,
    /// How long a request may wait on shards before the client gets
    /// `504 Gateway Timeout`.
    pub rpc_deadline: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            serve: ServeConfig::default(),
            rpc_deadline: Duration::from_secs(10),
        }
    }
}

/// What the router's owner shares with its reactor: the counters and the
/// drain flag.
struct Shared {
    metrics: MetricsRegistry,
    draining: AtomicBool,
}

impl Control for Shared {
    fn shutdown_requested(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Shards first, then the front door: the reactor sees the flag and
    /// drains the shards, the same path as `POST /v1/shutdown`.
    fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

/// The router's socket to one shard.
struct Link {
    stream: TcpStream,
    frames: FrameDecoder,
    /// Request frames not yet written, from `sent` on.
    out: Vec<u8>,
    sent: usize,
    /// The socket has ended: the shard is gone for good.
    down: bool,
}

/// What a request asks of shards.
enum Ask {
    /// The shard owning the request's artifact, with the request.
    Forward(usize, Vec<u8>),
    Metrics,
    Artifacts,
    Shutdown,
}

impl Ask {
    /// The op and raw request it sends.
    fn request(&self) -> (u8, &[u8]) {
        match self {
            Ask::Forward(_, raw) => (OP_HTTP, raw),
            Ask::Metrics => (OP_HTTP, b"GET /metrics HTTP/1.1\r\n\r\n"),
            Ask::Artifacts => (OP_HTTP, b"GET /v1/artifacts HTTP/1.1\r\n\r\n"),
            Ask::Shutdown => (OP_DRAIN, b""),
        }
    }
}

/// A request waiting on shards.
struct Call {
    /// The connection it answers, and whether to close that after;
    /// `None` for the router's own drain.
    to: Option<(u64, bool)>,
    ask: Ask,
    /// Each asked shard and its answer, `None` while owed.
    replies: Vec<(usize, Option<Response>)>,
    deadline: Instant,
}

/// The router's backend on the reactor thread: the shard links and the
/// requests waiting on them.
struct Shards {
    shared: Arc<Shared>,
    ring: HashRing,
    links: Vec<Link>,
    /// Requests waiting on shards, by `req_id`; the reply to `req_id`
    /// from shard `s` fills that call's slot for `s`.
    calls: HashMap<u64, Call>,
    /// The last `req_id` handed out; ids stay far below [`TAG_REQ`].
    last_id: u64,
    /// Whether the shards have been asked to drain.
    drain_asked: bool,
    started: Instant,
    rpc_deadline: Duration,
    queue_depth: usize,
}

impl Shards {
    fn live_shards(&self) -> usize {
        self.links.iter().filter(|l| !l.down).count()
    }

    /// What to ask of shards for `req`, or the router's own answer.
    /// Nothing changes here but the drain flag, so a panic while routing
    /// costs only this request.
    fn route(&self, req: &Request) -> Result<Ask, Response> {
        match (req.method.as_str(), req.target.as_str()) {
            ("GET", "/healthz") => Err(self.healthz()),
            ("GET", "/metrics") => Ok(Ask::Metrics),
            ("GET", "/v1/artifacts") => Ok(Ask::Artifacts),
            ("POST", "/v1/thermo" | "/v1/sro" | "/v1/predict") => {
                let shard = match extract_artifact_id(&req.body) {
                    Some(id) => self.ring.shard_for(&id),
                    // No parseable id: any shard produces the right 4xx.
                    // Prefer a live one so malformed bodies still get
                    // their 400 while part of the fleet is down.
                    None => (0..self.links.len())
                        .find(|&s| !self.links[s].down)
                        .unwrap_or(0),
                };
                Ok(Ask::Forward(shard, serialize_request(req)))
            }
            // The first shutdown asks the shards; later ones only hear
            // that the fleet is draining.
            ("POST", "/v1/shutdown") if self.shared.draining.swap(true, Ordering::SeqCst) => {
                Err(Response::json(200, "{\"status\":\"draining\"}"))
            }
            ("POST", "/v1/shutdown") => Ok(Ask::Shutdown),
            _ => Err(no_route(req)),
        }
    }

    fn healthz(&self) -> Response {
        let status = if self.shared.shutdown_requested() {
            "draining"
        } else {
            "ok"
        };
        let mut body = format!(
            "{{\"status\":\"{status}\",\"role\":\"router\",\"shards\":{},\"live_shards\":{},\"uptime_s\":",
            self.links.len(),
            self.live_shards()
        );
        push_f64(&mut body, self.started.elapsed().as_secs_f64());
        body.push('}');
        Response::json(200, body)
    }

    /// Send `ask` to its shards, as the call that answers `to`. Its
    /// answer, when no shard is left to wait on.
    fn call(&mut self, to: Option<(u64, bool)>, ask: Ask) -> Option<Response> {
        self.last_id += 1;
        let id = self.last_id;
        let (op, raw) = ask.request();
        let frame = encode_frame(TAG_REQ, 0, &encode_rpc(id, op, raw));
        let asked = match ask {
            Ask::Forward(shard, _) => shard..shard + 1,
            _ => 0..self.links.len(),
        };
        let call = Call {
            to,
            ask,
            replies: asked.clone().map(|s| (s, None)).collect(),
            deadline: Instant::now() + self.rpc_deadline,
        };
        self.calls.insert(id, call);
        for s in asked {
            if self.links[s].down {
                self.fail(s, 503, "is down", "route_shard_down");
            } else {
                self.links[s].out.extend_from_slice(&frame);
                self.flush(s);
            }
        }
        self.finish(id).map(|(_, resp)| resp)
    }

    /// Write what shard `s`'s socket takes of its frames without
    /// blocking.
    fn flush(&mut self, s: usize) {
        let link = &mut self.links[s];
        if !write_some(&link.stream, &link.out, &mut link.sent) {
            return self.lose(s, 503, "died mid-request", "route_shard_down");
        }
        if link.sent == link.out.len() {
            link.out.clear();
            link.sent = 0;
        }
    }

    /// Answer every request still waiting on shard `s` with `status`,
    /// counting each in `counter`.
    fn fail(&mut self, s: usize, status: u16, why: &str, counter: &'static str) {
        for call in self.calls.values_mut() {
            for (_, slot) in call
                .replies
                .iter_mut()
                .filter(|r| r.0 == s && r.1.is_none())
            {
                self.shared.metrics.counter(counter).inc();
                *slot = Some(Response::error(status, &format!("shard {s} {why}")));
            }
        }
    }

    /// Shard `s`'s socket has ended: [`Self::fail`] what waits on it, and
    /// never ask it again.
    fn lose(&mut self, s: usize, status: u16, why: &str, counter: &'static str) {
        let link = &mut self.links[s];
        link.down = true;
        link.out = Vec::new();
        let _ = link.stream.shutdown(std::net::Shutdown::Both);
        self.fail(s, status, why, counter);
    }

    /// Read what shard `s` sent, and hand each reply to its call. A reply
    /// nobody waits for any more (its request timed out) is dropped. A
    /// read that leaves room in the decoder has taken all the socket held
    /// and is the last, as in [`crate::reactor`]'s client reads.
    fn read(&mut self, s: usize) {
        loop {
            let link = &mut self.links[s];
            let mut socket = Measured {
                stream: &link.stream,
                offered: 0,
            };
            let filled = match link.frames.read_from(&mut socket) {
                Ok(0) => return self.lose(s, 503, "died mid-request", "route_shard_down"),
                Ok(n) => n == socket.offered,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => true,
                Err(_) => return self.lose(s, 503, "died mid-request", "route_shard_down"),
            };
            loop {
                let frame = match self.links[s].frames.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    // Nothing after a header over its bound is framed.
                    Err(_) => return self.lose(s, 502, "sent a bad frame", "route_bad_frames"),
                };
                let slot = self
                    .calls
                    .get_mut(&frame.tag)
                    .and_then(|call| call.replies.iter_mut().find(|r| r.0 == s && r.1.is_none()));
                if let Some((_, slot)) = slot {
                    *slot = Some(take_response(frame.payload).unwrap_or_else(|| {
                        self.shared.metrics.counter("route_bad_frames").inc();
                        Response::error(502, "undecodable shard response")
                    }));
                }
            }
            if !filled {
                return;
            }
        }
    }

    /// Call `id`, with its response, once every shard it asked has
    /// answered.
    fn finish(&mut self, id: u64) -> Option<(Option<(u64, bool)>, Response)> {
        if self.calls[&id].replies.iter().any(|r| r.1.is_none()) {
            return None;
        }
        let call = self.calls.remove(&id)?;
        let mut replies = call
            .replies
            .into_iter()
            .map(|(s, r)| (s, r.expect("answered")));
        let resp = match call.ask {
            Ask::Forward(shard, _) => {
                let (_, mut resp) = replies.next().expect("one shard asked");
                resp.extra_headers.push(("x-shard", shard.to_string()));
                resp
            }
            Ask::Metrics => self.merge_metrics(replies),
            Ask::Artifacts => {
                let mut count = 0u64;
                let mut slices = Vec::new();
                // A down shard hides its slice; the listing stays partial
                // rather than failing wholesale.
                for (_, resp) in replies.filter(|r| r.1.status == 200) {
                    if let Ok(v) = parse_json(&resp.body) {
                        count += v.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
                    }
                    // Our own canonical body shape: {"count":N,"artifacts":[...]}.
                    if let (Some(start), Some(end)) =
                        (resp.body.find("\"artifacts\":["), resp.body.rfind(']'))
                    {
                        let inner = &resp.body[start + "\"artifacts\":[".len()..end];
                        if !inner.is_empty() {
                            slices.push(inner.to_string());
                        }
                    }
                }
                Response::json(
                    200,
                    format!(
                        "{{\"count\":{count},\"live_shards\":{},\"artifacts\":[{}]}}",
                        self.live_shards(),
                        slices.join(",")
                    ),
                )
            }
            Ask::Shutdown => {
                let summaries: Vec<String> = replies
                    .map(|(shard, resp)| match resp.status {
                        200 => format!("{{\"shard\":{shard},\"drained\":{}}}", resp.body),
                        503 => format!("{{\"shard\":{shard},\"status\":\"down\"}}"),
                        _ => format!("{{\"shard\":{shard},\"status\":\"unreachable\"}}"),
                    })
                    .collect();
                let metrics = &self.shared.metrics;
                let mut body = format!(
                    "{{\"status\":\"draining\",\"router\":{{\"requests_total\":{},\"route_forwarded\":{},\"uptime_s\":",
                    metrics.counter("requests_total").get(),
                    metrics.counter("route_forwarded").get(),
                );
                push_f64(&mut body, self.started.elapsed().as_secs_f64());
                body.push_str(&format!("}},\"shards\":[{}]}}", summaries.join(",")));
                Response::json(200, body)
            }
        };
        if call.to.is_some() {
            self.count_status(&resp);
        }
        Some((call.to, resp))
    }

    /// Sum every shard's counters into one fleet-wide view and embed
    /// each shard's full snapshot.
    fn merge_metrics(&self, replies: impl Iterator<Item = (usize, Response)>) -> Response {
        let mut fleet: BTreeMap<String, u64> = BTreeMap::new();
        let mut shard_sections = Vec::new();
        for (shard, resp) in replies {
            if resp.status != 200 {
                shard_sections.push(format!("{{\"shard\":{shard},\"status\":\"down\"}}"));
                continue;
            }
            if let Ok(v) = parse_json(&resp.body) {
                if let Some(JsonValue::Object(counters)) = v.get("counters") {
                    for (name, value) in counters {
                        if let Some(n) = value.as_u64() {
                            *fleet.entry(name.clone()).or_insert(0) += n;
                        }
                    }
                }
            }
            shard_sections.push(format!(
                "{{\"shard\":{shard},\"status\":\"up\",\"metrics\":{}}}",
                resp.body
            ));
        }
        let mut body = String::from("{\"router\":{\"counters\":");
        push_counters(&mut body, self.shared.metrics.counter_values());
        body.push_str("},\"fleet_counters\":");
        push_counters(&mut body, fleet);
        body.push_str(&format!(",\"shards\":[{}]}}", shard_sections.join(",")));
        Response::json(200, body)
    }

    /// Count an error answer by its class.
    fn count_status(&self, resp: &Response) {
        match resp.status {
            500.. => self.shared.metrics.counter("responses_5xx").inc(),
            400.. => self.shared.metrics.counter("responses_4xx").inc(),
            _ => {}
        }
    }
}

/// A socket whose reads remember how much room they were offered, so
/// the caller of a read through a [`FrameDecoder`] can tell a short one.
struct Measured<'a> {
    stream: &'a TcpStream,
    offered: usize,
}

impl Read for Measured<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.offered = buf.len();
        self.stream.read(buf)
    }
}

/// Write `counters` as one JSON object.
fn push_counters(body: &mut String, counters: impl IntoIterator<Item = (String, u64)>) {
    body.push('{');
    for (i, (name, value)) in counters.into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        push_json_string(body, &name);
        body.push_str(&format!(":{value}"));
    }
    body.push('}');
}

impl Backend for Shards {
    fn submit(&mut self, token: u64, req: Request) -> Admit {
        let route = catch_unwind(AssertUnwindSafe(|| self.route(&req))).unwrap_or_else(|_| {
            self.shared.metrics.counter("handler_panics").inc();
            Err(Response::error(500, "internal error"))
        });
        if route.is_ok() && self.calls.len() >= self.queue_depth {
            return Admit::Full;
        }
        self.shared.metrics.counter("requests_total").inc();
        let ask = match route {
            Err(resp) => {
                self.count_status(&resp);
                return Admit::Now(resp);
            }
            Ok(ask) => ask,
        };
        if let Ask::Forward(..) = ask {
            self.shared.metrics.counter("route_forwarded").inc();
        }
        self.drain_asked |= matches!(ask, Ask::Shutdown);
        match self.call(Some((token, req.wants_close())), ask) {
            Some(resp) => Admit::Now(resp),
            None => Admit::Queued,
        }
    }

    fn poll_set(&self, fds: &mut Vec<PollFd>) {
        for link in self.links.iter().filter(|l| !l.down) {
            let writing = if link.out.is_empty() { 0 } else { POLLOUT };
            fds.push(PollFd {
                fd: link.stream.as_raw_fd(),
                events: POLLIN | writing,
                revents: 0,
            });
        }
    }

    fn ready(&mut self, fds: &[PollFd], done: &mut Vec<Completion>) {
        // `fds` are the links that were up at `poll_set`, in order.
        let mut polled = fds.iter();
        for s in 0..self.links.len() {
            if self.links[s].down {
                continue;
            }
            let revents = polled.next().map_or(0, |fd| fd.revents);
            if revents & POLLOUT != 0 {
                self.flush(s);
            }
            if revents & !POLLOUT != 0 && !self.links[s].down {
                self.read(s);
            }
        }
        // Answers still owed past the deadline time out.
        let now = Instant::now();
        for call in self.calls.values_mut().filter(|c| c.deadline <= now) {
            for (s, slot) in call.replies.iter_mut().filter(|r| r.1.is_none()) {
                self.shared.metrics.counter("route_timeouts").inc();
                *slot = Some(Response::error(504, &format!("shard {s} timed out")));
            }
        }
        let ids: Vec<u64> = self.calls.keys().copied().collect();
        for id in ids {
            if let Some((Some((token, close)), response)) = self.finish(id) {
                done.push(Completion {
                    token,
                    response,
                    close,
                });
            }
        }
    }

    /// Ask every shard to drain, unless `POST /v1/shutdown` already has.
    fn drain(&mut self) {
        if !std::mem::replace(&mut self.drain_asked, true) {
            self.call(None, Ask::Shutdown);
        }
    }

    fn busy(&self) -> bool {
        self.calls.values().any(|c| c.to.is_none())
    }
}

/// Pull `"artifact":"..."` out of a request body without a full JSON
/// parse on the hot path failing hard: a parse failure just means "no
/// id" and the shard produces the authoritative error.
fn extract_artifact_id(body: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let v = parse_json(text).ok()?;
    v.get("artifact")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
}

/// The router front door. Like [`crate::Server`], a namespace:
/// [`Router::start`] does the work.
pub struct Router;

impl Router {
    /// Open the HTTP front door over an already-connected fleet mesh,
    /// whose shard sockets the router then drives itself. `transport`
    /// must be rank 0 of a `(shards + 1)`-size transport. The returned
    /// handle's [`ServeHandle::shutdown`] drains every shard before the
    /// front door; its [`ServeHandle::join`] reports the front door's
    /// stats (shards exit on their own once drained, or once the
    /// router's sockets close).
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] when called off rank 0, with no shards
    /// or with a zero queue depth; [`ServeError::Bind`] when the front
    /// door or a shard socket cannot be set up.
    pub fn start(transport: TcpTransport, config: RouterConfig) -> Result<ServeHandle, ServeError> {
        if transport.rank() != 0 {
            return Err(ServeError::BadConfig(
                "the router must be rank 0 of the fleet mesh".into(),
            ));
        }
        if transport.size() < 2 || config.serve.queue_depth == 0 {
            return Err(ServeError::BadConfig(
                "a fleet needs at least one shard and a queue depth > 0".into(),
            ));
        }
        let socket_err = |e: std::io::Error| ServeError::Bind {
            addr: "the fleet mesh".into(),
            message: e.to_string(),
        };
        let links = transport
            .into_streams()
            .map_err(socket_err)?
            .into_iter()
            .flatten()
            .map(|stream| {
                stream.set_nonblocking(true)?;
                Ok(Link {
                    stream,
                    frames: FrameDecoder::default(),
                    out: Vec::new(),
                    sent: 0,
                    down: false,
                })
            })
            .collect::<std::io::Result<Vec<Link>>>()
            .map_err(socket_err)?;
        let shared = Arc::new(Shared {
            metrics: MetricsRegistry::new(),
            draining: AtomicBool::new(false),
        });
        let shards = Shards {
            shared: Arc::clone(&shared),
            ring: HashRing::new(links.len()),
            links,
            calls: HashMap::new(),
            last_id: 0,
            drain_asked: false,
            started: Instant::now(),
            rpc_deadline: config.rpc_deadline,
            queue_depth: config.serve.queue_depth,
        };
        start_engine(shared, &config.serve.addr, shards)
    }
}
/// An in-process fleet — router plus `N` shard threads wired over real
/// loopback TCP — for integration tests and benchmarks. Each shard
/// slices the same `registry` by the shared hash ring, exactly as the
/// multi-process deployment does.
pub struct Fleet {
    router: ServeHandle,
    shards: Vec<std::thread::JoinHandle<Result<ShardStats, ServeError>>>,
    kills: Vec<Arc<AtomicBool>>,
}

impl Fleet {
    /// Boot a rendezvous, connect `num_shards` shard threads and the
    /// router, and open the front door.
    ///
    /// # Errors
    /// Rendezvous/bind failures as [`ServeError::Bind`]; any
    /// [`Router::start`] error.
    pub fn launch(
        num_shards: usize,
        registry: &ArtifactRegistry,
        router_config: RouterConfig,
        shard_config: &ShardConfig,
    ) -> Result<Fleet, ServeError> {
        let rendezvous = TcpRendezvous::bind("127.0.0.1:0").map_err(|e| ServeError::Bind {
            addr: "127.0.0.1:0".into(),
            message: e.to_string(),
        })?;
        let addr = rendezvous
            .local_addr()
            .map_err(|e| ServeError::Bind {
                addr: "127.0.0.1:0".into(),
                message: e.to_string(),
            })?
            .to_string();
        let size = num_shards + 1;
        let mut shards = Vec::with_capacity(num_shards);
        let mut kills = Vec::with_capacity(num_shards);
        for rank in 1..=num_shards {
            let kill = Arc::new(AtomicBool::new(false));
            kills.push(Arc::clone(&kill));
            let mut cfg = shard_config.clone();
            cfg.kill = Some(kill);
            let registry = registry.clone();
            let addr = addr.clone();
            shards.push(std::thread::spawn(move || {
                let transport =
                    TcpTransport::connect(&addr, rank, size).map_err(|e| ServeError::Bind {
                        addr: addr.clone(),
                        message: e.to_string(),
                    })?;
                run_shard(transport, registry, &cfg)
            }));
        }
        let transport = rendezvous
            .into_transport(size)
            .map_err(|e| ServeError::Bind {
                addr,
                message: e.to_string(),
            })?;
        let router = Router::start(transport, router_config)?;
        Ok(Fleet {
            router,
            shards,
            kills,
        })
    }

    /// The front-door address.
    pub fn local_addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    /// Abruptly kill shard `index` (0-based): its thread stops receiving
    /// and exits without a drain summary, closing its socket. The router
    /// sees the socket's end and answers `503` for that slice only.
    pub fn kill_shard(&self, index: usize) {
        self.kills[index].store(true, Ordering::SeqCst);
    }

    /// Drain everything and collect stats: the router's engine stats
    /// plus each shard's lifetime stats (`None` for a shard that died
    /// or panicked instead of exiting cleanly).
    pub fn join(self) -> (ServeStats, Vec<Option<ShardStats>>) {
        self.router.shutdown();
        let router_stats = self.router.join();
        let shard_stats = self
            .shards
            .into_iter()
            .map(|h| h.join().ok().and_then(Result::ok))
            .collect();
        (router_stats, shard_stats)
    }
}
