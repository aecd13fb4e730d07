//! The router tier: one HTTP front door for a fleet of shards.
//!
//! The router runs the same readiness-driven engine as the standalone
//! server ([`crate::reactor`]) but with a different application behind
//! it: instead of evaluating thermodynamics locally, it consistent-
//! hashes the artifact id in each request onto a shard
//! ([`crate::ring::HashRing`]) and forwards the request over the dt-hpc
//! mesh (rank 0 = router, ranks `1..=N` = shards; see [`crate::shard`]
//! for the wire protocol). Fan-out endpoints (`/metrics`,
//! `/v1/artifacts`, `/v1/shutdown`) query every live shard and merge.
//!
//! Failure routing is slice-local by construction: a dead shard turns
//! *its* keys into `503 shard down` while every other slice keeps
//! serving — the property the fleet integration tests pin down.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dt_hpc::{CommError, TcpRendezvous, TcpTransport, Transport};
use dt_telemetry::{parse_json, push_f64, push_json_string, JsonValue, MetricsRegistry};

use crate::api::no_route;
use crate::artifact::ArtifactRegistry;
use crate::http::{serialize_request, Request, Response};
use crate::reactor::{start_engine, App};
use crate::ring::HashRing;
use crate::server::{ServeConfig, ServeHandle, ServeStats};
use crate::shard::{
    decode_response, encode_rpc, run_shard, ShardConfig, ShardStats, OP_DRAIN, OP_HTTP, TAG_REQ,
};
use crate::ServeError;

/// Tuning for the router tier.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The HTTP front-door engine configuration (listen address,
    /// workers, queue depth, ...).
    pub serve: ServeConfig,
    /// How long one router→shard RPC may take before the client gets
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

/// Shared router state: the mesh, the ring, and request-id allocation.
struct RouterState {
    transport: Arc<TcpTransport>,
    ring: HashRing,
    /// Response tags; starts at 1 and stays far below [`TAG_REQ`].
    next_id: AtomicU64,
    metrics: MetricsRegistry,
    draining: AtomicBool,
    started: Instant,
    rpc_deadline: Duration,
}

impl RouterState {
    fn shards(&self) -> usize {
        self.ring.shards()
    }

    fn live_shards(&self) -> usize {
        (1..=self.shards())
            .filter(|&r| self.transport.is_alive(r))
            .count()
    }

    /// One RPC to shard `rank` (1-based): send, await the reply tagged
    /// with our request id, decode. Every failure maps to the gateway
    /// status a client of a broken backend expects.
    fn rpc(&self, rank: usize, op: u8, raw: &[u8]) -> Response {
        if !self.transport.is_alive(rank) {
            self.metrics.counter("route_shard_down").inc();
            return Response::error(503, &format!("shard {} is down", rank - 1));
        }
        let req_id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.transport
            .send(rank, TAG_REQ, encode_rpc(req_id, op, raw), None);
        match self.transport.recv_timeout(rank, req_id, self.rpc_deadline) {
            Ok(payload) => decode_response(&payload).unwrap_or_else(|| {
                self.metrics.counter("route_bad_frames").inc();
                Response::error(502, "undecodable shard response")
            }),
            Err(CommError::RankDead(_)) => {
                self.metrics.counter("route_shard_down").inc();
                Response::error(503, &format!("shard {} died mid-request", rank - 1))
            }
            Err(_) => {
                self.metrics.counter("route_timeouts").inc();
                Response::error(504, &format!("shard {} timed out", rank - 1))
            }
        }
    }

    /// Forward `req` to the shard owning its artifact id, tagging the
    /// reply with which shard served it.
    fn forward(&self, req: &Request) -> Response {
        let shard = match extract_artifact_id(&req.body) {
            Some(id) => self.ring.shard_for(&id),
            // No parseable id: any shard produces the right 4xx. Prefer
            // a live one so malformed bodies still get their 400 while
            // part of the fleet is down.
            None => (0..self.shards())
                .find(|&s| self.transport.is_alive(s + 1))
                .unwrap_or(0),
        };
        self.metrics.counter("route_forwarded").inc();
        let mut resp = self.rpc(shard + 1, OP_HTTP, &serialize_request(req));
        resp.extra_headers.push(("x-shard", shard.to_string()));
        resp
    }

    fn healthz(&self) -> Response {
        let mut body = String::from("{\"status\":");
        push_json_string(
            &mut body,
            if self.draining.load(Ordering::SeqCst) {
                "draining"
            } else {
                "ok"
            },
        );
        body.push_str(&format!(
            ",\"role\":\"router\",\"shards\":{},\"live_shards\":{},\"uptime_s\":",
            self.shards(),
            self.live_shards()
        ));
        push_f64(&mut body, self.started.elapsed().as_secs_f64());
        body.push('}');
        Response::json(200, body)
    }

    /// Fan out `GET /metrics`, summing every shard's counters into one
    /// fleet-wide view and embedding each shard's full snapshot.
    fn metrics_fanout(&self) -> Response {
        let mut fleet: BTreeMap<String, u64> = BTreeMap::new();
        let mut shard_sections = Vec::new();
        for shard in 0..self.shards() {
            let rank = shard + 1;
            if !self.transport.is_alive(rank) {
                shard_sections.push(format!("{{\"shard\":{shard},\"status\":\"down\"}}"));
                continue;
            }
            let resp = self.rpc(rank, OP_HTTP, b"GET /metrics HTTP/1.1\r\n\r\n");
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
        let mut body = String::from("{\"router\":{\"counters\":{");
        for (i, (name, value)) in self.metrics.counter_values().iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_json_string(&mut body, name);
            body.push_str(&format!(":{value}"));
        }
        body.push_str("}},\"fleet_counters\":{");
        for (i, (name, value)) in fleet.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_json_string(&mut body, name);
            body.push_str(&format!(":{value}"));
        }
        body.push_str(&format!("}},\"shards\":[{}]}}", shard_sections.join(",")));
        Response::json(200, body)
    }

    /// Fan out `GET /v1/artifacts` and splice the slices back into one
    /// flat listing, so the fleet presents as one big registry.
    fn artifacts_fanout(&self) -> Response {
        let mut count = 0u64;
        let mut slices = Vec::new();
        for shard in 0..self.shards() {
            let resp = self.rpc(shard + 1, OP_HTTP, b"GET /v1/artifacts HTTP/1.1\r\n\r\n");
            if resp.status != 200 {
                // A down shard hides its slice; the listing stays
                // partial rather than failing wholesale.
                continue;
            }
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

    /// Drain the whole fleet: flip our own flag first (the front door
    /// stops accepting immediately), then ask every live shard to drain
    /// and collect its summary. The reply goes out only after every
    /// reachable shard has reported drained.
    fn fleet_shutdown(&self) -> Response {
        let already = self.draining.swap(true, Ordering::SeqCst);
        if already {
            return Response::json(200, "{\"status\":\"draining\"}");
        }
        let mut summaries = Vec::new();
        for shard in 0..self.shards() {
            let rank = shard + 1;
            if !self.transport.is_alive(rank) {
                summaries.push(format!("{{\"shard\":{shard},\"status\":\"down\"}}"));
                continue;
            }
            let resp = self.rpc(rank, OP_DRAIN, &[]);
            if resp.status == 200 {
                summaries.push(format!("{{\"shard\":{shard},\"drained\":{}}}", resp.body));
            } else {
                summaries.push(format!("{{\"shard\":{shard},\"status\":\"unreachable\"}}"));
            }
        }
        let mut body = format!(
            "{{\"status\":\"draining\",\"router\":{{\"requests_total\":{},\"route_forwarded\":{},\"uptime_s\":",
            self.metrics.counter("requests_total").get(),
            self.metrics.counter("route_forwarded").get(),
        );
        push_f64(&mut body, self.started.elapsed().as_secs_f64());
        body.push_str(&format!("}},\"shards\":[{}]}}", summaries.join(",")));
        Response::json(200, body)
    }

    fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.target.as_str()) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/metrics") => self.metrics_fanout(),
            ("GET", "/v1/artifacts") => self.artifacts_fanout(),
            ("POST", "/v1/thermo" | "/v1/sro" | "/v1/predict") => self.forward(req),
            ("POST", "/v1/shutdown") => self.fleet_shutdown(),
            _ => no_route(req),
        }
    }
}

impl App for RouterState {
    fn handle(&self, req: &Request) -> Response {
        self.metrics.counter("requests_total").inc();
        let resp = self.route(req);
        if resp.status >= 500 {
            self.metrics.counter("responses_5xx").inc();
        } else if resp.status >= 400 {
            self.metrics.counter("responses_4xx").inc();
        }
        resp
    }

    fn shutdown_requested(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Shards first, then the front door — the same path as
    /// `POST /v1/shutdown`.
    fn shutdown(&self) {
        let _ = self.fleet_shutdown();
    }

    fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
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
    /// Start the HTTP engine over an already-connected fleet mesh.
    /// `transport` must be rank 0 of a `(shards + 1)`-size transport.
    /// The returned handle's [`ServeHandle::shutdown`] drains every
    /// shard before the front door; its [`ServeHandle::join`] reports
    /// the front door's stats (shards exit on their own once drained,
    /// or once the router's transport drops).
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] when called off rank 0 or with no
    /// shards; engine bind/config errors otherwise.
    pub fn start(transport: TcpTransport, config: RouterConfig) -> Result<ServeHandle, ServeError> {
        if transport.rank() != 0 {
            return Err(ServeError::BadConfig(
                "the router must be rank 0 of the fleet mesh".into(),
            ));
        }
        if transport.size() < 2 {
            return Err(ServeError::BadConfig(
                "a fleet needs at least one shard".into(),
            ));
        }
        let state = Arc::new(RouterState {
            ring: HashRing::new(transport.size() - 1),
            transport: Arc::new(transport),
            next_id: AtomicU64::new(0),
            metrics: MetricsRegistry::new(),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            rpc_deadline: config.rpc_deadline,
        });
        start_engine(state, &config.serve)
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

    /// Abruptly kill shard `index` (0-based): its thread exits without
    /// draining or replying, tearing down its mesh connections. Within
    /// the transport's failure-detection window the router will answer
    /// `503` for that slice only.
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
