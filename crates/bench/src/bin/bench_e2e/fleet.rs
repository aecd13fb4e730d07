//! The two serving workloads: `serve_hot` and `serve_cold`.
//!
//! Both drive HTTP against an in-process [`Fleet`] (router + 2 shards over
//! loopback TCP) from 2 keep-alive client connections in a **closed
//! loop**: the callers are scripts sweeping temperature grids, which wait
//! for each reply before sending the next request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepthermo::serve::fixture::fixture_artifact;
use deepthermo::serve::http::Request;
use deepthermo::serve::{
    AppState, Artifact, ArtifactRegistry, Fleet, RouterConfig, ServeConfig, Server, ShardConfig,
};
use deepthermo::surrogate::PairCorrelationDescriptor;
use deepthermo::telemetry::{parse_json, JsonValue};

use crate::catalogue::SETUP_FLOOR_S;
use crate::host;
use crate::outcome::{Outcome, RunParams};
use crate::stats::{fnv1a, median, quantile_sorted, SplitMix64, Zipf};
use crate::trace::Tracer;

const SHARDS: usize = 2;
const CLIENTS: usize = 2;
/// The four fixed temperature grids of `serve_hot`: `(t_min, t_max)` K.
const HOT_GRIDS: [(f64, f64); 4] = [
    (300.0, 3000.0),
    (200.0, 2000.0),
    (500.0, 2500.0),
    (100.0, 1500.0),
];
const SRO_POINTS: usize = 32;
const PREDICT_ROWS: usize = 64;
/// One request in a hundred is re-evaluated on a direct `AppState`.
const VERIFY_ONE_IN: usize = 100;

/// Sizes of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// `serve_hot`: repeated keys, every request a cache hit.
    pub hot: bool,
    pub artifacts: usize,
    pub grid_points: usize,
    pub cache: usize,
    /// The timed part is cut into this many segments and the median
    /// segment reported. Sixteen of a second each: the box slows by a third
    /// for a few seconds at a time, which moved the median of five 3.2 s
    /// segments (ten runs of `serve_hot` spread by 19-23 %) and does not
    /// move the median of sixteen.
    pub segments: usize,
    /// `peak_rss_mb` is read when a client completes this many requests of
    /// the timed part (at its end, if it never does). At HEAD the fleet's
    /// resident set grows by about 280 B per request served; read at the
    /// end of a timed part it would measure how many requests the box got
    /// through, and read 31 % higher in an hour in which the box ran 35 %
    /// faster. The counts are what the slowest runs measured here reach.
    pub rss_after: u64,
}

pub fn spec(workload: &str, toy: bool) -> Spec {
    Spec {
        hot: workload == "serve_hot",
        artifacts: if toy { 4 } else { 32 },
        grid_points: if toy { 16 } else { 256 },
        cache: 1024,
        segments: if toy { 2 } else { 16 },
        rss_after: if workload == "serve_hot" {
            30_000
        } else {
            10_000
        },
    }
}

fn keys(spec: &Spec) -> Vec<String> {
    (0..spec.artifacts).map(|i| format!("z{i:02}")).collect()
}

/// Where a request goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Thermo,
    Sro,
    Predict,
}

impl Endpoint {
    fn target(self) -> &'static str {
        match self {
            Endpoint::Thermo => "/v1/thermo",
            Endpoint::Sro => "/v1/sro",
            Endpoint::Predict => "/v1/predict",
        }
    }
}

/// One generated request.
struct Planned {
    endpoint: Endpoint,
    key: usize,
    body: String,
}

impl Planned {
    fn raw(&self) -> Vec<u8> {
        format!(
            "POST {} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            self.endpoint.target(),
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// The seeded request stream of one client.
struct Generator {
    spec: Spec,
    keys: Arc<Vec<String>>,
    zipf: Zipf,
    rng: SplitMix64,
    client: usize,
    issued: u64,
    feature_dim: usize,
}

impl Generator {
    fn new(spec: &Spec, keys: &Arc<Vec<String>>, seed: u64, client: usize) -> Self {
        Generator {
            spec: *spec,
            keys: Arc::clone(keys),
            zipf: Zipf::new(keys.len()),
            rng: SplitMix64::derive(seed, 0x5e17e + client as u64),
            client,
            issued: 0,
            feature_dim: PairCorrelationDescriptor {
                num_species: 4,
                num_shells: 2,
            }
            .dim(),
        }
    }

    fn thermo(&self, key: usize, t_min: f64, t_max: f64) -> Planned {
        Planned {
            endpoint: Endpoint::Thermo,
            key,
            body: format!(
                "{{\"artifact\":\"fixture-{}\",\"t_min\":{t_min},\"t_max\":{t_max},\"num_t\":{}}}",
                self.keys[key], self.spec.grid_points
            ),
        }
    }

    fn next(&mut self) -> Planned {
        let key = self.zipf.pick(&mut self.rng);
        self.issued += 1;
        if self.spec.hot {
            let (t_min, t_max) = HOT_GRIDS[self.rng.below(HOT_GRIDS.len())];
            return self.thermo(key, t_min, t_max);
        }
        // Cold: a grid no other request of this run uses. The stride
        // keeps grids of different (client, index) pairs apart; the
        // seeded jitter below it makes them differ between seeds.
        let unique = (self.issued * CLIENTS as u64 + self.client as u64) as f64 * 1e-3;
        let t_min = 250.0 + unique + self.rng.next_f64() * 1e-4;
        let mix = self.rng.next_f64();
        if mix < 0.7 {
            self.thermo(key, t_min, 3000.0)
        } else if mix < 0.9 {
            Planned {
                endpoint: Endpoint::Sro,
                key,
                body: format!(
                    "{{\"artifact\":\"fixture-{}\",\"t_min\":{t_min},\"t_max\":3000,\"num_t\":{SRO_POINTS}}}",
                    self.keys[key]
                ),
            }
        } else {
            let mut body = format!(
                "{{\"artifact\":\"fixture-{}\",\"features\":[",
                self.keys[key]
            );
            for row in 0..PREDICT_ROWS {
                if row > 0 {
                    body.push(',');
                }
                body.push('[');
                for col in 0..self.feature_dim {
                    if col > 0 {
                        body.push(',');
                    }
                    body.push_str(&format!("{:.6}", self.rng.next_f64()));
                }
                body.push(']');
            }
            body.push_str("]}");
            Planned {
                endpoint: Endpoint::Predict,
                key,
                body,
            }
        }
    }
}

/// The `x-cache` header of a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cache {
    Absent,
    Hit,
    Miss,
    Coalesced,
}

/// One response as the client saw it.
struct Reply {
    status: u16,
    cache: Cache,
    shard: u8,
}

/// A keep-alive client connection.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    body: Vec<u8>,
}

impl Connection {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Connection {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// Send one request and read its response; the body stays in
    /// `self.body` until the next call.
    fn round_trip(&mut self, raw: &[u8]) -> std::io::Result<Reply> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.writer.write_all(raw)?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status: u16 = self
            .line
            .split(' ')
            .nth(1)
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut reply = Reply {
            status,
            cache: Cache::Absent,
            shard: u8::MAX,
        };
        let mut content_length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("x-cache") {
                reply.cache = match value {
                    "hit" => Cache::Hit,
                    "miss" => Cache::Miss,
                    "coalesced" => Cache::Coalesced,
                    _ => Cache::Absent,
                };
            } else if name.eq_ignore_ascii_case("x-shard") {
                reply.shard = value.parse().unwrap_or(u8::MAX);
            }
        }
        self.body.resize(content_length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(reply)
    }
}

/// One completed request in the traced run.
struct Detail {
    endpoint: Endpoint,
    cache: Cache,
    shard: u8,
    status: u16,
    start: Instant,
    end: Instant,
}

/// Everything one client recorded.
#[derive(Default)]
struct ClientLog {
    /// `(latency ns, segment)` per completed request.
    latencies: Vec<(u64, u8)>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// The verification sample: request and FNV-1a of the body served.
    verify: Vec<(Endpoint, String, u64)>,
    detail: Vec<Detail>,
    /// `VmHWM` when this client's `Spec::rss_after`-th request completed.
    rss_mb: Option<f64>,
}

/// Closed loop of one client until `deadline`.
fn client_loop(
    addr: SocketAddr,
    mut generator: Generator,
    started: Instant,
    deadline: Instant,
    segment_s: f64,
    keep_detail: bool,
    mut verify_rng: SplitMix64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Connection::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted = 1;
            log.failed = 1;
            log.first_failure = Some(format!("connect: {e}"));
            return log;
        }
    };
    // Every served body starts with the artifact it was asked about.
    let expected: Vec<String> = generator
        .keys
        .iter()
        .map(|k| format!("{{\"artifact\":\"fixture-{k}\""))
        .collect();
    while Instant::now() < deadline {
        let planned = generator.next();
        let raw = planned.raw();
        let expect = &expected[planned.key];
        let start = Instant::now();
        let reply = conn.round_trip(&raw);
        let end = Instant::now();
        log.attempted += 1;
        if log.attempted == generator.spec.rss_after {
            log.rss_mb = Some(host::peak_rss_mb());
        }
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                log.failed += 1;
                log.first_failure.get_or_insert(format!("i/o: {e}"));
                break;
            }
        };
        if reply.status != 200 || !conn.body.starts_with(expect.as_bytes()) {
            log.failed += 1;
            log.first_failure.get_or_insert_with(|| {
                format!(
                    "{} -> {} {:?}",
                    planned.endpoint.target(),
                    reply.status,
                    String::from_utf8_lossy(&conn.body[..conn.body.len().min(120)])
                )
            });
        }
        let segment = ((end - started).as_secs_f64() / segment_s) as u8;
        log.latencies
            .push(((end - start).as_nanos() as u64, segment));
        if verify_rng.below(VERIFY_ONE_IN) == 0 {
            log.verify
                .push((planned.endpoint, planned.body, fnv1a(&conn.body)));
        }
        if keep_detail {
            log.detail.push(Detail {
                endpoint: planned.endpoint,
                cache: reply.cache,
                shard: reply.shard,
                status: reply.status,
                start,
                end,
            });
        }
    }
    log
}

/// Drive `CLIENTS` closed-loop clients for `seconds`.
fn drive(
    addr: SocketAddr,
    spec: &Spec,
    keys: &Arc<Vec<String>>,
    seed: u64,
    seconds: f64,
    segments: usize,
    keep_detail: bool,
) -> Vec<ClientLog> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let segment_s = seconds / segments as f64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let generator = Generator::new(spec, keys, seed, c);
                let verify_rng = SplitMix64::derive(seed, 0x7e51f + c as u64);
                s.spawn(move || {
                    client_loop(
                        addr,
                        generator,
                        started,
                        deadline,
                        segment_s,
                        keep_detail,
                        verify_rng,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// The in-memory inputs: `n` fixture artifacts.
fn make_artifacts(spec: &Spec) -> Vec<Artifact> {
    keys(spec).iter().map(|k| fixture_artifact(k)).collect()
}

fn fleet_configs(spec: &Spec) -> (RouterConfig, ShardConfig) {
    // What `deepthermo serve --shards 2 --cache 1024` builds.
    (
        RouterConfig {
            serve: ServeConfig {
                workers: 4,
                queue_depth: 128,
                cache_capacity: spec.cache,
                ..ServeConfig::default()
            },
            ..RouterConfig::default()
        },
        ShardConfig {
            workers: 2,
            cache_capacity: spec.cache,
            ..ShardConfig::default()
        },
    )
}

/// Every `(key, grid)` pair `serve_hot` will ask for, once; a handful of
/// requests of each endpoint for `serve_cold` (its cache cannot be filled:
/// no grid repeats).
fn fill(addr: SocketAddr, spec: &Spec, keys: &Arc<Vec<String>>, seed: u64) -> Result<(), String> {
    let mut conn = Connection::open(addr).map_err(|e| format!("connect: {e}"))?;
    let mut generator = Generator::new(spec, keys, seed, CLIENTS);
    let mut send = |planned: Planned| -> Result<(), String> {
        let reply = conn
            .round_trip(&planned.raw())
            .map_err(|e| format!("fill: {e}"))?;
        if reply.status == 200 {
            Ok(())
        } else {
            Err(format!("fill: status {}", reply.status))
        }
    };
    if spec.hot {
        for key in 0..keys.len() {
            for (t_min, t_max) in HOT_GRIDS {
                send(generator.thermo(key, t_min, t_max))?;
            }
        }
    } else {
        for _ in 0..24 {
            send(generator.next())?;
        }
    }
    Ok(())
}

/// A launched fleet plus what the checks need.
struct Stack {
    fleet: Fleet,
    registry: ArtifactRegistry,
    registry_bytes: u64,
}

/// Set-up as a user pays it: write the registry, open it, launch the
/// fleet, fill the caches. With a tracer each step is a span.
fn set_up(
    spec: &Spec,
    artifacts: &[Artifact],
    dir: &Path,
    keys: &Arc<Vec<String>>,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Result<Stack, String> {
    let stage = |name: &str| tracer.map(|t| t.span(name));
    {
        let _s = stage("serve.registry_save");
        for a in artifacts {
            a.save(dir).map_err(|e| e.to_string())?;
        }
    }
    let registry = {
        let _s = stage("serve.registry_open");
        ArtifactRegistry::open(dir).map_err(|e| e.to_string())?
    };
    let fleet = {
        let _s = stage("serve.fleet_launch");
        let (router, shard) = fleet_configs(spec);
        Fleet::launch(SHARDS, &registry, router, &shard).map_err(|e| e.to_string())?
    };
    {
        let _s = stage("serve.cache_fill");
        if let Err(e) = fill(fleet.local_addr(), spec, keys, seed) {
            fleet.join();
            return Err(e);
        }
    }
    Ok(Stack {
        fleet,
        registry,
        registry_bytes: host::dir_bytes(dir),
    })
}

/// Re-evaluate the verification sample on a direct `AppState` over the
/// whole (unsharded) registry; a different body is a failed operation.
fn verify(out: &mut Outcome, stack: &Stack, spec: &Spec, logs: &[ClientLog]) {
    let state = match AppState::new(stack.registry.clone(), spec.cache) {
        Ok(s) => s,
        Err(e) => {
            out.op(false, || format!("reference AppState: {e}"));
            return;
        }
    };
    let mut checked = 0usize;
    for (endpoint, body, served) in logs.iter().flat_map(|l| &l.verify) {
        let direct = state.handle(&Request {
            method: "POST".into(),
            target: endpoint.target().into(),
            http11: true,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        });
        checked += 1;
        if direct.status != 200 || fnv1a(direct.body.as_bytes()) != *served {
            // The request was already counted when it was sent.
            out.fail(format!(
                "{} body differs from a direct AppState::handle",
                endpoint.target()
            ));
        }
    }
    out.note(format!(
        "{checked} responses re-evaluated on a direct AppState::handle"
    ));
}

/// Fold the client logs into operation counts.
fn count_ops(out: &mut Outcome, logs: &[ClientLog]) {
    for log in logs {
        out.absorb(log.attempted, log.failed, log.first_failure.as_deref());
    }
}

fn scratch_dir(p: &RunParams) -> std::path::PathBuf {
    p.out_dir.join(format!("registry-{}", std::process::id()))
}

/// End-to-end run, tracing off.
pub fn end_to_end(spec: &Spec, p: &RunParams) -> Outcome {
    let mut out = Outcome::default();
    let keys = Arc::new(keys(spec));
    let artifacts = make_artifacts(spec);
    let dir = scratch_dir(p);
    host::busy_spin(p.spin);

    // Set-up, several times over; the last fleet serves the timed part.
    let mut setup_times = Vec::new();
    let mut stack = None;
    for rep in 0..if p.toy { 1 } else { 5 } {
        // Tearing the previous repetition down is not set-up.
        if let Some(Stack { fleet, .. }) = stack.take() {
            fleet.join();
        }
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        match set_up(spec, &artifacts, &dir, &keys, p.seed, None) {
            Ok(s) => {
                setup_times.push(t0.elapsed().as_secs_f64());
                stack = Some(s);
            }
            Err(e) => {
                out.op(false, || format!("set-up {rep} failed: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                return out;
            }
        }
    }
    let stack = stack.expect("at least one set-up");
    let addr = stack.fleet.local_addr();

    // The workload's own warm-up: connections, worker threads, allocator.
    drive(
        addr,
        spec,
        &keys,
        p.seed ^ 0xaa,
        (p.seconds * 0.05).min(0.5),
        1,
        false,
    );

    let logs = drive(addr, spec, &keys, p.seed, p.seconds, spec.segments, false);
    count_ops(&mut out, &logs);
    verify(&mut out, &stack, spec, &logs);
    stack.fleet.join();
    let _ = std::fs::remove_dir_all(&dir);

    // Every metric is computed per segment and the median segment is
    // reported, so that one stalled segment neither hides nor decides the
    // number; the percentiles over the requests of all segments and the
    // best segment are printed beside it.
    let segment_s = p.seconds / spec.segments as f64;
    let mut per_segment: Vec<Vec<u64>> = vec![Vec::new(); spec.segments];
    for (ns, segment) in logs.iter().flat_map(|l| &l.latencies) {
        // A request that completes just past the deadline belongs to
        // the last segment.
        per_segment[(*segment as usize).min(spec.segments - 1)].push(*ns);
    }
    if per_segment.iter().any(Vec::is_empty) {
        out.op(false, || "a segment completed no request".into());
        return out;
    }
    for s in &mut per_segment {
        s.sort_unstable();
    }
    let mut pooled: Vec<u64> = per_segment.iter().flatten().copied().collect();
    pooled.sort_unstable();
    let rates: Vec<f64> = per_segment
        .iter()
        .map(|s| s.len() as f64 / segment_s)
        .collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let percentile = |q: f64| -> Vec<f64> {
        per_segment
            .iter()
            .map(|s| ms(quantile_sorted(s, q)))
            .collect()
    };
    let (p50s, p99s) = (percentile(0.5), percentile(0.99));
    let fewest = per_segment.iter().map(Vec::len).min().unwrap_or(0);
    let setup = median(&setup_times);
    out.set("setup_s", SETUP_FLOOR_S + setup);
    out.set("ops_per_s", median(&rates));
    out.set("p50_ms", median(&p50s));
    out.set("op_time_ms", median(&p99s));
    let rss_mb = logs
        .iter()
        .filter_map(|l| l.rss_mb)
        .reduce(f64::max)
        .unwrap_or_else(host::peak_rss_mb);
    out.set("peak_rss_mb", rss_mb);
    out.note(format!(
        "set-up measured {setup:.6} s; peak RSS {:.1} MB at the end of the timed part; {} segments of {segment_s:.1} s, >= {fewest} requests and {} beyond p99 in each; over all {} requests p50 = {:.1} us, p99 = {:.1} us; best segment {:.1} req/s",
        host::peak_rss_mb(),
        spec.segments,
        fewest / 100,
        pooled.len(),
        ms(quantile_sorted(&pooled, 0.5)) * 1e3,
        ms(quantile_sorted(&pooled, 0.99)) * 1e3,
        rates.iter().copied().fold(0.0, f64::max),
    ));
    out.sample(
        "setup_s",
        setup_times.iter().map(|t| SETUP_FLOOR_S + t).collect(),
    );
    out.sample("ops_per_s", rates);
    out.sample("p50_ms", p50s);
    out.sample("op_time_ms", p99s);
    out
}

/// `GET path` on a fresh connection.
fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut conn = Connection::open(addr).map_err(|e| e.to_string())?;
    let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
    let reply = conn.round_trip(raw.as_bytes()).map_err(|e| e.to_string())?;
    if reply.status != 200 {
        return Err(format!("GET {path}: status {}", reply.status));
    }
    String::from_utf8(std::mem::take(&mut conn.body)).map_err(|e| e.to_string())
}

/// The fleet-wide `thermo_evaluations` sum from the router's `/metrics`.
fn fleet_evaluations(addr: SocketAddr) -> Result<u64, String> {
    let body = get(addr, "/metrics")?;
    let v = parse_json(&body).map_err(|e| e.to_string())?;
    Ok(v.get("fleet_counters")
        .and_then(|c| c.get("thermo_evaluations"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0))
}

/// p50 of `n` sequential cache hits on one connection, in microseconds.
fn hit_p50_us(
    addr: SocketAddr,
    spec: &Spec,
    keys: &Arc<Vec<String>>,
    n: usize,
) -> Result<f64, String> {
    let mut conn = Connection::open(addr).map_err(|e| e.to_string())?;
    let generator = Generator::new(spec, keys, 0, 0);
    let raw = generator.thermo(0, HOT_GRIDS[0].0, HOT_GRIDS[0].1).raw();
    let mut ns = Vec::with_capacity(n);
    for i in 0..n + 1 {
        let t0 = Instant::now();
        let reply = conn.round_trip(&raw).map_err(|e| e.to_string())?;
        // The first request fills the cache.
        if i > 0 {
            if reply.status != 200 || reply.cache != Cache::Hit {
                return Err(format!(
                    "expected a cache hit, got {} / {:?}",
                    reply.status, reply.cache
                ));
            }
            ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    ns.sort_unstable();
    Ok(quantile_sorted(&ns, 0.5) as f64 / 1e3)
}

fn p50_us(details: &[&Detail]) -> f64 {
    if details.is_empty() {
        return 0.0;
    }
    let mut ns: Vec<u64> = details
        .iter()
        .map(|d| (d.end - d.start).as_nanos() as u64)
        .collect();
    ns.sort_unstable();
    quantile_sorted(&ns, 0.5) as f64 / 1e3
}

/// Traced run: set-up under spans, an untraced reference stretch, then a
/// stretch in which every request is recorded with the `x-cache` and
/// `x-shard` headers the program already sends.
pub fn traced(spec: &Spec, p: &RunParams, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let keys = Arc::new(keys(spec));
    let artifacts = make_artifacts(spec);
    let dir = scratch_dir(p);
    host::busy_spin(p.spin);

    let _ = std::fs::remove_dir_all(&dir);
    let setup = tracer.span("setup");
    let stack = set_up(spec, &artifacts, &dir, &keys, p.seed, Some(tracer));
    drop(setup);
    let stack = match stack {
        Ok(s) => s,
        Err(e) => {
            out.op(false, || format!("set-up failed: {e}"));
            let _ = std::fs::remove_dir_all(&dir);
            return out;
        }
    };
    let addr = stack.fleet.local_addr();
    let rate = |logs: &[ClientLog], seconds: f64| {
        logs.iter().map(|l| l.latencies.len()).sum::<usize>() as f64 / seconds
    };

    let reference_s = p.seconds * 0.25;
    let reference = drive(addr, spec, &keys, p.seed ^ 0xaa, reference_s, 1, false);
    count_ops(&mut out, &reference);

    let traced_s = p.seconds * 0.5;
    let before = fleet_evaluations(addr);
    let op = tracer.span("traffic");
    let logs = drive(addr, spec, &keys, p.seed, traced_s, 1, true);
    let op_ref = op.handle();
    drop(op);
    let after = fleet_evaluations(addr);
    count_ops(&mut out, &logs);
    verify(&mut out, &stack, spec, &logs);

    let details: Vec<&Detail> = logs.iter().flat_map(|l| &l.detail).collect();
    // File the first requests of each client as spans; the summary
    // numbers below use every request.
    for log in &logs {
        for d in log.detail.iter().take(2000) {
            tracer.record(
                op_ref,
                &format!("client{}", d.endpoint.target()),
                d.start,
                d.end,
            );
        }
    }
    let by = |f: &dyn Fn(&Detail) -> bool| -> Vec<&Detail> {
        details.iter().copied().filter(|d| f(d)).collect()
    };
    let thermo = by(&|d| d.endpoint == Endpoint::Thermo);
    let hits = by(&|d| d.cache == Cache::Hit);
    let misses = by(&|d| d.cache == Cache::Miss);
    let coalesced = by(&|d| d.cache == Cache::Coalesced);
    out.set("serve.hit_p50_us", p50_us(&hits));
    out.set("serve.miss_p50_us", p50_us(&misses));
    out.set(
        "serve.cache_hit_frac",
        hits.len() as f64 / thermo.len().max(1) as f64,
    );
    out.set(
        "serve.coalesced_frac",
        coalesced.len() as f64 / thermo.len().max(1) as f64,
    );
    out.set("serve.thermo_p50_us", p50_us(&thermo));
    out.set(
        "serve.sro_p50_us",
        p50_us(&by(&|d| d.endpoint == Endpoint::Sro)),
    );
    out.set(
        "serve.predict_p50_us",
        p50_us(&by(&|d| d.endpoint == Endpoint::Predict)),
    );
    let mut per_shard = [0usize; SHARDS];
    for d in &details {
        if let Some(n) = per_shard.get_mut(d.shard as usize) {
            *n += 1;
        }
    }
    let mean = details.len() as f64 / SHARDS as f64;
    out.set(
        "serve.shard_skew",
        per_shard.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
    );
    out.set(
        "serve.rejected_frac",
        by(&|d| d.status == 429).len() as f64 / details.len().max(1) as f64,
    );
    match (before, after) {
        (Ok(before), Ok(after)) => {
            let evaluations = after - before;
            out.set("serve.evaluations", evaluations as f64);
            // Every miss evaluates once; hits and coalesced waiters never do.
            out.op(evaluations == misses.len() as u64, || {
                format!("{evaluations} evaluations for {} misses", misses.len())
            });
        }
        (Err(e), _) | (_, Err(e)) => out.op(false, || format!("/metrics: {e}")),
    }
    out.set(
        "trace_overhead_frac",
        rate(&reference, reference_s) / rate(&logs, traced_s).max(1e-9) - 1.0,
    );

    let spans = tracer.snapshot();
    out.set(
        "serve.registry_open_ms",
        crate::trace::total_s(&spans, "serve.registry_open") * 1e3,
    );
    out.set("serve.registry_bytes", stack.registry_bytes as f64);

    // Router hop: the same cached request against the fleet and against
    // a single `Server` over the same registry.
    let n = if p.toy { 50 } else { 1500 };
    let fleet_hit = hit_p50_us(addr, spec, &keys, n);
    let single = Server::start(
        stack.registry.clone(),
        ServeConfig {
            cache_capacity: spec.cache,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| e.to_string())
    .and_then(|server| {
        let p50 = hit_p50_us(server.local_addr(), spec, &keys, n);
        server.shutdown();
        server.join();
        p50
    });
    match (fleet_hit, single) {
        (Ok(fleet_us), Ok(single_us)) => {
            out.set("serve.router_hop_us", fleet_us - single_us);
            out.note(format!(
                "cached request p50: fleet {fleet_us:.1} us, single Server {single_us:.1} us"
            ));
        }
        (Err(e), _) | (_, Err(e)) => out.op(false, || format!("router hop probe: {e}")),
    }
    out.note(format!(
        "traced stretch: {} requests in {traced_s:.1} s, reference {:.0} req/s",
        details.len(),
        rate(&reference, reference_s)
    ));
    stack.fleet.join();
    let _ = std::fs::remove_dir_all(&dir);
    out
}
