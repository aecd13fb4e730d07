//! E14 — sharded serving fleet: throughput scaling, tail latency, and
//! single-flight stampede suppression.
//!
//! Three measurements against in-process fleets ([`dt_serve::Fleet`]:
//! router + shard threads over real loopback TCP):
//!
//! * **stampede** — 64 concurrent requesters hit one cold key through
//!   the router; the fleet-wide `thermo_evaluations` counter must read
//!   exactly 1 (single-flight collapsed the herd onto one fill). This
//!   gate is always enforced — it is a correctness property, not a
//!   performance one.
//! * **scaling** — a Zipf(1.0) keyed workload over ~32 artifacts,
//!   warmed so every request is a shard-cache hit, driven against a
//!   1-shard and a 4-shard fleet. Gates: cached req/s scales ≥ `--gate`
//!   (default 3x) from 1 to 4 shards, and the 4-shard p99 stays below
//!   5x the single-shard p99.
//!
//! The scaling gates need real parallelism: on fewer than
//! [`MIN_CORES`] hardware threads a 4-shard fleet cannot beat one shard
//! on wall clock, so the gates are reported but not enforced
//! (`gates_enforced: false` in the JSON).
//!
//! Writes `--out` (default `BENCH_serve_sharded.json`) and exits
//! nonzero if an enforced gate fails.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use std::num::NonZeroUsize;

use dt_serve::fixture::fixture_artifact;
use dt_serve::{ArtifactRegistry, Fleet, RouterConfig, ServeConfig, ShardConfig};
use dt_telemetry::{parse_json, JsonValue};

use crate::{Args, Report, Run};

/// Hardware threads below which the scaling gates are reported only.
const MIN_CORES: usize = 8;
/// Worker threads of each measured fleet's router.
const SERVE_WORKERS: usize = 8;

/// Read one HTTP response off a keep-alive stream: (status, body).
fn read_response<R: BufRead>(reader: &mut R) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(raw.as_bytes()).expect("write");
    read_response(&mut BufReader::new(stream))
}

fn post_thermo_raw(body: &str) -> String {
    format!(
        "POST /v1/thermo HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn thermo_body(key: &str, num_t: usize) -> String {
    format!("{{\"artifact\":\"{key}\",\"t_min\":300,\"t_max\":3000,\"num_t\":{num_t}}}")
}

/// Deterministic splitmix64 stream for Zipf sampling — no RNG crate
/// needed for a key-picking distribution.
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf(1.0) weights over ranks `1..=n`.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 1..=n {
        total += 1.0 / r as f64;
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Drive `connections x requests` keep-alive Zipf-keyed requests.
/// Returns (sorted latencies in ns, wall time).
fn drive_zipf(
    addr: SocketAddr,
    connections: usize,
    requests: usize,
    keys: Arc<Vec<String>>,
    num_t: usize,
) -> (Vec<u64>, Duration) {
    let cdf = Arc::new(zipf_cdf(keys.len()));
    let started = Instant::now();
    let threads: Vec<_> = (0..connections)
        .map(|c| {
            let keys = Arc::clone(&keys);
            let cdf = Arc::clone(&cdf);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("timeout");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut rng = SplitMix(0xe14 + c as u64);
                let mut latencies = Vec::with_capacity(requests);
                for i in 0..requests {
                    let key = &keys[zipf_pick(&cdf, rng.next_f64())];
                    let raw = post_thermo_raw(&thermo_body(key, num_t));
                    let t0 = Instant::now();
                    writer.write_all(raw.as_bytes()).expect("write");
                    let (status, body) = read_response(&mut reader);
                    latencies.push(t0.elapsed().as_nanos() as u64);
                    assert_eq!(status, 200, "request {i} on connection {c}: {body}");
                }
                latencies
            })
        })
        .collect();
    let mut all = Vec::with_capacity(connections * requests);
    for t in threads {
        all.extend(t.join().expect("client thread"));
    }
    let wall = started.elapsed();
    all.sort_unstable();
    (all, wall)
}

fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    let idx = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1e3
}

fn fleet_registry(keys: &[String]) -> ArtifactRegistry {
    let mut registry = ArtifactRegistry::new();
    for key in keys {
        let tag = key.strip_prefix("fixture-").unwrap_or(key);
        registry.insert(fixture_artifact(tag));
    }
    registry
}

fn launch(shards: usize, registry: &ArtifactRegistry, workers: usize) -> Fleet {
    Fleet::launch(
        shards,
        registry,
        RouterConfig {
            serve: ServeConfig {
                workers,
                queue_depth: 1024,
                queue_deadline: Duration::from_secs(30),
                ..ServeConfig::default()
            },
            ..RouterConfig::default()
        },
        &ShardConfig::default(),
    )
    .expect("fleet launch")
}

/// The fleet-wide `thermo_evaluations` sum from the router's `/metrics`.
fn fleet_evaluations(addr: SocketAddr) -> u64 {
    let (status, body) = request(addr, "GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    parse_json(&body)
        .expect("metrics json")
        .get("fleet_counters")
        .and_then(|c| c.get("thermo_evaluations"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

/// One cached-workload measurement: warm every key, drive Zipf traffic.
fn measure(
    shards: usize,
    keys: &Arc<Vec<String>>,
    registry: &ArtifactRegistry,
    connections: usize,
    requests: usize,
    num_t: usize,
) -> (f64, f64, f64) {
    let fleet = launch(shards, registry, SERVE_WORKERS);
    let addr = fleet.local_addr();
    for key in keys.iter() {
        let (status, body) = request(addr, &post_thermo_raw(&thermo_body(key, num_t)));
        assert_eq!(status, 200, "warmup of {key}: {body}");
    }
    let (latencies, wall) = drive_zipf(addr, connections, requests, Arc::clone(keys), num_t);
    let total = (connections * requests) as f64;
    let (_, shard_stats) = fleet.join();
    for s in shard_stats {
        assert_eq!(s.expect("clean shard exit").handler_panics, 0);
    }
    (
        total / wall.as_secs_f64(),
        quantile_us(&latencies, 0.50),
        quantile_us(&latencies, 0.99),
    )
}

/// 64 requesters release together on one cold key; count evaluations.
fn stampede(requesters: usize, num_t: usize) -> (u64, usize) {
    let keys = vec!["fixture-cold".to_string()];
    let registry = fleet_registry(&keys);
    let fleet = launch(1, &registry, 16);
    let addr = fleet.local_addr();
    let barrier = Arc::new(Barrier::new(requesters));
    let threads: Vec<_> = (0..requesters)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let raw = post_thermo_raw(&thermo_body("fixture-cold", num_t));
                barrier.wait();
                request(addr, &raw).0
            })
        })
        .collect();
    let oks = threads
        .into_iter()
        .map(|t| t.join().expect("requester"))
        .filter(|&s| s == 200)
        .count();
    let evaluations = fleet_evaluations(addr);
    fleet.join();
    (evaluations, oks)
}

pub fn run(args: &Args, out: &mut Report) -> Run {
    let num_keys = args.get::<NonZeroUsize>("--keys")?.get();
    let connections = args.get::<NonZeroUsize>("--connections")?.get();
    let requests = args.get::<NonZeroUsize>("--requests")?.get();
    let num_t: usize = args.get("--num-t")?;
    let gate: f64 = args.get("--gate")?;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A 4-shard fleet runs 1 router + 4 shard dispatchers + worker
    // pools; without enough hardware threads the shards time-slice one
    // core and wall-clock scaling is physically impossible.
    let gates_enforced = cores >= MIN_CORES;

    let keys: Arc<Vec<String>> =
        Arc::new((0..num_keys).map(|i| format!("fixture-z{i:02}")).collect());
    let registry = fleet_registry(&keys);
    writeln!(
        out,
        "# E14: sharded serve — {num_keys} Zipf(1.0) keys, {connections} connections x \
         {requests} requests, {cores} cores (scaling gates {})",
        if gates_enforced {
            "enforced"
        } else {
            "reported only"
        }
    );

    // Stampede first: a dedicated cold fleet, so no warmup pollutes the
    // evaluation counter.
    let requesters = 64;
    let (evaluations, oks) = stampede(requesters, 512);
    let stampede_pass = evaluations == 1 && oks == requesters;
    writeln!(
        out,
        "# stampede: {requesters} requesters -> {evaluations} evaluation(s), {oks} x 200"
    );

    let (rps1, p50_1, p99_1) = measure(1, &keys, &registry, connections, requests, num_t);
    let (rps4, p50_4, p99_4) = measure(4, &keys, &registry, connections, requests, num_t);
    let scaling = rps4 / rps1;
    let tail_ratio = p99_4 / p99_1;
    writeln!(
        out,
        "# 1 shard: {rps1:.0} req/s, p50 {p50_1:.1} us, p99 {p99_1:.1} us"
    );
    writeln!(
        out,
        "# 4 shards: {rps4:.0} req/s, p50 {p50_4:.1} us, p99 {p99_4:.1} us"
    );
    writeln!(
        out,
        "# scaling {scaling:.2}x (gate {gate:.1}x), p99 ratio {tail_ratio:.2}x (gate 5x)"
    );

    out.record(
        "shards,req_per_s,p50_us,p99_us",
        vec![
            format!("1,{rps1:.1},{p50_1:.1},{p99_1:.1}"),
            format!("4,{rps4:.1},{p50_4:.1},{p99_4:.1}"),
        ],
    );
    out.record(
        "keys,connections,requests,num_t,cores,requesters,evaluations,ok_responses,\
         stampede_pass,scaling,p99_ratio,gate,gates_enforced",
        vec![format!(
            "{num_keys},{connections},{requests},{num_t},{cores},{requesters},{evaluations},\
             {oks},{stampede_pass},{scaling:.3},{tail_ratio:.3},{gate:.1},{gates_enforced}"
        )],
    );
    if !stampede_pass {
        out.fail(format!(
            "stampede gate — expected 1 evaluation and {requesters} x 200, \
             got {evaluations} and {oks}"
        ));
    }
    let (scaling_pass, tail_pass) = (scaling >= gate, tail_ratio < 5.0);
    if gates_enforced && !scaling_pass {
        out.fail(format!("scaling gate — {scaling:.2}x < {gate:.1}x"));
    }
    if gates_enforced && !tail_pass {
        out.fail(format!("tail gate — p99 ratio {tail_ratio:.2}x >= 5x"));
    }
    Ok(())
}
