//! End-to-end tests against a live sharded fleet: a router plus two
//! shard threads over real loopback TCP, launched with
//! [`dt_serve::Fleet`]. The suites mirror the single-server
//! integration tests (abuse, saturation-429, graceful drain) at the
//! fleet level, plus the fleet-only property: killing one shard
//! degrades only its key slice.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dt_serve::fixture::fixture_artifact;
use dt_serve::{ArtifactRegistry, Fleet, HashRing, RouterConfig, ServeConfig, ShardConfig};
use dt_telemetry::{parse_json, JsonValue};

/// A registry with enough artifacts that every shard of a 2-shard ring
/// owns at least one.
fn fleet_registry(n: usize) -> ArtifactRegistry {
    let mut registry = ArtifactRegistry::new();
    for i in 0..n {
        registry.insert(fixture_artifact(&format!("f{i}")));
    }
    registry
}

fn launch(num_shards: usize, registry: &ArtifactRegistry) -> Fleet {
    Fleet::launch(
        num_shards,
        registry,
        RouterConfig::default(),
        &ShardConfig::default(),
    )
    .unwrap()
}

/// Read one HTTP response: (status, headers lowercased, body).
fn read_response<R: BufRead>(reader: &mut R) -> (u16, Vec<(String, String)>, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
        .parse()
        .unwrap();
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (k, v) = line.split_once(':').unwrap();
        let (k, v) = (k.to_ascii_lowercase(), v.trim().to_string());
        if k == "content-length" {
            content_length = v.parse().unwrap();
        }
        headers.push((k, v));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, headers, String::from_utf8(body).unwrap())
}

fn exchange(addr: SocketAddr, raw: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    read_response(&mut BufReader::new(stream))
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// One artifact id owned by each shard of a 2-shard ring, found with
/// the same deterministic ring the fleet builds.
fn ids_per_shard(registry: &ArtifactRegistry) -> [String; 2] {
    let ring = HashRing::new(2);
    let mut out: [Option<String>; 2] = [None, None];
    for id in registry.ids() {
        out[ring.shard_for(id)].get_or_insert_with(|| id.to_string());
    }
    [out[0].take().unwrap(), out[1].take().unwrap()]
}

#[test]
fn fleet_routes_requests_and_merges_fanouts() {
    let registry = fleet_registry(8);
    let fleet = launch(2, &registry);
    let addr = fleet.local_addr();

    // The front door reports router health, not shard health.
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let v = parse_json(&body).unwrap();
    assert_eq!(v.get("role").and_then(JsonValue::as_str), Some("router"));
    assert_eq!(v.get("shards").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(v.get("live_shards").and_then(JsonValue::as_u64), Some(2));

    // The artifact listing splices every shard's slice back together.
    let (status, _, body) = get(addr, "/v1/artifacts");
    assert_eq!(status, 200);
    let v = parse_json(&body).unwrap();
    assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(8));
    for id in registry.ids() {
        assert!(body.contains(id), "artifact {id} missing from fanout");
    }

    // Every artifact is served by exactly the shard the ring assigns,
    // and the response says which shard that was.
    let ring = HashRing::new(2);
    for id in registry.ids() {
        let (status, headers, body) = post(
            addr,
            "/v1/thermo",
            &format!("{{\"artifact\":\"{id}\",\"temperatures\":[800,1600]}}"),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            header(&headers, "x-shard"),
            Some(ring.shard_for(id).to_string().as_str())
        );
    }

    // /metrics aggregates per-shard counters into a fleet-wide sum: the
    // 8 thermo requests all landed on some shard.
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let v = parse_json(&body).unwrap();
    let fleet_requests = v
        .get("fleet_counters")
        .and_then(|c| c.get("requests_total"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert!(fleet_requests >= 8, "fleet_counters sum too low: {body}");
    assert!(
        v.get("shards").and_then(JsonValue::as_array).unwrap().len() == 2,
        "{body}"
    );

    let (router_stats, shard_stats) = fleet.join();
    assert_eq!(router_stats.handler_panics, 0);
    let owned: usize = shard_stats
        .iter()
        .map(|s| s.as_ref().unwrap().artifacts)
        .sum();
    assert_eq!(owned, 8, "ring slices must cover the registry exactly");
    for s in &shard_stats {
        let s = s.as_ref().unwrap();
        assert!(s.artifacts > 0, "every shard should own a slice");
        assert_eq!(s.handler_panics, 0);
    }
}

#[test]
fn fleet_abuse_suite_yields_4xx_and_stays_healthy() {
    let registry = fleet_registry(2);
    let fleet = launch(2, &registry);
    let addr = fleet.local_addr();

    // Oversized declared body (rejected at the router edge).
    let (status, _, _) = exchange(
        addr,
        "POST /v1/thermo HTTP/1.1\r\ncontent-length: 99999999\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 413);

    // Malformed JSON: forwarded to a shard, which answers the 400.
    let (status, _, body) = post(addr, "/v1/thermo", "{\"artifact\": <-- nope");
    assert_eq!(status, 400, "{body}");

    // Unknown artifact: routed by ring hash, 404 from the owning shard.
    let (status, _, _) = post(
        addr,
        "/v1/thermo",
        "{\"artifact\":\"ghost\",\"temperatures\":[100]}",
    );
    assert_eq!(status, 404);

    // Unknown endpoint / wrong method / raw garbage: router-local.
    let (status, _, _) = get(addr, "/v2/everything");
    assert_eq!(status, 404);
    let (status, _, _) = exchange(
        addr,
        "DELETE /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
    let (status, _, _) = exchange(addr, "EHLO mail.example.com\r\n");
    assert_eq!(status, 400);

    // Header flood and chunked transfer.
    let flood = format!(
        "GET /healthz HTTP/1.1\r\nx-filler: {}\r\n\r\n",
        "a".repeat(64 * 1024)
    );
    let (status, _, _) = exchange(addr, &flood);
    assert_eq!(status, 431);
    let (status, _, _) = exchange(
        addr,
        "POST /v1/thermo HTTP/1.1\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 501);

    // The fleet still serves real queries afterwards.
    let id = registry.ids()[0].to_string();
    let (status, _, body) = post(
        addr,
        "/v1/thermo",
        &format!("{{\"artifact\":\"{id}\",\"temperatures\":[1000]}}"),
    );
    assert_eq!(status, 200, "{body}");

    let (router_stats, shard_stats) = fleet.join();
    assert_eq!(router_stats.handler_panics, 0);
    for s in shard_stats {
        assert_eq!(s.unwrap().handler_panics, 0);
    }
}

#[test]
fn fleet_saturation_sheds_load_with_429() {
    let registry = fleet_registry(2);
    // Starve the router tier: one worker, queue depth one. Forwarding
    // blocks that worker for the whole router→shard round trip, so a
    // simultaneous burst must overflow the queue at the front door.
    let fleet = Fleet::launch(
        2,
        &registry,
        RouterConfig {
            serve: ServeConfig {
                workers: 1,
                queue_depth: 1,
                ..ServeConfig::default()
            },
            ..RouterConfig::default()
        },
        &ShardConfig::default(),
    )
    .unwrap();
    let addr = fleet.local_addr();
    let id = registry.ids()[0].to_string();

    let mut saw_429 = false;
    let mut saw_200 = false;
    for round in 0..5 {
        let threads: Vec<_> = (0..32)
            .map(|i| {
                let id = id.clone();
                std::thread::spawn(move || {
                    // Unique cold grid per request: every one costs a
                    // full evaluation on the shard.
                    let body = format!(
                        "{{\"artifact\":\"{id}\",\"t_min\":{},\"t_max\":3000,\"num_t\":4096}}",
                        300 + round * 40 + i
                    );
                    let (status, _, _) = post(addr, "/v1/thermo", &body);
                    status
                })
            })
            .collect();
        for t in threads {
            match t.join().unwrap() {
                429 => saw_429 = true,
                200 => saw_200 = true,
                other => panic!("unexpected status {other} under fleet saturation"),
            }
        }
        if saw_429 && saw_200 {
            break;
        }
    }
    assert!(saw_429, "a saturated router must shed load with 429");
    assert!(saw_200, "admitted requests must still be answered");

    let (router_stats, _) = fleet.join();
    assert!(router_stats.queue_rejections > 0);
    assert_eq!(router_stats.handler_panics, 0);
}

#[test]
fn shard_cache_capacity_zero_means_no_cache() {
    // An explicit zero is the setting, not "use the default": the
    // fleet caches nothing, exactly like a standalone `--cache 0`.
    let registry = fleet_registry(2);
    let fleet = Fleet::launch(
        2,
        &registry,
        RouterConfig::default(),
        &ShardConfig {
            cache_capacity: 0,
            ..ShardConfig::default()
        },
    )
    .unwrap();
    let addr = fleet.local_addr();
    let query = format!(
        "{{\"artifact\":\"{}\",\"temperatures\":[321,654,987]}}",
        registry.ids()[0]
    );
    for _ in 0..2 {
        let (status, headers, body) = post(addr, "/v1/thermo", &query);
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "x-cache"), Some("miss"));
    }
    fleet.join();
}

#[test]
fn shutdown_endpoint_drains_router_and_every_shard() {
    let registry = fleet_registry(4);
    let fleet = launch(2, &registry);
    let addr = fleet.local_addr();

    // Warm one shard so its drain summary shows traffic.
    let id = registry.ids()[0].to_string();
    let (status, _, _) = post(
        addr,
        "/v1/thermo",
        &format!("{{\"artifact\":\"{id}\",\"temperatures\":[900]}}"),
    );
    assert_eq!(status, 200);

    // The drain reply embeds one summary per shard — the router only
    // answers after every shard has reported drained.
    let (status, _, body) = post(addr, "/v1/shutdown", "");
    assert_eq!(status, 200);
    let v = parse_json(&body).unwrap();
    assert_eq!(
        v.get("status").and_then(JsonValue::as_str),
        Some("draining")
    );
    let shards = v.get("shards").and_then(JsonValue::as_array).unwrap();
    assert_eq!(shards.len(), 2, "{body}");
    for entry in shards {
        let drained = entry.get("drained").expect("per-shard drain summary");
        assert_eq!(
            drained.get("status").and_then(JsonValue::as_str),
            Some("draining")
        );
    }

    // The front door refuses new connections once drained.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (router_stats, shard_stats) = fleet.join();
    assert!(Instant::now() < deadline, "drain should be prompt");
    assert_eq!(router_stats.handler_panics, 0);
    for s in shard_stats {
        assert!(s.is_some(), "every shard must exit cleanly after drain");
    }
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

#[test]
fn killing_one_shard_degrades_only_its_key_slice() {
    let registry = fleet_registry(6);
    let fleet = launch(2, &registry);
    let addr = fleet.local_addr();
    let [shard0_id, shard1_id] = ids_per_shard(&registry);

    // Both slices serve before the kill.
    for id in [&shard0_id, &shard1_id] {
        let (status, _, body) = post(
            addr,
            "/v1/thermo",
            &format!("{{\"artifact\":\"{id}\",\"temperatures\":[700]}}"),
        );
        assert_eq!(status, 200, "{body}");
    }

    // Kill shard 0 abruptly (no drain, no goodbye) and wait for the
    // router's liveness to notice the torn-down connections.
    fleet.kill_shard(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, body) = get(addr, "/healthz");
        let live = parse_json(&body)
            .unwrap()
            .get("live_shards")
            .and_then(JsonValue::as_u64)
            .unwrap();
        if live == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never noticed the dead shard: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The dead slice answers 503; the surviving slice keeps serving.
    let (status, headers, _) = post(
        addr,
        "/v1/thermo",
        &format!("{{\"artifact\":\"{shard0_id}\",\"temperatures\":[700]}}"),
    );
    assert_eq!(status, 503, "dead shard's slice must fail fast");
    assert_eq!(header(&headers, "x-shard"), Some("0"));
    let (status, _, body) = post(
        addr,
        "/v1/thermo",
        &format!("{{\"artifact\":\"{shard1_id}\",\"temperatures\":[700]}}"),
    );
    assert_eq!(status, 200, "surviving slice must keep serving: {body}");

    // Fan-outs degrade to the surviving slice instead of failing.
    let (status, _, body) = get(addr, "/v1/artifacts");
    assert_eq!(status, 200);
    assert!(body.contains(&shard1_id));
    assert!(!body.contains(&format!("\"id\":\"{shard0_id}\"")), "{body}");

    let (router_stats, _) = fleet.join();
    assert_eq!(router_stats.handler_panics, 0);
}
