//! End-to-end tests against a live server on a loopback socket:
//! registry round-trips, concurrent bit-exactness, the abuse suite, and
//! graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dt_serve::fixture::fixture_artifact;
use dt_serve::http::MAX_BODY_BYTES;
use dt_serve::{Artifact, ArtifactRegistry, ServeConfig, ServeHandle, Server};
use dt_telemetry::{parse_json, JsonValue};
use dt_thermo::KB_EV_PER_K;

fn start(config: ServeConfig) -> ServeHandle {
    let mut registry = ArtifactRegistry::new();
    registry.insert(fixture_artifact("it"));
    Server::start(registry, config).unwrap()
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

/// One fresh-connection exchange.
fn exchange(addr: SocketAddr, raw: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    read_response(&mut BufReader::new(stream))
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

#[test]
fn served_registry_round_trips_from_disk() {
    // Save the fixture to a temp registry dir, serve from the loaded
    // copy, and check the served curve matches the in-memory original.
    let dir = std::env::temp_dir().join(format!("dtserve-it-registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let original = fixture_artifact("disk");
    original.save(&dir).unwrap();
    let loaded = Artifact::load(dir.join(&original.manifest.id)).unwrap();

    let registry = ArtifactRegistry::open(&dir).unwrap();
    assert_eq!(registry.len(), 1);
    let handle = Server::start(registry, ServeConfig::default()).unwrap();
    let (status, _, body) = post(
        handle.local_addr(),
        "/v1/thermo",
        "{\"artifact\":\"fixture-disk\",\"t_min\":400,\"t_max\":2400,\"num_t\":9}",
    );
    assert_eq!(status, 200, "{body}");

    let (e, lg) = loaded.visited_dos();
    let temps = dt_thermo::temperature_grid(400.0, 2400.0, 9);
    let direct = dt_thermo::canonical_curve(&e, &lg, &temps, KB_EV_PER_K);
    let v = parse_json(&body).unwrap();
    let served_u: Vec<u64> = v
        .get("u")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|x| x.as_f64().unwrap().to_bits())
        .collect();
    let direct_u: Vec<u64> = direct.iter().map(|p| p.u.to_bits()).collect();
    assert_eq!(served_u, direct_u);

    handle.shutdown();
    assert_eq!(handle.join().handler_panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_get_bit_identical_curves() {
    let handle = start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();

    // The ground truth, evaluated directly on the fixture's data.
    let art = fixture_artifact("it");
    let (e, lg) = art.visited_dos();
    let temps = dt_thermo::temperature_grid(300.0, 3000.0, 40);
    let direct = dt_thermo::canonical_curve(&e, &lg, &temps, KB_EV_PER_K);
    let want_bits: Vec<Vec<u64>> = ["temperatures", "u", "cv", "f", "s"]
        .iter()
        .enumerate()
        .map(|(i, _)| {
            direct
                .iter()
                .map(|p| [p.t, p.u, p.cv, p.f, p.s][i].to_bits())
                .collect()
        })
        .collect();

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let want = want_bits.clone();
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let (status, _, body) = post(
                        addr,
                        "/v1/thermo",
                        "{\"artifact\":\"fixture-it\",\"t_min\":300,\"t_max\":3000,\"num_t\":40}",
                    );
                    assert_eq!(status, 200, "{body}");
                    let v = parse_json(&body).unwrap();
                    for (name, want) in ["temperatures", "u", "cv", "f", "s"].iter().zip(&want) {
                        let got: Vec<u64> = v
                            .get(name)
                            .and_then(JsonValue::as_array)
                            .unwrap()
                            .iter()
                            .map(|x| x.as_f64().unwrap().to_bits())
                            .collect();
                        assert_eq!(&got, want, "series {name} differs from direct evaluation");
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.handler_panics, 0);
    assert!(stats.requests_handled >= 40);
}

#[test]
fn abuse_suite_yields_4xx_and_leaves_the_server_healthy() {
    let handle = start(ServeConfig::default());
    let addr = handle.local_addr();

    // Oversized body: declared length beyond the limit.
    let (status, _, _) = exchange(
        addr,
        &format!(
            "POST /v1/thermo HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            MAX_BODY_BYTES + 1
        ),
    );
    assert_eq!(status, 413);

    // Malformed JSON.
    let (status, _, body) = post(addr, "/v1/thermo", "{\"artifact\": <-- nope");
    assert_eq!(status, 400, "{body}");
    assert!(parse_json(&body).unwrap().get("error").is_some());

    // Unknown artifact.
    let (status, _, _) = post(
        addr,
        "/v1/thermo",
        "{\"artifact\":\"ghost\",\"temperatures\":[100]}",
    );
    assert_eq!(status, 404);

    // Unknown endpoint and wrong method.
    let (status, _, _) = exchange(
        addr,
        "GET /v2/everything HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 404);
    let (status, _, _) = exchange(
        addr,
        "DELETE /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);

    // Not HTTP at all.
    let (status, _, _) = exchange(addr, "EHLO mail.example.com\r\n");
    assert_eq!(status, 400);

    // Header flood.
    let flood = format!(
        "GET /healthz HTTP/1.1\r\nx-filler: {}\r\n\r\n",
        "a".repeat(64 * 1024)
    );
    let (status, _, _) = exchange(addr, &flood);
    assert_eq!(status, 431);

    // Chunked upload (unimplemented on purpose).
    let (status, _, _) = exchange(
        addr,
        "POST /v1/thermo HTTP/1.1\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 501);

    // After all that, the server still answers real queries.
    let (status, _, body) = post(
        addr,
        "/v1/thermo",
        "{\"artifact\":\"fixture-it\",\"temperatures\":[1000]}",
    );
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = exchange(addr, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""));

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.handler_panics, 0, "abuse must never panic a worker");
}

#[test]
fn cache_header_distinguishes_hit_from_miss() {
    let handle = start(ServeConfig::default());
    let addr = handle.local_addr();
    let body = "{\"artifact\":\"fixture-it\",\"temperatures\":[321,654,987]}";
    let (status, headers, first) = post(addr, "/v1/thermo", body);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("miss"));
    let (status, headers, second) = post(addr, "/v1/thermo", body);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("hit"));
    assert_eq!(first, second, "hit and miss bodies must be identical");
    handle.shutdown();
    handle.join();
}

#[test]
fn saturation_returns_429_not_unbounded_queueing() {
    // One worker, queue depth one. Under the readiness-driven engine an
    // idle connection costs nothing (that's the point), so saturation
    // means *compute*: a burst of cold, unique-grid thermo evaluations.
    // The single worker can hold one and the queue one more; the
    // reactor must shed the rest of the simultaneous burst with 429.
    let handle = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();

    let mut saw_429 = false;
    let mut saw_200 = false;
    for round in 0..5 {
        let threads: Vec<_> = (0..32)
            .map(|i| {
                std::thread::spawn(move || {
                    // Unique grid per request: every fill is cold and
                    // runs the full evaluation.
                    let body = format!(
                        "{{\"artifact\":\"fixture-it\",\"t_min\":{},\"t_max\":3000,\"num_t\":4096}}",
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
                other => panic!("unexpected status {other} under saturation"),
            }
        }
        if saw_429 && saw_200 {
            break;
        }
    }
    assert!(saw_429, "a saturated queue must shed load with 429");
    assert!(saw_200, "admitted requests must still be answered");

    handle.shutdown();
    let stats = handle.join();
    assert!(stats.queue_rejections > 0);
    assert_eq!(stats.handler_panics, 0);
}

#[test]
fn graceful_shutdown_answers_the_in_flight_request_first() {
    let handle = start(ServeConfig::default());
    let addr = handle.local_addr();

    // Open a keep-alive connection and park it idle, then drain.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    idle.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut reader = BufReader::new(idle.try_clone().unwrap());
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    // Request a drain from a second connection.
    let (status, _, _) = exchange(
        addr,
        "POST /v1/shutdown HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);

    // A request racing the drain on the still-open connection either
    // gets a final answer (connection: close) or the socket closes —
    // never a hang.
    idle.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut status_line = String::new();
    let outcome = reader.read_line(&mut status_line);
    assert!(
        matches!(outcome, Ok(0)) || status_line.starts_with("HTTP/1.1"),
        "got {outcome:?} / {status_line:?}"
    );

    let stats = handle.join();
    assert_eq!(stats.handler_panics, 0);
}
