//! End-to-end test of the standalone fleet tiers: one real
//! `deepthermo route` process and two `deepthermo shard` processes
//! meeting at a rendezvous address, as a multi-host deployment runs them
//! (README, "Serving"). The router must see both shards, route each
//! slice to its owner, drain both on `POST /v1/shutdown`, and all three
//! processes must exit cleanly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use deepthermo::serve::fixture::fixture_artifact;
use deepthermo::serve::HashRing;
use deepthermo::telemetry::{parse_json, JsonValue};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_deepthermo")
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dt-fleet-cli-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A loopback address nothing listens on right now.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

fn spawn(args: &[&str]) -> Child {
    Command::new(bin())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("launch the deepthermo binary")
}

/// The next line `out` prints, which must start with `prefix`.
fn expect_line(out: &mut BufReader<ChildStdout>, prefix: &str) -> String {
    let mut line = String::new();
    out.read_line(&mut line).unwrap();
    assert!(
        line.starts_with(prefix),
        "expected {prefix:?}, got {line:?}"
    );
    line
}

/// One HTTP exchange on a fresh connection: (status, headers, body).
fn exchange(addr: SocketAddr, raw: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let Some((k, v)) = line.trim_end().split_once(':') else {
            break;
        };
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

/// Wait for `child` to exit (killing it after `patience`) and check that
/// it exited 0; its stdout, with `printed` before it.
fn exits_cleanly(name: &str, mut child: Child, printed: &str, patience: Duration) -> String {
    let deadline = Instant::now() + patience;
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    let stdout = format!("{printed}{}", String::from_utf8_lossy(&out.stdout));
    assert!(
        out.status.success(),
        "{name} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn route_and_two_shard_processes_serve_every_slice_and_drain_together() {
    let registry = scratch("registry");
    let ids: Vec<String> = (0..6)
        .map(|i| {
            let artifact = fixture_artifact(&format!("cli{i}"));
            artifact.save(&registry).unwrap();
            artifact.manifest.id.clone()
        })
        .collect();
    let ring = HashRing::new(2);
    let per_slice: Vec<&String> = (0..2)
        .map(|s| {
            ids.iter()
                .find(|id| ring.shard_for(id) == s)
                .expect("every slice owns an artifact")
        })
        .collect();

    let (rendezvous, front) = (free_addr(), free_addr());
    let mut router = spawn(&[
        "route",
        "--rendezvous",
        &rendezvous,
        "--shards",
        "2",
        "--addr",
        &front,
    ]);
    let mut router_out = BufReader::new(router.stdout.take().unwrap());
    // The rendezvous is bound once the router says it waits.
    let mut printed = expect_line(&mut router_out, "route: waiting for 2 shards");
    let reg = registry.to_str().unwrap();
    let shards: Vec<Child> = ["1", "2"]
        .iter()
        .map(|rank| {
            spawn(&[
                "shard",
                "--rendezvous",
                &rendezvous,
                "--shards",
                "2",
                "--rank",
                rank,
                "--registry",
                reg,
            ])
        })
        .collect();
    printed += &expect_line(&mut router_out, "route: router on http://");
    let addr: SocketAddr = front.parse().unwrap();

    let (status, _, body) = exchange(addr, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    let health = parse_json(&body).unwrap();
    assert_eq!(
        health.get("live_shards").and_then(JsonValue::as_u64),
        Some(2)
    );

    for (slice, id) in per_slice.iter().enumerate() {
        let query = format!("{{\"artifact\":\"{id}\",\"temperatures\":[900,1800]}}");
        let raw = format!(
            "POST /v1/thermo HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{query}",
            query.len()
        );
        let (status, headers, body) = exchange(addr, &raw);
        assert_eq!(status, 200, "{body}");
        let shard = headers.iter().find(|(k, _)| k == "x-shard").map(|(_, v)| v);
        assert_eq!(shard, Some(&slice.to_string()), "{id}");
    }

    let (status, _, body) = exchange(
        addr,
        "POST /v1/shutdown HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "{body}");
    let summary = parse_json(&body).unwrap();
    let drained = summary.get("shards").and_then(JsonValue::as_array).unwrap();
    assert_eq!(drained.len(), 2, "{body}");
    for entry in drained {
        assert!(entry.get("drained").is_some(), "{body}");
    }

    // The router's own stdout is read to its end, so its last lines
    // never meet a closed pipe.
    router_out.read_to_string(&mut printed).unwrap();
    let patience = Duration::from_secs(30);
    let stdout = exits_cleanly("route", router, &printed, patience);
    assert!(stdout.contains("drained: "), "{stdout}");
    for (rank, shard) in shards.into_iter().enumerate() {
        let stdout = exits_cleanly(&format!("shard rank {}", rank + 1), shard, "", patience);
        assert!(stdout.contains("drained: "), "{stdout}");
    }
    let _ = std::fs::remove_dir_all(&registry);
}
