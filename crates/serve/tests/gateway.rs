//! The router's gateway answers, with every shard rank played by hand
//! over raw sockets: the test checks in at the fleet rendezvous, dials
//! the router's mesh port, reads the request frames the router sends and
//! answers them late, wrongly, or not at all.
//!
//! * a shard that never answers costs its request a `504` after
//!   `rpc_deadline`, counted in `route_timeouts`; its reply, when it
//!   finally comes, is dropped, and the next request on the same
//!   keep-alive connection gets its own answer;
//! * a reply that does not decode is a `502`, counted in
//!   `route_bad_frames`;
//! * `/metrics` asks every shard at once, so two silent shards cost it
//!   one deadline, not one each.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dt_hpc::tcp::{decode_frame_header, encode_frame, FRAME_HEADER_BYTES};
use dt_hpc::TcpRendezvous;
use dt_serve::http::Response;
use dt_serve::shard::{decode_rpc, encode_response, OP_HTTP};
use dt_serve::{Router, RouterConfig, ServeHandle};
use dt_telemetry::{parse_json, JsonValue};

/// Longest any socket read in this file may block.
const PATIENCE: Duration = Duration::from_secs(30);

/// A fleet whose router is real and whose `n` shards are hand-played:
/// the router's handle and each shard's mesh socket to it (index 0 is
/// shard 0). `_held` keeps the shards' other sockets open.
struct HandFleet {
    router: ServeHandle,
    shards: Vec<TcpStream>,
    _held: Vec<(TcpListener, Vec<TcpStream>)>,
}

fn hand_fleet(n: usize, rpc_deadline: Duration) -> HandFleet {
    let rendezvous = TcpRendezvous::bind("127.0.0.1:0").unwrap();
    let addr = rendezvous.local_addr().unwrap();
    let router = std::thread::spawn(move || {
        let transport = rendezvous.into_transport(n + 1).unwrap();
        let config = RouterConfig {
            rpc_deadline,
            ..RouterConfig::default()
        };
        Router::start(transport, config).unwrap()
    });

    // Every shard checks in before any reads the port table, which rank
    // 0 sends only once all have.
    let checkins: Vec<(TcpListener, TcpStream)> = (1..=n)
        .map(|rank| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut checkin = TcpStream::connect(addr).unwrap();
            checkin.write_all(&(rank as u32).to_le_bytes()).unwrap();
            let port = listener.local_addr().unwrap().port();
            checkin.write_all(&port.to_le_bytes()).unwrap();
            (listener, checkin)
        })
        .collect();
    let mut shards = Vec::new();
    let mut held = Vec::new();
    for (rank, (listener, mut checkin)) in (1..=n).zip(checkins) {
        let mut table = vec![0u8; 2 * (n + 1)];
        checkin.read_exact(&mut table).unwrap();
        // Rank i dials every lower rank; the router is rank 0.
        let mut dialed: Vec<TcpStream> = (0..rank)
            .map(|j| {
                let port = u16::from_le_bytes([table[2 * j], table[2 * j + 1]]);
                let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
                s.write_all(&(rank as u32).to_le_bytes()).unwrap();
                s
            })
            .collect();
        let to_router = dialed.remove(0);
        to_router.set_read_timeout(Some(PATIENCE)).unwrap();
        shards.push(to_router);
        held.push((listener, dialed));
    }
    HandFleet {
        router: router.join().unwrap(),
        shards,
        _held: held,
    }
}

impl HandFleet {
    /// Close every shard's mesh socket, so the router sees each shard
    /// gone and drains nothing, then drain the router.
    fn finish(self) {
        drop(self.shards);
        self.router.shutdown();
        assert_eq!(self.router.join().handler_panics, 0);
    }
}

/// The next request frame the router sent `shard`: `(req_id, op, raw)`.
fn next_request(shard: &mut TcpStream) -> (u64, u8, Vec<u8>) {
    let mut head = [0u8; FRAME_HEADER_BYTES];
    shard.read_exact(&mut head).unwrap();
    let (len, _tag, _delay) = decode_frame_header(&head).unwrap();
    let mut payload = vec![0u8; len];
    shard.read_exact(&mut payload).unwrap();
    let (req_id, op, raw) = decode_rpc(&payload).unwrap();
    (req_id, op, raw.to_vec())
}

/// Answer `req_id` with `payload` as its reply frame.
fn reply(shard: &mut TcpStream, req_id: u64, payload: &[u8]) {
    shard.write_all(&encode_frame(req_id, 0, payload)).unwrap();
}

fn client(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(PATIENCE)).unwrap();
    stream
}

fn thermo_request(close: bool) -> Vec<u8> {
    let body = "{\"artifact\":\"fixture-x\",\"temperatures\":[900]}";
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "POST /v1/thermo HTTP/1.1\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Read one HTTP response: (status, body).
fn read_response(stream: &TcpStream) -> (u16, String) {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    assert!(reader.buffer().is_empty(), "one response at a time");
    (status, String::from_utf8(body).unwrap())
}

/// `GET /metrics` through the router, every shard answering with an
/// empty snapshot; the router's own counter `name`.
fn router_counter(fleet: &mut HandFleet, name: &str) -> u64 {
    let mut conn = client(fleet.router.local_addr());
    conn.write_all(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    for shard in &mut fleet.shards {
        let (req_id, op, raw) = next_request(shard);
        assert_eq!(op, OP_HTTP);
        assert!(raw.starts_with(b"GET /metrics "));
        let snapshot = Response::json(200, "{\"counters\":{}}");
        reply(shard, req_id, &encode_response(&snapshot));
    }
    let (status, body) = read_response(&conn);
    assert_eq!(status, 200, "{body}");
    let v = parse_json(&body).unwrap();
    let counters = v.get("router").and_then(|r| r.get("counters")).unwrap();
    counters.get(name).and_then(JsonValue::as_u64).unwrap_or(0)
}

#[test]
fn a_silent_shard_is_a_504_and_its_late_reply_answers_nothing() {
    let mut fleet = hand_fleet(1, Duration::from_millis(300));
    let mut conn = client(fleet.router.local_addr());

    conn.write_all(&thermo_request(false)).unwrap();
    let (late_id, op, raw) = next_request(&mut fleet.shards[0]);
    assert_eq!(op, OP_HTTP);
    assert!(raw.starts_with(b"POST /v1/thermo "));
    let (status, body) = read_response(&conn);
    assert_eq!(status, 504, "{body}");
    assert_eq!(router_counter(&mut fleet, "route_timeouts"), 1);

    // The reply comes after the client was answered: nobody takes it.
    let late = Response::json(200, "{\"late\":true}");
    reply(&mut fleet.shards[0], late_id, &encode_response(&late));

    // The same keep-alive connection's next request gets its own answer.
    conn.write_all(&thermo_request(true)).unwrap();
    let (req_id, _, _) = next_request(&mut fleet.shards[0]);
    assert_ne!(req_id, late_id);
    let fresh = Response::json(200, "{\"fresh\":true}");
    reply(&mut fleet.shards[0], req_id, &encode_response(&fresh));
    assert_eq!(read_response(&conn), (200, "{\"fresh\":true}".to_string()));
    assert_eq!(router_counter(&mut fleet, "route_timeouts"), 1);
    fleet.finish();
}

#[test]
fn an_undecodable_reply_is_a_502() {
    let mut fleet = hand_fleet(1, Duration::from_secs(10));
    let conn = {
        let mut conn = client(fleet.router.local_addr());
        conn.write_all(&thermo_request(true)).unwrap();
        conn
    };
    let (req_id, _, _) = next_request(&mut fleet.shards[0]);
    // One byte: not even a status.
    reply(&mut fleet.shards[0], req_id, &[7]);
    let (status, body) = read_response(&conn);
    assert_eq!(status, 502, "{body}");
    assert_eq!(router_counter(&mut fleet, "route_bad_frames"), 1);
    fleet.finish();
}

#[test]
fn metrics_with_two_silent_shards_waits_one_deadline_not_two() {
    let deadline = Duration::from_secs(1);
    let mut fleet = hand_fleet(2, deadline);
    let conn = client(fleet.router.local_addr());
    let started = Instant::now();
    (&conn)
        .write_all(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    for shard in &mut fleet.shards {
        let (_, op, raw) = next_request(shard);
        assert_eq!(op, OP_HTTP);
        assert!(raw.starts_with(b"GET /metrics "));
    }
    let (status, body) = read_response(&conn);
    let waited = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        waited >= deadline,
        "answered before the deadline: {waited:?}"
    );
    assert!(
        waited < deadline + deadline / 2,
        "the shards were asked one after the other: {waited:?}"
    );
    let v = parse_json(&body).unwrap();
    let sections = v.get("shards").and_then(JsonValue::as_array).unwrap();
    assert_eq!(sections.len(), 2, "{body}");
    for s in sections {
        assert_eq!(s.get("status").and_then(JsonValue::as_str), Some("down"));
    }
    fleet.finish();
}

#[test]
fn a_reply_frame_in_two_parts_reaches_the_client_whole() {
    let mut fleet = hand_fleet(1, Duration::from_secs(10));
    let conn = client(fleet.router.local_addr());
    (&conn).write_all(&thermo_request(true)).unwrap();
    let (req_id, _, _) = next_request(&mut fleet.shards[0]);
    // A body longer than one read of the router's decoder, and a frame
    // whose second half comes after the router read the first.
    let body = format!("{{\"pad\":\"{}\"}}", "x".repeat(100_000));
    let frame = encode_frame(
        req_id,
        0,
        &encode_response(&Response::json(200, body.clone())),
    );
    let (first, second) = frame.split_at(frame.len() / 2);
    fleet.shards[0].write_all(first).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    fleet.shards[0].write_all(second).unwrap();
    assert_eq!(read_response(&conn), (200, body));
    fleet.finish();
}

#[test]
fn a_request_in_two_writes_is_forwarded_whole() {
    let mut fleet = hand_fleet(1, Duration::from_secs(10));
    let conn = client(fleet.router.local_addr());
    let request = thermo_request(true);
    let (head, rest) = request.split_at(request.len() - 10);
    (&conn).write_all(head).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    (&conn).write_all(rest).unwrap();
    let (req_id, op, raw) = next_request(&mut fleet.shards[0]);
    assert_eq!(op, OP_HTTP);
    assert!(raw.ends_with(b"\"temperatures\":[900]}"), "{raw:?}");
    let answer = Response::json(200, "{\"whole\":true}");
    reply(&mut fleet.shards[0], req_id, &encode_response(&answer));
    assert_eq!(read_response(&conn), (200, "{\"whole\":true}".to_string()));
    fleet.finish();
}
