//! A shard process: one slice of the registry served over the dt-hpc
//! mesh.
//!
//! The fleet reuses the cluster transport instead of inventing a second
//! RPC stack: the router is rank 0 and every shard is a rank `1..=N` of
//! an `(N+1)`-size [`TcpTransport`] bootstrapped through the same
//! [`dt_hpc::TcpRendezvous`] the REWL driver uses. Shard registration
//! *is* rendezvous (the mesh forms when all ranks connect), liveness
//! *is* the transport's EOF detection, and the router→shard
//! hop rides the existing framed wire codec.
//!
//! On startup a shard loads the full registry directory, builds the
//! same [`HashRing`] as the router, and retains only the artifacts the
//! ring assigns to it — shard `i` is rank `i+1` and owns exactly the
//! ids with `ring.shard_for(id) == i`, so the fleet partitions the
//! registry with no coordination beyond the shard count.
//!
//! The RPC protocol is deliberately small:
//!
//! * request — tag `TAG_REQ` (bit 62), payload
//!   `[req_id:u64][op:u8][raw]`, where `op` is `OP_HTTP` (raw = a
//!   serialized HTTP request) or `OP_DRAIN` (raw empty);
//! * response — tag `req_id`, payload an encoded [`Response`]. Request
//!   ids stay below bit 62, so they can never collide with `TAG_REQ`
//!   or the transport's collective tag bit.
//!
//! The receive loop only decodes, parses and submits: requests run on
//! the HTTP engine's worker pool ([`crate::reactor`]) with its
//! semantics — a full queue (1 024 jobs) answers `429`, a job that
//! waited past the default queue deadline answers `503`, and a handler
//! panic answers `500`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dt_codec::bin::{Reader, Writer};
use dt_hpc::{CommError, TcpTransport, Transport};

use crate::api::AppState;
use crate::artifact::ArtifactRegistry;
use crate::http::{try_parse_request, Response, MAX_BODY_BYTES};
use crate::reactor::{Job, Reply, Workers};
use crate::ring::HashRing;
use crate::server::ServeConfig;
use crate::ServeError;

/// Tag carrying router→shard requests. Sits below the transport's
/// collective bit (`1 << 63`) and above every request id.
pub(crate) const TAG_REQ: u64 = 1 << 62;
/// Request op: the payload tail is a serialized HTTP request.
pub const OP_HTTP: u8 = 0;
/// Request op: drain — finish queued work, reply with a drain summary,
/// exit.
pub const OP_DRAIN: u8 = 1;

/// Frame a router→shard request.
pub fn encode_rpc(req_id: u64, op: u8, raw: &[u8]) -> Vec<u8> {
    Writer::with_capacity(9 + raw.len())
        .u64(req_id)
        .u8(op)
        .raw(raw)
        .finish()
}

/// Split a router→shard request frame into `(req_id, op, raw)`.
pub fn decode_rpc(payload: &[u8]) -> Option<(u64, u8, &[u8])> {
    let mut r = Reader::new(payload);
    Some((r.u64().ok()?, r.u8().ok()?, r.rest()))
}

/// Encode a [`Response`] for the shard→router hop:
/// `[status:u16][ct_len:u16][ct][n_extra:u16]([k_len:u16][k][v_len:u16][v])*[body]`.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = Writer::with_capacity(16 + resp.body.len());
    w.u16(resp.status).str16(resp.content_type);
    w.u16(resp.extra_headers.len() as u16);
    for (k, v) in &resp.extra_headers {
        w.str16(k).str16(v);
    }
    w.raw(resp.body.as_bytes()).finish()
}

/// [`Response`] carries `&'static` names; map decoded strings back onto
/// the fixed vocabulary this service actually emits. Unknown names fall
/// back to a safe default (content type) or are dropped (headers).
fn intern_content_type(ct: &str) -> &'static str {
    match ct {
        "application/json" => "application/json",
        _ => "text/plain",
    }
}

fn intern_header_key(k: &str) -> Option<&'static str> {
    match k {
        "x-cache" => Some("x-cache"),
        "x-shard" => Some("x-shard"),
        "retry-after" => Some("retry-after"),
        _ => None,
    }
}

/// Decode a shard→router response frame; `None` when truncated.
pub fn decode_response(payload: &[u8]) -> Option<Response> {
    let mut r = Reader::new(payload);
    let status = r.u16().ok()?;
    let content_type = intern_content_type(r.str16().ok()?);
    let mut extra_headers = Vec::new();
    for _ in 0..r.u16().ok()? {
        let (k, v) = (r.str16().ok()?, r.str16().ok()?);
        if let Some(k) = intern_header_key(k) {
            extra_headers.push((k, v.to_string()));
        }
    }
    Some(Response {
        status,
        body: String::from_utf8(r.rest().to_vec()).ok()?,
        content_type,
        extra_headers,
    })
}

/// Tuning for one shard process.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker threads evaluating requests.
    pub workers: usize,
    /// `/v1/thermo` response cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Chaos hook: when this flag flips, the receive loop exits abruptly
    /// — no drain, no reply — as if the process were killed. The
    /// transport teardown is what the router's liveness then observes.
    pub kill: Option<Arc<AtomicBool>>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 2,
            cache_capacity: 256,
            kill: None,
        }
    }
}

/// Jobs a shard holds for its workers before answering `429`.
const SHARD_QUEUE_DEPTH: usize = 1024;

/// What one shard did over its lifetime, reported when it exits.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Artifacts this shard owned (its ring slice of the registry).
    pub artifacts: usize,
    /// Requests handled to completion (any status).
    pub requests_handled: u64,
    /// Requests whose handler panicked (answered `500`).
    pub handler_panics: u64,
}

/// Serve this rank's slice of `registry` over `transport` until the
/// router drains us, dies, or the chaos kill flag flips.
///
/// `transport` must be a connected fleet mesh with this shard at rank
/// `>= 1`; rank 0 is the router. The full registry is passed in and
/// sliced here — every shard runs the identical deterministic
/// [`HashRing`], so the slices are disjoint and cover every id.
///
/// # Errors
/// [`ServeError::BadConfig`] when called on rank 0 or with zero
/// workers, or any [`AppState::new`] error from the sliced registry.
pub fn run_shard(
    transport: TcpTransport,
    mut registry: ArtifactRegistry,
    config: &ShardConfig,
) -> Result<ShardStats, ServeError> {
    let rank = transport.rank();
    if rank == 0 {
        return Err(ServeError::BadConfig(
            "rank 0 is the router, not a shard".into(),
        ));
    }
    let shards = transport.size() - 1;
    let ring = HashRing::new(shards);
    let shard_index = rank - 1;
    registry.retain(|id| ring.shard_for(id) == shard_index);
    let owned = registry.len();

    let state = Arc::new(AppState::new(registry, config.cache_capacity)?);
    let transport = Arc::new(transport);
    // The engine's own worker pool: workers answer straight onto the
    // transport (sends are thread-safe and buffered).
    let workers = Workers::start(
        state.clone(),
        config.workers,
        SHARD_QUEUE_DEPTH,
        ServeConfig::default().queue_deadline,
    )?;
    let rejected = state.metrics.counter("queue_rejections");
    let reply = |req_id: u64, resp: &Response| {
        transport.send(0, req_id, encode_response(resp), None);
    };

    // `Some(req_id)` when the router asked us to drain.
    let drain = loop {
        // Abrupt death: stop receiving, no drain summary. Once the
        // queued jobs are answered, dropping the last transport handle
        // tears the sockets down, which is how the router learns this
        // slice is gone.
        if config
            .kill
            .as_ref()
            .is_some_and(|k| k.load(Ordering::SeqCst))
        {
            break None;
        }
        match transport.recv_timeout(0, TAG_REQ, Duration::from_millis(100)) {
            Ok(payload) => {
                let Some((req_id, op, raw)) = decode_rpc(&payload) else {
                    continue; // undecodable frame: drop it
                };
                if op == OP_DRAIN {
                    break Some(req_id);
                }
                match try_parse_request(raw, MAX_BODY_BYTES) {
                    Ok(Some((req, _))) => {
                        let job = Job {
                            req,
                            enqueued: Instant::now(),
                            reply: Reply::Rpc {
                                req_id,
                                transport: Arc::clone(&transport),
                            },
                        };
                        if !workers.submit(job) {
                            rejected.inc();
                            reply(
                                req_id,
                                &Response::error(429, "service saturated, retry later"),
                            );
                        }
                    }
                    Ok(None) => reply(req_id, &Response::error(400, "truncated forwarded request")),
                    Err(e) => reply(req_id, &Response::error(400, &e.to_string())),
                }
            }
            // Quiet interval: keep serving while the router lives.
            Err(CommError::Timeout { .. }) if transport.is_alive(0) => {}
            // Router gone (its connection closed): nothing left to serve.
            Err(_) => break None,
        }
    };

    // Everything already queued is answered first; a drain summary is
    // the last frame out.
    state.request_shutdown();
    workers.finish();
    if let Some(req_id) = drain {
        reply(req_id, &Response::json(200, state.drain_summary()));
    }

    Ok(ShardStats {
        artifacts: owned,
        requests_handled: state.metrics.counter("requests_total").get(),
        handler_panics: state.metrics.counter("handler_panics").get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_frames_round_trip() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let frame = encode_rpc(42, OP_HTTP, raw);
        let (id, op, body) = decode_rpc(&frame).unwrap();
        assert_eq!((id, op), (42, OP_HTTP));
        assert_eq!(body, raw);
        assert_eq!(decode_rpc(&frame[..5]), None);
    }

    #[test]
    fn responses_round_trip_with_interned_names() {
        let mut resp = Response::json(200, "{\"ok\":true}");
        resp.extra_headers.push(("x-cache", "hit".to_string()));
        let back = decode_response(&encode_response(&resp)).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.body, "{\"ok\":true}");
        assert_eq!(back.content_type, "application/json");
        assert_eq!(back.extra_headers, vec![("x-cache", "hit".to_string())]);
    }

    #[test]
    fn unknown_header_names_are_dropped_not_corrupted() {
        // Hand-build a frame carrying a header name this build does not
        // intern; the decoder must drop it and keep the rest intact.
        let mut wire = Vec::new();
        wire.extend_from_slice(&503u16.to_le_bytes());
        let ct = b"application/json";
        wire.extend_from_slice(&(ct.len() as u16).to_le_bytes());
        wire.extend_from_slice(ct);
        wire.extend_from_slice(&1u16.to_le_bytes());
        let (k, v) = (b"x-mystery".as_slice(), b"1".as_slice());
        wire.extend_from_slice(&(k.len() as u16).to_le_bytes());
        wire.extend_from_slice(k);
        wire.extend_from_slice(&(v.len() as u16).to_le_bytes());
        wire.extend_from_slice(v);
        wire.extend_from_slice(b"{}");
        let back = decode_response(&wire).unwrap();
        assert_eq!(back.status, 503);
        assert!(back.extra_headers.is_empty());
        assert_eq!(back.body, "{}");
        // And truncation decodes to None, never a panic.
        for cut in 0..4 {
            assert!(decode_response(&wire[..cut]).is_none());
        }
    }
}
