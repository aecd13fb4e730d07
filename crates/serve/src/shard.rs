//! A shard process: one slice of the registry served to the router.
//!
//! The fleet bootstraps over the cluster transport instead of inventing
//! a second one: the router is rank 0 and every shard is a rank `1..=N`
//! of an `(N+1)`-size [`TcpTransport`] built through the same
//! [`dt_hpc::TcpRendezvous`] the REWL driver uses. Shard registration
//! *is* rendezvous (the mesh forms when all ranks connect). Then each
//! side takes its sockets out of the transport
//! ([`TcpTransport::into_streams`]) and drives them itself, framed by
//! the transport's codec ([`FrameDecoder`], [`encode_frame`]): a shard
//! keeps only its socket to the router, and liveness is that socket's
//! end.
//!
//! [`encode_frame`]: dt_hpc::tcp::encode_frame
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
//! One receive thread reads the router's socket through a decoder,
//! decodes and parses each request, and itself answers every
//! `/v1/thermo` request whose body the response cache holds, or that it
//! must refuse (`AppState::handle_unevaluated`): same body, same
//! `x-cache: hit`, same metrics as a worker's answer, and a panic there
//! answers `500` and is counted in `handler_panics`. Every other request
//! (a miss, which evaluates, and the other endpoints) goes to the HTTP
//! engine's worker pool ([`crate::reactor`]) with its semantics: a full
//! queue (1 024 jobs) answers `429`, a job that waited past the default
//! queue deadline answers `503`, and a handler panic answers `500`. A
//! hit never waits in that queue, so neither its depth nor its
//! deadline ever applies to one. The receive thread and the workers
//! write their reply frames on the same socket, a whole frame at a time
//! under its lock, each frame written into one buffer.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dt_codec::bin::{Reader, Writer};
use dt_hpc::tcp::{FrameDecoder, FRAME_HEADER_BYTES, MAX_FRAME_BYTES};
use dt_hpc::{TcpTransport, Transport};

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
    put_response(&mut Writer::with_capacity(64 + resp.body.len()), resp).finish()
}

/// Append `resp` in [`encode_response`]'s layout, the one layout of a
/// reply payload.
fn put_response<'w>(w: &'w mut Writer, resp: &Response) -> &'w mut Writer {
    w.u16(resp.status).str16(resp.content_type);
    w.u16(resp.extra_headers.len() as u16);
    for (k, v) in &resp.extra_headers {
        w.str16(k).str16(v);
    }
    w.raw(resp.body.as_bytes())
}

/// The whole frame that answers `req_id` with `resp`, written into one
/// buffer: the bytes of `encode_frame(req_id, 0, &encode_response(resp))`.
///
/// # Panics
/// When the payload is longer than [`MAX_FRAME_BYTES`], as
/// [`dt_hpc::tcp::encode_frame`] does.
pub(crate) fn reply_frame(req_id: u64, resp: &Response) -> Vec<u8> {
    let mut w = Writer::with_capacity(FRAME_HEADER_BYTES + 64 + resp.body.len());
    // The payload's length is known once it is written; the header's
    // first field is patched then.
    w.u32(0).u64(req_id).u64(0);
    let mut frame = put_response(&mut w, resp).finish();
    let len = frame.len() - FRAME_HEADER_BYTES;
    assert!(
        len <= MAX_FRAME_BYTES,
        "frame payload of {len} bytes exceeds MAX_FRAME_BYTES"
    );
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    frame
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
    take_response(payload.to_vec())
}

/// [`decode_response`] of a payload the caller gives up: the body is
/// the payload's own buffer, its head cut off, not a copy.
pub(crate) fn take_response(mut payload: Vec<u8>) -> Option<Response> {
    let mut r = Reader::new(&payload);
    let status = r.u16().ok()?;
    let content_type = intern_content_type(r.str16().ok()?);
    let mut extra_headers = Vec::new();
    for _ in 0..r.u16().ok()? {
        let (k, v) = (r.str16().ok()?, r.str16().ok()?);
        if let Some(k) = intern_header_key(k) {
            extra_headers.push((k, v.to_string()));
        }
    }
    let head = payload.len() - r.remaining();
    payload.drain(..head);
    Some(Response {
        status,
        body: String::from_utf8(payload).ok()?,
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
    /// — no drain, no reply — as if the process were killed. The end of
    /// its socket is what the router then sees.
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

/// How long the receive thread blocks in one read before it looks at
/// the kill flag again.
const KILL_CHECK: Duration = Duration::from_millis(100);

/// A shard's socket to the router, written by its receive thread and its
/// workers: a whole reply frame at a time, under the lock.
pub(crate) type Link = Arc<Mutex<TcpStream>>;

/// Write `resp` to the router as the reply to `req_id`. A router that is
/// gone reads nothing; the receive thread sees its socket's end.
pub(crate) fn reply_on(link: &Mutex<TcpStream>, req_id: u64, resp: &Response) {
    let frame = reply_frame(req_id, resp);
    let _ = link
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .write_all(&frame);
}

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

/// Serve this rank's slice of `registry` to the router until it drains
/// us, dies, or the chaos kill flag flips.
///
/// `transport` must be a connected fleet mesh with this shard at rank
/// `>= 1`; rank 0 is the router. The full registry is passed in and
/// sliced here — every shard runs the identical deterministic
/// [`HashRing`], so the slices are disjoint and cover every id.
///
/// # Errors
/// [`ServeError::BadConfig`] when called on rank 0 or with zero
/// workers, any [`AppState::new`] error from the sliced registry, or
/// [`ServeError::Bind`] when the router's socket cannot be set up.
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
    let socket_err = |e: std::io::Error| ServeError::Bind {
        addr: "the fleet mesh".into(),
        message: e.to_string(),
    };
    // The router's socket is all a shard keeps of the mesh.
    let router = transport
        .into_streams()
        .map_err(socket_err)?
        .swap_remove(0)
        .expect("a shard has a socket to rank 0");
    router
        .set_read_timeout(Some(KILL_CHECK))
        .map_err(socket_err)?;
    let link: Link = Arc::new(Mutex::new(router.try_clone().map_err(socket_err)?));
    let workers = Workers::start(
        state.clone(),
        config.workers,
        SHARD_QUEUE_DEPTH,
        ServeConfig::default().queue_deadline,
    )?;
    let rejected = state.metrics.counter("queue_rejections");
    let panics = state.metrics.counter("handler_panics");

    // `Some(req_id)` when the router asked us to drain.
    let mut frames = FrameDecoder::default();
    let drain = 'serve: loop {
        // Abrupt death: stop receiving, no drain summary. Once the
        // queued jobs are answered, the socket closes, which is how the
        // router learns this slice is gone.
        if config
            .kill
            .as_ref()
            .is_some_and(|k| k.load(Ordering::SeqCst))
        {
            break None;
        }
        loop {
            let frame = match frames.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                // A header over its bound: nothing after it is framed.
                Err(_) => break 'serve None,
            };
            let Some((req_id, op, raw)) = decode_rpc(&frame.payload) else {
                continue; // undecodable frame: drop it
            };
            if op == OP_DRAIN {
                break 'serve Some(req_id);
            }
            match try_parse_request(raw, MAX_BODY_BYTES) {
                Ok(Some((req, _))) => {
                    // A cache hit or a refusal is answered here, as a
                    // worker would answer it; what evaluates is queued.
                    let now = catch_unwind(AssertUnwindSafe(|| state.handle_unevaluated(&req)))
                        .unwrap_or_else(|_| {
                            panics.inc();
                            Some(Response::error(500, "internal error"))
                        });
                    if let Some(resp) = now {
                        reply_on(&link, req_id, &resp);
                        continue;
                    }
                    let job = Job {
                        req,
                        enqueued: Instant::now(),
                        reply: Reply::Rpc {
                            req_id,
                            link: Arc::clone(&link),
                        },
                    };
                    if !workers.submit(job) {
                        rejected.inc();
                        let saturated = Response::error(429, "service saturated, retry later");
                        reply_on(&link, req_id, &saturated);
                    }
                }
                Ok(None) => reply_on(
                    &link,
                    req_id,
                    &Response::error(400, "truncated forwarded request"),
                ),
                Err(e) => reply_on(&link, req_id, &Response::error(400, &e.to_string())),
            }
        }
        match frames.read_from(&router) {
            // Router gone (its connection closed): nothing left to serve.
            Ok(0) => break None,
            Ok(_) => {}
            // Quiet interval: keep serving while the router lives.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => break None,
        }
    };

    // Everything already queued is answered first; a drain summary is
    // the last frame out.
    state.request_shutdown();
    workers.finish();
    if let Some(req_id) = drain {
        reply_on(&link, req_id, &Response::json(200, state.drain_summary()));
    }
    let _ = router.shutdown(Shutdown::Both);

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
    fn the_one_buffer_reply_frame_is_the_framed_encoding() {
        let mut with_headers = Response::json(200, "{\"t\":[1e3,2e3]}");
        with_headers
            .extra_headers
            .push(("x-cache", "hit".to_string()));
        with_headers
            .extra_headers
            .push(("retry-after", "1".to_string()));
        let plain = Response::error(404, "unknown artifact \"z\"");
        let empty = Response {
            status: 503,
            body: String::new(),
            content_type: "text/plain",
            extra_headers: Vec::new(),
        };
        for (req_id, resp) in [(1, with_headers), (7 << 40, plain), (0, empty)] {
            let framed = dt_hpc::tcp::encode_frame(req_id, 0, &encode_response(&resp));
            assert_eq!(reply_frame(req_id, &resp), framed, "{}", resp.status);
            let back = take_response(framed[FRAME_HEADER_BYTES..].to_vec()).unwrap();
            assert_eq!((back.status, back.body), (resp.status, resp.body));
        }
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
