//! The standalone (single-process) server: configuration, lifecycle
//! handle, and lifetime stats over the reactor engine.
//!
//! The transport — nonblocking sockets, `poll(2)` readiness, the
//! bounded worker queue, graceful drain — lives in [`crate::reactor`];
//! this module binds it to [`AppState`] (the registry + endpoints) and
//! keeps the public `Server`/`ServeHandle`/`ServeStats` surface that
//! the CLI, benches, and tests use. The router tier
//! ([`crate::router`]) drives the very same engine with its own
//! application state and gets the same [`ServeHandle`] back.
//!
//! Backpressure is explicit: the request queue is bounded (queue full
//! answers `429`), every queued request carries its enqueue time (a
//! worker that dequeues it after the deadline answers `503`), and
//! handler panics are contained with `catch_unwind` (`500`). Shutdown
//! (via [`ServeHandle::shutdown`] or `POST /v1/shutdown`) flips a
//! shared flag: the reactor stops accepting, closes idle connections,
//! finishes in-flight requests, and exits; [`ServeHandle::join`]
//! returns the final [`ServeStats`].

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dt_telemetry::MetricsRegistry;

use crate::api::AppState;
use crate::artifact::ArtifactRegistry;
use crate::http::{Request, Response};
use crate::reactor::{start_engine, App};
use crate::ServeError;

/// Tuning knobs for a [`Server`] (and, through
/// [`crate::RouterConfig::serve`], for a router's front door).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `"127.0.0.1:8080"` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling parsed requests.
    pub workers: usize,
    /// Bounded queue depth between the reactor and the workers;
    /// requests beyond this return `429`.
    pub queue_depth: usize,
    /// Longest a request may wait in the queue before a worker answers
    /// `503` instead of doing stale work.
    pub queue_deadline: Duration,
    /// `/v1/thermo` response cache capacity (0 disables caching). A
    /// router ignores it: its shards cache, each per its
    /// [`crate::ShardConfig`].
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 128,
            queue_deadline: Duration::from_secs(2),
            cache_capacity: 256,
        }
    }
}

/// Counters describing one server's lifetime, reported by
/// [`ServeHandle::join`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Connections accepted by the reactor.
    pub connections_admitted: u64,
    /// Requests rejected with `429` because the worker queue was full.
    pub queue_rejections: u64,
    /// Requests answered `503` after exceeding the queue deadline.
    pub deadline_expired: u64,
    /// Requests whose handler panicked (answered `500`).
    pub handler_panics: u64,
    /// Requests handled to completion (any status).
    pub requests_handled: u64,
}

impl ServeStats {
    /// Snapshot the engine counters out of a metrics registry.
    fn from_metrics(m: &MetricsRegistry) -> ServeStats {
        ServeStats {
            connections_admitted: m.counter("connections_admitted").get(),
            queue_rejections: m.counter("queue_rejections").get(),
            deadline_expired: m.counter("deadline_expired").get(),
            handler_panics: m.counter("handler_panics").get(),
            requests_handled: m.counter("requests_total").get(),
        }
    }
}

impl App for AppState {
    fn handle(&self, req: &Request) -> Response {
        AppState::handle(self, req)
    }

    fn shutdown_requested(&self) -> bool {
        AppState::shutdown_requested(self)
    }

    fn shutdown(&self) {
        self.request_shutdown();
    }

    fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

/// The thermodynamics query service.
///
/// `Server` is a namespace: [`Server::start`] does the work and hands
/// back a [`ServeHandle`].
pub struct Server;

impl Server {
    /// Bind, spawn the reactor and worker threads, and return a handle.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] for zero workers or a zero queue
    /// depth, [`ServeError::Bind`] when the listen socket cannot be
    /// created, or any [`AppState::new`] error.
    pub fn start(
        registry: ArtifactRegistry,
        config: ServeConfig,
    ) -> Result<ServeHandle, ServeError> {
        let state = Arc::new(AppState::new(registry, config.cache_capacity)?);
        start_engine(state, &config)
    }
}

/// A running server or router: the application it serves plus the
/// reactor thread to join.
pub struct ServeHandle {
    pub(crate) app: Arc<dyn App>,
    pub(crate) addr: SocketAddr,
    pub(crate) reactor: JoinHandle<()>,
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain: stop accepting, finish what's queued and
    /// in flight. A router drains every shard first. Idempotent;
    /// `POST /v1/shutdown` takes the same path.
    pub fn shutdown(&self) {
        self.app.shutdown();
    }

    /// Wait for the drain to complete and report lifetime stats.
    /// Requests admitted before shutdown are all answered first.
    pub fn join(self) -> ServeStats {
        let _ = self.reactor.join();
        ServeStats::from_metrics(self.app.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::fixture_artifact;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn start_fixture_server(config: ServeConfig) -> ServeHandle {
        let mut registry = ArtifactRegistry::new();
        registry.insert(fixture_artifact("srv"));
        Server::start(registry, config).unwrap()
    }

    /// One blocking HTTP exchange on a fresh connection; returns
    /// (status, body).
    fn roundtrip(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        read_response(&mut BufReader::new(stream))
    }

    fn read_response<R: BufRead>(reader: &mut R) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn serves_healthz_over_a_real_socket() {
        let handle = start_fixture_server(ServeConfig::default());
        let addr = handle.local_addr();
        let (status, body) = roundtrip(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""), "{body}");
        handle.shutdown();
        let stats = handle.join();
        assert_eq!(stats.handler_panics, 0);
        assert!(stats.requests_handled >= 1);
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let handle = start_fixture_server(ServeConfig::default());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        for _ in 0..3 {
            stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let (status, _) = read_response(&mut reader);
            assert_eq!(status, 200);
        }
        handle.shutdown();
        let stats = handle.join();
        assert_eq!(stats.connections_admitted, 1);
        assert_eq!(stats.requests_handled, 3);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let handle = start_fixture_server(ServeConfig::default());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // Two requests in one write: the reactor must serve them
        // sequentially off the same buffer.
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream);
        let (s1, _) = read_response(&mut reader);
        let (s2, _) = read_response(&mut reader);
        assert_eq!((s1, s2), (200, 200));
        handle.shutdown();
        let stats = handle.join();
        assert_eq!(stats.requests_handled, 2);
        assert_eq!(stats.connections_admitted, 1);
    }

    #[test]
    fn graceful_shutdown_refuses_new_connections() {
        let handle = start_fixture_server(ServeConfig::default());
        let addr = handle.local_addr();
        handle.shutdown();
        let stats = handle.join();
        assert_eq!(stats.handler_panics, 0);
        // The listener is gone: connects fail or are refused.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
    }

    #[test]
    fn shutdown_endpoint_drains_the_server() {
        let handle = start_fixture_server(ServeConfig::default());
        let addr = handle.local_addr();
        let (status, body) = roundtrip(
            addr,
            "POST /v1/shutdown HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        assert!(body.contains("draining"), "{body}");
        let stats = handle.join();
        assert_eq!(stats.handler_panics, 0);
    }

    #[test]
    fn bad_config_is_rejected() {
        for bad in [
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_depth: 0,
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(
                Server::start(ArtifactRegistry::new(), bad),
                Err(ServeError::BadConfig(_))
            ));
        }
    }
}
