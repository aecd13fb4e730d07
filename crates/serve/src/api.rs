//! Endpoint handlers: the pure `Request → Response` core of the
//! service.
//!
//! Everything here is synchronous and deterministic so it can be tested
//! without sockets. The engine ([`crate::reactor`]) owns threads,
//! queues, and deadlines; this module owns JSON parsing, artifact
//! lookup, thermodynamics evaluation, the response cache, and the
//! metrics it all emits. The router ([`crate::router`]) serves the same
//! endpoint set and shares this module's answer to any other request.
//!
//! ## Endpoints
//!
//! | Method | Path            | Purpose                                     |
//! |--------|-----------------|---------------------------------------------|
//! | GET    | `/healthz`      | Liveness + artifact count                   |
//! | GET    | `/metrics`      | Metrics registry snapshot (JSON)            |
//! | GET    | `/v1/artifacts` | List loaded artifacts with manifests        |
//! | POST   | `/v1/thermo`    | Canonical U/C_v/F/S curve (LRU-cached)      |
//! | POST   | `/v1/sro`       | Reweighted short-range order vs temperature |
//! | POST   | `/v1/predict`   | Batched surrogate per-site energies         |
//! | POST   | `/v1/shutdown`  | Begin graceful drain                        |
//!
//! Malformed bodies map to `400`, unknown artifacts to `404`, requests
//! that parse but cannot be served to `422` — handlers never panic on
//! client input.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use dt_surrogate::SurrogateModel;
use dt_telemetry::{parse_json, push_f64, push_json_string, JsonValue, MetricsRegistry};
use dt_thermo::{try_canonical_curve, ThermoPoint, KB_EV_PER_K};

use crate::artifact::{Artifact, ArtifactRegistry};
use crate::cache::{CacheKey, ResponseCache};
use crate::http::{Request, Response};
use crate::ServeError;

/// Most temperatures accepted in one request (grid or explicit list).
pub const MAX_TEMPERATURES: usize = 4096;
/// Most feature rows accepted by one `/v1/predict` call.
pub const MAX_PREDICT_ROWS: usize = 4096;

/// Most bytes [`push_f64`] writes for one number (`-d.{16 digits}e-308`)
/// plus its separator: bodies reserve this per number up front.
const MAX_NUMBER_BYTES: usize = 25;

/// Per-endpoint latency histogram names, as exported by `/metrics`.
const LATENCY_HISTOGRAMS: &[&str] = &[
    "latency_healthz_ns",
    "latency_metrics_ns",
    "latency_artifacts_ns",
    "latency_thermo_ns",
    "latency_sro_ns",
    "latency_predict_ns",
    "latency_shutdown_ns",
    "latency_other_ns",
];

/// Shared, thread-safe application state: the loaded registry, the
/// response cache, metrics, and the drain flag.
pub struct AppState {
    registry: ArtifactRegistry,
    surrogates: HashMap<String, SurrogateModel>,
    cache: ResponseCache,
    cache_capacity: usize,
    /// Metrics shared with the transport layer (queue rejections and
    /// deadline expiries are recorded there, served from here).
    pub metrics: MetricsRegistry,
    shutdown: AtomicBool,
    started: Instant,
}

impl AppState {
    /// Build serving state over a loaded registry. Surrogate models are
    /// deserialized once, up front, so `/v1/predict` never parses text
    /// on the hot path.
    ///
    /// # Errors
    /// [`ServeError::BadArtifact`] when an artifact carries surrogate
    /// text that does not deserialize.
    pub fn new(registry: ArtifactRegistry, cache_capacity: usize) -> Result<AppState, ServeError> {
        let mut surrogates = HashMap::new();
        for artifact in registry.iter() {
            if let Some(text) = &artifact.surrogate_text {
                let model = SurrogateModel::load(text).map_err(|e| ServeError::BadArtifact {
                    path: std::path::PathBuf::from(&artifact.manifest.id),
                    what: format!("surrogate: {e}"),
                })?;
                surrogates.insert(artifact.manifest.id.clone(), model);
            }
        }
        Ok(AppState {
            registry,
            surrogates,
            cache: ResponseCache::new(cache_capacity),
            cache_capacity,
            metrics: MetricsRegistry::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        })
    }

    /// The loaded registry.
    pub fn registry(&self) -> &ArtifactRegistry {
        &self.registry
    }

    /// Ask the server to drain and stop accepting connections.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Dispatch one request, recording request metrics.
    pub fn handle(&self, req: &Request) -> Response {
        let start = Instant::now();
        let (latency, resp) = self.route(req);
        self.record(latency, &resp, start);
        resp
    }

    /// [`Self::handle`]'s answer to `req`, with the same metrics
    /// recorded, when it is a `/v1/thermo` request that needs no
    /// evaluation: its body is cached, or it is refused. `None`, and
    /// nothing recorded, for a miss or any other request. A thread that
    /// reads requests can answer these without handing them to a
    /// worker.
    pub(crate) fn handle_unevaluated(&self, req: &Request) -> Option<Response> {
        if (req.method.as_str(), req.target.as_str()) != ("POST", "/v1/thermo") {
            return None;
        }
        let start = Instant::now();
        let resp = self.thermo_lookup(&req.body).err()?;
        self.record("latency_thermo_ns", &resp, start);
        Some(resp)
    }

    /// Count one answered request in `requests_total`, its status class
    /// and the `latency` histogram.
    fn record(&self, latency: &'static str, resp: &Response, start: Instant) {
        self.metrics.counter("requests_total").inc();
        if resp.status >= 500 {
            self.metrics.counter("responses_5xx").inc();
        } else if resp.status >= 400 {
            self.metrics.counter("responses_4xx").inc();
        }
        self.metrics
            .histogram(latency)
            .record(start.elapsed().as_nanos() as u64);
    }

    /// The response plus the latency histogram it is recorded in.
    fn route(&self, req: &Request) -> (&'static str, Response) {
        match (req.method.as_str(), req.target.as_str()) {
            ("GET", "/healthz") => ("latency_healthz_ns", self.healthz()),
            ("GET", "/metrics") => ("latency_metrics_ns", self.metrics_snapshot()),
            ("GET", "/v1/artifacts") => ("latency_artifacts_ns", self.list_artifacts()),
            ("POST", "/v1/thermo") => ("latency_thermo_ns", self.thermo(&req.body)),
            ("POST", "/v1/sro") => ("latency_sro_ns", self.sro(&req.body)),
            ("POST", "/v1/predict") => ("latency_predict_ns", self.predict(&req.body)),
            ("POST", "/v1/shutdown") => ("latency_shutdown_ns", self.begin_shutdown()),
            _ => ("latency_other_ns", no_route(req)),
        }
    }

    fn healthz(&self) -> Response {
        let mut body = String::from("{\"status\":");
        push_json_string(
            &mut body,
            if self.shutdown_requested() {
                "draining"
            } else {
                "ok"
            },
        );
        body.push_str(&format!(",\"artifacts\":{}", self.registry.len()));
        body.push_str(",\"uptime_s\":");
        push_f64(&mut body, self.started.elapsed().as_secs_f64());
        body.push('}');
        Response::json(200, body)
    }

    fn metrics_snapshot(&self) -> Response {
        let mut body = String::from("{\"counters\":{");
        for (i, (name, value)) in self.metrics.counter_values().iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_json_string(&mut body, name);
            body.push_str(&format!(":{value}"));
        }
        body.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.metrics.gauge_values().iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_json_string(&mut body, name);
            body.push(':');
            push_f64(&mut body, *value);
        }
        body.push_str("},\"latency\":{");
        let mut first = true;
        for name in LATENCY_HISTOGRAMS {
            let h = self.metrics.histogram(name);
            if h.count() == 0 {
                continue;
            }
            if !first {
                body.push(',');
            }
            first = false;
            push_json_string(&mut body, name);
            body.push_str(&format!(":{{\"count\":{},\"mean_ns\":", h.count()));
            push_f64(&mut body, h.mean());
            body.push_str(",\"p50_ns\":");
            push_f64(&mut body, h.quantile(0.5));
            body.push_str(",\"p99_ns\":");
            push_f64(&mut body, h.quantile(0.99));
            body.push('}');
        }
        let cache_len = self.cache.len();
        body.push_str(&format!(
            "}},\"cache\":{{\"entries\":{cache_len},\"capacity\":{}}}}}",
            self.cache_capacity
        ));
        Response::json(200, body)
    }

    fn list_artifacts(&self) -> Response {
        let mut body = format!("{{\"count\":{},\"artifacts\":[", self.registry.len());
        for (i, artifact) in self.registry.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let visited = artifact.mask.iter().filter(|&&v| v).count();
            body.push_str(&format!(
                "{{\"manifest\":{},\"num_bins\":{},\"visited_bins\":{visited},\"has_sro\":{},\"has_surrogate\":{}}}",
                artifact.manifest.to_json(),
                artifact.grid.num_bins(),
                artifact.sro.is_some(),
                artifact.surrogate_text.is_some()
            ));
        }
        body.push_str("]}");
        Response::json(200, body)
    }

    fn begin_shutdown(&self) -> Response {
        self.request_shutdown();
        Response::json(200, self.drain_summary())
    }

    /// The drain summary body: `"status":"draining"` plus a snapshot of
    /// the lifetime counters at the moment the drain began. The router
    /// collects one of these per shard and embeds them in its own
    /// fleet-wide summary.
    pub fn drain_summary(&self) -> String {
        let mut body = String::from("{\"status\":\"draining\"");
        for name in [
            "requests_total",
            "connections_admitted",
            "queue_rejections",
            "deadline_expired",
            "handler_panics",
            "thermo_cache_hits",
            "thermo_cache_misses",
        ] {
            body.push_str(&format!(",\"{name}\":{}", self.metrics.counter(name).get()));
        }
        body.push_str(",\"uptime_s\":");
        push_f64(&mut body, self.started.elapsed().as_secs_f64());
        body.push('}');
        body
    }

    /// The first half of `/v1/thermo`, before any evaluation: parse the
    /// body, find the artifact and the grid, build the key and look it
    /// up. A request that needs no evaluation is answered here (`Err`):
    /// with the cached body, or with its error.
    fn thermo_lookup(&self, body: &[u8]) -> Result<ThermoMiss<'_>, Response> {
        let v = parse_body(body)?;
        let artifact = self.lookup_artifact(&v)?;
        let temps = requested_temperatures(&v)?;
        // The curve is a pure function of (artifact, T-grid): key the
        // cache on the exact bit patterns so distinct grids never
        // collide and identical grids always hit.
        let key = ResponseCache::key(&artifact.manifest.id, &temps);
        if let Some(body) = self.cache.get(&key) {
            self.metrics.counter("thermo_cache_hits").inc();
            return Err(thermo_response(body, "hit"));
        }
        Ok(ThermoMiss {
            artifact,
            temps,
            key,
        })
    }

    fn thermo(&self, body: &[u8]) -> Response {
        let ThermoMiss {
            artifact,
            temps,
            key,
        } = match self.thermo_lookup(body) {
            Ok(miss) => miss,
            Err(answer) => return answer,
        };
        // Single-flight fill: under a cold-key stampede, one caller
        // evaluates the curve while every concurrent twin parks on the
        // flight and shares the body — `thermo_evaluations` counts
        // actual evaluations, which the E14 gate pins to one per key.
        let (result, led) = self.cache.fill(&key, || {
            self.metrics.counter("thermo_evaluations").inc();
            let (energies, ln_g) = artifact.visited_dos();
            let curve = try_canonical_curve(&energies, &ln_g, &temps, KB_EV_PER_K)
                .map_err(|e| Response::error(422, &e.to_string()))?;
            Ok(thermo_body(&artifact.manifest.id, &curve))
        });
        let cache_state = if led {
            self.metrics.counter("thermo_cache_misses").inc();
            "miss"
        } else {
            self.metrics.counter("thermo_coalesced").inc();
            "coalesced"
        };
        match result {
            Ok(body) => thermo_response(body, cache_state),
            Err(resp) => resp,
        }
    }

    fn sro(&self, body: &[u8]) -> Response {
        let v = match parse_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let artifact = match self.lookup_artifact(&v) {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        let Some(sro) = &artifact.sro else {
            return Response::error(422, "artifact has no SRO accumulator");
        };
        let temps = match requested_temperatures(&v) {
            Ok(t) => t,
            Err(resp) => return resp,
        };
        let m = artifact.manifest.species.len();
        if m == 0 || sro.obs_dim() % (m * m) != 0 {
            return Response::error(
                422,
                "artifact SRO accumulator is not shaped num_shells x m x m",
            );
        }
        let num_shells = sro.obs_dim() / (m * m);
        let fractions = artifact.manifest.fractions();
        let (grid_energies, grid_ln_g) = artifact.grid_dos_masked();

        // Two series of one bracketed obs_dim row per temperature; the
        // second is rendered beside the first and appended after it.
        let series_bytes = temps.len() * (sro.obs_dim() * MAX_NUMBER_BYTES + 3);
        let mut body =
            String::with_capacity(256 + temps.len() * MAX_NUMBER_BYTES + 2 * series_bytes);
        body.push_str("{\"artifact\":");
        push_json_string(&mut body, &artifact.manifest.id);
        body.push_str(",\"species\":[");
        for (i, s) in artifact.manifest.species.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_json_string(&mut body, s);
        }
        body.push_str(&format!(
            "],\"num_species\":{m},\"num_shells\":{num_shells},\"temperatures\":["
        ));
        for (i, t) in temps.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_f64(&mut body, *t);
        }
        // Flat shell-major layout: index = shell*m*m + a*m + b.
        body.push_str("],\"pair_probabilities\":[");
        let mut alphas = String::with_capacity(series_bytes);
        for (ti, &t) in temps.iter().enumerate() {
            let beta = 1.0 / (KB_EV_PER_K * t);
            let mean = sro.canonical_average(&grid_energies, &grid_ln_g, beta);
            if ti > 0 {
                body.push(',');
                alphas.push(',');
            }
            body.push('[');
            alphas.push('[');
            for (i, &p) in mean.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                    alphas.push(',');
                }
                push_f64(&mut body, p);
                let (a, b) = ((i / m) % m, i % m);
                push_f64(&mut alphas, 1.0 - p / (fractions[a] * fractions[b]));
            }
            body.push(']');
            alphas.push(']');
        }
        body.push_str("],\"warren_cowley\":[");
        body.push_str(&alphas);
        body.push_str("]}");
        Response::json(200, body)
    }

    fn predict(&self, body: &[u8]) -> Response {
        let v = match parse_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let artifact = match self.lookup_artifact(&v) {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        let Some(model) = self.surrogates.get(&artifact.manifest.id) else {
            return Response::error(422, "artifact has no surrogate model");
        };
        let dim = model.descriptor().dim();
        let Some(rows) = v.get("features").and_then(JsonValue::as_array) else {
            return Response::error(400, "missing \"features\" array of feature rows");
        };
        if rows.is_empty() {
            return Response::error(422, "\"features\" must be non-empty");
        }
        if rows.len() > MAX_PREDICT_ROWS {
            return Response::error(
                422,
                &format!("at most {MAX_PREDICT_ROWS} feature rows per request"),
            );
        }
        let mut features = Vec::with_capacity(rows.len() * dim);
        for (i, row) in rows.iter().enumerate() {
            let Some(row) = row.as_array() else {
                return Response::error(422, &format!("feature row {i} is not an array"));
            };
            if row.len() != dim {
                return Response::error(
                    422,
                    &format!(
                        "feature row {i} has {} values, descriptor needs {dim}",
                        row.len()
                    ),
                );
            }
            for value in row {
                match value.as_f64().filter(|x| x.is_finite()) {
                    Some(x) => features.push(x),
                    None => {
                        return Response::error(
                            422,
                            &format!("feature row {i} contains a non-finite value"),
                        )
                    }
                }
            }
        }
        // One batched forward over every requested row through the same
        // batch-first `Mlp::forward_into` surface the samplers use, so a
        // request is a single rows×dim matmul chain regardless of count.
        let mut scratch = model.forward_scratch(rows.len());
        let mut preds = Vec::with_capacity(rows.len());
        model.predict_rows_with(&features, rows.len(), &mut scratch, &mut preds);
        self.metrics
            .counter("predict_rows_total")
            .add(preds.len() as u64);

        let mut body =
            String::with_capacity(96 + artifact.manifest.id.len() + preds.len() * MAX_NUMBER_BYTES);
        body.push_str("{\"artifact\":");
        push_json_string(&mut body, &artifact.manifest.id);
        body.push_str(&format!(",\"count\":{},\"per_site_energy\":[", preds.len()));
        for (i, p) in preds.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_f64(&mut body, *p);
        }
        body.push_str("]}");
        Response::json(200, body)
    }

    fn lookup_artifact(&self, v: &JsonValue) -> Result<&Artifact, Response> {
        let id = v
            .get("artifact")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| Response::error(400, "missing string field \"artifact\""))?;
        self.registry
            .get(id)
            .ok_or_else(|| Response::error(404, &format!("unknown artifact {id:?}")))
    }
}

/// A parsed `/v1/thermo` request whose body the cache does not hold.
struct ThermoMiss<'a> {
    artifact: &'a Artifact,
    temps: Vec<f64>,
    key: CacheKey,
}

/// A curve body as `/v1/thermo` sends it, saying how the cache served it.
fn thermo_response(body: String, cache_state: &str) -> Response {
    let mut resp = Response::json(200, body);
    resp.extra_headers
        .push(("x-cache", cache_state.to_string()));
    resp
}

/// The answer to a request no endpoint takes: `405` on a known path
/// with the wrong method, `404` on any other path.
pub(crate) fn no_route(req: &Request) -> Response {
    match req.target.as_str() {
        "/healthz" | "/metrics" | "/v1/artifacts" => {
            Response::error(405, "endpoint only supports GET")
        }
        "/v1/thermo" | "/v1/sro" | "/v1/predict" | "/v1/shutdown" => {
            Response::error(405, "endpoint only supports POST")
        }
        target => Response::error(404, &format!("no such endpoint: {target}")),
    }
}

fn parse_body(body: &[u8]) -> Result<JsonValue, Response> {
    let text =
        std::str::from_utf8(body).map_err(|_| Response::error(400, "request body is not UTF-8"))?;
    parse_json(text).map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))
}

/// The request's temperature grid: an explicit `"temperatures"` array,
/// or `t_min`/`t_max`/`num_t` expanded exactly like the CLI does (so a
/// served curve matches an offline `temperature_grid` evaluation
/// bit-for-bit).
fn requested_temperatures(v: &JsonValue) -> Result<Vec<f64>, Response> {
    if let Some(arr) = v.get("temperatures").and_then(JsonValue::as_array) {
        if arr.is_empty() {
            return Err(Response::error(422, "\"temperatures\" must be non-empty"));
        }
        if arr.len() > MAX_TEMPERATURES {
            return Err(Response::error(
                422,
                &format!("at most {MAX_TEMPERATURES} temperatures per request"),
            ));
        }
        arr.iter()
            .map(|e| {
                e.as_f64()
                    .filter(|t| t.is_finite() && *t > 0.0)
                    .ok_or_else(|| {
                        Response::error(422, "temperatures must be positive finite numbers")
                    })
            })
            .collect()
    } else {
        let num = |key: &str| {
            v.get(key).and_then(JsonValue::as_f64).ok_or_else(|| {
                Response::error(
                    400,
                    &format!("missing numeric \"{key}\" (or a \"temperatures\" array)"),
                )
            })
        };
        let t_min = num("t_min")?;
        let t_max = num("t_max")?;
        let n = v.get("num_t").and_then(JsonValue::as_u64).ok_or_else(|| {
            Response::error(
                400,
                "missing integer \"num_t\" (or a \"temperatures\" array)",
            )
        })? as usize;
        if n > MAX_TEMPERATURES {
            return Err(Response::error(
                422,
                &format!("at most {MAX_TEMPERATURES} temperatures per request"),
            ));
        }
        dt_thermo::try_temperature_grid(t_min, t_max, n)
            .map_err(|e| Response::error(422, &e.to_string()))
    }
}

/// Serialize a thermo curve. `f64` values are written in Rust's
/// shortest-round-trip form, so a client parsing them with a correct
/// `f64` parser recovers the exact bits `canonical_curve` produced.
fn thermo_body(id: &str, curve: &[ThermoPoint]) -> String {
    let mut body = String::with_capacity(128 + id.len() + 5 * curve.len() * MAX_NUMBER_BYTES);
    body.push_str("{\"artifact\":");
    push_json_string(&mut body, id);
    body.push_str(",\"kb_ev_per_k\":");
    push_f64(&mut body, KB_EV_PER_K);
    let series = |out: &mut String, name: &str, get: fn(&ThermoPoint) -> f64| {
        out.push_str(",\"");
        out.push_str(name);
        out.push_str("\":[");
        for (i, p) in curve.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_f64(out, get(p));
        }
        out.push(']');
    };
    series(&mut body, "temperatures", |p| p.t);
    series(&mut body, "u", |p| p.u);
    series(&mut body, "cv", |p| p.cv);
    series(&mut body, "f", |p| p.f);
    series(&mut body, "s", |p| p.s);
    body.push('}');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::fixture_artifact;

    fn state() -> AppState {
        let mut registry = ArtifactRegistry::new();
        registry.insert(fixture_artifact("api"));
        AppState::new(registry, 32).unwrap()
    }

    fn get(target: &str) -> Request {
        Request {
            method: "GET".into(),
            target: target.into(),
            http11: true,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn post(target: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            target: target.into(),
            http11: true,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
        resp.extra_headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn healthz_and_artifacts_are_valid_json() {
        let st = state();
        let resp = st.handle(&get("/healthz"));
        assert_eq!(resp.status, 200);
        let v = parse_json(&resp.body).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert_eq!(v.get("artifacts").and_then(JsonValue::as_u64), Some(1));

        let resp = st.handle(&get("/v1/artifacts"));
        assert_eq!(resp.status, 200);
        let v = parse_json(&resp.body).unwrap();
        let arts = v.get("artifacts").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arts.len(), 1);
        let manifest = arts[0].get("manifest").unwrap();
        assert_eq!(
            manifest.get("id").and_then(JsonValue::as_str),
            Some("fixture-api")
        );
        assert_eq!(
            arts[0].get("has_sro").and_then(JsonValue::as_bool),
            Some(true)
        );
    }

    #[test]
    fn thermo_curve_is_bit_identical_to_direct_evaluation() {
        let st = state();
        let resp = st.handle(&post(
            "/v1/thermo",
            "{\"artifact\":\"fixture-api\",\"t_min\":300,\"t_max\":3000,\"num_t\":20}",
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(header(&resp, "x-cache"), Some("miss"));
        let v = parse_json(&resp.body).unwrap();

        let art = fixture_artifact("api");
        let (e, lg) = art.visited_dos();
        let temps = dt_thermo::temperature_grid(300.0, 3000.0, 20);
        let direct = dt_thermo::canonical_curve(&e, &lg, &temps, KB_EV_PER_K);

        let series = |name: &str| -> Vec<u64> {
            v.get(name)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|x| x.as_f64().unwrap().to_bits())
                .collect()
        };
        let bits = |get: fn(&ThermoPoint) -> f64| -> Vec<u64> {
            direct.iter().map(|p| get(p).to_bits()).collect()
        };
        assert_eq!(series("temperatures"), bits(|p| p.t));
        assert_eq!(series("u"), bits(|p| p.u));
        assert_eq!(series("cv"), bits(|p| p.cv));
        assert_eq!(series("f"), bits(|p| p.f));
        assert_eq!(series("s"), bits(|p| p.s));
    }

    #[test]
    fn thermo_cache_hits_serve_identical_bodies() {
        let st = state();
        let req = post(
            "/v1/thermo",
            "{\"artifact\":\"fixture-api\",\"temperatures\":[500,1000,1500]}",
        );
        let miss = st.handle(&req);
        assert_eq!(header(&miss, "x-cache"), Some("miss"));
        let hit = st.handle(&req);
        assert_eq!(header(&hit, "x-cache"), Some("hit"));
        assert_eq!(miss.body, hit.body, "cache must not alter the body");
        // A different grid is a different cache key.
        let other = st.handle(&post(
            "/v1/thermo",
            "{\"artifact\":\"fixture-api\",\"temperatures\":[500,1000,1501]}",
        ));
        assert_eq!(header(&other, "x-cache"), Some("miss"));
        assert_eq!(st.metrics.counter("thermo_cache_hits").get(), 1);
        assert_eq!(st.metrics.counter("thermo_cache_misses").get(), 2);
    }

    #[test]
    fn cache_key_is_the_exact_grid_however_it_was_spelled() {
        let st = state();
        let generated = st.handle(&post(
            "/v1/thermo",
            "{\"artifact\":\"fixture-api\",\"t_min\":300,\"t_max\":3000,\"num_t\":17}",
        ));
        assert_eq!(header(&generated, "x-cache"), Some("miss"));
        let explicit = |temps: &[f64]| {
            let list: Vec<String> = temps.iter().map(|t| format!("{t}")).collect();
            post(
                "/v1/thermo",
                &format!(
                    "{{\"artifact\":\"fixture-api\",\"temperatures\":[{}]}}",
                    list.join(",")
                ),
            )
        };
        // The same numbers sent as a list are the same entry...
        let mut temps = dt_thermo::try_temperature_grid(300.0, 3000.0, 17).unwrap();
        let listed = st.handle(&explicit(&temps));
        assert_eq!(header(&listed, "x-cache"), Some("hit"));
        assert_eq!(listed.body, generated.body);
        // ...and one ulp on one of them is another.
        temps[8] = f64::from_bits(temps[8].to_bits() + 1);
        let nudged = st.handle(&explicit(&temps));
        assert_eq!(header(&nudged, "x-cache"), Some("miss"));
        assert_ne!(nudged.body, generated.body);
    }

    #[test]
    fn sro_reports_pair_probabilities_and_warren_cowley() {
        let st = state();
        let resp = st.handle(&post(
            "/v1/sro",
            "{\"artifact\":\"fixture-api\",\"temperatures\":[800,1600]}",
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = parse_json(&resp.body).unwrap();
        assert_eq!(v.get("num_species").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(v.get("num_shells").and_then(JsonValue::as_u64), Some(2));
        let probs = v
            .get("pair_probabilities")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(probs.len(), 2);
        let row = probs[0].as_array().unwrap();
        assert_eq!(row.len(), 2 * 16);
        let total: f64 = row[..16].iter().map(|x| x.as_f64().unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-9, "shell probabilities sum to 1");
        let wc = v
            .get("warren_cowley")
            .and_then(JsonValue::as_array)
            .unwrap();
        // The fixture orders Mo–Ta at low T: alpha(Mo,Ta) < 0 in shell 0.
        let alpha_mo_ta = wc[0].as_array().unwrap()[6].as_f64().unwrap();
        assert!(alpha_mo_ta < 0.0, "alpha(Mo,Ta) = {alpha_mo_ta}");
    }

    #[test]
    fn predict_batches_through_the_surrogate() {
        let st = state();
        let art = fixture_artifact("api");
        let model = SurrogateModel::load(art.surrogate_text.as_deref().unwrap()).unwrap();
        let dim = model.descriptor().dim();
        let row: Vec<String> = (0..dim).map(|i| format!("{}", 0.1 * i as f64)).collect();
        let body = format!(
            "{{\"artifact\":\"fixture-api\",\"features\":[[{r}],[{r}]]}}",
            r = row.join(",")
        );
        let resp = st.handle(&post("/v1/predict", &body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = parse_json(&resp.body).unwrap();
        let preds = v
            .get("per_site_energy")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(preds.len(), 2);
        let features: Vec<f64> = (0..dim).map(|i| 0.1 * i as f64).collect();
        let direct = model.predict_features(&features);
        assert_eq!(preds[0].as_f64().unwrap().to_bits(), direct.to_bits());
        assert_eq!(preds[1].as_f64().unwrap().to_bits(), direct.to_bits());
        assert_eq!(st.metrics.counter("predict_rows_total").get(), 2);
    }

    #[test]
    fn client_errors_are_4xx_never_panics() {
        let st = state();
        let cases = [
            (post("/v1/thermo", "not json at all"), 400),
            (post("/v1/thermo", "{\"artifact\":\"fixture-api\"}"), 400),
            (
                post(
                    "/v1/thermo",
                    "{\"artifact\":\"nope\",\"temperatures\":[500]}",
                ),
                404,
            ),
            (
                post(
                    "/v1/thermo",
                    "{\"artifact\":\"fixture-api\",\"temperatures\":[]}",
                ),
                422,
            ),
            (
                post(
                    "/v1/thermo",
                    "{\"artifact\":\"fixture-api\",\"temperatures\":[-5]}",
                ),
                422,
            ),
            (
                post(
                    "/v1/thermo",
                    "{\"artifact\":\"fixture-api\",\"t_min\":900,\"t_max\":300,\"num_t\":5}",
                ),
                422,
            ),
            (
                post(
                    "/v1/predict",
                    "{\"artifact\":\"fixture-api\",\"features\":[[1]]}",
                ),
                422,
            ),
            (
                post(
                    "/v1/predict",
                    "{\"artifact\":\"fixture-api\",\"features\":[]}",
                ),
                422,
            ),
            (get("/nope"), 404),
            (post("/healthz", ""), 405),
            (get("/v1/thermo"), 405),
        ];
        for (req, want) in cases {
            let resp = st.handle(&req);
            assert_eq!(
                resp.status, want,
                "{} {} -> {}",
                req.method, req.target, resp.body
            );
            let v = parse_json(&resp.body).unwrap();
            assert!(v.get("error").is_some(), "error body: {}", resp.body);
        }
        assert_eq!(st.metrics.counter("responses_5xx").get(), 0);
    }

    #[test]
    fn metrics_snapshot_is_valid_json_with_latency() {
        let st = state();
        st.handle(&get("/healthz"));
        st.handle(&post(
            "/v1/thermo",
            "{\"artifact\":\"fixture-api\",\"temperatures\":[1000]}",
        ));
        let resp = st.handle(&get("/metrics"));
        assert_eq!(resp.status, 200);
        let v = parse_json(&resp.body).unwrap();
        let counters = v.get("counters").unwrap();
        assert!(counters.get("requests_total").and_then(JsonValue::as_u64) >= Some(2));
        let latency = v.get("latency").unwrap();
        let thermo = latency.get("latency_thermo_ns").unwrap();
        assert_eq!(thermo.get("count").and_then(JsonValue::as_u64), Some(1));
        assert!(v.get("cache").unwrap().get("capacity").is_some());
    }

    #[test]
    fn shutdown_endpoint_flips_the_drain_flag() {
        let st = state();
        assert!(!st.shutdown_requested());
        let resp = st.handle(&post("/v1/shutdown", ""));
        assert_eq!(resp.status, 200);
        assert!(st.shutdown_requested());
        let health = st.handle(&get("/healthz"));
        let v = parse_json(&health.body).unwrap();
        assert_eq!(
            v.get("status").and_then(JsonValue::as_str),
            Some("draining")
        );
    }

    #[test]
    fn shutdown_returns_a_drain_summary_body() {
        let st = state();
        st.handle(&post(
            "/v1/thermo",
            "{\"artifact\":\"fixture-api\",\"temperatures\":[1000]}",
        ));
        let resp = st.handle(&post("/v1/shutdown", ""));
        assert_eq!(resp.status, 200);
        let v = parse_json(&resp.body).unwrap();
        assert_eq!(
            v.get("status").and_then(JsonValue::as_str),
            Some("draining")
        );
        // The summary snapshots the lifetime counters at drain start.
        assert!(v.get("requests_total").and_then(JsonValue::as_u64) >= Some(1));
        assert_eq!(
            v.get("thermo_cache_misses").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert!(v.get("uptime_s").and_then(JsonValue::as_f64).is_some());
    }

    #[test]
    fn cold_key_stampede_evaluates_exactly_once() {
        use std::sync::{Arc, Barrier};
        const REQUESTERS: usize = 64;
        let st = Arc::new(state());
        let start = Arc::new(Barrier::new(REQUESTERS));
        let handles: Vec<_> = (0..REQUESTERS)
            .map(|_| {
                let st = Arc::clone(&st);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    st.handle(&post(
                        "/v1/thermo",
                        "{\"artifact\":\"fixture-api\",\"t_min\":300,\"t_max\":3000,\"num_t\":512}",
                    ))
                })
            })
            .collect();
        let mut bodies = std::collections::HashSet::new();
        for h in handles {
            let resp = h.join().unwrap();
            assert_eq!(resp.status, 200);
            bodies.insert(resp.body);
        }
        assert_eq!(bodies.len(), 1, "every requester got the same body");
        // The single-flight gate: one evaluation, no matter how many
        // concurrent cold requesters.
        assert_eq!(st.metrics.counter("thermo_evaluations").get(), 1);
        assert_eq!(
            st.metrics.counter("thermo_cache_misses").get()
                + st.metrics.counter("thermo_cache_hits").get()
                + st.metrics.counter("thermo_coalesced").get(),
            REQUESTERS as u64
        );
    }
}
