//! # uplan-serve — the plan-corpus daemon
//!
//! The paper's testing flywheel is a long-lived loop: engines stream
//! plans in while differential checks query what has been seen. This
//! crate serves that loop over HTTP/1.1 + JSON on a plain
//! `std::net::TcpListener`, whose connection workers each accept and
//! answer their own connections (the workspace is offline — zero
//! dependencies beyond the workspace itself), on top of the
//! snapshot/delta [`CorpusService`]:
//!
//! | Method | Path        | Body                       | Answers |
//! |--------|-------------|----------------------------|---------|
//! | POST   | `/ingest`   | raw framed fleet dump      | 202 accepted into the bounded delta queue; **429** on overflow (backpressure) |
//! | POST   | `/knn`      | `{"k": …, "probe": …}`     | 200 [`uplan_corpus::QueryResponse`] JSON; **422** when a counted-TED budget trips |
//! | POST   | `/radius`   | `{"radius": …, "probe": …}`| same |
//! | POST   | `/cluster`  | `{"radius": …}`            | 200 clustering of the snapshot |
//! | GET    | `/stats`    | —                          | 200 epoch, pending, corpus stats (an O(1) read of the snapshot's running totals), the segment census when the service persists to a segment store, per-endpoint latency/eval histograms |
//! | POST   | `/diff`     | JSONL corpus (`?radius=N`) | 200 fingerprint + radius novelty both ways |
//! | POST   | `/merge`    | —                          | 200 forces an epoch merge now |
//! | GET    | `/metrics`  | —                          | 200 Prometheus-text exposition: this daemon's request series plus the process-global ingest/corpus series |
//! | POST   | `/shutdown` | —                          | 200, then graceful drain: in-flight requests finish, the delta merges one last time |
//!
//! Queries run against an epoch-consistent [`CorpusSnapshot`]; each
//! worker holds a [`SnapshotReader`], so the steady-state read path costs
//! one atomic load — zero locks — while batched ingest merges epochs in
//! the background. The same handlers are callable in process
//! ([`handle`]), which is how the `serve/*` bench rows measure request
//! cost without a socket.
//!
//! Every response carries an `X-Request-Id` header (a process-unique span
//! ID); requests over the configured latency or counted-TED slow-query
//! threshold are counted per endpoint and emitted as `slow_query` trace
//! events, so a drifting campaign shows up in the span log with the IDs
//! needed to correlate client-side.

pub mod http;
pub mod metrics;

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uplan_convert::raw::{convert_raw_distinct, RawIngestOptions};
use uplan_core::fingerprint::FingerprintOptions;
use uplan_core::formats::json::{object, JsonValue, OwnedJsonValue};
use uplan_core::UnifiedPlan;
use uplan_corpus::service::{CorpusService, CorpusSnapshot, ServiceError, SnapshotReader};
use uplan_corpus::{PlanCorpus, QueryError, QueryRequest};
use uplan_obs::{trace, Level};

use http::{HttpError, HttpRequest, HttpResponse};
use metrics::{ServeMetrics, ENDPOINT_NAMES};

/// How the daemon runs: where to listen, how wide, how bounded.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (port 0 picks one).
    pub addr: String,
    /// Connection worker threads (at least one; [`Server::bind`] refuses
    /// zero).
    pub threads: usize,
    /// Bound on plans accepted but not yet merged (the backpressure
    /// limit).
    pub queue_capacity: usize,
    /// Threads each epoch merge fans ingest across.
    pub merge_threads: usize,
    /// How often the background merger folds a non-empty delta into the
    /// next epoch.
    pub merge_interval: Duration,
    /// Latency (µs) over which a request counts as a slow query (0
    /// disables the latency criterion).
    pub slow_query_us: u64,
    /// Counted TED evaluations over which a request counts as a slow
    /// query (0 disables the eval criterion).
    pub slow_query_evals: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7171".to_string(),
            threads: 4,
            queue_capacity: uplan_corpus::service::DEFAULT_PENDING_CAPACITY,
            merge_threads: 4,
            merge_interval: Duration::from_millis(200),
            slow_query_us: 0,
            slow_query_evals: 0,
        }
    }
}

/// Everything the handlers share: the snapshot/delta service, the metrics
/// registry, and the shutdown latch.
#[derive(Debug)]
pub struct ServeState {
    service: Arc<CorpusService>,
    metrics: ServeMetrics,
    options: FingerprintOptions,
    merge_threads: usize,
    started: Instant,
    slow_query_us: u64,
    slow_query_evals: u64,
    shutdown: AtomicBool,
}

impl ServeState {
    /// Wraps a corpus for serving.
    pub fn new(corpus: PlanCorpus, queue_capacity: usize, merge_threads: usize) -> ServeState {
        ServeState::from_service(
            CorpusService::with_capacity(corpus, queue_capacity),
            merge_threads,
        )
    }

    /// Wraps an already-built service — the segment-store path: build the
    /// service with [`CorpusService::with_store`] so merges append
    /// segments, then serve it.
    pub fn from_service(service: CorpusService, merge_threads: usize) -> ServeState {
        let options = service.snapshot().corpus().options();
        ServeState {
            service: Arc::new(service),
            metrics: ServeMetrics::new(),
            options,
            merge_threads: merge_threads.max(1),
            started: Instant::now(),
            slow_query_us: 0,
            slow_query_evals: 0,
            shutdown: AtomicBool::new(false),
        }
    }

    /// Sets the slow-query thresholds (0 disables a criterion): requests
    /// over `slow_query_us` microseconds of wall time or over
    /// `slow_query_evals` counted TED evaluations are counted in
    /// `uplan_http_slow_queries_total` and logged as `slow_query` events.
    pub fn with_slow_query_thresholds(
        mut self,
        slow_query_us: u64,
        slow_query_evals: u64,
    ) -> ServeState {
        self.slow_query_us = slow_query_us;
        self.slow_query_evals = slow_query_evals;
        self
    }

    /// The underlying snapshot/delta service.
    pub fn service(&self) -> &Arc<CorpusService> {
        &self.service
    }

    /// The per-endpoint request metrics.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Seconds since this state was constructed.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// `true` once `/shutdown` was requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn is_slow(&self, latency_us: u64, ted_evals: u64) -> bool {
        (self.slow_query_us > 0 && latency_us > self.slow_query_us)
            || (self.slow_query_evals > 0 && ted_evals > self.slow_query_evals)
    }
}

fn int(v: u64) -> OwnedJsonValue {
    JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn error_body(code: &str, message: &str) -> String {
    object([
        ("status", JsonValue::from("error")),
        ("error", JsonValue::from(code)),
        ("message", JsonValue::from(message)),
    ])
    .to_compact()
}

/// A handler's 400 answer (no TED work).
fn bad_request(code: &str, message: &str) -> (HttpResponse, u64) {
    (HttpResponse::json(400, error_body(code, message)), 0)
}

fn query_error_response(err: &QueryError) -> HttpResponse {
    let status = match err {
        QueryError::BudgetExceeded { .. } => 422,
        _ => 400,
    };
    HttpResponse::json(status, err.to_json_value().to_compact())
}

/// Dispatches one request against the state and a worker's snapshot
/// reader, recording latency/eval metrics. Pure with respect to I/O —
/// benches call it in process; the socket loop wraps it.
pub fn handle(state: &ServeState, reader: &mut SnapshotReader, req: &HttpRequest) -> HttpResponse {
    let start = Instant::now();
    // The span ID doubles as the request ID echoed in `X-Request-Id` —
    // minted even when tracing is off, so responses are always
    // correlatable.
    let mut span = trace::span("serve.request", Level::Debug, "request");
    let request_id = span.id();
    let with_id = |mut response: HttpResponse| {
        response.request_id = Some(request_id);
        response
    };
    let known = req
        .path
        .strip_prefix('/')
        .is_some_and(|name| ENDPOINT_NAMES.contains(&name));
    let (endpoint, (response, ted_evals)) = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/ingest") => ("ingest", ingest(state, req)),
        ("POST", "/knn") => ("knn", query(reader, "knn", req)),
        ("POST", "/radius") => ("radius", query(reader, "radius", req)),
        ("POST", "/cluster") => ("cluster", query(reader, "cluster", req)),
        ("GET" | "POST", "/stats") => ("stats", stats(state, reader)),
        ("POST", "/diff") => ("diff", diff(state, reader, req)),
        ("POST", "/merge") => ("merge", merge(state)),
        ("GET" | "POST", "/metrics") => ("metrics", metrics_exposition(state)),
        ("POST", "/shutdown") => ("shutdown", shutdown(state)),
        (_, path) if known => {
            return with_id(HttpResponse::json(
                405,
                error_body("method-not-allowed", &format!("use POST for {path}")),
            ))
        }
        (_, path) => {
            return with_id(HttpResponse::json(
                404,
                error_body("not-found", &format!("no endpoint {path}")),
            ))
        }
    };
    let latency = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    state.metrics.record(endpoint, latency, ted_evals);
    if state.is_slow(latency, ted_evals) {
        state.metrics.record_slow(endpoint);
        trace::event(
            "serve.request",
            Level::Warn,
            "slow_query",
            &[
                ("endpoint", endpoint.into()),
                ("latency_us", latency.into()),
                ("ted_evals", ted_evals.into()),
                ("request_id", request_id.into()),
            ],
        );
    }
    span.field("endpoint", endpoint);
    span.field("status", response.status as u64);
    span.field("latency_us", latency);
    with_id(response)
}

/// POST /ingest: a raw framed fleet dump (JSONL / `---` / `#<len>`,
/// source-sniffed per record) converted through the one conversion
/// pipeline, then submitted to the bounded delta queue. `?lenient=1` skips
/// bad records instead of rejecting the dump.
fn ingest(state: &ServeState, req: &HttpRequest) -> (HttpResponse, u64) {
    let Ok(dump) = req.body_text() else {
        return bad_request("bad-dump", "ingest body is not UTF-8");
    };
    let options = RawIngestOptions {
        strict: !req.flag("lenient"),
        ..RawIngestOptions::default()
    };
    // Deduplicated within the batch only: the merge dedups against the
    // served corpus later.
    let (plans, report) = match convert_raw_distinct(dump, &options, state.options) {
        Ok(converted) => converted,
        Err(e) => return bad_request("bad-dump", &e.to_string()),
    };
    let accepted = plans.len();
    match state.service.submit(plans) {
        Ok(pending) => {
            let body = object([
                ("status", JsonValue::from("accepted")),
                ("records", JsonValue::from(report.lines)),
                ("plans", JsonValue::from(accepted)),
                ("skipped", JsonValue::from(report.errors.len())),
                ("pending", JsonValue::from(pending)),
                ("epoch", int(state.service.epoch())),
            ]);
            (HttpResponse::json(202, body.to_compact()), 0)
        }
        Err(
            err @ ServiceError::Backpressure {
                pending, capacity, ..
            },
        ) => {
            let body = object([
                ("status", JsonValue::from("error")),
                ("error", JsonValue::from("backpressure")),
                ("message", JsonValue::from(err.to_string())),
                ("pending", JsonValue::from(pending)),
                ("capacity", JsonValue::from(capacity)),
            ]);
            (HttpResponse::json(429, body.to_compact()), 0)
        }
    }
}

/// POST /knn, /radius, /cluster: one [`QueryRequest`] body, answered from
/// the worker's epoch-consistent snapshot. A `"probe_raw"` string member
/// (one raw dump record) is converted through the same pipeline as
/// `/ingest` into the probe plan before the query runs.
fn query(reader: &mut SnapshotReader, kind: &str, req: &HttpRequest) -> (HttpResponse, u64) {
    let Ok(body) = req.body_text() else {
        return bad_request("malformed", "body is not UTF-8");
    };
    let body = if body.is_empty() { "{}" } else { body };
    let answer = QueryRequest::from_body(body, Some(kind), Some(convert_raw_probe))
        .and_then(|request| reader.current().execute(&request));
    match answer {
        Ok(response) => {
            let evals = response.cost.ted_evals;
            (HttpResponse::json(200, response.to_json()), evals)
        }
        Err(e) => {
            let evals = match &e {
                QueryError::BudgetExceeded { spent, .. } => *spent,
                _ => 0,
            };
            (query_error_response(&e), evals)
        }
    }
}

/// Converts a `"probe_raw"` record into the probe plan through the
/// `/ingest` pipeline, under the default fingerprint options.
fn convert_raw_probe(record: &str) -> Result<UnifiedPlan, String> {
    let strict = RawIngestOptions::default();
    let (plans, _) = convert_raw_distinct(record, &strict, FingerprintOptions::default())
        .map_err(|e| format!("probe_raw does not convert: {e}"))?;
    let count = plans.len();
    let [plan]: [_; 1] = plans
        .try_into()
        .map_err(|_| format!("probe_raw must hold exactly one plan record, got {count}"))?;
    Ok(plan)
}

/// GET /stats: the stats [`QueryResponse`] plus service fields (pending,
/// capacity, pending-merge lag, uptime, build info, total requests), the
/// segment census when the service persists to a segment store, and the
/// per-endpoint histograms. The corpus aggregates are kept at store time,
/// so the stats query is O(1) and runs on every request.
fn stats(state: &ServeState, reader: &mut SnapshotReader) -> (HttpResponse, u64) {
    let mut doc = reader
        .current()
        .execute(&QueryRequest::stats())
        .expect("stats queries cannot fail")
        .to_json_value();
    if let JsonValue::Object(members) = &mut doc {
        let (version, git) = uplan_obs::build_info();
        members.push(("pending".into(), JsonValue::from(state.service.pending())));
        members.push(("capacity".into(), JsonValue::from(state.service.capacity())));
        members.push((
            "pending_age_us".into(),
            int(u64::try_from(state.service.pending_age().as_micros()).unwrap_or(u64::MAX)),
        ));
        members.push(("uptime_seconds".into(), int(state.uptime().as_secs())));
        members.push((
            "build".into(),
            object([
                ("version", JsonValue::from(version)),
                ("git", JsonValue::from(git)),
            ]),
        ));
        members.push(("requests".into(), int(state.metrics.requests())));
        if let Some(census) = state.service.segment_census() {
            let rows = census
                .iter()
                .map(|row| {
                    object([
                        ("id", JsonValue::from(row.id as usize)),
                        ("plans", int(row.plans)),
                        ("bytes", JsonValue::from(row.bytes.total)),
                        ("plan_bytes", JsonValue::from(row.bytes.plans)),
                        ("symbol_bytes", JsonValue::from(row.bytes.symbols)),
                        ("index_bytes", JsonValue::from(row.bytes.index)),
                        ("feature_bytes", JsonValue::from(row.bytes.features)),
                    ])
                })
                .collect();
            members.push(("segments".into(), JsonValue::Array(rows)));
        }
        members.push(("metrics".into(), state.metrics.to_json_value()));
    }
    (HttpResponse::json(200, doc.to_compact()), 0)
}

/// GET /metrics: the Prometheus-text exposition of this daemon's request
/// registry concatenated with the process-global registry (ingest/corpus
/// instrumentation). Uptime is stamped into the instance registry at
/// scrape time. The scrape itself is recorded *after* the body is
/// rendered, so the counters a scrape reports never include that scrape.
fn metrics_exposition(state: &ServeState) -> (HttpResponse, u64) {
    state
        .metrics
        .registry()
        .gauge("uplan_uptime_seconds", "seconds since the daemon started")
        .set(i64::try_from(state.uptime().as_secs()).unwrap_or(i64::MAX));
    let mut text = state.metrics.registry().encode_prometheus();
    text.push_str(&uplan_obs::global().encode_prometheus());
    (HttpResponse::text(200, text), 0)
}

/// POST /diff?radius=N: body is a JSONL corpus; answers fingerprint and
/// beyond-radius novelty both ways (left = the served snapshot).
fn diff(state: &ServeState, reader: &mut SnapshotReader, req: &HttpRequest) -> (HttpResponse, u64) {
    let radius = match req.param("radius").map(str::parse::<u32>) {
        None => 2,
        Some(Ok(r)) => r,
        Some(Err(_)) => return bad_request("malformed", "?radius= is not a u32"),
    };
    let Ok(body) = req.body_text() else {
        return bad_request("malformed", "diff body is not UTF-8");
    };
    let other = match PlanCorpus::from_jsonl_with_options(body, state.options) {
        Ok(c) => c,
        Err(e) => {
            let message = format!("diff body is not a JSONL corpus: {e}");
            return bad_request("bad-corpus", &message);
        }
    };
    let snapshot = reader.current();
    let d = snapshot.corpus().diff(&other, radius);
    let ids = |v: &[usize]| JsonValue::Array(v.iter().map(|&id| JsonValue::from(id)).collect());
    let body = object([
        ("status", JsonValue::from("ok")),
        ("query", JsonValue::from("diff")),
        ("epoch", int(snapshot.epoch())),
        ("radius", JsonValue::from(radius as usize)),
        ("shared", JsonValue::from(d.shared)),
        ("fingerprint_only_left", ids(&d.fingerprint_only_left)),
        ("fingerprint_only_right", ids(&d.fingerprint_only_right)),
        ("beyond_radius_left", ids(&d.beyond_radius_left)),
        ("beyond_radius_right", ids(&d.beyond_radius_right)),
    ]);
    (HttpResponse::json(200, body.to_compact()), 0)
}

/// POST /merge: forces an epoch merge now (the background merger also
/// runs on its interval).
fn merge(state: &ServeState) -> (HttpResponse, u64) {
    let report = state.service.merge(state.merge_threads);
    let mut members = vec![
        ("status", JsonValue::from("ok")),
        ("epoch", int(report.epoch)),
        ("merged", JsonValue::from(report.merged)),
        ("novel", JsonValue::from(report.novel)),
        ("len", JsonValue::from(report.len)),
    ];
    if let Some(id) = report.segment_id {
        members.push(("segment_id", JsonValue::from(id as usize)));
        members.push(("segment_bytes", JsonValue::from(report.segment_bytes)));
    }
    let body = object(members);
    (HttpResponse::json(200, body.to_compact()), 0)
}

/// POST /shutdown: latches the shutdown flag; the connection workers
/// answer every connection already queued, the delta merges one last time
/// and the server exits.
fn shutdown(state: &ServeState) -> (HttpResponse, u64) {
    state.shutdown.store(true, Ordering::Release);
    let body = object([
        ("status", JsonValue::from("ok")),
        ("message", JsonValue::from("shutting down")),
        ("epoch", int(state.service.epoch())),
        ("pending", JsonValue::from(state.service.pending())),
    ]);
    let mut response = HttpResponse::json(200, body.to_compact());
    response.shutdown = true;
    (response, 0)
}

/// The daemon: a listener, [`ServerConfig::threads`] connection workers
/// that accept on it (each holding its own [`SnapshotReader`]) and a
/// background epoch merger — nothing else runs.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    config: ServerConfig,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds the listener for serving `state` — over a segment store, a
    /// [`CorpusService::with_store`] service, so merges append segments.
    /// The state's current snapshot is epoch 0; nothing is served until
    /// [`Server::run`]. Slow-query thresholds are applied from the config.
    pub fn bind(config: ServerConfig, state: ServeState) -> std::io::Result<Server> {
        if config.threads == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "the server needs at least one connection worker",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(
            state.with_slow_query_thresholds(config.slow_query_us, config.slow_query_evals),
        );
        Ok(Server {
            listener,
            state,
            config,
            local_addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared handler state (tests and embedders).
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Serves until `/shutdown`, then drains gracefully: every connection
    /// made before the shutdown wake-ups is answered, the background merger
    /// stops, and one final merge folds any remaining delta in. Returns the
    /// final snapshot.
    pub fn run(self) -> std::io::Result<Arc<CorpusSnapshot>> {
        let state = &*self.state;
        std::thread::scope(|scope| {
            let ticker = scope.spawn(|| {
                while !state.shutdown_requested() {
                    std::thread::park_timeout(self.config.merge_interval);
                    if state.service.pending() > 0 {
                        state.service.merge(state.merge_threads);
                    }
                }
            });
            let workers: Vec<_> = (0..self.config.threads)
                .map(|_| scope.spawn(|| self.accept_loop()))
                .collect();
            let joined: Vec<_> = workers.into_iter().map(|worker| worker.join()).collect();
            // The ticker sees the latch now, not a merge interval later; a
            // worker's panic is re-raised only after this wake-up, or the
            // scope would wait that interval out.
            ticker.thread().unpark();
            if let Some(panic) = joined.into_iter().find_map(Result::err) {
                std::panic::resume_unwind(panic);
            }
        });
        // Final drain: plans accepted after the last tick still land.
        state.service.merge(state.merge_threads);
        Ok(state.service.snapshot())
    }

    /// One connection worker: accepts and serves connections on the shared
    /// listener with its own [`SnapshotReader`]. Once shutdown is latched,
    /// the first connection that carries no request ends the loop; the
    /// `/shutdown` responder opens one such wake-up per worker, behind
    /// every connection already in the (FIFO) backlog.
    fn accept_loop(&self) {
        let mut reader = self.state.service.reader();
        for stream in self.listener.incoming() {
            // A failed accept concerns that connection only.
            let Ok(stream) = stream else { continue };
            match serve_connection(&self.state, &mut reader, stream) {
                Some(true) => {
                    for _ in 0..self.config.threads {
                        let _ = TcpStream::connect(self.local_addr);
                    }
                }
                None if self.state.shutdown_requested() => return,
                Some(false) | None => {}
            }
        }
    }
}

/// One connection: read a request, handle it, flush the response. Returns
/// whether the answer latched shutdown, or `None` for a connection that
/// carried no request (a probe, a dropped peer or a shutdown wake-up).
fn serve_connection(
    state: &ServeState,
    reader: &mut SnapshotReader,
    stream: TcpStream,
) -> Option<bool> {
    // Bounded patience: a stalled peer must not wedge a worker (and with
    // it, graceful shutdown).
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let response = match HttpRequest::read_from(&mut BufReader::new(&stream)) {
        Ok(None) | Err(HttpError::Io(_)) => return None,
        Ok(Some(req)) => handle(state, reader, &req),
        Err(HttpError::TooLarge(n)) => HttpResponse::json(
            413,
            error_body("too-large", &format!("{n}-byte body exceeds the limit")),
        ),
        Err(HttpError::Bad(m)) => HttpResponse::json(400, error_body("malformed", &m)),
    };
    let mut writer = &stream;
    let _ = response.write_to(&mut writer);
    let _ = writer.flush();
    Some(response.shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use uplan_core::formats::json;
    use uplan_core::PlanNode;

    fn chain(names: &[&str]) -> UnifiedPlan {
        let mut node: Option<PlanNode> = None;
        for name in names.iter().rev() {
            let mut n = PlanNode::producer(*name);
            if let Some(child) = node.take() {
                n = PlanNode::executor(*name).with_child(child);
            }
            node = Some(n);
        }
        UnifiedPlan::with_root(node.unwrap())
    }

    fn seed_corpus() -> PlanCorpus {
        let mut corpus = PlanCorpus::new();
        for plan in [
            chain(&["Scan_A"]),
            chain(&["Gather", "Scan_A"]),
            chain(&["Gather", "Sort", "Scan_A"]),
            chain(&["Collect", "Sort", "Hash", "Scan_B"]),
        ] {
            corpus.insert(plan);
        }
        corpus
    }

    /// One raw postgres-JSON dump record: a `Limit` chain of `depth`
    /// ending in `Materialize` — sniffable by the ingest pipeline and
    /// structurally distinct per depth.
    fn pg_record(depth: usize) -> String {
        let mut node = r#"{"Node Type": "Materialize"}"#.to_string();
        for _ in 0..depth {
            node = format!(r#"{{"Node Type": "Limit", "Plans": [{node}]}}"#);
        }
        format!(r#"[{{"Plan": {node}}}]"#)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        request(addr, "POST", path, body)
    }

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        reply(send(addr, &http(method, path, body)))
    }

    fn http(method: &str, path: &str, body: &str) -> String {
        let length = body.len();
        format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n{body}")
    }

    fn send(addr: SocketAddr, text: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(text.as_bytes()).unwrap();
        stream
    }

    /// Reads a whole response: its status and body.
    fn reply(mut stream: TcpStream) -> (u16, String) {
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .unwrap();
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    /// End to end over a real socket: ingest (raw dump) → merge → knn at
    /// the new epoch → budget trips 422 → backpressure trips 429 →
    /// graceful shutdown.
    #[test]
    fn daemon_round_trip_over_a_socket() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 3,
            queue_capacity: 4,
            merge_threads: 2,
            // Long interval: merges in this test are explicit.
            merge_interval: Duration::from_secs(60),
            ..ServerConfig::default()
        };
        let state = ServeState::new(seed_corpus(), config.queue_capacity, config.merge_threads);
        let server = Server::bind(config, state).unwrap();
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().unwrap());

        // A knn query against epoch 0.
        let probe = uplan_core::formats::unified::to_json(&chain(&["Gather", "Scan_A"]));
        let (status, body) = post(addr, "/knn", &format!("{{\"k\": 2, \"probe\": {probe}}}"));
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("epoch").unwrap().as_int(), Some(0));
        assert_eq!(doc.get("matches").unwrap().as_array().unwrap().len(), 2);

        // Ingest two raw postgres-JSON records (source-sniffed).
        let dump = format!("{}\n{}\n", pg_record(0), pg_record(1));
        let (status, body) = post(addr, "/ingest", &dump);
        assert_eq!(status, 202, "{body}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("plans").unwrap().as_int(), Some(2));
        assert_eq!(doc.get("pending").unwrap().as_int(), Some(2));

        // Overflow the bounded queue: 429.
        let big: String = (3..8).map(|d| pg_record(d) + "\n").collect();
        let (status, body) = post(addr, "/ingest", &big);
        assert_eq!(status, 429, "{body}");
        assert!(body.contains("backpressure"));

        // Merge, then the new plans answer queries at epoch 1.
        let (status, body) = post(addr, "/merge", "");
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("epoch").unwrap().as_int(), Some(1));
        assert_eq!(doc.get("merged").unwrap().as_int(), Some(2));
        // probe_raw: the same raw record converts through the pipeline and
        // matches itself at radius 0.
        let (status, body) = post(
            addr,
            "/radius",
            &format!(
                "{{\"radius\": 0, \"probe_raw\": {}}}",
                quote_json(&pg_record(0))
            ),
        );
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("epoch").unwrap().as_int(), Some(1));
        assert_eq!(doc.get("matches").unwrap().as_array().unwrap().len(), 1);

        // A 1-evaluation budget trips the distinct 422.
        let (status, body) = post(
            addr,
            "/knn",
            &format!("{{\"k\": 2, \"probe\": {probe}, \"max_ted_evals\": 1}}"),
        );
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("budget-exceeded"));

        // Stats: epoch 1, nothing pending, histograms populated, and the
        // new uptime/build/pending-age fields present.
        let (status, body) = request(addr, "GET", "/stats", "");
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("epoch").unwrap().as_int(), Some(1));
        assert_eq!(doc.get("pending").unwrap().as_int(), Some(0));
        assert_eq!(doc.get("pending_age_us").unwrap().as_int(), Some(0));
        assert!(doc.get("uptime_seconds").unwrap().as_int().is_some());
        assert!(doc
            .get("build")
            .unwrap()
            .get("version")
            .unwrap()
            .as_str()
            .is_some());
        assert_eq!(
            doc.get("stats").unwrap().get("distinct").unwrap().as_int(),
            Some(6)
        );
        assert!(doc.get("metrics").unwrap().get("knn").is_some());

        // /metrics: Prometheus text with this daemon's exact request
        // counts (2 knn requests so far: the epoch-0 query and the
        // budget-tripped one) and an X-Request-Id header.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(raw.contains("Content-Type: text/plain"), "{raw}");
        assert!(raw.contains("X-Request-Id: "), "{raw}");
        let text = raw.split_once("\r\n\r\n").unwrap().1;
        assert!(
            text.contains("uplan_http_requests_total{endpoint=\"knn\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("uplan_http_requests_total{endpoint=\"ingest\"} 2"),
            "{text}"
        );
        assert!(text.contains("# TYPE uplan_http_request_latency_us histogram"));
        // The global registry rides along (this process ran raw ingest).
        assert!(text.contains("uplan_ingest_records_total"), "{text}");

        // Unknown path and wrong method: every endpoint refuses PUT.
        let error = |code: &str, message: &str| {
            format!(r#"{{"status":"error","error":"{code}","message":"{message}"}}"#)
        };
        let not_found = error("not-found", "no endpoint /nope");
        assert_eq!(post(addr, "/nope", ""), (404, not_found));
        assert_eq!(request(addr, "GET", "/knn", "").0, 405);
        for name in ENDPOINT_NAMES {
            let path = format!("/{name}");
            let expected = error("method-not-allowed", &format!("use POST for {path}"));
            assert_eq!(request(addr, "PUT", &path, ""), (405, expected));
        }

        // Graceful shutdown completes the run thread.
        let (status, body) = post(addr, "/shutdown", "");
        assert_eq!(status, 200, "{body}");
        let snapshot = runner.join().unwrap();
        assert_eq!(snapshot.epoch(), 1);
        assert_eq!(snapshot.corpus().len(), 6);
    }

    /// Both workers of a 2-worker server block on half-sent requests while
    /// eight `/knn` requests queue behind them; one half-sent request then
    /// completes as `/shutdown`. Every queued request is answered, and `run`
    /// returns the final snapshot with the pending delta merged.
    #[test]
    fn shutdown_drains_queued_connections() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            merge_interval: Duration::from_secs(60),
            ..ServerConfig::default()
        };
        let state = ServeState::new(seed_corpus(), 100, 1);
        let server = Server::bind(config, state).unwrap();
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().unwrap());
        assert_eq!(post(addr, "/ingest", &pg_record(0)).0, 202);

        let probe = uplan_core::formats::unified::to_json(&chain(&["Gather", "Scan_A"]));
        let knn = http("POST", "/knn", &format!("{{\"k\": 2, \"probe\": {probe}}}"));
        let stop = http("POST", "/shutdown", "");
        let mut shutdown = send(addr, &stop[..10]);
        let mut held = send(addr, &knn[..10]);
        let mut queued: Vec<TcpStream> = (0..8).map(|_| send(addr, &knn)).collect();
        // The latch is set while the eight wait in the backlog.
        shutdown.write_all(&stop.as_bytes()[10..]).unwrap();
        assert_eq!(reply(shutdown).0, 200);
        held.write_all(&knn.as_bytes()[10..]).unwrap();
        queued.push(held);
        for stream in queued {
            let (status, body) = reply(stream);
            assert_eq!(status, 200, "{body}");
            assert!(body.contains("\"matches\""), "{body}");
        }
        let snapshot = runner.join().unwrap();
        assert_eq!(snapshot.epoch(), 1);
        assert_eq!(snapshot.corpus().len(), 5);
    }

    /// A server without connection workers would accept nothing: `bind`
    /// refuses it.
    #[test]
    fn bind_refuses_zero_workers() {
        let config = ServerConfig {
            threads: 0,
            ..ServerConfig::default()
        };
        let state = ServeState::new(seed_corpus(), 100, 1);
        let err = Server::bind(config, state).err().expect("zero workers");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// The in-process handler path the benches use: no sockets at all.
    #[test]
    fn in_process_handlers_answer_without_a_socket() {
        let state = ServeState::new(seed_corpus(), 100, 1);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let probe = uplan_core::formats::unified::to_json(&chain(&["Scan_A"]));
        let req = HttpRequest {
            method: "POST".into(),
            path: "/knn".into(),
            query: Vec::new(),
            body: format!("{{\"k\": 1, \"probe\": {probe}}}").into_bytes(),
        };
        let response = handle(&state, &mut reader, &req);
        assert_eq!(response.status, 200);
        assert!(response.body.contains("\"matches\""));
        assert_eq!(state.metrics().requests(), 1);
        assert!(
            response.request_id.is_some(),
            "every response carries an id"
        );

        // probe_raw: a raw postgres-JSON record converts through the
        // pipeline before querying.
        let req = HttpRequest {
            method: "POST".into(),
            path: "/radius".into(),
            query: Vec::new(),
            body: format!(
                "{{\"radius\": 1, \"probe_raw\": {}}}",
                quote_json(&pg_record(0))
            )
            .into_bytes(),
        };
        let response = handle(&state, &mut reader, &req);
        assert_eq!(response.status, 200, "{}", response.body);

        // Ingest → merge → the snapshot advances.
        let dump = pg_record(2);
        let req = HttpRequest {
            method: "POST".into(),
            path: "/ingest".into(),
            query: Vec::new(),
            body: dump.into_bytes(),
        };
        assert_eq!(handle(&state, &mut reader, &req).status, 202);
        service.merge(1);
        assert_eq!(reader.current().epoch(), 1);
        assert_eq!(reader.current().corpus().len(), 5);
    }

    /// `/metrics` has one encoding: a `?format=json` query string still
    /// answers the Prometheus text.
    #[test]
    fn metrics_answers_prometheus_text_whatever_the_format_parameter() {
        let state = ServeState::new(seed_corpus(), 100, 1);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let req = HttpRequest {
            method: "GET".into(),
            path: "/metrics".into(),
            query: vec![("format".into(), "json".into())],
            body: Vec::new(),
        };
        let response = handle(&state, &mut reader, &req);
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, "text/plain; version=0.0.4");
        let text = &response.body;
        assert!(text.starts_with("# HELP uplan_build_info "), "{text}");
        assert!(
            text.contains("\nuplan_http_requests_total{endpoint=\"metrics\"} 0\n"),
            "{text}"
        );
    }

    /// A `k` or `candidates` far beyond the corpus size answers 200 with at
    /// most every plan — it must not take down the worker that serves it.
    #[test]
    fn huge_k_and_candidates_answer_200() {
        let state = ServeState::new(seed_corpus(), 100, 1);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let probe = uplan_core::formats::unified::to_json(&chain(&["Scan_A"]));
        let huge = i64::MAX;
        for members in [
            format!("\"k\": {huge}"),
            format!("\"k\": 2, \"mode\": \"approx\", \"candidates\": {huge}"),
        ] {
            let req = HttpRequest {
                method: "POST".into(),
                path: "/knn".into(),
                query: Vec::new(),
                body: format!("{{{members}, \"probe\": {probe}}}").into_bytes(),
            };
            let response = handle(&state, &mut reader, &req);
            assert_eq!(response.status, 200, "{}", response.body);
            let doc = json::parse(&response.body).unwrap();
            let matches = doc.get("matches").unwrap().as_array().unwrap();
            assert!(matches.len() <= reader.current().corpus().len());
        }
    }

    fn quote_json(s: &str) -> String {
        JsonValue::from(s).to_compact()
    }

    /// Every `/stats` answer reports fresh service fields and the current
    /// epoch, and a merge shows in the corpus stats at once.
    #[test]
    fn stats_report_fresh_fields_and_follow_merges() {
        let state = ServeState::new(seed_corpus(), 100, 1);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let req = HttpRequest {
            method: "GET".into(),
            path: "/stats".into(),
            query: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(handle(&state, &mut reader, &req).status, 200);
        let response = handle(&state, &mut reader, &req);
        assert_eq!(response.status, 200);
        let doc = json::parse(&response.body).unwrap();
        assert_eq!(doc.get("epoch").unwrap().as_int(), Some(0));
        assert!(doc.get("requests").unwrap().as_int().unwrap() >= 1);

        // A merge bumps the epoch and the distinct count.
        service.submit(vec![chain(&["Scan_C"])]).unwrap();
        service.merge(1);
        let response = handle(&state, &mut reader, &req);
        assert_eq!(response.status, 200);
        let doc = json::parse(&response.body).unwrap();
        assert_eq!(doc.get("epoch").unwrap().as_int(), Some(1));
        assert_eq!(
            doc.get("stats").unwrap().get("distinct").unwrap().as_int(),
            Some(5)
        );
    }

    /// A segment-store-backed state: merges append segments, `/merge`
    /// reports the segment id, `/stats` carries the census, and the
    /// directory reopens to the served corpus.
    #[test]
    fn persistent_state_appends_segments_and_reports_census() {
        use uplan_corpus::SegmentStore;
        let dir = std::env::temp_dir().join(format!("uplan-serve-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SegmentStore::create(&dir, seed_corpus()).unwrap();
        let state = ServeState::from_service(CorpusService::with_store(store, 100), 2);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();

        // Ingest a raw record and merge over HTTP handlers.
        let req = HttpRequest {
            method: "POST".into(),
            path: "/ingest".into(),
            query: Vec::new(),
            body: pg_record(2).into_bytes(),
        };
        assert_eq!(handle(&state, &mut reader, &req).status, 202);
        let req = HttpRequest {
            method: "POST".into(),
            path: "/merge".into(),
            query: Vec::new(),
            body: Vec::new(),
        };
        let response = handle(&state, &mut reader, &req);
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = json::parse(&response.body).unwrap();
        assert_eq!(doc.get("segment_id").unwrap().as_int(), Some(1));
        assert!(doc.get("segment_bytes").unwrap().as_int().unwrap() > 0);

        // /stats reports the per-segment census.
        let req = HttpRequest {
            method: "GET".into(),
            path: "/stats".into(),
            query: Vec::new(),
            body: Vec::new(),
        };
        let response = handle(&state, &mut reader, &req);
        assert_eq!(response.status, 200);
        let doc = json::parse(&response.body).unwrap();
        let segments = doc.get("segments").unwrap().as_array().unwrap();
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].get("plans").unwrap().as_int(), Some(4));
        assert_eq!(segments[1].get("plans").unwrap().as_int(), Some(1));
        assert!(segments[1].get("bytes").unwrap().as_int().unwrap() > 0);

        // The directory holds everything the daemon serves.
        let reopened = SegmentStore::open(&dir).unwrap().into_corpus();
        assert_eq!(reopened.len(), reader.current().corpus().len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Slow-query accounting: with an eval threshold of 1, any real
    /// similarity query on a multi-plan corpus trips the counter; with
    /// thresholds disabled (the default) nothing does.
    #[test]
    fn slow_queries_are_counted_per_endpoint() {
        let state = ServeState::new(seed_corpus(), 100, 1).with_slow_query_thresholds(0, 1);
        assert!(state.is_slow(0, 2));
        assert!(!state.is_slow(u64::MAX, 1), "latency criterion disabled");
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let probe = uplan_core::formats::unified::to_json(&chain(&["Scan_A"]));
        let req = HttpRequest {
            method: "POST".into(),
            path: "/knn".into(),
            query: Vec::new(),
            body: format!("{{\"k\": 1, \"probe\": {probe}}}").into_bytes(),
        };
        assert_eq!(handle(&state, &mut reader, &req).status, 200);
        let text = state.metrics().registry().encode_prometheus();
        assert!(
            text.contains("uplan_http_slow_queries_total{endpoint=\"knn\"} 1"),
            "{text}"
        );
        // A /stats request does no TED work: not slow.
        let req = HttpRequest {
            method: "GET".into(),
            path: "/stats".into(),
            query: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(handle(&state, &mut reader, &req).status, 200);
        let text = state.metrics().registry().encode_prometheus();
        assert!(
            text.contains("uplan_http_slow_queries_total{endpoint=\"stats\"} 0"),
            "{text}"
        );
    }

    fn post_req(path: &str, query: &[(&str, &str)], body: &str) -> HttpRequest {
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            query: query
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// A lenient `/ingest` of a dump with a duplicate and an unclassifiable
    /// record answers this exact body, and after a merge the served corpus
    /// is byte-identical to raw-ingesting the same dump into the seed.
    #[test]
    fn lenient_ingest_body_and_merged_bytes_are_pinned() {
        use uplan_convert::raw::{ingest_raw_with, RawIngestOptions};
        let state = ServeState::new(seed_corpus(), 100, 1);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let dump = format!(
            "{}\n{}\n\"complete nonsense\"\n{}\n",
            pg_record(0),
            pg_record(1),
            pg_record(0)
        );
        let response = handle(
            &state,
            &mut reader,
            &post_req("/ingest", &[("lenient", "1")], &dump),
        );
        assert_eq!(response.status, 202, "{}", response.body);
        assert_eq!(
            response.body,
            r#"{"status":"accepted","records":3,"plans":2,"skipped":1,"pending":2,"epoch":0}"#
        );
        service.merge(1);
        let mut reference = seed_corpus();
        ingest_raw_with(&dump, &mut reference, 1, &RawIngestOptions::lenient()).unwrap();
        assert_eq!(
            uplan_corpus::encode_segment(reader.current().corpus()).unwrap(),
            uplan_corpus::encode_segment(&reference).unwrap()
        );
    }

    /// The exact 400 bodies of the three ways a `probe_raw` can fail.
    #[test]
    fn bad_probe_raw_bodies_are_pinned() {
        let state = ServeState::new(seed_corpus(), 100, 1);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let two_plans = format!("{}\n{}\n", pg_record(0), pg_record(1));
        let cases = [
            (
                "5".to_string(),
                r#"{"status":"error","error":"bad-probe","message":"\"probe_raw\" is not a string"}"#,
            ),
            (
                quote_json("complete nonsense"),
                r#"{"status":"error","error":"bad-probe","message":"probe_raw does not convert: semantic error: line 1: cannot identify the plan dialect; accepted sources: postgres-text, postgres-json, mysql-json, mysql-table, tidb-table, sqlite-eqp, mongodb-json, neo4j-table, sparksql-text, influxdb-text, sqlserver-xml"}"#,
            ),
            (
                quote_json(&two_plans),
                r#"{"status":"error","error":"bad-probe","message":"probe_raw must hold exactly one plan record, got 2"}"#,
            ),
        ];
        for (raw, expected) in cases {
            let body = format!("{{\"k\": 1, \"probe_raw\": {raw}}}");
            let response = handle(&state, &mut reader, &post_req("/knn", &[], &body));
            assert_eq!((response.status, response.body.as_str()), (400, expected));
        }
    }

    /// A unified-JSON `probe` that does not decode answers 400 `malformed`
    /// with the decoder's own error text.
    #[test]
    fn malformed_probe_answers_400_with_the_decode_error() {
        let state = ServeState::new(seed_corpus(), 100, 1);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let probe = r#"{"tree": {"operation": {"category": 1, "identifier": "X"}}}"#;
        let decoded = uplan_core::formats::unified::from_json(probe).unwrap_err();
        assert_eq!(
            decoded.to_string(),
            "semantic error: \"category\" must be a string"
        );
        let body = format!("{{\"k\": 1, \"probe\": {probe}}}");
        let response = handle(&state, &mut reader, &post_req("/knn", &[], &body));
        assert_eq!(
            (response.status, response.body.as_str()),
            (
                400,
                r#"{"status":"error","error":"malformed","message":"malformed request: bad probe plan: semantic error: \"category\" must be a string"}"#
            )
        );
    }

    /// A body with both `probe` and `probe_raw` (or two `probe_raw`s) is
    /// ambiguous, whichever member comes first: 400 `bad-probe`, before the
    /// raw record is converted — an unconvertible record gets the same
    /// answer.
    #[test]
    fn probe_and_probe_raw_together_are_rejected() {
        let state = ServeState::new(seed_corpus(), 100, 1);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let probe = uplan_core::formats::unified::to_json(&chain(&["Scan_A"]));
        let expected = r#"{"status":"error","error":"bad-probe","message":"send one probe: \"probe\" and \"probe_raw\" are mutually exclusive"}"#;
        for raw in [quote_json(&pg_record(0)), quote_json("complete nonsense")] {
            for members in [
                format!("\"probe\": {probe}, \"probe_raw\": {raw}"),
                format!("\"probe_raw\": {raw}, \"probe\": {probe}"),
                format!("\"probe_raw\": {raw}, \"probe_raw\": {raw}"),
            ] {
                let body = format!("{{\"k\": 1, {members}}}");
                let response = handle(&state, &mut reader, &post_req("/knn", &[], &body));
                assert_eq!((response.status, response.body.as_str()), (400, expected));
            }
        }
    }

    /// Bodies with several faults: which one answers. A syntax error
    /// anywhere wins, unprefixed; then the `probe_raw` checks (`bad-probe`);
    /// then unknown member, `query`, `k`, `mode`/`candidates`, the probe,
    /// and `max_ted_evals` last, whatever the member order. Duplicate
    /// members are first-wins, so a later duplicate `probe` is never
    /// decoded.
    #[test]
    fn multi_fault_bodies_answer_in_the_pinned_precedence() {
        let state = ServeState::new(seed_corpus(), 100, 1);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let bad = r#"{"tree":{"operation":{"category":1,"identifier":"X"}}}"#;
        let p = uplan_core::formats::unified::to_json_value(&chain(&["Scan_A"])).to_compact();
        let record = quote_json(&pg_record(0));
        let malformed = |m: &str| {
            let body = error_body("malformed", &format!("malformed request: {m}"));
            (400, body)
        };
        let syntax = |m: &str| (400, error_body("malformed", &format!("parse error at {m}")));
        let bad_probe = |m: &str| (400, error_body("bad-probe", m));
        let one_probe = "send one probe: \"probe\" and \"probe_raw\" are mutually exclusive";
        let category = "bad probe plan: semantic error: \"category\" must be a string";
        let answer = handle(
            &state,
            &mut reader,
            &post_req("/knn", &[], &format!(r#"{{"k":1,"probe":{p}}}"#)),
        );
        assert_eq!(answer.status, 200, "{}", answer.body);
        let ok = (200, answer.body);
        let cases = [
            (
                format!(r#"{{"k":1,"probe":{bad},"zzz":1}}"#),
                malformed("unknown request member \"zzz\""),
            ),
            (
                format!(r#"{{"k":1,"probe":{bad}}} x"#),
                syntax("byte 71: trailing characters after JSON document"),
            ),
            (
                format!(r#"{{"k":"a","probe":{bad}}}"#),
                malformed("\"k\" is not a non-negative integer"),
            ),
            (
                format!(r#"{{"k":1,"probe":{bad},"max_ted_evals":-1}}"#),
                malformed(category),
            ),
            (format!(r#"{{"probe":{bad},"probe_raw":5}}"#), bad_probe(one_probe)),
            (
                r#"{"probe_raw":5,"zzz":1}"#.to_string(),
                bad_probe("\"probe_raw\" is not a string"),
            ),
            (format!(r#"{{"k":1,"k":"x","probe":{p}}}"#), ok.clone()),
            (format!(r#"{{"k":1,"probe":{p},"probe":{bad}}}"#), ok.clone()),
            (
                "[]".to_string(),
                malformed("request body is not a JSON object"),
            ),
            (
                format!(r#"{{"query":"radius","radius":1,"probe":{p}}}"#),
                malformed("request says \"query\": \"radius\" but was sent to the knn endpoint"),
            ),
            // A syntax error after the probe has failed to decode.
            (
                r#"{"k":1,"probe":{"tree":5,"x":tru}}"#.to_string(),
                syntax("byte 29: expected 'true'"),
            ),
            (
                format!(r#"{{"k":1,"probe":{bad},"#),
                syntax("byte 70: expected '\"'"),
            ),
            (
                r#"{"k": 1, "probe": 5"#.to_string(),
                syntax("byte 19: expected ',' or '}' in object"),
            ),
            (format!(r#"{{"k":1,"probe":{bad},"probe":{p}}}"#), malformed(category)),
            // Probes that are not objects, or fail deep inside, are
            // skipped whole: the members after them still count.
            (
                r#"{"k":1,"probe":[1,{"a":[2]}],"mode":"fuzzy"}"#.to_string(),
                malformed("\"mode\" must be the string \"exact\" or \"approx\""),
            ),
            (
                r#"{"k":1,"probe":[1,{"a":[2]}],"zzz":1}"#.to_string(),
                malformed("unknown request member \"zzz\""),
            ),
            (
                r#"{"k":1,"probe":5}"#.to_string(),
                malformed("bad probe plan: semantic error: unified JSON document must be an object"),
            ),
            (
                r#"{"probe":{"tree":{"operation":{"category":"Producer","identifier":"X"},"children":[{"operation":{"category":1}},{"properties":[]}]}},"k":1,"max_ted_evals":"q"}"#.to_string(),
                malformed(category),
            ),
            (
                r#"{"probe":{"tree":{"properties":[]}},"k":"a"}"#.to_string(),
                malformed("\"k\" is not a non-negative integer"),
            ),
            (
                r#"{"k":1,"probe":{"tree":{"operation":{"category":"Producer","identifier":"X"}},"properties":[{"category":"Cost","identifier":"c","value":{"a":1}}]},"zzz":2}"#.to_string(),
                malformed("unknown request member \"zzz\""),
            ),
            (
                format!(r#"{{"query":5,"probe":{bad}}}"#),
                malformed("\"query\" is not a string"),
            ),
            (
                format!(r#"{{"k":1,"candidates":8,"probe":{bad}}}"#),
                malformed("\"candidates\" requires \"mode\": \"approx\""),
            ),
            (
                r#"{"k":1,"probe_raw":"complete nonsense","zzz":1}"#.to_string(),
                bad_probe("probe_raw does not convert: semantic error: line 1: cannot identify the plan dialect; accepted sources: postgres-text, postgres-json, mysql-json, mysql-table, tidb-table, sqlite-eqp, mongodb-json, neo4j-table, sparksql-text, influxdb-text, sqlserver-xml"),
            ),
            (
                format!(r#"{{"k":1,"probe_raw":{record},"zzz":1}}"#),
                malformed("unknown request member \"zzz\""),
            ),
            (
                r#"{"k":1,"probe_raw":5,"probe_raw":6}"#.to_string(),
                bad_probe(one_probe),
            ),
            (String::new(), malformed("knn request has no \"k\"")),
        ];
        for (body, expected) in cases {
            let response = handle(&state, &mut reader, &post_req("/knn", &[], &body));
            assert_eq!((response.status, response.body), expected, "{body}");
        }
    }

    /// A `probe_raw` request answers byte-identically to the same request
    /// carrying the converted plan as `probe` — including a `probe_raw`
    /// that repeats one record, which is one distinct plan.
    #[test]
    fn probe_raw_answers_like_its_converted_probe() {
        let state = ServeState::new(seed_corpus(), 100, 1);
        let service = Arc::clone(state.service());
        let mut reader = service.reader();
        let record = r#"[{"Plan": {"Node Type": "Limit", "Plan Rows": 3, "Plans": [{"Node Type": "Seq Scan", "Relation Name": "t0", "Filter": "(c0 > 1)", "Total Cost": 12.5}]}}]"#;
        let plan = uplan_convert::convert(uplan_convert::detect(record).unwrap(), record).unwrap();
        let probe = uplan_core::formats::unified::to_json(&plan);
        for (path, members) in [("/knn", "\"k\": 3"), ("/radius", "\"radius\": 2")] {
            let expected = handle(
                &state,
                &mut reader,
                &post_req(path, &[], &format!("{{{members}, \"probe\": {probe}}}")),
            );
            assert_eq!(expected.status, 200, "{}", expected.body);
            for raw in [record.to_string(), format!("{record}\n{record}\n")] {
                let body = format!("{{{members}, \"probe_raw\": {}}}", quote_json(&raw));
                let response = handle(&state, &mut reader, &post_req(path, &[], &body));
                assert_eq!(response.status, 200, "{}", response.body);
                assert_eq!(response.body, expected.body);
            }
        }
    }
}
