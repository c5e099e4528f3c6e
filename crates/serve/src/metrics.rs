//! Per-request metrics on a per-daemon [`Registry`]: request counts,
//! latency (microseconds), counted TED evaluations and slow-query counts,
//! per endpoint — plus build-info and uptime series stamped at scrape
//! time. Recording is lock-free (pre-registered atomic handles looked up
//! by endpoint name); exposition is the obs crate's Prometheus-text
//! encoder.
//!
//! The registry is **per [`ServeMetrics`] instance**, not process-global:
//! each daemon (or test, or bench harness) owns its own request series,
//! so counters stay exact however many states coexist in one process.
//! `GET /metrics` concatenates this registry with the process-global one
//! (ingest/corpus instrumentation) into one exposition.
//!
//! [`ServeMetrics`]: ServeMetrics

use std::sync::Arc;

use uplan_core::formats::json::{JsonValue, OwnedJsonValue};
use uplan_obs::{Counter, Histogram, Registry};

/// Every endpoint the daemon dispatches, in exposition order.
pub const ENDPOINT_NAMES: [&str; 9] = [
    "ingest", "knn", "radius", "cluster", "stats", "diff", "merge", "metrics", "shutdown",
];

/// One endpoint's pre-registered handles.
struct EndpointHandles {
    name: &'static str,
    requests: Arc<Counter>,
    latency_us: Arc<Histogram>,
    ted_evals: Arc<Histogram>,
    slow: Arc<Counter>,
}

/// All per-endpoint request metrics of one daemon instance. Handles are
/// registered once at construction; [`ServeMetrics::record`] is a name
/// lookup plus a few relaxed atomic writes.
pub struct ServeMetrics {
    registry: Registry,
    endpoints: Vec<EndpointHandles>,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("requests", &self.requests())
            .finish()
    }
}

impl ServeMetrics {
    /// A fresh registry with every endpoint's series pre-registered (so
    /// the exposition is complete from the first scrape) plus the
    /// build-info series.
    pub fn new() -> ServeMetrics {
        let registry = Registry::new();
        let (version, git) = uplan_obs::build_info();
        registry
            .gauge_with(
                "uplan_build_info",
                "build metadata as labels; value is always 1",
                &[("version", version), ("git", git)],
            )
            .set(1);
        let endpoints = ENDPOINT_NAMES
            .iter()
            .map(|&name| EndpointHandles {
                name,
                requests: registry.counter_with(
                    "uplan_http_requests_total",
                    "requests served, by endpoint",
                    &[("endpoint", name)],
                ),
                latency_us: registry.histogram_with(
                    "uplan_http_request_latency_us",
                    "request wall time, microseconds",
                    &[("endpoint", name)],
                ),
                ted_evals: registry.histogram_with(
                    "uplan_http_request_ted_evals",
                    "counted TED evaluations spent answering a request",
                    &[("endpoint", name)],
                ),
                slow: registry.counter_with(
                    "uplan_http_slow_queries_total",
                    "requests over the configured latency/eval slow-query threshold",
                    &[("endpoint", name)],
                ),
            })
            .collect();
        ServeMetrics {
            registry,
            endpoints,
        }
    }

    fn endpoint(&self, name: &str) -> Option<&EndpointHandles> {
        self.endpoints.iter().find(|e| e.name == name)
    }

    /// Records one served request. Unknown endpoint names are ignored
    /// (the dispatcher only passes [`ENDPOINT_NAMES`] members).
    pub fn record(&self, endpoint: &str, latency_us: u64, ted_evals: u64) {
        if let Some(handles) = self.endpoint(endpoint) {
            handles.requests.inc();
            handles.latency_us.record(latency_us);
            handles.ted_evals.record(ted_evals);
        }
    }

    /// Counts a request that tripped the slow-query threshold.
    pub fn record_slow(&self, endpoint: &str) {
        if let Some(handles) = self.endpoint(endpoint) {
            handles.slow.inc();
        }
    }

    /// Total requests recorded across endpoints.
    pub fn requests(&self) -> u64 {
        self.endpoints.iter().map(|e| e.requests.get()).sum()
    }

    /// The instance registry (the `/metrics` exposition source).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The `/stats` payload: per *hit* endpoint, latency and eval
    /// summaries (endpoints nobody called are omitted, matching the
    /// pre-registry behavior of this report).
    pub fn to_json_value(&self) -> OwnedJsonValue {
        JsonValue::Object(
            self.endpoints
                .iter()
                .filter(|e| e.requests.get() > 0)
                .map(|e| {
                    (
                        std::borrow::Cow::Borrowed(e.name),
                        uplan_core::formats::json::object([
                            ("latency_us", e.latency_us.snapshot().summary_json()),
                            ("ted_evals", e.ted_evals.snapshot().summary_json()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_accumulates_per_endpoint() {
        let metrics = ServeMetrics::new();
        metrics.record("knn", 120, 40);
        metrics.record("knn", 80, 44);
        metrics.record("stats", 5, 0);
        metrics.record("bogus", 1, 1);
        assert_eq!(metrics.requests(), 3, "unknown endpoints are ignored");
        let doc = metrics.to_json_value();
        let knn = doc.get("knn").unwrap();
        assert_eq!(
            knn.get("latency_us")
                .unwrap()
                .get("count")
                .unwrap()
                .as_int(),
            Some(2)
        );
        assert_eq!(
            doc.get("stats")
                .unwrap()
                .get("ted_evals")
                .unwrap()
                .get("max")
                .unwrap()
                .as_int(),
            Some(0)
        );
        assert!(doc.get("merge").is_none(), "unhit endpoints are omitted");
    }

    #[test]
    fn exposition_covers_every_endpoint_and_build_info() {
        let metrics = ServeMetrics::new();
        metrics.record("ingest", 9, 0);
        metrics.record_slow("ingest");
        let text = metrics.registry().encode_prometheus();
        assert!(text.contains("uplan_http_requests_total{endpoint=\"ingest\"} 1"));
        // Pre-registration: endpoints nobody hit still expose a 0 sample.
        assert!(text.contains("uplan_http_requests_total{endpoint=\"cluster\"} 0"));
        assert!(text.contains("uplan_http_slow_queries_total{endpoint=\"ingest\"} 1"));
        assert!(text.contains("uplan_http_request_latency_us_count{endpoint=\"ingest\"} 1"));
        let (version, _) = uplan_obs::build_info();
        assert!(text.contains(&format!("uplan_build_info{{version=\"{version}\"")));
        // Separate instances do not share counters.
        let other = ServeMetrics::new();
        assert_eq!(other.requests(), 0);
    }
}
