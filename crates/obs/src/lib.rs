//! # uplan-obs — zero-dependency observability for the uplan pipeline
//!
//! The pipeline converts raw optimizer dumps into unified query plans,
//! indexes them into a sharded corpus, and serves similarity queries — a
//! chain of hot loops whose behavior (batch sizes, prune ratios, merge
//! latencies) is exactly what the paper argues should be *inspectable*.
//! This crate is the instrumentation substrate the rest of the workspace
//! threads through:
//!
//! * [`metrics`] — lock-free counters, gauges, and log₂ [`Histogram`]s in
//!   a [`Registry`] with Prometheus-text exposition. A process
//!   [`global`] registry hosts the library-side series (ingest, corpus);
//!   components with per-instance lifecycles (the serve daemon) own their
//!   own `Registry` and concatenate it at scrape time.
//! * [`trace`] — structured RAII spans with process-unique IDs, per-thread
//!   parent linkage, monotonic durations, and one output, a JSONL sink
//!   (`repro --log-json`, `UPLAN_LOG` level filtering). Off
//!   by default at one atomic load per site, so it stays inside the bench
//!   tolerance with no configuration.
//!
//! Everything is hand-rolled on `std` only — the workspace builds offline
//! and this crate must not change that.

pub mod metrics;
pub mod trace;

pub use metrics::{global, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use trace::{
    enabled, event, flush_json_log, init_json_log, span, FieldValue, Filter, Level, SpanGuard,
};

/// Package version and the git revision the binary was built from
/// (`("0.1.0", "abc123def456")`; hash is `"unknown"` outside a git
/// checkout). Surfaces in `GET /stats` and the CLI.
pub fn build_info() -> (&'static str, &'static str) {
    (env!("CARGO_PKG_VERSION"), env!("UPLAN_GIT_HASH"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn build_info_is_stamped() {
        let (version, git) = super::build_info();
        assert!(!version.is_empty());
        assert!(!git.is_empty());
    }
}
