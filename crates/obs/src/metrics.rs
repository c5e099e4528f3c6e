//! # Lock-cheap metrics: counters, gauges, log₂ histograms, one registry
//!
//! Every primitive here is a handful of atomic words: recording a sample
//! never takes a lock, never allocates, and never formats anything — the
//! cost the instrumented hot paths (per-record ingest, per-query BK
//! traversals) can afford unconditionally. The [`Registry`] holds the
//! handles behind a mutex that is touched only at **registration** time
//! (once per call site, memoized through `OnceLock` statics) and at
//! **exposition** time (a `/metrics` scrape or `/stats` render), never on
//! the record path.
//!
//! One encoder reads a registry out: [`Registry::encode_prometheus`], the
//! Prometheus text exposition format (`# HELP`/`# TYPE` headers,
//! `family{label="v"} value` samples, histograms as cumulative
//! `_bucket{le=…}` series plus `_sum`/`_count`). The `/stats` payload's
//! per-endpoint quantiles come from [`HistogramSnapshot::summary_json`].
//!
//! The [`Histogram`] is the log₂-bucketed design the serve daemon
//! introduced, generalized and sharpened: buckets hold values by
//! significant-bit count (0, 1, 2–3, 4–7, …; 65 buckets cover all of
//! `u64`), and quantile readout **interpolates within the winning bucket**
//! (assuming a uniform spread between the bucket's bounds, clamped to the
//! observed maximum) instead of answering only the bucket's upper bound —
//! p50/p99 on smooth distributions land within a few percent rather than
//! within a factor of two. The raw bucket bounds stay accessible via
//! [`Histogram::bucket_lower`] / [`Histogram::bucket_upper`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use uplan_core::formats::json::{object, JsonValue, OwnedJsonValue};

/// Number of log₂ buckets: one per possible significant-bit count of a
/// `u64` (0 through 64).
pub const BUCKETS: usize = 65;

/// A monotonically increasing counter. `Relaxed` atomics: totals are
/// exact (every increment lands), ordering against other metrics is not
/// promised — exposition reads are a statistical snapshot.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (queue depths, epochs, lag).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram of `u64` samples with lock-free recording:
/// bucket `b` holds the values with `b` significant bits. See the module
/// docs for the quantile-interpolation contract.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The bucket index a value falls into (its significant-bit count).
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Smallest value bucket `b` can hold (0 for bucket 0, else
    /// `2^(b-1)`).
    pub fn bucket_lower(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Largest value bucket `b` can hold (0 for bucket 0, else `2^b - 1`;
    /// saturates at `u64::MAX` for the top bucket).
    pub fn bucket_upper(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Records one sample. Three relaxed atomic writes, no lock.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy for quantile math and exposition. Buckets and
    /// totals are read without mutual ordering; concurrent recording can
    /// make them disagree by the few in-flight samples, which exposition
    /// tolerates (the snapshot normalizes its own bucket total).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// Number of samples (the bucket total — self-consistent even if the
    /// source histogram was being written during the snapshot).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Per-bucket sample counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// The `q`-quantile (`0.5` = median), **interpolated within the log₂
    /// bucket**: the winning bucket's samples are assumed uniformly spread
    /// between its lower bound and `min(upper bound, max sample)`, so the
    /// readout tracks the true quantile closely on smooth distributions
    /// instead of being quantized to within a factor of two. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = (((count as f64) * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, count);
        let mut below = 0u64;
        for (b, &inside) in self.buckets.iter().enumerate() {
            if inside > 0 && below + inside >= rank {
                let lower = Histogram::bucket_lower(b);
                let upper = Histogram::bucket_upper(b).min(self.max).max(lower);
                let position = (rank - below) as f64 / inside as f64;
                return lower + ((upper - lower) as f64 * position).round() as u64;
            }
            below += inside;
        }
        0
    }

    /// The `{count, mean, p50, p90, p99, max}` summary object `/stats`
    /// reports per histogram.
    pub fn summary_json(&self) -> OwnedJsonValue {
        let int = |v: u64| JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX));
        object([
            ("count", int(self.count())),
            ("mean", int(self.mean())),
            ("p50", int(self.quantile(0.5))),
            ("p90", int(self.quantile(0.9))),
            ("p99", int(self.quantile(0.99))),
            ("max", int(self.max)),
        ])
    }
}

/// What a registered family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    /// Monotonic total.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Log₂ sample distribution.
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered handle (a family member at a fixed label set).
#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One metric family: a name, a help line, and its members keyed by label
/// set (label-less families have exactly one member with no labels).
#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    members: Vec<(Vec<(String, String)>, Handle)>,
}

/// A set of metric families, registered once and recorded into lock-free.
/// Registration is idempotent: the same `(name, labels)` always returns
/// the same handle, so call sites can re-register freely (and memoize the
/// `Arc` in a `OnceLock` to skip even the registration lock). Registering
/// one name as two different kinds is a programming error and panics.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// A fresh, empty registry (per-component registries, tests).
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        create: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut families = self.families.lock().expect("metrics registry lock");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(family) => {
                assert!(
                    family.kind == kind,
                    "metric {name:?} registered as {} and as {}",
                    family.kind.name(),
                    kind.name()
                );
                family
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    members: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some((_, handle)) = family
            .members
            .iter()
            .find(|(have, _)| have.len() == labels.len() && labels_eq(have, labels))
        {
            return handle.clone();
        }
        let handle = create();
        family.members.push((
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            handle.clone(),
        ));
        handle
    }

    /// Registers (or finds) a label-less counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a counter at a fixed label set.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, MetricKind::Counter, || {
            Handle::Counter(Arc::new(Counter::default()))
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("register() checks the kind"),
        }
    }

    /// Registers (or finds) a label-less gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a gauge at a fixed label set.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, MetricKind::Gauge, || {
            Handle::Gauge(Arc::new(Gauge::default()))
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("register() checks the kind"),
        }
    }

    /// Registers (or finds) a label-less histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or finds) a histogram at a fixed label set.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, labels, MetricKind::Histogram, || {
            Handle::Histogram(Arc::new(Histogram::default()))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("register() checks the kind"),
        }
    }

    /// Finds an already-registered counter (exposition-side lookups in
    /// tests and assertions; `None` when never registered).
    pub fn find_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<Arc<Counter>> {
        let families = self.families.lock().expect("metrics registry lock");
        let family = families.iter().find(|f| f.name == name)?;
        family
            .members
            .iter()
            .find(|(have, _)| have.len() == labels.len() && labels_eq(have, labels))
            .and_then(|(_, handle)| match handle {
                Handle::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            })
    }

    /// The Prometheus text exposition of every registered family, in
    /// registration order (`GET /metrics`).
    pub fn encode_prometheus(&self) -> String {
        let families = self.families.lock().expect("metrics registry lock");
        let mut out = String::new();
        for family in families.iter() {
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(&family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.kind.name());
            out.push('\n');
            for (labels, handle) in &family.members {
                match handle {
                    Handle::Counter(c) => {
                        sample_line(&mut out, &family.name, labels, None, &c.get().to_string())
                    }
                    Handle::Gauge(g) => {
                        sample_line(&mut out, &family.name, labels, None, &g.get().to_string())
                    }
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (b, &n) in snap.buckets().iter().enumerate() {
                            if n == 0 {
                                continue;
                            }
                            cumulative += n;
                            let le = Histogram::bucket_upper(b).to_string();
                            sample_line(
                                &mut out,
                                &format!("{}_bucket", family.name),
                                labels,
                                Some(("le", &le)),
                                &cumulative.to_string(),
                            );
                        }
                        sample_line(
                            &mut out,
                            &format!("{}_bucket", family.name),
                            labels,
                            Some(("le", "+Inf")),
                            &cumulative.to_string(),
                        );
                        sample_line(
                            &mut out,
                            &format!("{}_sum", family.name),
                            labels,
                            None,
                            &snap.sum().to_string(),
                        );
                        sample_line(
                            &mut out,
                            &format!("{}_count", family.name),
                            labels,
                            None,
                            &cumulative.to_string(),
                        );
                    }
                }
            }
        }
        out
    }
}

fn labels_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.iter()
        .zip(want)
        .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// One exposition sample line: `name{labels,extra} value`.
fn sample_line(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            escape_label(out, v);
            out.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            escape_label(out, v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
fn escape_label(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// The process-wide registry library instrumentation records into
/// (ingest, corpus, merges). Component-local registries — e.g. the serve
/// daemon's per-instance request metrics — are separate [`Registry`]
/// values owned by their component.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_bounds_partition_u64() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for b in 0..BUCKETS {
            let (lo, hi) = (Histogram::bucket_lower(b), Histogram::bucket_upper(b));
            assert!(lo <= hi);
            assert_eq!(Histogram::bucket_of(lo), b);
            assert_eq!(Histogram::bucket_of(hi), b);
            if b > 0 {
                assert_eq!(
                    Histogram::bucket_upper(b - 1) + 1,
                    lo,
                    "buckets are contiguous"
                );
            }
        }
    }

    #[test]
    fn interpolated_quantiles_track_a_uniform_distribution() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.mean(), 500);
        // Within-bucket interpolation: a few samples of error, not a
        // factor of two.
        let p50 = snap.quantile(0.5);
        assert!((495..=505).contains(&p50), "p50 {p50}");
        let p90 = snap.quantile(0.9);
        assert!((880..=920).contains(&p90), "p90 {p90}");
        let p99 = snap.quantile(0.99);
        assert!((975..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(snap.quantile(1.0), 1000);
        // Degenerate cases.
        let empty = Histogram::default();
        assert_eq!(empty.snapshot().quantile(0.5), 0);
        let zeros = Histogram::default();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.snapshot().quantile(0.9), 0);
        assert_eq!(zeros.snapshot().mean(), 0);
        // A single sample answers itself at every quantile.
        let one = Histogram::default();
        one.record(700);
        assert_eq!(one.snapshot().quantile(0.01), 700);
        assert_eq!(one.snapshot().quantile(0.99), 700);
    }

    #[test]
    fn concurrent_increments_total_exactly() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let registry = Registry::new();
        let counter = registry.counter("t_ops_total", "test counter");
        let histogram = registry.histogram("t_lat_us", "test histogram");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                // Re-register inside each thread: idempotent registration
                // must hand back the same underlying metric.
                let registry = &registry;
                scope.spawn(move || {
                    let counter = registry.counter("t_ops_total", "test counter");
                    let histogram = registry.histogram("t_lat_us", "test histogram");
                    for i in 0..PER_THREAD {
                        counter.inc();
                        histogram.record(t as u64 * PER_THREAD + i);
                    }
                });
            }
        });
        assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
        let snap = histogram.snapshot();
        assert_eq!(snap.count(), THREADS as u64 * PER_THREAD);
        assert_eq!(snap.max, THREADS as u64 * PER_THREAD - 1);
        // The bucket census agrees with the exact per-bucket expectation.
        let mut expect = [0u64; BUCKETS];
        for v in 0..THREADS as u64 * PER_THREAD {
            expect[Histogram::bucket_of(v)] += 1;
        }
        assert_eq!(snap.buckets(), &expect);
    }

    #[test]
    fn labeled_members_are_distinct_and_ordered() {
        let registry = Registry::new();
        let knn = registry.counter_with("req_total", "requests", &[("endpoint", "knn")]);
        let stats = registry.counter_with("req_total", "requests", &[("endpoint", "stats")]);
        knn.add(3);
        stats.inc();
        assert_eq!(
            registry
                .find_counter("req_total", &[("endpoint", "knn")])
                .unwrap()
                .get(),
            3
        );
        assert!(registry.find_counter("req_total", &[]).is_none());
        assert!(registry.find_counter("nope", &[]).is_none());
        // Same labels → the same handle.
        let again = registry.counter_with("req_total", "requests", &[("endpoint", "knn")]);
        again.inc();
        assert_eq!(knn.get(), 4);
    }

    /// The exposition encoder output is golden-pinned: byte-exact text for
    /// a registry with one of each kind, labels, and a histogram spread.
    #[test]
    fn prometheus_exposition_is_golden() {
        let registry = Registry::new();
        registry
            .counter_with("u_req_total", "served requests", &[("endpoint", "knn")])
            .add(5);
        registry
            .counter_with("u_req_total", "served requests", &[("endpoint", "stats")])
            .add(2);
        registry.gauge("u_pending", "pending plans").set(17);
        let h = registry.histogram("u_lat_us", "request latency");
        for v in [0, 1, 3, 3, 200] {
            h.record(v);
        }
        let text = registry.encode_prometheus();
        let expect = "\
# HELP u_req_total served requests
# TYPE u_req_total counter
u_req_total{endpoint=\"knn\"} 5
u_req_total{endpoint=\"stats\"} 2
# HELP u_pending pending plans
# TYPE u_pending gauge
u_pending 17
# HELP u_lat_us request latency
# TYPE u_lat_us histogram
u_lat_us_bucket{le=\"0\"} 1
u_lat_us_bucket{le=\"1\"} 2
u_lat_us_bucket{le=\"3\"} 4
u_lat_us_bucket{le=\"255\"} 5
u_lat_us_bucket{le=\"+Inf\"} 5
u_lat_us_sum 207
u_lat_us_count 5
";
        assert_eq!(text, expect);
    }

    #[test]
    fn label_values_escape_cleanly() {
        let registry = Registry::new();
        registry
            .counter_with("esc_total", "escapes", &[("path", "a\"b\\c\nd")])
            .inc();
        let text = registry.encode_prometheus();
        assert!(
            text.contains("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "registered as counter and as gauge")]
    fn kind_conflicts_panic_at_registration() {
        let registry = Registry::new();
        registry.counter("twice", "first");
        registry.gauge("twice", "second");
    }
}
