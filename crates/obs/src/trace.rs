//! # Structured span tracing with a JSONL sink
//!
//! The pipeline's long operations — a raw-dump ingest, an epoch merge, a
//! served query — are recorded as **spans**: RAII guards carrying a
//! process-unique ID, the ID of the enclosing span (tracked per thread),
//! a monotonic-clock duration measured at drop, and a small set of
//! `(key, value)` fields attached along the way. Point-in-time **events**
//! (a slow query, a quarantined record) ride the same machinery without a
//! duration.
//!
//! Everything is off by default and costs one relaxed atomic load per
//! call site when disabled — cheap enough to leave in the hot paths the
//! bench gate measures. Two switches turn it on:
//!
//! * `UPLAN_LOG` — `RUST_LOG`-style level filtering: a bare level
//!   (`debug`) or a comma list of `target=level` directives
//!   (`info,corpus.merge=trace`), targets matching by `.`-boundary
//!   prefix;
//! * [`init_json_log`] — opens a JSONL sink (one JSON object per line,
//!   schema below) that `repro --log-json <path>` wires to disk. When
//!   `UPLAN_LOG` is unset this bumps the default level to `debug` so the
//!   log is not silently empty.
//!
//! The JSONL sink is the one output. An enabled span or event with no
//! sink installed still tracks its parent and fields, but builds no line.
//!
//! ## JSONL schema
//!
//! Span lines (written when the span *closes*, so children precede their
//! parent in the file):
//!
//! ```json
//! {"ts_us":123,"dur_us":45,"level":"debug","target":"corpus.merge",
//!  "span":"merge","id":7,"parent":3,"fields":{"plans":512}}
//! ```
//!
//! Event lines carry `"event"` instead of `"span"` and no `dur_us`.
//! `ts_us` is microseconds since process start (monotonic), `parent` is
//! absent for root spans.

use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use uplan_core::formats::json::{JsonMembers, JsonValue, OwnedJsonValue};

/// Verbosity of a span or event, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 1,
    /// Suspicious but survivable (quarantined records, slow queries).
    Warn = 2,
    /// Milestones: campaign start/stop, merges published.
    Info = 3,
    /// Per-operation detail: batches, requests, queries.
    Debug = 4,
    /// Per-record firehose.
    Trace = 5,
}

impl Level {
    /// The lowercase name used in `UPLAN_LOG` and the JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            "off" | "none" => None,
            _ => None,
        }
    }
}

/// A parsed `UPLAN_LOG` filter: a default level plus per-target
/// overrides, longest matching prefix winning.
#[derive(Debug, Clone, Default)]
pub struct Filter {
    /// Level applied when no directive matches; `None` = everything off.
    default: Option<Level>,
    /// `(target prefix, level)` directives; `None` level silences the
    /// target.
    directives: Vec<(String, Option<Level>)>,
}

impl Filter {
    /// Parses an `UPLAN_LOG`-style spec: a comma list of `level` or
    /// `target=level` directives (`info,corpus.merge=trace,serve=off`).
    /// Unknown words are ignored; an empty spec disables everything.
    pub fn parse(spec: &str) -> Filter {
        let mut filter = Filter::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    let silenced =
                        matches!(level.trim().to_ascii_lowercase().as_str(), "off" | "none");
                    if let Some(level) = Level::parse(level) {
                        filter
                            .directives
                            .push((target.trim().to_string(), Some(level)));
                    } else if silenced {
                        filter.directives.push((target.trim().to_string(), None));
                    }
                }
                None => {
                    if let Some(level) = Level::parse(part) {
                        filter.default = Some(level);
                    }
                }
            }
        }
        filter
    }

    /// A filter passing everything at `level` and above for all targets.
    pub fn at(level: Level) -> Filter {
        Filter {
            default: Some(level),
            directives: Vec::new(),
        }
    }

    /// Whether `target` at `level` passes. Target matching is by prefix
    /// on `.` boundaries: directive `corpus` matches `corpus` and
    /// `corpus.merge` but not `corpuscle`.
    pub fn enabled(&self, target: &str, level: Level) -> bool {
        let mut best: Option<(usize, Option<Level>)> = None;
        for (prefix, directive) in &self.directives {
            let matches = target == prefix
                || (target.len() > prefix.len()
                    && target.starts_with(prefix.as_str())
                    && target.as_bytes()[prefix.len()] == b'.');
            if matches && best.is_none_or(|(len, _)| prefix.len() >= len) {
                best = Some((prefix.len(), *directive));
            }
        }
        match best {
            Some((_, directive)) => directive.is_some_and(|max| level <= max),
            None => self.default.is_some_and(|max| level <= max),
        }
    }

    /// The most verbose level any target can pass (drives the disabled
    /// fast path); `None` when the filter silences everything.
    fn max_level(&self) -> Option<Level> {
        self.directives
            .iter()
            .filter_map(|(_, level)| *level)
            .chain(self.default)
            .max()
    }
}

/// A span or event field value (kept simple on purpose: numbers and
/// small strings).
#[derive(Debug, Clone)]
pub enum FieldValue {
    /// Unsigned quantity (counts, sizes, microseconds).
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Short text (a dialect name, an endpoint).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn to_json(&self) -> OwnedJsonValue {
        match self {
            FieldValue::U64(v) => JsonValue::Int(i64::try_from(*v).unwrap_or(i64::MAX)),
            FieldValue::I64(v) => JsonValue::Int(*v),
            FieldValue::Str(v) => JsonValue::from(v.clone()),
        }
    }
}

/// The process-wide tracer state.
struct Tracer {
    /// Process start; all timestamps are offsets from here.
    epoch: Instant,
    /// `Level as u8` of the most verbose enabled level, 0 = all off.
    /// Read with one relaxed load on every span/event site.
    max_level: AtomicU8,
    /// Next span ID (1-based; 0 means "no parent" in the JSONL).
    next_id: AtomicU64,
    /// Full filter, consulted only after `max_level` passes.
    filter: Mutex<Filter>,
    /// JSONL sink, when configured.
    sink: Mutex<Option<Box<dyn Write + Send>>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| {
        let filter = match std::env::var("UPLAN_LOG") {
            Ok(spec) => Filter::parse(&spec),
            Err(_) => Filter::default(),
        };
        let max = filter.max_level().map_or(0, |l| l as u8);
        Tracer {
            epoch: Instant::now(),
            max_level: AtomicU8::new(max),
            next_id: AtomicU64::new(1),
            filter: Mutex::new(filter),
            sink: Mutex::new(None),
        }
    })
}

thread_local! {
    /// Stack of currently open span IDs on this thread (for parent
    /// linkage).
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Replaces the active filter (tests, programmatic configuration). The
/// environment-derived filter is installed lazily on first use; calling
/// this afterwards wins.
pub fn set_filter(filter: Filter) {
    let t = tracer();
    let max = filter.max_level().map_or(0, |l| l as u8);
    *t.filter.lock().expect("trace filter lock") = filter;
    t.max_level.store(max, Ordering::Relaxed);
}

/// Opens a JSONL sink at `path` (truncating), so every subsequently
/// closed span and emitted event is appended as one JSON line. When
/// `UPLAN_LOG` is unset and no filter was installed, the default level is
/// bumped to `debug` so the log captures the pipeline's per-operation
/// spans without extra configuration.
pub fn init_json_log(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let t = tracer();
    *t.sink.lock().expect("trace sink lock") = Some(Box::new(std::io::BufWriter::new(file)));
    if t.max_level.load(Ordering::Relaxed) == 0 && std::env::var("UPLAN_LOG").is_err() {
        set_filter(Filter::at(Level::Debug));
    }
    Ok(())
}

/// Installs an arbitrary writer as the JSONL sink (tests).
pub fn set_json_sink(sink: Option<Box<dyn Write + Send>>) {
    *tracer().sink.lock().expect("trace sink lock") = sink;
}

/// Flushes the JSONL sink, if one is configured.
pub fn flush_json_log() {
    if let Some(sink) = tracer().sink.lock().expect("trace sink lock").as_mut() {
        let _ = sink.flush();
    }
}

/// Whether `target` at `level` is currently enabled. One relaxed atomic
/// load on the (common) all-off path.
pub fn enabled(target: &str, level: Level) -> bool {
    let t = tracer();
    let max = t.max_level.load(Ordering::Relaxed);
    if max == 0 || level as u8 > max {
        return false;
    }
    t.filter
        .lock()
        .expect("trace filter lock")
        .enabled(target, level)
}

/// Microseconds since process start on the monotonic clock.
fn now_us() -> u64 {
    tracer().epoch.elapsed().as_micros() as u64
}

/// An open span: created by [`span`], closed (recorded + logged) on drop.
/// Disabled spans are inert except for carrying a fresh ID.
pub struct SpanGuard {
    /// Process-unique ID, allocated even when the span is disabled so
    /// callers can use it as a request/batch ID unconditionally.
    id: u64,
    /// `None` when the span was filtered out at open time.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    ts_us: u64,
    start: Instant,
    level: Level,
    target: &'static str,
    name: &'static str,
    parent: Option<u64>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    /// The span's process-unique ID (valid even when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a field; a no-op when the span is disabled.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(live) = &mut self.live {
            live.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                // Out-of-order drop (guards moved across an early return):
                // excise rather than corrupt the stack.
                stack.retain(|&id| id != self.id);
            }
        });
        let dur_us = live.start.elapsed().as_micros() as u64;
        write_line(|| {
            line_json(
                live.ts_us,
                Some((dur_us, self.id)),
                live.level,
                live.target,
                live.name,
                live.parent,
                &live.fields,
            )
        });
    }
}

/// Opens a span. Always returns a guard with a fresh process-unique ID;
/// when `target`/`level` is filtered out the guard is otherwise inert.
pub fn span(target: &'static str, level: Level, name: &'static str) -> SpanGuard {
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    if !enabled(target, level) {
        return SpanGuard { id, live: None };
    }
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    SpanGuard {
        id,
        live: Some(LiveSpan {
            ts_us: now_us(),
            start: Instant::now(),
            level,
            target,
            name,
            parent,
            fields: Vec::new(),
        }),
    }
}

/// Emits a point-in-time event (no duration) with the given fields. The
/// current thread's innermost open span, if any, is recorded as parent.
pub fn event(
    target: &'static str,
    level: Level,
    name: &'static str,
    fields: &[(&'static str, FieldValue)],
) {
    if !enabled(target, level) {
        return;
    }
    let ts_us = now_us();
    let parent = SPAN_STACK.with(|stack| stack.borrow().last().copied());
    write_line(|| line_json(ts_us, None, level, target, name, parent, fields));
}

fn int_json(v: u64) -> OwnedJsonValue {
    JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// One JSONL line in the schema's member order. `span` is `(dur_us, id)`
/// for a closed span and `None` for an event.
fn line_json(
    ts_us: u64,
    span: Option<(u64, u64)>,
    level: Level,
    target: &'static str,
    name: &'static str,
    parent: Option<u64>,
    fields: &[(&'static str, FieldValue)],
) -> OwnedJsonValue {
    let mut members: JsonMembers<'static> = vec![("ts_us".into(), int_json(ts_us))];
    if let Some((dur_us, _)) = span {
        members.push(("dur_us".into(), int_json(dur_us)));
    }
    members.push(("level".into(), JsonValue::from(level.name())));
    members.push(("target".into(), JsonValue::from(target)));
    match span {
        Some((_, id)) => {
            members.push(("span".into(), JsonValue::from(name)));
            members.push(("id".into(), int_json(id)));
        }
        None => members.push(("event".into(), JsonValue::from(name))),
    }
    if let Some(parent) = parent {
        members.push(("parent".into(), int_json(parent)));
    }
    if !fields.is_empty() {
        members.push((
            "fields".into(),
            JsonValue::Object(
                fields
                    .iter()
                    .map(|(k, v)| (std::borrow::Cow::Borrowed(*k), v.to_json()))
                    .collect(),
            ),
        ));
    }
    JsonValue::Object(members)
}

/// Appends one line to the JSONL sink. `line` runs only when a sink is
/// installed, so an enabled span or event costs no JSON without one.
fn write_line(line: impl FnOnce() -> OwnedJsonValue) {
    let mut sink = tracer().sink.lock().expect("trace sink lock");
    if let Some(sink) = sink.as_mut() {
        let mut text = line().to_compact();
        text.push('\n');
        // Log-writer errors must never take the pipeline down; drop the
        // sink on failure instead.
        if sink.write_all(text.as_bytes()).is_err() {
            *sink = Box::new(std::io::sink());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The tracer is process-global; tests that reconfigure it must not
    /// interleave.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn reset() {
        set_filter(Filter::default());
        set_json_sink(None);
    }

    /// Installs an in-memory JSONL sink and returns its buffer.
    fn capture() -> std::sync::Arc<Mutex<Vec<u8>>> {
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = std::sync::Arc::new(Mutex::new(Vec::new()));
        set_json_sink(Some(Box::new(Shared(buf.clone()))));
        buf
    }

    #[test]
    fn filter_parses_levels_targets_and_off() {
        let f = Filter::parse("info,corpus.merge=trace,serve=off, bogus, weird=verylow");
        assert!(f.enabled("convert.ingest", Level::Info));
        assert!(!f.enabled("convert.ingest", Level::Debug));
        assert!(f.enabled("corpus.merge", Level::Trace));
        assert!(
            f.enabled("corpus.merge.shard", Level::Trace),
            "prefix on . boundary"
        );
        // No substring match: "corpus.merged" misses the corpus.merge
        // directive and falls to the default (info), not trace.
        assert!(!f.enabled("corpus.merged", Level::Trace));
        assert!(f.enabled("corpus.merged", Level::Info));
        assert!(
            f.enabled("corpus", Level::Info),
            "unmatched target falls to default"
        );
        assert!(!f.enabled("serve", Level::Error), "off silences");
        assert!(!f.enabled("serve.request", Level::Error));
        assert_eq!(f.max_level(), Some(Level::Trace));
        assert!(Filter::parse("").max_level().is_none());
        assert!(!Filter::default().enabled("anything", Level::Error));
        // Longest prefix wins regardless of order.
        let f = Filter::parse("corpus=off,corpus.merge=debug");
        assert!(f.enabled("corpus.merge", Level::Debug));
        assert!(!f.enabled("corpus.query", Level::Error));
    }

    #[test]
    fn disabled_spans_still_mint_ids() {
        let _x = exclusive();
        reset();
        let buf = capture();
        let a = span("test.off", Level::Debug, "a");
        let b = span("test.off", Level::Debug, "b");
        assert_ne!(a.id(), 0);
        assert_ne!(a.id(), b.id());
        drop(b);
        drop(a);
        reset();
        assert!(
            buf.lock().unwrap().is_empty(),
            "disabled spans are not logged"
        );
    }

    #[test]
    fn spans_nest_and_order_in_the_jsonl_log() {
        let _x = exclusive();
        reset();
        set_filter(Filter::parse("test.nest=debug"));
        let buf = capture();

        let (outer_id, inner_id);
        {
            let mut outer = span("test.nest", Level::Info, "outer");
            outer.field("plans", 42u64);
            outer_id = outer.id();
            {
                let inner = span("test.nest", Level::Debug, "inner");
                inner_id = inner.id();
                event(
                    "test.nest",
                    Level::Warn,
                    "slow",
                    &[("lat_us", FieldValue::U64(9)), ("endpoint", "knn".into())],
                );
                // A filtered-out sibling leaves no trace and no stack damage.
                let _off = span("test.other", Level::Trace, "invisible");
            }
        }
        flush_json_log();
        reset();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        // Event first (emitted inside), then inner (closes first), then
        // outer — the JSONL file is ordered by close time.
        assert!(lines[0].contains("\"event\":\"slow\""), "{}", lines[0]);
        assert!(
            lines[0].contains(&format!("\"parent\":{inner_id}")),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"lat_us\":9"));
        assert!(lines[0].contains("\"endpoint\":\"knn\""));
        assert!(!lines[0].contains("dur_us"), "events carry no duration");
        assert!(lines[1].contains("\"span\":\"inner\""), "{}", lines[1]);
        assert!(lines[1].contains(&format!("\"id\":{inner_id}")));
        assert!(
            lines[1].contains(&format!("\"parent\":{outer_id}")),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"span\":\"outer\""), "{}", lines[2]);
        assert!(lines[2].contains(&format!("\"id\":{outer_id}")));
        assert!(
            !lines[2].contains("parent"),
            "root span has no parent: {}",
            lines[2]
        );
        assert!(
            lines[2].contains("\"fields\":{\"plans\":42}"),
            "{}",
            lines[2]
        );
        for line in &lines {
            assert!(line.contains("\"ts_us\":"));
        }
    }
}
