//! Raw-dump conversion: a mixed-source fleet dump, framed, sniffed and
//! converted into unified plans.
//!
//! Fleet tooling collects explain output from many DBMSs into one log with
//! no declaration of which dialect produced each record. Three framings
//! are accepted, sniffed from the dump's first non-blank line
//! ([`sniff_framing`]):
//!
//! * **JSON lines** (the default): one record per line, each a single
//!   JSON value — a JSON **string** holding a text/table/XML dump
//!   verbatim (PostgreSQL text, TiDB/MySQL/Neo4j tables, SQLite EQP,
//!   SparkSQL text, InfluxDB lists, SQL Server showplans), or a JSON
//!   **document** that *is* the plan (PostgreSQL `FORMAT JSON`, MySQL
//!   `FORMAT=JSON`, MongoDB `explain()`).
//! * **Separator-framed** (dump starts with a `---` line): records are
//!   the raw multi-line blocks between `---` (or blank) separator lines —
//!   the shape of `kubectl logs`-style collectors that concatenate whole
//!   explain outputs.
//! * **Length-prefixed** (dump starts with a `#<bytes>` line): each
//!   record is a `#<n>` header line followed by exactly `n` bytes of raw
//!   dump — the framing collectors use when records may themselves
//!   contain separator-looking lines.
//!
//! [`convert_raw`] is the one conversion entry, and it knows nothing of
//! corpora: each record is source-sniffed through the converter registry
//! ([`crate::detect`]), converted in parallel batches (one reused
//! [`NodeBuilder`] per worker), and each batch of at most [`RAW_BATCH`]
//! owned [`UnifiedPlan`]s goes to the caller in dump order — the whole
//! dump is never buffered. The corpus wrappers sit on top of it:
//! [`ingest_raw_with`] hands every batch to
//! [`PlanCorpus::ingest_parallel`]. Because shard routing and id
//! assignment are deterministic, the resulting corpus is
//! **byte-identical** to converting every record sequentially with its own
//! source converter and observing the plans one by one
//! ([`ingest_raw_sequential_with`], the reference path the CI gate diffs
//! against). Request-sized inputs that need plans, not a corpus, use
//! [`convert_raw_distinct`]: the first plan of each fingerprint.
//!
//! ## Dirty dumps: lenient mode
//!
//! Real fleet dumps are dirty — truncated records, interleaved garbage,
//! unknown dialects. The default is strict (first bad record aborts, as a
//! curated corpus build should), but [`RawIngestOptions`] turns the same
//! pipeline lenient: failures are *collected per record* into the
//! report's error census ([`RawIngestError`]: line number, detected
//! source, error kind) while every convertible record still ingests —
//! and the corpus stays byte-identical to sequentially ingesting only
//! the valid records. Failed records can be written to a quarantine
//! JSONL file for later replay, and `max_errors` bounds how much garbage
//! a run tolerates before giving up.

use std::borrow::Cow;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use uplan_core::fingerprint::{fingerprint_with, FingerprintOptions};
use uplan_core::formats::json::{self, JsonValue};
use uplan_core::{Error, Result, UnifiedPlan};
use uplan_corpus::PlanCorpus;
use uplan_obs::{trace, Counter, Histogram, Level};

use crate::spine::NodeBuilder;
use crate::{detect, Source};

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

/// Global-registry handles for the raw ingest pipeline, registered once
/// and then recorded into lock-free. See README § Observability for the
/// metric name table.
struct IngestMetrics {
    /// `uplan_ingest_records_total` — records converted and ingested.
    records: Arc<Counter>,
    /// `uplan_ingest_batches_total` — conversion/ingest batches flushed.
    batches: Arc<Counter>,
    /// `uplan_ingest_batch_records` — records per flushed batch.
    batch_records: Arc<Histogram>,
    /// `uplan_ingest_skipped_total{kind}` in [`RawErrorKind`] order.
    skipped: [Arc<Counter>; 3],
    /// `uplan_ingest_quarantined_total` — failed records captured for
    /// replay.
    quarantined: Arc<Counter>,
    /// `uplan_convert_records_total{source}` in [`Source::ALL`] order.
    by_source: Vec<Arc<Counter>>,
}

fn ingest_metrics() -> &'static IngestMetrics {
    static METRICS: OnceLock<IngestMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = uplan_obs::global();
        IngestMetrics {
            records: registry.counter(
                "uplan_ingest_records_total",
                "raw records successfully converted and ingested",
            ),
            batches: registry.counter(
                "uplan_ingest_batches_total",
                "raw ingest conversion batches flushed",
            ),
            batch_records: registry.histogram(
                "uplan_ingest_batch_records",
                "records per flushed raw ingest batch",
            ),
            skipped: [
                RawErrorKind::Frame,
                RawErrorKind::Classify,
                RawErrorKind::Convert,
            ]
            .map(|kind| {
                registry.counter_with(
                    "uplan_ingest_skipped_total",
                    "raw records skipped in lenient mode, by pipeline stage",
                    &[("kind", kind.name())],
                )
            }),
            quarantined: registry.counter(
                "uplan_ingest_quarantined_total",
                "failed raw records written to a quarantine file",
            ),
            by_source: Source::ALL
                .iter()
                .map(|source| {
                    registry.counter_with(
                        "uplan_convert_records_total",
                        "raw records converted, by detected source dialect",
                        &[("source", source.name())],
                    )
                })
                .collect(),
        }
    })
}

impl RawErrorKind {
    fn metric_index(self) -> usize {
        match self {
            RawErrorKind::Frame => 0,
            RawErrorKind::Classify => 1,
            RawErrorKind::Convert => 2,
        }
    }
}

/// Records per conversion/ingest batch — the only window of converted
/// plans alive at once.
pub const RAW_BATCH: usize = 512;

/// How a raw ingest treats records that fail to frame, classify or
/// convert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawIngestOptions {
    /// Abort on the first bad record (the default). When `false`, bad
    /// records are skipped and collected into
    /// [`RawIngestReport::errors`].
    pub strict: bool,
    /// In lenient mode, give up once *more than* this many records have
    /// failed (0 = unlimited). A dump that is mostly garbage is usually a
    /// mis-pointed path, not a dirty fleet.
    pub max_errors: usize,
    /// In lenient mode, write every failed record to this file as
    /// replayable JSON lines (single-line records verbatim, multi-line
    /// records JSON-string-encoded). Overwritten on each run.
    pub quarantine: Option<PathBuf>,
}

impl Default for RawIngestOptions {
    fn default() -> RawIngestOptions {
        RawIngestOptions {
            strict: true,
            max_errors: 0,
            quarantine: None,
        }
    }
}

impl RawIngestOptions {
    /// Skip-and-report mode: collect failures, ingest everything else.
    pub fn lenient() -> RawIngestOptions {
        RawIngestOptions {
            strict: false,
            ..RawIngestOptions::default()
        }
    }
}

/// Which stage of the ingest pipeline rejected a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawErrorKind {
    /// The record could not be cut out of the dump (bad or overrunning
    /// length-prefix header).
    Frame,
    /// The record was framed but no source dialect claimed it (or its
    /// JSON wrapper was unparseable).
    Classify,
    /// A source claimed the record but its converter rejected it.
    Convert,
}

impl RawErrorKind {
    /// Short lowercase name (census and CLI output).
    pub fn name(self) -> &'static str {
        match self {
            RawErrorKind::Frame => "frame",
            RawErrorKind::Classify => "classify",
            RawErrorKind::Convert => "convert",
        }
    }
}

/// One record the ingest had to skip (lenient mode), with everything a
/// census needs: where, what stage, which source (when one was detected)
/// and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawIngestError {
    /// 1-based line number of the record's first line in the dump.
    pub line: usize,
    /// The detected source, when classification got that far.
    pub source: Option<Source>,
    /// Pipeline stage that rejected the record.
    pub kind: RawErrorKind,
    /// Human-readable reason.
    pub message: String,
}

/// What a raw ingest did: record totals, the per-source census, and (in
/// lenient mode) the per-record error census.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RawIngestReport {
    /// Records successfully converted.
    pub lines: usize,
    /// Plans whose fingerprint was new to the corpus (or, for
    /// [`convert_raw_distinct`], to the dump).
    pub novel: usize,
    /// Converted records per detected source, in [`Source::ALL`] order
    /// (zero counts omitted).
    pub per_source: Vec<(Source, usize)>,
    /// The framing the dump was read under.
    pub framing: RawFraming,
    /// Records skipped (lenient mode only — strict runs abort instead),
    /// in dump order.
    pub errors: Vec<RawIngestError>,
}

impl RawIngestReport {
    /// `postgres-text 12, mysql-json 4, …` — the census line the CLI
    /// prints.
    pub fn census(&self) -> String {
        if self.per_source.is_empty() {
            return "nothing".to_owned();
        }
        self.per_source
            .iter()
            .map(|(source, n)| format!("{} {n}", source.name()))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// `line 7 (classify), line 12 (tidb-table convert), …` — the exact
    /// per-record error census of a lenient run.
    pub fn error_census(&self) -> String {
        if self.errors.is_empty() {
            return "no errors".to_owned();
        }
        self.errors
            .iter()
            .map(|e| match e.source {
                Some(source) => format!("line {} ({} {})", e.line, source.name(), e.kind.name()),
                None => format!("line {} ({})", e.line, e.kind.name()),
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// The record framings a raw dump may arrive in (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RawFraming {
    /// One JSON value per line — the default.
    #[default]
    JsonLines,
    /// Raw multi-line records between `---`/blank separator lines.
    Separator,
    /// `#<bytes>` header lines, each followed by that many bytes of raw
    /// record.
    LengthPrefixed,
}

impl RawFraming {
    /// Short name (CLI output).
    pub fn name(self) -> &'static str {
        match self {
            RawFraming::JsonLines => "jsonl",
            RawFraming::Separator => "separator",
            RawFraming::LengthPrefixed => "length-prefixed",
        }
    }
}

/// Sniffs the dump's framing from its first non-blank line: `---` selects
/// separator framing, `#<digits>` selects length-prefixed framing,
/// anything else is JSON lines.
pub fn sniff_framing(dump: &str) -> RawFraming {
    for line in dump.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "---" {
            return RawFraming::Separator;
        }
        if line
            .strip_prefix('#')
            .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
        {
            return RawFraming::LengthPrefixed;
        }
        return RawFraming::JsonLines;
    }
    RawFraming::JsonLines
}

/// A record the framer could not cut out of the dump.
struct FrameError<'a> {
    line: usize,
    message: String,
    /// The offending header/line, for quarantine.
    raw: &'a str,
}

type RecordResult<'a> = std::result::Result<(usize, &'a str), FrameError<'a>>;

/// Streaming record iterator over a framed dump: yields `(first line
/// number, record text)` without materializing the record list.
enum Records<'a> {
    Lines {
        lines: std::str::Lines<'a>,
        number: usize,
    },
    Separator {
        dump: &'a str,
        pos: usize,
        line: usize,
    },
    LengthPrefixed {
        dump: &'a str,
        pos: usize,
        line: usize,
    },
}

fn frame_records(dump: &str, framing: RawFraming) -> Records<'_> {
    match framing {
        RawFraming::JsonLines => Records::Lines {
            lines: dump.lines(),
            number: 0,
        },
        RawFraming::Separator => Records::Separator {
            dump,
            pos: 0,
            line: 0,
        },
        RawFraming::LengthPrefixed => Records::LengthPrefixed {
            dump,
            pos: 0,
            line: 0,
        },
    }
}

/// Consumes one line (without its newline) starting at `*pos`, advancing
/// past the newline. `None` at end of input.
fn take_line<'a>(dump: &'a str, pos: &mut usize) -> Option<(&'a str, usize, usize)> {
    if *pos >= dump.len() {
        return None;
    }
    let start = *pos;
    let end = dump[start..].find('\n').map_or(dump.len(), |i| start + i);
    *pos = (end + 1).min(dump.len());
    Some((&dump[start..end], start, end))
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordResult<'a>;

    fn next(&mut self) -> Option<RecordResult<'a>> {
        match self {
            Records::Lines { lines, number } => {
                for line in lines.by_ref() {
                    *number += 1;
                    let trimmed = line.trim();
                    if !trimmed.is_empty() {
                        return Some(Ok((*number, trimmed)));
                    }
                }
                None
            }
            Records::Separator { dump, pos, line } => {
                let mut record: Option<(usize, usize)> = None; // (byte start, line no)
                let mut record_end = 0usize;
                loop {
                    match take_line(dump, pos) {
                        None => {
                            return record.map(|(start, ln)| Ok((ln, &dump[start..record_end])));
                        }
                        Some((text, start, end)) => {
                            *line += 1;
                            let trimmed = text.trim();
                            if trimmed.is_empty() || trimmed == "---" {
                                if let Some((start, ln)) = record {
                                    return Some(Ok((ln, &dump[start..record_end])));
                                }
                            } else {
                                if record.is_none() {
                                    record = Some((start, *line));
                                }
                                record_end = end;
                            }
                        }
                    }
                }
            }
            Records::LengthPrefixed { dump, pos, line } => {
                loop {
                    let (text, _, _) = take_line(dump, pos)?;
                    *line += 1;
                    let header = text.trim();
                    if header.is_empty() {
                        continue;
                    }
                    let len = header.strip_prefix('#').and_then(|digits| {
                        (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
                            .then(|| digits.parse::<usize>().ok())
                            .flatten()
                    });
                    let Some(len) = len else {
                        return Some(Err(FrameError {
                            line: *line,
                            message: format!(
                                "line {}: expected a '#<bytes>' record header, found {header:?}",
                                *line
                            ),
                            raw: text,
                        }));
                    };
                    let start = *pos;
                    let end = match start.checked_add(len) {
                        Some(end) if end <= dump.len() && dump.is_char_boundary(end) => end,
                        _ => {
                            // The record's end cannot be located: the rest
                            // of the dump is unframeable.
                            let message = format!(
                                "line {}: record length {len} overruns the dump \
                                 (or splits a UTF-8 character)",
                                *line
                            );
                            let err = FrameError {
                                line: *line,
                                message,
                                raw: text,
                            };
                            *pos = dump.len();
                            return Some(Err(err));
                        }
                    };
                    let record_line = *line + 1;
                    let payload = &dump[start..end];
                    *line += payload.matches('\n').count();
                    *pos = end;
                    // One separator newline after the payload is part of
                    // the framing, not the next record.
                    if dump[end..].starts_with('\n') {
                        *pos = end + 1;
                        if !payload.ends_with('\n') {
                            *line += 1;
                        }
                    }
                    return Some(Ok((record_line, payload)));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Classification and conversion
// ---------------------------------------------------------------------------

/// One classified record: its 1-based first line number, detected source,
/// the dump text (decoded from the JSON string wrapper where applicable)
/// and the raw record (for quarantine).
struct RawLine<'a> {
    number: usize,
    source: Source,
    text: Cow<'a, str>,
    raw: &'a str,
}

/// Classifies one record (see the module docs for the record formats).
fn classify<'a>(number: usize, raw: &'a str) -> Result<RawLine<'a>> {
    let record = raw.trim();
    let text: Cow<'a, str> = if record.starts_with('"') {
        match json::parse(record)
            .map_err(|e| Error::Semantic(format!("line {number}: not a JSON value: {e}")))?
        {
            JsonValue::Str(s) => s,
            other => {
                // Defensively unreachable (a JSON value starting with '"'
                // is a string) — but the dirty-input layer must degrade to
                // an error, never abort the process.
                return Err(Error::Semantic(format!(
                    "line {number}: a '\"'-prefixed record must decode to a JSON string, \
                     not {other:?}"
                )));
            }
        }
    } else {
        Cow::Borrowed(record)
    };
    let source = detect(&text).ok_or_else(|| {
        Error::Semantic(format!(
            "line {number}: cannot identify the plan dialect; accepted sources: {}",
            Source::ALL.map(Source::name).join(", ")
        ))
    })?;
    Ok(RawLine {
        number,
        source,
        text,
        raw,
    })
}

/// Converts one batch across `threads` scoped workers (each with its own
/// reused builder), preserving record order. Per-record results: a failed
/// record costs itself, not the batch.
fn convert_batch(batch: &[RawLine<'_>], threads: usize) -> Vec<Result<UnifiedPlan>> {
    let threads = threads.clamp(1, batch.len().max(1));
    if threads == 1 {
        return convert_group(batch);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = batch
            .chunks(batch.len().div_ceil(threads))
            .map(|group| scope.spawn(move || convert_group(group)))
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("converter workers do not panic"))
            .collect()
    })
}

/// One worker's share of [`convert_batch`], through one reused builder.
fn convert_group(group: &[RawLine<'_>]) -> Vec<Result<UnifiedPlan>> {
    let mut builder = NodeBuilder::new(uplan_core::registry::Dbms::PostgreSql);
    group
        .iter()
        .map(|line| {
            builder.retarget(line.source.dbms());
            let converted = line.source.converter().convert(&line.text, &mut builder);
            converted.map_err(|e| {
                let source = line.source.name();
                Error::Semantic(format!("line {}: {source} plan: {e}", line.number))
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Error collection (lenient mode)
// ---------------------------------------------------------------------------

/// Encodes a failed record as one replayable JSONL line.
fn quarantine_line(raw: &str) -> String {
    let trimmed = raw.trim();
    if !trimmed.is_empty() && !trimmed.contains('\n') && !trimmed.starts_with('"') {
        trimmed.to_owned()
    } else {
        JsonValue::from(raw).to_compact()
    }
}

/// Collects per-record failures under the run's [`RawIngestOptions`]:
/// strict runs re-raise the first error, lenient runs accumulate (and
/// quarantine) until `max_errors` is exceeded.
struct ErrorSink<'o> {
    options: &'o RawIngestOptions,
    errors: Vec<RawIngestError>,
    quarantined: Vec<String>,
}

impl<'o> ErrorSink<'o> {
    fn new(options: &'o RawIngestOptions) -> ErrorSink<'o> {
        ErrorSink {
            options,
            errors: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    fn record(&mut self, err: Error, meta: RawIngestError, raw: &str) -> Result<()> {
        if self.options.strict {
            return Err(err);
        }
        let metrics = ingest_metrics();
        metrics.skipped[meta.kind.metric_index()].inc();
        if self.options.quarantine.is_some() {
            self.quarantined.push(quarantine_line(raw));
            metrics.quarantined.inc();
        }
        trace::event(
            "convert.ingest",
            Level::Warn,
            "record_skipped",
            &[
                ("line", (meta.line as u64).into()),
                ("kind", meta.kind.name().into()),
            ],
        );
        self.errors.push(meta);
        if self.options.max_errors > 0 && self.errors.len() > self.options.max_errors {
            return Err(Error::Semantic(format!(
                "giving up after {} bad records (max-errors {}); first: {}",
                self.errors.len(),
                self.options.max_errors,
                self.errors[0].message
            )));
        }
        Ok(())
    }

    /// [`ErrorSink::record`] with the census entry's message taken from
    /// `err`.
    fn skip(
        &mut self,
        err: Error,
        line: usize,
        source: Option<Source>,
        kind: RawErrorKind,
        raw: &str,
    ) -> Result<()> {
        let message = classify_error(&err);
        let meta = RawIngestError {
            line,
            source,
            kind,
            message,
        };
        self.record(err, meta, raw)
    }

    /// Moves the census into the report and writes the quarantine file
    /// (when configured — always, so an error-free run leaves an empty
    /// file rather than a stale one).
    fn finish(mut self, report: &mut RawIngestReport) -> Result<()> {
        // Batched conversion discovers convert failures after the classify
        // failures of the same batch; re-establish dump order (line numbers
        // are unique per record).
        self.errors.sort_by_key(|e| e.line);
        report.errors = self.errors;
        if let Some(path) = &self.options.quarantine {
            let mut contents = self.quarantined.join("\n");
            if !contents.is_empty() {
                contents.push('\n');
            }
            std::fs::write(path, contents).map_err(|e| {
                Error::Semantic(format!(
                    "cannot write quarantine file {}: {e}",
                    path.display()
                ))
            })?;
        }
        Ok(())
    }
}

fn classify_error(err: &Error) -> String {
    match err {
        Error::Semantic(message) => message.clone(),
        other => other.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Conversion entry and corpus ingest
// ---------------------------------------------------------------------------

/// Frames, sniffs and converts a mixed-source dump under explicit
/// [`RawIngestOptions`] (see the module docs), handing each batch of at
/// most [`RAW_BATCH`] converted plans to `on_batch` in dump order.
/// `on_batch` returns how many of the plans were novel to it, which the
/// report sums into [`RawIngestReport::novel`]. `threads` fans out the
/// per-batch conversion; any thread count yields the same batches.
pub fn convert_raw(
    dump: &str,
    threads: usize,
    options: &RawIngestOptions,
    mut on_batch: impl FnMut(Vec<UnifiedPlan>) -> usize,
) -> Result<RawIngestReport> {
    let framing = sniff_framing(dump);
    let mut ingest_span = trace::span("convert.ingest", Level::Info, "ingest");
    ingest_span.field("framing", framing.name());
    ingest_span.field("bytes", dump.len());
    let mut counts = [0usize; Source::ALL.len()];
    let mut report = RawIngestReport {
        framing,
        ..RawIngestReport::default()
    };
    let mut sink = ErrorSink::new(options);
    let mut batch: Vec<RawLine<'_>> = Vec::with_capacity(RAW_BATCH);
    let mut records = frame_records(dump, framing);
    loop {
        // A full batch flushes before the next record is handled; the last
        // one flushes once the records run out.
        let record = records.next();
        if batch.len() == RAW_BATCH || (record.is_none() && !batch.is_empty()) {
            let metrics = ingest_metrics();
            let mut span = trace::span("convert.ingest", Level::Debug, "batch");
            span.field("records", batch.len());
            let mut plans = Vec::with_capacity(batch.len());
            for (line, result) in batch.iter().zip(convert_batch(&batch, threads)) {
                match result {
                    Ok(plan) => {
                        plans.push(plan);
                        counts[source_index(line.source)] += 1;
                        metrics.by_source[source_index(line.source)].inc();
                    }
                    Err(err) => {
                        let source = Some(line.source);
                        sink.skip(err, line.number, source, RawErrorKind::Convert, line.raw)?;
                    }
                }
            }
            let converted = plans.len();
            report.lines += converted;
            let novel = on_batch(plans);
            report.novel += novel;
            metrics.records.add(converted as u64);
            metrics.batches.inc();
            metrics.batch_records.record(batch.len() as u64);
            span.field("converted", converted);
            span.field("skipped", batch.len() - converted);
            span.field("novel", novel);
            batch.clear();
        }
        match record {
            None => break,
            Some(Ok((number, raw))) => match classify(number, raw) {
                Ok(classified) => batch.push(classified),
                Err(err) => sink.skip(err, number, None, RawErrorKind::Classify, raw)?,
            },
            Some(Err(frame)) => {
                let err = Error::Semantic(frame.message);
                sink.skip(err, frame.line, None, RawErrorKind::Frame, frame.raw)?;
            }
        }
    }

    report.per_source = Source::ALL
        .into_iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .collect();
    sink.finish(&mut report)?;
    ingest_span.field("lines", report.lines);
    ingest_span.field("novel", report.novel);
    ingest_span.field("errors", report.errors.len());
    Ok(report)
}

/// [`convert_raw`] on the calling thread, keeping the first plan of each
/// fingerprint under `fingerprints`: the plans a fresh corpus with those
/// options would store, in its order, without building one
/// ([`RawIngestReport::novel`] counts them). For request-sized dumps.
pub fn convert_raw_distinct(
    dump: &str,
    options: &RawIngestOptions,
    fingerprints: FingerprintOptions,
) -> Result<(Vec<UnifiedPlan>, RawIngestReport)> {
    let (mut seen, mut distinct) = (HashSet::new(), Vec::new());
    let report = convert_raw(dump, 1, options, |plans| {
        let before = distinct.len();
        let novel = plans
            .into_iter()
            .filter(|p| seen.insert(fingerprint_with(p, fingerprints)));
        distinct.extend(novel);
        distinct.len() - before
    })?;
    Ok((distinct, report))
}

/// Streams a mixed-source dump into `corpus` under explicit
/// [`RawIngestOptions`]: [`convert_raw`] with every batch handed to
/// [`PlanCorpus::ingest_parallel`]. `threads` fans out both the per-batch
/// conversion and the sharded ingest; any thread count produces a
/// byte-identical corpus — and in lenient mode, a corpus byte-identical to
/// sequentially ingesting only the valid records.
pub fn ingest_raw_with(
    dump: &str,
    corpus: &mut PlanCorpus,
    threads: usize,
    options: &RawIngestOptions,
) -> Result<RawIngestReport> {
    convert_raw(dump, threads, options, |plans| {
        corpus.ingest_parallel(&plans, threads)
    })
}

/// [`ingest_raw_with`] under the default (strict) options.
pub fn ingest_raw(dump: &str, corpus: &mut PlanCorpus, threads: usize) -> Result<RawIngestReport> {
    ingest_raw_with(dump, corpus, threads, &RawIngestOptions::default())
}

/// The sequential per-source reference path: classify, convert and observe
/// each record in order — no batching, no worker threads. [`ingest_raw_with`]
/// is contractually byte-identical to this under the same options (the CI
/// raw-ingest gate compares the two corpora with `cmp`).
pub fn ingest_raw_sequential_with(
    dump: &str,
    corpus: &mut PlanCorpus,
    options: &RawIngestOptions,
) -> Result<RawIngestReport> {
    let framing = sniff_framing(dump);
    let mut counts = [0usize; Source::ALL.len()];
    let mut report = RawIngestReport {
        framing,
        ..RawIngestReport::default()
    };
    let mut sink = ErrorSink::new(options);
    let mut builder = NodeBuilder::new(uplan_core::registry::Dbms::PostgreSql);
    for record in frame_records(dump, framing) {
        let (number, raw) = match record {
            Ok(record) => record,
            Err(frame) => {
                let meta = RawIngestError {
                    line: frame.line,
                    source: None,
                    kind: RawErrorKind::Frame,
                    message: frame.message.clone(),
                };
                sink.record(Error::Semantic(frame.message), meta, frame.raw)?;
                continue;
            }
        };
        let classified = match classify(number, raw) {
            Ok(classified) => classified,
            Err(err) => {
                let message = classify_error(&err);
                sink.record(
                    err,
                    RawIngestError {
                        line: number,
                        source: None,
                        kind: RawErrorKind::Classify,
                        message,
                    },
                    raw,
                )?;
                continue;
            }
        };
        builder.retarget(classified.source.dbms());
        let converted = classified
            .source
            .converter()
            .convert(&classified.text, &mut builder)
            .map_err(|e| {
                Error::Semantic(format!(
                    "line {}: {} plan: {e}",
                    classified.number,
                    classified.source.name()
                ))
            });
        match converted {
            Ok(plan) => {
                counts[source_index(classified.source)] += 1;
                report.lines += 1;
                if corpus.observe(&plan) {
                    report.novel += 1;
                }
            }
            Err(err) => {
                let message = classify_error(&err);
                sink.record(
                    err,
                    RawIngestError {
                        line: classified.number,
                        source: Some(classified.source),
                        kind: RawErrorKind::Convert,
                        message,
                    },
                    classified.raw,
                )?;
            }
        }
    }
    report.per_source = Source::ALL
        .into_iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .collect();
    sink.finish(&mut report)?;
    Ok(report)
}

/// [`ingest_raw_sequential_with`] under the default (strict) options.
pub fn ingest_raw_sequential(dump: &str, corpus: &mut PlanCorpus) -> Result<RawIngestReport> {
    ingest_raw_sequential_with(dump, corpus, &RawIngestOptions::default())
}

fn source_index(source: Source) -> usize {
    Source::ALL
        .iter()
        .position(|s| *s == source)
        .expect("every source is in ALL")
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIDB_DUMP: &str = "\
+-----------------------+---------+-----------+---------------+---------------+
| id                    | estRows | task      | access object | operator info |
+-----------------------+---------+-----------+---------------+---------------+
| TableReader_7         | 5.00    | root      |               |               |
| └─TableFullScan_5     | 100.00  | cop[tikv] | table:t0      |               |
+-----------------------+---------+-----------+---------------+---------------+
";

    const INFLUX_DUMP: &str = "QUERY PLAN\n----------\nEXPRESSION: <nil>\nNUMBER OF SERIES: 4\n";
    const PG_JSON: &str = r#"[{"Plan": {"Node Type": "Seq Scan", "Relation Name": "t0"}}]"#;

    fn string_line(text: &str) -> String {
        JsonValue::from(text).to_compact()
    }

    fn mixed_dump() -> String {
        format!(
            "{}\n{}\n{}\n{}\n",
            string_line(TIDB_DUMP),
            PG_JSON,
            string_line(INFLUX_DUMP),
            string_line(TIDB_DUMP),
        )
    }

    #[test]
    fn raw_and_sequential_agree_on_a_small_mixed_dump() {
        let dump = mixed_dump();
        let mut parallel = PlanCorpus::new();
        let report = ingest_raw(&dump, &mut parallel, 4).unwrap();
        assert_eq!(report.lines, 4);
        assert_eq!(report.novel, 3, "duplicate TiDB line dedups");
        assert_eq!(report.framing, RawFraming::JsonLines);
        assert_eq!(
            report.census(),
            "postgres-json 1, tidb-table 2, influxdb-text 1"
        );
        assert_eq!(report.error_census(), "no errors");

        let mut sequential = PlanCorpus::new();
        let seq_report = ingest_raw_sequential(&dump, &mut sequential).unwrap();
        assert_eq!(report, seq_report);
        assert_eq!(
            uplan_corpus::encode_segment(&parallel).unwrap(),
            uplan_corpus::encode_segment(&sequential).unwrap(),
            "raw ingest must be byte-identical to the sequential reference"
        );
        assert_eq!(parallel.observed(), 4);
    }

    #[test]
    fn convert_raw_streams_bounded_batches_in_dump_order() {
        // One record past a full batch: two batches, the second of one plan.
        let records: Vec<String> = (0..=RAW_BATCH)
            .map(|i| {
                format!(r#"[{{"Plan": {{"Node Type": "Seq Scan", "Relation Name": "t{i}"}}}}]"#)
            })
            .collect();
        let dump = records.join("\n");
        let mut sizes = Vec::new();
        let mut streamed = Vec::new();
        let report = convert_raw(&dump, 2, &RawIngestOptions::default(), |plans| {
            sizes.push(plans.len());
            streamed.extend(plans);
            0
        })
        .unwrap();
        assert_eq!(sizes, [RAW_BATCH, 1]);
        assert_eq!(report.lines, RAW_BATCH + 1);
        let one_by_one: Vec<UnifiedPlan> = records
            .iter()
            .map(|record| crate::convert(Source::PostgresJson, record).unwrap())
            .collect();
        assert_eq!(streamed, one_by_one);
    }

    #[test]
    fn distinct_plans_are_what_a_fresh_corpus_stores() {
        let dump = format!("{}\n{}", mixed_dump(), string_line(INFLUX_DUMP));
        let options = RawIngestOptions::default();
        let (plans, report) = convert_raw_distinct(&dump, &options, Default::default()).unwrap();
        let mut corpus = PlanCorpus::new();
        let corpus_report = ingest_raw_with(&dump, &mut corpus, 1, &options).unwrap();
        assert_eq!(report, corpus_report);
        assert_eq!((report.lines, report.novel, plans.len()), (5, 3, 3));
        let stored: Vec<&UnifiedPlan> = corpus.iter().map(|(_, plan)| plan).collect();
        assert_eq!(plans.iter().collect::<Vec<_>>(), stored);
    }

    #[test]
    fn unrecognized_and_broken_lines_report_their_line_number() {
        let mut corpus = PlanCorpus::new();
        let err = ingest_raw("\"complete nonsense\"\n", &mut corpus, 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        assert!(msg.contains("accepted sources"), "{msg}");

        // Sniffs as TiDB but fails to convert: conversion errors carry the
        // line number and the detected source.
        let broken = string_line("| id | estRows |\n");
        let err = ingest_raw(&format!("{TIDB_DUMP:?}garbage"), &mut corpus, 1);
        assert!(err.is_err(), "unparseable JSON value line");
        let err = ingest_raw(&broken, &mut corpus, 1).unwrap_err();
        assert!(err.to_string().contains("tidb-table"), "{err}");
    }

    #[test]
    fn empty_dump_is_an_empty_report() {
        let mut corpus = PlanCorpus::new();
        let report = ingest_raw("\n\n", &mut corpus, 2).unwrap();
        assert_eq!(report, RawIngestReport::default());
        assert!(corpus.is_empty());
    }

    #[test]
    fn lenient_ingest_skips_bad_records_and_matches_the_valid_subset() {
        // Interleave garbage at known lines: 2 (classify), 4 (convert),
        // 6 (classify).
        let dump = format!(
            "{}\n\"complete nonsense\"\n{}\n{}\n{}\n{{\"zzz\": 1}}\n{}\n",
            string_line(TIDB_DUMP),
            PG_JSON,
            string_line("| id | estRows |\n"),
            string_line(INFLUX_DUMP),
            string_line(TIDB_DUMP),
        );
        let options = RawIngestOptions::lenient();
        let mut lenient = PlanCorpus::new();
        let report = ingest_raw_with(&dump, &mut lenient, 4, &options).unwrap();
        assert_eq!(report.lines, 4);
        assert_eq!(report.errors.len(), 3);
        assert_eq!(
            report.error_census(),
            "line 2 (classify), line 4 (tidb-table convert), line 6 (classify)"
        );
        assert_eq!(
            report.census(),
            "postgres-json 1, tidb-table 2, influxdb-text 1"
        );

        // The lenient sequential path agrees exactly.
        let mut seq = PlanCorpus::new();
        let seq_report = ingest_raw_sequential_with(&dump, &mut seq, &options).unwrap();
        assert_eq!(report, seq_report);

        // And the corpus is byte-identical to strict ingest of the valid
        // subset alone.
        let valid = mixed_dump();
        let mut reference = PlanCorpus::new();
        ingest_raw_sequential(&valid, &mut reference).unwrap();
        assert_eq!(
            uplan_corpus::encode_segment(&lenient).unwrap(),
            uplan_corpus::encode_segment(&reference).unwrap()
        );
        assert_eq!(
            uplan_corpus::encode_segment(&seq).unwrap(),
            uplan_corpus::encode_segment(&reference).unwrap()
        );
    }

    #[test]
    fn max_errors_bounds_a_lenient_run() {
        let dump = "\"a\"\n\"b\"\n\"c\"\n";
        let options = RawIngestOptions {
            max_errors: 2,
            ..RawIngestOptions::lenient()
        };
        let mut corpus = PlanCorpus::new();
        let err = ingest_raw_with(dump, &mut corpus, 1, &options).unwrap_err();
        assert!(err.to_string().contains("max-errors 2"), "{err}");
        // Unlimited: all three collect.
        let mut corpus = PlanCorpus::new();
        let report = ingest_raw_with(dump, &mut corpus, 1, &RawIngestOptions::lenient()).unwrap();
        assert_eq!(report.errors.len(), 3);
        assert_eq!(report.lines, 0);
    }

    #[test]
    fn quarantined_records_replay_to_the_same_failures() {
        let dump = format!(
            "{}\n\"complete nonsense\"\n{{\"zzz\": 1}}\n{}\n",
            string_line(TIDB_DUMP),
            string_line("| id | estRows |\n"),
        );
        let path =
            std::env::temp_dir().join(format!("uplan_raw_quarantine_{}.jsonl", std::process::id()));
        let options = RawIngestOptions {
            quarantine: Some(path.clone()),
            ..RawIngestOptions::lenient()
        };
        let mut corpus = PlanCorpus::new();
        let report = ingest_raw_with(&dump, &mut corpus, 2, &options).unwrap();
        assert_eq!(report.errors.len(), 3);
        assert_eq!(report.lines, 1);

        // Replaying the quarantine file reproduces exactly those failures.
        let replay = std::fs::read_to_string(&path).unwrap();
        assert_eq!(replay.lines().count(), 3);
        let mut replay_corpus = PlanCorpus::new();
        let replay_report =
            ingest_raw_with(&replay, &mut replay_corpus, 2, &RawIngestOptions::lenient()).unwrap();
        assert_eq!(replay_report.errors.len(), 3);
        assert_eq!(replay_report.lines, 0);
        assert!(replay_corpus.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn separator_framed_dumps_ingest_like_their_jsonl_encoding() {
        let framed = format!("---\n{TIDB_DUMP}---\n{INFLUX_DUMP}\n---\n{TIDB_DUMP}");
        assert_eq!(sniff_framing(&framed), RawFraming::Separator);
        let mut from_framed = PlanCorpus::new();
        let report = ingest_raw(&framed, &mut from_framed, 2).unwrap();
        assert_eq!(report.framing, RawFraming::Separator);
        assert_eq!(report.lines, 3);
        assert_eq!(report.census(), "tidb-table 2, influxdb-text 1");

        let jsonl = format!(
            "{}\n{}\n{}\n",
            string_line(TIDB_DUMP),
            string_line(INFLUX_DUMP),
            string_line(TIDB_DUMP),
        );
        let mut from_jsonl = PlanCorpus::new();
        ingest_raw(&jsonl, &mut from_jsonl, 2).unwrap();
        assert_eq!(
            uplan_corpus::encode_segment(&from_framed).unwrap(),
            uplan_corpus::encode_segment(&from_jsonl).unwrap()
        );
    }

    #[test]
    fn length_prefixed_dumps_ingest_like_their_jsonl_encoding() {
        let framed = format!(
            "#{}\n{}#{}\n{}\n#{}\n{}",
            TIDB_DUMP.len(),
            TIDB_DUMP,
            INFLUX_DUMP.len(),
            INFLUX_DUMP,
            PG_JSON.len(),
            PG_JSON,
        );
        assert_eq!(sniff_framing(&framed), RawFraming::LengthPrefixed);
        let mut from_framed = PlanCorpus::new();
        let report = ingest_raw(&framed, &mut from_framed, 2).unwrap();
        assert_eq!(report.framing, RawFraming::LengthPrefixed);
        assert_eq!(report.lines, 3);

        let jsonl = format!(
            "{}\n{}\n{}\n",
            string_line(TIDB_DUMP),
            string_line(INFLUX_DUMP),
            PG_JSON,
        );
        let mut from_jsonl = PlanCorpus::new();
        ingest_raw(&jsonl, &mut from_jsonl, 2).unwrap();
        assert_eq!(
            uplan_corpus::encode_segment(&from_framed).unwrap(),
            uplan_corpus::encode_segment(&from_jsonl).unwrap()
        );
    }

    #[test]
    fn bad_length_prefix_headers_are_frame_errors_not_aborts() {
        // A good record, a bad header, then an overrunning length: in
        // lenient mode the good record survives and both failures land in
        // the census.
        let framed = format!(
            "#{}\n{}#nonsense\n#999999\ntruncated",
            TIDB_DUMP.len(),
            TIDB_DUMP,
        );
        let mut corpus = PlanCorpus::new();
        let report =
            ingest_raw_with(&framed, &mut corpus, 1, &RawIngestOptions::lenient()).unwrap();
        assert_eq!(report.lines, 1);
        assert_eq!(report.errors.len(), 2);
        assert!(report.errors.iter().all(|e| e.kind == RawErrorKind::Frame));
        // Strict mode aborts on the first frame error instead.
        let mut corpus = PlanCorpus::new();
        assert!(ingest_raw(&framed, &mut corpus, 1).is_err());
    }
}
