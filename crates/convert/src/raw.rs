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
//! corpora. It reads the dump through any [`BufRead`], so a file streams
//! from disk: records are framed one at a time into a reused buffer of at
//! most [`RAW_BATCH`] records, and only that one batch of raw text is in
//! memory at a time, whatever the dump's size (a `#<n>` header allocates
//! for the bytes that actually follow it, not for `n`).
//!
//! Each batch is converted by `threads` workers, the calling thread among
//! them (one thread spawns nothing). Workers claim fixed pieces of
//! [`RAW_PIECE`] records through one atomic counter, so a piece of slow
//! records does not leave the other workers idle. A worker runs each
//! record's whole chain — JSON-string unwrap, source sniff through the
//! converter registry ([`crate::detect`]), convert through its reused
//! [`NodeBuilder`] — and then fingerprints the plan against the run's
//! [`FingerprintSet`] as it stood after the previous batch. A plan whose
//! fingerprint the set holds is dropped on the worker; any other plan is
//! kept as a candidate (a compact clone, with its fingerprint). The calling
//! thread then admits the candidates in dump order, inserting each
//! fingerprint into the set, so the first plan of each fingerprint wins at
//! any thread count. The batch callback receives those first-of-fingerprint
//! plans and the number of duplicates dropped.
//!
//! The corpus wrappers take in-memory dumps and sit on top of it:
//! [`ingest_raw_with`] hands every batch's plans to
//! [`PlanCorpus::ingest_parallel`] and counts the dropped duplicates as
//! observed. Because shard routing and id assignment are deterministic, the
//! resulting corpus is **byte-identical** to converting every record
//! sequentially with its own source converter and observing the plans one
//! by one ([`ingest_raw_sequential_with`], the reference path the CI gate
//! diffs against). Request-sized inputs that need plans, not a corpus, use
//! [`convert_raw_distinct`]: the first plan of each fingerprint.
//!
//! ## Dirty dumps: lenient mode
//!
//! Real fleet dumps are dirty — truncated records, interleaved garbage,
//! unknown dialects. The default is strict (first bad record aborts, as a
//! curated corpus build should), but [`RawIngestOptions`] turns the same
//! pipeline lenient: failures are *collected per record*, in dump order,
//! into the report's error census ([`RawIngestError`]: line number, detected
//! source, error kind) while every convertible record still ingests —
//! and the corpus stays byte-identical to sequentially ingesting only
//! the valid records. Failed records can be written to a quarantine
//! JSONL file for later replay, and `max_errors` bounds how much garbage
//! a run tolerates before giving up.

use std::borrow::Cow;
use std::io::{self, BufRead, Read};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use uplan_core::fingerprint::{Fingerprint, FingerprintOptions, FingerprintSet};
use uplan_core::formats::json::{self, JsonValue};
use uplan_core::registry::Dbms;
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

/// Records per conversion/ingest batch — the only window of raw records
/// and of converted plans alive at once.
pub const RAW_BATCH: usize = 512;

/// Records a conversion worker claims from a batch at a time.
pub const RAW_PIECE: usize = 16;

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
    dump.lines()
        .map(str::trim)
        .find(|line| !line.is_empty())
        .map_or(RawFraming::JsonLines, framing_of)
}

/// The framing a dump whose first non-blank line is `first` (trimmed) is
/// read under.
fn framing_of(first: &str) -> RawFraming {
    if first == "---" {
        RawFraming::Separator
    } else if is_length_header(first) {
        RawFraming::LengthPrefixed
    } else {
        RawFraming::JsonLines
    }
}

/// `#<digits>`: the shape of a length-prefix header line (trimmed).
fn is_length_header(line: &str) -> bool {
    line.strip_prefix('#')
        .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// One framed record of a [`Batch`]: its 1-based first line number and
/// where its text sits in the batch buffer.
struct Framed {
    line: usize,
    /// The record's text, or for a frame error the offending header line.
    span: Range<usize>,
    /// Why the record could not be cut out of the dump, if it could not.
    frame_error: Option<String>,
}

/// Up to [`RAW_BATCH`] framed records, their text in one reused buffer.
#[derive(Default)]
struct Batch {
    text: String,
    records: Vec<Framed>,
}

/// The one framer: cuts records out of a dump read through `R`, one at a
/// time, so only the records being framed are ever in memory.
struct Framer<R> {
    reader: R,
    framing: RawFraming,
    /// Lines consumed so far (the last line read is line `line`).
    line: usize,
    /// Bytes consumed so far.
    bytes: usize,
    /// The first non-blank line, read to sniff the framing and not yet
    /// framed.
    sniffed: Option<String>,
    /// A length-prefixed payload, read before it is known to be whole.
    payload: Vec<u8>,
    /// Set once the rest of the dump is unframeable.
    done: bool,
}

impl<R: BufRead> Framer<R> {
    /// Reads up to the dump's first non-blank line and sniffs the framing
    /// from it (see [`sniff_framing`]).
    fn new(mut reader: R) -> io::Result<Framer<R>> {
        let (mut line, mut bytes) = (0, 0);
        let mut first = String::new();
        let framing = loop {
            first.clear();
            let read = reader.read_line(&mut first)?;
            if read == 0 {
                break RawFraming::JsonLines;
            }
            let trimmed = first.trim();
            if !trimmed.is_empty() {
                break framing_of(trimmed);
            }
            line += 1;
            bytes += read;
        };
        Ok(Framer {
            reader,
            framing,
            line,
            bytes,
            sniffed: (!first.is_empty()).then_some(first),
            payload: Vec::new(),
            done: false,
        })
    }

    /// Appends the next line (with its newline, if any) to `text` and
    /// returns where it starts; `None` at end of input.
    fn read_line(&mut self, text: &mut String) -> io::Result<Option<usize>> {
        let start = text.len();
        match self.sniffed.take() {
            Some(first) => text.push_str(&first),
            None if self.reader.read_line(text)? == 0 => return Ok(None),
            None => {}
        }
        self.line += 1;
        self.bytes += text.len() - start;
        Ok(Some(start))
    }

    /// Frames up to [`RAW_BATCH`] records into `batch`, replacing what it
    /// held. An empty batch means the dump is exhausted.
    fn fill(&mut self, batch: &mut Batch) -> io::Result<()> {
        batch.text.clear();
        batch.records.clear();
        while batch.records.len() < RAW_BATCH {
            match self.next_record(&mut batch.text)? {
                Some(record) => batch.records.push(record),
                None => break,
            }
        }
        Ok(())
    }

    /// Appends the next record's text to `text`; `None` at end of input.
    fn next_record(&mut self, text: &mut String) -> io::Result<Option<Framed>> {
        match self.framing {
            RawFraming::JsonLines => self.next_line_record(text),
            RawFraming::Separator => self.next_separated_record(text),
            RawFraming::LengthPrefixed => self.next_prefixed_record(text),
        }
    }

    /// JSON lines: every non-blank line, trimmed.
    fn next_line_record(&mut self, text: &mut String) -> io::Result<Option<Framed>> {
        while let Some(start) = self.read_line(text)? {
            let line = &text[start..];
            let trimmed = line.trim();
            if trimmed.is_empty() {
                text.truncate(start);
                continue;
            }
            let begin = start + (line.len() - line.trim_start().len());
            return Ok(Some(Framed {
                line: self.line,
                span: begin..begin + trimmed.len(),
                frame_error: None,
            }));
        }
        Ok(None)
    }

    /// Separator framing: the lines between `---` or blank lines.
    fn next_separated_record(&mut self, text: &mut String) -> io::Result<Option<Framed>> {
        let mut record: Option<(usize, usize)> = None; // (line number, start)
        let mut end = 0;
        while let Some(start) = self.read_line(text)? {
            let line = &text[start..];
            let body = line.strip_suffix('\n').unwrap_or(line);
            let trimmed = body.trim();
            if trimmed.is_empty() || trimmed == "---" {
                text.truncate(start);
                if record.is_some() {
                    break;
                }
            } else {
                record.get_or_insert((self.line, start));
                end = start + body.len();
            }
        }
        Ok(record.map(|(line, start)| Framed {
            line,
            span: start..end,
            frame_error: None,
        }))
    }

    /// Length-prefixed framing: a `#<n>` header line, then exactly `n`
    /// bytes of record. The payload is read through `take(n)`, so a header
    /// that overruns the dump costs only the bytes that exist.
    fn next_prefixed_record(&mut self, text: &mut String) -> io::Result<Option<Framed>> {
        if self.done {
            return Ok(None);
        }
        let (start, header_end, header) = loop {
            let Some(start) = self.read_line(text)? else {
                return Ok(None);
            };
            let line = &text[start..];
            let body = line.strip_suffix('\n').unwrap_or(line);
            let header = body.trim();
            if !header.is_empty() {
                break (start, start + body.len(), header);
            }
            text.truncate(start);
        };
        let error = |message: String| Framed {
            line: self.line,
            span: start..header_end,
            frame_error: Some(message),
        };
        let Some(len) = is_length_header(header)
            .then(|| header[1..].parse::<usize>().ok())
            .flatten()
        else {
            let message = format!(
                "line {}: expected a '#<bytes>' record header, found {header:?}",
                self.line
            );
            return Ok(Some(error(message)));
        };
        self.payload.clear();
        let read = (&mut self.reader)
            .take(len as u64)
            .read_to_end(&mut self.payload)?;
        let payload = match std::str::from_utf8(&self.payload) {
            Ok(payload) if read == len => payload,
            // Invalid bytes inside the payload are a bad dump, not a bad
            // frame; a character cut at the payload's end is a bad frame.
            Err(e) if e.error_len().is_some() => {
                let message = "stream did not contain valid UTF-8";
                return Err(io::Error::new(io::ErrorKind::InvalidData, message));
            }
            _ => {
                // The record's end cannot be located: the rest of the dump
                // is unframeable.
                self.done = true;
                let message = format!(
                    "line {}: record length {len} overruns the dump \
                     (or splits a UTF-8 character)",
                    self.line
                );
                return Ok(Some(error(message)));
            }
        };
        let record = Framed {
            line: self.line + 1,
            span: start..start + len,
            frame_error: None,
        };
        text.truncate(start);
        text.push_str(payload);
        self.line += payload.matches('\n').count();
        self.bytes += len;
        // One separator newline after the payload is part of the framing,
        // not the next record.
        let ends_line = payload.ends_with('\n');
        if self.reader.fill_buf()?.first() == Some(&b'\n') {
            self.reader.consume(1);
            self.bytes += 1;
            if !ends_line {
                self.line += 1;
            }
        }
        Ok(Some(record))
    }
}

// ---------------------------------------------------------------------------
// Classification and conversion
// ---------------------------------------------------------------------------

/// Classifies one record (see the module docs for the record formats):
/// its source and its dump text, decoded from the JSON string wrapper
/// where it has one.
fn classify(number: usize, raw: &str) -> Result<(Source, Cow<'_, str>)> {
    let record = raw.trim();
    let text = if record.starts_with('"') {
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
    Ok((source, text))
}

/// Why one framed record did not convert: the stage that rejected it, the
/// source detected (if classification got that far) and the error.
struct Failure {
    kind: RawErrorKind,
    source: Option<Source>,
    err: Error,
}

/// The whole per-record chain — frame check, JSON-string unwrap, `detect`
/// and convert — through one reused builder.
fn convert_record(
    text: &str,
    record: &Framed,
    builder: &mut NodeBuilder,
) -> std::result::Result<(Source, UnifiedPlan), Failure> {
    let failure = |kind, source, err| Failure { kind, source, err };
    if let Some(message) = &record.frame_error {
        let err = Error::Semantic(message.clone());
        return Err(failure(RawErrorKind::Frame, None, err));
    }
    let (source, dump) = classify(record.line, &text[record.span.clone()])
        .map_err(|err| failure(RawErrorKind::Classify, None, err))?;
    builder.retarget(source.dbms());
    match source.converter().convert(&dump, builder) {
        Ok(plan) => Ok((source, plan)),
        Err(e) => {
            let err = Error::Semantic(format!("line {}: {} plan: {e}", record.line, source.name()));
            Err(failure(RawErrorKind::Convert, Some(source), err))
        }
    }
}

/// What a conversion worker made of one framed record.
enum Outcome {
    /// A plan whose fingerprint the run had not seen before this batch:
    /// a compact clone, with its fingerprint.
    Candidate(Source, Fingerprint, UnifiedPlan),
    /// A plan whose fingerprint the run had seen before this batch,
    /// dropped on the worker.
    Duplicate(Source),
    /// A record that did not convert.
    Failed(Failure),
}

/// Converts one record and sifts its plan against `seen`, the run's
/// fingerprints as they stood after the previous batch.
fn convert_and_sift(
    text: &str,
    record: &Framed,
    builder: &mut NodeBuilder,
    seen: &FingerprintSet,
) -> Outcome {
    match convert_record(text, record, builder) {
        Ok((source, plan)) => {
            let fp = seen.fingerprint_of(&plan);
            if seen.contains_fingerprint(fp) {
                Outcome::Duplicate(source)
            } else {
                // Clones are compact: converter output carries spare
                // capacity.
                Outcome::Candidate(source, fp, plan.clone())
            }
        }
        Err(failure) => Outcome::Failed(failure),
    }
}

/// Converts and sifts one batch, returning the outcomes in record order.
/// Up to `threads` workers — the calling thread and scoped workers — claim
/// pieces of [`RAW_PIECE`] records through one atomic counter; with one
/// thread nothing is spawned.
fn convert_batch(
    batch: &Batch,
    threads: usize,
    builder: &mut NodeBuilder,
    seen: &FingerprintSet,
) -> Vec<Outcome> {
    let records = &batch.records;
    // The next unclaimed piece. Relaxed suffices: the counter publishes no
    // data, and outcomes come back through `join`.
    let next = AtomicUsize::new(0);
    // Each worker returns `(piece number, outcomes)` for the pieces it
    // claimed.
    let work = |builder: &mut NodeBuilder| -> Vec<(usize, Vec<Outcome>)> {
        let mut pieces = Vec::new();
        loop {
            let piece = next.fetch_add(1, Ordering::Relaxed);
            let start = piece * RAW_PIECE;
            if start >= records.len() {
                return pieces;
            }
            let outcomes = records[start..records.len().min(start + RAW_PIECE)]
                .iter()
                .map(|record| convert_and_sift(&batch.text, record, builder, seen))
                .collect();
            pieces.push((piece, outcomes));
        }
    };
    let threads = threads.clamp(1, records.len().div_ceil(RAW_PIECE).max(1));
    let mut pieces = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| work(&mut NodeBuilder::new(Dbms::PostgreSql))))
            .collect();
        let mut pieces = work(builder);
        for worker in workers {
            pieces.extend(worker.join().expect("converter workers do not panic"));
        }
        pieces
    });
    pieces.sort_unstable_by_key(|&(piece, _)| piece);
    pieces
        .into_iter()
        .flat_map(|(_, outcomes)| outcomes)
        .collect()
}

// ---------------------------------------------------------------------------
// Per-dump totals and error collection (lenient mode)
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

fn classify_error(err: &Error) -> String {
    match err {
        Error::Semantic(message) => message.clone(),
        other => other.to_string(),
    }
}

/// The per-dump totals both conversion paths keep under the run's
/// [`RawIngestOptions`]: the report with its per-source census and, in
/// lenient mode, its error census and the records to quarantine.
struct Tally<'o> {
    options: &'o RawIngestOptions,
    counts: [usize; Source::ALL.len()],
    report: RawIngestReport,
    quarantined: Vec<String>,
}

impl<'o> Tally<'o> {
    fn new(framing: RawFraming, options: &'o RawIngestOptions) -> Tally<'o> {
        Tally {
            options,
            counts: [0; Source::ALL.len()],
            report: RawIngestReport {
                framing,
                ..RawIngestReport::default()
            },
            quarantined: Vec::new(),
        }
    }

    /// Counts one converted record.
    fn converted(&mut self, source: Source) {
        self.counts[source_index(source)] += 1;
        self.report.lines += 1;
    }

    /// Collects one failed record (`text` holds the record's framed text):
    /// strict runs re-raise its error, lenient runs add it to the error
    /// census and quarantine it, failing once `max_errors` is exceeded.
    fn skip(&mut self, record: &Framed, failure: Failure, text: &str) -> Result<()> {
        let Failure { kind, source, err } = failure;
        if self.options.strict {
            return Err(err);
        }
        let metrics = ingest_metrics();
        metrics.skipped[kind.metric_index()].inc();
        if self.options.quarantine.is_some() {
            self.quarantined
                .push(quarantine_line(&text[record.span.clone()]));
            metrics.quarantined.inc();
        }
        trace::event(
            "convert.ingest",
            Level::Warn,
            "record_skipped",
            &[
                ("line", (record.line as u64).into()),
                ("kind", kind.name().into()),
            ],
        );
        let errors = &mut self.report.errors;
        errors.push(RawIngestError {
            line: record.line,
            source,
            kind,
            message: classify_error(&err),
        });
        if self.options.max_errors > 0 && errors.len() > self.options.max_errors {
            return Err(Error::Semantic(format!(
                "giving up after {} bad records (max-errors {}); first: {}",
                errors.len(),
                self.options.max_errors,
                errors[0].message
            )));
        }
        Ok(())
    }

    /// Completes the report and writes the quarantine file (when
    /// configured — always, so an error-free run leaves an empty file
    /// rather than a stale one).
    fn finish(mut self) -> Result<RawIngestReport> {
        self.report.per_source = Source::ALL
            .into_iter()
            .zip(self.counts)
            .filter(|&(_, n)| n > 0)
            .collect();
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
        Ok(self.report)
    }
}

// ---------------------------------------------------------------------------
// Conversion entry and corpus ingest
// ---------------------------------------------------------------------------

/// Frames, sniffs and converts a mixed-source dump read from `reader`
/// under explicit [`RawIngestOptions`] (see the module docs), keeping the
/// first plan of each fingerprint under `seen`'s options: a plan whose
/// fingerprint `seen` already holds is dropped, and every kept plan's
/// fingerprint is added to it. Each batch of at most [`RAW_BATCH`] records
/// hands `on_batch` its kept plans, in dump order, and the number of
/// duplicates it dropped. `on_batch` returns how many of the plans were
/// novel to it, which the report sums into [`RawIngestReport::novel`].
/// `threads` fans out the per-batch conversion; any thread count yields the
/// same batches.
///
/// Only one batch of raw records is in memory at a time, whatever the
/// dump's size. The outer error is a failed read (including a dump that is
/// not UTF-8); the inner one a bad record under the options, or an
/// unwritable quarantine file.
pub fn convert_raw(
    reader: impl BufRead,
    threads: usize,
    options: &RawIngestOptions,
    seen: &mut FingerprintSet,
    mut on_batch: impl FnMut(Vec<UnifiedPlan>, usize) -> usize,
) -> io::Result<Result<RawIngestReport>> {
    let mut framer = Framer::new(reader)?;
    let mut ingest_span = trace::span("convert.ingest", Level::Info, "ingest");
    ingest_span.field("framing", framer.framing.name());
    let mut tally = Tally::new(framer.framing, options);
    let mut builder = NodeBuilder::new(Dbms::PostgreSql);
    let mut batch = Batch::default();
    loop {
        framer.fill(&mut batch)?;
        if batch.records.is_empty() {
            break;
        }
        let metrics = ingest_metrics();
        let mut span = trace::span("convert.ingest", Level::Debug, "batch");
        span.field("records", batch.records.len());
        let outcomes = convert_batch(&batch, threads, &mut builder, seen);
        let (mut plans, mut duplicates) = (Vec::new(), 0);
        for (record, outcome) in batch.records.iter().zip(outcomes) {
            let source = match outcome {
                Outcome::Candidate(source, fp, plan) => {
                    if seen.insert(fp) {
                        plans.push(plan);
                    } else {
                        duplicates += 1;
                    }
                    source
                }
                Outcome::Duplicate(source) => {
                    duplicates += 1;
                    source
                }
                Outcome::Failed(failure) => match tally.skip(record, failure, &batch.text) {
                    Ok(()) => continue,
                    Err(err) => return Ok(Err(err)),
                },
            };
            tally.converted(source);
            metrics.by_source[source_index(source)].inc();
        }
        let converted = plans.len() + duplicates;
        let novel = on_batch(plans, duplicates);
        tally.report.novel += novel;
        metrics.records.add(converted as u64);
        metrics.batches.inc();
        metrics.batch_records.record(batch.records.len() as u64);
        span.field("converted", converted);
        span.field("skipped", batch.records.len() - converted);
        span.field("duplicates", duplicates);
        span.field("novel", novel);
    }
    ingest_span.field("bytes", framer.bytes);
    let report = tally.finish();
    if let Ok(report) = &report {
        ingest_span.field("lines", report.lines);
        ingest_span.field("novel", report.novel);
        ingest_span.field("errors", report.errors.len());
    }
    Ok(report)
}

/// An in-memory dump reads without I/O errors — a `&str` is UTF-8, and a
/// payload cut inside a character is a frame error — but a read error
/// would still surface as an error, never a panic.
fn read_error(e: io::Error) -> Error {
    Error::Semantic(format!("cannot read the dump: {e}"))
}

/// [`convert_raw`] of an in-memory dump on the calling thread, keeping the
/// first plan of each fingerprint under `fingerprints`: the plans a fresh
/// corpus with those options would store, in its order, without building
/// one ([`RawIngestReport::novel`] counts them). For request-sized dumps.
pub fn convert_raw_distinct(
    dump: &str,
    options: &RawIngestOptions,
    fingerprints: FingerprintOptions,
) -> Result<(Vec<UnifiedPlan>, RawIngestReport)> {
    let mut seen = FingerprintSet::with_options(fingerprints);
    let mut distinct = Vec::new();
    let report = convert_raw(dump.as_bytes(), 1, options, &mut seen, |plans, _| {
        let novel = plans.len();
        distinct.extend(plans);
        novel
    })
    .map_err(read_error)??;
    Ok((distinct, report))
}

/// Streams an in-memory mixed-source dump into `corpus` under explicit
/// [`RawIngestOptions`]: [`convert_raw`] under the corpus's fingerprint
/// options, with every batch's first-of-fingerprint plans handed to
/// [`PlanCorpus::ingest_parallel`] and its dropped duplicates counted as
/// observed. `threads` fans out both the per-batch conversion and the
/// sharded ingest; any thread count produces a byte-identical corpus — and
/// in lenient mode, a corpus byte-identical to sequentially ingesting only
/// the valid records.
pub fn ingest_raw_with(
    dump: &str,
    corpus: &mut PlanCorpus,
    threads: usize,
    options: &RawIngestOptions,
) -> Result<RawIngestReport> {
    let mut seen = FingerprintSet::with_options(corpus.options());
    convert_raw(
        dump.as_bytes(),
        threads,
        options,
        &mut seen,
        |plans, duplicates| {
            corpus.observe_duplicates(duplicates);
            corpus.ingest_parallel(&plans, threads)
        },
    )
    .map_err(read_error)?
}

/// [`ingest_raw_with`] under the default (strict) options.
pub fn ingest_raw(dump: &str, corpus: &mut PlanCorpus, threads: usize) -> Result<RawIngestReport> {
    ingest_raw_with(dump, corpus, threads, &RawIngestOptions::default())
}

/// The sequential per-source reference path: frame, classify, convert and
/// observe each record in order — no batching, no worker threads.
/// [`ingest_raw_with`] is contractually byte-identical to this under the
/// same options (the CI raw-ingest gate compares the two corpora with
/// `cmp`).
pub fn ingest_raw_sequential_with(
    dump: &str,
    corpus: &mut PlanCorpus,
    options: &RawIngestOptions,
) -> Result<RawIngestReport> {
    let mut framer = Framer::new(dump.as_bytes()).map_err(read_error)?;
    let mut tally = Tally::new(framer.framing, options);
    let mut builder = NodeBuilder::new(Dbms::PostgreSql);
    let mut text = String::new();
    while let Some(record) = framer.next_record(&mut text).map_err(read_error)? {
        match convert_record(&text, &record, &mut builder) {
            Ok((source, plan)) => {
                tally.converted(source);
                tally.report.novel += usize::from(corpus.observe(&plan));
            }
            Err(failure) => tally.skip(&record, failure, &text)?,
        }
        text.clear();
    }
    tally.finish()
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

    /// A fingerprint set that tells `Seq Scan`s of different relations
    /// apart, so a dump of them keeps every plan.
    fn value_sensitive() -> FingerprintSet {
        FingerprintSet::with_options(FingerprintOptions {
            include_configuration_values: true,
            ..FingerprintOptions::default()
        })
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
        let mut seen = value_sensitive();
        let options = RawIngestOptions::default();
        let report = convert_raw(dump.as_bytes(), 2, &options, &mut seen, |plans, _| {
            sizes.push(plans.len());
            streamed.extend(plans);
            0
        })
        .unwrap()
        .unwrap();
        assert_eq!(sizes, [RAW_BATCH, 1]);
        assert_eq!(report.lines, RAW_BATCH + 1);
        let one_by_one: Vec<UnifiedPlan> = records
            .iter()
            .map(|record| crate::convert(Source::PostgresJson, record).unwrap())
            .collect();
        assert_eq!(streamed, one_by_one);
    }

    /// A reader over `bytes` that counts what it has handed out.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        read: &'a std::cell::Cell<usize>,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.bytes.read(buf)?;
            self.read.set(self.read.get() + n);
            Ok(n)
        }
    }

    #[test]
    fn read_ahead_stays_within_one_batch_of_the_delivered_records() {
        // Batches of raw text a run may have read beyond the records it has
        // delivered: the one being framed, nothing more.
        const READ_AHEAD_BATCHES: usize = 1;
        let records: Vec<String> = (0..16 * RAW_BATCH)
            .map(|i| {
                format!(r#"[{{"Plan": {{"Node Type": "Seq Scan", "Relation Name": "t{i:06}"}}}}]"#)
            })
            .collect();
        let record_bytes = records[0].len() + 1;
        assert!(records.iter().all(|r| r.len() + 1 == record_bytes));
        let dump = records.join("\n") + "\n";
        let read = std::cell::Cell::new(0);
        let reader = io::BufReader::new(CountingReader {
            bytes: dump.as_bytes(),
            read: &read,
        });
        let mut delivered = 0;
        let mut seen = value_sensitive();
        let options = RawIngestOptions::default();
        let report = convert_raw(reader, 2, &options, &mut seen, |plans, _| {
            delivered += plans.len();
            let bound = (delivered + READ_AHEAD_BATCHES * RAW_BATCH) * record_bytes;
            assert!(
                read.get() <= bound,
                "read {} bytes with {delivered} records delivered (bound {bound})",
                read.get()
            );
            0
        })
        .unwrap()
        .unwrap();
        assert_eq!((report.lines, delivered), (records.len(), records.len()));
        assert_eq!(read.get(), dump.len());
    }

    /// Everything a lenient run over `reader` produces: the first plan of
    /// each fingerprint, the report and the quarantine file's bytes.
    fn lenient_run(
        reader: impl BufRead,
        quarantine: &std::path::Path,
    ) -> (Vec<UnifiedPlan>, RawIngestReport, Vec<u8>) {
        let options = RawIngestOptions {
            quarantine: Some(quarantine.to_owned()),
            ..RawIngestOptions::lenient()
        };
        let mut plans = Vec::new();
        let mut seen = FingerprintSet::new();
        let report = convert_raw(reader, 2, &options, &mut seen, |batch, _| {
            let novel = batch.len();
            plans.extend(batch);
            novel
        })
        .unwrap()
        .unwrap();
        (plans, report, std::fs::read(quarantine).unwrap())
    }

    #[test]
    fn every_reader_boundary_frames_like_the_in_memory_dump() {
        let jsonl = mixed_dump();
        let separated = format!("---\n{TIDB_DUMP}---\n{INFLUX_DUMP}\n---\n{TIDB_DUMP}");
        let prefixed = format!(
            "#{}\n{}#{}\n{}\n#{}\n{}",
            TIDB_DUMP.len(),
            TIDB_DUMP,
            INFLUX_DUMP.len(),
            INFLUX_DUMP,
            PG_JSON.len(),
            PG_JSON,
        );
        let overrun = format!(
            "#{}\n{}#nonsense\n#999999\ntruncated",
            TIDB_DUMP.len(),
            TIDB_DUMP
        );
        let dumps = [
            (jsonl.clone(), "", 4),
            (jsonl.replace('\n', "\r\n"), "", 4),
            (format!("\n  \n{jsonl}"), "", 4),
            (separated.clone(), "", 3),
            (format!("\n\n{separated}"), "", 3),
            (prefixed.clone(), "", 3),
            (format!("\n \n{prefixed}"), "", 3),
            (overrun, "record length 999999 overruns the dump", 1),
            ("#99999999999\n{}".to_owned(), "overruns the dump", 0),
            (
                format!("#1\n\u{e9}{PG_JSON}"),
                "splits a UTF-8 character",
                0,
            ),
        ];
        let path = |tag: &str| {
            std::env::temp_dir().join(format!("uplan_raw_boundary_{tag}_{}", std::process::id()))
        };
        for (dump, frame_error, lines) in dumps {
            let whole = lenient_run(dump.as_bytes(), &path("whole"));
            assert_eq!(whole.1.lines, lines, "{dump:?}");
            assert_eq!(whole.0.len(), whole.1.novel, "{dump:?}");
            if !frame_error.is_empty() {
                assert!(
                    whole
                        .1
                        .errors
                        .iter()
                        .any(|e| e.message.contains(frame_error)),
                    "{dump:?}: {:?}",
                    whole.1.errors
                );
            }
            // The in-memory `&str` entries see the same dump.
            let options = RawIngestOptions::lenient();
            let (_, distinct) = convert_raw_distinct(&dump, &options, Default::default()).unwrap();
            assert_eq!(
                (distinct.lines, &distinct.per_source, &distinct.errors),
                (lines, &whole.1.per_source, &whole.1.errors)
            );
            for capacity in 1..=7 {
                let reader = io::BufReader::with_capacity(capacity, dump.as_bytes());
                let run = lenient_run(reader, &path("boundary"));
                assert_eq!(run, whole, "{dump:?} read {capacity} bytes at a time");
                assert_eq!(run.1.census(), whole.1.census());
            }
        }
        std::fs::remove_file(path("whole")).ok();
        std::fs::remove_file(path("boundary")).ok();
    }

    #[test]
    fn failures_surface_in_dump_order() {
        // Line 1 sniffs as PostgreSQL JSON but fails to convert; line 2
        // fails to classify. Both paths name line 1 first at every thread
        // count, strict and lenient.
        let dump = "[{\"Plan\": {\"Node Type\": \ngarbage here\n";
        let mut corpus = PlanCorpus::new();
        let sequential = ingest_raw_sequential(dump, &mut corpus).unwrap_err();
        assert!(sequential
            .to_string()
            .contains("line 1: postgres-json plan"));
        let capped = RawIngestOptions {
            max_errors: 1,
            ..RawIngestOptions::lenient()
        };
        let capped_sequential = ingest_raw_sequential_with(dump, &mut corpus, &capped).unwrap_err();
        assert!(capped_sequential.to_string().contains("first: line 1:"));
        for threads in [1, 2, 4] {
            let strict = ingest_raw(dump, &mut corpus, threads).unwrap_err();
            assert_eq!(strict, sequential, "{threads} threads");
            let capped = ingest_raw_with(dump, &mut corpus, threads, &capped).unwrap_err();
            assert_eq!(capped, capped_sequential, "{threads} threads");
        }
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
