//! `repro corpus` — manage persistent plan corpora from the command line.
//!
//! Every corpus lives in an append-only segment-store directory (see
//! `uplan_corpus::segment`): every verb that writes a corpus writes or
//! appends to a store, and every verb that reads one opens a store lazily.
//! Legacy monolithic `UPLN` documents and JSON-lines files convert with
//! `import`; the reading verbs refuse them (exit 2) and say so.
//!
//! ```text
//! repro corpus ingest <store-dir> <source> <explain-file>... [--threads N]
//! repro corpus ingest <store-dir> --raw <dump>... [--threads N]
//!                     [--lenient] [--max-errors N] [--quarantine <file>]
//!     Convert native EXPLAIN files (any of the converter dialects, see
//!     `repro corpus sources`) and append the distinct plans to the store
//!     as one new segment, creating the store (with the default shard
//!     count) when `<store-dir>` is not one yet. Cost is O(batch): the
//!     existing segments are never rewritten. `--threads` fans ingest out
//!     across scoped worker threads (the written segment is byte-identical
//!     for every thread count).
//!     With `--raw`, the files are mixed-source dumps instead (JSON-lines,
//!     `---`-separator-framed or `#<bytes>` length-prefixed; framing is
//!     sniffed per file). Each dump streams from disk, one batch of
//!     records at a time; each record is source-sniffed via the converter
//!     registry and converted batch-wise, with no staging corpus: the
//!     first plan of each fingerprint across all dumps is kept, in dump
//!     order, and the kept plans are appended as one segment.
//!     `--lenient` skips bad records instead of aborting and prints the
//!     per-record error census; `--max-errors` bounds the tolerated
//!     garbage per dump; `--quarantine` writes every failed record of the
//!     run, in dump order, to a replayable JSONL file. `--max-errors` and
//!     `--quarantine` need `--lenient`, and `--lenient` needs `--raw`; any
//!     other combination exits 2 before a dump is read. `--segmented` is
//!     still accepted and selects nothing: every ingest writes a store.
//! repro corpus import <file> <store-dir> [--salvage]
//!     The one verb that reads legacy corpus files: a monolithic binary
//!     (`UPLN` v1–v4) document or a JSON-lines file becomes a new store.
//!     Strict by default. `--salvage` recovers what a damaged file still
//!     holds — the longest CRC-verified prefix of a v3+ document, the
//!     decodable prefix of older versions, or the parseable lines of a
//!     JSONL file — prints `salvaged R of D plans` plus what was dropped
//!     and why, and imports the survivors (re-indexed). Exits 2 when
//!     nothing could be recovered.
//! repro corpus raw-fixture <out.jsonl> [queries] [--dirty N] [--seed HEX]
//!     Write a deterministic mixed-source raw dump covering all nine
//!     dialects ([queries] TPC-H-lite queries per relational engine,
//!     default 6) — the input of the CI raw-ingest gate. `--dirty N`
//!     injects N seeded garbage lines (the CI lenient-ingest gate's
//!     input), printing exactly which lines are garbage.
//! repro corpus raw-check <dump.jsonl> [--lenient]
//!     Assert that 4-thread batched raw ingest of the dump produces a
//!     corpus byte-identical (as segment bytes) to sequential per-source
//!     conversion, with identical stats; prints both censuses. With
//!     `--lenient`, also asserts that lenient ingest of a dirty dump is
//!     byte-identical to strict ingest of its valid lines alone. Exits
//!     non-zero on any divergence.
//! repro corpus salvage <store-dir> [--out <store-dir>]
//!     Recover what a damaged store still holds, per segment: every
//!     segment that parses, CRC-verifies and decodes whole is recovered in
//!     full, damaged segments drop whole, and a missing manifest is rebuilt
//!     from the per-segment symbol deltas (a damaged symbol-carrying
//!     segment then also drops the later segments that need its symbols).
//!     Prints `salvaged R of D plans` plus what was dropped and why;
//!     `--out` writes the recovered corpus (re-indexed) as a new store.
//!     Exits 2 when nothing could be recovered.
//! repro corpus compact <store-dir>
//!     Merge every segment of a store into one (fresh symbol chain, fresh
//!     feature summaries), deleting the old segment files after the
//!     manifest swaps. Read-amplification maintenance for stores grown by
//!     many small appends.
//! repro corpus mutate <store-dir> <out-dir> --op <truncate|bitflip|delete> [--seed HEX]
//!     Copy a store and apply one seeded, reproducible fault to one of its
//!     files — the generator behind the CI fault-injection smoke step.
//!     Prints the fault and the exact `expect-recoverable: N of M plans` a
//!     salvage of the copy must report.
//! repro corpus fixture-ingest <store-dir> [count] [--threads N] [--seed HEX] [--batches N]
//!     Ingest the seeded TPC-H-derived benchmark stream (the corpus/*
//!     bench population, default 10000 plans) into a fresh store, split
//!     into `--batches` appended segments (default 1); an existing store
//!     at `<store-dir>` is cleared first. The CI determinism gate:
//!     everything it prints except the trailing `wrote …` line, and every
//!     file of the store, is identical for every `--threads` value.
//! repro corpus campaign <store-dir> [profile] [queries] [radius]
//!     Run a QPG campaign on an embedded engine profile (postgres, mysql,
//!     tidb, sqlite) and persist every distinct observed plan as a new
//!     store.
//! repro corpus stats <store-dir>
//!     Corpus statistics from the manifest (zero plan decodes), how the
//!     metric index came to be (`persisted (0 TED evaluations on load)`),
//!     and the per-segment census: plans and on-disk bytes per section
//!     (plan blocks vs symbols vs BK index vs feature rows vs offset and
//!     fingerprint tables). Stores carry the distinct plan set only;
//!     observed/duplicate counters are session-local and are printed by
//!     ingest/campaign at observation time.
//! repro corpus cluster <store-dir> [radius] [--dot]
//!     Near-duplicate clusters at a TED radius (default 2), rendered as a
//!     text report or Graphviz DOT.
//! repro corpus diff <left-dir> <right-dir> [radius]
//!     Cross-corpus comparison: shared fingerprints, unique plans, and
//!     which unique plans have no near-duplicate (within radius, default 2)
//!     on the other side.
//! repro corpus query <store-dir> <knn|radius|cluster|stats> [--k N] [--radius R]
//!                    [--probe <plan.json>] [--probe-raw <record>]
//!                    [--mode exact|approx] [--candidates N] [--budget N] [--json]
//!     Run one query through the unified request vocabulary — the same
//!     entry point `uplan-serve` answers over HTTP, on the calling
//!     thread. `--probe` reads a
//!     unified-JSON plan, `--probe-raw` a single raw dump record
//!     (source-sniffed). `--budget` bounds counted TED evaluations; a
//!     tripped budget is an *operational* failure (exit 1), distinct from
//!     bad arguments (exit 2). `--json` emits the exact `QueryResponse`
//!     wire document the server sends.
//! repro corpus recall <store-dir> [--k N] [--candidates N] [--probes N]
//!                     [--min-recall F] [--min-full-eval-ratio F]
//!     The approximate-query quality gate: recall of approx k-NN against
//!     exact k-NN and the full-TED-evaluation ratio it buys, over seeded
//!     probes (at least one). Exits 1 below either floor.
//! repro corpus open-gate <store-dir> [--k N] [--probes N] [--min-speedup F]
//!     The lazy-load contract, measured: times open-and-first-query on the
//!     store against an eager load of the same store (every plan decoded
//!     before the first query), asserts that every recall-gate probe
//!     answers with an identical `QueryResponse` — matches *and*
//!     `QueryCost`, exact and approximate — on the lazy store and on a
//!     one-shot ingest of the same plans into a fresh corpus, and exits 1
//!     when the measured speedup falls below the floor (default 5x). The
//!     corpus-scale CI job drives this at the 100k-observation fixture
//!     size.
//! repro corpus serve <store-dir> [--addr HOST:PORT] [--threads N] [--queue N]
//!                    [--merge-threads N] [--merge-interval-ms N]
//!                    [--slow-query-us N] [--slow-query-evals N]
//!     Serve the store over HTTP/1.1 + JSON on a snapshot/delta epoch
//!     model: lock-free k-NN/radius reads against epoch-consistent
//!     snapshots while POST /ingest batches merge in the background. The
//!     store opens lazily and every epoch merge appends one segment, so
//!     the directory is always current. Blocks until POST /shutdown, then
//!     drains gracefully and prints the per-endpoint latency histograms.
//! repro corpus sources
//!     List the accepted ingest source names.
//! ```

use minidb::profile::EngineProfile;
use std::collections::HashSet;
use std::io::BufReader;
use uplan_convert::{convert, RawIngestOptions, Source};
use uplan_core::fingerprint::{fingerprint_with, FingerprintOptions};
use uplan_corpus::{
    encode_segment, AppendReport, PlanCorpus, QueryError, QueryOutcome, QueryRequest, SegmentStore,
};
use uplan_testing::generator::Generator;
use uplan_testing::inject;
use uplan_testing::qpg::{self, QpgConfig};
use uplan_viz::cluster::ClusterView;

/// A CLI failure, split by whose fault it is — and therefore by exit
/// code: **2** for bad input (unusable arguments, unparseable or
/// unrecoverable files), **1** for operational failures (the environment
/// refused a read/write the input said nothing wrong about). Scripts
/// branch on the distinction: retry operational failures, fix inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The user's arguments or input files are at fault → exit 2.
    Input(String),
    /// The environment failed (I/O, permissions) → exit 1.
    Operational(String),
}

impl CliError {
    /// The process exit code this failure maps to.
    pub fn code(&self) -> i32 {
        match self {
            CliError::Input(_) => 2,
            CliError::Operational(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Input(message) | CliError::Operational(message) => f.write_str(message),
        }
    }
}

// Bare string errors are argument/usage complaints — the common case.
impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Input(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::Input(message.to_owned())
    }
}

/// Entry point; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    match run_inner(args) {
        Ok(report) => crate::print_report(&report, 0),
        Err(error) => {
            eprintln!("{error}");
            error.code()
        }
    }
}

fn usage() -> String {
    "usage: repro corpus <ingest|import|raw-fixture|raw-check|fixture-ingest|campaign|stats|\
     cluster|diff|query|recall|open-gate|serve|salvage|mutate|compact|sources> ... \
     (see crates/bench/src/corpus_cli.rs docs)"
        .to_owned()
}

fn run_inner(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("ingest") => ingest(&args[1..]),
        Some("import") => import(&args[1..]),
        Some("raw-fixture") => raw_fixture(&args[1..]),
        Some("raw-check") => raw_check(&args[1..]),
        Some("fixture-ingest") => fixture_ingest(&args[1..]),
        Some("campaign") => campaign(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("cluster") => cluster(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("recall") => recall(&args[1..]),
        Some("open-gate") => open_gate(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("salvage") => salvage(&args[1..]),
        Some("mutate") => mutate(&args[1..]),
        Some("compact") => compact(&args[1..]),
        Some("sources") => Ok(Source::ALL
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join("\n")),
        _ => Err(usage().into()),
    }
}

/// Removes `--name` from `args`; `true` when it was present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// Removes `--name <value>` from `args`, returning the parsed value.
fn take_value<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    let raw = args.remove(at + 1);
    args.remove(at);
    raw.parse()
        .map(Some)
        .map_err(|_| format!("bad {name} value {raw:?}"))
}

/// The positional arguments left once every known flag was taken: a
/// leftover `--flag` is one this verb does not accept (exit 2), not a
/// file name.
fn positionals(args: Vec<String>) -> Result<Vec<String>, CliError> {
    match args.iter().find(|a| a.starts_with("--")) {
        Some(flag) => Err(format!("unknown flag {flag}").into()),
        None => Ok(args),
    }
}

fn parse_seed(args: &mut Vec<String>, default: u64) -> Result<u64, CliError> {
    match take_value::<String>(args, "--seed")? {
        Some(hex) => u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|_| format!("bad --seed value {hex:?}").into()),
        None => Ok(default),
    }
}

/// Appends one batch to the segment store at `dir`, creating the store
/// (with the default shard count) first when the directory is not one yet.
/// Cost is O(batch): one new segment file plus a manifest rewrite — the
/// existing segments are never touched.
fn append_batch(
    dir: &str,
    plans: &[uplan_core::UnifiedPlan],
    threads: usize,
) -> Result<(SegmentStore, AppendReport), CliError> {
    let mut store = if SegmentStore::is_store_dir(dir) {
        SegmentStore::open(dir)
            .map_err(|e| CliError::Input(format!("cannot open segment store {dir}: {e}")))?
    } else {
        new_store(dir, PlanCorpus::new())?
    };
    let report = store
        .append(plans, threads)
        .map_err(|e| CliError::Operational(format!("cannot append to {dir}: {e}")))?;
    Ok((store, report))
}

/// Creates a store at `dir` holding `corpus`. An existing store there is
/// the arguments' fault (exit 2) — it is never overwritten; failing to
/// write a directory the arguments merely *name* is the environment's
/// (exit 1).
fn new_store(dir: &str, corpus: PlanCorpus) -> Result<SegmentStore, CliError> {
    if SegmentStore::is_store_dir(dir) {
        return Err(format!("{dir} already holds a segment store").into());
    }
    SegmentStore::create(dir, corpus)
        .map_err(|e| CliError::Operational(format!("cannot create segment store {dir}: {e}")))
}

/// The report block an ingest prints after its session summary.
fn append_summary(dir: &str, store: &SegmentStore, report: &AppendReport) -> String {
    let segment = match report.segment_id {
        Some(id) => format!("segment {id} ({} bytes)", report.segment_bytes),
        None => "no segment (batch was all duplicates)".to_owned(),
    };
    format!(
        "appended {segment}: {} of {} plan(s) admitted, {} duplicate(s)\n{}\n\
         wrote {dir} ({} segment(s))",
        report.admitted,
        report.observed,
        report.duplicates,
        summary(store.corpus()),
        store.census().len()
    )
}

/// Opens the store a reading verb names. A missing path is operational
/// (exit 1), like any unreadable input; a legacy corpus file is bad input
/// (exit 2) with a pointer to `import`, like any other existing path that
/// is not a store.
fn open_store(path: &str) -> Result<SegmentStore, CliError> {
    if SegmentStore::is_store_dir(path) {
        return SegmentStore::open(path)
            .map_err(|e| CliError::Input(format!("cannot load corpus {path}: {e}")));
    }
    let path_ref = std::path::Path::new(path);
    if !path_ref.exists() {
        return Err(CliError::Operational(format!(
            "cannot load corpus {path}: no such file or directory"
        )));
    }
    Err(CliError::Input(if path_ref.is_file() {
        format!(
            "{path} is a legacy corpus file, not a segment store; convert it with \
             `repro corpus import {path} <store-dir>`"
        )
    } else {
        format!("{path} is not a segment store directory")
    }))
}

/// A store's corpus, lazily opened: manifest and index sections decode
/// eagerly, plan payloads stay on disk until a query touches them.
fn load(path: &str) -> Result<PlanCorpus, CliError> {
    open_store(path).map(SegmentStore::into_corpus)
}

/// Durable facts about a corpus — what a stored file can actually answer.
fn summary(corpus: &PlanCorpus) -> String {
    let stats = corpus.stats();
    format!(
        "{} distinct plans, {} operations, max depth {}",
        stats.distinct, stats.operations, stats.max_depth
    )
}

/// Session-only dedup counters: persistence stores the distinct set, so
/// these are reported at observation time and not by `stats` on a reloaded
/// store.
fn session_line(observed: u64, duplicates: u64) -> String {
    format!("observed {observed} plans this run ({duplicates} fingerprint duplicates)")
}

const INGEST_USAGE: &str = "usage: repro corpus ingest <store-dir> <source> <explain-file>... \
     [--threads N], or repro corpus ingest <store-dir> --raw <dump>... [--threads N] \
     [--lenient] [--max-errors N] [--quarantine <file>]";

fn ingest(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let threads: usize = take_value(&mut args, "--threads")?.unwrap_or(1);
    let raw = take_flag(&mut args, "--raw");
    // Selects nothing (every ingest writes a store), but stays accepted:
    // the benchmark's `perfbench/` ingest workload still passes it.
    take_flag(&mut args, "--segmented");
    let lenient = take_flag(&mut args, "--lenient");
    let max_errors: Option<usize> = take_value(&mut args, "--max-errors")?;
    let quarantine: Option<String> = take_value(&mut args, "--quarantine")?;
    let args = positionals(args)?;
    if (max_errors.is_some() || quarantine.is_some()) && !lenient || (lenient && !raw) {
        return Err("--max-errors and --quarantine need --lenient, which needs --raw".into());
    }
    if raw {
        let options = RawIngestOptions {
            strict: !lenient,
            max_errors: max_errors.unwrap_or(0),
            quarantine: quarantine.map(std::path::PathBuf::from),
        };
        return ingest_raw_dumps(&args, threads, &options);
    }
    let (out, source_name, files) = match args.as_slice() {
        [out, source, files @ ..] if !files.is_empty() => (out, source, files),
        _ => return Err(INGEST_USAGE.into()),
    };
    let source = Source::parse(source_name)?;
    let mut plans = Vec::with_capacity(files.len());
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Operational(format!("cannot read {file}: {e}")))?;
        plans.push(convert(source, &text).map_err(|e| format!("{file}: {e}"))?);
    }
    let (store, report) = append_batch(out, &plans, threads)?;
    Ok(format!(
        "ingested {} file(s) via {}: {}\n{}",
        files.len(),
        source.name(),
        session_line(report.observed as u64, report.duplicates as u64),
        append_summary(out, &store, &report)
    ))
}

/// `ingest --raw`: mixed-source raw dumps (framing sniffed per file),
/// source-sniffed per record, optionally lenient. Every dump streams
/// through [`uplan_convert::convert_raw`]; the first plan of each
/// fingerprint across the run is kept, in dump order, and the kept plans
/// are appended as one segment.
fn ingest_raw_dumps(
    args: &[String],
    threads: usize,
    options: &RawIngestOptions,
) -> Result<String, CliError> {
    let (out, dumps) = match args {
        [out, dumps @ ..] if !dumps.is_empty() => (out, dumps),
        _ => return Err(INGEST_USAGE.into()),
    };
    let mut seen = HashSet::new();
    let mut distinct = Vec::new();
    let mut lines = 0usize;
    let mut skipped = 0usize;
    let mut quarantined = String::new();
    let quarantine_error = |e: std::io::Error| CliError::Operational(format!("quarantine: {e}"));
    let mut censuses = Vec::new();
    for dump in dumps {
        let read_error =
            |e: std::io::Error| CliError::Operational(format!("cannot read {dump}: {e}"));
        let file = std::fs::File::open(dump).map_err(read_error)?;
        let report = uplan_convert::convert_raw(BufReader::new(file), threads, options, |plans| {
            let before = distinct.len();
            let fingerprints = FingerprintOptions::default();
            let novel = plans
                .iter()
                .filter(|p| seen.insert(fingerprint_with(p, fingerprints)));
            // Clones are compact: converter output carries spare capacity.
            distinct.extend(novel.cloned());
            distinct.len() - before
        })
        .map_err(read_error)?
        .map_err(|e| CliError::Input(format!("{dump}: {e}")))?;
        // Each dump's conversion rewrites the quarantine file with its own
        // records; the run's file holds every dump's.
        if let Some(path) = &options.quarantine {
            quarantined += &std::fs::read_to_string(path).map_err(quarantine_error)?;
        }
        lines += report.lines;
        skipped += report.errors.len();
        censuses.push(format!(
            "{dump} [{}]: {}",
            report.framing.name(),
            report.census()
        ));
        if !report.errors.is_empty() {
            censuses.push(format!(
                "{dump}: skipped {} — {}",
                report.errors.len(),
                report.error_census()
            ));
        }
    }
    if let Some(path) = &options.quarantine {
        std::fs::write(path, quarantined).map_err(quarantine_error)?;
    }
    let lenient_line = if options.strict {
        String::new()
    } else {
        format!("\nlenient: {skipped} record(s) skipped")
    };
    let (store, report) = append_batch(out, &distinct, threads)?;
    Ok(format!(
        "raw-ingested {lines} plan line(s) from {} dump(s){lenient_line}\n{}\n{}\n{}",
        dumps.len(),
        censuses.join("\n"),
        session_line(lines as u64, (lines - distinct.len()) as u64),
        append_summary(out, &store, &report)
    ))
}

/// `repro corpus import`: the one verb that reads legacy corpus files —
/// strictly, or with `--salvage` through the lenient loader — and writes
/// what it read as a new store.
fn import(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let salvage = take_flag(&mut args, "--salvage");
    let [file, out] = positionals(args)?
        .try_into()
        .map_err(|_| CliError::from("usage: repro corpus import <file> <store-dir> [--salvage]"))?;
    if std::path::Path::new(&file).is_dir() {
        return Err(format!("{file} is a directory; import reads legacy corpus files").into());
    }
    std::fs::metadata(&file)
        .map_err(|e| CliError::Operational(format!("cannot read corpus {file}: {e}")))?;
    let mut lines = Vec::new();
    let corpus = if salvage {
        let (corpus, report) =
            PlanCorpus::load_salvage(&file).map_err(|e| CliError::Operational(e.to_string()))?;
        lines.push(format!(
            "salvaged {} of {} plans from {file} ({} dropped, {})",
            report.recovered,
            report.declared,
            report.dropped,
            if report.verified {
                "checksum-verified"
            } else {
                "decodable, not verified"
            }
        ));
        if let Some(error) = &report.error {
            lines.push(format!("stopped at: {error}"));
        }
        if report.recovered == 0 && report.error.is_some() {
            return Err(CliError::Input(lines.join("\n")));
        }
        if report.recovered > 0 {
            lines.push(format!(
                "index: {}",
                if report.index_rebuilt {
                    "rebuilt"
                } else {
                    "persisted"
                }
            ));
        }
        corpus
    } else {
        let corpus = PlanCorpus::load(&file)
            .map_err(|e| CliError::Input(format!("cannot load corpus {file}: {e}")))?;
        lines.push(format!(
            "imported {} plans from {file}; index: {}",
            corpus.len(),
            if corpus.has_persisted_index() {
                "persisted (0 TED evaluations on load)".to_owned()
            } else {
                format!("rebuilt ({} TED evaluations on load)", corpus.index_evals())
            }
        ));
        corpus
    };
    let store = new_store(&out, corpus)?;
    lines.push(summary(store.corpus()));
    lines.push(format!("wrote {out} ({} segment(s))", store.census().len()));
    Ok(lines.join("\n"))
}

/// A deterministic mixed-source raw dump covering all nine dialects: for
/// each of the first `queries` TPC-H-lite queries, one line per relational
/// serialization (PostgreSQL text+JSON, MySQL JSON+table, TiDB table,
/// SQLite EQP, SparkSQL text, SQL Server XML) plus MongoDB, Neo4j and
/// InfluxDB lines from their engines. Text dumps are JSON-string-encoded;
/// JSON documents are compacted to one line.
fn raw_fixture(args: &[String]) -> Result<String, CliError> {
    use uplan_testing::fixtures::{raw_dump_line, DialectFleet};
    let mut args = args.to_vec();
    let dirty: usize = take_value(&mut args, "--dirty")?.unwrap_or(0);
    let seed = parse_seed(&mut args, 0xD127_F1EE)?;
    let args = positionals(args)?;
    let out = args
        .first()
        .ok_or("usage: repro corpus raw-fixture <out.jsonl> [queries] [--dirty N] [--seed HEX]")?;
    let queries: usize = match args.get(1) {
        Some(n) => n.parse().map_err(|_| format!("bad query count {n:?}"))?,
        None => 6,
    };
    let mut fleet = DialectFleet::new();
    let mut lines: Vec<String> = Vec::new();
    for qid in 0..queries {
        // The canonical 11-line block per query: eight relational
        // serializations, then MongoDB, Neo4j and InfluxDB.
        for (source, text) in fleet.relational(qid, qid as u32 * 7 + 3) {
            lines.push(raw_dump_line(source, &text));
        }
        for (source, text) in [
            fleet.mongo(qid),
            fleet.neo4j(qid),
            DialectFleet::influx(qid as u64 + 1, (qid as u64 + 1) * 7),
        ] {
            lines.push(raw_dump_line(source, &text));
        }
    }
    let mut dump = lines.join("\n");
    dump.push('\n');
    let dirty_line = if dirty > 0 {
        let (dirtied, injected) = inject::inject_garbage_lines(&dump, seed, dirty);
        dump = dirtied;
        format!(
            "\ninjected {} garbage line(s) (seed {seed:#x}) at: {}",
            injected.len(),
            injected
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )
    } else {
        String::new()
    };
    std::fs::write(out, &dump)
        .map_err(|e| CliError::Operational(format!("cannot write {out}: {e}")))?;
    Ok(format!(
        "raw-fixture: {} mixed-source plan lines ({} TPC-H-lite queries x 11 serializations)\
         {dirty_line}\nwrote {out}",
        lines.len(),
        queries
    ))
}

/// The raw-ingest gate: batched 4-thread raw ingest must produce a corpus
/// byte-identical to sequential per-source conversion of the same dump —
/// and, with `--lenient`, lenient ingest of a dirty dump must be
/// byte-identical to strict ingest of its valid lines alone.
fn raw_check(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let lenient = take_flag(&mut args, "--lenient");
    let args = positionals(args)?;
    let dump_path = args
        .first()
        .ok_or("usage: repro corpus raw-check <dump.jsonl> [--lenient]")?;
    let dump = std::fs::read_to_string(dump_path)
        .map_err(|e| CliError::Operational(format!("cannot read {dump_path}: {e}")))?;
    let options = if lenient {
        RawIngestOptions::lenient()
    } else {
        RawIngestOptions::default()
    };
    let mut batched = PlanCorpus::new();
    let batched_report = uplan_convert::ingest_raw_with(&dump, &mut batched, 4, &options)
        .map_err(|e| CliError::Input(e.to_string()))?;
    let mut sequential = PlanCorpus::new();
    let sequential_report =
        uplan_convert::ingest_raw_sequential_with(&dump, &mut sequential, &options)
            .map_err(|e| CliError::Input(e.to_string()))?;
    if batched_report != sequential_report {
        return Err(CliError::Input(format!(
            "raw ingest census diverged:\n  batched:    {}\n  sequential: {}",
            batched_report.census(),
            sequential_report.census()
        )));
    }
    if batched.stats() != sequential.stats() {
        return Err(CliError::Input(format!(
            "raw ingest stats diverged:\n  batched:    {}\n  sequential: {}",
            summary(&batched),
            summary(&sequential)
        )));
    }
    let batched_bytes = encode_segment(&batched).map_err(|e| e.to_string())?;
    let sequential_bytes = encode_segment(&sequential).map_err(|e| e.to_string())?;
    if batched_bytes != sequential_bytes {
        return Err("raw ingest corpus bytes diverged from the sequential reference".into());
    }

    // The lenient contract: the corpus must equal strict ingest of only
    // the valid lines (checkable when the dump is line-framed).
    let mut lenient_lines = String::new();
    if lenient {
        lenient_lines = format!(
            "\nlenient: skipped {} record(s) — {}",
            batched_report.errors.len(),
            batched_report.error_census()
        );
        if batched_report.framing == uplan_convert::RawFraming::JsonLines
            && !batched_report.errors.is_empty()
        {
            let bad: std::collections::HashSet<usize> =
                batched_report.errors.iter().map(|e| e.line).collect();
            let mut valid = String::with_capacity(dump.len());
            for (i, line) in dump.lines().enumerate() {
                if !bad.contains(&(i + 1)) {
                    valid.push_str(line);
                    valid.push('\n');
                }
            }
            let mut reference = PlanCorpus::new();
            uplan_convert::ingest_raw(&valid, &mut reference, 4)
                .map_err(|e| CliError::Input(format!("valid subset re-ingest: {e}")))?;
            let reference_bytes = encode_segment(&reference).map_err(|e| e.to_string())?;
            if reference_bytes != batched_bytes {
                return Err(CliError::Input(
                    "lenient ingest diverged from strict ingest of the valid subset".into(),
                ));
            }
            lenient_lines.push_str("\nlenient ingest == strict ingest of the valid subset");
        }
    }
    Ok(format!(
        "{dump_path}: {} line(s) — {}\n{}\n{}\nraw ingest == sequential per-source conversion \
         ({} segment bytes){lenient_lines}",
        batched_report.lines,
        batched_report.census(),
        session_line(batched.observed(), batched.duplicates()),
        summary(&batched),
        batched_bytes.len()
    ))
}

/// The CI gate behind the "deterministic under parallelism" and
/// "index-free load" claims: ingests the seeded TPC-H-derived benchmark
/// stream into a fresh store, split into `--batches` appended segments.
/// Everything printed *except* the final `wrote …` line (which names the
/// thread count) is identical for every `--threads` value, and so is
/// every file of the store — CI diffs both.
fn fixture_ingest(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let threads: usize = take_value(&mut args, "--threads")?.unwrap_or(1);
    let batches: usize = take_value(&mut args, "--batches")?.unwrap_or(1);
    let seed = parse_seed(&mut args, 0x5eed_cafe)?;
    let args = positionals(args)?;
    let out = match args.as_slice() {
        [out] | [out, _] => out.clone(),
        _ => {
            return Err("usage: repro corpus fixture-ingest <store-dir> [count] \
                 [--threads N] [--seed HEX] [--batches N]"
                .into())
        }
    };
    let count: usize = match args.get(1) {
        Some(n) => n.parse().map_err(|_| format!("bad plan count {n:?}"))?,
        None => 10_000,
    };
    let stream = crate::corpus_fixture::derived_stream(count, seed);
    // Always starts fresh: the determinism gate diffs whole directories.
    let path = std::path::Path::new(&out);
    if path.exists() {
        if !SegmentStore::is_store_dir(path) {
            return Err(format!("{out} exists and is not a segment store directory").into());
        }
        std::fs::remove_dir_all(path)
            .map_err(|e| CliError::Operational(format!("cannot clear {out}: {e}")))?;
    }
    let mut store = new_store(&out, PlanCorpus::new())?;
    let chunk = stream.len().div_ceil(batches.max(1)).max(1);
    let mut lines = vec![format!(
        "fixture-ingest: {} TPC-H-derived plans (seed {seed:#x}, {} shards, segmented x{batches})",
        stream.len(),
        store.corpus().shard_count(),
    )];
    for (i, batch) in stream.chunks(chunk).enumerate() {
        let report = store
            .append(batch, threads)
            .map_err(|e| CliError::Operational(format!("cannot append to {out}: {e}")))?;
        let segment = match report.segment_id {
            Some(id) => format!("segment {id}, {} bytes", report.segment_bytes),
            None => "no segment".to_owned(),
        };
        lines.push(format!(
            "batch {i}: {} of {} admitted ({segment})",
            report.admitted, report.observed
        ));
    }
    lines.push(summary(store.corpus()));
    lines.push(format!(
        "BK-index built with {} TED evaluations",
        store.corpus().index_evals()
    ));
    lines.push(format!(
        "wrote {out} ({} segment(s), {threads} thread(s))",
        store.census().len()
    ));
    Ok(lines.join("\n"))
}

/// `repro corpus salvage`: recover what a damaged store still holds. The
/// segment is the recovery unit — damaged segments drop whole, intact
/// ones recover in full.
fn salvage(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let out: Option<String> = take_value(&mut args, "--out")?;
    let args = positionals(args)?;
    let path = args
        .first()
        .ok_or("usage: repro corpus salvage <store-dir> [--out <store-dir>]")?;
    if std::path::Path::new(path).is_file() {
        return Err(format!(
            "{path} is a legacy corpus file; salvage it with \
             `repro corpus import {path} <store-dir> --salvage`"
        )
        .into());
    }
    let (corpus, report) =
        SegmentStore::salvage(path, uplan_core::fingerprint::FingerprintOptions::default())
            .map_err(|e| CliError::Operational(e.to_string()))?;
    let mut lines = vec![format!(
        "salvaged {} of {} plans from {path} ({} dropped; \
         {} of {} segment(s) recovered, manifest {})",
        report.recovered,
        report.declared,
        report.dropped,
        report.segments_recovered,
        report.segments_declared,
        if report.manifest_ok {
            "intact"
        } else {
            "rebuilt from segment deltas"
        }
    )];
    if let Some(error) = &report.error {
        lines.push(format!("stopped at: {error}"));
    }
    if report.recovered > 0 {
        lines.push(format!(
            "index: {}",
            if report.index_rebuilt {
                "rebuilt"
            } else {
                "persisted"
            }
        ));
        lines.push(summary(&corpus));
    }
    if report.recovered == 0 && report.error.is_some() {
        return Err(CliError::Input(lines.join("\n")));
    }
    if let Some(out) = out {
        new_store(&out, corpus)?;
        lines.push(format!("wrote {out}"));
    }
    Ok(lines.join("\n"))
}

/// `repro corpus compact`: merge every segment of a store into one.
fn compact(args: &[String]) -> Result<String, CliError> {
    let args = positionals(args.to_vec())?;
    let path = args
        .first()
        .ok_or("usage: repro corpus compact <store-dir>")?;
    let mut store = open_store(path)?;
    let report = store
        .compact()
        .map_err(|e| CliError::Operational(format!("cannot compact {path}: {e}")))?;
    Ok(format!(
        "compacted {path}: {} segment(s) -> 1, {} -> {} segment bytes\n{}",
        report.segments_before,
        report.bytes_before,
        report.bytes_after,
        summary(store.corpus())
    ))
}

/// `repro corpus mutate`: one seeded fault applied to a copy of a store,
/// with the exact salvage expectation printed for the CI smoke gate to
/// compare against `repro corpus salvage`.
fn mutate(args: &[String]) -> Result<String, CliError> {
    let usage = "usage: repro corpus mutate <store-dir> <out-dir> \
                 --op <truncate|bitflip|delete> [--seed HEX]";
    let mut args = args.to_vec();
    let op: String = take_value(&mut args, "--op")?.ok_or(usage)?;
    let seed = parse_seed(&mut args, 0xFA_017)?;
    let [input, out] = positionals(args)?
        .try_into()
        .map_err(|_| CliError::from(usage))?;
    let planner = match op.as_str() {
        "truncate" => |dir: &std::path::Path, seed| inject::store_truncate_plan(dir, seed),
        "bitflip" => |dir: &std::path::Path, seed| inject::store_bitflip_plan(dir, seed),
        "delete" => |dir: &std::path::Path, _| inject::store_delete_plan(dir),
        other => return Err(format!("unknown --op {other:?}; {usage}").into()),
    };
    let census: Vec<(u32, u64)> = open_store(&input)?
        .census()
        .iter()
        .map(|c| (c.id, c.plans))
        .collect();
    if std::path::Path::new(&out).exists() {
        return Err(format!("{out} already exists").into());
    }
    let dir = std::path::Path::new(&input);
    let faults = planner(dir, seed)
        .map_err(|e| CliError::Operational(format!("cannot read {input}: {e}")))?;
    let fault = &faults[(seed as usize) % faults.len()];
    let expected = inject::expected_store_recovery(&census, fault);
    let total: u64 = census.iter().map(|(_, plans)| plans).sum();
    fault
        .apply_to_copy(dir, std::path::Path::new(&out))
        .map_err(|e| CliError::Operational(format!("cannot write {out}: {e}")))?;
    Ok(format!(
        "mutate: {} (seed {seed:#x})\nexpect-recoverable: {} of {total} plans\nwrote {out}",
        fault.describe(),
        expected.recovered
    ))
}

fn parse_profile(name: &str) -> Result<EngineProfile, String> {
    let lowered = name.to_ascii_lowercase();
    EngineProfile::ALL
        .into_iter()
        // Prefix match on the display name, so "postgres" finds PostgreSQL.
        .find(|p| format!("{p}").to_ascii_lowercase().starts_with(&lowered))
        .ok_or_else(|| {
            format!(
                "unknown profile {name:?}; one of: {}",
                EngineProfile::ALL.map(|p| format!("{p}")).join(", ")
            )
        })
}

fn campaign(args: &[String]) -> Result<String, CliError> {
    let args = positionals(args.to_vec())?;
    let out = args
        .first()
        .ok_or("usage: repro corpus campaign <store-dir> [profile] [queries] [radius]")?;
    let profile = match args.get(1) {
        Some(name) => parse_profile(name)?,
        None => EngineProfile::Postgres,
    };
    let queries: usize = match args.get(2) {
        Some(n) => n.parse().map_err(|_| format!("bad query count {n:?}"))?,
        None => 400,
    };
    let radius: u32 = match args.get(3) {
        Some(r) => r.parse().map_err(|_| format!("bad radius {r:?}"))?,
        None => 0,
    };
    let mut db = minidb::Database::new(profile);
    let mut generator = Generator::new(0xC0FFEE);
    generator.create_schema(&mut db, 3);
    let outcome = qpg::run(
        &mut db,
        &mut generator,
        QpgConfig {
            queries,
            novelty_radius: radius,
            ..QpgConfig::default()
        },
    );
    let report = format!(
        "campaign on {profile}: {} queries, {} mutations, {} oracle failures\n{}\n{}\nwrote {out}",
        outcome.queries,
        outcome.mutations,
        outcome.failures.len(),
        session_line(outcome.corpus.observed(), outcome.corpus.duplicates()),
        summary(&outcome.corpus)
    );
    new_store(out, outcome.corpus)?;
    Ok(report)
}

/// `repro corpus stats`: the corpus summary (from manifest counters —
/// zero plan decodes) plus the per-segment on-disk byte census, section
/// by section.
fn stats(args: &[String]) -> Result<String, CliError> {
    let args = positionals(args.to_vec())?;
    let path = args
        .first()
        .ok_or("usage: repro corpus stats <store-dir>")?;
    let store = open_store(path)?;
    let corpus = store.corpus();
    let index = if corpus.has_persisted_index() {
        "persisted"
    } else {
        "rebuilt"
    };
    let mut lines = vec![
        format!("{path}: {}", summary(corpus)),
        format!(
            "index: {index} ({} TED evaluations on load)",
            corpus.index_evals()
        ),
        format!("segments: {}", store.census().len()),
    ];
    let mut total = 0usize;
    for row in store.census() {
        let b = &row.bytes;
        total += b.total;
        lines.push(format!(
            "  segment {:>3}: {:>7} plans, {:>9} bytes \
             (plans {}, symbols {}, index {}, features {}, offsets {}, fingerprints {}, header {})",
            row.id,
            row.plans,
            b.total,
            b.plans,
            b.symbols,
            b.index,
            b.features,
            b.offsets,
            b.fingerprints,
            b.header
        ));
    }
    lines.push(format!(
        "  on disk: {total} segment bytes + {} manifest bytes",
        std::fs::metadata(std::path::Path::new(path).join("manifest.uplm"))
            .map(|m| m.len())
            .unwrap_or(0)
    ));
    Ok(lines.join("\n"))
}

fn cluster(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    // `--dot` may appear anywhere; positionals keep their order around it.
    let dot = take_flag(&mut args, "--dot");
    let args = positionals(args)?;
    let path = args
        .first()
        .ok_or("usage: repro corpus cluster <corpus> [radius] [--dot]")?;
    let radius: u32 = match args.get(1) {
        Some(r) => r.parse().map_err(|_| format!("bad radius {r:?}"))?,
        None => 2,
    };
    let corpus = load(path)?;
    let response = corpus
        .execute(&QueryRequest::cluster(radius))
        .map_err(|e| CliError::Input(e.to_string()))?;
    let QueryOutcome::Clusters(clusters) = &response.outcome else {
        unreachable!("cluster queries answer clusters")
    };
    let views: Vec<ClusterView<'_>> = clusters
        .iter()
        .map(|c| ClusterView {
            label: format!("#{}", c.leader),
            leader: corpus.plan(c.leader),
            size: c.members.len(),
            spread: c.members.iter().map(|&(_, d)| d).max().unwrap_or(0),
        })
        .collect();
    let title = format!("{path} @ radius {radius}");
    Ok(if dot {
        uplan_viz::cluster::render_dot(&views, &title)
    } else {
        uplan_viz::cluster::render_text(&views, &title)
    })
}

fn diff(args: &[String]) -> Result<String, CliError> {
    let args = positionals(args.to_vec())?;
    let (left_path, right_path) = match args.as_slice() {
        [l, r, ..] => (l, r),
        _ => return Err("usage: repro corpus diff <left-dir> <right-dir> [radius]".into()),
    };
    let radius: u32 = match args.get(2) {
        Some(r) => r.parse().map_err(|_| format!("bad radius {r:?}"))?,
        None => 2,
    };
    let left = load(left_path)?;
    let right = load(right_path)?;
    let diff = left.diff(&right, radius);
    Ok(format!(
        "left  {left_path}: {} distinct\nright {right_path}: {} distinct\n\
         shared fingerprints: {}\n\
         only in left:  {} plans ({} beyond TED radius {radius})\n\
         only in right: {} plans ({} beyond TED radius {radius})",
        left.len(),
        right.len(),
        diff.shared,
        diff.fingerprint_only_left.len(),
        diff.beyond_radius_left.len(),
        diff.fingerprint_only_right.len(),
        diff.beyond_radius_right.len(),
        radius = diff.radius,
    ))
}

/// `repro corpus query` — one query through the unified request
/// vocabulary, the same entry point the `uplan-serve` handlers call.
fn query(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let json_out = take_flag(&mut args, "--json");
    let k: Option<usize> = take_value(&mut args, "--k")?;
    let radius: Option<u32> = take_value(&mut args, "--radius")?;
    let budget: Option<u64> = take_value(&mut args, "--budget")?;
    let mode: Option<String> = take_value(&mut args, "--mode")?;
    let candidates: Option<usize> = take_value(&mut args, "--candidates")?;
    let probe_path: Option<String> = take_value(&mut args, "--probe")?;
    let probe_raw_path: Option<String> = take_value(&mut args, "--probe-raw")?;
    let args = positionals(args)?;
    let (path, kind) = match args.as_slice() {
        [path, kind] => (path, kind.as_str()),
        _ => {
            return Err(
                "usage: repro corpus query <store-dir> <knn|radius|cluster|stats> \
                 [--k N] [--radius R] [--probe <plan.json>] [--probe-raw <record>] \
                 [--mode exact|approx] [--candidates N] \
                 [--budget N] [--json]"
                    .into(),
            )
        }
    };
    let corpus = load(path)?;
    let mut request = match kind {
        "knn" => QueryRequest::knn(k.ok_or("knn queries need --k")?),
        "radius" => QueryRequest::radius(radius.ok_or("radius queries need --radius")?),
        "cluster" => QueryRequest::cluster(radius.unwrap_or(2)),
        "stats" => QueryRequest::stats(),
        other => {
            return Err(
                format!("unknown query kind {other:?}; one of knn, radius, cluster, stats").into(),
            )
        }
    };
    if let Some(budget) = budget {
        request = request.with_eval_budget(budget);
    }
    match mode.as_deref() {
        None | Some("exact") => {
            if let Some(n) = candidates {
                return Err(format!("--candidates {n} needs --mode approx").into());
            }
        }
        Some("approx") => request = request.approx(candidates.unwrap_or(0)),
        Some(other) => return Err(format!("unknown --mode {other:?}; one of exact, approx").into()),
    }
    if let Some(file) = &probe_path {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Operational(format!("cannot read probe {file}: {e}")))?;
        let plan = uplan_core::formats::unified::from_json(&text)
            .map_err(|e| CliError::Input(format!("{file}: {e}")))?;
        request = request.with_probe(plan);
    } else if let Some(file) = &probe_raw_path {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Operational(format!("cannot read probe {file}: {e}")))?;
        let (strict, fingerprints) = (RawIngestOptions::default(), Default::default());
        let (plans, _) = uplan_convert::convert_raw_distinct(&text, &strict, fingerprints)
            .map_err(|e| CliError::Input(format!("{file}: {e}")))?;
        let count = plans.len();
        let [plan]: [_; 1] = plans.try_into().map_err(|_| {
            format!("{file}: raw probe must hold exactly one plan record, got {count}")
        })?;
        request = request.with_probe(plan);
    }
    let response = match corpus.execute(&request) {
        Ok(response) => response,
        // A tripped eval budget is the environment (corpus too dense for
        // the budget), not the arguments: exit 1, distinct from exit-2
        // usage errors, so callers can tell "raise the budget" from "fix
        // the request".
        Err(e @ QueryError::BudgetExceeded { .. }) => {
            return Err(CliError::Operational(e.to_string()))
        }
        Err(e) => return Err(CliError::Input(e.to_string())),
    };
    if json_out {
        return Ok(response.to_json());
    }
    let answer = match &response.outcome {
        QueryOutcome::Matches(matches) => {
            let mut lines = vec![format!("{} match(es):", matches.len())];
            lines.extend(
                matches
                    .iter()
                    .map(|&(id, d)| format!("  #{id} @ distance {d}")),
            );
            lines.join("\n")
        }
        QueryOutcome::Clusters(clusters) => format!("{} cluster(s)", clusters.len()),
        QueryOutcome::Stats(_) => summary(&corpus),
    };
    Ok(format!(
        "{path}: {} query\n{answer}\nted_evals: {} ({} exited early, {} candidate(s) considered)",
        response.query,
        response.cost.ted_evals,
        response.cost.partial_evals,
        response.cost.candidates_considered,
    ))
}

/// `repro corpus recall` — the approximate-query quality gate. Runs k-NN
/// probes in both modes over a stored corpus and reports recall (exact
/// neighbor distance multiset recovered) plus the full-TED-evaluation
/// ratio the shortlist bought. Exits 1 (operational, like a tripped eval
/// budget) when either measurement falls below its threshold, so CI can
/// gate on the command directly.
fn recall(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let k: usize = take_value(&mut args, "--k")?.unwrap_or(5);
    let candidates: usize = take_value(&mut args, "--candidates")?.unwrap_or(0);
    let probe_count: usize = take_value(&mut args, "--probes")?.unwrap_or(24);
    let min_recall: f64 = take_value(&mut args, "--min-recall")?.unwrap_or(0.95);
    let min_ratio: f64 = take_value(&mut args, "--min-full-eval-ratio")?.unwrap_or(5.0);
    let args = positionals(args)?;
    let [path] = args.as_slice() else {
        return Err(
            "usage: repro corpus recall <store-dir> [--k N] [--candidates N] [--probes N] \
             [--min-recall F] [--min-full-eval-ratio F]"
                .into(),
        );
    };
    if probe_count == 0 {
        return Err("--probes must be at least 1".into());
    }
    let corpus = load(path)?;
    let probes = crate::corpus_fixture::derived_stream(probe_count, 0x004e_ca11);
    let mut hit = 0usize;
    let mut wanted = 0usize;
    let mut exact_started = 0u64;
    let mut exact_full = 0u64;
    let mut approx_full = 0u64;
    let mut shortlists = 0u64;
    for probe in &probes {
        let exact = corpus
            .execute(&QueryRequest::knn(k).with_probe(probe.clone()))
            .map_err(|e| CliError::Input(e.to_string()))?;
        let approx = corpus
            .execute(
                &QueryRequest::knn(k)
                    .with_probe(probe.clone())
                    .approx(candidates),
            )
            .map_err(|e| CliError::Input(e.to_string()))?;
        let dists = |r: &uplan_corpus::QueryResponse| match &r.outcome {
            QueryOutcome::Matches(m) => m.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
            other => panic!("knn query answered {other:?}"),
        };
        let mut exact_d = dists(&exact);
        wanted += exact_d.len();
        for d in dists(&approx) {
            if let Some(pos) = exact_d.iter().position(|&e| e == d) {
                exact_d.remove(pos);
                hit += 1;
            }
        }
        exact_started += exact.cost.ted_evals;
        exact_full += exact.cost.ted_evals - exact.cost.partial_evals;
        approx_full += approx.cost.ted_evals - approx.cost.partial_evals;
        shortlists += approx.cost.candidates_considered;
    }
    let recall = if wanted == 0 {
        1.0
    } else {
        hit as f64 / wanted as f64
    };
    // The ratio gate compares approx full evaluations against the *started*
    // exact count — what exact answering paid per full dynamic program
    // before the early-exit kernel, and still the kernel-invariant measure
    // of traversal work. (Started counts are identical kernel on/off, so
    // this baseline cannot drift with kernel tuning.)
    let ratio = if approx_full == 0 {
        f64::INFINITY
    } else {
        exact_started as f64 / approx_full as f64
    };
    let report = format!(
        "{path}: approx k-NN vs exact over {} probe(s) (k {k}, mean shortlist {:.0})\n\
         recall: {recall:.4} ({hit}/{wanted} neighbor distances recovered; floor {min_recall})\n\
         TED evals: exact started {exact_started} (ran {exact_full} in full) vs approx \
         {approx_full} full ({ratio:.1}x fewer; floor {min_ratio}x)",
        probes.len(),
        shortlists as f64 / probes.len().max(1) as f64,
    );
    if recall < min_recall || ratio < min_ratio {
        return Err(CliError::Operational(format!(
            "{report}\napprox quality gate FAILED"
        )));
    }
    Ok(report)
}

/// `repro corpus open-gate` — the lazy-load contract, measured. Times
/// open-and-first-query on a segment store against an eager load of the
/// same store (every plan decoded before the first query), asserts every
/// recall-gate probe answers identically (matches *and* [`QueryCost`],
/// exact and approximate k-NN) on the lazy store and on an independent
/// one-shot ingest of the same plans, and fails operationally
/// when the measured speedup misses the floor — so the corpus-scale CI
/// job can gate on the command directly.
///
/// [`QueryCost`]: uplan_corpus::query::QueryCost
fn open_gate(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let k: usize = take_value(&mut args, "--k")?.unwrap_or(5);
    let probe_count: usize = take_value(&mut args, "--probes")?.unwrap_or(24);
    let min_speedup: f64 = take_value(&mut args, "--min-speedup")?.unwrap_or(5.0);
    let args = positionals(args)?;
    let [store_path] = args.as_slice() else {
        return Err(
            "usage: repro corpus open-gate <store-dir> [--k N] [--probes N] [--min-speedup F]"
                .into(),
        );
    };
    if probe_count == 0 {
        return Err("--probes must be at least 1".into());
    }
    let probes = crate::corpus_fixture::derived_stream(probe_count, 0x004e_ca11);
    let first = QueryRequest::knn(k).with_probe(probes[0].clone()).approx(0);
    let query_err = |e: QueryError| CliError::Input(e.to_string());
    // The eager load: the same open, then every plan body decoded — what
    // a reader without lazy decode pays before its first answer.
    let eager_load = || -> Result<PlanCorpus, CliError> {
        let corpus = load(store_path)?;
        for (_, plan) in corpus.iter() {
            std::hint::black_box(plan);
        }
        Ok(corpus)
    };

    // Timed halves, best of three. Both sides read and parse every
    // manifest and index section; only the eager side decodes every plan
    // payload before it can answer anything.
    let mut lazy_secs = f64::INFINITY;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        load(store_path)?.execute(&first).map_err(query_err)?;
        lazy_secs = lazy_secs.min(t.elapsed().as_secs_f64());
    }
    let mut eager_secs = f64::INFINITY;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        eager_load()?.execute(&first).map_err(query_err)?;
        eager_secs = eager_secs.min(t.elapsed().as_secs_f64());
    }
    let speedup = eager_secs / lazy_secs;

    // Identity half: the lazy load must answer the recall-gate probes —
    // exact and approximate — with byte-for-byte the same responses
    // (matches, epoch-free cost counters, everything `QueryResponse`
    // compares) as a reference built independently of the store: the
    // same plans, in global id order, ingested in one shot into a fresh
    // corpus with the same shards and fingerprint options. So the gate
    // also checks that batched appends kept every answer and BK edge a
    // single ingest would have produced.
    let lazy = load(store_path)?;
    let reference = {
        let eager = eager_load()?;
        let plans: Vec<_> = eager.iter().map(|(_, plan)| plan.clone()).collect();
        let mut fresh = PlanCorpus::with_options_and_shards(eager.options(), eager.shard_count());
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        fresh.ingest_parallel(&plans, threads);
        fresh
    };
    let mut answered = 0usize;
    for (i, probe) in probes.iter().enumerate() {
        for request in [
            QueryRequest::knn(k).with_probe(probe.clone()),
            QueryRequest::knn(k).with_probe(probe.clone()).approx(0),
        ] {
            let lazy_response = lazy.execute(&request).map_err(query_err)?;
            let reference_response = reference.execute(&request).map_err(query_err)?;
            if lazy_response != reference_response {
                return Err(CliError::Operational(format!(
                    "probe {i}: lazy and one-shot-ingest answers diverge\n\
                     lazy:      {lazy_response:?}\n\
                     reference: {reference_response:?}"
                )));
            }
            answered += 1;
        }
    }

    let report = format!(
        "{store_path}: open-and-first-query {:.1}ms vs eager decode {:.1}ms \
         ({speedup:.1}x faster; floor {min_speedup}x)\n\
         {answered} response(s) over {} probe(s) (exact + approx k-NN, k {k}): \
         answers and QueryCost identical to a one-shot ingest of the same plans",
        lazy_secs * 1e3,
        eager_secs * 1e3,
        probes.len(),
    );
    if speedup < min_speedup {
        return Err(CliError::Operational(format!(
            "{report}\nlazy open gate FAILED"
        )));
    }
    Ok(report)
}

/// `repro corpus serve` — the corpus daemon over a segment store. Blocks
/// until POST /shutdown.
fn serve(args: &[String]) -> Result<String, CliError> {
    use uplan_serve::{Server, ServerConfig};
    let mut args = args.to_vec();
    let defaults = ServerConfig::default();
    let addr: String = take_value(&mut args, "--addr")?.unwrap_or(defaults.addr);
    let threads: usize = take_value(&mut args, "--threads")?.unwrap_or(defaults.threads);
    let queue_capacity: usize =
        take_value(&mut args, "--queue")?.unwrap_or(defaults.queue_capacity);
    let merge_threads: usize =
        take_value(&mut args, "--merge-threads")?.unwrap_or(defaults.merge_threads);
    let merge_interval_ms: Option<u64> = take_value(&mut args, "--merge-interval-ms")?;
    let slow_query_us: u64 = take_value(&mut args, "--slow-query-us")?.unwrap_or(0);
    let slow_query_evals: u64 = take_value(&mut args, "--slow-query-evals")?.unwrap_or(0);
    let args = positionals(args)?;
    let path = args.first().ok_or(
        "usage: repro corpus serve <store-dir> [--addr HOST:PORT] [--threads N] [--queue N] \
         [--merge-threads N] [--merge-interval-ms N] \
         [--slow-query-us N] [--slow-query-evals N]",
    )?;
    let config = ServerConfig {
        addr,
        threads,
        queue_capacity,
        merge_threads,
        merge_interval: merge_interval_ms
            .map(std::time::Duration::from_millis)
            .unwrap_or(defaults.merge_interval),
        slow_query_us,
        slow_query_evals,
    };
    // The store serves lazily and persistently: the open decodes manifest
    // + index sections only, and every epoch merge appends one segment —
    // the directory is always current.
    let store = open_store(path)?;
    let plans = store.corpus().len();
    let service = uplan_corpus::service::CorpusService::with_store(store, queue_capacity);
    let state = uplan_serve::ServeState::from_service(service, merge_threads);
    let server = Server::bind(config, state)
        .map_err(|e| CliError::Operational(format!("cannot bind the server: {e}")))?;
    let state = server.state();
    let banner = format!(
        "serving {path} ({plans} distinct plans, segment store: merges append segments) \
         at http://{} with {threads} worker(s); POST /shutdown to stop",
        server.local_addr()
    );
    crate::write_stdout(&banner)
        .map_err(|e| CliError::Operational(format!("cannot write to stdout: {e}")))?;
    let snapshot = server
        .run()
        .map_err(|e| CliError::Operational(format!("server failed: {e}")))?;
    Ok(format!(
        "served {} request(s); final epoch {}, {} distinct plans\nmetrics: {}",
        state.metrics().requests(),
        snapshot.epoch(),
        snapshot.corpus().len(),
        state.metrics().to_json_value().to_compact()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use uplan_core::formats::legacy;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Per-process temp path: concurrent test runs (two checkouts, two CI
    /// jobs) must not share fixture files.
    fn temp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    /// Every file of a store directory, by name.
    fn dir_bytes(dir: &str) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect()
    }

    fn remove(paths: &[&String]) {
        for path in paths {
            let path = std::path::Path::new(path.as_str());
            if path.is_dir() {
                std::fs::remove_dir_all(path).ok();
            } else {
                std::fs::remove_file(path).ok();
            }
        }
    }

    const TIDB_PLAN: &str = "\
+-----------------------+---------+-----------+---------------+---------------+
| id                    | estRows | task      | access object | operator info |
+-----------------------+---------+-----------+---------------+---------------+
| TableReader_7         | 5.00    | root      |               |               |
| └─TableFullScan_5     | 100.00  | cop[tikv] | table:t0      |               |
+-----------------------+---------+-----------+---------------+---------------+
";

    #[test]
    fn usage_errors_do_not_panic() {
        assert!(run_inner(&[]).is_err());
        assert!(run_inner(&strings(&["frobnicate"])).is_err());
        assert!(run_inner(&strings(&["ingest", "out"])).is_err());
        assert!(run_inner(&strings(&["ingest", "out", "oracle", "file"])).is_err());
        // A missing store is operational (exit 1) for every reading verb,
        // like any unreadable input.
        for verb in [
            "stats",
            "query",
            "cluster",
            "diff",
            "recall",
            "open-gate",
            "compact",
            "serve",
        ] {
            let mut args = vec![verb, "/definitely/not/here"];
            match verb {
                "diff" => args.push("/definitely/not/here"),
                "query" => args.push("stats"),
                _ => {}
            }
            let err = run_inner(&strings(&args)).unwrap_err();
            assert_eq!(err.code(), 1, "{verb}: {err}");
        }
        assert!(run_inner(&strings(&["campaign", "/no/dir/x", "db2"])).is_err());
        // Retired flags are rejected as unknown, not read as file names.
        for retired in ["--index", "--append", "--shards"] {
            let err = run_inner(&strings(&["ingest", "out", "--raw", "dump", retired]));
            assert_eq!(
                err.unwrap_err().to_string(),
                format!("unknown flag {retired}")
            );
        }
        // Queries run on the calling thread: no verb that queries takes a
        // thread count.
        let thread_counts: [&[&str]; 2] = [
            &["cluster", "/definitely/not/here", "--threads", "2"],
            &["query", "/definitely/not/here", "stats", "--threads", "2"],
        ];
        for args in thread_counts {
            let err = run_inner(&strings(args)).unwrap_err();
            assert_eq!(err.to_string(), "unknown flag --threads", "{args:?}");
        }
    }

    #[test]
    fn ingest_option_combinations_are_checked_before_any_dump_is_read() {
        // A clean dump: the bad combinations must fail before it is read,
        // and must not write a quarantine file or a store.
        let dump = temp("uplan_cli_flags.jsonl");
        run_inner(&strings(&["raw-fixture", &dump, "1"])).unwrap();
        let (out, quarantine) = (temp("uplan_cli_flags"), temp("uplan_cli_flags_q.jsonl"));
        let raw: &[&str] = &["ingest", &out, "--raw", &dump];
        let native: &[&str] = &["ingest", &out, "tidb-table", &dump];
        let q: &[&str] = &["--quarantine", &quarantine];
        let cases: [(&[&str], &[&str]); 6] = [
            (raw, q),
            (raw, &["--max-errors", "5"]),
            (raw, &["--max-errors", "5", "--quarantine", &quarantine]),
            (native, &["--lenient"]),
            (native, &["--lenient", "--quarantine", &quarantine]),
            (native, q),
        ];
        for (form, flags) in cases {
            let args = strings(&[form, flags].concat());
            let err = run_inner(&args).unwrap_err();
            assert_eq!(err.code(), 2, "{args:?}: {err}");
            assert_eq!(
                err.to_string(),
                "--max-errors and --quarantine need --lenient, which needs --raw",
                "{args:?}"
            );
            assert!(!std::path::Path::new(&quarantine).exists(), "{args:?}");
            assert!(!std::path::Path::new(&out).exists(), "{args:?}");
        }
        // With --lenient the same flags are accepted.
        let lenient = strings(&[raw, &["--lenient", "--max-errors", "5"], q].concat());
        run_inner(&lenient).unwrap();
        assert_eq!(std::fs::read_to_string(&quarantine).unwrap(), "");
        remove(&[&dump, &out, &quarantine]);
    }

    #[test]
    fn raw_fixture_writes_identical_files_on_every_run() {
        let (a, b) = (
            temp("uplan_cli_fixture_a.jsonl"),
            temp("uplan_cli_fixture_b.jsonl"),
        );
        let first = run_inner(&strings(&["raw-fixture", &a, "2", "--dirty", "3"])).unwrap();
        let second = run_inner(&strings(&["raw-fixture", &b, "2", "--dirty", "3"])).unwrap();
        assert_eq!(first.replace(&a, &b), second);
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        remove(&[&a, &b]);
    }

    #[test]
    fn sources_lists_all_converters() {
        let listing = run_inner(&strings(&["sources"])).unwrap();
        assert_eq!(listing.lines().count(), Source::ALL.len());
        assert!(listing.contains("postgres-text"));
    }

    #[test]
    fn ingest_stats_cluster_diff_round_trip() {
        // Two tiny explain files through the TiDB table converter.
        let plan_b = TIDB_PLAN.replace("t0", "t1");
        let file_a = temp("uplan_cli_a.explain");
        let file_b = temp("uplan_cli_b.explain");
        std::fs::write(&file_a, TIDB_PLAN).unwrap();
        std::fs::write(&file_b, &plan_b).unwrap();

        let left = temp("uplan_cli_left");
        let report = run_inner(&strings(&[
            "ingest",
            &left,
            "tidb-table",
            &file_a,
            &file_b,
            &file_a,
        ]))
        .unwrap();
        // Same skeleton, different name_object values: structurally equal
        // under default fingerprints → 3 observed, 1 distinct.
        assert!(
            report.contains("observed 3 plans this run (2 fingerprint duplicates)"),
            "{report}"
        );
        assert!(report.contains("1 distinct plans"), "{report}");

        let right = temp("uplan_cli_right");
        run_inner(&strings(&["ingest", &right, "tidb-table", &file_a])).unwrap();

        let stats = run_inner(&strings(&["stats", &left])).unwrap();
        assert!(stats.contains("1 distinct"), "{stats}");

        let clustered = run_inner(&strings(&["cluster", &left, "1"])).unwrap();
        assert!(clustered.contains("1 clusters over 1 plans"), "{clustered}");
        let dot = run_inner(&strings(&["cluster", &left, "--dot"])).unwrap();
        assert!(dot.starts_with("digraph"), "{dot}");
        // Flag-first invocations must still honor the radius argument.
        let dot_first = run_inner(&strings(&["cluster", &left, "--dot", "5"])).unwrap();
        assert!(dot_first.contains("radius 5"), "{dot_first}");
        assert!(run_inner(&strings(&["cluster", &left, "--dot", "nope"])).is_err());

        let diffed = run_inner(&strings(&["diff", &left, &right, "1"])).unwrap();
        assert!(diffed.contains("shared fingerprints: 1"), "{diffed}");

        remove(&[&file_a, &file_b, &left, &right]);
    }

    #[test]
    fn fixture_ingest_is_thread_count_invariant_and_indexed_loads_are_eval_free() {
        let out1 = temp("uplan_cli_fx1");
        let out4 = temp("uplan_cli_fx4");
        let r1 = run_inner(&strings(&[
            "fixture-ingest",
            &out1,
            "300",
            "--threads",
            "1",
        ]))
        .unwrap();
        let r4 = run_inner(&strings(&[
            "fixture-ingest",
            &out4,
            "300",
            "--threads",
            "4",
        ]))
        .unwrap();
        // Every line except the `wrote …` trailer (which names the thread
        // count) is identical — the same invariant the CI corpus-scale job
        // diffs — and so is every written file.
        let strip = |r: &str| {
            r.lines()
                .filter(|l| !l.starts_with("wrote "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&r1), strip(&r4));
        assert_eq!(dir_bytes(&out1), dir_bytes(&out4));

        let stats = run_inner(&strings(&["stats", &out4])).unwrap();
        assert!(
            stats.contains("index: persisted (0 TED evaluations on load)"),
            "{stats}"
        );

        // Flag errors are reported, not panicked.
        assert!(run_inner(&strings(&["fixture-ingest"])).is_err());
        assert!(run_inner(&strings(&["fixture-ingest", &out1, "--threads"])).is_err());
        assert!(run_inner(&strings(&["fixture-ingest", &out1, "--seed", "zz"])).is_err());
        for retired in ["--index", "--segmented", "--shards"] {
            let err = run_inner(&strings(&["fixture-ingest", &out1, retired])).unwrap_err();
            assert_eq!(err.to_string(), format!("unknown flag {retired}"));
        }

        remove(&[&out1, &out4]);
    }

    #[test]
    fn raw_fixture_ingests_identically_batched_and_sequential() {
        let dump = temp("uplan_cli_raw.jsonl");
        let report = run_inner(&strings(&["raw-fixture", &dump, "2"])).unwrap();
        assert!(report.contains("22 mixed-source plan lines"), "{report}");

        // The gate command agrees with itself end to end.
        let checked = run_inner(&strings(&["raw-check", &dump])).unwrap();
        assert!(
            checked.contains("raw ingest == sequential per-source conversion"),
            "{checked}"
        );
        // All nine dialects appear in the census.
        for name in [
            "postgres-text",
            "postgres-json",
            "mysql-json",
            "mysql-table",
            "tidb-table",
            "sqlite-eqp",
            "mongodb-json",
            "neo4j-table",
            "sparksql-text",
            "influxdb-text",
            "sqlserver-xml",
        ] {
            assert!(checked.contains(name), "{name} missing from {checked}");
        }

        // `ingest --raw` writes byte-identical stores for 1 and 4 threads.
        let out1 = temp("uplan_cli_raw_t1");
        let out4 = temp("uplan_cli_raw_t4");
        let r1 = run_inner(&strings(&[
            "ingest",
            &out1,
            "--raw",
            &dump,
            "--threads",
            "1",
        ]))
        .unwrap();
        run_inner(&strings(&[
            "ingest",
            &out4,
            "--raw",
            &dump,
            "--threads",
            "4",
        ]))
        .unwrap();
        assert!(r1.contains("raw-ingested 22 plan line(s)"), "{r1}");
        assert_eq!(dir_bytes(&out1), dir_bytes(&out4));
        let stats = run_inner(&strings(&["stats", &out4])).unwrap();
        assert!(stats.contains("persisted (0 TED evaluations"), "{stats}");

        // Usage errors stay errors.
        assert!(run_inner(&strings(&["ingest", &out1, "--raw"])).is_err());
        assert!(run_inner(&strings(&["raw-check", "/definitely/not/here"])).is_err());

        remove(&[&dump, &out1, &out4]);
    }

    #[test]
    fn salvage_and_mutate_agree_on_exact_expectations() {
        let intact = temp("uplan_cli_slv");
        run_inner(&strings(&[
            "fixture-ingest",
            &intact,
            "400",
            "--batches",
            "2",
        ]))
        .unwrap();

        // An intact store salvages losslessly.
        let report = run_inner(&strings(&["salvage", &intact])).unwrap();
        assert!(report.contains("0 dropped; 2 of 2 segment(s)"), "{report}");
        assert!(report.contains("index: persisted"), "{report}");

        // Every fault op: the salvage outcome matches the printed
        // expectation exactly.
        for (op, seed) in [
            ("truncate", "0x5"),
            ("truncate", "0x2"),
            ("bitflip", "0xB"),
            ("bitflip", "0x51"),
            ("delete", "0x0"),
            ("delete", "0x1"),
        ] {
            let damaged = temp(&format!("uplan_cli_slv_{op}_{seed}"));
            let mutated = run_inner(&strings(&[
                "mutate", &intact, &damaged, "--op", op, "--seed", seed,
            ]))
            .unwrap();
            let expectation = mutated
                .lines()
                .find_map(|l| l.strip_prefix("expect-recoverable: "))
                .unwrap_or_else(|| panic!("no expectation in {mutated}"));
            // "N of M plans" — must reappear verbatim in the salvage
            // report (Ok for N > 0, Input error for N == 0).
            let printed = match run_inner(&strings(&["salvage", &damaged])) {
                Ok(report) => report,
                Err(CliError::Input(message)) => message,
                Err(other) => panic!("{op} seed {seed}: {other}"),
            };
            assert!(
                printed.contains(&format!("salvaged {expectation}")),
                "{op} seed {seed}: expected {expectation:?} in {printed:?}"
            );
            remove(&[&damaged]);
        }

        // `--out` writes the survivors as a new store, never over one.
        let recovered = temp("uplan_cli_slv_out");
        run_inner(&strings(&["salvage", &intact, "--out", &recovered])).unwrap();
        let stats = run_inner(&strings(&["stats", &recovered])).unwrap();
        assert!(stats.contains("segments: 1"), "{stats}");
        let again = run_inner(&strings(&["salvage", &intact, "--out", &recovered])).unwrap_err();
        assert_eq!(again.code(), 2, "{again}");

        // Exit codes: unreadable paths are operational (1), bad
        // arguments and unrecoverable stores are input (2).
        let missing = run_inner(&strings(&["salvage", "/definitely/not/here"])).unwrap_err();
        assert_eq!(missing.code(), 1, "{missing}");
        let usage = run_inner(&strings(&["mutate", &intact])).unwrap_err();
        assert_eq!(usage.code(), 2, "{usage}");
        let bad_op =
            run_inner(&strings(&["mutate", &intact, "/tmp/x", "--op", "scramble"])).unwrap_err();
        assert_eq!(bad_op.code(), 2, "{bad_op}");
        remove(&[&intact, &recovered]);
    }

    /// `import` is the one reader of legacy files: a v4 document and a
    /// JSONL file become stores that answer exactly like the in-RAM legacy
    /// load, and `--salvage` recovers exactly what the mutation geometry
    /// promises.
    #[test]
    fn import_converts_legacy_files_and_salvages_exactly() {
        let corpus = crate::corpus_fixture::derived_corpus(600, 0x1e9a);
        let segment = encode_segment(&corpus).unwrap();
        let v4 = legacy::indexed(&segment);
        let doc = temp("uplan_cli_import.uplanc");
        let jsonl = temp("uplan_cli_import.jsonl");
        std::fs::write(&doc, &v4).unwrap();
        std::fs::write(&jsonl, legacy::jsonl(&segment)).unwrap();

        let probes = crate::corpus_fixture::derived_stream(6, 0x004e_ca11);
        for (file, index) in [(&doc, "persisted (0 TED"), (&jsonl, "rebuilt (")] {
            let store = temp(&format!("uplan_cli_import_{}", file.len()));
            let report = run_inner(&strings(&["import", file, &store])).unwrap();
            assert!(report.contains(&format!("index: {index}")), "{report}");
            let in_ram = PlanCorpus::load(file).unwrap();
            let imported = load(&store).unwrap();
            for probe in &probes {
                for request in [
                    QueryRequest::knn(5).with_probe(probe.clone()),
                    QueryRequest::radius(2).with_probe(probe.clone()),
                ] {
                    assert_eq!(
                        imported.execute(&request).unwrap(),
                        in_ram.execute(&request).unwrap(),
                        "{file}"
                    );
                }
            }
            // A store is never imported over.
            let again = run_inner(&strings(&["import", file, &store])).unwrap_err();
            assert_eq!(again.code(), 2, "{again}");
            remove(&[&store]);
        }

        // Reading verbs refuse legacy files and name the importer.
        for verb in ["stats", "salvage", "open-gate", "serve"] {
            let err = run_inner(&strings(&[verb, &doc])).unwrap_err();
            assert_eq!(err.code(), 2, "{verb}: {err}");
            assert!(
                err.to_string().contains("repro corpus import"),
                "{verb}: {err}"
            );
        }

        // `--salvage` of damaged documents: exactly the promised count.
        let sections = uplan_core::formats::binary::section_map(&v4).unwrap();
        let total = sections.last().unwrap().plans;
        let mut mutations = inject::truncation_plan(&sections);
        mutations.extend(inject::bitflip_past_header(&sections, 0x5eed));
        for (i, mutation) in mutations.iter().enumerate() {
            let expected = inject::expected_recoverable(&sections, mutation).unwrap();
            let damaged = temp(&format!("uplan_cli_import_damaged_{i}.uplanc"));
            let store = temp(&format!("uplan_cli_import_damaged_{i}"));
            let bytes = mutation.apply(&v4);
            std::fs::write(&damaged, &bytes).unwrap();
            let printed = match run_inner(&strings(&["import", &damaged, &store, "--salvage"])) {
                Ok(report) => report,
                Err(CliError::Input(message)) => message,
                Err(other) => panic!("{}: {other}", mutation.describe()),
            };
            assert!(
                printed.contains(&format!("salvaged {expected} of {total} plans")),
                "{}: {printed}",
                mutation.describe()
            );
            // Strict import refuses every damaged file (the plan includes
            // the no-op truncation at the document's full length).
            let strict = temp(&format!("uplan_cli_import_strict_{i}"));
            let imported = run_inner(&strings(&["import", &damaged, &strict]));
            assert_eq!(imported.is_ok(), bytes == v4, "{}", mutation.describe());
            remove(&[&damaged, &store, &strict]);
        }
        remove(&[&doc, &jsonl]);
    }

    #[test]
    fn lenient_raw_ingest_matches_the_valid_subset_end_to_end() {
        let dump = temp("uplan_cli_dirty.jsonl");
        let report = run_inner(&strings(&[
            "raw-fixture",
            &dump,
            "2",
            "--dirty",
            "6",
            "--seed",
            "0x7",
        ]))
        .unwrap();
        assert!(report.contains("injected 6 garbage line(s)"), "{report}");

        // Strict ingest of the dirty dump is a bad-input failure (2)...
        let out = temp("uplan_cli_dirty");
        let strict = run_inner(&strings(&["ingest", &out, "--raw", &dump])).unwrap_err();
        assert_eq!(strict.code(), 2, "{strict}");

        // ...lenient ingest skips exactly the injected lines, quarantines
        // them replayably, and the gate proves valid-subset byte-identity.
        let quarantine = temp("uplan_cli_dirty_q.jsonl");
        let lenient = run_inner(&strings(&[
            "ingest",
            &out,
            "--raw",
            &dump,
            "--lenient",
            "--quarantine",
            &quarantine,
            "--threads",
            "4",
        ]))
        .unwrap();
        assert!(
            lenient.contains("raw-ingested 22 plan line(s)"),
            "{lenient}"
        );
        assert!(
            lenient.contains("lenient: 6 record(s) skipped"),
            "{lenient}"
        );
        assert_eq!(
            std::fs::read_to_string(&quarantine)
                .unwrap()
                .lines()
                .count(),
            6
        );

        let checked = run_inner(&strings(&["raw-check", &dump, "--lenient"])).unwrap();
        assert!(
            checked.contains("lenient ingest == strict ingest of the valid subset"),
            "{checked}"
        );
        // A --max-errors bound below the garbage count aborts.
        let bounded = run_inner(&strings(&[
            "ingest",
            &out,
            "--raw",
            &dump,
            "--lenient",
            "--max-errors",
            "3",
        ]))
        .unwrap_err();
        assert!(bounded.to_string().contains("max-errors 3"), "{bounded}");

        remove(&[&dump, &out, &quarantine]);
    }

    /// The staging-corpus algorithm `ingest --raw` once ran, kept as the
    /// oracle: every dump into one staging corpus, whose plans are then
    /// appended to the store at `dir` (created when it is not one yet).
    fn staged_raw_append(dir: &str, dumps: &[&String], options: &RawIngestOptions) -> AppendReport {
        let mut staging = PlanCorpus::new();
        for dump in dumps {
            let text = std::fs::read_to_string(dump).unwrap();
            uplan_convert::ingest_raw_with(&text, &mut staging, 1, options).unwrap();
        }
        let plans: Vec<uplan_core::UnifiedPlan> =
            staging.iter().map(|(_, plan)| plan.clone()).collect();
        let mut store = if SegmentStore::is_store_dir(dir) {
            SegmentStore::open(dir).unwrap()
        } else {
            SegmentStore::create(dir, PlanCorpus::new()).unwrap()
        };
        store.append(&plans, 1).unwrap()
    }

    /// `ingest --raw` of two dumps that share plans, into a fresh store and
    /// into one that already holds some of them: exact session, append and
    /// lenient lines, and every store file equal to the staging oracle's.
    #[test]
    fn raw_ingest_of_several_dumps_matches_the_staging_oracle() {
        let (d1, d2, d3) = (
            temp("uplan_cli_pin_d1.jsonl"),
            temp("uplan_cli_pin_d2.jsonl"),
            temp("uplan_cli_pin_d3.jsonl"),
        );
        run_inner(&strings(&["raw-fixture", &d1, "1"])).unwrap();
        run_inner(&strings(&["raw-fixture", &d2, "2"])).unwrap();
        run_inner(&strings(&[
            "raw-fixture",
            &d3,
            "3",
            "--dirty",
            "2",
            "--seed",
            "0x9",
        ]))
        .unwrap();
        // Raw fixtures carry measured planning times, so segment sizes
        // come from the oracle's append of the same dumps.
        for (label, held, admitted) in [
            ("fresh", None, "29 of 29 plan(s) admitted, 0 duplicate(s)"),
            (
                "held",
                Some(&d1),
                "18 of 29 plan(s) admitted, 11 duplicate(s)",
            ),
        ] {
            let cli = temp(&format!("uplan_cli_pin_{label}"));
            let oracle = temp(&format!("uplan_cli_pin_{label}_oracle"));
            if let Some(held) = held {
                for dir in [&cli, &oracle] {
                    run_inner(&strings(&["ingest", dir, "--raw", held])).unwrap();
                }
            }
            let report = run_inner(&strings(&[
                "ingest",
                &cli,
                "--raw",
                &d2,
                &d3,
                "--lenient",
                "--threads",
                "2",
            ]))
            .unwrap();
            let lines: Vec<&str> = report.lines().collect();
            assert_eq!(lines[0], "raw-ingested 55 plan line(s) from 2 dump(s)");
            assert_eq!(lines[1], "lenient: 2 record(s) skipped");
            let skipped =
                format!("{d3}: skipped 2 — line 15 (classify), line 22 (tidb-table convert)");
            assert_eq!(lines[4], skipped);
            assert_eq!(
                lines[5],
                "observed 55 plans this run (26 fingerprint duplicates)"
            );
            let staged = staged_raw_append(&oracle, &[&d2, &d3], &RawIngestOptions::lenient());
            let appended = format!(
                "appended segment {} ({} bytes): {admitted}",
                staged.segment_id.unwrap(),
                staged.segment_bytes
            );
            assert_eq!(lines[6], appended, "{label}");
            assert_eq!(lines[7], "29 distinct plans, 288 operations, max depth 14");
            assert_eq!(dir_bytes(&cli), dir_bytes(&oracle), "{label}");
            remove(&[&cli, &oracle]);
        }
        remove(&[&d1, &d2, &d3]);
    }

    /// A lenient run over several dirty dumps quarantines every skipped
    /// record of the run, in dump order, and the file replays to exactly
    /// those failures.
    #[test]
    fn quarantine_holds_every_skipped_record_of_a_multi_dump_run() {
        let (a, b) = (temp("uplan_cli_q_a.jsonl"), temp("uplan_cli_q_b.jsonl"));
        for (dump, dirty, seed) in [(&a, "2", "0x3"), (&b, "3", "0x4")] {
            run_inner(&strings(&[
                "raw-fixture",
                dump,
                "2",
                "--dirty",
                dirty,
                "--seed",
                seed,
            ]))
            .unwrap();
        }
        let out = temp("uplan_cli_q_store");
        let quarantine = temp("uplan_cli_q.jsonl");
        let lenient_ingest = |dumps: &[&String]| {
            remove(&[&out]);
            let mut args = strings(&["ingest", &out, "--raw"]);
            args.extend(dumps.iter().map(|d| d.to_string()));
            args.extend(strings(&["--lenient", "--quarantine", &quarantine]));
            let report = run_inner(&args).unwrap();
            (report, std::fs::read_to_string(&quarantine).unwrap())
        };
        let (report, quarantined) = lenient_ingest(&[&a, &b]);
        assert!(report.contains("lenient: 5 record(s) skipped"), "{report}");
        assert_eq!(quarantined.lines().count(), 5);
        // In dump order: each dump's quarantine, concatenated.
        let (_, of_a) = lenient_ingest(&[&a]);
        let (_, of_b) = lenient_ingest(&[&b]);
        assert_eq!(quarantined, format!("{of_a}{of_b}"));
        std::fs::write(&quarantine, &quarantined).unwrap();

        let replay = temp("uplan_cli_q_replay");
        let replayed = run_inner(&strings(&[
            "ingest",
            &replay,
            "--raw",
            &quarantine,
            "--lenient",
        ]))
        .unwrap();
        assert!(
            replayed.starts_with(
                "raw-ingested 0 plan line(s) from 1 dump(s)\nlenient: 5 record(s) skipped"
            ),
            "{replayed}"
        );
        remove(&[&a, &b, &out, &quarantine, &replay]);
    }

    #[test]
    fn source_parse_errors_name_the_accepted_sources() {
        let err = run_inner(&strings(&["ingest", "out", "oracle", "file"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown source"), "{err}");
        assert!(err.contains("postgres-text"), "{err}");
        // Case-insensitive prefixes resolve when unambiguous...
        assert_eq!(Source::parse("TIDB"), Ok(Source::TidbTable));
        assert_eq!(Source::parse("Mongo"), Ok(Source::MongoJson));
        // ...and ambiguous ones say which candidates matched.
        let err = Source::parse("Postgres").unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
        assert!(err.contains("postgres-text"), "{err}");
        assert!(err.contains("postgres-json"), "{err}");
    }

    #[test]
    fn campaign_writes_a_loadable_corpus() {
        let out = temp("uplan_cli_campaign");
        let report = run_inner(&strings(&["campaign", &out, "postgres", "60", "0"])).unwrap();
        assert!(report.contains("campaign on PostgreSQL"), "{report}");
        let corpus = PlanCorpus::load(&out).unwrap();
        assert!(!corpus.is_empty());
        remove(&[&out]);
    }

    /// The segmented lifecycle end to end: fixture-ingest a batched store
    /// (byte-identical across thread counts), append with `ingest`,
    /// census with `stats`, query lazily, compact, salvage.
    #[test]
    fn segmented_store_lifecycle_through_the_cli() {
        let dir1 = temp("uplan_cli_seg_t1");
        let dir4 = temp("uplan_cli_seg_t4");
        for (dir, threads) in [(&dir1, "1"), (&dir4, "4")] {
            let report = run_inner(&strings(&[
                "fixture-ingest",
                dir,
                "600",
                "--batches",
                "3",
                "--threads",
                threads,
            ]))
            .unwrap();
            assert!(report.contains("segmented x3"), "{report}");
            assert!(report.contains("batch 2:"), "{report}");
        }
        // Everything except the trailing `wrote …` line is thread-count
        // independent, and the directories are byte-identical.
        for name in [
            "manifest.uplm",
            "seg-00000.upls",
            "seg-00001.upls",
            "seg-00002.upls",
        ] {
            let a = std::fs::read(std::path::Path::new(&dir1).join(name)).unwrap();
            let b = std::fs::read(std::path::Path::new(&dir4).join(name)).unwrap();
            assert_eq!(a, b, "{name} diverged between thread counts");
        }

        // stats prints the per-segment byte census.
        let stats = run_inner(&strings(&["stats", &dir1])).unwrap();
        assert!(stats.contains("segments: 3"), "{stats}");
        assert!(stats.contains("segment   0:"), "{stats}");
        assert!(stats.contains("persisted (0 TED evaluations"), "{stats}");
        assert!(stats.contains("on disk:"), "{stats}");

        // Lazy queries answer identically to the in-RAM corpus.
        let mut in_ram = PlanCorpus::new();
        in_ram.ingest_parallel(&crate::corpus_fixture::derived_stream(600, 0x5eed_cafe), 1);
        let probe = crate::corpus_fixture::derived_stream(1, 0x004e_ca11).remove(0);
        let probe_file = temp("uplan_cli_seg_probe.json");
        std::fs::write(&probe_file, uplan_core::formats::unified::to_json(&probe)).unwrap();
        let from_dir = run_inner(&strings(&[
            "query",
            &dir1,
            "knn",
            "--k",
            "5",
            "--probe",
            &probe_file,
            "--json",
        ]))
        .unwrap();
        let from_ram = in_ram
            .execute(&QueryRequest::knn(5).with_probe(probe))
            .unwrap()
            .to_json();
        assert_eq!(from_dir, from_ram, "lazy and in-RAM answers diverged");

        // ingest into the store appends a new segment (no --append needed).
        let explain = temp("uplan_cli_seg.explain");
        std::fs::write(&explain, TIDB_PLAN).unwrap();
        let appended = run_inner(&strings(&["ingest", &dir1, "tidb-table", &explain])).unwrap();
        assert!(appended.contains("appended segment 3"), "{appended}");
        assert!(appended.contains("1 of 1 plan(s) admitted"), "{appended}");
        // Re-ingesting the same file appends nothing.
        let dup = run_inner(&strings(&["ingest", &dir1, "tidb-table", &explain])).unwrap();
        assert!(
            dup.contains("no segment (batch was all duplicates)"),
            "{dup}"
        );

        // Salvage of the intact store is lossless.
        let salvaged = run_inner(&strings(&["salvage", &dir1])).unwrap();
        assert!(salvaged.contains("0 dropped"), "{salvaged}");
        assert!(
            salvaged.contains("4 of 4 segment(s) recovered"),
            "{salvaged}"
        );
        assert!(salvaged.contains("manifest intact"), "{salvaged}");

        // Compaction folds the four segments into one; queries agree.
        let compacted = run_inner(&strings(&["compact", &dir1])).unwrap();
        assert!(compacted.contains("4 segment(s) -> 1"), "{compacted}");
        let stats = run_inner(&strings(&["stats", &dir1])).unwrap();
        assert!(stats.contains("segments: 1"), "{stats}");
        let after = run_inner(&strings(&[
            "query",
            &dir1,
            "knn",
            "--k",
            "5",
            "--probe",
            &probe_file,
            "--json",
        ]))
        .unwrap();
        assert_eq!(after, from_ram, "compaction changed answers");

        // compact rejects non-stores.
        assert!(run_inner(&strings(&["compact", &probe_file])).is_err());

        remove(&[&dir1, &dir4, &probe_file, &explain]);
    }

    /// `open-gate` proves answer/cost identity between the lazy store
    /// (three appended batches) and a one-shot ingest of its plans; the
    /// speedup floor itself is CI's concern (tiny
    /// fixtures cannot honour a 5x decode gap, so the floor is lowered
    /// to exercise the pass path and raised to exercise the failure).
    #[test]
    fn open_gate_checks_identity_and_enforces_the_floor() {
        let dir = temp("uplan_cli_open_gate_store");
        run_inner(&strings(&["fixture-ingest", &dir, "600", "--batches", "3"])).unwrap();

        let report = run_inner(&strings(&[
            "open-gate",
            &dir,
            "--probes",
            "4",
            "--min-speedup",
            "0",
        ]))
        .unwrap();
        assert!(
            report.contains("answers and QueryCost identical to a one-shot ingest"),
            "{report}"
        );
        assert!(report.contains("open-and-first-query"), "{report}");

        // An unreachable floor fails operationally (exit 1), naming the gate.
        let failed = run_inner(&strings(&[
            "open-gate",
            &dir,
            "--probes",
            "1",
            "--min-speedup",
            "1000000",
        ]))
        .unwrap_err();
        match failed {
            CliError::Operational(message) => {
                assert!(message.contains("lazy open gate FAILED"), "{message}")
            }
            other => panic!("expected an operational failure, got {other:?}"),
        }
        // A second positional (the retired monolithic argument) is a usage
        // error (exit 2).
        assert!(matches!(
            run_inner(&strings(&["open-gate", &dir, &dir])).unwrap_err(),
            CliError::Input(_)
        ));

        remove(&[&dir]);
    }

    /// `query --probe-raw` answers exactly like `--probe` with the
    /// converted plan; a file repeating one record is one plan, and two
    /// distinct records are a usage error (exit 2).
    #[test]
    fn query_probe_raw_answers_like_its_converted_probe() {
        let dir = temp("uplan_cli_probe_raw_store");
        let (raw, twice, two, plan) = (
            temp("uplan_cli_probe_raw.jsonl"),
            temp("uplan_cli_probe_raw_twice.jsonl"),
            temp("uplan_cli_probe_raw_two.jsonl"),
            temp("uplan_cli_probe_raw_plan.json"),
        );
        run_inner(&strings(&["fixture-ingest", &dir, "50"])).unwrap();
        let record = r#"[{"Plan": {"Node Type": "Hash Join", "Plans": [{"Node Type": "Seq Scan", "Relation Name": "orders"}, {"Node Type": "Hash", "Plans": [{"Node Type": "Seq Scan", "Relation Name": "lineitem"}]}]}}]"#;
        let other = r#"[{"Plan": {"Node Type": "Seq Scan", "Relation Name": "nation"}}]"#;
        std::fs::write(&raw, format!("{record}\n")).unwrap();
        std::fs::write(&twice, format!("{record}\n{record}\n")).unwrap();
        std::fs::write(&two, format!("{record}\n{other}\n")).unwrap();
        let converted = convert(Source::PostgresJson, record).unwrap();
        std::fs::write(&plan, uplan_core::formats::unified::to_json(&converted)).unwrap();

        let knn = |flag: &str, file: &str| {
            run_inner(&strings(&[
                "query", &dir, "knn", "--k", "3", flag, file, "--json",
            ]))
        };
        let expected = knn("--probe", &plan).unwrap();
        assert!(expected.contains("\"matches\""), "{expected}");
        assert_eq!(knn("--probe-raw", &raw).unwrap(), expected);
        assert_eq!(knn("--probe-raw", &twice).unwrap(), expected);
        let err = knn("--probe-raw", &two).unwrap_err();
        assert_eq!(err.code(), 2, "{err}");
        assert_eq!(
            err.to_string(),
            format!("{two}: raw probe must hold exactly one plan record, got 2")
        );
        remove(&[&dir, &raw, &twice, &two, &plan]);
    }

    /// Both gate verbs refuse an empty probe set (exit 2) instead of
    /// panicking or passing vacuously.
    #[test]
    fn gate_verbs_reject_zero_probes() {
        let dir = temp("uplan_cli_zero_probes");
        run_inner(&strings(&["fixture-ingest", &dir, "50"])).unwrap();
        for verb in ["open-gate", "recall"] {
            let err = run_inner(&strings(&[verb, &dir, "--probes", "0"])).unwrap_err();
            assert_eq!(err.code(), 2, "{verb}: {err}");
            assert!(err.to_string().contains("--probes"), "{verb}: {err}");
        }
        remove(&[&dir]);
    }
}
