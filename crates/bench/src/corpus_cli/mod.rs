//! `repro corpus` — manage persistent plan corpora from the command line.
//!
//! Every corpus lives in an append-only segment-store directory (see
//! `uplan_corpus::segment`): every verb that writes a corpus writes or
//! appends to a store, and every verb that reads one opens a store lazily.
//! A regular file where a store belongs is refused (exit 2): monolithic
//! `UPLN` documents and JSON-lines corpus files from before the segment
//! store convert into one with an older `repro`.
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
//!     (source-sniffed); give one of them. `--budget` bounds counted TED
//!     evaluations; a tripped budget is an *operational* failure (exit
//!     1), distinct from bad arguments (exit 2). `--json` emits the exact
//!     `QueryResponse` wire document the server sends.
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
//!
//! Each verb group is one module (`ingest`, `read`, `store`, `gates`,
//! `serve`), and one table, `VERBS`, dispatches to them all.

mod gates;
mod ingest;
mod read;
mod serve;
mod store;
#[cfg(test)]
mod tests;

use uplan_corpus::{PlanCorpus, QueryError, SegmentStore};

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

// A tripped eval budget is the environment (corpus too dense for the
// budget), not the arguments: exit 1, distinct from exit-2 request errors,
// so callers can tell "raise the budget" from "fix the request".
impl From<QueryError> for CliError {
    fn from(error: QueryError) -> CliError {
        match error {
            QueryError::BudgetExceeded { .. } => CliError::Operational(error.to_string()),
            _ => CliError::Input(error.to_string()),
        }
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

/// A verb's handler: the arguments after the verb in, the report out.
type Handler = fn(&[String]) -> Result<String, CliError>;

/// The one dispatch table, in the order [`usage`] lists the verbs.
const VERBS: [(&str, Handler); 16] = [
    ("ingest", ingest::ingest),
    ("raw-fixture", ingest::raw_fixture),
    ("raw-check", gates::raw_check),
    ("fixture-ingest", ingest::fixture_ingest),
    ("campaign", ingest::campaign),
    ("stats", read::stats),
    ("cluster", read::cluster),
    ("diff", read::diff),
    ("query", read::query),
    ("recall", gates::recall),
    ("open-gate", gates::open_gate),
    ("serve", serve::serve),
    ("salvage", store::salvage),
    ("mutate", gates::mutate),
    ("compact", store::compact),
    ("sources", read::sources),
];

fn usage() -> String {
    let verbs: Vec<&str> = VERBS.iter().map(|&(verb, _)| verb).collect();
    format!(
        "usage: repro corpus <{}> ... (see crates/bench/src/corpus_cli/mod.rs docs)",
        verbs.join("|")
    )
}

fn run_inner(args: &[String]) -> Result<String, CliError> {
    let verb = args.first().map(String::as_str);
    match VERBS.iter().find(|&&(name, _)| Some(name) == verb) {
        Some((_, handler)) => handler(&args[1..]),
        None => Err(usage().into()),
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

/// The positional argument at `at`, parsed, or `default` when absent;
/// `what` names it in the error.
fn positional_or<T: std::str::FromStr>(
    args: &[String],
    at: usize,
    what: &str,
    default: T,
) -> Result<T, String> {
    match args.get(at) {
        Some(raw) => raw.parse().map_err(|_| format!("bad {what} {raw:?}")),
        None => Ok(default),
    }
}

fn parse_seed(args: &mut Vec<String>, default: u64) -> Result<u64, CliError> {
    match take_value::<String>(args, "--seed")? {
        Some(hex) => u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|_| format!("bad --seed value {hex:?}").into()),
        None => Ok(default),
    }
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

/// Opens the store a reading verb names, lazily: manifest and index
/// sections decode now, plan payloads when a query touches them. A missing
/// path is operational (exit 1), like any unreadable input; any other
/// existing path that is not a store is bad input (exit 2).
fn open_store(path: &str) -> Result<SegmentStore, CliError> {
    if SegmentStore::is_store_dir(path) {
        return SegmentStore::open(path)
            .map_err(|e| CliError::Input(format!("cannot load corpus {path}: {e}")));
    }
    if !std::path::Path::new(path).exists() {
        return Err(CliError::Operational(format!(
            "cannot load corpus {path}: no such file or directory"
        )));
    }
    refuse_file(path)?;
    Err(CliError::Input(format!(
        "{path} is not a segment store directory"
    )))
}

/// Refuses a regular file where a store directory belongs (exit 2). Such a
/// file is most likely a corpus document from before the segment store.
fn refuse_file(path: &str) -> Result<(), CliError> {
    if std::path::Path::new(path).is_file() {
        return Err(CliError::Input(format!(
            "{path} is a regular file, not a segment store directory; legacy \
             UPLN and JSON-lines corpus files convert into a store with an older `repro`"
        )));
    }
    Ok(())
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
