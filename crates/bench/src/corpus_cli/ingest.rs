//! Verbs that write plans: `ingest` (native EXPLAIN files or raw dumps),
//! the fixture writers `raw-fixture` and `fixture-ingest`, and `campaign`.

use std::io::BufReader;

use minidb::profile::EngineProfile;
use uplan_convert::{convert, RawIngestOptions, Source};
use uplan_core::fingerprint::FingerprintSet;
use uplan_corpus::{AppendReport, PlanCorpus, SegmentStore};
use uplan_testing::fixtures::scrub_times;
use uplan_testing::generator::Generator;
use uplan_testing::inject;
use uplan_testing::qpg::{self, QpgConfig};

use super::{
    new_store, open_store, parse_seed, positional_or, positionals, session_line, summary,
    take_flag, take_value, CliError,
};

const INGEST_USAGE: &str = "usage: repro corpus ingest <store-dir> <source> <explain-file>... \
     [--threads N], or repro corpus ingest <store-dir> --raw <dump>... [--threads N] \
     [--lenient] [--max-errors N] [--quarantine <file>]";

pub(super) fn ingest(args: &[String]) -> Result<String, CliError> {
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

/// `ingest --raw`: every dump streams through [`uplan_convert::convert_raw`]
/// with one fingerprint set across the run, so the first plan of each
/// fingerprint across all dumps is kept.
fn ingest_raw_dumps(
    args: &[String],
    threads: usize,
    options: &RawIngestOptions,
) -> Result<String, CliError> {
    let (out, dumps) = match args {
        [out, dumps @ ..] if !dumps.is_empty() => (out, dumps),
        _ => return Err(INGEST_USAGE.into()),
    };
    let mut seen = FingerprintSet::new();
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
        let reader = BufReader::new(file);
        let report = uplan_convert::convert_raw(reader, threads, options, &mut seen, |plans, _| {
            let novel = plans.len();
            distinct.extend(plans);
            novel
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

/// `raw-fixture`: text serializations are JSON-string-encoded, JSON
/// documents compacted to one line.
pub(super) fn raw_fixture(args: &[String]) -> Result<String, CliError> {
    use uplan_testing::fixtures::{raw_dump_line, DialectFleet};
    let mut args = args.to_vec();
    let dirty: usize = take_value(&mut args, "--dirty")?.unwrap_or(0);
    let seed = parse_seed(&mut args, 0xD127_F1EE)?;
    let args = positionals(args)?;
    let out = args
        .first()
        .ok_or("usage: repro corpus raw-fixture <out.jsonl> [queries] [--dirty N] [--seed HEX]")?;
    let queries: usize = positional_or(&args, 1, "query count", 6)?;
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

/// `fixture-ingest`: the CI determinism gate's store writer.
pub(super) fn fixture_ingest(args: &[String]) -> Result<String, CliError> {
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
    let count: usize = positional_or(&args, 1, "plan count", 10_000)?;
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
        open_store(dir)?
    } else {
        new_store(dir, PlanCorpus::new())?
    };
    let report = store
        .append(plans, threads)
        .map_err(|e| CliError::Operational(format!("cannot append to {dir}: {e}")))?;
    Ok((store, report))
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

pub(super) fn campaign(args: &[String]) -> Result<String, CliError> {
    let args = positionals(args.to_vec())?;
    let out = args
        .first()
        .ok_or("usage: repro corpus campaign <store-dir> [profile] [queries] [radius]")?;
    let profile = match args.get(1) {
        Some(name) => parse_profile(name)?,
        None => EngineProfile::Postgres,
    };
    let queries: usize = positional_or(&args, 2, "query count", 400)?;
    let radius: u32 = positional_or(&args, 3, "radius", 0)?;
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
    // minidb stamps measured planning times into its plans: without them,
    // two campaigns write identical stores. They are Status properties,
    // which fingerprints ignore, so every plan keeps its id.
    let mut corpus =
        PlanCorpus::with_options_and_shards(outcome.corpus.options(), outcome.corpus.shard_count());
    for (_, plan) in outcome.corpus.iter() {
        let mut plan = plan.clone();
        scrub_times(&mut plan);
        corpus.insert(plan);
    }
    new_store(out, corpus)?;
    Ok(report)
}
