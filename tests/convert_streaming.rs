//! Properties of the unified conversion spine.
//!
//! Three contracts, checked on real dialect fixtures (TPC-H-lite plans
//! from every engine substrate):
//!
//! 1. **Spelling invariance** — a JSON converter reads the document, not
//!    its spelling: converting a fixture and converting its re-serialized
//!    (pretty-printed) parse give identical unified plans and identical
//!    fingerprints (the goldens in `tests/golden.rs` pin the values).
//! 2. **Truncation safety and error-offset fidelity** — converting any
//!    prefix of a fixture never panics, and where the streaming JSON path
//!    fails with a *parse* error, the offset is exactly the one the tree
//!    parser reports for the same input.
//! 3. **Raw ≡ sequential** — batched multi-threaded raw-dump ingest is
//!    byte-identical to converting each line sequentially with its own
//!    source converter, for arbitrary line subsets (property-tested).

use std::sync::OnceLock;

use proptest::prelude::*;
use uplan::convert::{self, convert, detect, Source};
use uplan::core::fingerprint::fingerprint;
use uplan::core::formats::json;
use uplan::core::Error;
use uplan::corpus::PlanCorpus;
use uplan::testing::fixtures::DialectFleet;

/// One serialized fixture per source dialect (several per dialect for the
/// relational engines): the corpus every property below runs on.
fn fixtures() -> &'static Vec<(Source, String)> {
    static FIXTURES: OnceLock<Vec<(Source, String)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut fleet = DialectFleet::new();
        let mut out: Vec<(Source, String)> = Vec::new();
        for qid in [1usize, 3, 5] {
            out.extend(fleet.relational(qid - 1, qid as u32));
        }
        for mq in [0usize, 1] {
            out.push(fleet.mongo(mq));
        }
        for gq in [0usize, 2] {
            out.push(fleet.neo4j(gq));
        }
        out.push(DialectFleet::influx(2, 9));
        out
    })
}

const JSON_SOURCES: [Source; 3] = [Source::PostgresJson, Source::MySqlJson, Source::MongoJson];

#[test]
fn json_conversion_is_invariant_under_respelling_on_dialect_fixtures() {
    for (source, input) in fixtures() {
        if !JSON_SOURCES.contains(source) {
            continue;
        }
        let doc = json::parse(input).expect("fixture JSON parses");
        let (pretty, compact) = (doc.to_pretty(), doc.to_compact());
        // The emitters pretty-print, so the compact spelling is the one
        // that differs from the fixture in every byte of layout.
        assert_ne!(&compact, input, "{source:?}");
        let direct = convert(*source, input).unwrap_or_else(|e| panic!("{source:?}: {e}"));
        for spelling in [&pretty, &compact] {
            let again = convert(*source, spelling).unwrap_or_else(|e| panic!("{source:?}: {e}"));
            assert_eq!(direct, again, "{source:?}: spellings diverged");
            assert_eq!(fingerprint(&direct), fingerprint(&again));
        }
    }
}

#[test]
fn every_fixture_converts_identically_through_the_trait_registry() {
    // `convert()` and a reused-builder trait-object loop are the same
    // pipeline: builder reuse across mixed dialects leaks nothing.
    let mut builder = convert::NodeBuilder::new(Source::PostgresText.dbms());
    for (source, input) in fixtures() {
        let direct = convert(*source, input).unwrap();
        builder.retarget(source.dbms());
        let via_trait = source.converter().convert(input, &mut builder).unwrap();
        assert_eq!(direct, via_trait, "{source:?}");
        // And a second conversion on the same warm builder agrees too.
        builder.retarget(source.dbms());
        assert_eq!(
            source.converter().convert(input, &mut builder).unwrap(),
            direct,
            "{source:?}: warm builder diverged"
        );
    }
}

#[test]
fn every_fixture_sniffs_back_to_its_own_source() {
    for (source, input) in fixtures() {
        let detected = detect(input);
        // The two PostgreSQL-compatible text dialects are the only
        // intentional aliasing: nothing else may misroute.
        assert_eq!(detected, Some(*source), "{source:?} misdetected");
    }
}

#[test]
fn truncated_inputs_error_or_convert_but_never_panic() {
    for (source, input) in fixtures() {
        let step = (input.len() / 60).max(1);
        let mut cut = 0usize;
        while cut < input.len() {
            if input.is_char_boundary(cut) {
                // Any prefix must produce Ok or Err — never a panic.
                let _ = convert(*source, &input[..cut]);
            }
            cut += step;
        }
    }
}

#[test]
fn streaming_parse_errors_on_truncated_json_match_tree_parser_offsets() {
    for (source, input) in fixtures() {
        if !JSON_SOURCES.contains(source) {
            continue;
        }
        let step = (input.len() / 120).max(1);
        let mut compared = 0usize;
        let mut cut = 0usize;
        while cut < input.len() {
            if input.is_char_boundary(cut) {
                let prefix = &input[..cut];
                match convert(*source, prefix) {
                    // A lexical/structural failure on the streaming path
                    // must be byte-for-byte `json::parse`'s error.
                    Err(e @ (Error::Parse { .. } | Error::UnexpectedEof(_))) => {
                        let tree_err = json::parse(prefix)
                            .expect_err("streaming parse error implies tree parse error");
                        assert_eq!(e, tree_err, "{source:?} at cut {cut}");
                        compared += 1;
                    }
                    // Semantic errors and (rare) well-formed prefixes: the
                    // re-spelled prefix converts the same way.
                    other => {
                        if let Ok(doc) = json::parse(prefix) {
                            let pretty = doc.to_pretty();
                            assert_eq!(other, convert(*source, &pretty), "{source:?} at cut {cut}");
                        }
                    }
                }
            }
            cut += step;
        }
        assert!(compared > 0, "{source:?}: no truncation hit the parser");
    }
}

/// Encodes a fixture as one raw-dump line (JSON dialects compact to one
/// line; text dialects are JSON-string-encoded).
fn dump_line(source: Source, input: &str) -> String {
    match source {
        Source::PostgresJson | Source::MySqlJson | Source::MongoJson => json::parse(input)
            .expect("fixture JSON parses")
            .to_compact(),
        _ => json::JsonValue::from(input).to_compact(),
    }
}

#[test]
fn raw_ingest_is_byte_identical_to_per_source_conversion() {
    // The acceptance criterion: a mixed 9-source dump through
    // `ingest_raw` equals (1) the sequential reference path and (2) a
    // hand-rolled per-source convert+observe loop, byte for byte.
    let dump: String = fixtures()
        .iter()
        .map(|(s, i)| dump_line(*s, i) + "\n")
        .collect();

    let mut batched = PlanCorpus::new();
    let report = convert::ingest_raw(&dump, &mut batched, 4).unwrap();
    assert_eq!(report.lines, fixtures().len());
    assert_eq!(report.per_source.len(), Source::ALL.len());

    let mut sequential = PlanCorpus::new();
    let seq_report = convert::ingest_raw_sequential(&dump, &mut sequential).unwrap();
    assert_eq!(report, seq_report);

    let mut reference = PlanCorpus::new();
    for (source, input) in fixtures() {
        reference.observe(&convert(*source, input).unwrap());
    }
    let bytes = uplan::corpus::encode_segment(&reference).unwrap();
    assert_eq!(uplan::corpus::encode_segment(&batched).unwrap(), bytes);
    assert_eq!(uplan::corpus::encode_segment(&sequential).unwrap(), bytes);
    assert_eq!(batched.stats(), reference.stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any subset of fixture lines, in any order and with duplicates,
    /// ingests identically through the batched raw path and the
    /// sequential per-source reference — for every thread count.
    #[test]
    fn raw_ingest_matches_sequential_on_arbitrary_line_subsets(
        picks in prop::collection::vec(0usize..100, 0..30),
        threads in 1usize..6,
    ) {
        let pool = fixtures();
        let dump: String = picks
            .iter()
            .map(|&i| {
                let (source, input) = &pool[i % pool.len()];
                dump_line(*source, input) + "\n"
            })
            .collect();
        let mut batched = PlanCorpus::new();
        let report = convert::ingest_raw(&dump, &mut batched, threads).unwrap();
        let mut sequential = PlanCorpus::new();
        let seq_report = convert::ingest_raw_sequential(&dump, &mut sequential).unwrap();
        prop_assert_eq!(&report, &seq_report);
        prop_assert_eq!(report.lines, picks.len());
        prop_assert_eq!(
            uplan::corpus::encode_segment(&batched).unwrap(),
            uplan::corpus::encode_segment(&sequential).unwrap()
        );
    }

    /// Arbitrary interleavings of valid records and dirty-fleet garbage:
    /// a lenient ingest converts **exactly the valid subset** — byte-
    /// identical to a strict ingest of those lines alone — and its error
    /// census names exactly the garbage lines, in order, at every thread
    /// count and on the sequential reference path.
    #[test]
    fn lenient_ingest_converts_exactly_the_valid_subset_of_dirty_interleavings(
        picks in prop::collection::vec(0usize..130, 0..30),
        threads in 1usize..6,
    ) {
        use uplan::convert::RawIngestOptions;
        use uplan::testing::inject::GARBAGE_LINES;
        let pool = fixtures();
        // Picks ≥100 become garbage records (~23% of lines).
        let mut dump = String::new();
        let mut valid = String::new();
        let mut garbage_lines = Vec::new();
        for (i, &pick) in picks.iter().enumerate() {
            if pick >= 100 {
                dump.push_str(GARBAGE_LINES[pick % GARBAGE_LINES.len()]);
                dump.push('\n');
                garbage_lines.push(i + 1);
            } else {
                let (source, input) = &pool[pick % pool.len()];
                let line = dump_line(*source, input);
                dump.push_str(&line);
                dump.push('\n');
                valid.push_str(&line);
                valid.push('\n');
            }
        }

        let options = RawIngestOptions::lenient();
        let mut lenient = PlanCorpus::new();
        let report = convert::ingest_raw_with(&dump, &mut lenient, threads, &options).unwrap();
        prop_assert_eq!(report.lines, picks.len() - garbage_lines.len());
        let reported: Vec<usize> = report.errors.iter().map(|e| e.line).collect();
        prop_assert_eq!(&reported, &garbage_lines);

        let mut seq = PlanCorpus::new();
        let seq_report =
            convert::ingest_raw_sequential_with(&dump, &mut seq, &options).unwrap();
        prop_assert_eq!(&report, &seq_report);

        let mut reference = PlanCorpus::new();
        let strict_report = convert::ingest_raw(&valid, &mut reference, threads).unwrap();
        prop_assert_eq!(strict_report.lines, report.lines);
        prop_assert_eq!(strict_report.census(), report.census());
        let bytes = uplan::corpus::encode_segment(&reference).unwrap();
        prop_assert_eq!(uplan::corpus::encode_segment(&lenient).unwrap(), bytes.clone());
        prop_assert_eq!(uplan::corpus::encode_segment(&seq).unwrap(), bytes);
    }
}

/// Worker-side dedup over several batches: conversion workers drop plans
/// whose fingerprint an earlier batch admitted, and the calling thread
/// admits each batch's candidates in dump order. The dump puts duplicates
/// across a batch boundary, in different pieces of one batch, and among
/// lenient failures. At every thread count `convert_raw` must deliver
/// exactly what a sequential first-of-fingerprint pass keeps, and
/// `ingest_raw_with` must build the sequential reference's corpus.
#[test]
fn worker_side_dedup_keeps_the_first_plan_of_each_fingerprint_at_any_thread_count() {
    use uplan::convert::raw::{RAW_BATCH, RAW_PIECE};
    use uplan::convert::RawIngestOptions;
    use uplan::core::fingerprint::FingerprintSet;
    use uplan::testing::inject::GARBAGE_LINES;
    let pool = fixtures();
    let plans: Vec<_> = pool.iter().map(|(s, i)| convert(*s, i).unwrap()).collect();
    // Two entries are placed by hand; the filler never shares their
    // fingerprints, so their first appearances are exactly where placed.
    let (straddle, split) = (pool.len() - 1, pool.len() - 2);
    let held = [fingerprint(&plans[straddle]), fingerprint(&plans[split])];
    assert_ne!(held[0], held[1]);
    let filler: Vec<usize> = (0..pool.len())
        .filter(|&i| !held.contains(&fingerprint(&plans[i])))
        .collect();
    // `None` is a garbage record. The filler admits pool entries gradually,
    // so novel plans keep appearing in later batches.
    let records = 3 * RAW_BATCH + 77;
    let mut picks: Vec<Option<usize>> = (0..records)
        .map(|i| {
            let admitted = 1 + i * filler.len() / records;
            (i % 37 != 5).then(|| filler[(i * 7 + i / 13) % admitted])
        })
        .collect();
    let placed = [
        // Straddles the first batch boundary, with failures on both sides.
        (RAW_BATCH - 2, None),
        (RAW_BATCH - 1, Some(straddle)),
        (RAW_BATCH, Some(straddle)),
        (RAW_BATCH + 1, None),
        (2 * RAW_BATCH, Some(straddle)),
        // Two candidates of one fingerprint in different pieces of the
        // third batch, a failure between them.
        (2 * RAW_BATCH + 3, Some(split)),
        (2 * RAW_BATCH + 4, None),
        (2 * RAW_BATCH + 5 * RAW_PIECE + 1, Some(split)),
    ];
    for (at, pick) in placed {
        picks[at] = pick;
    }
    let dump: String = picks
        .iter()
        .enumerate()
        .map(|(i, pick)| match pick {
            Some(p) => dump_line(pool[*p].0, &pool[*p].1) + "\n",
            None => format!("{}\n", GARBAGE_LINES[i % GARBAGE_LINES.len()]),
        })
        .collect();

    // The sequential first-of-fingerprint pass.
    let mut seen = FingerprintSet::new();
    let firsts: Vec<usize> = (0..records)
        .filter(|&i| picks[i].is_some_and(|p| seen.observe(&plans[p])))
        .collect();
    for (first, dup) in [
        (RAW_BATCH - 1, RAW_BATCH),
        (2 * RAW_BATCH + 3, 2 * RAW_BATCH + 5 * RAW_PIECE + 1),
    ] {
        assert!(firsts.contains(&first) && !firsts.contains(&dup));
    }
    assert!(firsts.iter().any(|&i| i >= 2 * RAW_BATCH + RAW_PIECE));
    let expected: Vec<_> = firsts
        .iter()
        .map(|&i| plans[picks[i].unwrap()].clone())
        .collect();

    let options = RawIngestOptions::lenient();
    let mut reference = PlanCorpus::new();
    let seq_report = convert::ingest_raw_sequential_with(&dump, &mut reference, &options).unwrap();
    assert_eq!(seq_report.novel, expected.len());
    assert!(!seq_report.errors.is_empty());
    let reference_bytes = uplan::corpus::encode_segment(&reference).unwrap();
    for threads in [1, 2, 4] {
        let mut seen = FingerprintSet::new();
        let (mut delivered, mut dropped) = (Vec::new(), 0);
        let report = convert::convert_raw(
            dump.as_bytes(),
            threads,
            &options,
            &mut seen,
            |plans, duplicates| {
                dropped += duplicates;
                let novel = plans.len();
                delivered.extend(plans);
                novel
            },
        )
        .unwrap()
        .unwrap();
        assert!(delivered == expected, "{threads} threads: delivered plans");
        assert_eq!(report, seq_report, "{threads} threads");
        assert_eq!(dropped, report.lines - expected.len(), "{threads} threads");

        let mut batched = PlanCorpus::new();
        let report = convert::ingest_raw_with(&dump, &mut batched, threads, &options).unwrap();
        assert_eq!(report, seq_report, "{threads} threads");
        assert_eq!(
            uplan::corpus::encode_segment(&batched).unwrap(),
            reference_bytes,
            "{threads} threads"
        );
        assert_eq!(
            (batched.observed(), batched.duplicates()),
            (reference.observed(), reference.duplicates())
        );

        // Into a corpus that already holds one of the dump's plans: the
        // novel count is the corpus's, and the corpus matches again.
        let (mut batched, mut sequential) = (PlanCorpus::new(), PlanCorpus::new());
        batched.observe(&plans[split]);
        sequential.observe(&plans[split]);
        let report = convert::ingest_raw_with(&dump, &mut batched, threads, &options).unwrap();
        let held_report =
            convert::ingest_raw_sequential_with(&dump, &mut sequential, &options).unwrap();
        assert_eq!(report, held_report, "{threads} threads");
        assert_eq!(report.novel, expected.len() - 1);
        assert_eq!(
            uplan::corpus::encode_segment(&batched).unwrap(),
            uplan::corpus::encode_segment(&sequential).unwrap()
        );
        assert_eq!(batched.observed(), sequential.observed());
    }
}
