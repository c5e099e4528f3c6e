//! The dirty-fleet hardening contract, driven end to end by the seeded
//! fault-injection harness (`uplan_testing::inject`).
//!
//! Two artifact kinds arrive from the outside world — append-only
//! segment-store directories and raw mixed-source dumps — and for both
//! the contract is:
//!
//! * **no panic**, ever, on corrupted input;
//! * strict loads either succeed losslessly or fail with a bounded,
//!   descriptive error — never silently drop plans;
//! * salvage recovers plans that **fingerprint-match** the originals, and
//!   recovers **exactly** the count the per-segment oracle
//!   ([`inject::expected_store_recovery`]) promises;
//! * lenient raw ingest of a dump with ≥10% garbage is **byte-identical**
//!   to a strict ingest of its valid subset, with an exact error census.
//!
//! Every mutation is seeded, so a failure here reproduces deterministically.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use minidb::profile::EngineProfile;
use uplan::convert::{self, RawIngestOptions};
use uplan::core::fingerprint::{fingerprint, FingerprintOptions};
use uplan::core::UnifiedPlan;
use uplan::corpus::{encode_segment, PlanCorpus, SegmentStore, MANIFEST_FILE};
use uplan::testing::inject::{self, FaultMutation, StoreFault};
use uplan::workloads::tpch;
use uplan_bench::corpus_fixture;

/// Seed of the fixture corpus (and default seed of the mutation sweeps).
const SEED: u64 = 0xD15E_A5ED;

// ---------------------------------------------------------------------------
// Segment stores: per-file faults against an append-only store directory.
// The segment is the recovery unit, so `SegmentStore::salvage` must
// recover *exactly* the surviving segments' plan counts
// ([`inject::expected_store_recovery`]) — and, byte for byte, the corpus
// an eager re-ingest of the surviving batches produces.
// ---------------------------------------------------------------------------

/// A pristine store directory, its per-segment plan census, and the
/// batches that built it in ingest order.
type StoreFixture = (PathBuf, Vec<(u32, u64)>, Vec<Vec<UnifiedPlan>>);

/// A pristine three-segment store of 120 fingerprint-distinct derived
/// plans (a seed segment plus two appended batches of 40), its
/// per-segment plan census, and the three batches in ingest order.
fn store_fixture() -> &'static StoreFixture {
    static STORE: OnceLock<StoreFixture> = OnceLock::new();
    STORE.get_or_init(|| {
        // Dedupe the derived stream by fingerprint so every plan lands in
        // exactly one segment — the precondition for a per-segment-exact
        // recovery oracle.
        let mut seen = HashSet::new();
        let distinct: Vec<UnifiedPlan> = corpus_fixture::derived_stream(600, SEED)
            .into_iter()
            .filter(|plan| seen.insert(fingerprint(plan).0))
            .take(120)
            .collect();
        assert_eq!(distinct.len(), 120, "stream too repetitive for fixture");
        let batches: Vec<Vec<UnifiedPlan>> =
            distinct.chunks(40).map(|chunk| chunk.to_vec()).collect();

        let dir = std::env::temp_dir().join(format!(
            "uplan-fault-injection-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut seed_corpus = PlanCorpus::new();
        for plan in &batches[0] {
            seed_corpus.insert(plan.clone());
        }
        let mut store = SegmentStore::create(&dir, seed_corpus).unwrap();
        for batch in &batches[1..] {
            let report = store.append(batch, 1).unwrap();
            assert_eq!(report.duplicates, 0, "fixture batches must be distinct");
        }
        let census: Vec<(u32, u64)> = store.census().iter().map(|c| (c.id, c.plans)).collect();
        assert_eq!(census, vec![(0, 40), (1, 40), (2, 40)]);
        (dir, census, batches)
    })
}

/// Materializes the fault against a copy of the pristine store and
/// asserts the salvage contract: the report matches the oracle exactly,
/// and the recovered corpus is byte-identical to an eager ingest of the
/// surviving batches alone.
fn assert_store_contract(fault: &StoreFault) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let (src, census, batches) = store_fixture();
    let what = fault.describe();
    let dst = std::env::temp_dir().join(format!(
        "uplan-fault-injection-store-case-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    fault.apply_to_copy(src, &dst).unwrap();

    let expect = inject::expected_store_recovery(census, fault);
    let (corpus, report) = SegmentStore::salvage(&dst, FingerprintOptions::default()).unwrap();
    assert_eq!(report.manifest_ok, expect.manifest_ok, "{what}");
    assert_eq!(report.segments_declared, census.len(), "{what}");
    assert_eq!(
        report.segments_recovered, expect.segments_recovered,
        "{what}"
    );
    assert_eq!(report.recovered as u64, expect.recovered, "{what}");
    assert_eq!(report.dropped, expect.dropped, "{what}");
    assert!(report.index_rebuilt, "{what}: a damaged store never adopts");
    let error = report.error.as_deref().unwrap_or_else(|| {
        panic!("{what}: damaged salvage must say why");
    });
    if let Some(id) = expect.dropped_segment {
        assert!(
            error.contains(&format!("segment {id}")),
            "{what}: error {error:?} must name segment {id}"
        );
    }

    // Byte-exactness: the salvaged corpus equals an eager corpus built
    // from the surviving batches in their original ingest order.
    let mut reference = PlanCorpus::new();
    for (slot, batch) in batches.iter().enumerate() {
        if expect.dropped_segment == Some(slot as u32) {
            continue;
        }
        for plan in batch {
            reference.insert(plan.clone());
        }
    }
    assert_eq!(
        encode_segment(&corpus).unwrap(),
        encode_segment(&reference).unwrap(),
        "{what}: salvage must reproduce the surviving batches byte-exactly"
    );

    // The strict open refuses any store with a missing or severed file
    // (a mid-file bit flip may be in a lazily verified plan block, so
    // strict open is only promised to catch structural damage).
    let structural = matches!(
        fault,
        StoreFault::Delete { .. }
            | StoreFault::Mutate {
                mutation: FaultMutation::Truncate { .. },
                ..
            }
    );
    if structural {
        let refused = SegmentStore::open(&dst);
        assert!(refused.is_err(), "{what}: strict open must refuse");
        assert!(
            !refused.unwrap_err().to_string().is_empty(),
            "{what}: empty error"
        );
    }

    let _ = std::fs::remove_dir_all(&dst);
}

#[test]
fn segment_file_faults_drop_exactly_that_segment() {
    let (src, _, _) = store_fixture();
    // One fault per store file, three damage classes each: a seeded bit
    // flip, a seeded strict-prefix truncation, and outright deletion.
    // Segment faults must cost exactly that segment; manifest faults must
    // cost nothing (the symbol chain rebuilds from segment deltas).
    for fault in inject::store_bitflip_plan(src, SEED).unwrap() {
        assert_store_contract(&fault);
    }
    for fault in inject::store_truncate_plan(src, SEED).unwrap() {
        assert_store_contract(&fault);
    }
    for fault in inject::store_delete_plan(src).unwrap() {
        assert_store_contract(&fault);
    }
}

#[test]
fn manifest_loss_plus_symbol_segment_loss_cascades() {
    // Composed faults are outside the single-fault oracle: with the
    // manifest gone the symbol chain rebuilds from segment deltas, so
    // losing the base-symbol-carrying segment 0 as well must cascade
    // onto every later segment — salvage recovers zero plans but still
    // reports the loss instead of panicking or inventing plans.
    let (src, _, _) = store_fixture();
    let dst = std::env::temp_dir().join(format!(
        "uplan-fault-injection-store-cascade-{}",
        std::process::id()
    ));
    StoreFault::Delete {
        file: MANIFEST_FILE.to_owned(),
    }
    .apply_to_copy(src, &dst)
    .unwrap();
    StoreFault::Delete {
        file: uplan::corpus::segment_file(0),
    }
    .apply(&dst)
    .unwrap();

    let (corpus, report) = SegmentStore::salvage(&dst, FingerprintOptions::default()).unwrap();
    assert!(!report.manifest_ok);
    // With both the manifest and segment 0 gone, only the two surviving
    // files are even declared — and the broken chain then drops them too.
    assert_eq!(report.segments_declared, 2);
    assert_eq!(report.segments_recovered, 0);
    assert_eq!(report.recovered, 0);
    assert_eq!(report.dropped, 80);
    assert!(corpus.is_empty());
    let error = report.error.unwrap();
    assert!(
        error.contains("manifest missing or corrupt"),
        "error {error:?}"
    );

    let _ = std::fs::remove_dir_all(&dst);
}

// ---------------------------------------------------------------------------
// Raw-dump half of the contract: dirty mixed-source dumps.
// ---------------------------------------------------------------------------

/// A clean 22-line mixed dump covering all eleven serializations (two
/// TPC-H-lite queries through every engine substrate).
fn clean_dump() -> &'static String {
    static DUMP: OnceLock<String> = OnceLock::new();
    DUMP.get_or_init(|| {
        use uplan::core::formats::json::{self, JsonValue};
        let queries = tpch::queries();
        let mut pg = tpch::relational(EngineProfile::Postgres, 1);
        let mut mysql = tpch::relational(EngineProfile::MySql, 1);
        let mut tidb = tpch::relational(EngineProfile::TiDb, 1);
        let mut sqlite = tpch::relational(EngineProfile::Sqlite, 1);
        let mut store = minidoc::DocStore::new();
        tpch::load_document(&mut store, 1, 7);
        let mut graph = minigraph::GraphStore::new();
        tpch::load_graph(&mut graph, 1, 7);

        let text = |t: &str| JsonValue::from(t).to_compact();
        let jdoc = |d: &str| json::parse(d).unwrap().to_compact();
        let mut lines = Vec::new();
        for qid in [1usize, 3] {
            let (_, sql) = &queries[qid - 1];
            let plan = pg.explain(sql).unwrap();
            lines.push(text(&dialects::postgres::to_text(&plan)));
            lines.push(jdoc(&dialects::postgres::to_json(&plan)));
            lines.push(text(&dialects::sparksql::to_text(&plan)));
            lines.push(text(&dialects::sqlserver::to_xml(&plan)));
            let plan = mysql.explain(sql).unwrap();
            lines.push(jdoc(&dialects::mysql::to_json(&plan)));
            lines.push(text(&dialects::mysql::to_table(&plan)));
            let plan = tidb.explain(sql).unwrap();
            lines.push(text(&dialects::tidb::to_table(&plan, qid as u32)));
            let plan = sqlite.explain(sql).unwrap();
            lines.push(text(&dialects::sqlite::to_text(&plan)));
            let (_, doc_plan) = store.find(&tpch::mongo_queries()[qid % 2].1);
            lines.push(jdoc(&dialects::mongodb::to_json(&doc_plan)));
            let (_, graph_plan) = graph.run(&tpch::graph_queries()[qid % 3].1);
            lines.push(text(&dialects::neo4j::to_table(&graph_plan)));
            lines.push(text(&dialects::influxdb::to_text(
                &dialects::influxdb::InfluxStats::synthetic(qid as u64, qid as u64 * 7),
            )));
        }
        let mut dump = lines.join("\n");
        dump.push('\n');
        dump
    })
}

#[test]
fn lenient_ingest_of_a_dirty_dump_equals_strict_ingest_of_the_valid_subset() {
    let clean = clean_dump();
    let clean_lines = clean.lines().count();
    // ≥10% garbage (6 of 28 lines), seeded — the injector reports the
    // exact 1-based line numbers it dirtied.
    let (dirty, injected) = inject::inject_garbage_lines(clean, SEED, 6);
    assert!(injected.len() * 10 >= dirty.lines().count());
    assert_eq!(dirty.lines().count(), clean_lines + injected.len());

    // Strict ingest aborts on the first garbage line, naming it.
    let mut strict = PlanCorpus::new();
    let err = convert::ingest_raw(&dirty, &mut strict, 4).unwrap_err();
    let msg = err.to_string();
    let first = injected.iter().min().expect("lines were injected");
    assert!(
        msg.contains(&format!("line {first}:")),
        "strict error {msg:?} must name the first injected line of {injected:?}"
    );

    // Lenient ingest skips exactly the injected lines...
    let quarantine = std::env::temp_dir().join(format!(
        "uplan_fault_injection_quarantine_{}.jsonl",
        std::process::id()
    ));
    let options = RawIngestOptions {
        quarantine: Some(quarantine.clone()),
        ..RawIngestOptions::lenient()
    };
    let mut lenient = PlanCorpus::new();
    let report = convert::ingest_raw_with(&dirty, &mut lenient, 4, &options).unwrap();
    assert_eq!(report.lines, clean_lines);
    let skipped: Vec<usize> = report.errors.iter().map(|e| e.line).collect();
    assert_eq!(
        skipped, injected,
        "error census must be exactly the injected lines"
    );

    // ...identically across thread counts and against the sequential
    // reference...
    let mut lenient_seq = PlanCorpus::new();
    let seq_report =
        convert::ingest_raw_sequential_with(&dirty, &mut lenient_seq, &options).unwrap();
    assert_eq!(report, seq_report);
    let mut lenient_one = PlanCorpus::new();
    let one_report = convert::ingest_raw_with(&dirty, &mut lenient_one, 1, &options).unwrap();
    assert_eq!(report, one_report);

    // ...and byte-identical to a strict ingest of the valid subset.
    let valid_subset: String = dirty
        .lines()
        .enumerate()
        .filter(|(i, _)| !injected.contains(&(i + 1)))
        .map(|(_, line)| format!("{line}\n"))
        .collect();
    let mut reference = PlanCorpus::new();
    let reference_report = convert::ingest_raw(&valid_subset, &mut reference, 4).unwrap();
    assert_eq!(reference_report.lines, clean_lines);
    assert_eq!(reference_report.census(), report.census());
    let bytes = encode_segment(&reference).unwrap();
    assert_eq!(encode_segment(&lenient).unwrap(), bytes);
    assert_eq!(encode_segment(&lenient_seq).unwrap(), bytes);
    assert_eq!(encode_segment(&lenient_one).unwrap(), bytes);

    // The quarantine file replays to the same failures: every record
    // fails again, none converts.
    let replay = std::fs::read_to_string(&quarantine).unwrap();
    let _ = std::fs::remove_file(&quarantine);
    assert_eq!(replay.lines().count(), injected.len());
    let mut empty = PlanCorpus::new();
    let replay_report =
        convert::ingest_raw_with(&replay, &mut empty, 2, &RawIngestOptions::lenient()).unwrap();
    assert_eq!(replay_report.lines, 0);
    assert_eq!(replay_report.errors.len(), injected.len());
    assert!(empty.is_empty());
}

#[test]
fn framed_encodings_of_the_dirty_dump_agree_with_jsonl() {
    // The same records under `---` separator framing ingest to the same
    // corpus and the same per-source census as the JSONL encoding.
    let clean = clean_dump();
    let (dirty, _) = inject::inject_garbage_lines(clean, SEED, 6);

    let mut jsonl = PlanCorpus::new();
    let jsonl_report =
        convert::ingest_raw_with(&dirty, &mut jsonl, 4, &RawIngestOptions::lenient()).unwrap();

    // Separator framing: a leading `---` selects the framing, then one
    // record per `---`-terminated frame.
    let separated: String = std::iter::once("---\n".to_owned())
        .chain(dirty.lines().map(|line| format!("{line}\n---\n")))
        .collect();
    assert_eq!(
        convert::sniff_framing(&separated),
        convert::RawFraming::Separator
    );
    let mut framed = PlanCorpus::new();
    let framed_report =
        convert::ingest_raw_with(&separated, &mut framed, 4, &RawIngestOptions::lenient()).unwrap();

    assert_eq!(framed_report.lines, jsonl_report.lines);
    assert_eq!(framed_report.errors.len(), jsonl_report.errors.len());
    assert_eq!(framed_report.census(), jsonl_report.census());
    assert_eq!(
        encode_segment(&framed).unwrap(),
        encode_segment(&jsonl).unwrap()
    );
}
