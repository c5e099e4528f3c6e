//! End-to-end observability: the `/metrics` exposition of a live daemon
//! state and the process-global ingest instrumentation, exercised through
//! the public facade the way an operator's scrape job would see them.
//!
//! Two contracts pinned here:
//!
//! 1. **Per-state exactness** — HTTP request counters live on the
//!    [`ServeMetrics`] instance registry, so a state's exposition reports
//!    exactly the requests *that state* served (other states in the same
//!    process do not bleed in), and a `/metrics` scrape never counts
//!    itself in the body it returns.
//! 2. **Global ingest deltas** — `convert::ingest_raw` advances the
//!    process-global counters by exactly the records it converted, with
//!    lenient-mode skips attributed per pipeline stage.
//! 3. **Global decode deltas** — a lazily opened segment store counts
//!    each view decode, full-plan decode and block verification once per
//!    process: epoch merges never make a repeated query decode again, and
//!    the query path decodes no full plan.
//!
//! [`ServeMetrics`]: uplan::serve::ServeMetrics

use std::sync::Arc;

use uplan::convert::{ingest_raw, ingest_raw_with, RawIngestOptions};
use uplan::corpus::{
    CorpusService, PlanCorpus, QueryRequest, SegmentStore, DEFAULT_PENDING_CAPACITY,
};
use uplan::serve::http::HttpRequest;
use uplan::serve::{handle, ServeState};
use uplan::testing::fixtures::{raw_dump_line, DialectFleet};
use uplan_bench::corpus_fixture;

fn get(path: &str) -> HttpRequest {
    HttpRequest {
        method: "GET".into(),
        path: path.into(),
        query: Vec::new(),
        body: Vec::new(),
    }
}

/// Current value of a global counter, zero when nothing registered it yet.
fn global_counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    uplan::obs::global()
        .find_counter(name, labels)
        .map_or(0, |c| c.get())
}

/// Serializes the tests of this binary: each one offers plans to a corpus,
/// and the process-global counters' exact deltas hold only while no other
/// test moves them.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the unit it guards carries no state.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn a_state_exposes_exactly_the_requests_it_served() {
    let _serial = serial();
    let corpus = corpus_fixture::derived_corpus(60, 0x0b5e_0001);
    let state = ServeState::new(corpus, DEFAULT_PENDING_CAPACITY, 2);
    let service = Arc::clone(state.service());
    let mut reader = service.reader();

    let probe = uplan::core::formats::unified::to_json(&corpus_fixture::derived_stream(1, 0x9e)[0]);
    let knn = HttpRequest {
        method: "POST".into(),
        path: "/knn".into(),
        query: Vec::new(),
        body: format!("{{\"k\": 3, \"probe\": {probe}}}").into_bytes(),
    };
    for _ in 0..2 {
        let response = handle(&state, &mut reader, &knn);
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(
            response.request_id.is_some(),
            "every response carries an id"
        );
    }
    // One approximate k-NN: exercises the candidate-set histogram (exact
    // queries never record it) and answers with the cost breakdown.
    let approx = HttpRequest {
        method: "POST".into(),
        path: "/knn".into(),
        query: Vec::new(),
        body: format!("{{\"k\": 3, \"mode\": \"approx\", \"probe\": {probe}}}").into_bytes(),
    };
    let response = handle(&state, &mut reader, &approx);
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(
        response.body.contains("\"cost\"") && response.body.contains("\"candidates_considered\""),
        "{}",
        response.body
    );
    let stats = handle(&state, &mut reader, &get("/stats"));
    assert_eq!(stats.status, 200, "{}", stats.body);

    // First scrape: exact counts for what was served, and the scrape body
    // is rendered before the scrape itself is recorded.
    let scrape = handle(&state, &mut reader, &get("/metrics"));
    assert_eq!(scrape.status, 200);
    assert_eq!(scrape.content_type, "text/plain; version=0.0.4");
    let body = &scrape.body;
    assert!(body.contains("uplan_http_requests_total{endpoint=\"knn\"} 3"));
    assert!(body.contains("uplan_http_requests_total{endpoint=\"stats\"} 1"));
    assert!(body.contains("uplan_http_requests_total{endpoint=\"metrics\"} 0"));
    assert!(body.contains("uplan_http_request_latency_us_count{endpoint=\"knn\"} 3"));
    assert!(body.contains("uplan_build_info{"));
    assert!(body.contains("uplan_uptime_seconds"));
    // The query-cost families from the process-global section: partial
    // evaluations (early-exit kernel savings) are registered per query
    // kind, and the candidate-set histogram recorded the one approximate
    // request this binary made (exact queries never record it).
    assert!(body.contains("uplan_query_partial_evals_total{kind=\"knn\"}"));
    assert!(body.contains("uplan_query_candidate_set_size_count{kind=\"knn\"} 1"));
    assert!(body.contains("uplan_query_candidate_set_size_count{kind=\"radius\"} 0"));
    // (The process-global section rides along in the same exposition;
    // its families appear once something registers them — the daemon
    // round-trip test in uplan-serve pins that concatenation.)

    // Second scrape observes the first.
    let scrape = handle(&state, &mut reader, &get("/metrics"));
    assert!(scrape
        .body
        .contains("uplan_http_requests_total{endpoint=\"metrics\"} 1"));

    // A second state in the same process starts from zero: HTTP series
    // are per-instance, not process-global.
    let other = ServeState::new(corpus_fixture::derived_corpus(10, 0x0b5e_0002), 8, 1);
    assert_eq!(other.metrics().requests(), 0);
    assert!(other
        .metrics()
        .registry()
        .encode_prometheus()
        .contains("uplan_http_requests_total{endpoint=\"knn\"} 0"));
}

#[test]
fn ingest_advances_the_global_counters_by_exact_deltas() {
    let _serial = serial();
    let mut fleet = DialectFleet::new();
    let records: Vec<(uplan::convert::Source, String)> = fleet.relational(3, 17);
    let lines = records.len() as u64;
    let first_source = records[0].0;
    let dump: String = records
        .iter()
        .map(|(source, text)| raw_dump_line(*source, text))
        .collect::<Vec<_>>()
        .join("\n");

    let records_before = global_counter("uplan_ingest_records_total", &[]);
    let batches_before = global_counter("uplan_ingest_batches_total", &[]);
    let source_before = global_counter(
        "uplan_convert_records_total",
        &[("source", first_source.name())],
    );

    let mut corpus = PlanCorpus::new();
    let report = ingest_raw(&dump, &mut corpus, 2).expect("clean fixture dump ingests");
    assert_eq!(report.lines as u64, lines);

    // This test is the only ingest caller in this binary, so the deltas
    // are exact (test binaries are separate processes).
    assert_eq!(
        global_counter("uplan_ingest_records_total", &[]) - records_before,
        lines
    );
    assert!(global_counter("uplan_ingest_batches_total", &[]) > batches_before);
    assert!(
        global_counter(
            "uplan_convert_records_total",
            &[("source", first_source.name())]
        ) > source_before
    );

    // A lenient ingest of garbage lands in the skip counters (attributed
    // to the rejecting pipeline stage) and, with a quarantine file set,
    // in the quarantine counter.
    let kinds = ["frame", "classify", "convert"];
    let skipped_before: Vec<u64> = kinds
        .iter()
        .map(|&k| global_counter("uplan_ingest_skipped_total", &[("kind", k)]))
        .collect();
    let quarantined_before = global_counter("uplan_ingest_quarantined_total", &[]);
    let quarantine =
        std::env::temp_dir().join(format!("{}_obs_quarantine.jsonl", std::process::id()));
    let dirty = format!("{dump}\nnot a raw dump record at all");
    let options = RawIngestOptions {
        quarantine: Some(quarantine.clone()),
        ..RawIngestOptions::lenient()
    };
    let report = ingest_raw_with(&dirty, &mut PlanCorpus::new(), 2, &options)
        .expect("lenient mode skips the garbage line");
    std::fs::remove_file(&quarantine).ok();
    assert_eq!(report.errors.len(), 1);
    let rejected_by = report.errors[0].kind.name();
    for (&kind, &before) in kinds.iter().zip(&skipped_before) {
        let delta = global_counter("uplan_ingest_skipped_total", &[("kind", kind)]) - before;
        assert_eq!(delta, u64::from(kind == rejected_by), "kind {kind}");
    }
    assert_eq!(
        global_counter("uplan_ingest_quarantined_total", &[]) - quarantined_before,
        1
    );

    // The exposition carries the ingest families.
    let text = uplan::obs::global().encode_prometheus();
    assert!(text.contains("# TYPE uplan_ingest_records_total counter\n"));
    assert!(text.contains("# TYPE uplan_ingest_batch_records histogram\n"));
}

#[test]
fn lazy_decodes_are_counted_once_per_process() {
    let _serial = serial();
    const DECODED: &str = "uplan_store_plans_decoded_total";
    const VERIFIED: &str = "uplan_store_blocks_verified_total";
    let dir = std::env::temp_dir().join(format!("{}_obs_store", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Under 256 plans: one segment of exactly one checksum block.
    let seed = corpus_fixture::derived_corpus(120, 0x0b5e_0003);
    assert!(seed.len() < 256);
    SegmentStore::create(&dir, seed).unwrap();

    // Every segment-store user in this binary holds `serial()`, so the
    // deltas are exact.
    let decoded_before = global_counter(DECODED, &[]);
    let verified_before = global_counter(VERIFIED, &[]);
    let service =
        CorpusService::with_store(SegmentStore::open(&dir).unwrap(), DEFAULT_PENDING_CAPACITY);
    assert_eq!(
        global_counter(DECODED, &[]),
        decoded_before,
        "open decodes nothing"
    );

    let stream = corpus_fixture::derived_stream(40, 0x9e);
    let knn = QueryRequest::knn(5).with_probe(stream[0].clone());
    let first = service.snapshot().execute(&knn).unwrap();
    let touched = service.snapshot().corpus().decoded_plans() as u64;
    assert!(touched > 0);
    assert_eq!(global_counter(DECODED, &[]) - decoded_before, touched);
    assert_eq!(global_counter(VERIFIED, &[]) - verified_before, 1);

    // The merge's BK inserts decode whatever routing touches; the plans
    // it stores are eager, so the snapshot's decoded count minus the
    // novel plans is exactly the lazy decodes so far.
    service.submit(stream[1..].to_vec()).unwrap();
    let report = service.merge(2);
    let lazy_decoded = service.snapshot().corpus().decoded_plans() - report.novel;
    assert_eq!(
        global_counter(DECODED, &[]) - decoded_before,
        lazy_decoded as u64
    );

    // The same query on the new epoch decodes nothing it decoded before.
    let decoded = global_counter(DECODED, &[]);
    let again = service.snapshot().execute(&knn).unwrap();
    assert_eq!(global_counter(DECODED, &[]), decoded);
    assert_eq!(global_counter(VERIFIED, &[]) - verified_before, 1);
    assert_eq!(again.epoch, Some(first.epoch.unwrap() + 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_query_path_decodes_views_and_no_full_plan() {
    let _serial = serial();
    const VIEWS: &str = "uplan_store_plans_decoded_total";
    const FULL: &str = "uplan_store_full_plans_decoded_total";
    let root = std::env::temp_dir().join(format!("{}_obs_views", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (dir, other_dir) = (root.join("served"), root.join("other"));
    // More than one checksum block.
    let mut in_ram = corpus_fixture::derived_corpus(600, 0x0b5e_0005);
    SegmentStore::create(&dir, in_ram.clone()).unwrap();
    let other_in_ram = corpus_fixture::derived_corpus(80, 0x0b5e_0006);
    SegmentStore::create(&other_dir, other_in_ram.clone()).unwrap();
    let (views_before, full_before) = (global_counter(VIEWS, &[]), global_counter(FULL, &[]));
    let service =
        CorpusService::with_store(SegmentStore::open(&dir).unwrap(), DEFAULT_PENDING_CAPACITY);

    let stream = corpus_fixture::derived_stream(60, 0x5eed);
    let knn = QueryRequest::knn(5).with_probe(stream[0].clone());
    for request in [
        knn.clone(),
        QueryRequest::radius(2).with_probe(stream[1].clone()),
        QueryRequest::cluster(1),
    ] {
        let lazy = service.snapshot().corpus().execute(&request).unwrap();
        assert_eq!(lazy, in_ram.execute(&request).unwrap(), "{request:?}");
    }
    let touched = service.snapshot().corpus().decoded_plans() as u64;
    assert!(touched > 0);
    assert_eq!(global_counter(VIEWS, &[]) - views_before, touched);

    // The merge's BK inserts read views; the plans it stores are eager.
    service.submit(stream[2..].to_vec()).unwrap();
    let report = service.merge(2);
    assert!(report.novel > 0);
    in_ram.ingest_parallel(&stream[2..], 2);
    let again = service.snapshot().corpus().execute(&knn).unwrap();
    assert_eq!(again, in_ram.execute(&knn).unwrap());
    // A diff of two lazily opened stores probes with their views too.
    let other = SegmentStore::open(&other_dir).unwrap().into_corpus();
    let snapshot = service.snapshot();
    for radius in [0, 2] {
        let diff = snapshot.corpus().diff(&other, radius);
        assert!(!diff.fingerprint_only_left.is_empty() && !diff.fingerprint_only_right.is_empty());
        assert_eq!(diff, in_ram.diff(&other_in_ram, radius));
    }
    let lazy_decoded = snapshot.corpus().decoded_plans() - report.novel + other.decoded_plans();
    assert_eq!(
        global_counter(VIEWS, &[]) - views_before,
        lazy_decoded as u64
    );
    assert_eq!(
        global_counter(FULL, &[]),
        full_before,
        "a query decoded a full plan"
    );

    // Full plans still decode on demand, and equal the ingested plans.
    for (id, plan) in in_ram.iter() {
        assert_eq!(snapshot.corpus().plan(id), plan);
    }
    assert_eq!(
        global_counter(FULL, &[]) - full_before,
        (in_ram.len() - report.novel) as u64
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_corpus_entry_counts_each_offered_plan_once() {
    const OBSERVED: &str = "uplan_corpus_observed_total";
    let _serial = serial();
    let plans = corpus_fixture::derived_stream(5, 0x0b5e_0004);
    let mut corpus = PlanCorpus::new();
    let mut before = global_counter(OBSERVED, &[]);
    let mut delta = || {
        let now = global_counter(OBSERVED, &[]);
        now - std::mem::replace(&mut before, now)
    };
    // Novel and duplicate offers count alike, through every entry.
    assert!(corpus.observe(&plans[0]));
    assert!(!corpus.observe(&plans[0]));
    assert_eq!(delta(), 2, "observe");
    assert!(corpus.insert(plans[1].clone()).is_some());
    assert!(corpus.insert(plans[1].clone()).is_none());
    assert_eq!(delta(), 2, "insert");
    assert!(corpus.observe_novel(&plans[2], 1));
    assert!(!corpus.observe_novel(&plans[2], 1));
    assert_eq!(delta(), 2, "observe_novel");
    corpus.ingest_parallel(&plans, 2);
    assert_eq!(delta(), plans.len() as u64, "ingest_parallel");
    assert_eq!(corpus.observed(), 6 + plans.len() as u64);
}
