//! Deterministic TPC-H-derived plan populations for the corpus benches and
//! tests: the seeded generator of [`uplan_testing::fixtures`], re-exported
//! under the path the benches, `perfbench/` and the integration tests use.

pub use uplan_testing::fixtures::{derived_corpus, derived_plans, derived_stream};

#[cfg(test)]
mod tests {
    use super::*;
    use uplan_corpus::{PlanCorpus, QueryOutcome, QueryRequest};
    use uplan_testing::scan::{scan_nearest, scan_within_radius};

    #[test]
    fn streams_are_deterministic_and_diverse() {
        let a = derived_stream(200, 7);
        let b = derived_stream(200, 7);
        assert_eq!(a, b);
        let mut corpus = PlanCorpus::new();
        for plan in &a {
            corpus.observe(plan);
        }
        assert!(
            corpus.len() > 60 && corpus.duplicates() > 10,
            "distinct {} duplicates {}",
            corpus.len(),
            corpus.duplicates()
        );
    }

    #[test]
    fn derived_corpus_reaches_target() {
        let corpus = derived_corpus(150, 11);
        assert!(corpus.len() >= 150);
    }

    #[test]
    fn indexed_load_is_ted_free_at_fixture_scale() {
        // The acceptance bar of the persisted index, enforced on *counted*
        // TED evaluations: opening a segment store spends zero, while
        // answering queries exactly like the corpus that built its index
        // insert by insert. (`corpus/open_segmented_100k` times the same
        // open at 100k; the smaller population keeps debug-mode tier-1
        // fast.)
        let corpus = derived_corpus(800, 0x1dee);
        assert!(corpus.index_evals() > 0);
        let dir = std::env::temp_dir().join(format!("uplan-fixture-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        uplan_corpus::SegmentStore::create(&dir, corpus.clone()).unwrap();
        let loaded = uplan_corpus::SegmentStore::open(&dir)
            .unwrap()
            .into_corpus();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            loaded.index_evals(),
            0,
            "indexed load must not evaluate TED"
        );
        assert!(loaded.has_persisted_index());
        assert_eq!(loaded.len(), corpus.len());
        for probe in derived_stream(8, 4242) {
            let knn = QueryRequest::knn(5).with_probe(probe.clone());
            let radius = QueryRequest::radius(2).with_probe(probe);
            assert_eq!(corpus.execute(&knn).unwrap(), loaded.execute(&knn).unwrap());
            assert_eq!(
                corpus.execute(&radius).unwrap(),
                loaded.execute(&radius).unwrap()
            );
        }
    }

    #[test]
    fn parallel_ingest_is_thread_count_invariant_on_the_tpch_stream() {
        // The other acceptance bar: 1-thread and 4-thread ingest of the
        // TPC-H-derived stream produce byte-identical corpora (the CI
        // corpus-scale job re-checks this at 10k plans in release mode).
        let stream = derived_stream(1200, 0x5eed_cafe);
        let mut one = PlanCorpus::new();
        let novel_one = one.ingest_parallel(&stream, 1);
        let mut four = PlanCorpus::new();
        let novel_four = four.ingest_parallel(&stream, 4);
        assert_eq!(novel_one, novel_four);
        assert_eq!(one.stats(), four.stats());
        assert_eq!(
            uplan_corpus::encode_segment(&one).unwrap(),
            uplan_corpus::encode_segment(&four).unwrap()
        );
    }

    #[test]
    fn bk_tree_prunes_at_least_ten_x_on_tpch_derived_corpus() {
        // The acceptance bar of the corpus index, enforced on *counted* TED
        // evaluations (not timings): metric queries must beat brute-force
        // scans by ≥10×. Pruning ratios only grow with corpus size (the
        // 10k-plan bench prints ~40×), so the smaller debug-friendly
        // population here is the conservative check.
        let corpus = derived_corpus(1000, 0x7ab1e);
        let probes = derived_stream(24, 99);
        let mut bk_evals = 0u64;
        let mut scan_evals = 0u64;
        let matches = |r: &uplan_corpus::QueryResponse| match &r.outcome {
            QueryOutcome::Matches(m) => m.clone(),
            other => panic!("metric query answered {other:?}"),
        };
        for probe in &probes {
            let indexed = corpus
                .execute(&QueryRequest::knn(5).with_probe(probe.clone()))
                .unwrap();
            let (scanned, evals) = scan_nearest(corpus.iter(), probe, 5);
            let dist = |m: &uplan_corpus::Matches| m.iter().map(|&(_, d)| d).collect::<Vec<_>>();
            assert_eq!(dist(&matches(&indexed)), dist(&scanned));
            bk_evals += indexed.cost.ted_evals;
            scan_evals += evals;

            let indexed = corpus
                .execute(&QueryRequest::radius(2).with_probe(probe.clone()))
                .unwrap();
            let (scanned, evals) = scan_within_radius(corpus.iter(), probe, 2);
            assert_eq!(matches(&indexed), scanned);
            bk_evals += indexed.cost.ted_evals;
            scan_evals += evals;
        }
        assert!(
            bk_evals * 10 <= scan_evals,
            "BK-tree spent {bk_evals} TED evals vs {scan_evals} for scans — pruning below 10x"
        );
    }

    #[test]
    fn approximate_knn_recalls_most_exact_neighbors() {
        // Debug-scale sibling of the release-mode `repro corpus recall` CI
        // gate: at the default candidate count, approximate k-NN must find
        // ≥ 0.95 of the exact neighbor distance multiset while spending
        // several times fewer *full* TED evaluations.
        let corpus = derived_corpus(800, 0xacc1);
        let probes = derived_stream(16, 0x5ca1e);
        let mut hit = 0usize;
        let mut wanted = 0usize;
        let mut exact_full = 0u64;
        let mut approx_full = 0u64;
        let matches = |r: &uplan_corpus::QueryResponse| match &r.outcome {
            QueryOutcome::Matches(m) => m.clone(),
            other => panic!("metric query answered {other:?}"),
        };
        for probe in &probes {
            let exact = corpus
                .execute(&QueryRequest::knn(5).with_probe(probe.clone()))
                .unwrap();
            let approx = corpus
                .execute(&QueryRequest::knn(5).with_probe(probe.clone()).approx(0))
                .unwrap();
            let mut exact_d: Vec<u32> = matches(&exact).iter().map(|&(_, d)| d).collect();
            let approx_m = matches(&approx);
            wanted += exact_d.len();
            for &(_, d) in &approx_m {
                if let Some(pos) = exact_d.iter().position(|&e| e == d) {
                    exact_d.remove(pos);
                    hit += 1;
                }
            }
            exact_full += exact.cost.full_evals();
            approx_full += approx.cost.full_evals();
        }
        let recall = hit as f64 / wanted as f64;
        assert!(
            recall >= 0.95,
            "approx recall {recall:.3} below 0.95 ({hit}/{wanted})"
        );
        assert!(
            approx_full * 2 <= exact_full,
            "approx spent {approx_full} full evals vs {exact_full} exact — shortlist not paying off"
        );
    }
}
