//! Deterministic TPC-H-derived plan populations for corpus benches/tests.
//!
//! The corpus benches need realistic plan *populations*, not 10k copies of
//! one plan: plans whose shapes cluster (so metric pruning has structure to
//! exploit) but vary (so the BK-tree is deep and dedup is partial). This
//! module derives them from the 44 TPC-H-lite plans (22 queries × the
//! PostgreSQL and TiDB profiles) by applying small structural mutations —
//! wrapper insertion, operator renames, leaf duplication/removal — exactly
//! the kinds of deltas neighboring optimizer decisions produce.
//!
//! Everything is seeded (splitmix64) so every run, machine and PR measures
//! the same population.

use minidb::profile::EngineProfile;
use uplan_core::{PlanNode, Property, UnifiedPlan};
use uplan_corpus::PlanCorpus;
use uplan_testing::pipeline::PlanPipeline;
use uplan_workloads::tpch;

/// splitmix64 — the fixture's only randomness source.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const WRAPPERS: [&str; 5] = ["Gather", "Collect", "Exchange", "Broadcast", "Spool"];
const RENAMES: [&str; 10] = [
    "Full_Table_Scan",
    "Index_Scan",
    "Hash_Join",
    "Merge_Join",
    "Nested_Loop",
    "Sort",
    "Aggregate",
    "Project",
    "Window_Op",
    "Top_N",
];

/// Applies `f` to the `n`-th node (pre-order) of the tree.
fn with_nth(node: &mut PlanNode, n: &mut usize, f: &mut impl FnMut(&mut PlanNode)) -> bool {
    if *n == 0 {
        f(node);
        return true;
    }
    *n -= 1;
    for child in &mut node.children {
        if with_nth(child, n, f) {
            return true;
        }
    }
    false
}

fn mutate(plan: &mut UnifiedPlan, rng: &mut u64) {
    let Some(root) = plan.root.as_mut() else {
        return;
    };
    let nodes = root.node_count();
    match next(rng) % 5 {
        // Wrap the root in a distribution-style executor.
        0 => {
            let wrapper = WRAPPERS[(next(rng) % WRAPPERS.len() as u64) as usize];
            let old = plan.root.take().unwrap();
            plan.root = Some(PlanNode::executor(wrapper).with_child(old));
        }
        // Rename one operator.
        1 => {
            let name = RENAMES[(next(rng) % RENAMES.len() as u64) as usize];
            let mut n = (next(rng) as usize) % nodes;
            with_nth(root, &mut n, &mut |node| {
                node.operation.identifier = uplan_core::Symbol::intern(name);
            });
        }
        // Duplicate a scan under one node.
        2 => {
            let mut n = (next(rng) as usize) % nodes;
            with_nth(root, &mut n, &mut |node| {
                node.children.push(PlanNode::producer("Full_Table_Scan"));
            });
        }
        // Drop a trailing leaf child, if the chosen node has one.
        3 => {
            let mut n = (next(rng) as usize) % nodes;
            with_nth(root, &mut n, &mut |node| {
                if node.children.last().is_some_and(|c| c.children.is_empty()) {
                    node.children.pop();
                }
            });
        }
        // Toggle a Configuration key (changes the fingerprint, not TED).
        _ => {
            let mut n = (next(rng) as usize) % nodes;
            with_nth(root, &mut n, &mut |node| {
                node.properties
                    .push(Property::configuration("filter", "c0 < 5"));
            });
        }
    }
}

/// Drops wall-clock properties (`*_time_ms`): they vary run to run and
/// would break the fixture's byte-for-byte determinism.
fn scrub_times(plan: &mut UnifiedPlan) {
    fn scrub_node(node: &mut PlanNode) {
        node.properties
            .retain(|p| !p.identifier.as_str().ends_with("_time_ms"));
        for child in &mut node.children {
            scrub_node(child);
        }
    }
    plan.properties
        .retain(|p| !p.identifier.as_str().ends_with("_time_ms"));
    if let Some(root) = plan.root.as_mut() {
        scrub_node(root);
    }
}

/// The 44 base plans: 22 TPC-H-lite queries through the PostgreSQL and
/// TiDB profiles of the unified pipeline (timing properties scrubbed).
pub fn tpch_base_plans() -> Vec<UnifiedPlan> {
    let mut bases = Vec::with_capacity(44);
    for profile in [EngineProfile::Postgres, EngineProfile::TiDb] {
        let mut db = tpch::relational(profile, 1);
        let mut pipeline = PlanPipeline::new();
        for (_, sql) in &tpch::queries() {
            let mut plan = pipeline.unified_plan(&mut db, sql).expect("tpch plan");
            scrub_times(&mut plan);
            bases.push(plan);
        }
    }
    bases
}

/// A deterministic stream of `count` TPC-H-derived plans (with fingerprint
/// duplicates, like a real campaign's observation stream).
pub fn derived_stream(count: usize, seed: u64) -> Vec<UnifiedPlan> {
    let bases = tpch_base_plans();
    let mut rng = seed;
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let mut plan = bases[i % bases.len()].clone();
        for _ in 0..next(&mut rng) % 4 {
            mutate(&mut plan, &mut rng);
        }
        out.push(plan);
    }
    out
}

/// A corpus holding at least `min_distinct` distinct TPC-H-derived plans
/// (generation tops itself up until the dedup count is reached).
pub fn derived_corpus(min_distinct: usize, seed: u64) -> PlanCorpus {
    let bases = tpch_base_plans();
    let mut corpus = PlanCorpus::new();
    let mut rng = seed;
    let mut i = 0usize;
    while corpus.len() < min_distinct {
        let mut plan = bases[i % bases.len()].clone();
        i += 1;
        for _ in 0..next(&mut rng) % 4 {
            mutate(&mut plan, &mut rng);
        }
        corpus.insert(plan);
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use uplan_corpus::{QueryOutcome, QueryRequest};

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
            let scanned = corpus.scan_nearest(probe, 5);
            let dist = |m: &uplan_corpus::Matches| m.iter().map(|&(_, d)| d).collect::<Vec<_>>();
            assert_eq!(dist(&matches(&indexed)), dist(&scanned.matches));
            bk_evals += indexed.cost.ted_evals;
            scan_evals += scanned.ted_evals;

            let indexed = corpus
                .execute(&QueryRequest::radius(2).with_probe(probe.clone()))
                .unwrap();
            let scanned = corpus.scan_within_radius(probe, 2);
            assert_eq!(matches(&indexed), scanned.matches);
            bk_evals += indexed.cost.ted_evals;
            scan_evals += scanned.ted_evals;
        }
        assert!(
            bk_evals * 10 <= scan_evals,
            "BK-tree spent {bk_evals} TED evals vs {scan_evals} for scans — pruning below 10x"
        );
    }

    #[test]
    fn early_exit_kernel_is_invisible_to_exact_queries() {
        // The kernel contract, enforced on the TPC-H-derived population:
        // exact queries answer with the same matches and the same
        // evaluation *starts* whether pruned-but-visited nodes run the
        // full dynamic program (`*_reference`, kernel off) or the banded
        // early-exit one (the production path). The only difference the
        // kernel may make is how many of those starts it abandoned.
        let corpus = derived_corpus(600, 0xeef1);
        let matches = |r: &uplan_corpus::QueryResponse| match &r.outcome {
            QueryOutcome::Matches(m) => m.clone(),
            other => panic!("metric query answered {other:?}"),
        };
        let mut savings = 0u64;
        for probe in derived_stream(12, 0xb0b) {
            let knn = corpus
                .execute(&QueryRequest::knn(5).with_probe(probe.clone()))
                .unwrap();
            let reference = corpus.knn_query_reference(&probe, 5);
            assert_eq!(matches(&knn), reference.matches);
            assert_eq!(knn.cost.ted_evals, reference.ted_evals);
            assert_eq!(reference.partial_evals, 0);
            savings += knn.cost.partial_evals;

            let radius = corpus
                .execute(&QueryRequest::radius(2).with_probe(probe.clone()))
                .unwrap();
            let reference = corpus.radius_query_reference(&probe, 2);
            assert_eq!(matches(&radius), reference.matches);
            assert_eq!(radius.cost.ted_evals, reference.ted_evals);
            assert_eq!(reference.partial_evals, 0);
            savings += radius.cost.partial_evals;
        }
        assert!(
            savings > 0,
            "the early-exit kernel never abandoned a single evaluation"
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
