//! Property-based tests on the unified representation's invariants.

use proptest::prelude::*;
use uplan::core::fingerprint::fingerprint;
use uplan::core::{
    OperationCategory, PlanNode, Property, PropertyCategory, Symbol, UnifiedPlan, Value,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks equality-based round-trip checks.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 _.<>=()'%-]{0,24}".prop_map(Value::Str),
    ]
}

fn arb_op_category() -> impl Strategy<Value = OperationCategory> {
    prop_oneof![
        Just(OperationCategory::Producer),
        Just(OperationCategory::Combinator),
        Just(OperationCategory::Join),
        Just(OperationCategory::Folder),
        Just(OperationCategory::Projector),
        Just(OperationCategory::Executor),
        Just(OperationCategory::Consumer),
        // Extension categories must not collide with canonical spellings,
        // or parsing canonicalizes them and round-trip equality fails.
        "[A-Z][a-zA-Z0-9_]{0,8}"
            .prop_filter("not a canonical category", |s| {
                OperationCategory::CANONICAL.iter().all(|c| c.name() != s)
            })
            .prop_map(|s| OperationCategory::Extension(Symbol::intern(&s))),
    ]
}

fn arb_prop_category() -> impl Strategy<Value = PropertyCategory> {
    prop_oneof![
        Just(PropertyCategory::Cardinality),
        Just(PropertyCategory::Cost),
        Just(PropertyCategory::Configuration),
        Just(PropertyCategory::Status),
    ]
}

fn arb_property() -> impl Strategy<Value = Property> {
    (arb_prop_category(), "[a-z][a-z0-9_]{0,12}", arb_value()).prop_map(
        |(category, identifier, value)| Property {
            category,
            identifier: Symbol::intern(&identifier),
            value,
        },
    )
}

fn arb_node() -> impl Strategy<Value = PlanNode> {
    let leaf = (
        arb_op_category(),
        "[A-Z][a-zA-Z0-9_]{0,16}",
        prop::collection::vec(arb_property(), 0..4),
    )
        .prop_map(|(category, identifier, properties)| PlanNode {
            operation: uplan::core::Operation {
                category,
                identifier: Symbol::intern(&identifier),
            },
            properties,
            children: Vec::new(),
        });
    leaf.prop_recursive(4, 24, 3, |inner| {
        (
            arb_op_category(),
            "[A-Z][a-zA-Z0-9_]{0,16}",
            prop::collection::vec(arb_property(), 0..4),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(category, identifier, properties, children)| PlanNode {
                operation: uplan::core::Operation {
                    category,
                    identifier: Symbol::intern(&identifier),
                },
                properties,
                children,
            })
    })
}

fn arb_plan() -> impl Strategy<Value = UnifiedPlan> {
    (
        prop::option::of(arb_node()),
        prop::collection::vec(arb_property(), 0..4),
    )
        .prop_map(|(root, properties)| UnifiedPlan { root, properties })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The strict grammar round-trips every representable plan.
    #[test]
    fn strict_text_round_trips(plan in arb_plan()) {
        let text = uplan::core::text::to_text(&plan);
        let parsed = uplan::core::text::from_text(&text).unwrap();
        prop_assert_eq!(parsed, plan);
    }

    /// The unified JSON schema round-trips every representable plan.
    #[test]
    fn json_round_trips(plan in arb_plan()) {
        let json = uplan::core::formats::unified::to_json(&plan);
        let parsed = uplan::core::formats::unified::from_json(&json).unwrap();
        prop_assert_eq!(parsed, plan);
    }

    /// The XML schema round-trips every representable plan.
    #[test]
    fn xml_round_trips(plan in arb_plan()) {
        let xml = uplan::core::formats::unified::to_xml(&plan);
        let parsed = uplan::core::formats::unified::from_xml(&xml).unwrap();
        prop_assert_eq!(parsed, plan);
    }

    /// The verbose display format round-trips every representable plan.
    #[test]
    fn display_round_trips(plan in arb_plan()) {
        let text = uplan::core::display::to_display_verbose(&plan);
        let parsed = uplan::core::display::from_display(&text).unwrap();
        prop_assert_eq!(parsed, plan);
    }

    /// The binary codec round-trips every representable plan, agrees plan-
    /// for-plan with the JSON round-trip, and preserves fingerprints — the
    /// "binary round-trip ≡ JSON round-trip" contract a persisted corpus
    /// depends on. The plan goes through a real segment: encoded by
    /// `SegmentBuilder`, parsed, block-verified and decoded at its offset.
    #[test]
    fn binary_round_trip_equals_json_round_trip(plan in arb_plan()) {
        use uplan::core::formats::segment::{
            decode_plan_at, parse_segment, verify_block, SegmentBuilder, SegmentFinish,
            SegmentShardEdges,
        };
        let mut builder = SegmentBuilder::new(&[]);
        builder.push(&plan).unwrap();
        let (bytes, delta) = builder.finish(&SegmentFinish {
            id: 0,
            fingerprint_flags: 0,
            shard_count: 1,
            fingerprints: vec![fingerprint(&plan).0],
            feature_dim: 1,
            features: vec![0],
            operations: plan.operation_count() as u64,
            max_depth: plan.root.as_ref().map_or(0, |r| r.depth() as u32),
            shards: vec![SegmentShardEdges { base: 0, count: 1, edges: Vec::new() }],
        });
        let view = parse_segment(&bytes).unwrap();
        prop_assert_eq!(&view.delta, &delta);
        verify_block(&bytes, view.blocks[0]).unwrap();
        let decoded =
            decode_plan_at(&bytes, view.plan_offsets[0], view.plan_lens[0], &delta).unwrap();
        prop_assert_eq!(&decoded, &plan);
        let json = uplan::core::formats::unified::to_json(&plan);
        let from_json = uplan::core::formats::unified::from_json(&json).unwrap();
        prop_assert_eq!(&decoded, &from_json);
        prop_assert_eq!(fingerprint(&decoded), fingerprint(&plan));
    }

    /// A corpus round-trips through its segment bytes and through plan
    /// JSON lines (the `/diff` interchange format) with plan order,
    /// contents and fingerprints intact.
    #[test]
    fn corpus_persistence_round_trips(plans in prop::collection::vec(arb_plan(), 0..24)) {
        use uplan::core::formats::segment::{decode_plan_at, parse_segment};
        let mut corpus = uplan::corpus::PlanCorpus::new();
        for plan in &plans {
            corpus.observe(plan);
        }
        let segment = uplan::corpus::encode_segment(&corpus).unwrap();
        let view = parse_segment(&segment).unwrap();
        prop_assert_eq!(view.plan_count as usize, corpus.len());
        let text: String = corpus
            .iter()
            .map(|(_, plan)| uplan::core::formats::unified::to_json_value(plan).to_compact() + "\n")
            .collect();
        let jsonl = uplan::corpus::PlanCorpus::from_jsonl_with_options(
            &text,
            uplan::core::fingerprint::FingerprintOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(jsonl.len(), corpus.len());
        for (id, plan) in corpus.iter() {
            let decoded =
                decode_plan_at(&segment, view.plan_offsets[id], view.plan_lens[id], &view.delta)
                    .unwrap();
            prop_assert_eq!(&decoded, plan);
            prop_assert_eq!(jsonl.plan(id), plan);
            prop_assert_eq!(view.fingerprints[id], corpus.fingerprint(id).0);
            prop_assert_eq!(jsonl.fingerprint(id), corpus.fingerprint(id));
        }
    }

    /// A corpus persisted as a segment store reopens with zero TED
    /// evaluations, and the adopted index answers queries exactly like the
    /// index it was persisted from — same matches, same counted
    /// evaluations.
    #[test]
    fn indexed_corpus_round_trips_with_zero_load_evals(
        plans in prop::collection::vec(arb_plan(), 0..24),
        radius in 0u32..4,
        k in 1usize..6,
    ) {
        let mut corpus = uplan::corpus::PlanCorpus::new();
        for plan in &plans {
            corpus.observe(plan);
        }
        let dir = std::env::temp_dir()
            .join(format!("uplan_property_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        uplan::corpus::SegmentStore::create(&dir, corpus.clone()).unwrap();
        let loaded = uplan::corpus::SegmentStore::open(&dir).unwrap().into_corpus();
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(loaded.index_evals(), 0);
        prop_assert_eq!(loaded.len(), corpus.len());
        prop_assert!(loaded.has_persisted_index());
        for (id, plan) in corpus.iter() {
            prop_assert_eq!(loaded.plan(id), plan);
            prop_assert_eq!(loaded.fingerprint(id), corpus.fingerprint(id));
        }
        for probe in plans.iter().take(4) {
            let within = uplan::corpus::QueryRequest::radius(radius).with_probe(probe.clone());
            let knn = uplan::corpus::QueryRequest::knn(k).with_probe(probe.clone());
            prop_assert_eq!(
                corpus.execute(&within).unwrap(),
                loaded.execute(&within).unwrap()
            );
            prop_assert_eq!(corpus.execute(&knn).unwrap(), loaded.execute(&knn).unwrap());
        }
    }

    /// Fingerprints are a function of structure: serialization and
    /// re-parsing never change them, and Cost/Cardinality/Status values
    /// never affect them.
    #[test]
    fn fingerprints_survive_round_trips_and_ignore_volatile_values(
        plan in arb_plan(),
        noise in any::<i64>(),
    ) {
        let original = fingerprint(&plan);
        let text = uplan::core::text::to_text(&plan);
        let reparsed = uplan::core::text::from_text(&text).unwrap();
        prop_assert_eq!(fingerprint(&reparsed), original);

        // Perturb every volatile property value.
        let mut noisy = plan.clone();
        fn perturb(node: &mut PlanNode, noise: i64) {
            for p in &mut node.properties {
                if matches!(
                    p.category,
                    PropertyCategory::Cardinality | PropertyCategory::Cost | PropertyCategory::Status
                ) {
                    p.value = Value::Int(noise);
                }
            }
            for child in &mut node.children {
                perturb(child, noise);
            }
        }
        if let Some(root) = &mut noisy.root {
            perturb(root, noise);
        }
        prop_assert_eq!(fingerprint(&noisy), original);
    }

    /// Tree edit distance is a metric-ish similarity: identity ⇒ 0,
    /// symmetric, and bounded by the larger plan size.
    #[test]
    fn tree_edit_distance_properties(a in arb_plan(), b in arb_plan()) {
        let d_aa = uplan::core::ted::tree_edit_distance(&a, &a.clone());
        prop_assert_eq!(d_aa, 0);
        let d_ab = uplan::core::ted::tree_edit_distance(&a, &b);
        let d_ba = uplan::core::ted::tree_edit_distance(&b, &a);
        prop_assert_eq!(d_ab, d_ba);
        prop_assert!(d_ab <= a.operation_count() + b.operation_count());
        let s = uplan::core::ted::similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    /// The early-exit kernel is a faithful refinement of the full one: it
    /// returns the exact distance whenever the true distance is within the
    /// bound, and `Exceeded` otherwise — never a wrong number, never a
    /// false exceed.
    #[test]
    fn bounded_ted_refines_full_ted(a in arb_plan(), b in arb_plan(), bound in 0usize..24) {
        use uplan::core::ted::{tree_edit_distance_bounded, BoundedTed};
        let exact = uplan::core::ted::tree_edit_distance(&a, &b);
        let got = tree_edit_distance_bounded(&a, &b, bound);
        if exact <= bound {
            prop_assert_eq!(got, BoundedTed::Exact(exact));
        } else {
            prop_assert_eq!(got, BoundedTed::Exceeded);
        }
    }

    /// Category census totals always equal the node count.
    #[test]
    fn census_total_equals_node_count(plan in arb_plan()) {
        let counts = uplan::core::stats::CategoryCounts::of(&plan);
        prop_assert_eq!(counts.total(), plan.operation_count());
    }

    /// Interning round-trips arbitrary valid keywords: the symbol's
    /// spelling is the input, re-interning is idempotent, and distinct
    /// spellings get distinct symbols.
    #[test]
    fn interning_round_trips_keywords(kw in "[a-zA-Z][a-zA-Z0-9_]{0,24}") {
        let symbol = Symbol::intern(&kw);
        prop_assert_eq!(symbol.as_str(), kw.as_str());
        prop_assert_eq!(Symbol::intern(&kw), symbol);
        prop_assert_eq!(Symbol::get(&kw), Some(symbol));
        let other = Symbol::intern(&format!("{kw}_x"));
        prop_assert_ne!(other, symbol);
        prop_assert_eq!(other.stable(), other); // `_x` is not a digit suffix
        let suffixed = Symbol::intern(&format!("{kw}_17"));
        prop_assert_eq!(suffixed.stable(), symbol);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// BK-tree radius and k-NN queries agree with brute-force TED scans on
    /// randomized plan populations — the triangle-inequality pruning never
    /// loses a match.
    #[test]
    fn bk_tree_queries_match_brute_force_scans(
        plans in prop::collection::vec(arb_plan(), 1..32),
        probe in arb_plan(),
        radius in 0u32..6,
        k in 1usize..8,
    ) {
        use uplan::testing::scan::{scan_nearest, scan_within_radius};
        let mut corpus = uplan::corpus::PlanCorpus::new();
        for plan in &plans {
            corpus.observe(plan);
        }
        let matches = |r: &uplan::corpus::QueryResponse| match &r.outcome {
            uplan::corpus::QueryOutcome::Matches(m) => m.clone(),
            other => panic!("metric query answered {other:?}"),
        };
        let indexed = corpus
            .execute(&uplan::corpus::QueryRequest::radius(radius).with_probe(probe.clone()))
            .unwrap();
        let (scanned, scan_evals) = scan_within_radius(corpus.iter(), &probe, radius);
        prop_assert_eq!(matches(&indexed), scanned);
        prop_assert!(indexed.cost.ted_evals <= scan_evals);

        let indexed = corpus
            .execute(&uplan::corpus::QueryRequest::knn(k).with_probe(probe.clone()))
            .unwrap();
        let (scanned, _) = scan_nearest(corpus.iter(), &probe, k);
        let dist = |m: &uplan::corpus::Matches| m.iter().map(|&(_, d)| d).collect::<Vec<_>>();
        prop_assert_eq!(dist(&matches(&indexed)), dist(&scanned));
        prop_assert_eq!(matches(&indexed).len(), k.min(corpus.len()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random (but valid) predicates never break the TLP invariant on a
    /// healthy engine — the oracle itself is sound.
    #[test]
    fn tlp_holds_on_healthy_engines(seed in 0u64..500) {
        use minidb::profile::EngineProfile;
        use minidb::Database;
        use uplan::testing::generator::Generator;
        let mut db = Database::new(EngineProfile::Postgres);
        let mut generator = Generator::new(seed);
        generator.create_schema(&mut db, 1);
        for _ in 0..3 {
            let q = generator.query();
            let failure = uplan::testing::oracles::tlp(&mut db, &q.from, &q.predicate);
            prop_assert!(failure.is_none(), "{:?}", failure);
        }
    }
}
