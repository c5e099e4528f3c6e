//! Golden-value regression tests for the plan-identity hot paths.
//!
//! These pin exact [`fingerprint`] outputs and [`tree_edit_distance`] values
//! for a fixed set of TPC-H-lite plans across every converter the pipeline
//! uses, so that refactors of the fingerprint/TED/conversion internals (e.g.
//! the identifier-interning migration) are provably behavior-preserving:
//! any change to these numbers breaks persisted QPG state and must be
//! deliberate.
//!
//! The inputs are deterministic: TPC-H-lite at scale 1 is generated from a
//! fixed seed, the engines plan deterministically, and the TiDB dialect's
//! random operator suffixes are derived from the fixed counter passed to
//! `to_table` — precisely the noise `fingerprint` must neutralize.
//!
//! To regenerate after an *intentional* change:
//! `cargo test --test golden -- --ignored --nocapture print_golden_values`

use minidb::profile::EngineProfile;
use uplan::convert::{convert, Source};
use uplan::core::fingerprint::fingerprint;
use uplan::core::ted::tree_edit_distance;
use uplan::core::UnifiedPlan;
use uplan::workloads::tpch;

/// The TPC-H-lite queries pinned here (1-based ids; a spread of shapes:
/// aggregation, join pipelines, subqueries).
const QUERIES: [usize; 4] = [1, 3, 5, 11];

/// One unified plan per (query, converter) pair, in a fixed order.
fn fixture_plans() -> Vec<(String, UnifiedPlan)> {
    let queries = tpch::queries();
    let mut pg = tpch::relational(EngineProfile::Postgres, 1);
    let mut tidb = tpch::relational(EngineProfile::TiDb, 1);
    let mut mysql = tpch::relational(EngineProfile::MySql, 1);
    let mut sqlite = tpch::relational(EngineProfile::Sqlite, 1);

    let mut plans = Vec::new();
    for &qid in &QUERIES {
        let (name, sql) = &queries[qid - 1];
        let native = pg.explain(sql).expect("pg plan");
        plans.push((
            format!("{name}/postgres_text"),
            convert(Source::PostgresText, &dialects::postgres::to_text(&native)).unwrap(),
        ));
        plans.push((
            format!("{name}/postgres_json"),
            convert(Source::PostgresJson, &dialects::postgres::to_json(&native)).unwrap(),
        ));
        let native = tidb.explain(sql).expect("tidb plan");
        plans.push((
            format!("{name}/tidb_table"),
            convert(Source::TidbTable, &dialects::tidb::to_table(&native, 7)).unwrap(),
        ));
        let native = mysql.explain(sql).expect("mysql plan");
        plans.push((
            format!("{name}/mysql_json"),
            convert(Source::MySqlJson, &dialects::mysql::to_json(&native)).unwrap(),
        ));
        plans.push((
            format!("{name}/mysql_table"),
            convert(Source::MySqlTable, &dialects::mysql::to_table(&native)).unwrap(),
        ));
        let native = sqlite.explain(sql).expect("sqlite plan");
        plans.push((
            format!("{name}/sqlite_eqp"),
            convert(Source::SqliteEqp, &dialects::sqlite::to_text(&native)).unwrap(),
        ));
    }
    plans
}

/// Expected `fingerprint()` of every fixture plan, in `fixture_plans` order
/// (fingerprint scheme v2: memoized symbol content hashes, see
/// `uplan_core::fingerprint::FINGERPRINT_SCHEME_VERSION`).
/// Regenerate with `print_golden_values` (see module docs).
const GOLDEN_FINGERPRINTS: [(&str, u64); 24] = [
    ("q1/postgres_text", 0x7bbbc1beabaf990c),
    ("q1/postgres_json", 0x4e56ed3a9c788478),
    ("q1/tidb_table", 0x1bdc23a3cf368d64),
    ("q1/mysql_json", 0x36c36e60f6551033),
    ("q1/mysql_table", 0x4b2eae283cbe64fe),
    ("q1/sqlite_eqp", 0x31c71c6f8d55bec0),
    ("q3/postgres_text", 0x38cf084a36b2b904),
    ("q3/postgres_json", 0xb5ac00fd4bfc0e13),
    ("q3/tidb_table", 0x344ee2d8527878d7),
    ("q3/mysql_json", 0xd0a14f02e01be4df),
    ("q3/mysql_table", 0x6d110e8e645aea1c),
    ("q3/sqlite_eqp", 0xf8e7696d6c77078f),
    ("q5/postgres_text", 0xec25d746819adf51),
    ("q5/postgres_json", 0x6b136f6a05a76c62),
    ("q5/tidb_table", 0xc8a36c95fc2408b6),
    ("q5/mysql_json", 0xa2ee22031eff6f3d),
    ("q5/mysql_table", 0xa3551f0dcc7c3af4),
    ("q5/sqlite_eqp", 0xb1b2682b884e1e99),
    ("q11/postgres_text", 0xa93e6cb83bc3c3f5),
    ("q11/postgres_json", 0xaa4fd5bf606e70bf),
    ("q11/tidb_table", 0xbe22644afd5ce794),
    ("q11/mysql_json", 0x0b372df130f83129),
    ("q11/mysql_table", 0x75d2a55c467d056e),
    ("q11/sqlite_eqp", 0x9e83596122f2708f),
];

/// Expected `tree_edit_distance` between consecutive fixture plans (pair i
/// is plans\[i\] vs plans\[i+1\]). Regenerate with `print_golden_values`.
const GOLDEN_TED: [usize; 23] = [
    0, 3, 4, 2, 2, 10, 0, 12, 13, 6, 4, 18, 0, 19, 20, 12, 10, 18, 0, 16, 15, 13, 10,
];

#[test]
fn fingerprints_match_golden_values() {
    let plans = fixture_plans();
    assert_eq!(plans.len(), GOLDEN_FINGERPRINTS.len());
    for ((label, plan), (expected_label, expected)) in plans.iter().zip(GOLDEN_FINGERPRINTS) {
        assert_eq!(label, expected_label, "fixture order changed");
        assert_eq!(
            fingerprint(plan).0,
            expected,
            "{label}: fingerprint diverged from golden value — this breaks \
             persisted QPG plan sets; regenerate goldens only if intentional"
        );
    }
}

#[test]
fn tree_edit_distances_match_golden_values() {
    let plans = fixture_plans();
    assert_eq!(plans.len(), GOLDEN_TED.len() + 1);
    for (i, pair) in plans.windows(2).enumerate() {
        let (la, a) = &pair[0];
        let (lb, b) = &pair[1];
        assert_eq!(
            tree_edit_distance(a, b),
            GOLDEN_TED[i],
            "ted({la}, {lb}) diverged from golden value"
        );
        // The metric axioms hold on every golden pair.
        assert_eq!(tree_edit_distance(a, b), tree_edit_distance(b, a));
        assert_eq!(tree_edit_distance(a, &a.clone()), 0);
    }
}

/// A small reference plan covering a join, two producers, every value
/// kind the fixture needs, and a plan-level property.
fn golden_binary_plan() -> UnifiedPlan {
    use uplan::core::{PlanNode, Property};
    UnifiedPlan::with_root(
        PlanNode::join("Hash_Join")
            .with_child(
                PlanNode::producer("Full_Table_Scan")
                    .with_property(Property::cardinality("rows", 1000)),
            )
            .with_child(
                PlanNode::producer("Index_Scan")
                    .with_property(Property::configuration("filter", "c0 < 5")),
            ),
    )
    .with_plan_property(Property::status("workers_planned", 2))
}

/// Exact plan-body bytes of [`golden_binary_plan`]: what the codec writes
/// for it inside a checksum block, between the block length and the block
/// CRC, when it is the first plan against an empty symbol chain.
const GOLDEN_PLAN_BODY: [u8; 33] = [
    0x01, 0x02, 0x00, 0x00, 0x02, 0x00, 0x01, 0x01, 0x00, 0x02, 0x03, 0xd0, //
    0x0f, 0x00, 0x00, 0x03, 0x01, 0x02, 0x04, 0x05, 0x06, 0x63, 0x30, 0x20, //
    0x3c, 0x20, 0x35, 0x00, 0x01, 0x03, 0x05, 0x03, 0x04,
];

/// Exact segment file of a one-plan corpus holding [`golden_binary_plan`]
/// (what `SegmentStore::create` writes as `seg-00000.upls`). Regenerate
/// with `print_golden_values`.
const GOLDEN_SEGMENT: [u8; 164] = [
    0x55, 0x50, 0x4c, 0x53, 0x01, 0x00, 0x13, 0x04, 0x00, 0x06, 0x09, 0x48, //
    0x61, 0x73, 0x68, 0x5f, 0x4a, 0x6f, 0x69, 0x6e, 0x0f, 0x46, 0x75, 0x6c, //
    0x6c, 0x5f, 0x54, 0x61, 0x62, 0x6c, 0x65, 0x5f, 0x53, 0x63, 0x61, 0x6e, //
    0x04, 0x72, 0x6f, 0x77, 0x73, 0x0a, 0x49, 0x6e, 0x64, 0x65, 0x78, 0x5f, //
    0x53, 0x63, 0x61, 0x6e, 0x06, 0x66, 0x69, 0x6c, 0x74, 0x65, 0x72, 0x0f, //
    0x77, 0x6f, 0x72, 0x6b, 0x65, 0x72, 0x73, 0x5f, 0x70, 0x6c, 0x61, 0x6e, //
    0x6e, 0x65, 0x64, 0x01, 0xfb, 0x96, 0x9c, 0x0c, 0x21, 0x01, 0x02, 0x00, //
    0x00, 0x02, 0x00, 0x01, 0x01, 0x00, 0x02, 0x03, 0xd0, 0x0f, 0x00, 0x00, //
    0x03, 0x01, 0x02, 0x04, 0x05, 0x06, 0x63, 0x30, 0x20, 0x3c, 0x20, 0x35, //
    0x00, 0x01, 0x03, 0x05, 0x03, 0x04, 0x0f, 0xe3, 0x7d, 0x46, 0x21, 0xf6, //
    0xaa, 0xef, 0xbb, 0xf4, 0xa9, 0x80, 0xc7, 0x64, 0x14, 0x02, 0x00, 0x01, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x02, 0x02, 0x00, 0x01, 0x00, 0x01, //
    0x00, 0x01, 0x01, 0x00, 0x02, 0x03, 0x02, 0x04, 0x00, 0x00, 0x00, 0x01, //
    0x00, 0x00, 0x00, 0x00, 0x76, 0x15, 0x10, 0x89, //
];

/// The segment bytes of a fresh default corpus holding only `plan` (what
/// `SegmentStore::create` writes as its first segment).
fn segment_of(plan: &UnifiedPlan) -> Vec<u8> {
    let mut corpus = uplan::corpus::PlanCorpus::new();
    corpus.insert(plan.clone());
    uplan::corpus::encode_segment(&corpus).unwrap()
}

/// Fully reads a one-plan segment: parse (header and tail CRCs), verify
/// the plan block's CRC, decode the plan body.
fn read_only_plan(segment: &[u8]) -> uplan::core::Result<UnifiedPlan> {
    use uplan::core::formats::segment::{decode_plan_at, parse_segment, verify_block};
    let view = parse_segment(segment)?;
    assert_eq!(view.plan_count, 1);
    verify_block(segment, view.blocks[0])?;
    decode_plan_at(
        segment,
        view.plan_offsets[0],
        view.plan_lens[0],
        &view.delta,
    )
}

#[test]
fn binary_codec_encoding_matches_golden_bytes() {
    use uplan::core::formats::segment::parse_segment;
    let segment = segment_of(&golden_binary_plan());
    assert_eq!(
        segment,
        GOLDEN_SEGMENT.to_vec(),
        "segment encoding drifted — persisted stores would break"
    );
    // The plan body inside the segment is the pinned body, byte for byte.
    let view = parse_segment(&segment).unwrap();
    let (at, len) = (view.plan_offsets[0] as usize, view.plan_lens[0] as usize);
    assert_eq!(&segment[at..at + len], &GOLDEN_PLAN_BODY[..]);
    // And the pinned bytes read back to the reference plan, fingerprint
    // and all.
    let decoded = read_only_plan(&GOLDEN_SEGMENT).unwrap();
    assert_eq!(decoded, golden_binary_plan());
    assert_eq!(fingerprint(&decoded), fingerprint(&golden_binary_plan()));
}

#[test]
fn checked_documents_reject_single_byte_corruption() {
    // Every byte of the golden segment is covered by a checksum (or is
    // structurally load-bearing): flipping any one bit must never decode
    // to a *wrong* plan silently. CRC32 detects all single-bit errors, so
    // every flip must error.
    for offset in 0..GOLDEN_SEGMENT.len() {
        let mut corrupt = GOLDEN_SEGMENT.to_vec();
        corrupt[offset] ^= 0x01;
        assert!(
            read_only_plan(&corrupt).is_err(),
            "bit flip at byte {offset} decoded silently"
        );
    }
}

#[test]
fn binary_codec_round_trips_every_golden_fixture() {
    // Fingerprint identity across the whole golden fixture set: what a
    // segment persists is exactly what fingerprinting sees.
    for (label, plan) in fixture_plans() {
        let decoded = read_only_plan(&segment_of(&plan)).unwrap();
        assert_eq!(decoded, plan, "{label}");
        assert_eq!(fingerprint(&decoded), fingerprint(&plan), "{label}");
    }
}

#[test]
fn fingerprints_are_insensitive_to_tidb_suffix_counters() {
    // Same plan serialized with different suffix counters must fingerprint
    // identically (the QPG parser bug the paper reports, pinned forever).
    let queries = tpch::queries();
    let mut tidb = tpch::relational(EngineProfile::TiDb, 1);
    let (_, sql) = &queries[2];
    let native = tidb.explain(sql).expect("tidb plan");
    let a = convert(Source::TidbTable, &dialects::tidb::to_table(&native, 7)).unwrap();
    let b = convert(
        Source::TidbTable,
        &dialects::tidb::to_table(&native, 104729),
    )
    .unwrap();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

/// Prints current values in the exact source shape of the golden tables.
#[test]
#[ignore = "generator for the golden tables above; run with --ignored --nocapture"]
fn print_golden_values() {
    let plans = fixture_plans();
    println!(
        "const GOLDEN_FINGERPRINTS: [(&str, u64); {}] = [",
        plans.len()
    );
    for (label, plan) in &plans {
        println!("    (\"{label}\", 0x{:016x}),", fingerprint(plan).0);
    }
    println!("];");
    println!("const GOLDEN_TED: [usize; {}] = [", plans.len() - 1);
    let teds: Vec<String> = plans
        .windows(2)
        .map(|p| tree_edit_distance(&p[0].1, &p[1].1).to_string())
        .collect();
    println!("    {},", teds.join(", "));
    println!("];");
    let bytes = segment_of(&golden_binary_plan());
    println!("const GOLDEN_SEGMENT: [u8; {}] = [", bytes.len());
    for chunk in bytes.chunks(12) {
        let row: Vec<String> = chunk.iter().map(|b| format!("{b:#04x}")).collect();
        println!("    {}, //", row.join(", "));
    }
    println!("];");
}
