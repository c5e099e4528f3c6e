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

/// Exact version-1 encoding of a small reference plan. Version 1 is no
/// longer written (the encoder emits version 2) but corpora persisted by
/// earlier releases exist, so the *decoder* stays pinned to these bytes
/// forever: any change that stops them decoding breaks stored corpora and
/// must be deliberate.
const GOLDEN_BINARY_V1: [u8; 105] = [
    0x55, 0x50, 0x4c, 0x4e, 0x01, 0x06, 0x09, 0x48, 0x61, 0x73, 0x68, 0x5f, //
    0x4a, 0x6f, 0x69, 0x6e, 0x0f, 0x46, 0x75, 0x6c, 0x6c, 0x5f, 0x54, 0x61, //
    0x62, 0x6c, 0x65, 0x5f, 0x53, 0x63, 0x61, 0x6e, 0x04, 0x72, 0x6f, 0x77, //
    0x73, 0x0a, 0x49, 0x6e, 0x64, 0x65, 0x78, 0x5f, 0x53, 0x63, 0x61, 0x6e, //
    0x06, 0x66, 0x69, 0x6c, 0x74, 0x65, 0x72, 0x0f, 0x77, 0x6f, 0x72, 0x6b, //
    0x65, 0x72, 0x73, 0x5f, 0x70, 0x6c, 0x61, 0x6e, 0x6e, 0x65, 0x64, 0x01, //
    0x01, 0x02, 0x00, 0x00, 0x02, 0x00, 0x01, 0x01, 0x00, 0x02, 0x03, 0xd0, //
    0x0f, 0x00, 0x00, 0x03, 0x01, 0x02, 0x04, 0x05, 0x06, 0x63, 0x30, 0x20, //
    0x3c, 0x20, 0x35, 0x00, 0x01, 0x03, 0x05, 0x03, 0x04,
];

/// Exact version-2 encoding of the same plan: identical plan bytes, the
/// version varint at offset 4 is 2, and one trailing zero byte (the "no
/// index section" flag). Nothing writes version 2 any more; these bytes
/// pin the decoder, and the test-support legacy writer
/// (`uplan_core::formats::legacy::strip_checksums`) that derives v2 documents
/// from v3 ones for the legacy-reader tests.
const GOLDEN_BINARY_V2: [u8; 106] = [
    0x55, 0x50, 0x4c, 0x4e, 0x02, 0x06, 0x09, 0x48, 0x61, 0x73, 0x68, 0x5f, //
    0x4a, 0x6f, 0x69, 0x6e, 0x0f, 0x46, 0x75, 0x6c, 0x6c, 0x5f, 0x54, 0x61, //
    0x62, 0x6c, 0x65, 0x5f, 0x53, 0x63, 0x61, 0x6e, 0x04, 0x72, 0x6f, 0x77, //
    0x73, 0x0a, 0x49, 0x6e, 0x64, 0x65, 0x78, 0x5f, 0x53, 0x63, 0x61, 0x6e, //
    0x06, 0x66, 0x69, 0x6c, 0x74, 0x65, 0x72, 0x0f, 0x77, 0x6f, 0x72, 0x6b, //
    0x65, 0x72, 0x73, 0x5f, 0x70, 0x6c, 0x61, 0x6e, 0x6e, 0x65, 0x64, 0x01, //
    0x01, 0x02, 0x00, 0x00, 0x02, 0x00, 0x01, 0x01, 0x00, 0x02, 0x03, 0xd0, //
    0x0f, 0x00, 0x00, 0x03, 0x01, 0x02, 0x04, 0x05, 0x06, 0x63, 0x30, 0x20, //
    0x3c, 0x20, 0x35, 0x00, 0x01, 0x03, 0x05, 0x03, 0x04, 0x00,
];

/// Exact version-3 (checksummed) encoding of the same plan: the version
/// varint is 3, a CRC32 follows the header (after `plan_count`), each
/// plan block carries a length varint and a trailing CRC32, and a tail
/// CRC32 covers the index flag. The *plan* bytes inside the block are
/// identical to v1/v2. Regenerate with `print_golden_values`.
const GOLDEN_BINARY_V3: [u8; 119] = [
    0x55, 0x50, 0x4c, 0x4e, 0x03, 0x06, 0x09, 0x48, 0x61, 0x73, 0x68, 0x5f, //
    0x4a, 0x6f, 0x69, 0x6e, 0x0f, 0x46, 0x75, 0x6c, 0x6c, 0x5f, 0x54, 0x61, //
    0x62, 0x6c, 0x65, 0x5f, 0x53, 0x63, 0x61, 0x6e, 0x04, 0x72, 0x6f, 0x77, //
    0x73, 0x0a, 0x49, 0x6e, 0x64, 0x65, 0x78, 0x5f, 0x53, 0x63, 0x61, 0x6e, //
    0x06, 0x66, 0x69, 0x6c, 0x74, 0x65, 0x72, 0x0f, 0x77, 0x6f, 0x72, 0x6b, //
    0x65, 0x72, 0x73, 0x5f, 0x70, 0x6c, 0x61, 0x6e, 0x6e, 0x65, 0x64, 0x01, //
    0x28, 0xd4, 0x55, 0x82, 0x21, 0x01, 0x02, 0x00, 0x00, 0x02, 0x00, 0x01, //
    0x01, 0x00, 0x02, 0x03, 0xd0, 0x0f, 0x00, 0x00, 0x03, 0x01, 0x02, 0x04, //
    0x05, 0x06, 0x63, 0x30, 0x20, 0x3c, 0x20, 0x35, 0x00, 0x01, 0x03, 0x05, //
    0x03, 0x04, 0x0f, 0xe3, 0x7d, 0x46, 0x00, 0x8d, 0xef, 0x02, 0xd2, //
];

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

#[test]
fn binary_codec_encoding_matches_golden_bytes() {
    use uplan::core::formats::binary;
    assert_eq!(binary::BINARY_CODEC_VERSION, 3);
    assert_eq!(binary::MIN_SUPPORTED_BINARY_VERSION, 1);
    let bytes = binary::to_bytes(&golden_binary_plan()).unwrap();
    assert_eq!(
        bytes,
        GOLDEN_BINARY_V3.to_vec(),
        "binary codec v3 encoding drifted — persisted corpora would break"
    );
    // And the pinned bytes decode back to the reference plan, fingerprint
    // and all.
    let decoded = binary::from_bytes(&GOLDEN_BINARY_V3).unwrap();
    assert_eq!(decoded, golden_binary_plan());
    assert_eq!(fingerprint(&decoded), fingerprint(&golden_binary_plan()));
}

#[test]
fn legacy_writer_reproduces_the_retired_corpus_encodings() {
    // The legacy-reader tests get their documents from the test-support
    // writer, which reframes segment bytes. It must reproduce what the
    // retired corpus writers emitted, byte for byte: the v2 golden from
    // the v3 golden, and the indexed (v4) document of the fault-injection
    // fixture corpus at its pinned length and CRC32.
    use uplan::core::crc32::crc32;
    use uplan::core::formats::legacy;
    assert_eq!(
        legacy::strip_checksums(&GOLDEN_BINARY_V3),
        GOLDEN_BINARY_V2.to_vec()
    );
    let corpus = uplan_bench::corpus_fixture::derived_corpus(1000, 0xD15E_A5ED);
    let document = legacy::indexed(&uplan::corpus::encode_segment(&corpus).unwrap());
    assert_eq!(document.len(), 736_593);
    assert_eq!(crc32(&document), 0x173a_3501);
}

#[test]
fn checked_documents_reject_single_byte_corruption() {
    // Every byte of the golden v3 document is covered by a checksum (or is
    // structurally load-bearing): flipping any one bit must never decode
    // to a *wrong* plan silently — it either errors or, where the flip
    // lands in a checksummed-but-recoverable spot, still decodes to the
    // reference plan (impossible for a 1-bit flip: CRC32 detects all
    // single-bit errors, so every flip must error).
    use uplan::core::formats::binary;
    for offset in 0..GOLDEN_BINARY_V3.len() {
        let mut corrupt = GOLDEN_BINARY_V3.to_vec();
        corrupt[offset] ^= 0x01;
        assert!(
            binary::from_bytes(&corrupt).is_err(),
            "bit flip at byte {offset} decoded silently"
        );
    }
}

#[test]
fn binary_codec_still_decodes_golden_v1_documents() {
    // Corpora persisted before the v2 bump must keep loading, bit-compat
    // forever: the v1 golden bytes decode to the same plan the v2 bytes
    // encode.
    use uplan::core::formats::binary;
    let decoded = binary::from_bytes(&GOLDEN_BINARY_V1).unwrap();
    assert_eq!(decoded, golden_binary_plan());
    assert_eq!(fingerprint(&decoded), fingerprint(&golden_binary_plan()));
    // The pre-checksum v2 bytes decode to the same plan too.
    let decoded = binary::from_bytes(&GOLDEN_BINARY_V2).unwrap();
    assert_eq!(decoded, golden_binary_plan());
    assert_eq!(fingerprint(&decoded), fingerprint(&golden_binary_plan()));
    // And a v1 document loads as a corpus through the index-rebuild path.
    let corpus = uplan::corpus::PlanCorpus::from_binary(&GOLDEN_BINARY_V1).unwrap();
    assert_eq!(corpus.len(), 1);
    assert!(!corpus.has_persisted_index());
}

#[test]
fn binary_codec_round_trips_every_golden_fixture() {
    // Fingerprint identity across the whole golden fixture set: what the
    // codec persists is exactly what fingerprinting sees.
    use uplan::core::formats::binary;
    for (label, plan) in fixture_plans() {
        let decoded = binary::from_bytes(&binary::to_bytes(&plan).unwrap()).unwrap();
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
    let bytes = uplan::core::formats::binary::to_bytes(&golden_binary_plan()).unwrap();
    println!("const GOLDEN_BINARY_V3: [u8; {}] = [", bytes.len());
    for chunk in bytes.chunks(12) {
        let row: Vec<String> = chunk.iter().map(|b| format!("{b:#04x}")).collect();
        println!("    {}, //", row.join(", "));
    }
    println!("];");
}
