//! Seeded inputs: the two fixture stores, the raw-record pool the ingest
//! traffic and dumps draw from, and the probe plans.
//!
//! The fixture stores do not depend on the seed (they are the stores the
//! workloads serve), so they are built once per checkout under the work
//! directory. Everything a run *sends* — probes, ingest batches, the raw
//! dump — derives from the seed.

use std::path::{Path, PathBuf};

use minidb::profile::EngineProfile;
use minidb::Database;
use uplan_bench::corpus_fixture;
use uplan_convert::{ingest_raw_with, RawIngestOptions, Source};
use uplan_core::UnifiedPlan;
use uplan_corpus::{PlanCorpus, SegmentStore};
use uplan_testing::fixtures::{raw_dump_line, DialectFleet};
use uplan_testing::generator::Generator;

use crate::util::{derive, Rng};

/// Seed of both fixture populations (the `corpus_fixture` default).
const FIXTURE_SEED: u64 = 0x5eed_cafe;
/// Observations in the large fixture, appended as this many segments.
const FIXTURE_100K: usize = 100_000;
const FIXTURE_100K_SEGMENTS: usize = 4;
/// Distinct plans in the small fixture.
const FIXTURE_10K: usize = 10_000;
/// Generated SQL queries behind the relational records of the pool.
const POOL_QUERIES: usize = 4_000;

/// Per-stream salts mixed into the run seed.
const SALT_PROBES: u64 = 1;
const SALT_POOL: u64 = 2;
pub const SALT_TRAFFIC: u64 = 3;
pub const SALT_DUMP: u64 = 4;

/// Builds `dir` with `build` unless it already exists; building happens in
/// a temporary sibling that is renamed into place, so an interrupted build
/// never leaves a half-written cache entry behind.
fn cached_dir(
    dir: PathBuf,
    build: impl FnOnce(&Path) -> Result<(), String>,
) -> Result<PathBuf, String> {
    if dir.is_dir() {
        return Ok(dir);
    }
    let tmp = dir.with_extension(format!("tmp{}", std::process::id()));
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp).map_err(|e| format!("clear {}: {e}", tmp.display()))?;
    }
    build(&tmp)?;
    std::fs::rename(&tmp, &dir).map_err(|e| format!("rename {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The ~10k-distinct-plan TPC-H-derived store (one segment).
pub fn fixture_10k(work: &Path) -> Result<PathBuf, String> {
    cached_dir(work.join("fixture-10k"), |dir| {
        let corpus = corpus_fixture::derived_corpus(FIXTURE_10K, FIXTURE_SEED);
        SegmentStore::create(dir, corpus).map_err(|e| format!("create 10k store: {e}"))?;
        Ok(())
    })
}

/// The 100k-observation TPC-H-derived store (38.7k distinct plans over
/// four appended segments).
pub fn fixture_100k(work: &Path) -> Result<PathBuf, String> {
    cached_dir(work.join("fixture-100k"), |dir| {
        let stream = corpus_fixture::derived_stream(FIXTURE_100K, FIXTURE_SEED);
        let mut store = SegmentStore::create(dir, PlanCorpus::new())
            .map_err(|e| format!("create 100k store: {e}"))?;
        for batch in stream.chunks(FIXTURE_100K / FIXTURE_100K_SEGMENTS) {
            store
                .append(batch, 2)
                .map_err(|e| format!("append 100k store: {e}"))?;
        }
        Ok(())
    })
}

/// Seeded TPC-H-derived probe plans (a stream separate from the fixtures).
pub fn tpch_probes(seed: u64, count: usize) -> Vec<UnifiedPlan> {
    corpus_fixture::derived_stream(count, derive(seed, SALT_PROBES))
}

/// TPC-H-lite join edges (`left = right` column pairs).
const JOINS: [(&str, &str, &str, &str); 9] = [
    ("nation", "n_regionkey", "region", "r_regionkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("partsupp", "ps_partkey", "part", "p_partkey"),
    ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
];

/// Per-table filters and a grouping column.
const TABLES: [(&str, [&str; 3], &str); 8] = [
    (
        "region",
        ["r_name = 'ASIA'", "r_regionkey < 3", "r_name <> 'EUROPE'"],
        "r_name",
    ),
    (
        "nation",
        ["n_name = 'FRANCE'", "n_nationkey > 10", "n_regionkey = 2"],
        "n_name",
    ),
    (
        "supplier",
        ["s_acctbal > 0.0", "s_suppkey < 10", "s_nationkey = 7"],
        "s_name",
    ),
    (
        "customer",
        [
            "c_mktsegment = 'BUILDING'",
            "c_acctbal < 500.0",
            "c_custkey > 5",
        ],
        "c_mktsegment",
    ),
    (
        "part",
        [
            "p_size = 15",
            "p_type LIKE '%BRASS%'",
            "p_retailprice > 1000.0",
        ],
        "p_type",
    ),
    (
        "partsupp",
        [
            "ps_availqty > 50",
            "ps_supplycost < 100.0",
            "ps_partkey = 4",
        ],
        "ps_partkey",
    ),
    (
        "orders",
        [
            "o_orderdate >= '1994-01-01'",
            "o_totalprice > 1000.0",
            "o_orderkey = 42",
        ],
        "o_orderpriority",
    ),
    (
        "lineitem",
        [
            "l_quantity < 24",
            "l_shipdate <= '1998-09-02'",
            "l_returnflag = 'R'",
        ],
        "l_returnflag",
    ),
];

/// A random TPC-H-lite query: a connected join of one to five tables,
/// random filters, and an optional aggregate, sort and limit — enough
/// structural variety for a large distinct plan set.
fn tpch_query(rng: &mut Rng) -> String {
    let mut tables = vec![TABLES[rng.below(TABLES.len())].0];
    let mut conds = Vec::new();
    let want = 1 + rng.below(5);
    for _ in 0..4 * want {
        if tables.len() == want {
            break;
        }
        let (l, lc, r, rc) = JOINS[rng.below(JOINS.len())];
        let (has_l, has_r) = (tables.contains(&l), tables.contains(&r));
        if has_l != has_r {
            tables.push(if has_l { r } else { l });
            conds.push(format!("{lc} = {rc}"));
        }
    }
    for _ in 0..rng.below(3) {
        let table = tables[rng.below(tables.len())];
        let filters = TABLES.iter().find(|t| t.0 == table).expect("known table").1;
        conds.push(filters[rng.below(3)].to_owned());
    }
    let group = TABLES
        .iter()
        .find(|t| t.0 == tables[0])
        .expect("known table")
        .2;
    let (select, tail) = match rng.below(4) {
        0 => ("COUNT(*)".to_owned(), String::new()),
        1 => (format!("{group}, COUNT(*)"), format!(" GROUP BY {group}")),
        2 => (
            format!("{group}, COUNT(*)"),
            format!(" GROUP BY {group} ORDER BY 2 DESC"),
        ),
        _ => (group.to_string(), format!(" ORDER BY {group}")),
    };
    let limit = if rng.percent(30) {
        format!(" LIMIT {}", 1 + rng.below(100))
    } else {
        String::new()
    };
    let filter = if conds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conds.join(" AND "))
    };
    format!(
        "SELECT {select} FROM {}{filter}{tail}{limit}",
        tables.join(", ")
    )
}

/// Raw dump records (one JSONL line each) covering all nine dialects:
/// relational records from seeded random queries planned by the four
/// `minidb` profiles, document/graph/time-series records from the
/// TPC-H-lite `DialectFleet`.
pub struct RecordPool {
    relational: Vec<String>,
    other: Vec<String>,
}

/// The dialect serializations of one relational plan.
fn serialize(plan: &mut minidb::ExplainedPlan, tidb_suffix: u32) -> Vec<String> {
    // Planning time is wall-clock noise; pin it so one seed always
    // produces the same bytes.
    plan.planning_time_ms = 0.0;
    let plan = &*plan;
    let serialized: Vec<(Source, String)> = match plan.profile {
        EngineProfile::Postgres => vec![
            (Source::PostgresText, dialects::postgres::to_text(plan)),
            (Source::PostgresJson, dialects::postgres::to_json(plan)),
            (Source::SparkText, dialects::sparksql::to_text(plan)),
            (Source::SqlServerXml, dialects::sqlserver::to_xml(plan)),
        ],
        EngineProfile::MySql => vec![
            (Source::MySqlJson, dialects::mysql::to_json(plan)),
            (Source::MySqlTable, dialects::mysql::to_table(plan)),
        ],
        EngineProfile::TiDb => vec![(
            Source::TidbTable,
            dialects::tidb::to_table(plan, tidb_suffix),
        )],
        _ => vec![(Source::SqliteEqp, dialects::sqlite::to_text(plan))],
    };
    serialized
        .iter()
        .map(|(source, text)| raw_dump_line(*source, text))
        .collect()
}

impl RecordPool {
    pub fn new(seed: u64) -> RecordPool {
        let seed = derive(seed, SALT_POOL);
        let profiles = [
            EngineProfile::Postgres,
            EngineProfile::MySql,
            EngineProfile::TiDb,
            EngineProfile::Sqlite,
        ];
        let mut rng = Rng::new(seed);
        let mut relational = Vec::with_capacity(POOL_QUERIES * 8);
        // Campaign-style queries from the SQLancer-like generator over
        // small random tables: few distinct plan shapes, many duplicates.
        let mut small: Vec<Database> = profiles.iter().map(|&p| Database::new(p)).collect();
        let mut tables = Vec::new();
        for db in &mut small {
            // Same generator seed per engine: identical schema and rows.
            let mut schema = Generator::new(seed);
            schema.create_schema(db, 4);
            tables = schema.tables;
        }
        let mut generator = Generator::new(seed.rotate_left(17));
        generator.tables = tables;
        for _ in 0..POOL_QUERIES / 4 {
            let sql = generator.query().sql;
            for db in &mut small {
                if let Ok(mut plan) = db.explain(&sql) {
                    relational.extend(serialize(&mut plan, rng.below(8) as u32));
                }
            }
        }
        // Random joins over TPC-H-lite: the large distinct set.
        let mut tpch: Vec<Database> = profiles
            .iter()
            .map(|&p| uplan_workloads::tpch::relational(p, 1))
            .collect();
        for _ in 0..POOL_QUERIES {
            let sql = tpch_query(&mut rng);
            for db in &mut tpch {
                if let Ok(mut plan) = db.explain(&sql) {
                    relational.extend(serialize(&mut plan, rng.below(8) as u32));
                }
            }
        }
        let fleet = DialectFleet::new();
        let mut other = Vec::new();
        for qid in 0..fleet.query_count() {
            let (source, text) = fleet.mongo(qid);
            other.push(raw_dump_line(source, &text));
            let (source, text) = fleet.neo4j(qid);
            other.push(raw_dump_line(source, &text));
        }
        for series in 1..=6u64 {
            for points in 1..=12u64 {
                let (source, text) = DialectFleet::influx(series, points * 7);
                other.push(raw_dump_line(source, &text));
            }
        }
        RecordPool { relational, other }
    }

    /// One record: nine in ten relational, the rest document, graph and
    /// time-series.
    pub fn draw(&self, rng: &mut Rng) -> &str {
        if rng.percent(90) {
            &self.relational[rng.below(self.relational.len())]
        } else {
            &self.other[rng.below(self.other.len())]
        }
    }

    /// Ingest batch `j` of a run's traffic: `count` records.
    pub fn batch(&self, seed: u64, j: usize, count: usize) -> String {
        self.dump(&mut Rng::new(derive(seed ^ j as u64, SALT_TRAFFIC)), count)
    }

    /// `count` drawn records as a JSONL dump body.
    pub fn dump(&self, rng: &mut Rng, count: usize) -> String {
        let mut out = String::new();
        for _ in 0..count {
            out.push_str(self.draw(rng));
            out.push('\n');
        }
        out
    }
}

/// Ingest batch `j` of a run's traffic drawn from an existing dump's
/// records (the serve phase of `ingest_raw_100k`).
pub fn dump_batch(seed: u64, j: usize, records: &[&str], count: usize) -> String {
    let mut rng = Rng::new(derive(seed ^ j as u64, SALT_TRAFFIC));
    let mut body = String::new();
    for _ in 0..count {
        body.push_str(records[rng.below(records.len())]);
        body.push('\n');
    }
    body
}

/// `count` seeded dump records, each converted to its unified plan.
pub fn dump_probes(seed: u64, records: &[&str], count: usize) -> Result<Vec<UnifiedPlan>, String> {
    let mut rng = Rng::new(derive(seed, SALT_PROBES));
    let mut probes = Vec::with_capacity(count);
    while probes.len() < count {
        let mut staging = PlanCorpus::new();
        ingest_raw_with(
            records[rng.below(records.len())],
            &mut staging,
            1,
            &RawIngestOptions::default(),
        )
        .map_err(|e| format!("probe conversion: {e}"))?;
        probes.push(staging.plan(0).clone());
    }
    Ok(probes)
}
