//! Shared TPC-H-lite fixtures.
//!
//! One [`DialectFleet`] holds every engine substrate (four relational
//! planner profiles, the document store, the property graph) loaded with
//! the TPC-H-lite workload, and serializes any query in each of the nine
//! studied dialects' native EXPLAIN formats. The raw-fixture CLI, the
//! conversion-spine tests and the converter benches all draw from this one
//! helper, so "a TPC-H plan in dialect X" means the same bytes everywhere.
//!
//! [`derived_plans`] is the corpus benches' and tests' plan population:
//! shapes that cluster (so metric pruning has structure to exploit) and
//! vary (so dedup is partial), made from the 44 TPC-H-lite plans by small
//! seeded structural mutations — the deltas neighboring optimizer
//! decisions produce — so every run and machine sees the same population.

use minidb::profile::EngineProfile;
use minidb::{Database, ExplainedPlan};
use minidoc::{DocStore, Request};
use minigraph::{GraphStore, PatternQuery};
use uplan_convert::Source;
use uplan_core::{PlanNode, Property, UnifiedPlan};
use uplan_corpus::PlanCorpus;
use uplan_workloads::tpch;

use crate::pipeline::PlanPipeline;

/// The planning time every fixture plan reports. minidb stamps measured
/// wall time into each plan, which would make two runs serialize
/// different bytes for the same query.
const PLANNING_TIME_MS: f64 = 0.1;

/// Explains `sql` on `db` with the fixed [`PLANNING_TIME_MS`].
fn explain(db: &mut Database, engine: &str, qid: usize, sql: &str) -> ExplainedPlan {
    let mut plan = db
        .explain(sql)
        .unwrap_or_else(|e| panic!("{engine} q{qid}: {e}"));
    plan.planning_time_ms = PLANNING_TIME_MS;
    plan
}

/// Every engine substrate of the study, loaded with TPC-H-lite (scale 1,
/// seed 7) and ready to explain queries in its native dialect.
pub struct DialectFleet {
    pg: Database,
    mysql: Database,
    tidb: Database,
    sqlite: Database,
    store: DocStore,
    graph: GraphStore,
    queries: Vec<(&'static str, String)>,
    mongo_queries: Vec<(&'static str, Request)>,
    graph_queries: Vec<(&'static str, PatternQuery)>,
}

impl Default for DialectFleet {
    fn default() -> DialectFleet {
        DialectFleet::new()
    }
}

impl DialectFleet {
    /// Loads all substrates. Engines are warm for the fleet's lifetime and
    /// plans carry a fixed planning time, so a fixed sequence of calls
    /// always yields the same serializations, byte for byte.
    pub fn new() -> DialectFleet {
        let mut store = DocStore::new();
        tpch::load_document(&mut store, 1, 7);
        let mut graph = GraphStore::new();
        tpch::load_graph(&mut graph, 1, 7);
        DialectFleet {
            pg: tpch::relational(EngineProfile::Postgres, 1),
            mysql: tpch::relational(EngineProfile::MySql, 1),
            tidb: tpch::relational(EngineProfile::TiDb, 1),
            sqlite: tpch::relational(EngineProfile::Sqlite, 1),
            store,
            graph,
            queries: tpch::queries(),
            mongo_queries: tpch::mongo_queries(),
            graph_queries: tpch::graph_queries(),
        }
    }

    /// Number of TPC-H-lite SQL queries (query ids wrap modulo this).
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// The eight relational serializations of TPC-H-lite query `qid`
    /// (0-based, wrapped), in the canonical dump order: PostgreSQL
    /// text + JSON, SparkSQL text and SQL Server XML (both from the
    /// PostgreSQL-profile plan — their emitters are engine-agnostic),
    /// MySQL JSON + table, TiDB table (whose operator ids carry
    /// `tidb_suffix`), SQLite EQP.
    pub fn relational(&mut self, qid: usize, tidb_suffix: u32) -> Vec<(Source, String)> {
        let (_, sql) = &self.queries[qid % self.queries.len()];
        let plan = explain(&mut self.pg, "pg", qid, sql);
        let mut out = vec![
            (Source::PostgresText, dialects::postgres::to_text(&plan)),
            (Source::PostgresJson, dialects::postgres::to_json(&plan)),
            (Source::SparkText, dialects::sparksql::to_text(&plan)),
            (Source::SqlServerXml, dialects::sqlserver::to_xml(&plan)),
        ];
        let plan = explain(&mut self.mysql, "mysql", qid, sql);
        out.push((Source::MySqlJson, dialects::mysql::to_json(&plan)));
        out.push((Source::MySqlTable, dialects::mysql::to_table(&plan)));
        let plan = explain(&mut self.tidb, "tidb", qid, sql);
        out.push((
            Source::TidbTable,
            dialects::tidb::to_table(&plan, tidb_suffix),
        ));
        let plan = explain(&mut self.sqlite, "sqlite", qid, sql);
        out.push((Source::SqliteEqp, dialects::sqlite::to_text(&plan)));
        out
    }

    /// The MongoDB serialization of document query `qid` (0-based,
    /// wrapped).
    pub fn mongo(&self, qid: usize) -> (Source, String) {
        let (_, plan) = self
            .store
            .find(&self.mongo_queries[qid % self.mongo_queries.len()].1);
        (Source::MongoJson, dialects::mongodb::to_json(&plan))
    }

    /// The Neo4j serialization of graph query `qid` (0-based, wrapped).
    pub fn neo4j(&self, qid: usize) -> (Source, String) {
        let (_, plan) = self
            .graph
            .run(&self.graph_queries[qid % self.graph_queries.len()].1);
        (Source::Neo4jTable, dialects::neo4j::to_table(&plan))
    }

    /// The InfluxDB serialization of synthetic iterator statistics.
    pub fn influx(series: u64, points: u64) -> (Source, String) {
        (
            Source::InfluxText,
            dialects::influxdb::to_text(&dialects::influxdb::InfluxStats::synthetic(
                series, points,
            )),
        )
    }
}

/// Encodes one dialect serialization as a raw-dump JSONL line: JSON
/// documents are compacted to one line, text formats are JSON-string
/// encoded — the framing `convert::ingest_raw` sniffs.
pub fn raw_dump_line(source: Source, serialized: &str) -> String {
    use uplan_core::formats::json::{self, JsonValue};
    match source {
        Source::PostgresJson | Source::MySqlJson | Source::MongoJson => json::parse(serialized)
            .unwrap_or_else(|e| panic!("{source:?} emitted invalid JSON: {e}"))
            .to_compact(),
        _ => JsonValue::from(serialized).to_compact(),
    }
}

/// splitmix64 — the derived population's only randomness source.
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
/// would break the byte-for-byte determinism of whatever holds the plan.
pub fn scrub_times(plan: &mut UnifiedPlan) {
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
fn tpch_base_plans() -> Vec<UnifiedPlan> {
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

/// The endless seeded stream of TPC-H-derived plans: the base plans in
/// turn, each with zero to three seeded mutations. Fingerprint duplicates
/// recur, like in a real campaign's observation stream.
pub fn derived_plans(seed: u64) -> impl Iterator<Item = UnifiedPlan> {
    let mut rng = seed;
    tpch_base_plans().into_iter().cycle().map(move |mut plan| {
        for _ in 0..next(&mut rng) % 4 {
            mutate(&mut plan, &mut rng);
        }
        plan
    })
}

/// The first `count` plans of [`derived_plans`].
pub fn derived_stream(count: usize, seed: u64) -> Vec<UnifiedPlan> {
    derived_plans(seed).take(count).collect()
}

/// A corpus of [`derived_plans`] inserted until it holds `min_distinct`
/// distinct plans.
pub fn derived_corpus(min_distinct: usize, seed: u64) -> PlanCorpus {
    let mut plans = derived_plans(seed);
    let mut corpus = PlanCorpus::new();
    while corpus.len() < min_distinct {
        corpus.insert(plans.next().expect("the derived stream is endless"));
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_serializations_are_structurally_deterministic_and_convert() {
        let mut a = DialectFleet::new();
        let mut b = DialectFleet::new();
        assert_eq!(a.relational(0, 3), b.relational(0, 3));
        assert_eq!(a.mongo(1), b.mongo(1));
        assert_eq!(a.neo4j(2), b.neo4j(2));
        assert_eq!(DialectFleet::influx(2, 9), DialectFleet::influx(2, 9));
        for (source, text) in a.relational(2, 5).into_iter().chain([
            a.mongo(0),
            a.neo4j(0),
            DialectFleet::influx(1, 7),
        ]) {
            uplan_convert::convert(source, &text)
                .unwrap_or_else(|e| panic!("{source:?} fixture does not convert: {e}"));
            // Every dump-line encoding stays a single sniffable line.
            let line = raw_dump_line(source, &text);
            assert!(!line.contains('\n'), "{source:?} line not single-line");
        }
    }
}
