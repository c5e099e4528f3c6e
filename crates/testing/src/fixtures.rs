//! Shared TPC-H-lite dialect fixtures.
//!
//! One [`DialectFleet`] holds every engine substrate (four relational
//! planner profiles, the document store, the property graph) loaded with
//! the TPC-H-lite workload, and serializes any query in each of the nine
//! studied dialects' native EXPLAIN formats. The raw-fixture CLI, the
//! conversion-spine tests and the converter benches all draw from this one
//! helper, so "a TPC-H plan in dialect X" means the same bytes everywhere.

use minidb::profile::EngineProfile;
use minidb::{Database, ExplainedPlan};
use minidoc::{DocStore, Request};
use minigraph::{GraphStore, PatternQuery};
use uplan_convert::Source;
use uplan_workloads::tpch;

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
