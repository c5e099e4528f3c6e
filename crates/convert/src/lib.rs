//! # uplan-convert — DBMS-specific serialized plans → unified plans
//!
//! The paper implemented five "customized converters [...] each of which has
//! around 200 lines of code" (Section VI); this crate implements converters
//! for **all nine** studied DBMSs, one module per dialect:
//!
//! * [`postgres`] — `EXPLAIN` text and `FORMAT JSON`;
//! * [`mysql`] — `FORMAT=JSON` and the classic table;
//! * [`tidb`] — the `id/estRows/...` table (random suffixes stripped);
//! * [`sqlite`] — `EXPLAIN QUERY PLAN` tree text;
//! * [`mongodb`] — `explain()` JSON (`winningPlan` vines);
//! * [`neo4j`] — the operator table of paper Fig. 1;
//! * [`sparksql`] — `== Physical Plan ==` text;
//! * [`influxdb`] — the property-only plan (no tree);
//! * [`sqlserver`] — XML showplan.
//!
//! [`convert`]`(source, text)` is the entry point. Each module declares
//! its dialect's [`SourceConverter`] unit struct over a private body, and
//! [`Source::converter`] hands those out to callers that reuse one
//! [`NodeBuilder`] across many inputs (batch ingest). No dialect has an
//! entry point of its own.
//!
//! Conversion resolves native operation/property names through the study
//! [`Registry`], realizing the unified naming convention (`Seq Scan` /
//! `Table Scan` / `TableFullScan` → `Full_Table_Scan`); names the study did
//! not catalogue fall back to the paper's generic forward-compatible
//! handling (Executor operations, Configuration properties).

use std::sync::OnceLock;

use uplan_core::registry::{Dbms, Registry};
pub use uplan_core::{Error, Result, UnifiedPlan};

pub mod influxdb;
pub mod mongodb;
pub mod mysql;
pub mod neo4j;
pub mod postgres;
pub mod raw;
pub mod sparksql;
pub mod spine;
pub mod sqlite;
pub mod sqlserver;
pub mod tidb;

pub use raw::{
    convert_raw, convert_raw_distinct, ingest_raw, ingest_raw_sequential,
    ingest_raw_sequential_with, ingest_raw_with, sniff_framing, RawErrorKind, RawFraming,
    RawIngestError, RawIngestOptions, RawIngestReport,
};
pub use spine::{NodeBuilder, SourceConverter};

/// The shared study registry (built once).
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::with_study_catalogs)
}

/// Serialized-plan sources accepted by [`convert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// PostgreSQL `EXPLAIN` text.
    PostgresText,
    /// PostgreSQL `EXPLAIN (FORMAT JSON)`.
    PostgresJson,
    /// MySQL `EXPLAIN FORMAT=JSON`.
    MySqlJson,
    /// MySQL classic table.
    MySqlTable,
    /// TiDB `EXPLAIN` table.
    TidbTable,
    /// SQLite `EXPLAIN QUERY PLAN` text.
    SqliteEqp,
    /// MongoDB `explain()` JSON.
    MongoJson,
    /// Neo4j operator table.
    Neo4jTable,
    /// SparkSQL `== Physical Plan ==` text.
    SparkText,
    /// InfluxDB `EXPLAIN` property list.
    InfluxText,
    /// SQL Server XML showplan.
    SqlServerXml,
}

impl Source {
    /// Every supported source dialect, in converter-module order — the
    /// iteration surface for corpus ingest tooling.
    pub const ALL: [Source; 11] = [
        Source::PostgresText,
        Source::PostgresJson,
        Source::MySqlJson,
        Source::MySqlTable,
        Source::TidbTable,
        Source::SqliteEqp,
        Source::MongoJson,
        Source::Neo4jTable,
        Source::SparkText,
        Source::InfluxText,
        Source::SqlServerXml,
    ];

    /// The stable CLI name of the source (`repro corpus ingest <source>`).
    pub fn name(self) -> &'static str {
        match self {
            Source::PostgresText => "postgres-text",
            Source::PostgresJson => "postgres-json",
            Source::MySqlJson => "mysql-json",
            Source::MySqlTable => "mysql-table",
            Source::TidbTable => "tidb-table",
            Source::SqliteEqp => "sqlite-eqp",
            Source::MongoJson => "mongodb-json",
            Source::Neo4jTable => "neo4j-table",
            Source::SparkText => "sparksql-text",
            Source::InfluxText => "influxdb-text",
            Source::SqlServerXml => "sqlserver-xml",
        }
    }

    /// The studied DBMS whose registry catalog this source resolves
    /// against.
    pub fn dbms(self) -> Dbms {
        match self {
            Source::PostgresText | Source::PostgresJson => Dbms::PostgreSql,
            Source::MySqlJson | Source::MySqlTable => Dbms::MySql,
            Source::TidbTable => Dbms::TiDb,
            Source::SqliteEqp => Dbms::Sqlite,
            Source::MongoJson => Dbms::MongoDb,
            Source::Neo4jTable => Dbms::Neo4j,
            Source::SparkText => Dbms::SparkSql,
            Source::InfluxText => Dbms::InfluxDb,
            Source::SqlServerXml => Dbms::SqlServer,
        }
    }

    /// The converter implementing this source (the [`SourceConverter`]
    /// registry every generic consumer dispatches through).
    pub fn converter(self) -> &'static dyn SourceConverter {
        match self {
            Source::PostgresText => &postgres::TextConverter,
            Source::PostgresJson => &postgres::JsonConverter,
            Source::MySqlJson => &mysql::JsonConverter,
            Source::MySqlTable => &mysql::TableConverter,
            Source::TidbTable => &tidb::TableConverter,
            Source::SqliteEqp => &sqlite::EqpConverter,
            Source::MongoJson => &mongodb::JsonConverter,
            Source::Neo4jTable => &neo4j::TableConverter,
            Source::SparkText => &sparksql::TextConverter,
            Source::InfluxText => &influxdb::TextConverter,
            Source::SqlServerXml => &sqlserver::XmlConverter,
        }
    }

    /// Parses a CLI source name: the exact [`Source::name`] spelling
    /// (case-insensitive, `_` accepted for `-`) or any unambiguous prefix
    /// of it (`tidb`, `mongo`). The error names the accepted spellings —
    /// and, for an ambiguous prefix like `postgres`, the candidates.
    pub fn parse(name: &str) -> std::result::Result<Source, String> {
        if let Some(source) = Source::parse_name(name) {
            return Ok(source);
        }
        let normalized = name.trim().to_ascii_lowercase().replace('_', "-");
        let accepted = || Source::ALL.map(Source::name).join(", ");
        if normalized.is_empty() {
            return Err(format!("empty source name; accepted: {}", accepted()));
        }
        let candidates: Vec<Source> = Source::ALL
            .into_iter()
            .filter(|s| s.name().starts_with(&normalized))
            .collect();
        match candidates.as_slice() {
            [] => Err(format!("unknown source {name:?}; accepted: {}", accepted())),
            [one] => Ok(*one),
            many => Err(format!(
                "ambiguous source {name:?}: matches {}; accepted: {}",
                many.iter().map(|s| s.name()).collect::<Vec<_>>().join(", "),
                accepted()
            )),
        }
    }

    /// Parses a CLI source name, without the diagnostic ([`Source::parse`]
    /// is the error-reporting form).
    pub fn parse_name(name: &str) -> Option<Source> {
        let normalized = name.trim().to_ascii_lowercase().replace('_', "-");
        Source::ALL.into_iter().find(|s| s.name() == normalized)
    }
}

/// Converts a serialized plan of the given source dialect.
pub fn convert(source: Source, input: &str) -> Result<UnifiedPlan> {
    source
        .converter()
        .convert(input, &mut NodeBuilder::new(source.dbms()))
}

/// Identifies the source dialect of a serialized plan by sniffing its
/// shape, consulting the converter registry most-distinctive-first (XML
/// and JSON markers before table headers before generic text cues). This
/// is how raw-dump ingest routes lines that do not declare their dialect.
pub fn detect(input: &str) -> Option<Source> {
    /// Sniff order: every earlier entry's cue is absent from every later
    /// dialect's serialization, so the first hit is the answer.
    const DETECT_ORDER: [Source; 11] = [
        Source::SqlServerXml,
        Source::PostgresJson,
        Source::MongoJson,
        Source::MySqlJson,
        Source::SparkText,
        Source::TidbTable,
        Source::MySqlTable,
        Source::Neo4jTable,
        Source::InfluxText,
        Source::SqliteEqp,
        Source::PostgresText,
    ];
    DETECT_ORDER
        .into_iter()
        .find(|source| source.converter().sniff(input))
}

pub(crate) mod util {
    use uplan_core::Value;

    /// Parses a serialized property value: integers, floats, booleans and
    /// `NULL` literals get typed; everything else stays a string.
    pub fn parse_value(text: &str) -> Value {
        let trimmed = text.trim();
        if trimmed.eq_ignore_ascii_case("null") {
            return Value::Null;
        }
        if trimmed.eq_ignore_ascii_case("true") {
            return Value::Bool(true);
        }
        if trimmed.eq_ignore_ascii_case("false") {
            return Value::Bool(false);
        }
        if let Ok(i) = trimmed.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            return Value::Float(f);
        }
        Value::Str(trimmed.to_owned())
    }

    /// Converts a parsed JSON scalar into a property value; containers are
    /// flattened to compact text (the paper keeps property values scalar).
    /// The owned string copy here is the only per-property allocation of a
    /// steady-state JSON conversion.
    pub fn json_value(v: &uplan_core::formats::json::JsonValue<'_>) -> Value {
        use uplan_core::formats::json::JsonValue;
        match v {
            JsonValue::Null => Value::Null,
            JsonValue::Bool(b) => Value::Bool(*b),
            JsonValue::Int(i) => Value::Int(*i),
            JsonValue::Float(f) => Value::Float(*f),
            JsonValue::Str(s) => Value::Str(s.clone().into_owned()),
            other => Value::Str(other.to_compact()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_shared() {
        let a = registry() as *const _;
        let b = registry() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn source_names_round_trip() {
        for source in Source::ALL {
            assert_eq!(Source::parse_name(source.name()), Some(source));
        }
        assert_eq!(
            Source::parse_name("POSTGRES_TEXT"),
            Some(Source::PostgresText)
        );
        assert_eq!(Source::parse_name(" tidb-table "), Some(Source::TidbTable));
        assert_eq!(Source::parse_name("oracle"), None);
    }

    #[test]
    fn value_parsing() {
        use uplan_core::Value;
        assert_eq!(util::parse_value("42"), Value::Int(42));
        assert_eq!(util::parse_value("4.5"), Value::Float(4.5));
        assert_eq!(util::parse_value("true"), Value::Bool(true));
        assert_eq!(util::parse_value("NULL"), Value::Null);
        assert_eq!(util::parse_value(" text "), Value::Str("text".into()));
    }
}
