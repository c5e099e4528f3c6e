//! Structured serialization formats (paper Section III-E).
//!
//! The study classifies formats into *natural* (graph, text, table) and
//! *structured* (JSON, XML, YAML) categories. The natural formats live in
//! [`crate::text`] and [`crate::display`]; this module provides the
//! structured ones, all implemented from scratch so the workspace carries no
//! serialization dependencies:
//!
//! * [`json`] — a zero-copy JSON document model, the one pull reader
//!   (which also builds the trees) and a writer (used both to serialize
//!   unified plans and to parse native DBMS explain output);
//! * [`binary`] — the compact, symbol-ref, varint-encoded plan-body codec
//!   every persisted plan is written in;
//! * [`segment`] — the segment-store file formats corpora persist through
//!   (the one on-disk corpus format);
//! * [`xml`] — an XML element model, writer and a small parser (SQL Server
//!   exposes plans as XML showplans);
//! * [`yaml`] — a YAML writer (PostgreSQL's `FORMAT YAML`);
//! * [`unified`] — the mapping between [`crate::UnifiedPlan`] and these
//!   document models.

pub mod binary;
pub mod json;
pub mod segment;
pub mod unified;
pub mod xml;
pub mod yaml;

pub use json::JsonValue;
pub use xml::XmlElement;
