//! # uplan-core — the unified query plan representation
//!
//! This crate implements the unified query plan representation proposed in
//! *"Towards a Unified Query Plan Representation"* (Ba & Rigger, ICDE 2025).
//!
//! The paper's exploratory case study of nine widely-used DBMSs found that all
//! query plan representations are built from three conceptual components:
//!
//! * **operations** — concrete steps executed by the DBMS, classified into
//!   seven categories grounded in relational algebra
//!   ([`OperationCategory`]);
//! * **properties** — operation- or plan-associated information, classified
//!   into four categories ([`PropertyCategory`]);
//! * **formats** — the serializations a DBMS offers (text, table, JSON, XML,
//!   YAML, graph), modelled by [`registry::FormatSupport`] and the writers in
//!   [`formats`], [`text`] and [`display`].
//!
//! The unified representation itself (paper Listing 2, in EBNF) is
//! [`UnifiedPlan`]: an optional tree of [`PlanNode`]s — each an [`Operation`]
//! plus zero or more [`Property`]s — together with plan-associated properties.
//!
//! ```
//! use uplan_core::{PlanNode, Property, PropertyCategory, UnifiedPlan};
//! use uplan_core::unified_names as names;
//!
//! // Build the unified plan of Fig. 2: a TiDB `SELECT * FROM t0 WHERE c0 < 5`.
//! let scan = PlanNode::producer(names::FULL_TABLE_SCAN)
//!     .with_property(Property::configuration("name_object", "t0"))
//!     .with_property(Property::cardinality("rows", 5));
//! let root = PlanNode::executor(names::COLLECT).with_child(scan);
//! let plan = UnifiedPlan::with_root(root);
//!
//! // Round-trip through the strict EBNF text format of paper Listing 2.
//! let serialized = uplan_core::text::to_text(&plan);
//! let reparsed = uplan_core::text::from_text(&serialized).unwrap();
//! assert_eq!(plan, reparsed);
//! ```
//!
//! The [`registry`] module carries the study data of the paper's Section III:
//! per-DBMS catalogs of operations and properties (count-exact to Table II),
//! the format-support matrix (Table III) and the third-party visualization
//! tool survey (Table IV). [`fingerprint`] and [`stats`] provide the plan
//! processing that the paper's applications (QPG/CERT testing, visualization,
//! cross-DBMS benchmarking) are built on.
//!
//! ## The `Symbol` layer and the hot-path performance contract
//!
//! Identifiers come from a *closed* vocabulary — the unified names the nine
//! catalogs map to, plus runtime registrations — so [`Operation::identifier`]
//! and [`Property::identifier`] are interned [`Symbol`]s (`u32` indices into
//! a process-wide, thread-safe table; see [`symbol`]) rather than owned
//! `String`s. The interner is pre-seeded from the category names, the
//! [`unified_names`] vocabulary, and every catalogued unified identifier, and
//! it memoizes per symbol both the *stable* (suffix-stripped) form and an
//! FNV-1a content hash.
//!
//! This buys the plan-identity hot paths an explicit performance contract:
//!
//! * **`fingerprint` / `tree_edit_distance` / registry resolution do not
//!   allocate per node.** Fingerprinting mixes memoized 64-bit symbol
//!   hashes; TED compares labels by packed-`u32`-pair equality over flat DP
//!   tables; the registry probes native names by streaming normalization.
//! * **Plan construction through converters interns nothing in steady
//!   state** — every catalogued name resolves to a pre-seeded symbol, and
//!   symbol equality (`node.operation.identifier == "Hash_Join"` via
//!   `PartialEq<&str>`, or symbol-to-symbol as `u32`) never walks bytes.
//! * **JSON ingest is zero-copy** ([`formats::json`]): the lexer hands out
//!   escape-free strings and object keys as `Cow::Borrowed` spans of the
//!   input and parses numbers in place, so the JSON layer's only
//!   allocations are container vectors and the decoded forms of strings
//!   that actually contain escapes. Schema-directed consumers (the unified
//!   reader, the three JSON converters) walk explain output through the
//!   pull [`formats::json::JsonReader`] without materializing a JSON
//!   tree at all; steady-state JSON conversion copies bytes only into
//!   property *values*.
//! * **The binary codec amortizes across a corpus** ([`formats::binary`]):
//!   a segment store carries one symbol chain for *all* its plans, so
//!   decoding validates and interns each identifier once per store — not
//!   once per node — and plan bodies decode with no lexing, no escape
//!   handling and no keyword re-validation. The segment layout is
//!   versioned ([`formats::segment::SEGMENT_CODEC_VERSION`]): readers
//!   reject unknown versions, and `tests/golden.rs` pins the exact bytes
//!   of a one-plan segment — persisted corpora must never silently change
//!   shape.
//! * **The interner does not serialize parallel ingest**: the spelling map
//!   is sharded across [`symbol::SHARD_COUNT`] locks (selected by spelling
//!   hash), and the index→entry table's write lock is taken only when a
//!   first-seen spelling is inserted. Lookup of a pre-seeded name costs one
//!   shard read lock and allocates nothing.
//! * Symbol *indices* are process-local; anything persisted (fingerprints)
//!   is built from content hashes and is stable across processes, platforms
//!   and releases (`tests/golden.rs` pins the values).
//!
//! Code that renders or parses text still touches `&str` — use
//! [`Symbol::as_str`] (single read-lock) or batch through
//! [`symbol::SymbolTable`] on hot paths.

pub mod crc32;
pub mod display;
pub mod error;
pub mod fingerprint;
pub mod formats;
pub mod keyword;
pub mod model;
pub mod registry;
pub mod stats;
pub mod symbol;
pub mod ted;
pub mod text;
pub mod unified_names;
pub mod value;

pub use error::{Error, Result};
pub use model::{Operation, OperationCategory, PlanNode, Property, PropertyCategory, UnifiedPlan};
pub use symbol::Symbol;
pub use value::Value;
