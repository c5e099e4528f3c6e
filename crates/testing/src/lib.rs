//! # uplan-testing — QPG, CERT and TLP on unified plans (paper A.1)
//!
//! The paper's headline application: re-implementing Query Plan Guidance
//! (QPG, ICSE'23) and Cardinality Estimation Restriction Testing (CERT,
//! ICSE'24) **DBMS-agnostically**, by processing unified plans instead of
//! engine-specific EXPLAIN output. The pipeline per engine is exactly
//! paper Fig. 2:
//!
//! ```text
//! queries → engine → raw serialized plan → converter → unified plan → QPG/CERT
//! ```
//!
//! * [`pipeline`] — the raw-plan → unified-plan step for each engine profile;
//! * [`generator`] — SQLancer-style random schema/data/query generation;
//! * [`oracles`] — the correctness oracles: Ternary Logic Partitioning,
//!   a NoREC-style unoptimized-rewrite check for joins, and small
//!   aggregate/distinct/union checks;
//! * [`qpg`] — plan-fingerprint-guided generation with database mutation;
//! * [`cert`] — estimated-cardinality monotonicity checking;
//! * [`harness`] — the Table V campaign: all faults armed, both methods,
//!   three engines, deduplicated findings;
//! * [`inject`] — seeded fault injection (byte-level corpus mutations and
//!   raw-dump garbage) backing the dirty-fleet hardening tests;
//! * [`fixtures`] — the shared TPC-H-lite dialect fleet: one source of
//!   "this query, serialized in dialect X" for the raw-fixture CLI, the
//!   conversion-spine tests and the converter benches; and the seeded
//!   TPC-H-derived plan population the corpus benches and tests share;
//! * [`scan`] — brute-force reference answers for radius and k-NN plan
//!   queries, the oracle the corpus index is checked and measured against.

pub mod cert;
pub mod fixtures;
pub mod generator;
pub mod harness;
pub mod inject;
pub mod oracles;
pub mod pipeline;
pub mod qpg;
pub mod scan;

pub use harness::{run_campaign, CampaignConfig, CampaignReport, Finding};
