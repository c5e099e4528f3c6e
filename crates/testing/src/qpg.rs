//! Query Plan Guidance, DBMS-agnostic (paper A.1).
//!
//! QPG's loop (Ba & Rigger, ICSE'23): generate random queries; observe each
//! query's plan; when no *structurally new* plan has been seen for a window
//! of queries, mutate the database state (add an index, change data) to
//! unlock new plan shapes; check every query with the oracles. The paper's
//! contribution is that "evaluating whether a query plan is structurally
//! different" now happens on **unified plans** — one implementation for
//! every engine, with TiDB's random operator identifiers neutralized by the
//! representation, not by per-DBMS string hacks.
//!
//! Campaign plans are observed through a [`PlanCorpus`] — since the
//! corpus-sharding rework, a fingerprint-prefix-sharded store: fingerprint
//! dedup answers "is this plan exactly new?", and the per-shard TED-metric
//! BK-trees let [`QpgConfig::novelty_radius`] raise the bar to "is this
//! plan unlike anything seen?" — near-duplicate shapes (one index condition
//! swapped, one wrapper inserted) stop resetting the stall window, so the
//! campaign mutates state sooner and spends its query budget on genuinely
//! new coverage. The whole observed corpus comes back in
//! [`QpgOutcome::corpus`] for persistence (`repro corpus campaign`,
//! indexed save → index-free reload) and cross-run diffing; campaign
//! *replays* of persisted observation streams go through the corpus's
//! parallel ingest.

use minidb::faults::BugId;
use minidb::Database;
use uplan_core::fingerprint::FingerprintOptions;
use uplan_corpus::PlanCorpus;

use crate::generator::Generator;
use crate::oracles::{self, OracleFailure};
use crate::pipeline::PlanPipeline;

/// QPG configuration.
#[derive(Debug, Clone, Copy)]
pub struct QpgConfig {
    /// Queries to generate.
    pub queries: usize,
    /// Mutate the database after this many queries without a new plan.
    pub stall_window: usize,
    /// Disable plan guidance (ablation: blind random generation).
    pub guidance: bool,
    /// Fingerprint options (the buggy non-stripping variant reproduces the
    /// original QPG TiDB parser bug).
    pub fingerprints: FingerprintOptions,
    /// Tree-edit-distance radius for novelty: 0 (the default) counts every
    /// fingerprint-new plan as novel; `r > 0` additionally requires the
    /// plan to be more than `r` tree edits from every stored plan before it
    /// resets the stall window.
    pub novelty_radius: u32,
}

impl Default for QpgConfig {
    fn default() -> Self {
        QpgConfig {
            queries: 300,
            stall_window: 12,
            guidance: true,
            fingerprints: FingerprintOptions::default(),
            novelty_radius: 0,
        }
    }
}

/// QPG run outcome.
#[derive(Debug)]
pub struct QpgOutcome {
    /// Oracle failures observed (wrong results).
    pub failures: Vec<OracleFailure>,
    /// Faults that fired (campaign accounting, from the engine's log).
    pub fired: Vec<BugId>,
    /// Distinct plans observed.
    pub distinct_plans: usize,
    /// Database mutations applied.
    pub mutations: usize,
    /// Queries executed.
    pub queries: usize,
    /// Every distinct plan the campaign observed, metric-indexed — persist
    /// it with [`uplan_corpus::SegmentStore::create`] to keep the
    /// campaign's coverage.
    pub corpus: PlanCorpus,
}

/// Runs QPG against a prepared database.
pub fn run(db: &mut Database, generator: &mut Generator, config: QpgConfig) -> QpgOutcome {
    let mut pipeline = PlanPipeline::new();
    let mut corpus = PlanCorpus::with_options(config.fingerprints);
    let mut failures = Vec::new();
    let mut fired = std::collections::BTreeSet::new();
    let mut stall = 0usize;
    let mut mutations = 0usize;

    for i in 0..config.queries {
        let query = generator.query();

        // Observe the plan through the unified pipeline into the corpus.
        if config.guidance {
            if let Ok(plan) = pipeline.unified_plan(db, &query.sql) {
                if corpus.observe_novel(&plan, config.novelty_radius) {
                    stall = 0;
                } else {
                    stall += 1;
                }
            }
            if stall >= config.stall_window {
                generator.mutate(db);
                mutations += 1;
                stall = 0;
            }
        } else if i % 40 == 39 {
            // Ablation: mutate on a fixed schedule instead.
            generator.mutate(db);
            mutations += 1;
        }

        // Oracles.
        let checks = [
            oracles::tlp(db, &query.from, &query.predicate),
            if query.has_join {
                let mut parts = query.from.split(" JOIN ");
                let left = parts.next().unwrap_or_default().to_owned();
                let right = parts
                    .next()
                    .and_then(|r| r.split_whitespace().next())
                    .unwrap_or_default()
                    .to_owned();
                oracles::join_norec(db, &left, &right)
            } else {
                None
            },
            if i % 11 == 0 {
                let table = query
                    .from
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_owned();
                oracles::empty_sum(db, &table)
            } else {
                None
            },
            if i % 13 == 0 {
                let table = query
                    .from
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_owned();
                oracles::distinct_check(db, &table)
            } else {
                None
            },
            if i % 17 == 0 && !query.has_join {
                oracles::union_all_check(db, &query.from, &query.predicate)
            } else {
                None
            },
        ];
        failures.extend(checks.into_iter().flatten());
        fired.extend(db.take_fault_log());
    }

    QpgOutcome {
        failures,
        fired: fired.into_iter().collect(),
        distinct_plans: corpus.len(),
        mutations,
        queries: config.queries,
        corpus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::profile::EngineProfile;

    #[test]
    fn healthy_engines_report_nothing() {
        for profile in [
            EngineProfile::Postgres,
            EngineProfile::MySql,
            EngineProfile::TiDb,
        ] {
            let mut db = Database::new(profile);
            let mut generator = Generator::new(11);
            generator.create_schema(&mut db, 2);
            let outcome = run(
                &mut db,
                &mut generator,
                QpgConfig {
                    queries: 60,
                    ..QpgConfig::default()
                },
            );
            assert!(
                outcome.failures.is_empty(),
                "{profile}: {:?}",
                outcome.failures.first()
            );
            assert!(outcome.distinct_plans > 1);
        }
    }

    #[test]
    fn qpg_finds_mysql_faults() {
        let mut db = Database::new(EngineProfile::MySql);
        db.arm_all_faults();
        let mut generator = Generator::new(23);
        generator.create_schema(&mut db, 2);
        let outcome = run(
            &mut db,
            &mut generator,
            QpgConfig {
                queries: 250,
                ..QpgConfig::default()
            },
        );
        assert!(!outcome.failures.is_empty(), "some oracle must fire");
        assert!(!outcome.fired.is_empty());
        assert!(outcome.mutations > 0, "state mutation is part of QPG");
    }

    #[test]
    fn guidance_observes_distinct_plans() {
        let mut db = Database::new(EngineProfile::TiDb);
        let mut generator = Generator::new(5);
        generator.create_schema(&mut db, 2);
        let outcome = run(
            &mut db,
            &mut generator,
            QpgConfig {
                queries: 80,
                ..QpgConfig::default()
            },
        );
        assert!(outcome.distinct_plans >= 3, "{}", outcome.distinct_plans);
    }

    #[test]
    fn outcome_carries_the_observed_corpus() {
        let mut db = Database::new(EngineProfile::Postgres);
        let mut generator = Generator::new(3);
        generator.create_schema(&mut db, 2);
        let outcome = run(
            &mut db,
            &mut generator,
            QpgConfig {
                queries: 40,
                ..QpgConfig::default()
            },
        );
        assert_eq!(outcome.corpus.len(), outcome.distinct_plans);
        assert!(outcome.corpus.observed() > outcome.corpus.len() as u64);
        // The campaign observes through the sharded store.
        assert!(outcome.corpus.shard_count() > 1);
        // The corpus persists as a segment store and reopens with its
        // metric index, so a campaign can be resumed without re-running a
        // single TED evaluation to rebuild it.
        let dir = std::env::temp_dir().join(format!("uplan-qpg-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        uplan_corpus::SegmentStore::create(&dir, outcome.corpus.clone()).unwrap();
        let resumed = uplan_corpus::SegmentStore::open(&dir)
            .unwrap()
            .into_corpus();
        assert_eq!(resumed.len(), outcome.corpus.len());
        assert_eq!(resumed.index_evals(), 0);
        assert!(resumed.has_persisted_index());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_replay_through_parallel_ingest_matches_observation() {
        // Re-ingesting a campaign's observation stream in parallel must
        // reproduce the exact corpus the sequential campaign built — the
        // determinism contract QPG fleets rely on when merging per-worker
        // streams.
        let mut db = Database::new(EngineProfile::TiDb);
        let mut generator = Generator::new(41);
        generator.create_schema(&mut db, 2);
        let mut pipeline = crate::pipeline::PlanPipeline::new();
        let mut stream = Vec::new();
        let mut corpus = PlanCorpus::new();
        for _ in 0..60 {
            let query = generator.query();
            if let Ok(plan) = pipeline.unified_plan(&mut db, &query.sql) {
                corpus.observe(&plan);
                stream.push(plan);
            }
        }
        let mut replay = PlanCorpus::new();
        replay.ingest_parallel(&stream, 4);
        assert_eq!(
            uplan_corpus::encode_segment(&replay).unwrap(),
            uplan_corpus::encode_segment(&corpus).unwrap()
        );
    }

    #[test]
    fn novelty_radius_mutates_at_least_as_often() {
        // Near-duplicate plans stop resetting the stall window under a
        // radius, so the campaign can only mutate state more (or equally)
        // often — never less.
        let run_with = |radius: u32| {
            let mut db = Database::new(EngineProfile::Postgres);
            let mut generator = Generator::new(17);
            generator.create_schema(&mut db, 2);
            run(
                &mut db,
                &mut generator,
                QpgConfig {
                    queries: 120,
                    novelty_radius: radius,
                    ..QpgConfig::default()
                },
            )
        };
        let exact = run_with(0);
        let radius = run_with(2);
        assert!(
            radius.mutations >= exact.mutations,
            "radius {} vs exact {}",
            radius.mutations,
            exact.mutations
        );
        // Distinct storage is unaffected by the novelty bar: every
        // fingerprint-new plan is still stored.
        assert!(!radius.corpus.is_empty());
    }

    #[test]
    fn unified_pipeline_neutralizes_tidb_suffixes() {
        // The original QPG implementation parsed TiDB plans with string
        // hacks and was bitten by the random operator suffixes. Through the
        // unified pipeline the converter maps names to unified identifiers,
        // so even the *buggy* fingerprint options (no suffix stripping)
        // observe the same plan count — the representation itself prevents
        // the bug. (The raw-fingerprint divergence is demonstrated in
        // uplan-core's fingerprint tests.)
        let run_with = |strip: bool| {
            let mut db = Database::new(EngineProfile::TiDb);
            let mut generator = Generator::new(9);
            generator.create_schema(&mut db, 2);
            run(
                &mut db,
                &mut generator,
                QpgConfig {
                    queries: 60,
                    fingerprints: FingerprintOptions {
                        strip_numeric_suffixes: strip,
                        ..FingerprintOptions::default()
                    },
                    ..QpgConfig::default()
                },
            )
        };
        let healthy = run_with(true);
        let buggy = run_with(false);
        assert_eq!(buggy.distinct_plans, healthy.distinct_plans);
    }
}
