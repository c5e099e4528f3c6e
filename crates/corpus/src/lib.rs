//! # uplan-corpus — a persistent, TED-metric-indexed store of unified plans
//!
//! The paper's headline applications — plan-coverage-guided testing (QPG)
//! and cross-version / cross-DBMS plan analysis — all accumulate *large
//! populations* of plans and ask two questions of them: "have I seen this
//! exact plan?" and "have I seen anything *like* it?". This crate answers
//! both at campaign scale:
//!
//! * **Exact identity** is fingerprint dedup, shared with the rest of the
//!   workspace through [`uplan_core::fingerprint::FingerprintSet`] (the one
//!   "have I seen this plan?" implementation).
//! * **Similarity** is tree edit distance. TED with unit costs is a true
//!   metric, so each shard keeps its distinct plans in a
//!   [`bktree::BkTree`] and answers radius and k-nearest-neighbor queries
//!   with triangle-inequality pruning — a counted ~10–100× fewer TED
//!   evaluations than a brute-force scan at 10k plans (see the `corpus/*`
//!   benches and the scan-vs-index tests, which compare evaluation
//!   *counts*, not timings).
//! * **Scale** is sharding: a [`ShardedCorpus`] splits fingerprint space by
//!   prefix into independent `FingerprintSet` + BK-tree shards, so a
//!   fuzzing campaign's ingest fans out across threads without locks
//!   ([`ShardedCorpus::ingest_parallel`]) while a query walks the shards
//!   in turn and merges by distance. Ingest is *deterministic under
//!   parallelism*: any thread count produces byte-identical corpora,
//!   because shard routing is a pure function of the fingerprint and each
//!   shard sees its plans in stream order.
//! * **Persistence** is the append-only [`segment::SegmentStore`]: a
//!   directory of immutable CRC-checked segment files plus a small
//!   manifest, written only by [`SegmentStore::create`],
//!   [`SegmentStore::append`] and [`SegmentStore::compact`]. Each segment
//!   carries its plans, fingerprints, feature rows and BK-index topology,
//!   so opening a store reconstructs the metric index with **zero** TED
//!   evaluations and decodes plan bodies lazily; [`encode_segment`] is the
//!   in-memory byte oracle of what `create` writes. Damaged stores salvage
//!   per segment ([`SegmentStore::salvage`]).
//!
//! The store is the substrate the testing loop observes plans through
//! (`uplan-testing`'s QPG), the `repro corpus` CLI manages, and
//! cross-version fleet work builds on. [`PlanCorpus`] is the historical
//! name and remains the alias everything else in the workspace uses.

pub mod bktree;
pub mod features;
pub mod query;
pub mod segment;
pub mod service;
mod shard;

use std::borrow::Cow;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use uplan_core::fingerprint::{fingerprint_with, Fingerprint, FingerprintOptions};
use uplan_core::formats::binary::MAX_INDEX_SHARDS;
use uplan_core::formats::unified;
use uplan_core::ted::{BoundedTed, TedPlan, TedProbe, TedScratch};
use uplan_core::{Result, UnifiedPlan};

use features::{features_of, l1_distance};
use shard::CorpusShard;

/// Global-registry handles for the store side of the corpus: how many
/// plans have been observed process-wide and how batched ingest spreads
/// them over shards.
struct CorpusMetrics {
    /// `uplan_corpus_observed_total` — plans offered to any corpus
    /// (novel or duplicate).
    observed: Arc<uplan_obs::Counter>,
    /// `uplan_corpus_shard_ingest_plans` — plans routed per non-empty
    /// shard per parallel ingest (the shard-balance distribution).
    shard_ingest: Arc<uplan_obs::Histogram>,
}

fn corpus_metrics() -> &'static CorpusMetrics {
    static METRICS: OnceLock<CorpusMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = uplan_obs::global();
        CorpusMetrics {
            observed: registry.counter(
                "uplan_corpus_observed_total",
                "plans offered to a corpus, novel or duplicate",
            ),
            shard_ingest: registry.histogram(
                "uplan_corpus_shard_ingest_plans",
                "plans routed to each non-empty shard per parallel ingest",
            ),
        }
    })
}

pub use query::{QueryError, QueryKind, QueryOutcome, QueryRequest, QueryResponse};
pub use segment::{
    encode_segment, segment_file, AppendReport, CompactReport, SegmentCensus, SegmentSalvageReport,
    SegmentStore, MANIFEST_FILE,
};
pub use service::{
    CorpusService, CorpusSnapshot, MergeReport, ServiceError, SnapshotReader,
    DEFAULT_PENDING_CAPACITY,
};

/// Default shard count of a corpus.
///
/// Sharding trades query evaluations for ingest parallelism: every shard
/// is one more BK root a fanned-out query must visit, so per-query TED
/// counts grow roughly linearly in the shard count while BK-phase ingest
/// scales up to it. Four keeps metric queries ≥10× cheaper than scans even
/// on small (1k-plan) populations — the tier-1 counted-evals gate — while
/// covering the thread counts of commodity CI runners. Campaigns on wider
/// machines can raise it per corpus ([`ShardedCorpus::with_shards`]); the
/// pruning ratio recovers with population size (~44× for one shard at 10k
/// plans).
pub const DEFAULT_SHARDS: usize = 4;

/// Result rows of a metric query: `(plan id, TED distance)`.
pub type Matches = Vec<(usize, u32)>;

/// A metric query's outcome, carrying the evaluation count the index is
/// judged by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MetricQuery {
    /// Matching plans as `(plan id, distance)`; radius queries sort by id,
    /// k-NN queries by ascending distance.
    pub matches: Matches,
    /// Number of tree-edit-distance evaluations *started* answering. The
    /// count is invariant under the early-exit kernel: a bounded
    /// evaluation that exits early still counts — which is what makes
    /// kernel-on and kernel-off traversals comparable eval-for-eval.
    pub ted_evals: u64,
    /// Of `ted_evals`, how many exited early (the bounded kernel proved
    /// distance > bound without finishing the dynamic program).
    /// `ted_evals - partial_evals` is the full-evaluation count approx
    /// mode is gated on.
    pub partial_evals: u64,
    /// Plans the approximate pre-filter shortlisted for exact re-ranking;
    /// zero for exact-mode queries (no pre-filter ran).
    pub candidates_considered: u64,
}

impl MetricQuery {
    /// A query answered by full evaluations only (no early exits, no
    /// shortlist).
    fn exact(matches: Matches, ted_evals: u64) -> MetricQuery {
        MetricQuery {
            matches,
            ted_evals,
            partial_evals: 0,
            candidates_considered: 0,
        }
    }
}

/// The production walk metric over `(shard, local id, bound)`: the
/// memoized, label-bounded, banded early-exit TED kernel of one probe
/// ([`TedProbe`]), counting the `Exceeded` verdicts into `partials`. The
/// memo and bounds change no verdict, so evaluation starts and partial
/// counts equal the plain banded kernel's.
fn banded<'a>(
    probe: &'a TedPlan,
    scratch: &'a mut TedScratch,
    partials: &'a mut u64,
) -> impl FnMut(&'a CorpusShard, u32, u32) -> Option<u32> + 'a {
    let mut probe = TedProbe::new(probe);
    move |shard, local, bound| match probe.distance_bounded(
        shard.store.ted(local as usize),
        bound as usize,
        scratch,
    ) {
        BoundedTed::Exact(d) => Some(d as u32),
        BoundedTed::Exceeded => {
            *partials += 1;
            None
        }
    }
}

/// Aggregate corpus statistics (`repro corpus stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusStats {
    /// Plans observed by this corpus instance, including fingerprint
    /// duplicates (session-local — not persisted; a reloaded corpus
    /// reports `observed == distinct`).
    pub observed: u64,
    /// Distinct plans stored (fingerprint-deduplicated).
    pub distinct: usize,
    /// Observations that were fingerprint duplicates (session-local, see
    /// `observed`).
    pub duplicates: u64,
    /// Total operations across distinct plans.
    pub operations: usize,
    /// Deepest stored plan tree.
    pub max_depth: usize,
}

/// One near-duplicate cluster: a leader plan and the members within the
/// clustering radius of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Plan id of the cluster leader (the lowest unclaimed id at its turn).
    pub leader: usize,
    /// `(plan id, TED distance to leader)`, leader first at distance 0.
    pub members: Vec<(usize, u32)>,
}

/// Outcome of diffing two corpora (`repro corpus diff`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusDiff {
    /// The TED radius the `beyond_radius_*` rows were computed at.
    pub radius: u32,
    /// Distinct fingerprints present in both corpora.
    pub shared: usize,
    /// Left plan ids whose fingerprint is absent from the right corpus.
    pub fingerprint_only_left: Vec<usize>,
    /// Right plan ids whose fingerprint is absent from the left corpus.
    pub fingerprint_only_right: Vec<usize>,
    /// Of `fingerprint_only_left`, the ids with no right plan within
    /// `radius` — genuinely novel shapes, not near-duplicates.
    pub beyond_radius_left: Vec<usize>,
    /// Of `fingerprint_only_right`, the ids with no left plan within
    /// `radius`.
    pub beyond_radius_right: Vec<usize>,
}

/// The historical name of the corpus store; since the sharding rework it
/// *is* the sharded store (one shard behaves exactly like the old
/// single-tree corpus, and the default is [`DEFAULT_SHARDS`]).
pub type PlanCorpus = ShardedCorpus;

/// Which shard a fingerprint routes to: its top `bits` bits — the
/// "fingerprint prefix". A pure function of the fingerprint, which is what
/// makes routing reproducible across runs, thread counts and reloads.
fn shard_index(fp: Fingerprint, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        (fp.0 >> (64 - bits)) as usize
    }
}

/// The fingerprint-flags byte of every manifest and segment: the
/// [`FingerprintOptions`] in the low bits plus the fingerprint *scheme*
/// version in the high bits. Shard routing depends on both, so a store
/// opens only under the flags it was written with; a future scheme bump
/// changes the byte and makes an old store refuse to open instead of
/// answering through mismatched routing.
fn options_flags(options: FingerprintOptions) -> u8 {
    u8::from(options.strip_numeric_suffixes)
        | u8::from(options.include_configuration_keys) << 1
        | u8::from(options.include_configuration_values) << 2
        | (uplan_core::fingerprint::FINGERPRINT_SCHEME_VERSION as u8 & 0x1f) << 3
}

/// A fingerprint-deduplicated, BK-tree-indexed population of unified
/// plans, sharded by fingerprint prefix.
///
/// Dense global plan ids (`0..len()`) are assigned in observation order;
/// internally each plan lives in the shard its fingerprint prefix selects.
/// See the crate docs for the sharding, determinism and persistence
/// contracts.
#[derive(Debug, Clone)]
pub struct ShardedCorpus {
    options: FingerprintOptions,
    /// `shards.len() == 1 << shard_bits`.
    shards: Vec<CorpusShard>,
    shard_bits: u32,
    /// Global id → `(shard, local id)`.
    directory: Vec<(u32, u32)>,
    observed: u64,
    persisted_index: bool,
    /// Total operations across stored plans, maintained at store time so
    /// [`ShardedCorpus::stats`] never walks plan payloads (which would
    /// force a lazily opened corpus to decode everything).
    operations: usize,
    /// Deepest stored plan tree, maintained like `operations`.
    max_depth: usize,
    /// Per-segment pruning summaries when this corpus was opened from a
    /// [`segment::SegmentStore`] (empty otherwise). Segments cover a
    /// contiguous prefix of the global id space; ids past the covered
    /// prefix (appended after open) are always scanned.
    segment_hints: Vec<segment::SegmentHint>,
}

impl Default for ShardedCorpus {
    fn default() -> ShardedCorpus {
        ShardedCorpus::new()
    }
}

impl ShardedCorpus {
    /// An empty corpus with default fingerprint options and
    /// [`DEFAULT_SHARDS`] shards.
    pub fn new() -> ShardedCorpus {
        ShardedCorpus::with_options_and_shards(FingerprintOptions::default(), DEFAULT_SHARDS)
    }

    /// An empty corpus with explicit fingerprint options.
    pub fn with_options(options: FingerprintOptions) -> ShardedCorpus {
        ShardedCorpus::with_options_and_shards(options, DEFAULT_SHARDS)
    }

    /// An empty corpus with an explicit shard count (rounded up to a power
    /// of two, clamped to `1..=`[`MAX_INDEX_SHARDS`]). One shard reproduces
    /// the pre-sharding corpus exactly: a single dedup set and BK-tree.
    pub fn with_shards(shards: usize) -> ShardedCorpus {
        ShardedCorpus::with_options_and_shards(FingerprintOptions::default(), shards)
    }

    /// An empty corpus with explicit fingerprint options and shard count
    /// (rounded up to a power of two, clamped to `1..=`[`MAX_INDEX_SHARDS`]).
    pub fn with_options_and_shards(options: FingerprintOptions, shards: usize) -> ShardedCorpus {
        let shards = shards.clamp(1, MAX_INDEX_SHARDS).next_power_of_two();
        ShardedCorpus {
            options,
            shards: (0..shards)
                .map(|_| CorpusShard::with_options(options))
                .collect(),
            shard_bits: shards.trailing_zeros(),
            directory: Vec::new(),
            observed: 0,
            persisted_index: false,
            operations: 0,
            max_depth: 0,
            segment_hints: Vec::new(),
        }
    }

    /// The fingerprint options this corpus dedups and routes under.
    pub fn options(&self) -> FingerprintOptions {
        self.options
    }

    /// Number of fingerprint-prefix shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of distinct plans stored.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// `true` when no plan has been stored.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Total plans observed by *this corpus instance*, including
    /// fingerprint duplicates. Session-local: persistence stores only the
    /// distinct plan set, so a reloaded corpus restarts at
    /// `observed() == len()`.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Observations that were fingerprint duplicates of stored plans
    /// (session-local, like [`ShardedCorpus::observed`]).
    pub fn duplicates(&self) -> u64 {
        self.observed - self.directory.len() as u64
    }

    /// TED evaluations spent *building* the metric index so far (BK insert
    /// routing, summed over shards). Zero after a store open, which
    /// adopts the persisted index.
    pub fn index_evals(&self) -> u64 {
        self.shards.iter().map(|s| s.index_evals).sum()
    }

    /// `true` when this corpus was opened from a store, adopting its
    /// persisted index (zero TED evaluations on load).
    pub fn has_persisted_index(&self) -> bool {
        self.persisted_index
    }

    /// The stored plan with the given id (ids are dense, `0..len()`).
    /// Decodes the full plan on first call when the corpus was opened
    /// lazily from a segment store; queries never call it, because they
    /// read TED views only.
    pub fn plan(&self, id: usize) -> &UnifiedPlan {
        let (shard, local) = self.directory[id];
        self.shards[shard as usize].store.plan(local as usize)
    }

    /// The pre-flattened TED view of the stored plan with the given id
    /// (lazy-decoding; a lazy slot keeps the view, not the plan).
    fn ted_of(&self, id: usize) -> &TedPlan {
        let (shard, local) = self.directory[id];
        self.shards[shard as usize].store.ted(local as usize)
    }

    /// Plans whose payload is actually decoded in memory, as a TED view
    /// or a full plan. Equals [`ShardedCorpus::len`] for an ingested
    /// corpus; starts at zero for a lazily opened one and grows as queries
    /// touch plans or callers read them. Clones share one decode cache,
    /// so a plan decoded through any clone of a lazily opened corpus
    /// counts as decoded in all of them.
    pub fn decoded_plans(&self) -> usize {
        self.shards.iter().map(|s| s.store.decoded()).sum()
    }

    /// The fingerprint of the stored plan with the given id.
    pub fn fingerprint(&self, id: usize) -> Fingerprint {
        let (shard, local) = self.directory[id];
        self.shards[shard as usize].fingerprints[local as usize]
    }

    /// Iterates over `(id, plan)` in insertion order (decoding lazy
    /// payloads as it goes).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &UnifiedPlan)> {
        self.directory
            .iter()
            .enumerate()
            .map(|(id, &(shard, local))| {
                (id, self.shards[shard as usize].store.plan(local as usize))
            })
    }

    /// Fingerprints a plan under this corpus's options (without recording
    /// it).
    pub fn fingerprint_of(&self, plan: &UnifiedPlan) -> Fingerprint {
        fingerprint_with(plan, self.options)
    }

    /// Whether a structurally equal plan (same fingerprint) is stored.
    pub fn contains(&self, plan: &UnifiedPlan) -> bool {
        self.contains_fingerprint(self.fingerprint_of(plan))
    }

    /// Whether a fingerprint is stored.
    pub fn contains_fingerprint(&self, fp: Fingerprint) -> bool {
        self.shards[shard_index(fp, self.shard_bits)]
            .dedup
            .contains_fingerprint(fp)
    }

    /// Claims a fingerprint in its shard's dedup set; `Some(shard)` when it
    /// was new.
    fn claim(&mut self, fp: Fingerprint) -> Option<usize> {
        let s = shard_index(fp, self.shard_bits);
        self.shards[s].dedup.insert(fp).then_some(s)
    }

    /// Stores a claimed plan, assigning the next dense global id.
    fn place(&mut self, s: usize, plan: UnifiedPlan, fp: Fingerprint) -> usize {
        self.operations += plan.operation_count();
        self.max_depth = self
            .max_depth
            .max(plan.root.as_ref().map_or(0, |r| r.depth()));
        let global = u32::try_from(self.directory.len()).expect("corpus overflow");
        let local = self.shards[s].store(plan, fp, global);
        self.directory.push((s as u32, local));
        global as usize
    }

    /// The one single-plan admission step: counts the observation,
    /// fingerprints the plan, claims the fingerprint and, when it was new,
    /// places the plan under the next dense id. A borrowed plan is cloned
    /// only when it is stored.
    fn admit(&mut self, plan: Cow<'_, UnifiedPlan>) -> Option<usize> {
        self.observed += 1;
        corpus_metrics().observed.inc();
        let fp = self.fingerprint_of(&plan);
        let s = self.claim(fp)?;
        Some(self.place(s, plan.into_owned(), fp))
    }

    /// Observes a plan: stores it (cloning) when its fingerprint is new.
    /// Returns `true` for fingerprint-novel plans.
    pub fn observe(&mut self, plan: &UnifiedPlan) -> bool {
        self.admit(Cow::Borrowed(plan)).is_some()
    }

    /// Observes a plan with a *novelty radius*: the plan is stored whenever
    /// its fingerprint is new, but it only counts as novel when no other
    /// stored plan lies within `radius` tree edits of it. Radius 0
    /// degenerates to plain fingerprint novelty (a distance-0 twin is a
    /// different fingerprint spelling of the same tree).
    ///
    /// This is the QPG campaign primitive: "a new plan" becomes "a plan
    /// unlike anything seen", which stops near-duplicate plan shapes from
    /// resetting the mutation stall window.
    pub fn observe_novel(&mut self, plan: &UnifiedPlan, radius: u32) -> bool {
        let Some(id) = self.admit(Cow::Borrowed(plan)) else {
            return false;
        };
        radius == 0
            || self
                .radius_query(plan, radius, u64::MAX)
                .0
                .matches
                .iter()
                .all(|&(other, _)| other == id)
    }

    /// Counts `duplicates` offers of plans whose fingerprints this corpus
    /// already stores, without seeing them: for callers that drop known
    /// duplicates before offering the rest (raw ingest drops them on its
    /// conversion workers). [`ShardedCorpus::observed`],
    /// [`ShardedCorpus::duplicates`] and `uplan_corpus_observed_total`
    /// count them like any duplicate offer.
    pub fn observe_duplicates(&mut self, duplicates: usize) {
        self.observed += duplicates as u64;
        corpus_metrics().observed.add(duplicates as u64);
    }

    /// Inserts a plan by value; returns its id, or `None` if its
    /// fingerprint was already stored.
    pub fn insert(&mut self, plan: UnifiedPlan) -> Option<usize> {
        self.admit(Cow::Owned(plan))
    }

    /// Ingests a whole observation stream across `threads` worker threads
    /// (scoped, no pool), returning the number of fingerprint-novel plans
    /// stored. **Deterministic under parallelism**: for any thread count —
    /// including 1, and including a plain [`ShardedCorpus::observe`] loop —
    /// the resulting corpus is identical, byte for byte, because shard
    /// routing is a pure function of the fingerprint and every shard
    /// ingests its plans in stream order.
    ///
    /// Three phases: fingerprint the stream in parallel chunks; route
    /// stream positions to shards; let workers ingest whole shards
    /// (dedup + BK indexing, no locks — shards are independent). A final
    /// stream-order merge assigns the same dense global ids a sequential
    /// loop would have.
    pub fn ingest_parallel(&mut self, plans: &[UnifiedPlan], threads: usize) -> usize {
        self.observed += plans.len() as u64;
        corpus_metrics().observed.add(plans.len() as u64);
        if plans.is_empty() {
            return 0;
        }
        let threads = threads.clamp(1, plans.len());

        // Phase 1: fingerprints (each plan independent; chunk layout keeps
        // stream order).
        let options = self.options;
        let mut fps = vec![Fingerprint(0); plans.len()];
        let chunk = plans.len().div_ceil(threads);
        if threads == 1 {
            for (fp, plan) in fps.iter_mut().zip(plans) {
                *fp = fingerprint_with(plan, options);
            }
        } else {
            std::thread::scope(|scope| {
                for (dst, src) in fps.chunks_mut(chunk).zip(plans.chunks(chunk)) {
                    scope.spawn(move || {
                        for (fp, plan) in dst.iter_mut().zip(src) {
                            *fp = fingerprint_with(plan, options);
                        }
                    });
                }
            });
        }

        // Phase 2: route stream positions to shards, preserving stream
        // order within each shard — the determinism invariant.
        let mut work: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for (pos, fp) in fps.iter().enumerate() {
            work[shard_index(*fp, self.shard_bits)].push(pos as u32);
        }
        {
            let metrics = corpus_metrics();
            for routed in work.iter().filter(|routed| !routed.is_empty()) {
                metrics.shard_ingest.record(routed.len() as u64);
            }
        }

        // Phase 3: shard-local dedup + BK indexing, whole shards handed to
        // workers.
        struct Unit<'a> {
            shard_idx: u32,
            shard: &'a mut CorpusShard,
            work: Vec<u32>,
            /// `(stream position, local id)` of plans this shard admitted.
            novel: Vec<(u32, u32)>,
        }
        let mut units: Vec<Unit<'_>> = self
            .shards
            .iter_mut()
            .zip(work)
            .enumerate()
            .map(|(i, (shard, work))| Unit {
                shard_idx: i as u32,
                shard,
                work,
                novel: Vec::new(),
            })
            .collect();
        let fps = &fps;
        let ingest = |group: &mut [Unit<'_>]| {
            for unit in group {
                for &pos in &unit.work {
                    let fp = fps[pos as usize];
                    if !unit.shard.dedup.insert(fp) {
                        continue;
                    }
                    // Global id patched in the merge below.
                    let local = unit.shard.store(plans[pos as usize].clone(), fp, u32::MAX);
                    unit.novel.push((pos, local));
                }
            }
        };
        if threads == 1 {
            ingest(&mut units);
        } else {
            let per = units.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for group in units.chunks_mut(per) {
                    scope.spawn(move || ingest(group));
                }
            });
        }

        // Phase 4: stream-order merge — dense global ids identical to a
        // sequential observe() loop over the same stream.
        let mut admitted: Vec<(u32, u32, u32)> = units
            .iter_mut()
            .flat_map(|unit| {
                let shard_idx = unit.shard_idx;
                std::mem::take(&mut unit.novel)
                    .into_iter()
                    .map(move |(pos, local)| (pos, shard_idx, local))
            })
            .collect();
        drop(units);
        admitted.sort_unstable();
        let novel = admitted.len();
        for (_, shard_idx, local) in admitted {
            let global = u32::try_from(self.directory.len()).expect("corpus overflow");
            self.directory.push((shard_idx, local));
            let shard = &mut self.shards[shard_idx as usize];
            shard.globals[local as usize] = global;
            let plan = shard.store.plan(local as usize);
            let (ops, depth) = (
                plan.operation_count(),
                plan.root.as_ref().map_or(0, |r| r.depth()),
            );
            self.operations += ops;
            self.max_depth = self.max_depth.max(depth);
        }
        novel
    }

    /// The one radius walk: a budgeted BK radius traversal over each shard
    /// in turn, with the budget shared across them. `dist` is the metric
    /// over `(shard, local id, bound)` (see
    /// [`bktree::BkTree::within_radius`]). Returns the matches as
    /// `(global id, distance)` sorted by id, the TED evaluations started
    /// and whether the budget cut the walk short.
    fn radius_walk<'a>(
        &'a self,
        radius: u32,
        limit: u64,
        mut dist: impl FnMut(&'a CorpusShard, u32, u32) -> Option<u32>,
    ) -> (Matches, u64, bool) {
        let mut matches = Vec::new();
        let mut evals = 0u64;
        let mut truncated = false;
        for shard in &self.shards {
            let (m, e, cut) =
                shard
                    .index
                    .within_radius(radius, limit.saturating_sub(evals), |local, bound| {
                        dist(shard, local, bound)
                    });
            evals += e;
            matches.extend(
                m.into_iter()
                    .map(|(local, d)| (shard.globals[local as usize] as usize, d)),
            );
            if cut {
                truncated = true;
                break;
            }
        }
        matches.sort_unstable();
        (matches, evals, truncated)
    }

    /// The one k-NN walk: the query fans out across shards *sharing one
    /// best-k heap*, so every shard after the first prunes against the
    /// bound its predecessors already tightened — a merged k-NN costs
    /// close to a single-tree one, not `shards ×` as much. The budget and
    /// the metric work as in [`ShardedCorpus::radius_walk`]. Matches sort
    /// by ascending distance (then id).
    fn knn_walk<'a>(
        &'a self,
        k: usize,
        limit: u64,
        mut dist: impl FnMut(&'a CorpusShard, u32, u32) -> Option<u32>,
    ) -> (Matches, u64, bool) {
        // Sized by the corpus, not the request: `k` arrives off the wire.
        let mut best: BinaryHeap<(u32, u32)> = BinaryHeap::with_capacity(k.min(self.len()) + 1);
        let mut evals = 0u64;
        let mut truncated = false;
        for shard in &self.shards {
            let (e, cut) = shard.index.nearest_into(
                k,
                limit.saturating_sub(evals),
                &mut best,
                |local| shard.globals[local as usize],
                |local, bound| dist(shard, local, bound),
            );
            evals += e;
            if cut {
                truncated = true;
                break;
            }
        }
        let matches = best
            .into_sorted_vec()
            .into_iter()
            .map(|(d, id)| (id as usize, d))
            .collect();
        (matches, evals, truncated)
    }

    /// Radius query under a TED-evaluation budget shared by the whole
    /// shard walk (`u64::MAX` for none), run on the calling thread; the
    /// `bool` reports whether the budget cut the walk short (the matches
    /// are then a best-effort subset). Matches sort by id.
    pub(crate) fn radius_query(
        &self,
        probe: &UnifiedPlan,
        radius: u32,
        limit: u64,
    ) -> (MetricQuery, bool) {
        let probe = TedPlan::new(probe);
        let mut scratch = TedScratch::default();
        let mut partial_evals = 0u64;
        let (matches, ted_evals, truncated) = self.radius_walk(
            radius,
            limit,
            banded(&probe, &mut scratch, &mut partial_evals),
        );
        let query = MetricQuery {
            partial_evals,
            ..MetricQuery::exact(matches, ted_evals)
        };
        (query, truncated)
    }

    /// k-NN under a TED-evaluation budget shared by the whole shard
    /// walk (`u64::MAX` for none); the `bool` reports whether the
    /// budget cut the descent short (the matches are then a best-effort
    /// prefix of the answer).
    pub(crate) fn knn_query(
        &self,
        probe: &UnifiedPlan,
        k: usize,
        limit: u64,
    ) -> (MetricQuery, bool) {
        let probe = TedPlan::new(probe);
        let mut scratch = TedScratch::default();
        let mut partial_evals = 0u64;
        let (matches, ted_evals, truncated) =
            self.knn_walk(k, limit, banded(&probe, &mut scratch, &mut partial_evals));
        let query = MetricQuery {
            partial_evals,
            ..MetricQuery::exact(matches, ted_evals)
        };
        (query, truncated)
    }

    /// Approximate k-NN: the structural-feature pre-filter shortlists
    /// `candidates` plans by L1 vector distance ([`features`]), then exact
    /// TED re-ranks the shortlist — in ascending vector distance, so the
    /// running k-th-best bound tightens early and most re-rank
    /// evaluations exit partially. Recall against the exact path is
    /// measured (not guaranteed): ≥ 0.95 at the default candidate count on
    /// the 10k fixture, gated in CI, for roughly an order of magnitude
    /// fewer full TED evaluations.
    pub(crate) fn knn_query_approx(
        &self,
        probe: &UnifiedPlan,
        k: usize,
        candidates: usize,
    ) -> MetricQuery {
        let probe_features = features_of(probe);
        // Shortlist: the `candidates` smallest (vector distance, id) pairs
        // via a bounded max-heap — one L1 pass, no TED. When the corpus
        // carries segment hints, a whole segment is skipped once the
        // heap's worst keeper beats the segment's L1 lower bound
        // *strictly* — a tie could still displace a keeper with a larger
        // id, so ties always scan. The shortlist (and therefore the
        // query's answer and every cost counter) is identical with and
        // without hints; hints only skip work that provably cannot
        // change it.
        // Both heaps are sized by the corpus, not the request: `candidates`
        // and `k` arrive off the wire.
        let mut shortlist: BinaryHeap<(u64, usize)> =
            BinaryHeap::with_capacity(candidates.min(self.len()) + 1);
        if candidates > 0 {
            let scan = |range: std::ops::Range<usize>, shortlist: &mut BinaryHeap<(u64, usize)>| {
                for id in range {
                    let (s, local) = self.directory[id];
                    let d = l1_distance(
                        &probe_features,
                        &self.shards[s as usize].features[local as usize],
                    );
                    shortlist.push((d, id));
                    if shortlist.len() > candidates {
                        shortlist.pop();
                    }
                }
            };
            let mut covered = 0usize;
            for hint in &self.segment_hints {
                debug_assert_eq!(hint.start, covered, "hints cover a contiguous prefix");
                if shortlist.len() >= candidates {
                    if let Some(&(worst, _)) = shortlist.peek() {
                        if hint.l1_lower_bound(&probe_features) > worst {
                            covered += hint.count;
                            continue;
                        }
                    }
                }
                scan(covered..covered + hint.count, &mut shortlist);
                covered += hint.count;
            }
            // Ids past the hinted prefix: plans appended since the lazy
            // open (or the whole corpus when there are no hints).
            scan(covered..self.directory.len(), &mut shortlist);
        }
        let shortlist = shortlist.into_sorted_vec();
        let candidates_considered = shortlist.len() as u64;
        // Re-rank: exact TED over the shortlist under the running k-th
        // best bound; beyond-bound candidates pay only a partial
        // evaluation.
        let probe = TedPlan::new(probe);
        let mut probe = TedProbe::new(&probe);
        let mut scratch = TedScratch::default();
        let mut best: BinaryHeap<(u32, u32)> = BinaryHeap::with_capacity(k.min(self.len()) + 1);
        let mut ted_evals = 0u64;
        let mut partial_evals = 0u64;
        for &(_, id) in &shortlist {
            if k == 0 {
                break;
            }
            // Unlike a BK traversal (where distances past the worst keeper
            // still decide which child edges open), a shortlist candidate
            // is useful *only* if it strictly improves the heap — ties at
            // the worst keeper change nothing. So once the heap is full the
            // bound is `worst - 1`, and every tie exits early too.
            let bound = match best.peek() {
                Some(&(worst, _)) if best.len() >= k => worst.saturating_sub(1),
                _ => u32::MAX,
            };
            ted_evals += 1;
            match probe.distance_bounded(self.ted_of(id), bound as usize, &mut scratch) {
                BoundedTed::Exact(d) => {
                    best.push((d as u32, id as u32));
                    if best.len() > k {
                        best.pop();
                    }
                }
                BoundedTed::Exceeded => partial_evals += 1,
            }
        }
        MetricQuery {
            matches: best
                .into_sorted_vec()
                .into_iter()
                .map(|(d, id)| (id as usize, d))
                .collect(),
            ted_evals,
            partial_evals,
            candidates_considered,
        }
    }

    /// Aggregate statistics. O(1): the operation and depth aggregates are
    /// maintained at store time (and summed from segment metadata on a
    /// lazy open), so this never touches plan payloads.
    pub fn stats(&self) -> CorpusStats {
        CorpusStats {
            observed: self.observed,
            distinct: self.directory.len(),
            duplicates: self.duplicates(),
            operations: self.operations,
            max_depth: self.max_depth,
        }
    }

    /// The one clustering implementation: greedy leader clustering, each
    /// unclaimed plan in id order leading a radius walk that claims every
    /// unclaimed plan within `radius`. Returns `(clusters, ted_evals,
    /// partial_evals)`.
    pub(crate) fn cluster_query(&self, radius: u32) -> (Vec<Cluster>, u64, u64) {
        let mut scratch = TedScratch::default();
        let (mut ted_evals, mut partial_evals) = (0u64, 0u64);
        let mut claimed = vec![false; self.directory.len()];
        let mut out = Vec::new();
        for leader in 0..self.directory.len() {
            if claimed[leader] {
                continue;
            }
            claimed[leader] = true;
            let probe = self.ted_of(leader);
            let (matches, e, _) = self.radius_walk(
                radius,
                u64::MAX,
                banded(probe, &mut scratch, &mut partial_evals),
            );
            ted_evals += e;
            let mut members = vec![(leader, 0u32)];
            for (id, d) in matches {
                if !claimed[id] {
                    claimed[id] = true;
                    members.push((id, d));
                }
            }
            out.push(Cluster { leader, members });
        }
        (out, ted_evals, partial_evals)
    }

    /// Diffs two corpora: exact differences by fingerprint, then — for the
    /// fingerprint-unique plans — whether a near-duplicate (within
    /// `radius`) exists on the other side.
    pub fn diff(&self, other: &ShardedCorpus, radius: u32) -> CorpusDiff {
        let shared = (0..self.len())
            .filter(|&id| other.contains_fingerprint(self.fingerprint(id)))
            .count();
        // Probes are the stored TED views, so diffing lazily opened
        // corpora decodes no full plan.
        let unique = |a: &ShardedCorpus, b: &ShardedCorpus| -> (Vec<usize>, Vec<usize>) {
            let mut only = Vec::new();
            let mut beyond = Vec::new();
            let mut scratch = TedScratch::default();
            let mut partials = 0u64;
            for id in 0..a.len() {
                if b.contains_fingerprint(a.fingerprint(id)) {
                    continue;
                }
                only.push(id);
                let dist = banded(a.ted_of(id), &mut scratch, &mut partials);
                if b.radius_walk(radius, u64::MAX, dist).0.is_empty() {
                    beyond.push(id);
                }
            }
            (only, beyond)
        };
        let (fingerprint_only_left, beyond_radius_left) = unique(self, other);
        let (fingerprint_only_right, beyond_radius_right) = unique(other, self);
        CorpusDiff {
            radius,
            shared,
            fingerprint_only_left,
            fingerprint_only_right,
            beyond_radius_left,
            beyond_radius_right,
        }
    }

    /// Reads a corpus from JSON lines, one unified-JSON plan per line,
    /// under the given fingerprint options. Plan JSON lines are an
    /// interchange format (the daemon's `/diff` body), not a corpus
    /// persistence format.
    pub fn from_jsonl_with_options(
        text: &str,
        options: FingerprintOptions,
    ) -> Result<ShardedCorpus> {
        let mut corpus = ShardedCorpus::with_options(options);
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            corpus.insert(unified::from_json(line)?);
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uplan_core::{PlanNode, Property};
    use uplan_testing::scan::{scan_nearest, scan_within_radius};

    /// The reference walk metric: the full dynamic program at every node,
    /// so the kernel's early exits can be checked against it. Counts into
    /// `exceeded` the evaluations whose exact distance is past the bound
    /// the walk passed — the verdicts the kernel must answer `Exceeded`.
    fn full<'a>(
        probe: &'a TedPlan,
        scratch: &'a mut TedScratch,
        exceeded: &'a mut u64,
    ) -> impl FnMut(&'a CorpusShard, u32, u32) -> Option<u32> + 'a {
        move |shard, local, bound| {
            let d = probe.distance(shard.store.ted(local as usize), scratch) as u32;
            *exceeded += u64::from(d > bound);
            Some(d)
        }
    }

    /// Reference radius query with the early-exit kernel *disabled*: the
    /// production walk under [`full`], with `partial_evals` counting the
    /// evaluations past their bound.
    fn radius_query_reference(
        corpus: &ShardedCorpus,
        probe: &UnifiedPlan,
        radius: u32,
    ) -> MetricQuery {
        let probe = TedPlan::new(probe);
        let mut scratch = TedScratch::default();
        let mut partial_evals = 0u64;
        let (matches, ted_evals, _) = corpus.radius_walk(
            radius,
            u64::MAX,
            full(&probe, &mut scratch, &mut partial_evals),
        );
        MetricQuery {
            partial_evals,
            ..MetricQuery::exact(matches, ted_evals)
        }
    }

    /// Reference k-NN with the early-exit kernel *disabled* (the
    /// counterpart of [`radius_query_reference`]).
    fn knn_query_reference(corpus: &ShardedCorpus, probe: &UnifiedPlan, k: usize) -> MetricQuery {
        let probe = TedPlan::new(probe);
        let mut scratch = TedScratch::default();
        let mut partial_evals = 0u64;
        let (matches, ted_evals, _) =
            corpus.knn_walk(k, u64::MAX, full(&probe, &mut scratch, &mut partial_evals));
        MetricQuery {
            partial_evals,
            ..MetricQuery::exact(matches, ted_evals)
        }
    }

    /// The corpus's segment bytes — the byte oracle.
    fn segment(corpus: &ShardedCorpus) -> Vec<u8> {
        encode_segment(corpus).unwrap()
    }

    fn chain(names: &[&str]) -> UnifiedPlan {
        let mut node: Option<PlanNode> = None;
        for name in names.iter().rev() {
            let mut n = PlanNode::producer(*name);
            if let Some(child) = node.take() {
                n = PlanNode::executor(*name).with_child(child);
            }
            node = Some(n);
        }
        UnifiedPlan::with_root(node.unwrap())
    }

    fn population() -> Vec<UnifiedPlan> {
        vec![
            chain(&["Scan_A"]),
            chain(&["Gather", "Scan_A"]),
            chain(&["Gather", "Scan_B"]),
            chain(&["Gather", "Sort", "Scan_A"]),
            chain(&["Collect", "Sort", "Scan_B"]),
            chain(&["Collect", "Sort", "Hash", "Scan_B"]),
        ]
    }

    /// A wider synthetic population: every subset of wrappers over every
    /// scan — enough distinct fingerprints to hit many shards.
    fn wide_population(n: usize) -> Vec<UnifiedPlan> {
        let wrappers = ["Gather", "Collect", "Exchange", "Sort", "Hash", "Top_N"];
        // Distinct base names, not `Scan_<i>`: fingerprints hash the
        // suffix-stripped stable form, so numeric suffixes would collide.
        let scans = [
            "Seq_Scan",
            "Index_Scan",
            "Bitmap_Scan",
            "Sample_Scan",
            "Range_Scan",
            "Cluster_Scan",
            "Backward_Scan",
        ];
        (0..n)
            .map(|i| {
                let mut names = vec![scans[i % 7].to_string()];
                let mut bits = i / 7;
                for w in wrappers {
                    if bits & 1 == 1 {
                        names.insert(0, w.to_string());
                    }
                    bits >>= 1;
                }
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                chain(&refs)
            })
            .collect()
    }

    #[test]
    fn observe_dedups_by_fingerprint() {
        let mut corpus = PlanCorpus::new();
        let plan = chain(&["Gather", "Scan_A"]);
        assert!(corpus.observe(&plan));
        assert!(!corpus.observe(&plan));
        assert!(corpus.contains(&plan));
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.observed(), 2);
        assert_eq!(corpus.duplicates(), 1);
        assert_eq!(corpus.fingerprint(0), corpus.fingerprint_of(&plan));
    }

    #[test]
    fn radius_and_knn_agree_with_scans() {
        let mut corpus = PlanCorpus::new();
        for plan in population() {
            corpus.insert(plan);
        }
        for probe in population() {
            for radius in 0..5u32 {
                let indexed = corpus.radius_query(&probe, radius, u64::MAX).0;
                let (scanned, scan_evals) = scan_within_radius(corpus.iter(), &probe, radius);
                assert_eq!(indexed.matches, scanned, "radius {radius}");
                assert!(indexed.ted_evals <= scan_evals);
            }
            for k in 1..=corpus.len() {
                let indexed = corpus.knn_query(&probe, k, u64::MAX).0;
                let (scanned, _) = scan_nearest(corpus.iter(), &probe, k);
                let d = |m: &Matches| m.iter().map(|&(_, d)| d).collect::<Vec<_>>();
                assert_eq!(d(&indexed.matches), d(&scanned), "k {k}");
            }
        }
    }

    #[test]
    fn sharded_queries_agree_with_single_shard_and_scans() {
        // The sharded index must answer exactly like one big tree, for
        // every shard count.
        let plans = wide_population(160);
        for shards in [1usize, 4, 16, 64] {
            let mut corpus = ShardedCorpus::with_shards(shards);
            assert_eq!(corpus.shard_count(), shards);
            for plan in &plans {
                corpus.observe(plan);
            }
            for probe in plans.iter().step_by(13) {
                for radius in [0u32, 1, 3] {
                    assert_eq!(
                        corpus.radius_query(probe, radius, u64::MAX).0.matches,
                        scan_within_radius(corpus.iter(), probe, radius).0,
                        "shards {shards} radius {radius}"
                    );
                }
                let d = |m: &Matches| m.iter().map(|&(_, d)| d).collect::<Vec<_>>();
                for k in [1usize, 5, 20] {
                    assert_eq!(
                        d(&corpus.knn_query(probe, k, u64::MAX).0.matches),
                        d(&scan_nearest(corpus.iter(), probe, k).0),
                        "shards {shards} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_ingest_is_deterministic_across_thread_counts() {
        // The acceptance bar: any thread count — and the sequential
        // observe() loop — produces byte-identical corpora.
        let mut stream = wide_population(300);
        // Duplicates in the stream, like a real campaign.
        let dupes: Vec<UnifiedPlan> = stream.iter().step_by(3).cloned().collect();
        stream.extend(dupes);

        let mut sequential = ShardedCorpus::new();
        for plan in &stream {
            sequential.observe(plan);
        }
        let reference_bytes = segment(&sequential);
        let reference_stats = sequential.stats();

        for threads in [1usize, 2, 4, 7] {
            let mut corpus = ShardedCorpus::new();
            let novel = corpus.ingest_parallel(&stream, threads);
            assert_eq!(novel, sequential.len(), "threads {threads}");
            assert_eq!(corpus.stats(), reference_stats, "threads {threads}");
            assert_eq!(
                segment(&corpus),
                reference_bytes,
                "threads {threads}: corpus bytes diverged"
            );
            assert_eq!(corpus.index_evals(), sequential.index_evals());
        }

        // Ingest into a *non-empty* corpus stays deterministic too.
        let mut warm_seq = ShardedCorpus::new();
        warm_seq.ingest_parallel(&stream[..100], 1);
        for plan in &stream[100..] {
            warm_seq.observe(plan);
        }
        let mut warm_par = ShardedCorpus::new();
        warm_par.ingest_parallel(&stream[..100], 3);
        warm_par.ingest_parallel(&stream[100..], 4);
        assert_eq!(segment(&warm_par), segment(&warm_seq));
    }

    #[test]
    fn clusters_agree_with_a_scan_oracle_at_every_shard_count() {
        // Greedy leader clustering over brute-force radius scans: the
        // clusters (leaders, members, distances) the BK walk must
        // reproduce for every shard count, and the sum of the walk's
        // counted evaluations must equal what its radius queries report.
        let plans = wide_population(200);
        for shards in [1usize, 4, 16] {
            let mut corpus = ShardedCorpus::with_shards(shards);
            for plan in &plans {
                corpus.observe(plan);
            }
            let mut claimed = vec![false; corpus.len()];
            let mut oracle = Vec::new();
            let (mut ted_evals, mut partial_evals) = (0u64, 0u64);
            for leader in 0..corpus.len() {
                if claimed[leader] {
                    continue;
                }
                claimed[leader] = true;
                let probe = corpus.plan(leader).clone();
                let (query, _) = corpus.radius_query(&probe, 2, u64::MAX);
                ted_evals += query.ted_evals;
                partial_evals += query.partial_evals;
                let mut members = vec![(leader, 0u32)];
                for (id, d) in scan_within_radius(corpus.iter(), &probe, 2).0 {
                    if !std::mem::replace(&mut claimed[id], true) {
                        members.push((id, d));
                    }
                }
                oracle.push(Cluster { leader, members });
            }
            assert_eq!(
                corpus.cluster_query(2),
                (oracle, ted_evals, partial_evals),
                "shards {shards}"
            );
        }
    }

    #[test]
    fn observe_novel_with_radius_suppresses_near_duplicates() {
        let mut corpus = PlanCorpus::new();
        assert!(corpus.observe_novel(&chain(&["Gather", "Scan_A"]), 1));
        // One edit away: stored (distinct fingerprint) but not novel.
        assert!(!corpus.observe_novel(&chain(&["Gather", "Scan_B"]), 1));
        assert_eq!(corpus.len(), 2);
        // Far away: novel again.
        assert!(corpus.observe_novel(&chain(&["Collect", "Sort", "Hash", "Scan_B"]), 1));
        // Radius 0 behaves like plain fingerprint novelty.
        assert!(corpus.observe_novel(&chain(&["Gather", "Sort", "Scan_A"]), 0));
        assert!(!corpus.observe_novel(&chain(&["Gather", "Sort", "Scan_A"]), 0));
    }

    #[test]
    fn clusters_partition_the_corpus() {
        let mut corpus = PlanCorpus::new();
        for plan in population() {
            corpus.insert(plan);
        }
        let clusters = corpus.cluster_query(1).0;
        let mut seen: Vec<usize> = clusters
            .iter()
            .flat_map(|c| c.members.iter().map(|&(id, _)| id))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..corpus.len()).collect::<Vec<_>>());
        for c in &clusters {
            assert_eq!(c.members[0], (c.leader, 0));
            assert!(c.members.iter().all(|&(_, d)| d <= 1));
        }
        // Radius large enough: one cluster.
        assert_eq!(corpus.cluster_query(100).0.len(), 1);
    }

    #[test]
    fn diff_reports_fingerprint_and_radius_novelty() {
        let mut left = PlanCorpus::new();
        let mut right = PlanCorpus::new();
        for plan in population() {
            left.insert(plan);
        }
        // Right shares two plans, has one near-duplicate and one far shape.
        right.insert(chain(&["Scan_A"]));
        right.insert(chain(&["Gather", "Scan_A"]));
        right.insert(chain(&["Gather", "Scan_C"])); // 1 edit from left id 1/2
        right.insert(chain(&["Union", "Union", "Union", "Union", "Union_Leaf"]));
        let diff = left.diff(&right, 1);
        assert_eq!(diff.shared, 2);
        assert_eq!(diff.fingerprint_only_left.len(), left.len() - 2);
        assert_eq!(diff.fingerprint_only_right, vec![2, 3]);
        assert_eq!(diff.beyond_radius_right, vec![3]);
        assert!(diff.beyond_radius_left.contains(&5));
    }

    #[test]
    fn binary_and_jsonl_round_trips_preserve_identity() {
        let mut corpus = PlanCorpus::new();
        for plan in population() {
            corpus.insert(plan);
        }
        corpus.insert(UnifiedPlan::properties_only(vec![Property::cardinality(
            "series", 4,
        )]));

        // Binary: through a segment store on disk.
        let dir = std::env::temp_dir().join(format!("uplan_corpus_rt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SegmentStore::create(&dir, corpus.clone()).unwrap();
        let bin = SegmentStore::open(&dir).unwrap().into_corpus();
        std::fs::remove_dir_all(&dir).ok();
        // JSON lines: the plan interchange format `/diff` bodies use.
        let text: String = corpus
            .iter()
            .map(|(_, plan)| unified::to_json_value(plan).to_compact() + "\n")
            .collect();
        let jsonl =
            PlanCorpus::from_jsonl_with_options(&text, FingerprintOptions::default()).unwrap();
        assert_eq!(bin.len(), corpus.len());
        assert_eq!(jsonl.len(), corpus.len());
        for (id, plan) in corpus.iter() {
            assert_eq!(bin.plan(id), plan);
            assert_eq!(jsonl.plan(id), plan);
            assert_eq!(bin.fingerprint(id), corpus.fingerprint(id));
            assert_eq!(jsonl.fingerprint(id), corpus.fingerprint(id));
        }
    }

    #[test]
    fn stats_summarize_population() {
        let mut corpus = PlanCorpus::new();
        for plan in population() {
            corpus.insert(plan.clone());
            corpus.observe(&plan);
        }
        let stats = corpus.stats();
        assert_eq!(stats.distinct, 6);
        assert_eq!(stats.observed, 12);
        assert_eq!(stats.duplicates, 6);
        assert_eq!(stats.operations, 1 + 2 + 2 + 3 + 3 + 4);
        assert_eq!(stats.max_depth, 4);
    }

    #[test]
    fn shard_counts_round_to_powers_of_two() {
        assert_eq!(ShardedCorpus::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedCorpus::with_shards(1).shard_count(), 1);
        assert_eq!(ShardedCorpus::with_shards(3).shard_count(), 4);
        assert_eq!(ShardedCorpus::with_shards(16).shard_count(), 16);
        assert_eq!(ShardedCorpus::with_shards(100_000).shard_count(), 256);
    }

    /// The kernel contract on one corpus: exact queries answer with the
    /// same matches and the same evaluation *starts* whether visited nodes
    /// run the full dynamic program (`*_reference`, kernel off) or the
    /// production metric (label bound, shape memo, banded early exit), and
    /// the kernel answers `Exceeded` exactly where the full distance is
    /// past the bound the walk passed. Returns the `Exceeded` count.
    fn assert_kernel_invisible(corpus: &ShardedCorpus, probes: &[UnifiedPlan]) -> u64 {
        let matches = |r: &QueryResponse| match &r.outcome {
            QueryOutcome::Matches(m) => m.clone(),
            other => panic!("metric query answered {other:?}"),
        };
        let mut savings = 0u64;
        for probe in probes {
            let knn = corpus
                .execute(&QueryRequest::knn(5).with_probe(probe.clone()))
                .unwrap();
            let reference = knn_query_reference(corpus, probe, 5);
            assert_eq!(matches(&knn), reference.matches);
            assert_eq!(knn.cost.ted_evals, reference.ted_evals);
            assert_eq!(knn.cost.partial_evals, reference.partial_evals);
            savings += knn.cost.partial_evals;

            let radius = corpus
                .execute(&QueryRequest::radius(2).with_probe(probe.clone()))
                .unwrap();
            let reference = radius_query_reference(corpus, probe, 2);
            assert_eq!(matches(&radius), reference.matches);
            assert_eq!(radius.cost.ted_evals, reference.ted_evals);
            assert_eq!(radius.cost.partial_evals, reference.partial_evals);
            savings += radius.cost.partial_evals;
        }
        savings
    }

    #[test]
    fn early_exit_kernel_is_invisible_to_exact_queries() {
        // The TPC-H-derived 600-plan population.
        let mut plans = uplan_testing::fixtures::derived_plans(0xeef1);
        let mut corpus = PlanCorpus::new();
        while corpus.len() < 600 {
            corpus.insert(plans.next().unwrap());
        }
        let probes = uplan_testing::fixtures::derived_stream(12, 0xb0b);
        let savings = assert_kernel_invisible(&corpus, &probes);
        assert!(
            savings > 0,
            "the early-exit kernel never abandoned a single evaluation"
        );
    }

    #[test]
    fn early_exit_kernel_is_invisible_on_the_10k_fixture_stream() {
        // The 10k-observation fixture stream the benches index, where BK
        // neighbourhoods repeat label shapes often enough to exercise the
        // shape memo.
        let stream = uplan_testing::fixtures::derived_stream(10_000, 0x5eed_cafe);
        let mut corpus = PlanCorpus::new();
        corpus.ingest_parallel(&stream, 2);
        let probes: Vec<_> = stream.iter().step_by(997).cloned().collect();
        assert!(assert_kernel_invisible(&corpus, &probes) > 0);
    }
}
