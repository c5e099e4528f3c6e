//! # Snapshot/delta service: concurrent reads over a corpus that ingests
//!
//! The paper's flywheel is long-lived: engines stream plans in while
//! differential checks query what has been seen. A `&mut ShardedCorpus`
//! cannot serve both at once, so this module splits the store in two:
//!
//! * an **immutable [`CorpusSnapshot`]** — an `Arc`-shared corpus plus the
//!   epoch number it was published at. Queries run against a snapshot and
//!   are automatically consistent: same handle, same answers, same counted
//!   TED evaluations, no matter what ingest does meanwhile.
//! * a **mutable ingest delta** — a bounded queue of plans accepted but
//!   not yet queryable. [`CorpusService::merge`] folds the delta into a
//!   *clone* of the published corpus via the deterministic
//!   [`ShardedCorpus::ingest_parallel`] path and publishes the result as
//!   the next epoch. Because parallel ingest is byte-deterministic even
//!   into a warm corpus, the corpus after any sequence of merges is
//!   byte-identical to one sequential ingest of the same stream.
//!
//! **The read path takes zero locks in steady state.** Each reader thread
//! owns a [`SnapshotReader`] caching `(epoch, Arc<CorpusSnapshot>)`; per
//! request it performs one atomic epoch load and only touches the (brief,
//! publish-only) mutex when the epoch actually advanced. Writers never
//! block readers: a merge clones the corpus off to the side and swaps the
//! `Arc` in at the end. The clone shares every decoded plan with its
//! base, so a lazily opened store decodes each plan once per process, not
//! once per epoch.
//!
//! The delta queue is **bounded**: [`CorpusService::submit`] refuses plans
//! beyond the configured capacity with [`ServiceError::Backpressure`],
//! which the HTTP front end maps to 429 — ingest producers are told to
//! back off instead of growing the daemon without limit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use uplan_core::UnifiedPlan;
use uplan_obs::{trace, Counter, Gauge, Histogram, Level};

use crate::segment::{SegmentCensus, SegmentStore};
use crate::{QueryError, QueryRequest, QueryResponse, ShardedCorpus};

/// Default bound on plans accepted but not yet merged.
pub const DEFAULT_PENDING_CAPACITY: usize = 65_536;

/// Global-registry handles for the snapshot/delta lifecycle. The gauges
/// describe "the" service of the process — a daemon runs exactly one;
/// when tests build several, last write wins, which is harmless for
/// instantaneous values.
struct ServiceMetrics {
    /// `uplan_corpus_pending_plans` — delta-queue depth.
    pending: Arc<Gauge>,
    /// `uplan_corpus_epoch` — latest published epoch.
    epoch: Arc<Gauge>,
    /// `uplan_corpus_merges_total` — merges that published a new epoch.
    merges: Arc<Counter>,
    /// `uplan_corpus_merged_plans_total` — plans drained by those merges.
    merged_plans: Arc<Counter>,
    /// `uplan_corpus_merge_duration_us` — wall time per publishing merge.
    merge_duration_us: Arc<Histogram>,
}

fn service_metrics() -> &'static ServiceMetrics {
    static METRICS: OnceLock<ServiceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = uplan_obs::global();
        ServiceMetrics {
            pending: registry.gauge(
                "uplan_corpus_pending_plans",
                "plans accepted into the delta queue but not yet merged",
            ),
            epoch: registry.gauge("uplan_corpus_epoch", "latest published corpus epoch"),
            merges: registry.counter(
                "uplan_corpus_merges_total",
                "delta merges that published a new epoch",
            ),
            merged_plans: registry.counter(
                "uplan_corpus_merged_plans_total",
                "plans drained from the delta queue by publishing merges",
            ),
            merge_duration_us: registry.histogram(
                "uplan_corpus_merge_duration_us",
                "wall time of publishing merges, microseconds",
            ),
        }
    })
}

/// The delta queue plus the age bookkeeping behind the epoch-lag readout:
/// `since` is the instant the oldest currently-pending plan arrived.
#[derive(Debug, Default)]
struct PendingDelta {
    plans: Vec<UnifiedPlan>,
    since: Option<Instant>,
}

/// An immutable corpus at a named epoch. Cheap to share (`Arc`), never
/// mutated after publication.
#[derive(Debug)]
pub struct CorpusSnapshot {
    epoch: u64,
    corpus: ShardedCorpus,
}

impl CorpusSnapshot {
    /// The epoch this snapshot was published at (0 = the corpus the
    /// service started from).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The plans visible at this epoch.
    pub fn corpus(&self) -> &ShardedCorpus {
        &self.corpus
    }

    /// Executes a query against this snapshot, stamping the response with
    /// the snapshot epoch.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, QueryError> {
        self.corpus
            .execute(request)
            .map(|response| response.with_epoch(self.epoch))
    }
}

/// Why the service refused an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded ingest queue cannot take `offered` more plans.
    Backpressure {
        /// Plans already pending.
        pending: usize,
        /// The configured queue bound.
        capacity: usize,
        /// Plans the rejected submission offered.
        offered: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Backpressure {
                pending,
                capacity,
                offered,
            } => write!(
                f,
                "ingest backpressure: {pending} plans pending of {capacity} capacity, \
                 cannot accept {offered} more"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What one [`CorpusService::merge`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeReport {
    /// The epoch the merge published.
    pub epoch: u64,
    /// Plans drained from the delta queue.
    pub merged: usize,
    /// Of those, fingerprint-novel plans now stored.
    pub novel: usize,
    /// Distinct plans in the published corpus.
    pub len: usize,
    /// Id of the segment this merge appended — persistent services only;
    /// `None` in RAM mode or when the drained batch was all duplicates.
    pub segment_id: Option<u32>,
    /// Bytes of that segment file (0 when none was written).
    pub segment_bytes: usize,
}

/// The concurrent corpus: a published [`CorpusSnapshot`] plus the bounded
/// ingest delta. See the module docs for the epoch/merge contract.
#[derive(Debug)]
pub struct CorpusService {
    /// The latest snapshot. Locked only to publish (writers) or to refresh
    /// a stale [`SnapshotReader`] cache (readers, once per epoch change).
    published: Mutex<Arc<CorpusSnapshot>>,
    /// Mirror of the published epoch: the lock-free staleness check.
    epoch: AtomicU64,
    /// Plans accepted but not yet merged, in submission order.
    pending: Mutex<PendingDelta>,
    capacity: usize,
    /// Optional append-only persistence: when attached, every publishing
    /// merge appends its drained batch as one immutable segment *before*
    /// the new epoch goes live, so a crash after publication never loses
    /// a queryable plan. Locked only during merges and census reads.
    store: Mutex<Option<SegmentStore>>,
}

impl CorpusService {
    /// Wraps a corpus as epoch 0 with the default pending capacity.
    pub fn new(corpus: ShardedCorpus) -> CorpusService {
        CorpusService::with_capacity(corpus, DEFAULT_PENDING_CAPACITY)
    }

    /// Wraps a corpus as epoch 0 with an explicit pending-queue bound
    /// (minimum 1).
    pub fn with_capacity(corpus: ShardedCorpus, capacity: usize) -> CorpusService {
        CorpusService {
            published: Mutex::new(Arc::new(CorpusSnapshot { epoch: 0, corpus })),
            epoch: AtomicU64::new(0),
            pending: Mutex::new(PendingDelta::default()),
            capacity: capacity.max(1),
            store: Mutex::new(None),
        }
    }

    /// Wraps an open [`SegmentStore`] as epoch 0: the store's (lazily
    /// loaded) corpus is published, and every publishing merge from now
    /// on appends its drained batch to the store as one new segment.
    pub fn with_store(store: SegmentStore, capacity: usize) -> CorpusService {
        let service = CorpusService::with_capacity(store.corpus().clone(), capacity);
        *service.store.lock().expect("store lock") = Some(store);
        service
    }

    /// Whether merges persist to an attached segment store.
    pub fn persistent(&self) -> bool {
        self.store.lock().expect("store lock").is_some()
    }

    /// Per-segment census of the attached store (`None` for a RAM-only
    /// service).
    pub fn segment_census(&self) -> Option<Vec<SegmentCensus>> {
        self.store
            .lock()
            .expect("store lock")
            .as_ref()
            .map(|store| store.census().to_vec())
    }

    /// The configured pending-queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current epoch (one atomic load).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Plans accepted but not yet merged.
    pub fn pending(&self) -> usize {
        self.pending.lock().expect("pending lock").plans.len()
    }

    /// How long the oldest pending plan has been waiting for a merge —
    /// the epoch lag a scraper watches to see whether the merge cadence
    /// keeps up with ingest. Zero when the queue is empty.
    pub fn pending_age(&self) -> std::time::Duration {
        self.pending
            .lock()
            .expect("pending lock")
            .since
            .map(|since| since.elapsed())
            .unwrap_or_default()
    }

    /// The latest published snapshot. Takes the publish mutex briefly;
    /// steady-state readers should hold a [`SnapshotReader`] instead,
    /// which skips even that when the epoch has not moved.
    pub fn snapshot(&self) -> Arc<CorpusSnapshot> {
        self.published.lock().expect("publish lock").clone()
    }

    /// A per-thread reader handle with a cached snapshot (the zero-lock
    /// read path).
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            service: Arc::clone(self),
            cached: self.snapshot(),
        }
    }

    /// Accepts plans into the delta queue, in submission order. Returns
    /// the queue depth after acceptance, or
    /// [`ServiceError::Backpressure`] — rejecting the whole batch, never
    /// splitting it — when it would overflow the bound.
    pub fn submit(&self, plans: Vec<UnifiedPlan>) -> Result<usize, ServiceError> {
        let mut pending = self.pending.lock().expect("pending lock");
        if pending.plans.len() + plans.len() > self.capacity {
            return Err(ServiceError::Backpressure {
                pending: pending.plans.len(),
                capacity: self.capacity,
                offered: plans.len(),
            });
        }
        if pending.plans.is_empty() && !plans.is_empty() {
            pending.since = Some(Instant::now());
        }
        pending.plans.extend(plans);
        service_metrics().pending.set(pending.plans.len() as i64);
        Ok(pending.plans.len())
    }

    /// Drains the delta queue into a clone of the published corpus
    /// (deterministic parallel ingest across `threads`) and publishes the
    /// result as the next epoch. With an empty queue this is a no-op that
    /// publishes nothing and reports the current epoch.
    ///
    /// Merging is serialized by the pending lock being held across the
    /// ingest; readers are never blocked — they keep answering from the
    /// previous snapshot until the new `Arc` is swapped in.
    pub fn merge(&self, threads: usize) -> MergeReport {
        // Hold the pending lock for the whole merge: a second merger must
        // not clone the same base corpus and race the publish.
        let mut pending = self.pending.lock().expect("pending lock");
        let base = self.snapshot();
        if pending.plans.is_empty() {
            return MergeReport {
                epoch: base.epoch,
                merged: 0,
                novel: 0,
                len: base.corpus.len(),
                segment_id: None,
                segment_bytes: 0,
            };
        }
        let start = Instant::now();
        let mut span = trace::span("corpus.merge", Level::Debug, "merge");
        let drained: Vec<UnifiedPlan> = std::mem::take(&mut pending.plans);
        pending.since = None;
        let mut store_guard = self.store.lock().expect("store lock");
        let (corpus, novel, segment_id, segment_bytes) = match store_guard.as_mut() {
            // Persistent: the store's corpus is the canonical one — append
            // (deterministic parallel ingest + segment write + manifest
            // swap) and publish a clone of it. The clone copies pointers,
            // never plans: it shares the store's decode cache, so plans the
            // queries of earlier epochs decoded stay decoded, and plans the
            // append's BK inserts decoded are warm for the next queries.
            Some(store) => match store.append(&drained, threads.max(1)) {
                Ok(report) => (
                    store.corpus().clone(),
                    report.admitted,
                    report.segment_id,
                    report.segment_bytes,
                ),
                Err(e) => {
                    // Disk failure: detach persistence (a diverged store
                    // must not silently shadow RAM-only epochs) and stay
                    // available in RAM.
                    trace::event(
                        "corpus.merge",
                        Level::Error,
                        "persist_failed",
                        &[("error", e.to_string().into())],
                    );
                    *store_guard = None;
                    let mut corpus = base.corpus.clone();
                    let novel = corpus.ingest_parallel(&drained, threads.max(1));
                    (corpus, novel, None, 0)
                }
            },
            // In RAM: ingest into a clone of the published corpus, which
            // shares every stored plan with it.
            None => {
                let mut corpus = base.corpus.clone();
                let novel = corpus.ingest_parallel(&drained, threads.max(1));
                (corpus, novel, None, 0)
            }
        };
        drop(store_guard);
        let epoch = base.epoch + 1;
        let len = corpus.len();
        let snapshot = Arc::new(CorpusSnapshot { epoch, corpus });
        {
            let mut published = self.published.lock().expect("publish lock");
            *published = snapshot;
            // Publish-then-bump: a reader that sees the new epoch is
            // guaranteed to find (at least) the matching snapshot under
            // the mutex.
            self.epoch.store(epoch, Ordering::Release);
        }
        let metrics = service_metrics();
        metrics.pending.set(0);
        metrics.epoch.set(epoch as i64);
        metrics.merges.inc();
        metrics.merged_plans.add(drained.len() as u64);
        metrics
            .merge_duration_us
            .record(start.elapsed().as_micros() as u64);
        span.field("epoch", epoch);
        span.field("merged", drained.len());
        span.field("novel", novel);
        span.field("len", len);
        MergeReport {
            epoch,
            merged: drained.len(),
            novel,
            len,
            segment_id,
            segment_bytes,
        }
    }
}

/// A per-thread read handle: caches the latest snapshot and refreshes it
/// only when the service's atomic epoch says it moved. Steady-state cost
/// per request: **one atomic load, zero locks**.
#[derive(Debug)]
pub struct SnapshotReader {
    service: Arc<CorpusService>,
    cached: Arc<CorpusSnapshot>,
}

impl SnapshotReader {
    /// The freshest snapshot this reader can see. Lock-free unless the
    /// epoch advanced since the last call.
    pub fn current(&mut self) -> &Arc<CorpusSnapshot> {
        let epoch = self.service.epoch.load(Ordering::Acquire);
        if epoch != self.cached.epoch {
            self.cached = self.service.snapshot();
        }
        &self.cached
    }

    /// The snapshot this reader last refreshed to, *without* checking for
    /// a newer epoch — the handle a batch of related queries should share
    /// for epoch-consistent answers.
    pub fn pinned(&self) -> &Arc<CorpusSnapshot> {
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryOutcome;
    use uplan_core::PlanNode;

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

    fn plans(n: usize) -> Vec<UnifiedPlan> {
        let wrappers = ["Gather", "Collect", "Exchange", "Sort", "Hash", "Top_N"];
        let scans = ["Seq_Scan", "Index_Scan", "Bitmap_Scan", "Sample_Scan"];
        (0..n)
            .map(|i| {
                let mut names = vec![scans[i % 4]];
                let mut bits = i / 4;
                for w in wrappers {
                    if bits & 1 == 1 {
                        names.insert(0, w);
                    }
                    bits >>= 1;
                }
                chain(&names)
            })
            .collect()
    }

    #[test]
    fn merge_sequence_is_byte_identical_to_sequential_ingest() {
        let stream = plans(120);
        let service = CorpusService::new(ShardedCorpus::new());
        assert_eq!(service.epoch(), 0);
        // Three uneven batches, merged at different thread counts.
        service.submit(stream[..30].to_vec()).unwrap();
        let r1 = service.merge(1);
        assert_eq!((r1.epoch, r1.merged), (1, 30));
        service.submit(stream[30..31].to_vec()).unwrap();
        service.submit(stream[31..77].to_vec()).unwrap();
        let r2 = service.merge(4);
        assert_eq!((r2.epoch, r2.merged), (2, 47));
        service.submit(stream[77..].to_vec()).unwrap();
        let r3 = service.merge(3);
        assert_eq!(r3.epoch, 3);
        assert_eq!(service.epoch(), 3);
        assert_eq!(service.pending(), 0);

        let mut sequential = ShardedCorpus::new();
        for plan in &stream {
            sequential.observe(plan);
        }
        assert_eq!(
            crate::encode_segment(service.snapshot().corpus()).unwrap(),
            crate::encode_segment(&sequential).unwrap()
        );

        // An empty merge publishes nothing.
        let r4 = service.merge(2);
        assert_eq!((r4.epoch, r4.merged), (3, 0));
        assert_eq!(service.epoch(), 3);
    }

    #[test]
    fn persistent_merges_append_segments() {
        let dir =
            std::env::temp_dir().join(format!("uplan-service-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stream = plans(60);
        let store = SegmentStore::create(&dir, ShardedCorpus::new()).unwrap();
        let service = CorpusService::with_store(store, DEFAULT_PENDING_CAPACITY);
        assert!(service.persistent());
        assert_eq!(service.segment_census().unwrap().len(), 0);

        service.submit(stream[..25].to_vec()).unwrap();
        let r1 = service.merge(2);
        assert_eq!((r1.epoch, r1.merged, r1.segment_id), (1, 25, Some(0)));
        assert!(r1.segment_bytes > 0);
        service.submit(stream[20..].to_vec()).unwrap();
        let r2 = service.merge(4);
        assert_eq!((r2.epoch, r2.novel, r2.segment_id), (2, 35, Some(1)));
        // An all-duplicate merge publishes an epoch but writes no segment.
        service.submit(stream[..10].to_vec()).unwrap();
        let r3 = service.merge(1);
        assert_eq!((r3.epoch, r3.segment_id, r3.segment_bytes), (3, None, 0));

        let census = service.segment_census().unwrap();
        assert_eq!(census.len(), 2);
        assert_eq!(census[0].plans + census[1].plans, 60);

        // The directory reopens to exactly the published corpus.
        let reopened = SegmentStore::open(&dir).unwrap().into_corpus();
        let published = service.snapshot();
        assert_eq!(reopened.len(), published.corpus().len());
        assert_eq!(
            crate::encode_segment(&reopened).unwrap(),
            crate::encode_segment(published.corpus()).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merges_keep_the_lazy_store_warm() {
        let root = std::env::temp_dir().join(format!("uplan-service-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (served, fresh) = (root.join("served"), root.join("fresh"));
        let stream = plans(256);
        let mut seed = ShardedCorpus::new();
        seed.ingest_parallel(&stream[..200], 2);
        for dir in [&served, &fresh] {
            SegmentStore::create(dir, seed.clone()).unwrap();
        }

        let service = CorpusService::with_store(
            SegmentStore::open(&served).unwrap(),
            DEFAULT_PENDING_CAPACITY,
        );
        let requests = [
            QueryRequest::knn(3).with_probe(chain(&["Sort", "Hash", "Index_Scan"])),
            QueryRequest::radius(2).with_probe(chain(&["Gather", "Exchange", "Seq_Scan"])),
        ];
        let before = service.snapshot();
        for request in &requests {
            before.corpus().execute(request).unwrap();
        }
        let warm = before.corpus().decoded_plans();
        assert!(warm > 0, "the queries decoded plans");

        service.submit(stream[200..].to_vec()).unwrap();
        assert_eq!(service.merge(2).epoch, 1);
        let after = service.snapshot();
        assert!(
            after.corpus().decoded_plans() >= warm,
            "the merge published a colder snapshot: {} of {warm} plans decoded",
            after.corpus().decoded_plans()
        );
        let decoded = after.corpus().decoded_plans();
        let answers: Vec<QueryResponse> = requests
            .iter()
            .map(|request| after.corpus().execute(request).unwrap())
            .collect();
        assert_eq!(
            after.corpus().decoded_plans(),
            decoded,
            "rerunning the epoch-0 queries decoded plans again"
        );

        // Same answers and counted costs as a store that never served.
        let mut reference = SegmentStore::open(&fresh).unwrap();
        reference.append(&stream[200..], 1).unwrap();
        for (request, answer) in requests.iter().zip(&answers) {
            assert_eq!(&reference.corpus().execute(request).unwrap(), answer);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bounded_queue_rejects_whole_batches() {
        let service = CorpusService::with_capacity(ShardedCorpus::new(), 10);
        assert_eq!(service.capacity(), 10);
        assert_eq!(service.submit(plans(8)), Ok(8));
        let err = service.submit(plans(3)).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Backpressure {
                pending: 8,
                capacity: 10,
                offered: 3
            }
        );
        // The rejected batch left no partial residue; a fitting one lands.
        assert_eq!(service.submit(plans(2)), Ok(10));
        let report = service.merge(2);
        assert_eq!(report.merged, 10);
        // Drained: capacity is available again.
        assert_eq!(service.submit(plans(3)), Ok(3));
    }

    #[test]
    fn readers_keep_epoch_consistent_answers_across_merges() {
        let stream = plans(90);
        let service = Arc::new(CorpusService::new(ShardedCorpus::new()));
        service.submit(stream[..40].to_vec()).unwrap();
        service.merge(2);

        let mut reader = service.reader();
        let probe = stream[5].clone();
        let request = QueryRequest::knn(3).with_probe(probe);
        let pinned = Arc::clone(reader.current());
        let before = pinned.execute(&request).unwrap();
        assert_eq!(before.epoch, Some(1));

        // Ingest and merge more plans; the pinned snapshot must keep
        // answering identically (matches *and* counted evals), while a
        // refreshed reader sees the new epoch.
        service.submit(stream[40..].to_vec()).unwrap();
        service.merge(4);
        let again = pinned.execute(&request).unwrap();
        assert_eq!(again, before);
        let after = reader.current().execute(&request).unwrap();
        assert_eq!(after.epoch, Some(2));
        assert_eq!(
            reader.pinned().epoch(),
            2,
            "current() refreshed the cache in place"
        );
        if let (QueryOutcome::Matches(old), QueryOutcome::Matches(new)) =
            (&before.outcome, &after.outcome)
        {
            assert_eq!(old.len(), 3);
            assert_eq!(new.len(), 3);
        } else {
            panic!("knn answers matches");
        }
    }
}
