//! One shard of a [`crate::ShardedCorpus`].
//!
//! A shard owns a contiguous slice of fingerprint space (plans whose
//! fingerprint *prefix* routes here) and keeps, independently of every
//! other shard: the [`FingerprintSet`] answering "seen exactly?", the plan
//! storage, and the BK-tree answering "seen anything like it?". Because a
//! plan's shard is a pure function of its fingerprint, shards never
//! coordinate — parallel ingest hands each worker whole shards and needs no
//! locks, and the facade's determinism guarantee reduces to "each shard
//! sees its plans in stream order".
//!
//! Ids are *local* here (dense per shard, also the BK node ids); the
//! facade maps them to corpus-wide insertion-ordered globals through
//! [`CorpusShard::globals`].
//!
//! Plan payloads live behind a [`PlanStore`]: eagerly for ingested plans,
//! lazily (offset-addressed segment bytes, decoded on first touch) for
//! plans opened from a segment store — the representation queries never
//! see, because every access goes through [`PlanStore::plan`] /
//! [`PlanStore::ted`].

use std::sync::Arc;

use uplan_core::fingerprint::{Fingerprint, FingerprintOptions, FingerprintSet};
use uplan_core::ted::{TedPlan, TedScratch};
use uplan_core::UnifiedPlan;

use crate::bktree::BkTree;
use crate::features::{features_of, FeatureVector};
use crate::segment::SegmentSource;

/// An ingested plan's in-memory form: the plan itself plus its
/// pre-flattened TED view (every metric evaluation — BK routing,
/// traversals, shortlist re-ranks — reads the view instead of
/// re-flattening).
#[derive(Debug)]
struct LoadedPlan {
    plan: UnifiedPlan,
    ted: TedPlan,
}

impl LoadedPlan {
    fn new(plan: UnifiedPlan) -> LoadedPlan {
        LoadedPlan {
            ted: TedPlan::new(&plan),
            plan,
        }
    }
}

/// One plan's storage slot. Either way the decoded plan is a shared,
/// write-once value: cloning a slot copies a pointer or an address, never
/// a plan.
#[derive(Debug, Clone)]
enum PlanSlot {
    /// An ingested plan, decoded at store time. It keeps the full plan
    /// because [`crate::SegmentStore::append`] encodes it from there.
    Eager(Arc<LoadedPlan>),
    /// Plan `idx` of segment `seg` in the store's [`SegmentSource`],
    /// decoded on first touch into the source's own cells: the TED view
    /// for queries, the full plan on demand.
    Lazy { seg: u32, idx: u32 },
}

/// Plan payload storage for one shard: dense by local id, decode-on-first-
/// touch when backed by a segment source. Cloning copies pointers only:
/// eager plans are `Arc`-shared, and lazy plans decode into cells of the
/// shared source, so every clone — a published snapshot, the store's own
/// corpus — sees what any other clone already decoded.
#[derive(Debug, Default, Clone)]
pub(crate) struct PlanStore {
    /// Shared decoded-bytes source for lazy slots; `None` for a purely
    /// in-RAM shard.
    source: Option<Arc<SegmentSource>>,
    slots: Vec<PlanSlot>,
}

impl PlanStore {
    /// An empty store whose lazy slots will decode from `source`.
    pub(crate) fn lazy(source: Arc<SegmentSource>) -> PlanStore {
        PlanStore {
            source: Some(source),
            slots: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Appends an eagerly stored plan (flattening its TED view now).
    pub(crate) fn push(&mut self, plan: UnifiedPlan) {
        self.slots
            .push(PlanSlot::Eager(Arc::new(LoadedPlan::new(plan))));
    }

    /// Appends a lazy slot addressing plan `idx` of segment `seg` in the
    /// store's source.
    pub(crate) fn push_lazy(&mut self, seg: u32, idx: u32) {
        debug_assert!(self.source.is_some(), "lazy slot needs a segment source");
        self.slots.push(PlanSlot::Lazy { seg, idx });
    }

    fn source(&self) -> &SegmentSource {
        self.source
            .as_deref()
            .expect("lazy slot without a segment source")
    }

    /// The stored plan, decoding it on first touch. No query calls this:
    /// queries read [`PlanStore::ted`], so a lazy slot's full plan decodes
    /// only for callers that read properties.
    pub(crate) fn plan(&self, local: usize) -> &UnifiedPlan {
        match self.slots[local] {
            PlanSlot::Eager(ref loaded) => &loaded.plan,
            PlanSlot::Lazy { seg, idx } => self.source().plan(seg, idx),
        }
    }

    /// The stored plan's pre-flattened TED view, decoding on first touch
    /// (a lazy slot keeps the view only, not the plan it came from).
    pub(crate) fn ted(&self, local: usize) -> &TedPlan {
        match self.slots[local] {
            PlanSlot::Eager(ref loaded) => &loaded.ted,
            PlanSlot::Lazy { seg, idx } => self.source().ted(seg, idx),
        }
    }

    /// Plans whose payload has actually been decoded, in either form
    /// (lazy-open observability; everything, for an ingested store).
    pub(crate) fn decoded(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| match **slot {
                PlanSlot::Eager(_) => true,
                PlanSlot::Lazy { seg, idx } => self.source().is_decoded(seg, idx),
            })
            .count()
    }
}

/// One fingerprint-prefix shard: dedup set + plan storage + BK-tree.
#[derive(Debug, Default, Clone)]
pub(crate) struct CorpusShard {
    /// Fingerprint dedup for the plans routed to this shard.
    pub(crate) dedup: FingerprintSet,
    /// Plan payloads, dense by local id (eager or lazily decoded).
    pub(crate) store: PlanStore,
    /// Fingerprint per local id.
    pub(crate) fingerprints: Vec<Fingerprint>,
    /// Local id → corpus-wide global id.
    pub(crate) globals: Vec<u32>,
    /// Structural feature vector per local id — the approximate-query
    /// pre-filter (see [`crate::features`]). Computed at store time (or
    /// adopted from a persisted feature section), always dense and always
    /// eager: queries read vectors without touching plan payloads.
    pub(crate) features: Vec<FeatureVector>,
    /// BK-tree over local ids (node id == local id, always sequential).
    pub(crate) index: BkTree,
    /// TED evaluations spent building `index` (insert routing).
    pub(crate) index_evals: u64,
}

impl CorpusShard {
    pub(crate) fn with_options(options: FingerprintOptions) -> CorpusShard {
        CorpusShard {
            dedup: FingerprintSet::with_options(options),
            ..CorpusShard::default()
        }
    }

    /// Distinct plans stored in this shard.
    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Stores a fingerprint-novel plan and routes it into the BK-tree
    /// (evaluating TED against the plans already here). Returns the local
    /// id. The caller has already claimed `fp` in [`CorpusShard::dedup`].
    pub(crate) fn store(&mut self, plan: UnifiedPlan, fp: Fingerprint, global: u32) -> u32 {
        let local = u32::try_from(self.store.len()).expect("corpus shard overflow");
        self.features.push(features_of(&plan));
        self.store.push(plan);
        self.fingerprints.push(fp);
        self.globals.push(global);
        let store = &self.store;
        let probe = store.ted(local as usize);
        let mut scratch = TedScratch::default();
        let evals = self.index.insert(local, |other| {
            probe.distance(store.ted(other as usize), &mut scratch) as u32
        });
        self.index_evals += evals;
        local
    }

    /// Stores a *lazy* plan: all metadata (fingerprint, features, global)
    /// eager, the payload a segment address decoded on first touch. The
    /// caller has already claimed `fp` in the dedup set and set up the
    /// shard's [`PlanStore::lazy`] source.
    pub(crate) fn store_lazy(
        &mut self,
        fp: Fingerprint,
        global: u32,
        features: FeatureVector,
        seg: u32,
        idx: u32,
    ) -> u32 {
        let local = u32::try_from(self.store.len()).expect("corpus shard overflow");
        self.features.push(features);
        self.store.push_lazy(seg, idx);
        self.fingerprints.push(fp);
        self.globals.push(global);
        local
    }

    /// Adopts a persisted BK topology over the plans already stored —
    /// zero TED evaluations. Errors when the topology cannot describe this
    /// shard's population.
    pub(crate) fn adopt_index(&mut self, edges: &[(u32, u32)]) -> Result<(), String> {
        self.index = BkTree::from_edges(self.store.len(), edges)?;
        Ok(())
    }
}
