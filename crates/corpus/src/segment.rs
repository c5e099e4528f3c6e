//! The append-only segment store: a corpus persisted as a directory of
//! immutable segment files plus one small manifest.
//!
//! ```text
//! corpus.d/
//! ├── manifest.uplm      segment list, fingerprint ranges, feature
//! │                      summaries, full symbol chain  (atomically
//! │                      rewritten on every append)
//! ├── seg-00000.upls     immutable: CRC-checked plan blocks, symbol
//! ├── seg-00001.upls     delta, offsets, fingerprints, features,
//! └── seg-00002.upls     BK subtree topology
//! ```
//!
//! It is the only way a corpus is persisted. Three properties a
//! monolithic one-file corpus document could not offer:
//!
//! * **Append is O(batch).** [`SegmentStore::append`] ingests the batch,
//!   writes the novel plans as one new segment file, and atomically
//!   rewrites only the manifest. Existing segments are never reopened,
//!   so appending 1k plans to a 1M-plan store costs the same as to an
//!   empty one.
//! * **Open is lazy.** [`SegmentStore::open`] decodes manifests, tails
//!   and topology eagerly but leaves plan payloads as offset-addressed
//!   bytes: the corpus is queryable in milliseconds and each plan body
//!   decodes at most once per form, on first touch (block CRC verified
//!   before the first decode of either). Queries keep only a plan's TED
//!   view; the full plan decodes on demand, for callers that read it.
//!   Query answers and counted TED evaluations are identical to the
//!   in-RAM corpus — laziness changes *when* bytes decode, never what a
//!   traversal does.
//! * **Damage is local.** Every file is CRC-trailed; the segment is the
//!   recovery unit. [`SegmentStore::salvage`] keeps every intact
//!   segment's plans and drops damaged ones whole — and because the
//!   manifest duplicates the full symbol chain, a dead segment does not
//!   take later segments' symbols with it. (Only a dead manifest *and* a
//!   dead earlier segment cascade: the chain suffix is then gone and
//!   later segments cannot decode.)
//!
//! Byte determinism carries over from ingest: appending the same batch at
//! any thread count produces byte-identical segment files and manifests,
//! which is what lets CI diff whole store directories across thread
//! counts.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use uplan_core::fingerprint::{Fingerprint, FingerprintOptions};
use uplan_core::formats::binary::CHECKSUM_BLOCK_PLANS;
pub use uplan_core::formats::segment::SegmentSections;
use uplan_core::formats::segment::{
    decode_manifest, decode_plan_at, encode_manifest, parse_segment, verify_block, Manifest,
    SegmentBuilder, SegmentFinish, SegmentMeta, SegmentShardEdges, SegmentView,
};
use uplan_core::ted::TedPlan;
use uplan_core::{Error, Result, Symbol, UnifiedPlan};
use uplan_obs::Counter;

use crate::features::{FeatureVector, FEATURE_DIM};
use crate::{options_flags, shard_index, ShardedCorpus};

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.uplm";

/// File name of a segment, by id.
pub fn segment_file(id: u32) -> String {
    format!("seg-{id:05}.upls")
}

/// The decoded-bytes backing of a lazily opened corpus, and its decode
/// cache: every shard's [`crate::shard::PlanStore`] — in the store's own
/// corpus and in every clone of it — shares one source through an
/// [`Arc`], so a plan body decodes at most once per form per process,
/// however many corpus snapshots address it.
#[derive(Debug)]
pub(crate) struct SegmentSource {
    /// The full symbol chain (from the manifest) every segment's plan
    /// bodies reference.
    symbols: Vec<Symbol>,
    segments: Vec<SegmentData>,
}

#[derive(Debug)]
struct SegmentData {
    /// The raw segment file.
    bytes: Vec<u8>,
    /// Absolute offset of each plan body.
    offsets: Vec<u32>,
    /// Byte length of each plan body.
    lens: Vec<u32>,
    /// Checksum-block extents, from the parse.
    blocks: Vec<(u32, u32)>,
    /// One flag per block: its CRC has been verified. Lazily set before
    /// the first plan of the block decodes.
    verified: Vec<OnceLock<()>>,
    /// One write-once cell per plan: its TED view, the only form a query
    /// reads, filled on first touch from any corpus sharing this source.
    /// Boxed so an undecoded plan costs one pointer.
    views: Vec<OnceLock<Box<TedPlan>>>,
    /// One write-once cell per plan: the full plan, filled only when a
    /// caller asks for the plan itself (the CLI, compaction, tests).
    plans: Vec<OnceLock<Box<UnifiedPlan>>>,
}

/// Process-global lazy-decode counters. Each is bumped once per first
/// touch (a view fill, a full-plan fill, a block verification), never on
/// a warm read.
struct StoreMetrics {
    /// `uplan_store_plans_decoded_total`: TED view fills.
    plans_decoded: Arc<Counter>,
    /// `uplan_store_full_plans_decoded_total`: full-plan fills.
    full_plans_decoded: Arc<Counter>,
    /// `uplan_store_blocks_verified_total`.
    blocks_verified: Arc<Counter>,
}

fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = uplan_obs::global();
        StoreMetrics {
            plans_decoded: registry.counter(
                "uplan_store_plans_decoded_total",
                "segment-store plan bodies decoded into TED views on first touch",
            ),
            full_plans_decoded: registry.counter(
                "uplan_store_full_plans_decoded_total",
                "segment-store plan bodies decoded into full plans on first touch",
            ),
            blocks_verified: registry.counter(
                "uplan_store_blocks_verified_total",
                "segment-store checksum blocks CRC-verified on first touch",
            ),
        }
    })
}

impl SegmentSource {
    /// The TED view of plan `idx` of segment `seg`, decoding the body on
    /// first touch and keeping only the view.
    pub(crate) fn ted(&self, seg: u32, idx: u32) -> &TedPlan {
        self.segments[seg as usize].views[idx as usize].get_or_init(|| {
            let view = TedPlan::new(&self.load(seg, idx));
            store_metrics().plans_decoded.inc();
            Box::new(view)
        })
    }

    /// Plan `idx` of segment `seg`, decoding it on first touch.
    pub(crate) fn plan(&self, seg: u32, idx: u32) -> &UnifiedPlan {
        self.segments[seg as usize].plans[idx as usize].get_or_init(|| {
            let plan = self.load(seg, idx);
            store_metrics().full_plans_decoded.inc();
            Box::new(plan)
        })
    }

    /// Whether plan `idx` of segment `seg` has been decoded, in either
    /// form.
    pub(crate) fn is_decoded(&self, seg: u32, idx: u32) -> bool {
        let data = &self.segments[seg as usize];
        data.views[idx as usize].get().is_some() || data.plans[idx as usize].get().is_some()
    }

    /// Decodes plan `idx` of segment `seg`, verifying its checksum block
    /// first (once per block, whichever form decodes first).
    ///
    /// Panics on a CRC or decode failure: the store was opened strictly,
    /// so bytes that die *between* open and first touch mean concurrent
    /// external damage — there is no good value to return mid-query.
    /// `repro corpus salvage` is the lenient path for damaged stores.
    fn load(&self, seg: u32, idx: u32) -> UnifiedPlan {
        let data = &self.segments[seg as usize];
        let block = idx as usize / CHECKSUM_BLOCK_PLANS as usize;
        data.verified[block].get_or_init(|| {
            verify_block(&data.bytes, data.blocks[block]).unwrap_or_else(|e| {
                panic!(
                    "segment {seg} plan block {block} failed verification on lazy decode \
                     ({e}); the store changed after open — run `repro corpus salvage`"
                )
            });
            store_metrics().blocks_verified.inc();
        });
        decode_plan_at(
            &data.bytes,
            data.offsets[idx as usize],
            data.lens[idx as usize],
            &self.symbols,
        )
        .unwrap_or_else(|e| {
            panic!(
                "segment {seg} plan {idx} failed to decode after block verification ({e}); \
                 run `repro corpus salvage`"
            )
        })
    }
}

/// Per-segment pruning summary the corpus keeps for its query path: the
/// segment's dense global-id range and the per-dimension bounds of its
/// feature vectors. [`ShardedCorpus::knn_query_approx`] skips a whole
/// segment's L1 scan when the bound proves nothing in it can improve the
/// shortlist.
#[derive(Debug, Clone)]
pub(crate) struct SegmentHint {
    /// First global id of the segment (segments cover a contiguous prefix
    /// of the id space, in order).
    pub(crate) start: usize,
    /// Plans in the segment.
    pub(crate) count: usize,
    pub(crate) feature_min: FeatureVector,
    pub(crate) feature_max: FeatureVector,
}

impl SegmentHint {
    /// A lower bound on the L1 feature distance from `probe` to *every*
    /// plan in the segment: per dimension, the gap between the probe and
    /// the segment's `[min, max]` interval.
    pub(crate) fn l1_lower_bound(&self, probe: &FeatureVector) -> u64 {
        self.feature_min
            .iter()
            .zip(&self.feature_max)
            .zip(probe)
            .map(|((&lo, &hi), &p)| u64::from(if p < lo { lo - p } else { p.saturating_sub(hi) }))
            .sum()
    }
}

/// What one [`SegmentStore::append`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReport {
    /// Plans offered in the batch.
    pub observed: usize,
    /// Fingerprint-novel plans stored (and written to the new segment).
    pub admitted: usize,
    /// Batch plans that were fingerprint duplicates.
    pub duplicates: usize,
    /// Id of the segment written — `None` when the whole batch was
    /// duplicates (nothing to persist, manifest untouched).
    pub segment_id: Option<u32>,
    /// Bytes of the new segment file (0 when none was written).
    pub segment_bytes: usize,
}

/// What a [`SegmentStore::compact`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Segments merged away.
    pub segments_before: usize,
    /// Segment-file bytes before.
    pub bytes_before: usize,
    /// Segment-file bytes after (one segment, or zero for an empty store).
    pub bytes_after: usize,
}

/// What [`SegmentStore::salvage`] recovered from a damaged store
/// directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSalvageReport {
    /// Whether the manifest itself was intact. When it is, each segment
    /// stands alone (the manifest chain decodes every survivor); when it
    /// is not, the chain is rebuilt from segment deltas and a damaged
    /// segment additionally drops every later segment that needs its
    /// symbols.
    pub manifest_ok: bool,
    /// Segment files the store declared (manifest entries, or `seg-*.upls`
    /// files found when the manifest is gone).
    pub segments_declared: usize,
    /// Segments recovered whole.
    pub segments_recovered: usize,
    /// Plans declared by the manifest (or by the parseable segment
    /// headers when the manifest is gone).
    pub declared: u64,
    /// Distinct plans recovered into the returned corpus.
    pub recovered: usize,
    /// Declared plans lost with dropped segments.
    pub dropped: u64,
    /// First failure encountered (`None` for an intact store).
    pub error: Option<String>,
    /// `true` when the metric index was rebuilt rather than adopted —
    /// always, once any segment dropped (cross-segment BK node ids are
    /// invalidated by any gap); `false` only for the intact fast path.
    pub index_rebuilt: bool,
}

/// Census row for one segment (`repro corpus stats`, serve `/stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentCensus {
    /// Segment id.
    pub id: u32,
    /// Plans in the segment.
    pub plans: u64,
    /// On-disk bytes by section.
    pub bytes: SegmentSections,
}

/// An open append-only segment store: the live corpus plus the directory
/// that persists it.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    manifest: Manifest,
    corpus: ShardedCorpus,
    census: Vec<SegmentCensus>,
}

fn read_err(path: &Path, e: impl std::fmt::Display) -> Error {
    Error::Semantic(format!("cannot read {}: {e}", path.display()))
}

fn write_err(path: &Path, e: impl std::fmt::Display) -> Error {
    Error::Semantic(format!("cannot write {}: {e}", path.display()))
}

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory, then rename. Readers see either the old file or the new one,
/// never a torn write.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| write_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        write_err(path, e)
    })
}

impl SegmentStore {
    /// `true` when `path` looks like a segment-store directory (a
    /// directory containing a manifest). The format-sniffing counterpart
    /// of the binary magic check.
    pub fn is_store_dir(path: impl AsRef<Path>) -> bool {
        path.as_ref().join(MANIFEST_FILE).is_file()
    }

    /// Creates a store at `dir` (made if missing) persisting `corpus`:
    /// all current plans become segment 0 ([`encode_segment`]'s bytes). An
    /// empty corpus writes just a manifest. Refuses a directory that
    /// already holds a store — overwriting its manifest would orphan every
    /// later segment — so callers replacing a store must clear it first.
    pub fn create(dir: impl Into<PathBuf>, corpus: ShardedCorpus) -> Result<SegmentStore> {
        let dir = dir.into();
        if Self::is_store_dir(&dir) {
            return Err(Error::Semantic(format!(
                "{} already holds a segment store",
                dir.display()
            )));
        }
        std::fs::create_dir_all(&dir).map_err(|e| write_err(&dir, e))?;
        let mut corpus = corpus;
        // The store re-derives hints segment by segment.
        corpus.segment_hints.clear();
        let mut store = SegmentStore {
            manifest: Manifest {
                fingerprint_flags: options_flags(corpus.options()),
                shard_count: corpus.shard_count() as u32,
                feature_dim: FEATURE_DIM as u32,
                symbols: Vec::new(),
                segments: Vec::new(),
            },
            census: Vec::new(),
            dir,
            corpus,
        };
        let zeros = vec![0usize; store.corpus.shard_count()];
        store.write_segment(0, 0, &zeros)?;
        store.write_manifest()?;
        Ok(store)
    }

    /// Opens a store lazily: manifest, segment tails (offsets,
    /// fingerprints, features, BK topology) decode eagerly; plan payloads
    /// stay undecoded until first touch. Strict — any CRC or structural
    /// mismatch is an error ([`SegmentStore::salvage`] is the lenient
    /// path).
    pub fn open(dir: impl Into<PathBuf>) -> Result<SegmentStore> {
        Self::open_with_options(dir, FingerprintOptions::default())
    }

    /// [`SegmentStore::open`] with explicit fingerprint options. A store
    /// written under other options is an error, not a silent rebuild:
    /// rebuilding would decode every plan, which defeats the lazy open —
    /// convert explicitly instead.
    pub fn open_with_options(
        dir: impl Into<PathBuf>,
        options: FingerprintOptions,
    ) -> Result<SegmentStore> {
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&manifest_path).map_err(|e| read_err(&manifest_path, e))?;
        let manifest = decode_manifest(&bytes)?;
        if manifest.fingerprint_flags != options_flags(options) {
            return Err(Error::Semantic(
                "segment store was written under different fingerprint options; \
                 load it with the options it was created with"
                    .into(),
            ));
        }
        if manifest.feature_dim as usize != FEATURE_DIM {
            return Err(Error::Semantic(format!(
                "segment store has {}-wide feature vectors, this build computes {FEATURE_DIM}",
                manifest.feature_dim
            )));
        }
        let shard_count = manifest.shard_count as usize;
        if !shard_count.is_power_of_two() {
            return Err(Error::Semantic(format!(
                "segment store has a non-power-of-two shard count {shard_count}"
            )));
        }

        // Read and parse every segment (metadata only — no plan bodies).
        // Each file's bytes move into the shared source; the views keep
        // only the metadata the corpus is rebuilt from below.
        let mut views: Vec<SegmentView> = Vec::with_capacity(manifest.segments.len());
        let mut segments: Vec<SegmentData> = Vec::with_capacity(manifest.segments.len());
        for meta in &manifest.segments {
            let path = dir.join(segment_file(meta.id));
            let bytes = std::fs::read(&path).map_err(|e| read_err(&path, e))?;
            let mut view = parse_segment(&bytes)?;
            check_meta(&manifest, meta, &view)?;
            segments.push(SegmentData {
                verified: view.blocks.iter().map(|_| OnceLock::new()).collect(),
                views: (0..view.plan_count).map(|_| OnceLock::new()).collect(),
                plans: (0..view.plan_count).map(|_| OnceLock::new()).collect(),
                bytes,
                offsets: std::mem::take(&mut view.plan_offsets),
                lens: std::mem::take(&mut view.plan_lens),
                blocks: std::mem::take(&mut view.blocks),
            });
            views.push(view);
        }

        // Register the decode counters now, so a scrape of a freshly
        // opened store reports them at zero rather than omitting them.
        store_metrics();
        let source = Arc::new(SegmentSource {
            symbols: manifest.symbols.clone(),
            segments,
        });

        let mut corpus = ShardedCorpus::with_options_and_shards(options, shard_count);
        for shard in &mut corpus.shards {
            shard.store = crate::shard::PlanStore::lazy(Arc::clone(&source));
        }
        let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shard_count];
        let mut census = Vec::with_capacity(views.len());
        for (seg_idx, view) in views.iter().enumerate() {
            let start = corpus.directory.len();
            let before: Vec<usize> = corpus.shards.iter().map(|s| s.len()).collect();
            for idx in 0..view.plan_count as usize {
                let fp = Fingerprint(view.fingerprints[idx]);
                let s = shard_index(fp, corpus.shard_bits);
                if !corpus.shards[s].dedup.insert(fp) {
                    return Err(Error::Semantic(format!(
                        "segment {} repeats fingerprint {fp:?}",
                        view.id
                    )));
                }
                let mut row = [0u32; FEATURE_DIM];
                row.copy_from_slice(&view.features[idx * FEATURE_DIM..(idx + 1) * FEATURE_DIM]);
                let global = u32::try_from(corpus.directory.len()).expect("corpus overflow");
                let local =
                    corpus.shards[s].store_lazy(fp, global, row, seg_idx as u32, idx as u32);
                corpus.directory.push((s as u32, local));
            }
            for (s, group) in view.shards.iter().enumerate() {
                let routed = corpus.shards[s].len() - before[s];
                if group.base != before[s] as u64 || group.count != routed as u64 {
                    return Err(Error::Semantic(format!(
                        "segment {} BK topology disagrees with fingerprint routing on shard {s}",
                        view.id
                    )));
                }
                edges[s].extend_from_slice(&group.edges);
            }
            let meta = &manifest.segments[seg_idx];
            corpus.segment_hints.push(SegmentHint {
                start,
                count: view.plan_count as usize,
                feature_min: vector_of(&meta.feature_min),
                feature_max: vector_of(&meta.feature_max),
            });
            corpus.operations += view.operations as usize;
            corpus.max_depth = corpus.max_depth.max(view.max_depth as usize);
            census.push(SegmentCensus {
                id: view.id,
                plans: view.plan_count,
                bytes: view.sections,
            });
        }
        for (shard, edges) in corpus.shards.iter_mut().zip(&edges) {
            shard.adopt_index(edges).map_err(Error::Semantic)?;
        }
        corpus.observed = corpus.directory.len() as u64;
        corpus.persisted_index = true;
        Ok(SegmentStore {
            dir,
            manifest,
            corpus,
            census,
        })
    }

    /// The live corpus.
    pub fn corpus(&self) -> &ShardedCorpus {
        &self.corpus
    }

    /// Consumes the store, keeping the (possibly still lazy) corpus.
    pub fn into_corpus(self) -> ShardedCorpus {
        self.corpus
    }

    /// The store's manifest, as last written.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Per-segment on-disk census, in segment order.
    pub fn census(&self) -> &[SegmentCensus] {
        &self.census
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Ingests a batch and persists the novel plans as one new segment,
    /// atomically rewriting the manifest. Cost is O(batch): existing
    /// segment files are neither read nor written. Deterministic — the
    /// same batch produces byte-identical files at any `threads`.
    pub fn append(&mut self, plans: &[UnifiedPlan], threads: usize) -> Result<AppendReport> {
        let before: Vec<usize> = self.corpus.shards.iter().map(|s| s.len()).collect();
        let start = self.corpus.len();
        let admitted = self.corpus.ingest_parallel(plans, threads);
        let (segment_id, segment_bytes) = match self.write_segment_next(start, &before)? {
            Some((id, bytes)) => {
                self.write_manifest()?;
                (Some(id), bytes)
            }
            None => (None, 0),
        };
        Ok(AppendReport {
            observed: plans.len(),
            admitted,
            duplicates: plans.len() - admitted,
            segment_id,
            segment_bytes,
        })
    }

    /// Merges every segment into one fresh segment (restarting the symbol
    /// chain) and drops the old files. This is the counterweight to
    /// append-only growth: many small segments cost per-segment overhead
    /// on open and query, and the chain keeps symbols no live segment
    /// references.
    pub fn compact(&mut self) -> Result<CompactReport> {
        let segments_before = self.manifest.segments.len();
        let bytes_before = self.census.iter().map(|c| c.bytes.total).sum();
        let old: Vec<u32> = self.manifest.segments.iter().map(|m| m.id).collect();
        // The new segment takes a fresh id so a crash mid-compact leaves
        // the old manifest pointing at intact old files.
        let next_id = self.manifest.segments.last().map_or(0, |m| m.id + 1);
        self.manifest.symbols.clear();
        self.manifest.segments.clear();
        self.census.clear();
        self.corpus.segment_hints.clear();
        let zeros = vec![0usize; self.corpus.shard_count()];
        self.write_segment(next_id, 0, &zeros)?;
        self.write_manifest()?;
        for id in old {
            let _ = std::fs::remove_file(self.dir.join(segment_file(id)));
        }
        Ok(CompactReport {
            segments_before,
            bytes_before,
            bytes_after: self.census.iter().map(|c| c.bytes.total).sum(),
        })
    }

    /// Lenient open of a damaged store: recovers every segment that
    /// parses, CRC-verifies and decodes whole; drops damaged segments
    /// entirely (the segment is the recovery unit) and rebuilds the
    /// metric index from the survivors. Errors only when the directory
    /// itself is unreadable.
    pub fn salvage(
        dir: impl AsRef<Path>,
        options: FingerprintOptions,
    ) -> Result<(ShardedCorpus, SegmentSalvageReport)> {
        let dir = dir.as_ref();
        std::fs::read_dir(dir).map_err(|e| read_err(dir, e))?;
        let manifest = std::fs::read(dir.join(MANIFEST_FILE))
            .ok()
            .and_then(|bytes| decode_manifest(&bytes).ok());
        let mut error: Option<String> = None;
        let note = |e: String, error: &mut Option<String>| {
            if error.is_none() {
                *error = Some(e);
            }
        };

        // The segment files to try: the manifest's list, or a directory
        // scan (ordered by id) when the manifest is gone.
        let ids: Vec<u32> = match &manifest {
            Some(m) => m.segments.iter().map(|s| s.id).collect(),
            None => {
                note("manifest missing or corrupt".into(), &mut error);
                let mut ids: Vec<u32> = std::fs::read_dir(dir)
                    .map_err(|e| read_err(dir, e))?
                    .filter_map(|entry| {
                        let name = entry.ok()?.file_name();
                        let name = name.to_str()?;
                        let id = name.strip_prefix("seg-")?.strip_suffix(".upls")?;
                        id.parse().ok()
                    })
                    .collect();
                ids.sort_unstable();
                ids
            }
        };

        // Parse pass: views of the segments that read and parse.
        let mut parsed: Vec<Option<(SegmentView, Vec<u8>)>> = Vec::with_capacity(ids.len());
        for &id in &ids {
            let path = dir.join(segment_file(id));
            let outcome = std::fs::read(&path)
                .map_err(|e| read_err(&path, e))
                .and_then(|bytes| Ok((parse_segment(&bytes)?, bytes)));
            match outcome {
                Ok(pair) => parsed.push(Some(pair)),
                Err(e) => {
                    note(format!("segment {id}: {e}"), &mut error);
                    parsed.push(None);
                }
            }
        }
        let declared: u64 = match &manifest {
            Some(m) => m.segments.iter().map(|s| s.plan_count).sum(),
            None => parsed
                .iter()
                .flatten()
                .map(|(view, _)| view.plan_count)
                .sum(),
        };

        // Recovery pass. With a manifest the full chain decodes every
        // survivor independently; without one the chain rebuilds from
        // segment deltas, so a dropped segment cascades onto later
        // segments whose symbols it carried.
        let shard_count = match (&manifest, parsed.iter().flatten().next()) {
            (Some(m), _) => m.shard_count as usize,
            (None, Some((view, _))) => view.shard_count as usize,
            (None, None) => crate::DEFAULT_SHARDS,
        };
        let mut corpus = ShardedCorpus::with_options_and_shards(options, shard_count);
        let mut chain: Vec<Symbol> = Vec::new();
        let mut segments_recovered = 0usize;
        for (slot, pair) in parsed.iter().enumerate() {
            let Some((view, bytes)) = pair else { continue };
            let symbols: &[Symbol] = match &manifest {
                Some(m) => {
                    if let Err(e) = check_meta(m, &m.segments[slot], view) {
                        note(format!("segment {}: {e}", view.id), &mut error);
                        continue;
                    }
                    &m.symbols
                }
                None => {
                    if view.symbols_base as usize != chain.len() {
                        note(
                            format!(
                                "segment {}: symbol chain broken by an earlier dropped \
                                 segment (cascade)",
                                view.id
                            ),
                            &mut error,
                        );
                        continue;
                    }
                    chain.extend_from_slice(&view.delta);
                    &chain
                }
            };
            // Strict whole-segment decode: verify every block, decode
            // every plan; any failure drops the segment.
            let plans: Result<Vec<UnifiedPlan>> = (0..view.plan_count as usize)
                .map(|idx| {
                    let block = idx / CHECKSUM_BLOCK_PLANS as usize;
                    if idx % CHECKSUM_BLOCK_PLANS as usize == 0 {
                        verify_block(bytes, view.blocks[block])?;
                    }
                    decode_plan_at(bytes, view.plan_offsets[idx], view.plan_lens[idx], symbols)
                })
                .collect();
            match plans {
                Ok(plans) => {
                    segments_recovered += 1;
                    for plan in plans {
                        corpus.insert(plan);
                    }
                }
                Err(e) => note(format!("segment {}: {e}", view.id), &mut error),
            }
        }
        let recovered = corpus.len();
        let report = SegmentSalvageReport {
            manifest_ok: manifest.is_some(),
            segments_declared: ids.len(),
            segments_recovered,
            declared,
            recovered,
            dropped: declared.saturating_sub(recovered as u64),
            index_rebuilt: error.is_some() || manifest.is_none(),
            error,
        };
        Ok((corpus, report))
    }

    /// Writes globals `start..len` as the next segment in sequence.
    fn write_segment_next(
        &mut self,
        start: usize,
        counts_before: &[usize],
    ) -> Result<Option<(u32, usize)>> {
        let id = self.manifest.segments.last().map_or(0, |m| m.id + 1);
        self.write_segment(id, start, counts_before)
    }

    /// Writes globals `start..corpus.len()` as segment `id` and records
    /// it in the in-memory manifest (the caller persists the manifest).
    /// No-op returning `None` when the range is empty.
    fn write_segment(
        &mut self,
        id: u32,
        start: usize,
        counts_before: &[usize],
    ) -> Result<Option<(u32, usize)>> {
        if start == self.corpus.len() {
            return Ok(None);
        }
        let EncodedSegment { bytes, delta, meta } = encode_range(
            &self.corpus,
            id,
            start,
            counts_before,
            &self.manifest.symbols,
        )?;
        write_atomic(&self.dir.join(segment_file(id)), &bytes)?;
        self.manifest.symbols.extend_from_slice(&delta);
        // Section census from a re-parse of what was just written — also a
        // cheap self-check that the file round-trips.
        let view = parse_segment(&bytes)?;
        let count = meta.plan_count as usize;
        self.census.push(SegmentCensus {
            id,
            plans: meta.plan_count,
            bytes: view.sections,
        });
        self.corpus.segment_hints.push(SegmentHint {
            start,
            count,
            feature_min: vector_of(&meta.feature_min),
            feature_max: vector_of(&meta.feature_max),
        });
        self.manifest.segments.push(meta);
        Ok(Some((id, bytes.len())))
    }

    fn write_manifest(&self) -> Result<()> {
        write_atomic(
            &self.dir.join(MANIFEST_FILE),
            &encode_manifest(&self.manifest),
        )
    }
}

/// The exact bytes of the `seg-00000.upls` file [`SegmentStore::create`]
/// writes for `corpus`: every plan, fingerprint, feature row and the whole
/// BK topology as one segment over a fresh symbol chain. This is the
/// in-memory byte oracle — two corpora with equal segment bytes hold the
/// same plans, in the same order, indexed the same way. An empty corpus
/// (which `create` persists as a manifest alone) encodes as the zero-plan
/// segment, which still records its shard count and fingerprint options.
pub fn encode_segment(corpus: &ShardedCorpus) -> Result<Vec<u8>> {
    let zeros = vec![0usize; corpus.shard_count()];
    Ok(encode_range(corpus, 0, 0, &zeros, &[])?.bytes)
}

/// One encoded segment: the file bytes, the symbols it appends to the
/// chain, and its manifest entry.
struct EncodedSegment {
    bytes: Vec<u8>,
    delta: Vec<Symbol>,
    meta: SegmentMeta,
}

/// The one segment encoder behind [`SegmentStore::create`], `append` and
/// `compact`: globals `start..corpus.len()` as segment `id`, against the
/// symbol chain `chain` so far. `counts_before` holds each shard's size
/// before the range, so the segment records exactly the BK edges the
/// range added.
fn encode_range(
    corpus: &ShardedCorpus,
    id: u32,
    start: usize,
    counts_before: &[usize],
    chain: &[Symbol],
) -> Result<EncodedSegment> {
    let end = corpus.len();
    let mut builder = SegmentBuilder::new(chain);
    let mut fingerprints = Vec::with_capacity(end - start);
    let mut features = Vec::with_capacity((end - start) * FEATURE_DIM);
    let mut feature_min = [u32::MAX; FEATURE_DIM];
    let mut feature_max = [0u32; FEATURE_DIM];
    let mut min_fp = u64::MAX;
    let mut max_fp = 0u64;
    let mut operations = 0u64;
    let mut max_depth = 0u32;
    for global in start..end {
        let plan = corpus.plan(global);
        builder.push(plan)?;
        let fp = corpus.fingerprint(global).0;
        min_fp = min_fp.min(fp);
        max_fp = max_fp.max(fp);
        fingerprints.push(fp);
        let (s, local) = corpus.directory[global];
        let row = &corpus.shards[s as usize].features[local as usize];
        for d in 0..FEATURE_DIM {
            feature_min[d] = feature_min[d].min(row[d]);
            feature_max[d] = feature_max[d].max(row[d]);
        }
        features.extend_from_slice(row);
        operations += plan.operation_count() as u64;
        max_depth = max_depth.max(plan.root.as_ref().map_or(0, |r| r.depth()) as u32);
    }
    let shards: Vec<SegmentShardEdges> = corpus
        .shards
        .iter()
        .zip(counts_before)
        .map(|(shard, &base)| {
            let all = shard.index.edges();
            let new = if base == 0 {
                &all[..]
            } else {
                &all[base - 1..]
            };
            SegmentShardEdges {
                base: base as u64,
                count: (shard.len() - base) as u64,
                edges: new.to_vec(),
            }
        })
        .collect();
    let finish = SegmentFinish {
        id,
        fingerprint_flags: options_flags(corpus.options()),
        shard_count: corpus.shard_count() as u32,
        fingerprints,
        feature_dim: FEATURE_DIM as u32,
        features,
        operations,
        max_depth,
        shards,
    };
    let (bytes, delta) = builder.finish(&finish);
    let meta = SegmentMeta {
        id,
        plan_count: (end - start) as u64,
        symbols_base: chain.len() as u32,
        symbols_len: delta.len() as u32,
        operations,
        max_depth,
        min_fingerprint: min_fp,
        max_fingerprint: max_fp,
        feature_min: feature_min.to_vec(),
        feature_max: feature_max.to_vec(),
    };
    Ok(EncodedSegment { bytes, delta, meta })
}

fn vector_of(values: &[u32]) -> FeatureVector {
    let mut row = [0u32; FEATURE_DIM];
    row.copy_from_slice(values);
    row
}

/// Structural agreement between a manifest entry and the segment file it
/// points at — any mismatch means one of the two was damaged or swapped.
fn check_meta(manifest: &Manifest, meta: &SegmentMeta, view: &SegmentView) -> Result<()> {
    let chain_slice = manifest
        .symbols
        .get(meta.symbols_base as usize..(meta.symbols_base + meta.symbols_len) as usize);
    let ok = view.id == meta.id
        && view.plan_count == meta.plan_count
        && view.symbols_base == meta.symbols_base
        && view.delta.len() == meta.symbols_len as usize
        && view.operations == meta.operations
        && view.max_depth == meta.max_depth
        && view.fingerprint_flags == manifest.fingerprint_flags
        && view.shard_count == manifest.shard_count
        && view.feature_dim == manifest.feature_dim
        && chain_slice == Some(view.delta.as_slice());
    if ok {
        Ok(())
    } else {
        Err(Error::Semantic(format!(
            "segment {} disagrees with its manifest entry",
            view.id
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use uplan_core::PlanNode;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uplan-segstore-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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

    /// Distinct synthetic plans `start..start + n` — wrapper subsets over
    /// distinct scans, same construction as the facade's test population.
    fn stream(start: usize, n: usize) -> Vec<UnifiedPlan> {
        let wrappers = ["Gather", "Collect", "Exchange", "Sort", "Hash", "Top_N"];
        let scans = [
            "Seq_Scan",
            "Index_Scan",
            "Bitmap_Scan",
            "Sample_Scan",
            "Range_Scan",
            "Cluster_Scan",
            "Backward_Scan",
        ];
        (start..start + n)
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

    fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect()
    }

    fn assert_same_answers(lazy: &ShardedCorpus, eager: &ShardedCorpus) {
        for probe in [
            chain(&["Seq_Scan"]),
            chain(&["Gather", "Sort", "Index_Scan"]),
            chain(&["Exchange", "Hash", "Bitmap_Scan"]),
        ] {
            assert_eq!(
                lazy.knn_query(&probe, 5, u64::MAX),
                eager.knn_query(&probe, 5, u64::MAX)
            );
            assert_eq!(
                lazy.radius_query(&probe, 3, u64::MAX),
                eager.radius_query(&probe, 3, u64::MAX)
            );
            assert_eq!(
                lazy.knn_query_approx(&probe, 5, 32),
                eager.knn_query_approx(&probe, 5, 32)
            );
        }
    }

    #[test]
    fn create_open_roundtrip_is_lazy_and_answers_identically() {
        let dir = tmp_dir("roundtrip");
        let mut eager = ShardedCorpus::new();
        eager.ingest_parallel(&stream(0, 120), 2);
        SegmentStore::create(&dir, eager.clone()).unwrap();

        let store = SegmentStore::open(&dir).unwrap();
        let lazy = store.corpus();
        assert_eq!(lazy.len(), eager.len());
        // Open decoded nothing; stats never force a decode.
        assert_eq!(lazy.decoded_plans(), 0);
        let mut expected_stats = eager.stats();
        expected_stats.observed = eager.len() as u64;
        expected_stats.duplicates = 0;
        assert_eq!(lazy.stats(), expected_stats);
        assert_eq!(lazy.decoded_plans(), 0);
        assert!(lazy.has_persisted_index());
        assert_eq!(lazy.index_evals(), 0);
        // A bounded approximate query decodes only its candidate set —
        // the feature pre-filter runs on eager metadata.
        let _ = lazy.knn_query_approx(&chain(&["Seq_Scan"]), 3, 8);
        let touched = lazy.decoded_plans();
        assert!(
            touched > 0 && touched < lazy.len(),
            "bounded query touched {touched} of {}",
            lazy.len()
        );
        // Queries answer identically (matches AND counted evals).
        assert_same_answers(lazy, &eager);
        // Full identity, payload for payload.
        for (id, plan) in lazy.iter() {
            assert_eq!(plan, eager.plan(id));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_segment_is_the_first_segment_create_writes() {
        let dir = tmp_dir("oracle");
        let mut corpus = ShardedCorpus::new();
        corpus.ingest_parallel(&stream(0, 300), 2);
        let expected = encode_segment(&corpus).unwrap();
        SegmentStore::create(&dir, corpus).unwrap();
        assert_eq!(std::fs::read(dir.join(segment_file(0))).unwrap(), expected);
        // An empty corpus still encodes (as the zero-plan segment), but
        // create persists it as a manifest alone.
        let empty = dir.join("empty");
        assert!(!encode_segment(&ShardedCorpus::new()).unwrap().is_empty());
        SegmentStore::create(&empty, ShardedCorpus::new()).unwrap();
        assert!(!empty.join(segment_file(0)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_a_directory_that_already_holds_a_store() {
        let dir = tmp_dir("refuse");
        let mut store = SegmentStore::create(&dir, ShardedCorpus::new()).unwrap();
        store.append(&stream(0, 40), 1).unwrap();
        store.append(&stream(40, 40), 1).unwrap();
        drop(store);
        let before = dir_files(&dir);
        assert_eq!(before.len(), 3, "manifest plus two segments");
        let mut other = ShardedCorpus::new();
        other.ingest_parallel(&stream(200, 10), 1);
        let err = SegmentStore::create(&dir, other).unwrap_err();
        assert!(
            err.to_string().contains("already holds a segment store"),
            "{err}"
        );
        assert_eq!(
            dir_files(&dir),
            before,
            "a refused create touched the store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_is_deterministic_across_thread_counts() {
        let batches = [stream(0, 60), stream(40, 80), stream(100, 90)];
        let dirs = [tmp_dir("det-1"), tmp_dir("det-4")];
        for (dir, threads) in dirs.iter().zip([1usize, 4]) {
            let mut store = SegmentStore::create(dir, ShardedCorpus::new()).unwrap();
            for batch in &batches {
                store.append(batch, threads).unwrap();
            }
        }
        assert_eq!(dir_files(&dirs[0]), dir_files(&dirs[1]));
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn append_then_reopen_matches_monolithic_ingest() {
        let dir = tmp_dir("append");
        let mut store = SegmentStore::create(&dir, ShardedCorpus::new()).unwrap();
        let first = store.append(&stream(0, 70), 2).unwrap();
        assert_eq!(first.admitted, 70);
        assert_eq!(first.segment_id, Some(0));
        // Overlapping batch: duplicates are not re-persisted.
        let second = store.append(&stream(50, 70), 2).unwrap();
        assert_eq!(second.admitted, 50);
        assert_eq!(second.duplicates, 20);
        assert_eq!(second.segment_id, Some(1));
        // An all-duplicate batch writes nothing.
        let third = store.append(&stream(0, 30), 1).unwrap();
        assert_eq!(third.admitted, 0);
        assert_eq!(third.segment_id, None);
        assert_eq!(store.census().len(), 2);
        drop(store);

        let mut eager = ShardedCorpus::new();
        eager.ingest_parallel(&stream(0, 120), 2);
        let reopened = SegmentStore::open(&dir).unwrap().into_corpus();
        assert_eq!(reopened.len(), eager.len());
        for (id, plan) in eager.iter() {
            assert_eq!(reopened.plan(id), plan);
            assert_eq!(reopened.fingerprint(id), eager.fingerprint(id));
        }
        assert_same_answers(&reopened, &eager);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appending_to_a_lazily_opened_store_stays_queryable() {
        let dir = tmp_dir("lazy-append");
        let mut store = SegmentStore::create(&dir, ShardedCorpus::new()).unwrap();
        store.append(&stream(0, 80), 2).unwrap();
        drop(store);
        let mut store = SegmentStore::open(&dir).unwrap();
        store.append(&stream(80, 60), 4).unwrap();
        let mut eager = ShardedCorpus::new();
        eager.ingest_parallel(&stream(0, 140), 1);
        assert_eq!(store.corpus().len(), eager.len());
        assert_same_answers(store.corpus(), &eager);
        // And the directory now reopens to the merged population.
        drop(store);
        let reopened = SegmentStore::open(&dir).unwrap().into_corpus();
        assert_eq!(reopened.len(), eager.len());
        assert_same_answers(&reopened, &eager);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_merges_everything_into_one_segment() {
        let dir = tmp_dir("compact");
        let mut store = SegmentStore::create(&dir, ShardedCorpus::new()).unwrap();
        store.append(&stream(0, 50), 2).unwrap();
        store.append(&stream(50, 50), 2).unwrap();
        store.append(&stream(100, 50), 2).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.segments_before, 3);
        assert_eq!(store.census().len(), 1);
        assert_eq!(store.manifest().segments.len(), 1);
        // Old segment files are gone; only the compacted one remains.
        let segment_files = dir_files(&dir)
            .keys()
            .filter(|name| name.ends_with(".upls"))
            .count();
        assert_eq!(segment_files, 1);
        drop(store);
        let mut eager = ShardedCorpus::new();
        eager.ingest_parallel(&stream(0, 150), 2);
        let reopened = SegmentStore::open(&dir).unwrap().into_corpus();
        assert_eq!(reopened.len(), eager.len());
        assert_same_answers(&reopened, &eager);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvage_drops_exactly_the_damaged_segment() {
        let dir = tmp_dir("salvage-mid");
        let mut store = SegmentStore::create(&dir, ShardedCorpus::new()).unwrap();
        store.append(&stream(0, 40), 2).unwrap();
        store.append(&stream(40, 40), 2).unwrap();
        store.append(&stream(80, 40), 2).unwrap();
        drop(store);
        // Flip a byte inside segment 1's plan blocks.
        let path = dir.join(segment_file(1));
        let mut bytes = std::fs::read(&path).unwrap();
        let view = parse_segment(&bytes).unwrap();
        bytes[view.plan_offsets[3] as usize] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        // Strict open refuses to serve silently damaged plans... lazily:
        // the open itself succeeds (plan bytes are untouched metadata-wise)
        // but salvage is the honest path and recovers the survivors.
        let (corpus, report) = SegmentStore::salvage(&dir, FingerprintOptions::default()).unwrap();
        assert!(report.manifest_ok);
        assert_eq!(report.segments_declared, 3);
        assert_eq!(report.segments_recovered, 2);
        assert_eq!(report.declared, 120);
        assert_eq!(
            report.recovered, 80,
            "exactly the surviving segments' plans"
        );
        assert_eq!(report.dropped, 40);
        assert!(report.index_rebuilt);
        assert!(report.error.unwrap().contains("segment 1"));
        // Survivors are the plans of segments 0 and 2.
        for plan in stream(0, 40).iter().chain(&stream(80, 40)) {
            assert!(corpus.contains(plan));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvage_without_manifest_rebuilds_the_chain_and_cascades() {
        let dir = tmp_dir("salvage-chain");
        let mut store = SegmentStore::create(&dir, ShardedCorpus::new()).unwrap();
        store.append(&stream(0, 40), 2).unwrap();
        store.append(&stream(40, 40), 2).unwrap();
        store.append(&stream(80, 40), 2).unwrap();
        drop(store);
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();

        // Manifest gone, segments intact: the chain rebuilds from the
        // per-segment deltas and everything recovers.
        let (corpus, report) = SegmentStore::salvage(&dir, FingerprintOptions::default()).unwrap();
        assert!(!report.manifest_ok);
        assert_eq!(report.segments_recovered, 3);
        assert_eq!(report.recovered, 120);
        assert_eq!(corpus.len(), 120);

        // Now also damage segment 0 (which carries chain symbols the later
        // segments reference): its loss cascades.
        let path = dir.join(segment_file(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 2;
        bytes[at] ^= 0xff; // tail CRC — the parse itself fails
        std::fs::write(&path, &bytes).unwrap();
        let (corpus, report) = SegmentStore::salvage(&dir, FingerprintOptions::default()).unwrap();
        assert!(!report.manifest_ok);
        assert_eq!(report.segments_recovered, 0, "chain suffix unrecoverable");
        assert_eq!(corpus.len(), 0);
        assert!(report.error.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A strictly opened one-segment store whose plan 3 lies in a damaged
    /// checksum block. Open reads no plan block, so the damage surfaces
    /// on the first touch of a plan in that block.
    fn open_with_a_damaged_block(tag: &str) -> ShardedCorpus {
        let dir = tmp_dir(tag);
        let mut corpus = ShardedCorpus::new();
        corpus.ingest_parallel(&stream(0, 40), 1);
        SegmentStore::create(&dir, corpus).unwrap();
        let path = dir.join(segment_file(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let view = parse_segment(&bytes).unwrap();
        bytes[view.plan_offsets[3] as usize] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let corpus = SegmentStore::open(&dir).unwrap().into_corpus();
        let _ = std::fs::remove_dir_all(&dir);
        corpus
    }

    #[test]
    #[should_panic(expected = "failed verification on lazy decode")]
    fn a_damaged_block_panics_on_its_first_view() {
        open_with_a_damaged_block("damaged-view").ted_of(3);
    }

    #[test]
    #[should_panic(expected = "failed verification on lazy decode")]
    fn a_damaged_block_panics_on_its_first_full_plan() {
        open_with_a_damaged_block("damaged-plan").plan(3);
    }

    #[test]
    fn open_rejects_mismatched_fingerprint_options() {
        let dir = tmp_dir("options");
        let mut corpus = ShardedCorpus::new();
        corpus.ingest_parallel(&stream(0, 10), 1);
        SegmentStore::create(&dir, corpus).unwrap();
        let other = FingerprintOptions {
            include_configuration_keys: false,
            ..FingerprintOptions::default()
        };
        assert!(SegmentStore::open_with_options(&dir, other).is_err());
        assert!(SegmentStore::open(&dir).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
