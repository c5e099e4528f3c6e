//! Append-only segment codec — the one corpus persistence layout.
//!
//! A corpus persisted as one monolithic document would be rewritten and
//! re-decoded whole on every append and load; at 100k–1M plans both costs
//! would dominate the sub-millisecond query path. A *segment store* splits
//! the corpus into a directory of immutable segment files plus one small
//! manifest, so:
//!
//! * **Append is O(batch)**: ingest writes one new segment file and
//!   atomically rewrites only the manifest. Existing segments are never
//!   touched.
//! * **Open is O(metadata)**: the manifest and every segment's header and
//!   tail (offsets, fingerprints, feature vectors, BK edges) decode
//!   eagerly, but plan *bodies* decode on first touch — offset-addressed
//!   per plan, against one shared symbol chain.
//! * **Queries skip bytes**: per-segment feature summaries in the manifest
//!   bound the L1 distance of every plan in a segment, letting approximate
//!   queries skip whole segments; exact queries touch only the plans their
//!   BK traversal actually visits.
//!
//! ## Segment file (`UPLS`, version 1)
//!
//! ```text
//! segment  ::= magic             (4 bytes, "UPLS")
//!              version           (varint; 1)
//!              segment_id        (varint)
//!              fingerprint_flags (1 byte; the fingerprint options and
//!                                 scheme the shard routing used)
//!              shard_count       (varint)
//!              symbols_base      (varint; chain length before this
//!                                 segment)
//!              delta_count       (varint)
//!              symbol*           (varint byte length + UTF-8 keyword
//!                                 bytes; this segment's chain delta)
//!              plan_count        (varint)
//!              header_crc        (4 bytes LE; CRC32 of every preceding
//!                                 byte)
//!              block*            (block_len varint, ≤ CHECKSUM_BLOCK_PLANS
//!                                 plan bodies, block_crc — CRC32 of the
//!                                 bodies; symbol refs are *chain-global*
//!                                 indices)
//!              tail              (see below)
//!              tail_crc          (4 bytes LE; CRC32 of the tail bytes)
//! tail     ::= plan_len*         (plan_count varints; per-plan body byte
//!                                 lengths — offsets are prefix sums
//!                                 within each block)
//!              fingerprint*      (plan_count varints; full 64-bit plan
//!                                 fingerprints, for dedup and manifest
//!                                 ranges without decoding bodies)
//!              dim               (varint) value*  (plan_count × dim
//!                                 varints; per-plan feature vectors)
//!              operations        (varint; summed over the segment)
//!              max_depth         (varint)
//!              shard_count       (varint)
//!              shard_edges*      (per shard: base varint — BK nodes the
//!                                 shard held before this segment — then
//!                                 new_count varint, then the new
//!                                 `(parent, distance)` edge varint pairs;
//!                                 the edge count is derived: a shard's
//!                                 first-ever node has no edge)
//! ```
//!
//! Plan bodies use the [`super::binary`] plan-body grammar, encoded
//! against the shared symbol chain; the segment codec frames the bodies
//! and their checksum blocks. Block CRCs are verified *lazily*:
//! `parse_segment` checks the header and tail CRCs (cheap, covers all
//! metadata) and records block extents; a block's data CRC is checked
//! once, before the first plan in it decodes ([`verify_block`]).
//!
//! ## Manifest (`UPLM`, version 1)
//!
//! ```text
//! manifest ::= magic             (4 bytes, "UPLM")
//!              version           (varint; 1)
//!              fingerprint_flags (1 byte)
//!              shard_count       (varint)
//!              feature_dim       (varint)
//!              symbol_count      (varint) symbol*   (the FULL chain)
//!              segment_count     (varint) segment_meta*
//!              manifest_crc      (4 bytes LE; CRC32 of every preceding
//!                                 byte)
//! segment_meta ::= id plan_count symbols_base symbols_len operations
//!                  max_depth min_fp max_fp
//!                  feature_min[dim] feature_max[dim]   (all varints)
//! ```
//!
//! The manifest duplicates the symbol chain on purpose: a damaged segment
//! then costs exactly its own plans (later segments still decode against
//! the manifest chain), and a damaged manifest rebuilds the chain from the
//! per-segment deltas. Only a manifest *and* an earlier segment dying
//! together cascades — the chain suffix is then unrecoverable and later
//! segments drop with it.
//!
//! Byte determinism is load-bearing (the CI fleet gate compares segment
//! directories produced at different thread counts): nothing in either
//! layout depends on time, machine, or thread count — only on the plan
//! stream.

use crate::crc32::crc32;
use crate::error::{Error, Result};
use crate::keyword;
use crate::model::UnifiedPlan;
use crate::symbol::{Symbol, SymbolTable};

use super::binary::{write_varint, BinaryDecoder, BinaryEncoder, Cursor, CHECKSUM_BLOCK_PLANS};

/// Leading magic bytes of a segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"UPLS";

/// Leading magic bytes of a manifest file.
pub const MANIFEST_MAGIC: [u8; 4] = *b"UPLM";

/// Version of the segment codec (both file kinds).
pub const SEGMENT_CODEC_VERSION: u32 = 1;

/// Per-segment metadata as recorded in the manifest — everything a lazy
/// open or a segment-skipping query needs without touching the segment
/// file's plan bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Monotonic segment id (also the file name stem).
    pub id: u32,
    /// Plans stored in the segment.
    pub plan_count: u64,
    /// Symbol-chain length before this segment's delta.
    pub symbols_base: u32,
    /// Symbols this segment's delta added to the chain.
    pub symbols_len: u32,
    /// Total plan operations in the segment (corpus stats are sums).
    pub operations: u64,
    /// Deepest plan tree in the segment.
    pub max_depth: u32,
    /// Smallest fingerprint value in the segment (prefix-range pruning).
    pub min_fingerprint: u64,
    /// Largest fingerprint value in the segment.
    pub max_fingerprint: u64,
    /// Per-dimension minimum over the segment's feature vectors — with
    /// `feature_max`, an L1 lower bound that lets approximate queries
    /// skip the whole segment.
    pub feature_min: Vec<u32>,
    /// Per-dimension maximum over the segment's feature vectors.
    pub feature_max: Vec<u32>,
}

/// The decoded manifest of a segment store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Fingerprint options + scheme flags every segment was routed
    /// under.
    pub fingerprint_flags: u8,
    /// Shard count of the corpus the store persists.
    pub shard_count: u32,
    /// Feature-vector width of every segment's feature rows.
    pub feature_dim: u32,
    /// The full symbol chain across all segments, in chain order.
    pub symbols: Vec<Symbol>,
    /// Per-segment metadata, in segment order.
    pub segments: Vec<SegmentMeta>,
}

/// One shard's BK-tree growth within a segment: the edges its new nodes
/// added. Concatenating every segment's edges per shard, in segment order,
/// reproduces the exact whole-corpus tree — BK insertion only ever appends
/// nodes and edges, never rewrites existing ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentShardEdges {
    /// BK nodes the shard held before this segment.
    pub base: u64,
    /// Nodes this segment added to the shard.
    pub count: u64,
    /// `(parent, cached distance)` per new node, in insertion order. One
    /// fewer than `count` when `base == 0` (a shard's first node is its
    /// tree root and has no edge).
    pub edges: Vec<(u32, u32)>,
}

/// On-disk byte footprint of a parsed segment, by section — what
/// `repro corpus stats` prints so size regressions are visible without a
/// hex dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentSections {
    /// Magic through header CRC, minus the symbol delta.
    pub header: usize,
    /// The symbol-delta entries.
    pub symbols: usize,
    /// All plan blocks (framing, bodies, block CRCs).
    pub plans: usize,
    /// The per-plan length table.
    pub offsets: usize,
    /// The fingerprint table.
    pub fingerprints: usize,
    /// The feature-vector rows.
    pub features: usize,
    /// The BK edge groups.
    pub index: usize,
    /// Whole file, including both CRC trailers.
    pub total: usize,
}

/// A parsed segment file: all metadata decoded, plan bodies addressable
/// but untouched.
#[derive(Debug, Clone)]
pub struct SegmentView {
    /// Segment id as written.
    pub id: u32,
    /// Fingerprint flags byte.
    pub fingerprint_flags: u8,
    /// Shard count the edges were recorded under.
    pub shard_count: u32,
    /// Chain length before this segment's delta.
    pub symbols_base: u32,
    /// This segment's symbol-chain delta, interned.
    pub delta: Vec<Symbol>,
    /// Plans in the segment.
    pub plan_count: u64,
    /// Absolute file offset of each plan body.
    pub plan_offsets: Vec<u32>,
    /// Byte length of each plan body.
    pub plan_lens: Vec<u32>,
    /// `(data_start, data_end)` of each checksum block's plan bytes; the
    /// CRC32 trailer sits at `data_end`.
    pub blocks: Vec<(u32, u32)>,
    /// Full 64-bit fingerprint per plan, in segment order.
    pub fingerprints: Vec<u64>,
    /// Feature-vector width.
    pub feature_dim: u32,
    /// `plan_count × feature_dim` values, row-major.
    pub features: Vec<u32>,
    /// Total plan operations in the segment.
    pub operations: u64,
    /// Deepest plan tree in the segment.
    pub max_depth: u32,
    /// Per-shard BK growth.
    pub shards: Vec<SegmentShardEdges>,
    /// Byte footprint by section.
    pub sections: SegmentSections,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Everything a finished segment records besides its plan bodies.
#[derive(Debug, Clone)]
pub struct SegmentFinish {
    /// Segment id (also the file name stem).
    pub id: u32,
    /// Fingerprint flags byte (must match the manifest's).
    pub fingerprint_flags: u8,
    /// Shard count of the owning corpus.
    pub shard_count: u32,
    /// Full 64-bit fingerprint per pushed plan, in push order.
    pub fingerprints: Vec<u64>,
    /// Feature-vector width.
    pub feature_dim: u32,
    /// `plan_count × feature_dim` feature values, row-major in push order.
    pub features: Vec<u32>,
    /// Total plan operations across the pushed plans.
    pub operations: u64,
    /// Deepest pushed plan tree.
    pub max_depth: u32,
    /// Per-shard BK growth this segment's plans caused.
    pub shards: Vec<SegmentShardEdges>,
}

/// Streaming segment encoder: seed with the symbol chain so far, push the
/// batch's plans in stream order, finish with the segment metadata.
/// Plan bodies are encoded by the [`super::binary`] codec.
#[derive(Debug)]
pub struct SegmentBuilder {
    enc: BinaryEncoder,
    chain_base: u32,
    offsets: Vec<usize>,
}

impl SegmentBuilder {
    /// A builder whose symbol refs continue the given chain: refs
    /// `0..chain.len()` mean the existing chain, new symbols extend it.
    pub fn new(chain: &[Symbol]) -> SegmentBuilder {
        let mut enc = BinaryEncoder::new();
        for &sym in chain {
            enc.seed_symbol(sym);
        }
        SegmentBuilder {
            enc,
            chain_base: u32::try_from(chain.len()).expect("symbol chain overflow"),
            offsets: Vec::new(),
        }
    }

    /// Encodes one plan body. Errors (leaving the segment unchanged) on
    /// plans deeper than [`MAX_PLAN_DEPTH`](super::binary::MAX_PLAN_DEPTH)
    /// or pushing the symbol chain past
    /// [`MAX_SYMBOLS`](super::binary::MAX_SYMBOLS) identifiers.
    pub fn push(&mut self, plan: &UnifiedPlan) -> Result<()> {
        let at = self.enc.body_len();
        self.enc.push(plan)?;
        self.offsets.push(at);
        Ok(())
    }

    /// Number of plans pushed so far.
    pub fn plan_count(&self) -> u64 {
        self.enc.plan_count()
    }

    /// Frames the segment file. Returns the bytes and the symbol-chain
    /// delta this segment introduced (what the caller appends to the
    /// manifest chain).
    pub fn finish(self, meta: &SegmentFinish) -> (Vec<u8>, Vec<Symbol>) {
        let (table, body, block_starts) = self.enc.into_parts();
        let delta: Vec<Symbol> = table[self.chain_base as usize..].to_vec();
        let plan_count = self.offsets.len() as u64;
        debug_assert_eq!(meta.fingerprints.len() as u64, plan_count);
        debug_assert_eq!(
            meta.features.len() as u64,
            plan_count * u64::from(meta.feature_dim)
        );
        let spellings = SymbolTable::read();

        let mut out = Vec::with_capacity(body.len() + 16 * delta.len() + 64);
        out.extend_from_slice(&SEGMENT_MAGIC);
        write_varint(&mut out, u64::from(SEGMENT_CODEC_VERSION));
        write_varint(&mut out, u64::from(meta.id));
        out.push(meta.fingerprint_flags);
        write_varint(&mut out, u64::from(meta.shard_count));
        write_varint(&mut out, u64::from(self.chain_base));
        write_varint(&mut out, delta.len() as u64);
        for &sym in &delta {
            let text = spellings.str(sym);
            write_varint(&mut out, text.len() as u64);
            out.extend_from_slice(text.as_bytes());
        }
        write_varint(&mut out, plan_count);
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());

        // Blocks: length, plan bodies, CRC32 of the bodies.
        for (i, &start) in block_starts.iter().enumerate() {
            let end = block_starts.get(i + 1).copied().unwrap_or(body.len());
            let block = &body[start..end];
            write_varint(&mut out, block.len() as u64);
            out.extend_from_slice(block);
            out.extend_from_slice(&crc32(block).to_le_bytes());
        }

        let tail_start = out.len();
        for (i, &at) in self.offsets.iter().enumerate() {
            let end = self.offsets.get(i + 1).copied().unwrap_or(body.len());
            write_varint(&mut out, (end - at) as u64);
        }
        for &fp in &meta.fingerprints {
            write_varint(&mut out, fp);
        }
        write_varint(&mut out, u64::from(meta.feature_dim));
        for &value in &meta.features {
            write_varint(&mut out, u64::from(value));
        }
        write_varint(&mut out, meta.operations);
        write_varint(&mut out, u64::from(meta.max_depth));
        write_varint(&mut out, meta.shards.len() as u64);
        for shard in &meta.shards {
            debug_assert_eq!(
                shard.edges.len() as u64,
                expected_edges(shard.base, shard.count),
                "a shard's first-ever node has no edge; every other new node has one"
            );
            write_varint(&mut out, shard.base);
            write_varint(&mut out, shard.count);
            for &(parent, distance) in &shard.edges {
                write_varint(&mut out, u64::from(parent));
                write_varint(&mut out, u64::from(distance));
            }
        }
        let tail_crc = crc32(&out[tail_start..]);
        out.extend_from_slice(&tail_crc.to_le_bytes());
        (out, delta)
    }
}

/// Edges a shard's segment group must carry: one per new node, except that
/// the first node a shard ever holds is its BK root and has none.
pub fn expected_edges(base: u64, count: u64) -> u64 {
    if base == 0 {
        count.saturating_sub(1)
    } else {
        count
    }
}

/// Serializes a manifest (CRC-trailed; see the module docs for the
/// layout).
pub fn encode_manifest(manifest: &Manifest) -> Vec<u8> {
    let spellings = SymbolTable::read();
    let mut out =
        Vec::with_capacity(64 + 16 * manifest.symbols.len() + 64 * manifest.segments.len());
    out.extend_from_slice(&MANIFEST_MAGIC);
    write_varint(&mut out, u64::from(SEGMENT_CODEC_VERSION));
    out.push(manifest.fingerprint_flags);
    write_varint(&mut out, u64::from(manifest.shard_count));
    write_varint(&mut out, u64::from(manifest.feature_dim));
    write_varint(&mut out, manifest.symbols.len() as u64);
    for &sym in &manifest.symbols {
        let text = spellings.str(sym);
        write_varint(&mut out, text.len() as u64);
        out.extend_from_slice(text.as_bytes());
    }
    write_varint(&mut out, manifest.segments.len() as u64);
    for seg in &manifest.segments {
        debug_assert_eq!(
            seg.feature_min.len() as u64,
            u64::from(manifest.feature_dim)
        );
        debug_assert_eq!(
            seg.feature_max.len() as u64,
            u64::from(manifest.feature_dim)
        );
        write_varint(&mut out, u64::from(seg.id));
        write_varint(&mut out, seg.plan_count);
        write_varint(&mut out, u64::from(seg.symbols_base));
        write_varint(&mut out, u64::from(seg.symbols_len));
        write_varint(&mut out, seg.operations);
        write_varint(&mut out, u64::from(seg.max_depth));
        write_varint(&mut out, seg.min_fingerprint);
        write_varint(&mut out, seg.max_fingerprint);
        for &v in &seg.feature_min {
            write_varint(&mut out, u64::from(v));
        }
        for &v in &seg.feature_max {
            write_varint(&mut out, u64::from(v));
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The segment layouts' reads on top of the shared byte cursor (the
/// plan-body grammar itself is decoded by the [`super::binary`] codec).
impl Cursor<'_> {
    fn varint_u32(&mut self, what: &str) -> Result<u32> {
        u32::try_from(self.varint(what)?)
            .map_err(|_| Error::parse(self.pos, format!("{what} overflows 32 bits")))
    }

    /// Reads and verifies the 4-byte CRC trailer over `input[start..pos]`.
    fn crc(&mut self, start: usize, section: &str) -> Result<()> {
        let end = self.pos;
        let crc_end = end
            .checked_add(4)
            .filter(|e| *e <= self.input.len())
            .ok_or_else(|| Error::UnexpectedEof(format!("{section} checksum")))?;
        let mut stored = [0u8; 4];
        stored.copy_from_slice(&self.input[end..crc_end]);
        if crc32(&self.input[start..end]) != u32::from_le_bytes(stored) {
            return Err(Error::Checksum {
                section: section.to_owned(),
                offset: start,
            });
        }
        self.pos = crc_end;
        Ok(())
    }

    fn magic(&mut self, magic: &[u8; 4], what: &str) -> Result<()> {
        if self.input.len() < 4 || &self.input[..4] != magic {
            return Err(Error::parse(0, format!("not a {what} (bad magic)")));
        }
        self.pos = 4;
        let version = self.varint("codec version")?;
        if version != u64::from(SEGMENT_CODEC_VERSION) {
            return Err(Error::parse(
                self.pos,
                format!(
                    "unsupported segment codec version {version} (this reader handles \
                     {SEGMENT_CODEC_VERSION})"
                ),
            ));
        }
        Ok(())
    }

    fn symbols(&mut self, count: u64, what: &str) -> Result<Vec<Symbol>> {
        use super::binary::MAX_SYMBOLS;
        if count > MAX_SYMBOLS as u64 {
            return Err(Error::parse(
                self.pos,
                format!("{what} exceeds the codec limit of {MAX_SYMBOLS} symbols"),
            ));
        }
        if count > (self.input.len() - self.pos) as u64 {
            return Err(Error::parse(self.pos, format!("{what} longer than file")));
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let text = self.str(what)?;
            out.push(Symbol::intern(keyword::validate(text)?));
        }
        Ok(out)
    }
}

/// Parses a manifest file, verifying its CRC and interning the symbol
/// chain.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest> {
    use super::binary::{MAX_FEATURE_DIM, MAX_INDEX_SHARDS};
    let mut r = Cursor {
        input: bytes,
        pos: 0,
    };
    r.magic(&MANIFEST_MAGIC, "segment-store manifest")?;
    let fingerprint_flags = r.byte("fingerprint flags")?;
    let shard_count = r.varint_u32("shard count")?;
    if shard_count == 0 || shard_count as usize > MAX_INDEX_SHARDS {
        return Err(Error::parse(
            r.pos,
            format!("manifest shard count {shard_count} out of range"),
        ));
    }
    let feature_dim = r.varint_u32("feature dim")?;
    if feature_dim == 0 || feature_dim as usize > MAX_FEATURE_DIM {
        return Err(Error::parse(
            r.pos,
            format!("manifest feature dim {feature_dim} out of range"),
        ));
    }
    let symbol_count = r.varint("symbol count")?;
    let symbols = r.symbols(symbol_count, "manifest symbol chain")?;
    let segment_count = r.varint("segment count")? as usize;
    if segment_count > bytes.len() {
        return Err(Error::parse(r.pos, "segment count longer than file"));
    }
    let mut segments = Vec::with_capacity(segment_count.min(1024));
    for _ in 0..segment_count {
        let id = r.varint_u32("segment id")?;
        let plan_count = r.varint("segment plan count")?;
        let symbols_base = r.varint_u32("segment symbols base")?;
        let symbols_len = r.varint_u32("segment symbols len")?;
        let operations = r.varint("segment operations")?;
        let max_depth = r.varint_u32("segment max depth")?;
        let min_fingerprint = r.varint("segment min fingerprint")?;
        let max_fingerprint = r.varint("segment max fingerprint")?;
        let mut feature_min = Vec::with_capacity(feature_dim as usize);
        for _ in 0..feature_dim {
            feature_min.push(r.varint_u32("segment feature min")?);
        }
        let mut feature_max = Vec::with_capacity(feature_dim as usize);
        for _ in 0..feature_dim {
            feature_max.push(r.varint_u32("segment feature max")?);
        }
        if u64::from(symbols_base) + u64::from(symbols_len) > symbols.len() as u64 {
            return Err(Error::parse(
                r.pos,
                format!("segment {id} claims symbols past the manifest chain"),
            ));
        }
        segments.push(SegmentMeta {
            id,
            plan_count,
            symbols_base,
            symbols_len,
            operations,
            max_depth,
            min_fingerprint,
            max_fingerprint,
            feature_min,
            feature_max,
        });
    }
    r.crc(0, "manifest")?;
    if r.pos != bytes.len() {
        return Err(Error::parse(r.pos, "trailing bytes after manifest"));
    }
    Ok(Manifest {
        fingerprint_flags,
        shard_count,
        feature_dim,
        symbols,
        segments,
    })
}

/// Parses a segment file's metadata: header and tail CRC-verified, block
/// extents and per-plan offsets computed, plan bodies untouched (verify a
/// block with [`verify_block`] before decoding from it, then decode plans
/// with [`decode_plan_at`]).
pub fn parse_segment(bytes: &[u8]) -> Result<SegmentView> {
    use super::binary::{MAX_FEATURE_DIM, MAX_INDEX_SHARDS};
    let mut r = Cursor {
        input: bytes,
        pos: 0,
    };
    r.magic(&SEGMENT_MAGIC, "corpus segment")?;
    let id = r.varint_u32("segment id")?;
    let fingerprint_flags = r.byte("fingerprint flags")?;
    let shard_count = r.varint_u32("shard count")?;
    if shard_count == 0 || shard_count as usize > MAX_INDEX_SHARDS {
        return Err(Error::parse(
            r.pos,
            format!("segment shard count {shard_count} out of range"),
        ));
    }
    let symbols_base = r.varint_u32("symbols base")?;
    let delta_count = r.varint("symbol delta count")?;
    let symbols_at = r.pos;
    let delta = r.symbols(delta_count, "segment symbol delta")?;
    let symbols_bytes = r.pos - symbols_at;
    let plan_count = r.varint("plan count")?;
    if plan_count > bytes.len() as u64 {
        return Err(Error::parse(r.pos, "plan count longer than file"));
    }
    let header_end = r.pos;
    r.crc(0, "segment header")?;

    // Walk the block frames — positions only; data CRCs verify lazily.
    let blocks_at = r.pos;
    let block_count = plan_count.div_ceil(CHECKSUM_BLOCK_PLANS) as usize;
    let mut blocks = Vec::with_capacity(block_count);
    for i in 0..block_count {
        let len = r.varint("block length")? as usize;
        let start = r.pos;
        let end = start
            .checked_add(len)
            .filter(|e| e.checked_add(4).is_some_and(|c| c <= bytes.len()))
            .ok_or_else(|| Error::UnexpectedEof(format!("plan block {i}")))?;
        blocks.push((start as u32, end as u32));
        r.pos = end + 4;
    }
    let plans_bytes = r.pos - blocks_at;

    // Tail: per-plan lengths → absolute offsets within the block extents.
    let tail_start = r.pos;
    let mut plan_lens = Vec::with_capacity(plan_count as usize);
    for _ in 0..plan_count {
        plan_lens.push(r.varint_u32("plan length")?);
    }
    let offsets_bytes = r.pos - tail_start;
    let mut plan_offsets = Vec::with_capacity(plan_count as usize);
    {
        let mut cursor = 0u64;
        let mut block_end = 0u64;
        let mut block = 0usize;
        for (i, &len) in plan_lens.iter().enumerate() {
            if (i as u64).is_multiple_of(CHECKSUM_BLOCK_PLANS) {
                if block > 0 && cursor != block_end {
                    return Err(Error::parse(
                        r.pos,
                        format!("plan lengths disagree with block {} extent", block - 1),
                    ));
                }
                let (start, end) = blocks[block];
                cursor = u64::from(start);
                block_end = u64::from(end);
                block += 1;
            }
            plan_offsets.push(u32::try_from(cursor).map_err(|_| {
                Error::parse(
                    r.pos,
                    "plan offset overflows the segment codec's 4 GiB bound",
                )
            })?);
            cursor += u64::from(len);
            if cursor > block_end {
                return Err(Error::parse(
                    r.pos,
                    format!("plan {i} length runs past its block"),
                ));
            }
        }
        if block > 0 && cursor != block_end {
            return Err(Error::parse(
                r.pos,
                format!("plan lengths disagree with block {} extent", block - 1),
            ));
        }
    }

    let fps_at = r.pos;
    let mut fingerprints = Vec::with_capacity(plan_count as usize);
    for _ in 0..plan_count {
        fingerprints.push(r.varint("fingerprint")?);
    }
    let fingerprints_bytes = r.pos - fps_at;

    let features_at = r.pos;
    let feature_dim = r.varint_u32("feature dim")?;
    if feature_dim == 0 || feature_dim as usize > MAX_FEATURE_DIM {
        return Err(Error::parse(
            r.pos,
            format!("segment feature dim {feature_dim} out of range"),
        ));
    }
    let value_count = plan_count
        .checked_mul(u64::from(feature_dim))
        .filter(|&n| n <= (bytes.len() as u64) * 8)
        .ok_or_else(|| Error::parse(r.pos, "feature section longer than file"))?;
    let mut features = Vec::with_capacity(value_count as usize);
    for _ in 0..value_count {
        features.push(r.varint_u32("feature value")?);
    }
    let features_bytes = r.pos - features_at;

    // The summary counters and edge groups are accounted together as the
    // "index" section.
    let index_at = r.pos;
    let operations = r.varint("operations")?;
    let max_depth = r.varint_u32("max depth")?;
    let edge_shards = r.varint_u32("edge shard count")?;
    if edge_shards != shard_count {
        return Err(Error::parse(
            r.pos,
            format!("edge groups cover {edge_shards} shards, header says {shard_count}"),
        ));
    }
    let mut shards = Vec::with_capacity(shard_count as usize);
    let mut routed = 0u64;
    for s in 0..shard_count {
        let base = r.varint("shard base")?;
        let count = r.varint("shard new-node count")?;
        routed = routed
            .checked_add(count)
            .ok_or_else(|| Error::parse(r.pos, "shard counts overflow"))?;
        let edge_count = expected_edges(base, count);
        let mut edges = Vec::with_capacity(edge_count as usize);
        for _ in 0..edge_count {
            let parent = r.varint_u32("edge parent")?;
            let distance = r.varint_u32("edge distance")?;
            edges.push((parent, distance));
        }
        // Causality within the whole-shard tree: a new node's parent must
        // precede it (a node from an earlier segment, or an earlier new
        // node of this one).
        let first = if base == 0 { 1 } else { base };
        for (next, &(parent, _)) in (first..).zip(edges.iter()) {
            if u64::from(parent) >= next {
                return Err(Error::parse(
                    r.pos,
                    format!("shard {s} edge parent {parent} is not causal"),
                ));
            }
        }
        shards.push(SegmentShardEdges { base, count, edges });
    }
    if routed != plan_count {
        return Err(Error::parse(
            r.pos,
            format!("edge groups route {routed} plans, header says {plan_count}"),
        ));
    }
    let index_bytes = r.pos - index_at;
    r.crc(tail_start, "segment tail")?;
    if r.pos != bytes.len() {
        return Err(Error::parse(r.pos, "trailing bytes after segment"));
    }

    Ok(SegmentView {
        id,
        fingerprint_flags,
        shard_count,
        symbols_base,
        delta,
        plan_count,
        plan_offsets,
        plan_lens,
        blocks,
        fingerprints,
        feature_dim,
        features,
        operations,
        max_depth,
        shards,
        sections: SegmentSections {
            header: header_end + 4 - symbols_bytes,
            symbols: symbols_bytes,
            plans: plans_bytes,
            offsets: offsets_bytes,
            fingerprints: fingerprints_bytes,
            features: features_bytes,
            index: index_bytes,
            total: bytes.len(),
        },
    })
}

/// Verifies one checksum block's plan bytes against its CRC32 trailer
/// (`block` as recorded in [`SegmentView::blocks`]). Done once per block,
/// before the first plan in it decodes.
pub fn verify_block(bytes: &[u8], block: (u32, u32)) -> Result<()> {
    let (start, end) = (block.0 as usize, block.1 as usize);
    if end + 4 > bytes.len() || start > end {
        return Err(Error::UnexpectedEof("plan block".to_owned()));
    }
    let mut stored = [0u8; 4];
    stored.copy_from_slice(&bytes[end..end + 4]);
    if crc32(&bytes[start..end]) != u32::from_le_bytes(stored) {
        return Err(Error::Checksum {
            section: "plan block".to_owned(),
            offset: start,
        });
    }
    Ok(())
}

/// Decodes one plan body at an absolute segment-file offset against the
/// shared symbol chain. `len` is the recorded body length; decoding must
/// consume exactly that many bytes. The caller has already CRC-verified
/// the containing block ([`verify_block`]).
pub fn decode_plan_at(
    bytes: &[u8],
    offset: u32,
    len: u32,
    symbols: &[Symbol],
) -> Result<UnifiedPlan> {
    let mut dec = BinaryDecoder::new(bytes, offset as usize, symbols);
    let plan = dec.decode_plan()?;
    if dec.position() != offset as usize + len as usize {
        return Err(Error::parse(
            dec.position(),
            format!(
                "plan body consumed {} bytes, recorded {len}",
                dec.position() - offset as usize
            ),
        ));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Operation, OperationCategory, PlanNode, Property, PropertyCategory};
    use crate::value::Value;

    fn plan(op: &str, depth: usize) -> UnifiedPlan {
        let mut node = PlanNode {
            operation: Operation {
                category: OperationCategory::CANONICAL[0],
                identifier: Symbol::intern(op),
            },
            properties: vec![Property {
                category: PropertyCategory::CANONICAL[0],
                identifier: Symbol::intern("relation"),
                value: Value::Str(format!("t_{depth}")),
            }],
            children: Vec::new(),
        };
        for _ in 1..depth {
            node = PlanNode {
                operation: Operation {
                    category: OperationCategory::CANONICAL[1],
                    identifier: Symbol::intern("join"),
                },
                properties: Vec::new(),
                children: vec![node],
            };
        }
        UnifiedPlan {
            root: Some(node),
            properties: Vec::new(),
        }
    }

    fn finish_meta(plans: &[UnifiedPlan], id: u32) -> SegmentFinish {
        SegmentFinish {
            id,
            fingerprint_flags: 0x19,
            shard_count: 1,
            fingerprints: (0..plans.len() as u64).map(|i| i * 7 + 3).collect(),
            feature_dim: 2,
            features: (0..plans.len() as u32 * 2).collect(),
            operations: plans.iter().map(|p| p.operation_count() as u64).sum(),
            max_depth: plans
                .iter()
                .filter_map(|p| p.root.as_ref())
                .map(|r| r.depth() as u32)
                .max()
                .unwrap_or(0),
            shards: vec![SegmentShardEdges {
                base: 0,
                count: plans.len() as u64,
                edges: (1..plans.len() as u32).map(|i| (i - 1, 1)).collect(),
            }],
        }
    }

    fn build_segment(plans: &[UnifiedPlan], chain: &[Symbol], id: u32) -> (Vec<u8>, Vec<Symbol>) {
        let mut builder = SegmentBuilder::new(chain);
        for p in plans {
            builder.push(p).unwrap();
        }
        builder.finish(&finish_meta(plans, id))
    }

    #[test]
    fn segment_roundtrips_metadata_and_plans() {
        let plans: Vec<UnifiedPlan> = (0..10)
            .map(|i| plan(&format!("scan_{i}"), i % 4 + 1))
            .collect();
        let (bytes, delta) = build_segment(&plans, &[], 0);
        let view = parse_segment(&bytes).unwrap();
        assert_eq!(view.id, 0);
        assert_eq!(view.plan_count, 10);
        assert_eq!(view.symbols_base, 0);
        assert_eq!(view.delta, delta);
        assert_eq!(view.fingerprints.len(), 10);
        assert_eq!(view.features.len(), 20);
        assert_eq!(view.shards.len(), 1);
        assert_eq!(view.shards[0].edges.len(), 9);
        assert_eq!(view.blocks.len(), 1);
        assert_eq!(
            view.sections.total,
            view.sections.header
                + view.sections.symbols
                + view.sections.plans
                + view.sections.offsets
                + view.sections.fingerprints
                + view.sections.features
                + view.sections.index
                + 4
        );
        for (i, original) in plans.iter().enumerate() {
            verify_block(&bytes, view.blocks[i / 256]).unwrap();
            let decoded =
                decode_plan_at(&bytes, view.plan_offsets[i], view.plan_lens[i], &delta).unwrap();
            assert_eq!(&decoded, original);
        }
    }

    #[test]
    fn chained_segments_share_one_symbol_chain() {
        let first: Vec<UnifiedPlan> = (0..3).map(|i| plan(&format!("alpha_{i}"), 2)).collect();
        let second: Vec<UnifiedPlan> = (0..3).map(|i| plan(&format!("beta_{i}"), 2)).collect();
        let (bytes_a, delta_a) = build_segment(&first, &[], 0);
        let (bytes_b, delta_b) = build_segment(&second, &delta_a, 1);
        let view_b = parse_segment(&bytes_b).unwrap();
        assert_eq!(view_b.symbols_base as usize, delta_a.len());
        // The chain a reader reconstructs from the deltas decodes both
        // segments' plans.
        let chain: Vec<Symbol> = delta_a.iter().chain(&delta_b).copied().collect();
        let view_a = parse_segment(&bytes_a).unwrap();
        for (view, bytes, originals) in [(&view_a, &bytes_a, &first), (&view_b, &bytes_b, &second)]
        {
            for (i, original) in originals.iter().enumerate() {
                let decoded =
                    decode_plan_at(bytes, view.plan_offsets[i], view.plan_lens[i], &chain).unwrap();
                assert_eq!(&decoded, original);
            }
        }
        // Shared symbols do not repeat in a later delta.
        assert!(delta_b.iter().all(|s| !delta_a.contains(s)));
    }

    #[test]
    fn manifest_roundtrips() {
        let manifest = Manifest {
            fingerprint_flags: 0x19,
            shard_count: 4,
            feature_dim: 2,
            symbols: vec![Symbol::intern("scan"), Symbol::intern("join")],
            segments: vec![SegmentMeta {
                id: 0,
                plan_count: 12,
                symbols_base: 0,
                symbols_len: 2,
                operations: 40,
                max_depth: 5,
                min_fingerprint: 17,
                max_fingerprint: u64::MAX - 3,
                feature_min: vec![0, 1],
                feature_max: vec![9, 11],
            }],
        };
        let bytes = encode_manifest(&manifest);
        assert_eq!(decode_manifest(&bytes).unwrap(), manifest);
    }

    #[test]
    fn corruption_is_detected_per_section() {
        let plans: Vec<UnifiedPlan> = (0..5).map(|i| plan(&format!("scan_{i}"), 2)).collect();
        let (bytes, _) = build_segment(&plans, &[], 0);
        let view = parse_segment(&bytes).unwrap();

        // Header corruption fails the parse outright.
        let mut bad = bytes.clone();
        bad[6] ^= 0x40;
        assert!(parse_segment(&bad).is_err());

        // Tail corruption fails the parse outright.
        let mut bad = bytes.clone();
        let tail_at = bytes.len() - 3;
        bad[tail_at] ^= 0x01;
        assert!(parse_segment(&bad).is_err());

        // Block-body corruption parses (metadata is intact) but fails the
        // lazy block verification.
        let mut bad = bytes.clone();
        let inside = view.plan_offsets[2] as usize;
        bad[inside] ^= 0x20;
        let lazy = parse_segment(&bad).unwrap();
        assert_eq!(lazy.plan_count, 5);
        assert!(verify_block(&bad, lazy.blocks[0]).is_err());

        // Truncation anywhere is an error.
        assert!(parse_segment(&bytes[..bytes.len() - 1]).is_err());

        // Manifest corruption is detected too.
        let manifest = Manifest {
            fingerprint_flags: 0,
            shard_count: 1,
            feature_dim: 1,
            symbols: Vec::new(),
            segments: Vec::new(),
        };
        let mut mbytes = encode_manifest(&manifest);
        let at = mbytes.len() - 5;
        mbytes[at] ^= 0x08;
        assert!(decode_manifest(&mbytes).is_err());
    }

    #[test]
    fn hostile_inputs_do_not_panic() {
        for len in 0..64 {
            let junk: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let _ = parse_segment(&junk);
            let _ = decode_manifest(&junk);
        }
        // Valid magic, garbage beyond.
        let mut junk = SEGMENT_MAGIC.to_vec();
        junk.extend_from_slice(&[1, 0xff, 0xff, 0xff, 0xff, 0xff]);
        assert!(parse_segment(&junk).is_err());
    }

    /// Every plan of a parsed segment, each block verified first.
    fn decode_all(bytes: &[u8], chain: &[Symbol]) -> Result<Vec<UnifiedPlan>> {
        let view = parse_segment(bytes)?;
        for &block in &view.blocks {
            verify_block(bytes, block)?;
        }
        (0..view.plan_count as usize)
            .map(|i| decode_plan_at(bytes, view.plan_offsets[i], view.plan_lens[i], chain))
            .collect()
    }

    #[test]
    fn segments_round_trip_across_block_boundaries() {
        // Exactly one block, a full block, and a multi-block segment with
        // a ragged final block.
        for n in [1usize, 256, 600] {
            let plans: Vec<UnifiedPlan> = (0..n).map(|i| plan(&format!("scan_{i}"), 2)).collect();
            let (bytes, delta) = build_segment(&plans, &[], 0);
            let view = parse_segment(&bytes).unwrap();
            assert_eq!(view.blocks.len(), n.div_ceil(256), "{n} plans");
            assert_eq!(decode_all(&bytes, &delta).unwrap(), plans, "{n} plans");
        }
    }

    #[test]
    fn every_byte_inversion_of_a_segment_is_detected() {
        // No single corrupted byte slips through a full read: the header,
        // every block and the tail are CRC-covered, and the few uncovered
        // bytes (magic, version, block lengths, the CRCs themselves) fail
        // structurally.
        let plans: Vec<UnifiedPlan> = (0..5).map(|i| plan(&format!("scan_{i}"), 2)).collect();
        let (bytes, delta) = build_segment(&plans, &[], 0);
        assert_eq!(decode_all(&bytes, &delta).unwrap(), plans);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xff;
            assert!(
                decode_all(&corrupt, &delta).is_err(),
                "inverted byte {i} went undetected"
            );
        }
    }

    #[test]
    fn unsupported_versions_are_rejected_in_both_directions() {
        let (segment, _) = build_segment(&[plan("scan", 1)], &[], 0);
        let manifest = encode_manifest(&Manifest {
            fingerprint_flags: 0,
            shard_count: 1,
            feature_dim: 1,
            symbols: Vec::new(),
            segments: Vec::new(),
        });
        for bad in [0u8, 2, 0x7f] {
            let mut doc = segment.clone();
            doc[4] = bad;
            let err = parse_segment(&doc).unwrap_err();
            assert!(err.to_string().contains("version"), "{bad}: {err}");
            let mut doc = manifest.clone();
            doc[4] = bad;
            let err = decode_manifest(&doc).unwrap_err();
            assert!(err.to_string().contains("version"), "{bad}: {err}");
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let (good, _) = build_segment(&[plan("scan", 1)], &[], 0);
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let err = parse_segment(&bad_magic).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // A manifest is not a segment, nor the other way round.
        let mut swapped = good.clone();
        swapped[..4].copy_from_slice(&MANIFEST_MAGIC);
        assert!(parse_segment(&swapped).is_err());
        assert!(decode_manifest(&good).is_err());
        assert!(parse_segment(&[]).is_err());
        assert!(parse_segment(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (mut bytes, delta) = build_segment(&[plan("scan", 2)], &[], 0);
        let view = parse_segment(&bytes).unwrap();
        let (at, len) = (view.plan_offsets[0], view.plan_lens[0]);
        // A body shorter than its recorded length leaves trailing bytes
        // inside the record: the decode must consume exactly `len`.
        let err = decode_plan_at(&bytes, at, len + 1, &delta).unwrap_err();
        assert!(err.to_string().contains("consumed"), "{err}");
        // Bytes past the tail CRC are rejected by the parse.
        bytes.push(0xaa);
        let err = parse_segment(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }
}
