//! Compact binary plan codec — the plan-body encoding segment stores
//! reuse, and the legacy whole-corpus (`UPLN`) import format.
//!
//! JSON is the interchange format of the unified representation; it is not
//! the right format for *populations* of plans: the JSON path pays per plan
//! for lexing, escape handling and keyword re-validation. This module
//! defines a symbol-table-prefixed, varint-encoded binary encoding that
//! amortizes all of that across many plans. It serves two roles:
//!
//! * **Plan bodies.** [`BinaryEncoder`] encodes plans against one shared
//!   symbol table in checksummed blocks. The segment codec
//!   ([`super::segment`]) wraps it, so every plan a segment store persists
//!   is encoded here, byte for byte, and decoded here on first touch.
//! * **Legacy documents.** Corpora used to be persisted as one monolithic
//!   `UPLN` document each. No corpus is saved that way any more — segment
//!   stores are the only corpus persistence — but every version stays
//!   readable ([`BinaryDecoder`], [`salvage`]) so old files convert with
//!   `repro corpus import`. The document framing itself stays writable:
//!   [`to_bytes`] frames one plan (the golden-pinned plan encoding), and
//!   the test-support `formats::legacy` writers (feature `legacy-writer`)
//!   reframe segments as legacy documents.
//!
//! ```text
//! document ::= magic            (4 bytes, "UPLN")
//!              version          (varint; 1..=4, see below)
//!              symbol_count     (varint)
//!              symbol*          (varint byte length + UTF-8 keyword bytes)
//!              plan_count       (varint)
//!              header_crc       (4 bytes LE, version ≥ 3 only; CRC32 of
//!                                every preceding byte)
//!              plan* | block*   (bare plans ≤ v2; checksummed blocks in v3+)
//!              section_flags    (1 byte, version ≥ 2 only; bit 0 = index;
//!                                bit 1 = features, version ≥ 4 only)
//!              index?           (when bit 0 set)
//!              features?        (when bit 1 set)
//!              tail_crc         (4 bytes LE, version ≥ 3 only; CRC32 of
//!                                section_flags..sections end)
//! block    ::= block_len        (varint; byte length of the plan bodies)
//!              plan*            (up to CHECKSUM_BLOCK_PLANS plans)
//!              block_crc        (4 bytes LE; CRC32 of the plan bodies)
//! index    ::= fingerprint_flags (1 byte, writer-defined)
//!              shard_count      (varint)
//!              shard*
//! features ::= dim              (varint, 1..=MAX_FEATURE_DIM)
//!              value*           (plan_count × dim varints, row-major in
//!                                document plan order)
//! shard    ::= node_count       (varint)
//!              edge*            (node_count − 1 edges, for nodes 1..)
//! edge     ::= parent           (varint, node id < the edge's node)
//!              distance         (varint, cached metric distance)
//! plan     ::= flags            (1 byte; bit 0 = has tree)
//!              tree?            (node, when bit 0 set)
//!              prop_count props (plan-associated properties)
//! node     ::= op_category      (varint; 0..=6 canonical, 7 = extension
//!                                followed by a symbol ref)
//!              op_identifier    (varint symbol ref)
//!              prop_count props
//!              child_count node*
//! prop     ::= prop_category    (varint; 0..=3 canonical, 4 = extension
//!                                followed by a symbol ref)
//!              identifier       (varint symbol ref)
//!              value
//! value    ::= 0 | 1 | 2        (null / false / true)
//!            | 3 zigzag-varint  (integer)
//!            | 4 f64-le         (float)
//!            | 5 len bytes      (UTF-8 string)
//! ```
//!
//! Every identifier (operation, property, extension category) is written
//! once into the document-local symbol table and referenced by index from
//! then on; decoding validates and interns each spelling exactly once per
//! *document*, not once per node, which is where the ~7× decode speedup
//! over JSON comes from. Property string values are inline (they are open-world
//! data, and the interner must never see them). Symbol-table spellings
//! *are* interned — exactly like identifiers parsed from any other format
//! — so, since interned spellings live for the process, the table is
//! capped at [`MAX_SYMBOLS`] entries: a hostile document can leak at most
//! a bounded vocabulary, not memory proportional to its size.
//!
//! The format is versioned like the fingerprint scheme: a reader rejects
//! documents whose version it does not understand. Each version is a
//! strict superset of the one before, so the decoder accepts all of them
//! ([`MIN_SUPPORTED_BINARY_VERSION`]): a v1 document is exactly a v2
//! document without the trailing index section, a v3 document is a v2
//! document with its plan stream cut into checksummed blocks and three
//! CRC32 trailers added, and a v4 document is a v3 document whose index
//! flag byte is reinterpreted as a section-flags bitmap admitting an
//! additional per-plan feature-vector section
//! ([`FEATURED_BINARY_VERSION`]). The encoder writes only the checksummed
//! layouts: v3 from [`BinaryEncoder::finish`] and
//! [`BinaryEncoder::finish_with_index`], v4 from
//! [`BinaryEncoder::finish_with_sections`]. `tests/golden.rs` pins exact
//! encodings for versions 1..=3.
//!
//! ## Checksums and salvage (version 3)
//!
//! Fleet dumps arrive over lossy paths: partial writes, bit rot, spliced
//! uploads. Before v3 a single flipped byte anywhere in a multi-megabyte
//! document lost the whole corpus (or worse, silently skewed the trusted
//! index distances). Version 3 checksums each section separately —
//! header + symbol table, every [`CHECKSUM_BLOCK_PLANS`]-plan block of
//! bodies, and the index tail — with [`crate::crc32`], so corruption is
//! (a) *detected* at load ([`Error::Checksum`]) and (b) *localized*:
//! [`salvage`] recovers every plan up to the first damaged block and
//! reports exactly what was dropped. Each block pre-verifies its CRC
//! before any of its plans decode, so every plan a v3 salvage returns
//! came from verified bytes. The per-block granularity is the trade:
//! 4-byte overhead per 256 plans is noise. Segment files reuse the same
//! block framing.
//!
//! ## The index section (version 2)
//!
//! Version 2 appends an *optional* index section after the last plan: the
//! topology of the writer's metric index (per shard, one `(parent, cached
//! distance)` edge per non-root node — a BK-tree over the document's plans,
//! see `uplan-corpus`), plus one writer-defined `fingerprint_flags` byte
//! recording the fingerprint options the shard routing was computed under.
//! Readers that recognise the flags rebuild their index from the cached
//! edges with **zero** metric evaluations; readers that don't (or v1
//! documents, which have no section) fall back to re-indexing. The cached
//! distances are trusted, not re-verified — verification would cost the
//! very evaluations the section exists to avoid — so the section is
//! structurally validated (causal parents, counts that match the plan
//! population) but a corrupted distance yields wrong *query results*,
//! never unsafety.
//!
//! ## The feature section (version 4)
//!
//! Version 4 admits a second optional section after the index: one
//! fixed-width structural feature vector per plan (see
//! [`FeatureSection`]), in document plan order. Feature vectors drive
//! approximate similarity queries (vector-distance candidate generation
//! before exact re-ranking in `uplan-corpus`); persisting them saves the
//! recompute at load the same way the index section saves metric
//! evaluations. Readers that find an unexpected dimension simply drop the
//! section and recompute — like an index whose fingerprint flags
//! disagree, it is a cache, not data.

use std::collections::HashMap;

use crate::crc32::crc32;
use crate::error::{Error, Result};
use crate::keyword;
use crate::model::{
    Operation, OperationCategory, PlanNode, Property, PropertyCategory, UnifiedPlan,
};
use crate::symbol::{Symbol, SymbolTable};
use crate::value::Value;

/// Leading magic bytes of every binary plan document.
pub const BINARY_MAGIC: [u8; 4] = *b"UPLN";

/// Version of the binary codec — what the encoder writes by default.
pub const BINARY_CODEC_VERSION: u32 = 3;

/// Version written by [`BinaryEncoder::finish_with_sections`]: the v3
/// layout with the index flag byte widened into a section-flags bitmap so
/// a per-plan feature-vector section can follow the index. Only documents
/// that actually carry feature vectors pay the bump; everything else keeps
/// writing [`BINARY_CODEC_VERSION`] byte-identically.
pub const FEATURED_BINARY_VERSION: u32 = 4;

/// Oldest codec version the decoder still reads. Version 1 documents are
/// version 2 documents without the trailing index section, and version 2
/// documents are version 3 documents without checksums, so supporting
/// them costs a few branches — old corpora keep loading (via the
/// index-rebuild path) forever.
pub const MIN_SUPPORTED_BINARY_VERSION: u32 = 1;

/// Plans per checksummed block in a version-3 document. Small enough that
/// a corrupted block loses at most a sliver of a large corpus, large
/// enough that the 4-byte-per-block framing is noise (a 10k-plan corpus
/// carries ~40 blocks).
pub const CHECKSUM_BLOCK_PLANS: u64 = 256;

/// Maximum plan tree depth the format admits, enforced symmetrically: the
/// encoder refuses to write a deeper plan ([`BinaryEncoder::push`] errors)
/// and the decoder refuses to read one (recursion guard against stack
/// exhaustion on hostile input). Anything that encodes is guaranteed to
/// decode — a persistence format must never accept what it cannot return.
/// 512 is an order of magnitude past the deepest real explain output while
/// keeping codec recursion well inside a default 2 MiB thread stack even
/// in unoptimized builds.
pub const MAX_PLAN_DEPTH: usize = 512;

/// Maximum distinct identifiers per document, enforced symmetrically like
/// [`MAX_PLAN_DEPTH`]. Identifiers come from catalog-shaped vocabularies
/// (the nine studied DBMSs total a few hundred), so 65 536 is far beyond
/// any real corpus while bounding how much a hostile document can force
/// into the process-global interner (interned spellings are never freed).
pub const MAX_SYMBOLS: usize = 1 << 16;

/// Maximum shard count an index section may declare, enforced symmetrically
/// like the other limits. Corpus sharding is a small power of two sized to
/// core counts; 256 is far beyond that while keeping a hostile document
/// from declaring billions of empty shards.
pub const MAX_INDEX_SHARDS: usize = 256;

/// Maximum feature-vector width a feature section may declare. The
/// current corpus vectors are 20-wide; 64 leaves headroom for richer
/// profiles while bounding what a hostile document can make the reader
/// allocate per plan.
pub const MAX_FEATURE_DIM: usize = 64;

/// The persisted metric-index topology of a version-2 document: one
/// BK-tree edge list per corpus shard (see the module docs). Produced by
/// `uplan-corpus` at save time and handed back verbatim at load time; this
/// module only defines the byte layout and its structural validation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexSection {
    /// Writer-defined encoding of the fingerprint options the shard
    /// routing was computed under; a reader whose options disagree must
    /// ignore the section and re-index.
    pub fingerprint_flags: u8,
    /// Per-shard topology, in shard order. Shard membership is not stored:
    /// it is re-derived by routing each plan's fingerprint prefix across
    /// `shards.len()` shards, which is what makes the flags byte load-
    /// bearing.
    pub shards: Vec<ShardTopology>,
}

/// One shard's BK-tree topology inside an [`IndexSection`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardTopology {
    /// Items indexed by this shard's tree (== the shard's plan count).
    pub nodes: u64,
    /// `(parent node, cached distance)` for nodes `1..nodes`; parents
    /// always precede children (insertion order is causal).
    pub edges: Vec<(u32, u32)>,
}

/// The persisted per-plan structural feature vectors of a version-4
/// document: `plan_count × dim` values, row-major in document plan order.
/// Like the index section this is a trusted cache — structurally validated
/// (bounded dimension, exact row count) but never re-derived from the
/// plans at load; a reader expecting a different `dim` drops the section
/// and recomputes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeatureSection {
    /// Width of every row; `1..=MAX_FEATURE_DIM`.
    pub dim: u32,
    /// `plan_count` rows of `dim` values each, concatenated.
    pub values: Vec<u32>,
}

const VALUE_NULL: u8 = 0;
const VALUE_FALSE: u8 = 1;
const VALUE_TRUE: u8 = 2;
const VALUE_INT: u8 = 3;
const VALUE_FLOAT: u8 = 4;
const VALUE_STR: u8 = 5;

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Streaming encoder for multi-plan documents sharing one symbol table.
///
/// Plans are encoded into an in-memory body as they are pushed while the
/// symbol table accumulates; [`BinaryEncoder::finish`] prefixes the header
/// and table. [`to_bytes`] is the single-plan convenience wrapper.
#[derive(Debug)]
pub struct BinaryEncoder {
    table: Vec<Symbol>,
    refs: HashMap<Symbol, u32>,
    body: Vec<u8>,
    plans: u64,
    /// Body offsets at which each checksum block starts.
    block_starts: Vec<usize>,
}

impl Default for BinaryEncoder {
    fn default() -> BinaryEncoder {
        BinaryEncoder::new()
    }
}

impl BinaryEncoder {
    /// An empty encoder producing the current (checksummed) document
    /// version.
    pub fn new() -> BinaryEncoder {
        BinaryEncoder {
            table: Vec::new(),
            refs: HashMap::new(),
            body: Vec::new(),
            plans: 0,
            block_starts: Vec::new(),
        }
    }

    /// Number of plans pushed so far.
    pub fn plan_count(&self) -> u64 {
        self.plans
    }

    /// Current byte length of the encoded plan bodies — the *body-relative*
    /// offset the next pushed plan will start at. The segment codec records
    /// this before each push to build its per-plan offset table.
    pub(crate) fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Pre-registers a symbol so its table index matches an existing
    /// cross-document symbol chain (segment stores share one chain; every
    /// segment's encoder is seeded with the chain so far, making symbol
    /// refs chain-global). Seeds must be applied before any plan is pushed
    /// and in chain order.
    pub(crate) fn seed_symbol(&mut self, sym: Symbol) {
        debug_assert_eq!(self.plans, 0, "seed the chain before pushing plans");
        self.symbol_ref(sym);
    }

    /// Dismantles the encoder without framing a UPLN document: the full
    /// symbol table (seeds included, in ref order), the raw plan bodies,
    /// and the body offsets at which each checksum block starts. The
    /// segment codec frames these itself.
    pub(crate) fn into_parts(self) -> (Vec<Symbol>, Vec<u8>, Vec<usize>) {
        (self.table, self.body, self.block_starts)
    }

    /// Encodes one plan into the document. Errors (leaving the document
    /// unchanged) on plans deeper than [`MAX_PLAN_DEPTH`] or pushing the
    /// document past [`MAX_SYMBOLS`] distinct identifiers — both of which
    /// the decoder would refuse to read back.
    pub fn push(&mut self, plan: &UnifiedPlan) -> Result<()> {
        if plan.root.as_ref().map_or(0, PlanNode::depth) > MAX_PLAN_DEPTH {
            return Err(Error::Semantic(format!(
                "plan tree deeper than the codec limit of {MAX_PLAN_DEPTH}"
            )));
        }
        let mut symbols = std::collections::HashSet::new();
        let collect_props = |props: &[Property], out: &mut std::collections::HashSet<Symbol>| {
            for p in props {
                if let PropertyCategory::Extension(name) = p.category {
                    out.insert(name);
                }
                out.insert(p.identifier);
            }
        };
        plan.walk(&mut |node| {
            if let OperationCategory::Extension(name) = node.operation.category {
                symbols.insert(name);
            }
            symbols.insert(node.operation.identifier);
            collect_props(&node.properties, &mut symbols);
        });
        collect_props(&plan.properties, &mut symbols);
        let new = symbols
            .iter()
            .filter(|s| !self.refs.contains_key(s))
            .count();
        if self.table.len() + new > MAX_SYMBOLS {
            return Err(Error::Semantic(format!(
                "document exceeds the codec limit of {MAX_SYMBOLS} distinct identifiers"
            )));
        }
        if self.plans.is_multiple_of(CHECKSUM_BLOCK_PLANS) {
            self.block_starts.push(self.body.len());
        }
        self.plans += 1;
        self.body.push(u8::from(plan.root.is_some()));
        if let Some(root) = &plan.root {
            self.encode_node(root);
        }
        self.encode_properties(&plan.properties);
        Ok(())
    }

    /// Finalizes the document without an index section: header, symbol
    /// table, plan count, bodies, and a zero index flag.
    pub fn finish(self) -> Vec<u8> {
        self.finish_inner(None, None)
    }

    /// Finalizes the document with a persisted metric index (see
    /// [`IndexSection`]). The section must describe exactly the plans
    /// pushed into this document — `index.shards` node counts summing to
    /// [`BinaryEncoder::plan_count`] — or the decoder will reject it.
    pub fn finish_with_index(self, index: &IndexSection) -> Vec<u8> {
        debug_assert_eq!(
            index.shards.iter().map(|s| s.nodes).sum::<u64>(),
            self.plans,
            "index section must cover every plan in the document"
        );
        self.finish_inner(Some(index), None)
    }

    /// Finalizes the document with both a persisted metric index and a
    /// per-plan feature section, bumping the document to
    /// [`FEATURED_BINARY_VERSION`]. The feature section must carry exactly
    /// `plan_count × dim` values.
    pub fn finish_with_sections(self, index: &IndexSection, features: &FeatureSection) -> Vec<u8> {
        debug_assert_eq!(
            index.shards.iter().map(|s| s.nodes).sum::<u64>(),
            self.plans,
            "index section must cover every plan in the document"
        );
        debug_assert_eq!(
            features.values.len() as u64,
            self.plans * u64::from(features.dim),
            "feature section must carry one row per plan"
        );
        self.finish_inner(Some(index), Some(features))
    }

    fn finish_inner(
        self,
        index: Option<&IndexSection>,
        features: Option<&FeatureSection>,
    ) -> Vec<u8> {
        let symbols = SymbolTable::read();
        let version = if features.is_some() {
            FEATURED_BINARY_VERSION
        } else {
            BINARY_CODEC_VERSION
        };
        let mut out = Vec::with_capacity(self.body.len() + 16 * self.table.len() + 32);
        out.extend_from_slice(&BINARY_MAGIC);
        write_varint(&mut out, u64::from(version));
        write_varint(&mut out, self.table.len() as u64);
        for sym in &self.table {
            let text = symbols.str(*sym);
            write_varint(&mut out, text.len() as u64);
            out.extend_from_slice(text.as_bytes());
        }
        write_varint(&mut out, self.plans);
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for (i, &start) in self.block_starts.iter().enumerate() {
            let end = self
                .block_starts
                .get(i + 1)
                .copied()
                .unwrap_or(self.body.len());
            let block = &self.body[start..end];
            write_varint(&mut out, block.len() as u64);
            out.extend_from_slice(block);
            out.extend_from_slice(&crc32(block).to_le_bytes());
        }
        let tail_start = out.len();
        out.push(u8::from(index.is_some()) | (u8::from(features.is_some()) << 1));
        if let Some(index) = index {
            out.push(index.fingerprint_flags);
            write_varint(&mut out, index.shards.len() as u64);
            for shard in &index.shards {
                write_varint(&mut out, shard.nodes);
                debug_assert_eq!(
                    shard.edges.len() as u64,
                    shard.nodes.saturating_sub(1),
                    "a BK-tree has exactly one edge per non-root node"
                );
                for &(parent, distance) in &shard.edges {
                    write_varint(&mut out, u64::from(parent));
                    write_varint(&mut out, u64::from(distance));
                }
            }
        }
        if let Some(features) = features {
            write_varint(&mut out, u64::from(features.dim));
            for &value in &features.values {
                write_varint(&mut out, u64::from(value));
            }
        }
        let tail_crc = crc32(&out[tail_start..]);
        out.extend_from_slice(&tail_crc.to_le_bytes());
        out
    }

    fn symbol_ref(&mut self, sym: Symbol) -> u32 {
        *self.refs.entry(sym).or_insert_with(|| {
            let id = u32::try_from(self.table.len()).expect("symbol table overflow");
            self.table.push(sym);
            id
        })
    }

    fn encode_node(&mut self, node: &PlanNode) {
        self.encode_op_category(node.operation.category);
        let ident = self.symbol_ref(node.operation.identifier);
        write_varint(&mut self.body, u64::from(ident));
        self.encode_properties(&node.properties);
        write_varint(&mut self.body, node.children.len() as u64);
        for child in &node.children {
            self.encode_node(child);
        }
    }

    fn encode_op_category(&mut self, category: OperationCategory) {
        write_varint(&mut self.body, category.column_index() as u64);
        if let OperationCategory::Extension(name) = category {
            let id = self.symbol_ref(name);
            write_varint(&mut self.body, u64::from(id));
        }
    }

    fn encode_properties(&mut self, properties: &[Property]) {
        write_varint(&mut self.body, properties.len() as u64);
        for p in properties {
            write_varint(&mut self.body, p.category.column_index() as u64);
            if let PropertyCategory::Extension(name) = p.category {
                let id = self.symbol_ref(name);
                write_varint(&mut self.body, u64::from(id));
            }
            let ident = self.symbol_ref(p.identifier);
            write_varint(&mut self.body, u64::from(ident));
            self.encode_value(&p.value);
        }
    }

    fn encode_value(&mut self, value: &Value) {
        match value {
            Value::Null => self.body.push(VALUE_NULL),
            Value::Bool(false) => self.body.push(VALUE_FALSE),
            Value::Bool(true) => self.body.push(VALUE_TRUE),
            Value::Int(i) => {
                self.body.push(VALUE_INT);
                write_varint(&mut self.body, zigzag(*i));
            }
            Value::Float(f) => {
                self.body.push(VALUE_FLOAT);
                self.body.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                self.body.push(VALUE_STR);
                write_varint(&mut self.body, s.len() as u64);
                self.body.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// Encodes a single plan as a one-plan binary document (errors only on
/// plans deeper than [`MAX_PLAN_DEPTH`]).
pub fn to_bytes(plan: &UnifiedPlan) -> Result<Vec<u8>> {
    let mut enc = BinaryEncoder::new();
    enc.push(plan)?;
    Ok(enc.finish())
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Streaming decoder over a binary plan document.
///
/// Construction parses the header and interns the symbol table (each
/// spelling keyword-validated once); [`BinaryDecoder::next_plan`] then
/// yields plans until the declared count is exhausted, after which the
/// trailing index section (version 2, if present) has been parsed and is
/// available from [`BinaryDecoder::take_index`].
pub struct BinaryDecoder<'a> {
    input: &'a [u8],
    pos: usize,
    /// Owned for whole-document decodes (the table is parsed out of the
    /// input); borrowed for per-plan-body decodes against a shared symbol
    /// chain ([`BinaryDecoder::for_plan_bodies`]), where cloning the chain
    /// per plan would dominate the decode.
    symbols: std::borrow::Cow<'a, [Symbol]>,
    version: u32,
    plan_count: u64,
    remaining: u64,
    index: Option<IndexSection>,
    features: Option<FeatureSection>,
    finalized: bool,
    /// v3: end offset of the current checksum block's plan bodies.
    block_end: usize,
    /// v3: plans left to decode in the current block.
    block_left: u64,
    /// v3: plans already decoded from the current (unfinished) block —
    /// what a salvage must discard when the block lied about its length.
    block_taken: u64,
    /// v3: checksum blocks verified so far (for error messages).
    blocks_read: usize,
    /// Clean split points passed so far (see [`SectionBoundary`]).
    sections: Vec<SectionBoundary>,
}

/// One checkpoint in a decoded document: a byte offset at which the
/// document splits cleanly between sections, and how many plans lie
/// entirely before it. The fault-injection harness truncates at exactly
/// these offsets; [`salvage`] of such a truncation recovers exactly
/// `plans` plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionBoundary {
    /// Offset one past the section (header, checksum block, or tail).
    pub end: usize,
    /// Plans fully decoded before `end`.
    pub plans: u64,
}

impl<'a> BinaryDecoder<'a> {
    /// Parses the document header and symbol table (verifying the header
    /// checksum on version-3 documents).
    pub fn new(input: &'a [u8]) -> Result<BinaryDecoder<'a>> {
        let mut dec = BinaryDecoder {
            input,
            pos: 0,
            symbols: std::borrow::Cow::Owned(Vec::new()),
            version: 0,
            plan_count: 0,
            remaining: 0,
            index: None,
            features: None,
            finalized: false,
            block_end: 0,
            block_left: 0,
            block_taken: 0,
            blocks_read: 0,
            sections: Vec::new(),
        };
        if input.len() < BINARY_MAGIC.len() || input[..BINARY_MAGIC.len()] != BINARY_MAGIC {
            return Err(Error::parse(0, "not a binary plan document (bad magic)"));
        }
        dec.pos = BINARY_MAGIC.len();
        let version = dec.read_varint()?;
        if !(u64::from(MIN_SUPPORTED_BINARY_VERSION)..=u64::from(FEATURED_BINARY_VERSION))
            .contains(&version)
        {
            return Err(Error::parse(
                dec.pos,
                format!(
                    "unsupported binary codec version {version} (this reader handles \
                     {MIN_SUPPORTED_BINARY_VERSION}..={FEATURED_BINARY_VERSION})"
                ),
            ));
        }
        dec.version = version as u32;
        let count = dec.read_varint()?;
        // A symbol costs at least two bytes (length + one keyword byte), so
        // the declared count is bounded by the remaining input.
        if count > MAX_SYMBOLS as u64 {
            return Err(Error::parse(
                dec.pos,
                format!("symbol table exceeds the codec limit of {MAX_SYMBOLS}"),
            ));
        }
        if count > (input.len() - dec.pos) as u64 {
            return Err(Error::parse(dec.pos, "symbol table longer than document"));
        }
        let mut symbols = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let text = dec.read_str("symbol table entry")?;
            symbols.push(Symbol::intern(keyword::validate(text)?));
        }
        dec.symbols = std::borrow::Cow::Owned(symbols);
        dec.remaining = dec.read_varint()?;
        dec.plan_count = dec.remaining;
        if dec.version >= 3 {
            dec.verify_crc(0, dec.pos, "header")?;
        }
        dec.sections.push(SectionBoundary {
            end: dec.pos,
            plans: 0,
        });
        Ok(dec)
    }

    /// A decoder positioned directly on *bare plan bodies* (no document
    /// header, no block framing, no tail) against an externally supplied
    /// symbol table — the offset-addressed decode path of the segment
    /// codec, where one shared symbol chain serves every plan of every
    /// segment and each plan decodes independently on first touch.
    ///
    /// Behaves like a version-1 document: [`BinaryDecoder::next_plan`]
    /// yields `count` plans starting at `input[pos..]` and never parses a
    /// trailing section. The caller owns all integrity checking (segment
    /// blocks are CRC-verified before any body in them decodes).
    pub(crate) fn for_plan_bodies(
        input: &'a [u8],
        pos: usize,
        symbols: &'a [Symbol],
        count: u64,
    ) -> BinaryDecoder<'a> {
        BinaryDecoder {
            input,
            pos,
            symbols: std::borrow::Cow::Borrowed(symbols),
            version: 1,
            plan_count: count,
            remaining: count,
            index: None,
            features: None,
            // Pre-finalized: an exhausted decoder must not look for a tail
            // section that bare bodies do not carry.
            finalized: true,
            block_end: 0,
            block_left: 0,
            block_taken: 0,
            blocks_read: 0,
            sections: Vec::new(),
        }
    }

    /// Current byte position in the input (segment decodes validate that a
    /// plan body consumed exactly its recorded length).
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Number of plans not yet decoded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Number of plans the document header declares.
    pub fn plan_count(&self) -> u64 {
        self.plan_count
    }

    /// The document's codec version (1..=4).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The clean split points passed so far: the header, each completed
    /// checksum block (each plan, for pre-v3 documents) and — once the
    /// document is exhausted — its end. Truncating the document at any of
    /// these offsets leaves a salvageable prefix.
    pub fn sections(&self) -> &[SectionBoundary] {
        &self.sections
    }

    /// Reads and verifies the 4-byte CRC32 trailer covering
    /// `input[start..end]`; `self.pos` must equal `end`.
    fn verify_crc(&mut self, start: usize, end: usize, section: &str) -> Result<()> {
        debug_assert_eq!(self.pos, end);
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

    /// v3: enters the next checksum block — reads its length, verifies its
    /// CRC over the raw bytes *before* any plan in it decodes.
    fn begin_block(&mut self) -> Result<()> {
        self.block_taken = 0;
        let section = format!("plan block {}", self.blocks_read);
        let len = self.read_varint()? as usize;
        let start = self.pos;
        let end = start
            .checked_add(len)
            .filter(|e| e.checked_add(4).is_some_and(|c| c <= self.input.len()))
            .ok_or_else(|| Error::UnexpectedEof(section.clone()))?;
        let mut stored = [0u8; 4];
        stored.copy_from_slice(&self.input[end..end + 4]);
        if crc32(&self.input[start..end]) != u32::from_le_bytes(stored) {
            return Err(Error::Checksum {
                section,
                offset: start,
            });
        }
        self.block_end = end;
        self.block_left = self.remaining.min(CHECKSUM_BLOCK_PLANS);
        self.blocks_read += 1;
        Ok(())
    }

    /// v3: leaves a fully-decoded checksum block, checking that its plans
    /// consumed exactly the declared bytes.
    fn end_block(&mut self) -> Result<()> {
        if self.pos != self.block_end {
            return Err(Error::parse(
                self.pos,
                format!(
                    "plan block {} length mismatch (plans ended at {}, block at {})",
                    self.blocks_read - 1,
                    self.pos,
                    self.block_end
                ),
            ));
        }
        self.pos += 4; // the CRC trailer, verified on entry
        self.block_taken = 0;
        self.sections.push(SectionBoundary {
            end: self.pos,
            plans: self.plan_count - self.remaining,
        });
        Ok(())
    }

    /// The persisted index section, if the document carried one. Only
    /// populated once every plan has been decoded ([`BinaryDecoder::next_plan`]
    /// returned `Ok(None)`); the section sits after the last plan.
    pub fn take_index(&mut self) -> Option<IndexSection> {
        self.index.take()
    }

    /// The persisted feature section, if the document carried one (version
    /// ≥ 4). Populated under the same contract as
    /// [`BinaryDecoder::take_index`]: only once every plan has been
    /// decoded.
    pub fn take_features(&mut self) -> Option<FeatureSection> {
        self.features.take()
    }

    /// Decodes the next plan; `Ok(None)` when the document is exhausted.
    /// The first exhausted call also parses the trailing index section
    /// (version ≥ 2), verifies the tail checksum (version 3) and rejects
    /// trailing garbage.
    pub fn next_plan(&mut self) -> Result<Option<UnifiedPlan>> {
        if self.remaining == 0 {
            if !self.finalized {
                self.finalized = true;
                let tail_start = self.pos;
                if self.version >= 2 {
                    // ≤ v3 the byte is a plain 0/1 index flag; v4 widens it
                    // into a bitmap (bit 0 = index, bit 1 = features).
                    let flags = self.read_byte("index flag")?;
                    let admitted = if self.version >= 4 { 0b11 } else { 0b01 };
                    if flags & !admitted != 0 {
                        return Err(Error::parse(
                            self.pos - 1,
                            format!("bad index flag {flags:#x}"),
                        ));
                    }
                    if flags & 0b01 != 0 {
                        self.index = Some(self.read_index()?);
                    }
                    if flags & 0b10 != 0 {
                        self.features = Some(self.read_features()?);
                    }
                }
                if self.version >= 3 {
                    self.verify_crc(tail_start, self.pos, "index tail")?;
                }
                if self.pos != self.input.len() {
                    return Err(Error::parse(self.pos, "trailing bytes after last plan"));
                }
                self.sections.push(SectionBoundary {
                    end: self.pos,
                    plans: self.plan_count,
                });
            }
            return Ok(None);
        }
        if self.version >= 3 && self.block_left == 0 {
            self.begin_block()?;
        }
        self.remaining -= 1;
        let flags = self.read_byte("plan flags")?;
        if flags > 1 {
            return Err(Error::parse(
                self.pos - 1,
                format!("bad plan flags {flags:#x}"),
            ));
        }
        let root = if flags & 1 == 1 {
            Some(self.read_node(0)?)
        } else {
            None
        };
        let properties = self.read_properties()?;
        if self.version >= 3 {
            self.block_left -= 1;
            self.block_taken += 1;
            if self.block_left == 0 {
                self.end_block()?;
            }
        } else {
            self.sections.push(SectionBoundary {
                end: self.pos,
                plans: self.plan_count - self.remaining,
            });
        }
        Ok(Some(UnifiedPlan { root, properties }))
    }

    fn read_byte(&mut self, what: &str) -> Result<u8> {
        let byte = *self
            .input
            .get(self.pos)
            .ok_or_else(|| Error::UnexpectedEof(what.to_owned()))?;
        self.pos += 1;
        Ok(byte)
    }

    fn read_varint(&mut self) -> Result<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.read_byte("varint")?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                // Reject non-canonical padding in the final (10th) group.
                if shift == 63 && byte > 1 {
                    return Err(Error::parse(self.pos - 1, "varint overflows 64 bits"));
                }
                return Ok(value);
            }
        }
        Err(Error::parse(self.pos, "varint longer than 10 bytes"))
    }

    fn read_str(&mut self, what: &str) -> Result<&'a str> {
        let len = self.read_varint()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|end| *end <= self.input.len())
            .ok_or_else(|| Error::UnexpectedEof(what.to_owned()))?;
        let text = std::str::from_utf8(&self.input[self.pos..end])
            .map_err(|_| Error::parse(self.pos, format!("{what} is not valid UTF-8")))?;
        self.pos = end;
        Ok(text)
    }

    fn read_symbol(&mut self) -> Result<Symbol> {
        let id = self.read_varint()? as usize;
        self.symbols
            .get(id)
            .copied()
            .ok_or_else(|| Error::parse(self.pos, format!("symbol ref {id} out of range")))
    }

    fn read_node(&mut self, depth: usize) -> Result<PlanNode> {
        if depth >= MAX_PLAN_DEPTH {
            return Err(Error::parse(self.pos, "plan tree deeper than codec limit"));
        }
        let category = match self.read_varint()? {
            c @ 0..=6 => OperationCategory::CANONICAL[c as usize],
            7 => OperationCategory::Extension(self.read_symbol()?),
            other => {
                return Err(Error::parse(
                    self.pos,
                    format!("bad operation category tag {other}"),
                ))
            }
        };
        let identifier = self.read_symbol()?;
        let properties = self.read_properties()?;
        let child_count = self.read_varint()? as usize;
        // Each child costs ≥ 4 bytes; a count past that bound is corrupt.
        if child_count > self.input.len() - self.pos {
            return Err(Error::parse(self.pos, "child count longer than document"));
        }
        let mut children = Vec::with_capacity(child_count.min(1024));
        for _ in 0..child_count {
            children.push(self.read_node(depth + 1)?);
        }
        Ok(PlanNode {
            operation: Operation {
                category,
                identifier,
            },
            properties,
            children,
        })
    }

    fn read_properties(&mut self) -> Result<Vec<Property>> {
        let count = self.read_varint()? as usize;
        if count > self.input.len() - self.pos {
            return Err(Error::parse(
                self.pos,
                "property count longer than document",
            ));
        }
        let mut out = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let category = match self.read_varint()? {
                c @ 0..=3 => PropertyCategory::CANONICAL[c as usize],
                4 => PropertyCategory::Extension(self.read_symbol()?),
                other => {
                    return Err(Error::parse(
                        self.pos,
                        format!("bad property category tag {other}"),
                    ))
                }
            };
            let identifier = self.read_symbol()?;
            let value = self.read_value()?;
            out.push(Property {
                category,
                identifier,
                value,
            });
        }
        Ok(out)
    }

    /// Parses the index section (the index flag byte already consumed),
    /// validating every structural property cheap enough to check without
    /// metric evaluations: bounded shard counts, node counts that sum to
    /// the document's plan count, causal parent edges, u32-ranged
    /// distances.
    fn read_index(&mut self) -> Result<IndexSection> {
        let fingerprint_flags = self.read_byte("index fingerprint flags")?;
        let shard_count = self.read_varint()?;
        if shard_count > MAX_INDEX_SHARDS as u64 {
            return Err(Error::parse(
                self.pos,
                format!("index section exceeds the codec limit of {MAX_INDEX_SHARDS} shards"),
            ));
        }
        let mut shards = Vec::with_capacity(shard_count as usize);
        let mut total_nodes = 0u64;
        for _ in 0..shard_count {
            let nodes = self.read_varint()?;
            total_nodes = total_nodes.saturating_add(nodes);
            if total_nodes > self.plan_count {
                return Err(Error::parse(
                    self.pos,
                    format!(
                        "index section covers {total_nodes}+ items but the document \
                         holds {} plans",
                        self.plan_count
                    ),
                ));
            }
            let edge_count = nodes.saturating_sub(1) as usize;
            // Each edge costs ≥ 2 bytes; a count past that bound is corrupt
            // (and must not pre-size a huge vector).
            if edge_count > (self.input.len() - self.pos) / 2 + 1 {
                return Err(Error::parse(self.pos, "index edges longer than document"));
            }
            let mut edges = Vec::with_capacity(edge_count);
            for child in 1..=edge_count as u64 {
                let parent = self.read_varint()?;
                if parent >= child {
                    return Err(Error::parse(
                        self.pos,
                        format!("index edge {child} has non-causal parent {parent}"),
                    ));
                }
                let distance = self.read_varint()?;
                let distance = u32::try_from(distance).map_err(|_| {
                    Error::parse(self.pos, format!("index distance {distance} overflows u32"))
                })?;
                edges.push((parent as u32, distance));
            }
            shards.push(ShardTopology { nodes, edges });
        }
        if total_nodes != self.plan_count {
            return Err(Error::parse(
                self.pos,
                format!(
                    "index section covers {total_nodes} items but the document holds {} plans",
                    self.plan_count
                ),
            ));
        }
        Ok(IndexSection {
            fingerprint_flags,
            shards,
        })
    }

    /// Parses the feature section (its flag bit already consumed),
    /// validating the declared dimension against [`MAX_FEATURE_DIM`] and
    /// the implied value count against the remaining input.
    fn read_features(&mut self) -> Result<FeatureSection> {
        let dim = self.read_varint()?;
        if dim == 0 || dim > MAX_FEATURE_DIM as u64 {
            return Err(Error::parse(
                self.pos,
                format!("feature dimension {dim} outside 1..={MAX_FEATURE_DIM}"),
            ));
        }
        let total = self.plan_count.saturating_mul(dim);
        // Each value costs ≥ 1 byte; a count past that bound is corrupt
        // (and must not pre-size a huge vector).
        if total > (self.input.len() - self.pos) as u64 {
            return Err(Error::parse(
                self.pos,
                "feature section longer than document",
            ));
        }
        let mut values = Vec::with_capacity(total as usize);
        for _ in 0..total {
            let value = self.read_varint()?;
            let value = u32::try_from(value).map_err(|_| {
                Error::parse(self.pos, format!("feature value {value} overflows u32"))
            })?;
            values.push(value);
        }
        Ok(FeatureSection {
            dim: dim as u32,
            values,
        })
    }

    fn read_value(&mut self) -> Result<Value> {
        Ok(match self.read_byte("value tag")? {
            VALUE_NULL => Value::Null,
            VALUE_FALSE => Value::Bool(false),
            VALUE_TRUE => Value::Bool(true),
            VALUE_INT => Value::Int(unzigzag(self.read_varint()?)),
            VALUE_FLOAT => {
                let end = self.pos + 8;
                if end > self.input.len() {
                    return Err(Error::UnexpectedEof("float value".to_owned()));
                }
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&self.input[self.pos..end]);
                self.pos = end;
                Value::Float(f64::from_le_bytes(bytes))
            }
            VALUE_STR => Value::Str(self.read_str("string value")?.to_owned()),
            other => return Err(Error::parse(self.pos - 1, format!("bad value tag {other}"))),
        })
    }
}

/// What a best-effort [`salvage`] decode recovered from a damaged
/// document.
#[derive(Debug)]
pub struct SalvageOutcome {
    /// Plans recovered, in document order — always a prefix of the
    /// document's plan stream.
    pub plans: Vec<UnifiedPlan>,
    /// Plans the header declared (0 when the header itself was
    /// unreadable).
    pub declared: u64,
    /// The persisted index section — only present when the *entire*
    /// document decoded cleanly (a dropped plan invalidates the index's
    /// shard populations).
    pub index: Option<IndexSection>,
    /// The error that stopped the scan; `None` means the document was
    /// intact end to end.
    pub error: Option<Error>,
    /// `true` when every recovered plan came from a CRC-verified block
    /// (version ≥ 3). Pre-checksum documents salvage too, but their
    /// surviving plans are decodable-not-verified.
    pub verified: bool,
}

impl SalvageOutcome {
    /// Declared plans that could not be recovered.
    pub fn dropped(&self) -> u64 {
        self.declared.saturating_sub(self.plans.len() as u64)
    }
}

/// Best-effort decode of a possibly corrupted or truncated document:
/// recovers the longest cleanly-decodable prefix of plans instead of
/// failing wholesale. Never panics on any input. On version-3 documents
/// every recovered plan comes from a checksum-verified block, so a
/// truncation at byte `b` recovers exactly the plans of the blocks that
/// end at or before `b` (see [`SectionBoundary`]).
pub fn salvage(input: &[u8]) -> SalvageOutcome {
    let mut dec = match BinaryDecoder::new(input) {
        Ok(dec) => dec,
        Err(error) => {
            return SalvageOutcome {
                plans: Vec::new(),
                declared: 0,
                index: None,
                error: Some(error),
                verified: false,
            }
        }
    };
    let declared = dec.plan_count();
    let verified = dec.version() >= 3;
    let mut plans = Vec::new();
    loop {
        match dec.next_plan() {
            Ok(Some(plan)) => plans.push(plan),
            Ok(None) => {
                return SalvageOutcome {
                    plans,
                    declared,
                    index: dec.take_index(),
                    error: None,
                    verified,
                }
            }
            Err(error) => {
                if verified {
                    // A v3 block's CRC is verified before its plans decode,
                    // so a failure *inside* a block means the block lied
                    // about its own length — discard its plans, keep every
                    // completed block before it.
                    let keep = plans.len().saturating_sub(dec.block_taken as usize);
                    plans.truncate(keep);
                }
                return SalvageOutcome {
                    plans,
                    declared,
                    index: None,
                    error: Some(error),
                    verified,
                };
            }
        }
    }
}

/// Decodes the whole document purely to report its clean split points:
/// the header end, each checksum-block end (each plan end, pre-v3) and
/// the document end, with cumulative plan counts. This is what the
/// fault-injection harness truncates and splices at.
pub fn section_map(input: &[u8]) -> Result<Vec<SectionBoundary>> {
    let mut dec = BinaryDecoder::new(input)?;
    while dec.next_plan()?.is_some() {}
    Ok(dec.sections.clone())
}

/// Decodes a document that must contain exactly one plan.
pub fn from_bytes(input: &[u8]) -> Result<UnifiedPlan> {
    let mut dec = BinaryDecoder::new(input)?;
    let plan = dec
        .next_plan()?
        .ok_or_else(|| Error::Semantic("binary document contains no plan".into()))?;
    if dec.next_plan()?.is_some() {
        return Err(Error::Semantic(
            "binary document contains more than one plan".into(),
        ));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::legacy::strip_checksums;
    use crate::model::{PlanNode, Property};

    fn sample() -> UnifiedPlan {
        let scan = PlanNode::producer("Full_Table_Scan")
            .with_property(Property::configuration("name_object", "t0"))
            .with_property(Property::cardinality("rows", 1000))
            .with_property(Property::cost("total_cost", 35.5))
            .with_property(Property::status("parallel", false));
        let join = PlanNode::join("Hash_Join").with_child(scan).with_child(
            PlanNode::executor("Hash_Row").with_child(PlanNode::producer("Index_Scan")),
        );
        UnifiedPlan::with_root(join)
            .with_plan_property(Property::status("planning_time_ms", 0.124))
            .with_plan_property(Property::status("nothing", Value::Null))
    }

    #[test]
    fn round_trips_a_rich_plan() {
        let plan = sample();
        assert_eq!(from_bytes(&to_bytes(&plan).unwrap()).unwrap(), plan);
    }

    #[test]
    fn round_trips_edge_plans() {
        for plan in [
            UnifiedPlan::new(),
            UnifiedPlan::properties_only(vec![
                Property::cardinality("series", 5),
                Property::status("min_int", i64::MIN),
                Property::status("max_int", i64::MAX),
            ]),
            UnifiedPlan::with_root(PlanNode::producer("Scan")),
            UnifiedPlan::with_root(PlanNode::new(Operation::new(
                OperationCategory::Extension(Symbol::intern("Mapper")),
                "Custom_Op",
            ))),
        ] {
            assert_eq!(
                from_bytes(&to_bytes(&plan).unwrap()).unwrap(),
                plan,
                "{plan:?}"
            );
        }
    }

    #[test]
    fn extension_property_categories_round_trip() {
        let plan = UnifiedPlan::properties_only(vec![Property {
            category: PropertyCategory::Extension(Symbol::intern("Provenance")),
            identifier: Symbol::intern("origin"),
            value: Value::Str("unit \u{2192} test".into()),
        }]);
        assert_eq!(from_bytes(&to_bytes(&plan).unwrap()).unwrap(), plan);
    }

    #[test]
    fn multi_plan_stream_round_trips_in_order() {
        let plans = [
            sample(),
            UnifiedPlan::new(),
            UnifiedPlan::with_root(PlanNode::producer("Index_Scan")),
        ];
        let mut enc = BinaryEncoder::new();
        for plan in &plans {
            enc.push(plan).unwrap();
        }
        assert_eq!(enc.plan_count(), 3);
        let bytes = enc.finish();
        let mut dec = BinaryDecoder::new(&bytes).unwrap();
        assert_eq!(dec.remaining(), 3);
        for plan in &plans {
            assert_eq!(dec.next_plan().unwrap().as_ref(), Some(plan));
        }
        assert_eq!(dec.next_plan().unwrap(), None);
    }

    #[test]
    fn shared_symbols_are_written_once() {
        // 100 identical plans: the symbol table must not grow with the
        // plan count, and per-plan cost must be a handful of bytes.
        let plan = UnifiedPlan::with_root(
            PlanNode::join("Hash_Join")
                .with_child(PlanNode::producer("Full_Table_Scan"))
                .with_child(PlanNode::producer("Full_Table_Scan")),
        );
        let one = to_bytes(&plan).unwrap().len();
        let mut enc = BinaryEncoder::new();
        for _ in 0..100 {
            enc.push(&plan).unwrap();
        }
        let hundred = enc.finish().len();
        assert!(
            hundred < one + 99 * 16,
            "symbol table amortization failed: 1 plan = {one}B, 100 plans = {hundred}B"
        );
    }

    /// Rewrites a v2 no-index document as its exact v1 equivalent: the
    /// version varint drops to 1 and the trailing zero index flag (which
    /// v1 does not have) is removed. Byte-exact because both versions
    /// encode plans identically.
    fn downgrade_to_v1(mut bytes: Vec<u8>) -> Vec<u8> {
        assert_eq!(bytes[4], 2, "version varint");
        assert_eq!(bytes.last(), Some(&0), "no-index flag");
        bytes[4] = 1;
        bytes.pop();
        bytes
    }

    /// Decodes a whole document: every plan plus the index section.
    fn decode_all(bytes: &[u8]) -> Result<(Vec<UnifiedPlan>, Option<IndexSection>)> {
        let mut dec = BinaryDecoder::new(bytes)?;
        let mut plans = Vec::new();
        while let Some(plan) = dec.next_plan()? {
            plans.push(plan);
        }
        Ok((plans, dec.take_index()))
    }

    fn sample_index() -> IndexSection {
        IndexSection {
            fingerprint_flags: 0b011,
            shards: vec![
                ShardTopology {
                    nodes: 2,
                    edges: vec![(0, 5)],
                },
                ShardTopology {
                    nodes: 1,
                    edges: vec![],
                },
                ShardTopology {
                    nodes: 0,
                    edges: vec![],
                },
            ],
        }
    }

    fn indexed_document() -> Vec<u8> {
        let mut enc = BinaryEncoder::new();
        enc.push(&sample()).unwrap();
        enc.push(&UnifiedPlan::with_root(PlanNode::producer("Index_Scan")))
            .unwrap();
        enc.push(&UnifiedPlan::new()).unwrap();
        enc.finish_with_index(&sample_index())
    }

    #[test]
    fn v1_documents_still_decode_identically() {
        let plans = [sample(), UnifiedPlan::new()];
        let mut enc = BinaryEncoder::new();
        for plan in &plans {
            enc.push(plan).unwrap();
        }
        let v2 = strip_checksums(&enc.finish());
        let v1 = downgrade_to_v1(v2.clone());
        let (from_v1, ix1) = decode_all(&v1).unwrap();
        let (from_v2, ix2) = decode_all(&v2).unwrap();
        assert_eq!(from_v1, from_v2);
        assert_eq!(from_v1, plans.to_vec());
        assert!(ix1.is_none() && ix2.is_none());
        let mut dec = BinaryDecoder::new(&v1).unwrap();
        assert_eq!(dec.version(), 1);
        let mut dec2 = BinaryDecoder::new(&v2).unwrap();
        assert_eq!(dec2.version(), 2);
        let _ = (dec.next_plan(), dec2.next_plan());
    }

    #[test]
    fn index_section_round_trips() {
        let bytes = indexed_document();
        let (plans, index) = decode_all(&bytes).unwrap();
        assert_eq!(plans.len(), 3);
        assert_eq!(index, Some(sample_index()));
        // The index only becomes available after exhaustion.
        let mut dec = BinaryDecoder::new(&bytes).unwrap();
        assert!(dec.take_index().is_none());
    }

    fn sample_features() -> FeatureSection {
        FeatureSection {
            dim: 4,
            values: vec![3, 0, 1, 7, 1, 0, 0, 2, 0, 0, 0, 0],
        }
    }

    fn featured_document() -> Vec<u8> {
        let mut enc = BinaryEncoder::new();
        enc.push(&sample()).unwrap();
        enc.push(&UnifiedPlan::with_root(PlanNode::producer("Index_Scan")))
            .unwrap();
        enc.push(&UnifiedPlan::new()).unwrap();
        enc.finish_with_sections(&sample_index(), &sample_features())
    }

    #[test]
    fn feature_section_round_trips_as_version_4() {
        let bytes = featured_document();
        let mut dec = BinaryDecoder::new(&bytes).unwrap();
        assert_eq!(dec.version(), FEATURED_BINARY_VERSION);
        assert!(dec.take_features().is_none(), "only after exhaustion");
        let mut plans = Vec::new();
        while let Some(plan) = dec.next_plan().unwrap() {
            plans.push(plan);
        }
        assert_eq!(plans.len(), 3);
        assert_eq!(dec.take_index(), Some(sample_index()));
        assert_eq!(dec.take_features(), Some(sample_features()));
        // Featureless documents keep their exact pre-v4 encoding.
        let mut enc = BinaryEncoder::new();
        enc.push(&sample()).unwrap();
        let plain = enc.finish();
        assert_eq!(plain[4], 3, "finish() stays on version 3");
    }

    #[test]
    fn featured_documents_reject_corruption_and_hostile_sections() {
        let bytes = featured_document();
        for len in 0..bytes.len() {
            assert!(decode_all(&bytes[..len]).is_err(), "truncated at {len}");
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xff;
            let _ = decode_all(&corrupt);
        }
        // A v3 document must not claim a feature section: flag bit 1 is
        // admitted from version 4 on only. (Flip the flag byte in an
        // unchecked v2 document so no checksum masks the structural error.)
        let mut doc = strip_checksums(&to_bytes(&UnifiedPlan::new()).unwrap());
        let pos = doc.len() - 1;
        assert_eq!(doc[pos], 0);
        doc[pos] = 0b10;
        let err = decode_all(&doc).unwrap_err();
        assert!(err.to_string().contains("index flag"), "{err}");
        // Hostile dimensions: 0 and past the codec limit, spliced into a
        // crafted v4 document with no plans.
        let craft = |section: &[u8]| {
            let mut doc = Vec::new();
            doc.extend_from_slice(&BINARY_MAGIC);
            doc.push(4); // version
            doc.push(0); // no symbols
            doc.push(0); // no plans
            let header_crc = crc32(&doc);
            doc.extend_from_slice(&header_crc.to_le_bytes());
            let tail_start = doc.len();
            doc.push(0b10); // features only
            doc.extend_from_slice(section);
            let tail_crc = crc32(&doc[tail_start..]);
            doc.extend_from_slice(&tail_crc.to_le_bytes());
            doc
        };
        let mut oversized = Vec::new();
        write_varint(&mut oversized, MAX_FEATURE_DIM as u64 + 1);
        for section in [&[0u8][..], &oversized] {
            let err = decode_all(&craft(section)).unwrap_err();
            assert!(err.to_string().contains("feature dimension"), "{err}");
        }
        // A zero-plan document with a legal dim carries zero values.
        let (plans, _) = decode_all(&craft(&[7u8])).unwrap();
        assert!(plans.is_empty());
    }

    #[test]
    fn indexed_documents_reject_truncation_at_every_boundary() {
        // Every strict prefix — plan bodies, the index flag byte, the
        // section header, every edge — must error, never panic or silently
        // drop the index.
        let bytes = indexed_document();
        for len in 0..bytes.len() {
            assert!(decode_all(&bytes[..len]).is_err(), "truncated at {len}");
        }
        // Single-byte corruptions error or decode to *something* — never
        // panic.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xff;
            let _ = decode_all(&corrupt);
        }
    }

    #[test]
    fn index_section_limits_are_enforced() {
        // Build a plan-free document by hand and splice hostile sections
        // after a 1-flag.
        let craft = |section: &[u8]| {
            let mut doc = Vec::new();
            doc.extend_from_slice(&BINARY_MAGIC);
            doc.push(2); // version
            doc.push(0); // no symbols
            doc.push(0); // no plans
            doc.push(1); // index present
            doc.extend_from_slice(section);
            doc
        };
        // Shard count past the codec limit.
        let mut oversized = vec![0u8]; // fingerprint flags
        write_varint(&mut oversized, MAX_INDEX_SHARDS as u64 + 1);
        let err = decode_all(&craft(&oversized)).unwrap_err();
        assert!(err.to_string().contains("codec limit"), "{err}");
        // Node counts exceeding the document's plan count (0 here).
        let err = decode_all(&craft(&[0, 1, 1])).unwrap_err();
        assert!(err.to_string().contains("holds 0 plans"), "{err}");
        // Bad flag byte.
        let mut bad_flag = craft(&[]);
        let pos = bad_flag.len() - 1;
        bad_flag[pos] = 9;
        let err = decode_all(&bad_flag).unwrap_err();
        assert!(err.to_string().contains("index flag"), "{err}");
        // Non-causal parent edge: one 2-node shard whose node 1 claims
        // parent 1 (itself). Unchecked layout, so the mutation reaches the
        // structural validator instead of tripping the tail checksum.
        let mut enc = BinaryEncoder::new();
        enc.push(&UnifiedPlan::new()).unwrap();
        enc.push(&UnifiedPlan::new()).unwrap();
        let good = strip_checksums(&enc.finish_with_index(&IndexSection {
            fingerprint_flags: 0,
            shards: vec![ShardTopology {
                nodes: 2,
                edges: vec![(0, 3)],
            }],
        }));
        let mut non_causal = good.clone();
        let parent_pos = good.len() - 2;
        non_causal[parent_pos] = 1;
        let err = decode_all(&non_causal).unwrap_err();
        assert!(err.to_string().contains("non-causal"), "{err}");
        assert!(decode_all(&good).is_ok());
    }

    #[test]
    fn unsupported_versions_are_rejected_in_both_directions() {
        let good = to_bytes(&UnifiedPlan::new()).unwrap();
        for bad in [0u8, 5, 0x7f] {
            let mut doc = good.clone();
            doc[4] = bad;
            let err = match BinaryDecoder::new(&doc) {
                Err(err) => err,
                Ok(_) => panic!("version {bad} must be rejected"),
            };
            assert!(err.to_string().contains("version"), "{bad}: {err}");
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let plan = UnifiedPlan::with_root(PlanNode::producer("Scan"));
        let good = to_bytes(&plan).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(from_bytes(&bad_magic).is_err());

        let mut bad_version = good.clone();
        bad_version[4] = 0x7f; // varint 127 ≠ BINARY_CODEC_VERSION
        let err = from_bytes(&bad_version).unwrap_err();
        assert!(
            err.to_string().contains("version"),
            "unexpected error: {err}"
        );

        assert!(from_bytes(&[]).is_err());
        assert!(from_bytes(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn corrupt_documents_error_rather_than_panic() {
        let plan = sample();
        let good = to_bytes(&plan).unwrap();
        // Truncations at every length must produce an error, never a panic
        // or a silently short plan.
        for len in 0..good.len() {
            assert!(from_bytes(&good[..len]).is_err(), "truncated at {len}");
        }
        // Single-byte corruptions either error or decode to *some* plan —
        // never panic.
        for i in 0..good.len() {
            let mut corrupt = good.clone();
            corrupt[i] ^= 0xff;
            let _ = from_bytes(&corrupt);
        }
    }

    #[test]
    fn symbol_table_entries_must_be_keywords() {
        // Handcraft a document whose symbol table carries a non-keyword.
        let mut doc = Vec::new();
        doc.extend_from_slice(&BINARY_MAGIC);
        doc.push(BINARY_CODEC_VERSION as u8);
        doc.push(1); // one symbol
        doc.push(3);
        doc.extend_from_slice(b"9 x");
        doc.push(0); // zero plans
        assert!(matches!(
            BinaryDecoder::new(&doc),
            Err(Error::InvalidKeyword(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = to_bytes(&UnifiedPlan::new()).unwrap();
        bytes.push(0xaa);
        let mut dec = BinaryDecoder::new(&bytes).unwrap();
        assert!(dec.next_plan().unwrap().is_some());
        assert!(dec.next_plan().is_err());
    }

    #[test]
    fn binary_is_denser_than_json() {
        let plan = sample();
        let json = crate::formats::unified::to_json(&plan);
        let binary = to_bytes(&plan).unwrap();
        assert!(
            binary.len() * 3 < json.len(),
            "binary {}B vs JSON {}B",
            binary.len(),
            json.len()
        );
    }

    #[test]
    fn symbol_limit_is_symmetric() {
        // Decoder side: a declared table bigger than MAX_SYMBOLS is
        // rejected before a single spelling reaches the interner.
        let mut doc = Vec::new();
        doc.extend_from_slice(&BINARY_MAGIC);
        doc.push(BINARY_CODEC_VERSION as u8);
        write_varint(&mut doc, MAX_SYMBOLS as u64 + 1);
        let err = match BinaryDecoder::new(&doc) {
            Err(err) => err,
            Ok(_) => panic!("oversized symbol table must be rejected"),
        };
        assert!(err.to_string().contains("codec limit"), "{err}");

        // Encoder side: a plan that would push the document past the limit
        // is refused (and the document left usable).
        let mut wide = UnifiedPlan::new();
        for i in 0..=MAX_SYMBOLS {
            wide.properties
                .push(Property::status(format!("sym_limit_probe_{i}"), 1));
        }
        let mut enc = BinaryEncoder::new();
        let err = enc.push(&wide).unwrap_err();
        assert!(err.to_string().contains("codec limit"), "{err}");
        assert_eq!(enc.plan_count(), 0);
        enc.push(&UnifiedPlan::new()).unwrap();
        assert_eq!(
            BinaryDecoder::new(&enc.finish()).unwrap().remaining(),
            1,
            "a refused plan must not corrupt the document"
        );
    }

    #[test]
    fn depth_limit_is_symmetric() {
        // Encode and decode enforce the same bound: a plan at the limit
        // round-trips; one past it is rejected *at encode time*, so no
        // document can exist that saves but cannot load.
        let chain = |depth: usize| {
            let mut node = PlanNode::producer("Leaf");
            for _ in 1..depth {
                node = PlanNode::executor("Wrap").with_child(node);
            }
            UnifiedPlan::with_root(node)
        };
        let at_limit = chain(MAX_PLAN_DEPTH);
        let bytes = to_bytes(&at_limit).unwrap();
        assert_eq!(from_bytes(&bytes).unwrap(), at_limit);

        let err = to_bytes(&chain(MAX_PLAN_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("codec limit"), "{err}");
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    /// A multi-block v3 document: `n` small distinct plans plus an
    /// optionally attached (single-shard) index.
    fn multi_block_document(n: usize) -> (Vec<UnifiedPlan>, Vec<u8>) {
        let plans: Vec<UnifiedPlan> = (0..n)
            .map(|i| {
                UnifiedPlan::with_root(
                    PlanNode::producer("Index_Scan")
                        .with_property(Property::cardinality("rows", i as i64)),
                )
            })
            .collect();
        let mut enc = BinaryEncoder::new();
        for plan in &plans {
            enc.push(plan).unwrap();
        }
        (plans, enc.finish())
    }

    #[test]
    fn checked_documents_round_trip_across_block_boundaries() {
        // Exactly one block, a full block, and a multi-block document with
        // a ragged final block.
        for n in [1usize, 256, 600] {
            let (plans, bytes) = multi_block_document(n);
            assert_eq!(bytes[4], BINARY_CODEC_VERSION as u8, "version varint");
            let (decoded, index) = decode_all(&bytes).unwrap();
            assert_eq!(decoded, plans, "{n} plans");
            assert!(index.is_none());
        }
    }

    #[test]
    fn every_byte_inversion_of_a_checked_document_is_detected() {
        // v3's whole point: no single corrupted byte can slip through a
        // strict load. Every section is CRC-covered; the few uncovered
        // bytes (magic, the CRCs themselves) fail structurally.
        let (_, bytes) = multi_block_document(5);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xff;
            assert!(
                decode_all(&corrupt).is_err(),
                "inverted byte {i} went undetected"
            );
        }
    }

    #[test]
    fn salvage_recovers_exactly_the_blocks_before_a_truncation() {
        let (plans, bytes) = multi_block_document(600);
        let sections = section_map(&bytes).unwrap();
        // header + ceil(600/256) blocks + tail.
        assert_eq!(sections.len(), 2 + 600usize.div_ceil(256));
        assert_eq!(sections.last().unwrap().end, bytes.len());
        assert_eq!(sections.last().unwrap().plans, 600);
        for boundary in &sections {
            let outcome = salvage(&bytes[..boundary.end]);
            assert!(outcome.verified);
            assert_eq!(outcome.declared, 600);
            assert_eq!(outcome.plans.len() as u64, boundary.plans, "{boundary:?}");
            assert_eq!(outcome.dropped(), 600 - boundary.plans);
            assert_eq!(outcome.plans[..], plans[..boundary.plans as usize]);
            // Only the untruncated document is clean.
            assert_eq!(outcome.error.is_none(), boundary.end == bytes.len());
        }
    }

    #[test]
    fn salvage_stops_at_a_corrupted_block_and_reports_it() {
        let (plans, bytes) = multi_block_document(600);
        let sections = section_map(&bytes).unwrap();
        // Flip one byte inside the second block's plan bodies.
        let mut corrupt = bytes.clone();
        let offset = sections[1].end + 8;
        corrupt[offset] ^= 0x10;
        let outcome = salvage(&corrupt);
        assert_eq!(outcome.plans.len(), 256, "first block survives");
        assert_eq!(outcome.plans[..], plans[..256]);
        assert_eq!(outcome.dropped(), 600 - 256);
        assert!(
            matches!(outcome.error, Some(Error::Checksum { ref section, .. }) if section == "plan block 1"),
            "{:?}",
            outcome.error
        );
        // A corrupted *tail* loses only the index: every plan survives.
        let mut tail_corrupt = bytes.clone();
        let last = tail_corrupt.len() - 3;
        tail_corrupt[last] ^= 0x01;
        let outcome = salvage(&tail_corrupt);
        assert_eq!(outcome.plans.len(), 600);
        assert!(outcome.index.is_none());
        assert!(outcome.error.is_some());
    }

    #[test]
    fn salvage_of_an_intact_document_is_lossless() {
        let bytes = indexed_document();
        let outcome = salvage(&bytes);
        assert!(outcome.error.is_none());
        assert_eq!(outcome.plans.len(), 3);
        assert_eq!(outcome.dropped(), 0);
        assert_eq!(outcome.index, Some(sample_index()));
    }

    #[test]
    fn salvage_of_unchecked_documents_is_best_effort() {
        let plans = [sample(), UnifiedPlan::new(), sample()];
        let mut enc = BinaryEncoder::new();
        for plan in &plans {
            enc.push(plan).unwrap();
        }
        let bytes = strip_checksums(&enc.finish());
        let sections = section_map(&bytes).unwrap();
        // Pre-v3 sections are per-plan; truncating after the second plan
        // recovers two (decodable, unverified) plans.
        let cut = sections[2].end;
        let outcome = salvage(&bytes[..cut]);
        assert!(!outcome.verified);
        assert_eq!(outcome.plans.len(), 2);
        assert_eq!(outcome.plans[..], plans[..2]);
        assert!(outcome.error.is_some());
    }

    #[test]
    fn salvage_never_panics_on_arbitrary_corruption() {
        let (_, bytes) = multi_block_document(40);
        for i in 0..bytes.len() {
            for bit in [0u8, 3, 7] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                let _ = salvage(&corrupt);
            }
        }
        for len in 0..bytes.len() {
            let _ = salvage(&bytes[..len]);
        }
        let _ = salvage(b"");
        let _ = salvage(b"UPLN");
    }
}
