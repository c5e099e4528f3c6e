//! Compact binary plan-body codec — the encoding of every plan a segment
//! store persists.
//!
//! JSON is the interchange format of the unified representation; it is not
//! the right format for *populations* of plans: the JSON path pays per plan
//! for lexing, escape handling and keyword re-validation. This module
//! defines a symbol-ref, varint-encoded plan body that amortizes all of
//! that across many plans. The encoder writes plans against one shared
//! symbol table and cuts the bodies into checksum blocks of
//! [`CHECKSUM_BLOCK_PLANS`] plans; the segment codec ([`super::segment`])
//! frames the table, the blocks and their CRCs, and decodes each body here
//! on first touch.
//!
//! ```text
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
//! once into the symbol table and referenced by index from then on;
//! decoding validates and interns each spelling exactly once per table,
//! not once per node, which is where the decode speedup over JSON comes
//! from. Property string values are inline (they are open-world data, and
//! the interner must never see them). Symbol-table spellings *are*
//! interned — exactly like identifiers parsed from any other format — so,
//! since interned spellings live for the process, a table is capped at
//! [`MAX_SYMBOLS`] entries: a hostile file can leak at most a bounded
//! vocabulary, not memory proportional to its size.
//!
//! `tests/golden.rs` pins the exact body bytes of a reference plan, inside
//! the exact segment file of a one-plan corpus.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::model::{
    Operation, OperationCategory, PlanNode, Property, PropertyCategory, UnifiedPlan,
};
use crate::symbol::Symbol;
use crate::value::Value;

/// Plans per checksummed block. Small enough that a corrupted block loses
/// at most a sliver of a large segment, large enough that the
/// 4-byte-per-block framing is noise (a 10k-plan segment carries ~40
/// blocks).
pub const CHECKSUM_BLOCK_PLANS: u64 = 256;

/// Maximum plan tree depth the codec admits, enforced symmetrically: the
/// encoder refuses to write a deeper plan and the decoder refuses to read
/// one (recursion guard against stack exhaustion on hostile input).
/// Anything that encodes is guaranteed to decode — a persistence format
/// must never accept what it cannot return. 512 is an order of magnitude
/// past the deepest real explain output while keeping codec recursion well
/// inside a default 2 MiB thread stack even in unoptimized builds.
pub const MAX_PLAN_DEPTH: usize = 512;

/// Maximum distinct identifiers per symbol table, enforced symmetrically
/// like [`MAX_PLAN_DEPTH`]. Identifiers come from catalog-shaped
/// vocabularies (the nine studied DBMSs total a few hundred), so 65 536 is
/// far beyond any real corpus while bounding how much a hostile file can
/// force into the process-global interner (interned spellings are never
/// freed).
pub const MAX_SYMBOLS: usize = 1 << 16;

/// Maximum shard count a segment or manifest may declare. Corpus sharding
/// is a small power of two sized to core counts; 256 is far beyond that
/// while keeping a hostile file from declaring billions of empty shards.
pub const MAX_INDEX_SHARDS: usize = 256;

/// Maximum feature-vector width a segment or manifest may declare. The
/// current corpus vectors are 20-wide; 64 leaves headroom for richer
/// profiles while bounding what a hostile file can make the reader
/// allocate per plan.
pub const MAX_FEATURE_DIM: usize = 64;

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

/// Streaming encoder for plan bodies sharing one symbol table.
///
/// Plans are encoded into an in-memory body as they are pushed while the
/// symbol table accumulates; the segment codec takes both apart with
/// [`BinaryEncoder::into_parts`] and frames them.
#[derive(Debug)]
pub(crate) struct BinaryEncoder {
    table: Vec<Symbol>,
    refs: HashMap<Symbol, u32>,
    body: Vec<u8>,
    plans: u64,
    /// Body offsets at which each checksum block starts.
    block_starts: Vec<usize>,
}

impl BinaryEncoder {
    /// An empty encoder with an empty symbol table.
    pub(crate) fn new() -> BinaryEncoder {
        BinaryEncoder {
            table: Vec::new(),
            refs: HashMap::new(),
            body: Vec::new(),
            plans: 0,
            block_starts: Vec::new(),
        }
    }

    /// Number of plans pushed so far.
    pub(crate) fn plan_count(&self) -> u64 {
        self.plans
    }

    /// Current byte length of the encoded plan bodies — the *body-relative*
    /// offset the next pushed plan will start at. The segment codec records
    /// this before each push to build its per-plan offset table.
    pub(crate) fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Pre-registers a symbol so its table index matches an existing
    /// cross-segment symbol chain (segment stores share one chain; every
    /// segment's encoder is seeded with the chain so far, making symbol
    /// refs chain-global). Seeds must be applied before any plan is pushed
    /// and in chain order.
    pub(crate) fn seed_symbol(&mut self, sym: Symbol) {
        debug_assert_eq!(self.plans, 0, "seed the chain before pushing plans");
        self.symbol_ref(sym);
    }

    /// Dismantles the encoder: the full symbol table (seeds included, in
    /// ref order), the raw plan bodies, and the body offsets at which each
    /// checksum block starts.
    pub(crate) fn into_parts(self) -> (Vec<Symbol>, Vec<u8>, Vec<usize>) {
        (self.table, self.body, self.block_starts)
    }

    /// Encodes one plan body. Errors (leaving the encoder unchanged) on
    /// plans deeper than [`MAX_PLAN_DEPTH`] or pushing the table past
    /// [`MAX_SYMBOLS`] distinct identifiers — both of which the decoder
    /// would refuse to read back.
    pub(crate) fn push(&mut self, plan: &UnifiedPlan) -> Result<()> {
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

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// A byte cursor over an encoded document: the byte, varint and
/// length-prefixed-string reads both the plan-body decoder and the segment
/// layouts are built from. Every error names the field being read, `what`.
pub(crate) struct Cursor<'a> {
    pub(crate) input: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next byte.
    pub(crate) fn byte(&mut self, what: &str) -> Result<u8> {
        let byte = *self
            .input
            .get(self.pos)
            .ok_or_else(|| Error::UnexpectedEof(what.to_owned()))?;
        self.pos += 1;
        Ok(byte)
    }

    /// An LEB128 `u64` of at most 10 bytes, canonical in its last group.
    pub(crate) fn varint(&mut self, what: &str) -> Result<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte(what)?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                // Reject non-canonical padding in the final (10th) group.
                if shift == 63 && byte > 1 {
                    return Err(Error::parse(
                        self.pos - 1,
                        format!("{what} overflows 64 bits"),
                    ));
                }
                return Ok(value);
            }
        }
        Err(Error::parse(self.pos, format!("{what} varint too long")))
    }

    /// The next `len` bytes.
    pub(crate) fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|end| *end <= self.input.len())
            .ok_or_else(|| Error::UnexpectedEof(what.to_owned()))?;
        let bytes = &self.input[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    /// The next `len` bytes as UTF-8.
    pub(crate) fn utf8(&mut self, len: usize, what: &str) -> Result<&'a str> {
        let at = self.pos;
        std::str::from_utf8(self.take(len, what)?)
            .map_err(|_| Error::parse(at, format!("{what} is not valid UTF-8")))
    }

    /// A varint length, then that many bytes of UTF-8.
    pub(crate) fn str(&mut self, what: &str) -> Result<&'a str> {
        let len = self.varint(what)? as usize;
        self.utf8(len, what)
    }
}

/// Decoder over bare plan bodies against an externally supplied symbol
/// table — the offset-addressed decode path of the segment codec, where
/// one shared symbol chain serves every plan of every segment and each
/// plan decodes independently on first touch. The caller owns all
/// integrity checking (segment blocks are CRC-verified before any body in
/// them decodes).
pub(crate) struct BinaryDecoder<'a> {
    cur: Cursor<'a>,
    symbols: &'a [Symbol],
}

impl<'a> BinaryDecoder<'a> {
    /// A decoder positioned at `input[pos..]`, resolving symbol refs
    /// against `symbols`.
    pub(crate) fn new(input: &'a [u8], pos: usize, symbols: &'a [Symbol]) -> BinaryDecoder<'a> {
        BinaryDecoder {
            cur: Cursor { input, pos },
            symbols,
        }
    }

    /// Current byte position in the input (segment decodes validate that a
    /// plan body consumed exactly its recorded length).
    pub(crate) fn position(&self) -> usize {
        self.cur.pos
    }

    /// Decodes the plan body at the current position.
    pub(crate) fn decode_plan(&mut self) -> Result<UnifiedPlan> {
        let flags = self.cur.byte("plan flags")?;
        if flags > 1 {
            return Err(Error::parse(
                self.cur.pos - 1,
                format!("bad plan flags {flags:#x}"),
            ));
        }
        let root = if flags & 1 == 1 {
            Some(self.read_node(0)?)
        } else {
            None
        };
        let properties = self.read_properties()?;
        Ok(UnifiedPlan { root, properties })
    }

    fn read_varint(&mut self) -> Result<u64> {
        self.cur.varint("varint")
    }

    fn read_symbol(&mut self) -> Result<Symbol> {
        let id = self.read_varint()? as usize;
        self.symbols
            .get(id)
            .copied()
            .ok_or_else(|| Error::parse(self.cur.pos, format!("symbol ref {id} out of range")))
    }

    fn read_node(&mut self, depth: usize) -> Result<PlanNode> {
        if depth >= MAX_PLAN_DEPTH {
            return Err(Error::parse(
                self.cur.pos,
                "plan tree deeper than codec limit",
            ));
        }
        let category = match self.read_varint()? {
            c @ 0..=6 => OperationCategory::CANONICAL[c as usize],
            7 => OperationCategory::Extension(self.read_symbol()?),
            other => {
                return Err(Error::parse(
                    self.cur.pos,
                    format!("bad operation category tag {other}"),
                ))
            }
        };
        let identifier = self.read_symbol()?;
        let properties = self.read_properties()?;
        let child_count = self.read_varint()? as usize;
        // Each child costs ≥ 4 bytes; a count past that bound is corrupt.
        if child_count > self.cur.input.len() - self.cur.pos {
            return Err(Error::parse(
                self.cur.pos,
                "child count longer than document",
            ));
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
        if count > self.cur.input.len() - self.cur.pos {
            return Err(Error::parse(
                self.cur.pos,
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
                        self.cur.pos,
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

    fn read_value(&mut self) -> Result<Value> {
        Ok(match self.cur.byte("value tag")? {
            VALUE_NULL => Value::Null,
            VALUE_FALSE => Value::Bool(false),
            VALUE_TRUE => Value::Bool(true),
            VALUE_INT => Value::Int(unzigzag(self.read_varint()?)),
            VALUE_FLOAT => {
                let bytes = self.cur.take(8, "float value")?;
                Value::Float(f64::from_le_bytes(bytes.try_into().expect("took 8 bytes")))
            }
            VALUE_STR => {
                let len = self.read_varint()? as usize;
                Value::Str(self.cur.utf8(len, "string value")?.to_owned())
            }
            other => {
                return Err(Error::parse(
                    self.cur.pos - 1,
                    format!("bad value tag {other}"),
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The symbol table and body bytes of `plans` encoded as one stream.
    fn encode(plans: &[UnifiedPlan]) -> (Vec<Symbol>, Vec<u8>) {
        let mut enc = BinaryEncoder::new();
        for plan in plans {
            enc.push(plan).unwrap();
        }
        let (table, body, _) = enc.into_parts();
        (table, body)
    }

    /// Encodes `plans` as one stream and decodes every body back in order,
    /// checking that the stream is consumed exactly.
    fn round_trip(plans: &[UnifiedPlan]) -> Vec<UnifiedPlan> {
        let (table, body) = encode(plans);
        let mut dec = BinaryDecoder::new(&body, 0, &table);
        let decoded = plans.iter().map(|_| dec.decode_plan().unwrap()).collect();
        assert_eq!(dec.position(), body.len());
        decoded
    }

    #[test]
    fn round_trips_a_rich_plan() {
        let plan = sample();
        assert_eq!(round_trip(std::slice::from_ref(&plan)), vec![plan]);
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
                round_trip(std::slice::from_ref(&plan)),
                vec![plan.clone()],
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
        assert_eq!(round_trip(std::slice::from_ref(&plan)), vec![plan]);
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
        assert_eq!(round_trip(&plans), plans.to_vec());
    }

    #[test]
    fn shared_symbols_are_written_once() {
        // 100 identical plans: the symbol table must not grow with the
        // plan count, and every body after the first must cost exactly
        // what the first did.
        let plan = UnifiedPlan::with_root(
            PlanNode::join("Hash_Join")
                .with_child(PlanNode::producer("Full_Table_Scan"))
                .with_child(PlanNode::producer("Full_Table_Scan")),
        );
        let (one_table, one_body) = encode(std::slice::from_ref(&plan));
        let (table, body) = encode(&vec![plan; 100]);
        assert_eq!(table, one_table, "symbol table grew with the plan count");
        assert_eq!(body.len(), 100 * one_body.len());
        assert!(one_body.len() < 16, "{} bytes per plan", one_body.len());
    }

    #[test]
    fn corrupt_documents_error_rather_than_panic() {
        let (table, body) = encode(&[sample()]);
        let decode = |bytes: &[u8]| BinaryDecoder::new(bytes, 0, &table).decode_plan();
        // Truncations at every length must produce an error, never a panic
        // or a silently short plan.
        for len in 0..body.len() {
            assert!(decode(&body[..len]).is_err(), "truncated at {len}");
        }
        // Single-byte corruptions either error or decode to *some* plan —
        // never panic.
        for i in 0..body.len() {
            let mut corrupt = body.clone();
            corrupt[i] ^= 0xff;
            let _ = decode(&corrupt);
        }
        // A symbol ref past the table is an error, not a panic.
        assert!(BinaryDecoder::new(&body, 0, &[]).decode_plan().is_err());
    }

    #[test]
    fn binary_is_denser_than_json() {
        let plan = sample();
        let json = crate::formats::unified::to_json(&plan);
        let (table, body) = encode(std::slice::from_ref(&plan));
        let spellings: usize = table.iter().map(|s| s.as_str().len() + 1).sum();
        let binary = body.len() + spellings;
        assert!(
            binary * 3 < json.len(),
            "binary {binary}B vs JSON {}B",
            json.len()
        );
    }

    /// A one-shard segment header up to its symbol-delta count: where a
    /// reader parses symbol tables off disk.
    fn segment_header(delta_count: u64) -> Vec<u8> {
        let mut header = super::super::segment::SEGMENT_MAGIC.to_vec();
        for field in [1, 0] {
            write_varint(&mut header, field); // version, segment id
        }
        header.push(0); // fingerprint flags
        for field in [1, 0, delta_count] {
            write_varint(&mut header, field); // shards, chain base, delta count
        }
        header
    }

    #[test]
    fn symbol_table_entries_must_be_keywords() {
        // A symbol delta carrying a non-keyword spelling is refused before
        // it is interned.
        let mut segment = segment_header(1);
        segment.push(3);
        segment.extend_from_slice(b"9 x");
        segment.push(0); // zero plans
        assert!(matches!(
            super::super::segment::parse_segment(&segment),
            Err(Error::InvalidKeyword(_))
        ));
    }

    #[test]
    fn symbol_limit_is_symmetric() {
        // Decoder side: a segment whose symbol delta declares more than
        // MAX_SYMBOLS entries is rejected before a single spelling reaches
        // the interner.
        let header = segment_header(MAX_SYMBOLS as u64 + 1);
        let err = super::super::segment::parse_segment(&header).unwrap_err();
        assert!(err.to_string().contains("codec limit"), "{err}");

        // Encoder side: a plan that would push the table past the limit is
        // refused (and the encoder left usable).
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
        let (table, body, blocks) = enc.into_parts();
        assert!(table.is_empty(), "a refused plan must not leak symbols");
        assert_eq!((body, blocks), (vec![0, 0], vec![0]));
    }

    #[test]
    fn depth_limit_is_symmetric() {
        // Encode and decode enforce the same bound: a plan at the limit
        // round-trips; one past it is rejected *at encode time*, so no
        // segment can exist that saves but cannot load.
        let chain = |depth: usize| {
            let mut node = PlanNode::producer("Leaf");
            for _ in 1..depth {
                node = PlanNode::executor("Wrap").with_child(node);
            }
            UnifiedPlan::with_root(node)
        };
        let at_limit = chain(MAX_PLAN_DEPTH);
        assert_eq!(round_trip(std::slice::from_ref(&at_limit)), vec![at_limit]);

        let err = BinaryEncoder::new()
            .push(&chain(MAX_PLAN_DEPTH + 1))
            .unwrap_err();
        assert!(err.to_string().contains("codec limit"), "{err}");
    }

    /// The plan-body decoder and the segment reader share one cursor:
    /// each names its own field in the truncated, overflowing (a tenth
    /// group past bit 63) and overlong (an eleventh group) varint errors.
    #[test]
    fn varint_errors_are_pinned_for_both_cursor_callers() {
        let overflow = [[0xff; 9].as_slice(), &[0x02]].concat();
        let overlong = [0x80; 10];
        // Body: flags 0 (no root), then the property-count varint.
        let body = |varint: &[u8]| {
            let bytes = [&[0x00], varint].concat();
            BinaryDecoder::new(&bytes, 0, &[])
                .decode_plan()
                .unwrap_err()
        };
        assert_eq!(body(&[0x80]), Error::UnexpectedEof("varint".into()));
        assert_eq!(
            body(&overflow),
            Error::parse(10, "varint overflows 64 bits")
        );
        assert_eq!(body(&overlong), Error::parse(11, "varint varint too long"));
        // Segment: the magic, then the codec-version varint.
        let segment = |varint: &[u8]| {
            let bytes = [super::super::segment::SEGMENT_MAGIC.as_slice(), varint].concat();
            super::super::segment::parse_segment(&bytes).unwrap_err()
        };
        assert_eq!(
            segment(&[0x80]),
            Error::UnexpectedEof("codec version".into())
        );
        assert_eq!(
            segment(&overflow),
            Error::parse(13, "codec version overflows 64 bits")
        );
        assert_eq!(
            segment(&overlong),
            Error::parse(14, "codec version varint too long")
        );
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
