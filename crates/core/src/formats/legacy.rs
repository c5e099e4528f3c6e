//! Test-support writers for the legacy corpus formats.
//!
//! Corpora persist only as segment stores. The monolithic `UPLN` documents
//! and JSON-lines files older releases wrote stay *readable* — `repro
//! corpus import` converts them — and the readers' tests need inputs. These
//! writers produce them by reframing a corpus's segment encoding (the
//! bytes `uplan_corpus::encode_segment` returns): the plans, the symbol
//! table, the BK-index topology and the feature rows all come from the
//! segment, so each document is byte for byte what the retired corpus
//! writer produced for the same corpus.
//!
//! Compiled only for this crate's tests and under the `legacy-writer`
//! feature, which only dev-dependencies enable: no production build
//! carries a legacy writer.

use crate::formats::binary::{
    section_map, BinaryEncoder, FeatureSection, IndexSection, ShardTopology,
};
use crate::formats::segment::{decode_plan_at, parse_segment};
use crate::formats::unified;
use crate::UnifiedPlan;

/// The checksummed, indexed and featured document (UPLN v4): every plan,
/// the BK topology and the feature rows — what a legacy indexed save held.
pub fn indexed(segment: &[u8]) -> Vec<u8> {
    let (encoder, index, features) = reframe(segment);
    encoder.finish_with_sections(&index, &features)
}

/// The checksummed document without sections (UPLN v3): loading it
/// rebuilds the metric index.
pub fn plain(segment: &[u8]) -> Vec<u8> {
    reframe(segment).0.finish()
}

/// The pre-checksum indexed document (UPLN v2): the index topology, no
/// CRCs and no feature rows.
pub fn unchecked(segment: &[u8]) -> Vec<u8> {
    let (encoder, index, _) = reframe(segment);
    strip_checksums(&encoder.finish_with_index(&index))
}

/// The JSON-lines file: one compact unified-JSON plan per line.
pub fn jsonl(segment: &[u8]) -> String {
    plans(segment)
        .iter()
        .map(|plan| unified::to_json_value(plan).to_compact() + "\n")
        .collect()
}

/// Rewrites a checksummed (v3) document as its exact pre-checksum (v2)
/// equivalent: the version varint drops to 2, and the header CRC, every
/// block's length varint and CRC, and the tail CRC are removed. Plan
/// bodies and sections are byte-identical across the two layouts.
///
/// # Panics
///
/// On input that is not an intact v3 document.
pub fn strip_checksums(v3: &[u8]) -> Vec<u8> {
    let sections = section_map(v3).expect("an intact document");
    let (header, rest) = sections.split_first().expect("a header section");
    let mut out = v3[..header.end - 4].to_vec();
    assert_eq!(out[4], 3, "a version-3 document");
    out[4] = 2;
    let mut start = header.end;
    for block in &rest[..rest.len() - 1] {
        let framed = &v3[start..block.end - 4];
        let len_bytes = framed.iter().position(|b| b & 0x80 == 0).expect("a length") + 1;
        out.extend_from_slice(&framed[len_bytes..]);
        start = block.end;
    }
    out.extend_from_slice(&v3[start..v3.len() - 4]);
    out
}

/// The segment's plans, in segment order.
fn plans(segment: &[u8]) -> Vec<UnifiedPlan> {
    let view = parse_segment(segment).expect("an intact segment");
    assert_eq!(
        view.symbols_base, 0,
        "a first segment carries its whole chain"
    );
    (0..view.plan_count as usize)
        .map(|i| {
            decode_plan_at(
                segment,
                view.plan_offsets[i],
                view.plan_lens[i],
                &view.delta,
            )
            .expect("a decodable plan")
        })
        .collect()
}

/// The segment as a loaded encoder plus its index and feature sections.
fn reframe(segment: &[u8]) -> (BinaryEncoder, IndexSection, FeatureSection) {
    let view = parse_segment(segment).expect("an intact segment");
    let mut encoder = BinaryEncoder::new();
    for plan in plans(segment) {
        encoder.push(&plan).expect("segment plans re-encode");
    }
    let index = IndexSection {
        fingerprint_flags: view.fingerprint_flags,
        shards: view
            .shards
            .iter()
            .map(|group| ShardTopology {
                nodes: group.count,
                edges: group.edges.clone(),
            })
            .collect(),
    };
    let features = FeatureSection {
        dim: view.feature_dim,
        values: view.features,
    };
    (encoder, index, features)
}
