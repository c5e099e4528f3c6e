//! Deterministic fault injection for the dirty-fleet hardening contract.
//!
//! Robustness claims are cheap; this module makes them testable. It
//! produces *seeded, reproducible* corruptions of the two artifact kinds
//! the toolchain ingests from the outside world — append-only
//! segment-store directories and raw mixed-source dumps — so a tier-1
//! test (and the CI smoke job, at a pinned seed) can drive every mutation
//! through the loaders and assert the hardening contract: **no panic;
//! either a bounded, descriptive error or a salvage whose surviving plans
//! fingerprint-match the originals.** Store faults come with an exact
//! oracle ([`expected_store_recovery`]), turning the sweep into a precise
//! check.

use std::io;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uplan_corpus::MANIFEST_FILE;

/// One reproducible corruption of a byte document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultMutation {
    /// Cut the document to its first `len` bytes.
    Truncate {
        /// Surviving prefix length.
        len: usize,
    },
    /// Invert one bit.
    BitFlip {
        /// Byte offset of the flipped bit.
        offset: usize,
        /// Bit index, 0–7.
        bit: u8,
    },
}

impl FaultMutation {
    /// Applies the mutation to `doc`, returning the corrupted copy.
    /// Offsets beyond the document clamp to its end.
    pub fn apply(&self, doc: &[u8]) -> Vec<u8> {
        match self {
            FaultMutation::Truncate { len } => doc[..(*len).min(doc.len())].to_vec(),
            FaultMutation::BitFlip { offset, bit } => {
                let mut out = doc.to_vec();
                if let Some(byte) = out.get_mut(*offset) {
                    *byte ^= 1 << (bit & 7);
                }
                out
            }
        }
    }

    /// One-line human description (CI log output).
    pub fn describe(&self) -> String {
        match self {
            FaultMutation::Truncate { len } => format!("truncate to {len} bytes"),
            FaultMutation::BitFlip { offset, bit } => {
                format!("flip bit {bit} of byte {offset}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Segment-store faults: per-file corruptions of an append-only store
// directory (`manifest.uplm` + `seg-*.upls`). The segment is the store's
// recovery unit — every segment file is CRC-covered end to end (header,
// checksummed plan blocks, index tail) — so a fault inside one file is
// exactly attributable, and [`expected_store_recovery`] turns a per-file
// sweep into a precise salvage oracle.
// ---------------------------------------------------------------------------

/// One reproducible corruption of a segment-store directory: a single
/// store file deleted, or byte-mutated in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreFault {
    /// Delete one store file outright — a lost write or an unlinked file.
    Delete {
        /// File name relative to the store directory.
        file: String,
    },
    /// Apply a byte [`FaultMutation`] to one store file.
    Mutate {
        /// File name relative to the store directory.
        file: String,
        /// The byte-level corruption.
        mutation: FaultMutation,
    },
}

impl StoreFault {
    /// The store file this fault targets.
    pub fn file(&self) -> &str {
        match self {
            StoreFault::Delete { file } | StoreFault::Mutate { file, .. } => file,
        }
    }

    /// One-line human description (CI log output).
    pub fn describe(&self) -> String {
        match self {
            StoreFault::Delete { file } => format!("delete {file}"),
            StoreFault::Mutate { file, mutation } => {
                format!("{} of {file}", mutation.describe())
            }
        }
    }

    /// Applies the fault to the store at `dir` in place. Faults compose:
    /// applying several in sequence damages several files.
    pub fn apply(&self, dir: &Path) -> io::Result<()> {
        match self {
            StoreFault::Delete { file } => std::fs::remove_file(dir.join(file)),
            StoreFault::Mutate { file, mutation } => {
                let path = dir.join(file);
                let bytes = std::fs::read(&path)?;
                std::fs::write(&path, mutation.apply(&bytes))
            }
        }
    }

    /// Copies the store at `src` into `dst` (replaced if present) and
    /// applies the fault there, leaving `src` pristine.
    pub fn apply_to_copy(&self, src: &Path, dst: &Path) -> io::Result<()> {
        copy_store(src, dst)?;
        self.apply(dst)
    }
}

/// Copies every regular file of the store at `src` into a fresh `dst`
/// (replaced if present).
pub fn copy_store(src: &Path, dst: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dst) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dst)?;
    for (name, _) in store_files(src)? {
        std::fs::copy(src.join(&name), dst.join(&name))?;
    }
    Ok(())
}

/// The store's files — the manifest first (when present), then the
/// segment files in id order — each with its byte length. Deterministic,
/// so seeded planners over the listing are reproducible.
pub fn store_files(dir: &Path) -> io::Result<Vec<(String, u64)>> {
    let mut segments = Vec::new();
    let mut manifest = None;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        let len = entry.metadata()?.len();
        if name == MANIFEST_FILE {
            manifest = Some((name, len));
        } else if name.starts_with("seg-") && name.ends_with(".upls") {
            segments.push((name, len));
        }
    }
    segments.sort_unstable();
    let mut out = Vec::with_capacity(segments.len() + 1);
    out.extend(manifest);
    out.extend(segments);
    Ok(out)
}

/// One seeded single-bit flip per store file. Every byte of a store file
/// is CRC-covered (or is a CRC itself), so each flip voids exactly its
/// file: a segment flip drops that segment, a manifest flip forces the
/// symbol-chain rebuild.
pub fn store_bitflip_plan(dir: &Path, seed: u64) -> io::Result<Vec<StoreFault>> {
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(store_files(dir)?
        .into_iter()
        .map(|(file, len)| StoreFault::Mutate {
            file,
            mutation: FaultMutation::BitFlip {
                offset: rng.gen_range(0..len.max(1)) as usize,
                bit: rng.gen_range(0..8u64) as u8,
            },
        })
        .collect())
}

/// One seeded truncation per store file, each cut to a strict prefix.
/// A store file's self-description trails its data (manifest CRC,
/// segment index tail), so any strict prefix fails to parse whole.
pub fn store_truncate_plan(dir: &Path, seed: u64) -> io::Result<Vec<StoreFault>> {
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(store_files(dir)?
        .into_iter()
        .map(|(file, len)| StoreFault::Mutate {
            file,
            mutation: FaultMutation::Truncate {
                len: rng.gen_range(0..len.max(1)) as usize,
            },
        })
        .collect())
}

/// One deletion per store file.
pub fn store_delete_plan(dir: &Path) -> io::Result<Vec<StoreFault>> {
    Ok(store_files(dir)?
        .into_iter()
        .map(|(file, _)| StoreFault::Delete { file })
        .collect())
}

/// The exact salvage outcome a single [`StoreFault`] must produce, given
/// the store's per-segment plan census `(id, plans)`:
///
/// * **Manifest fault** — the chain rebuilds from segment deltas and
///   every segment survives: all plans recovered, nothing dropped.
/// * **Segment fault** — the segment is the recovery unit, so exactly
///   that segment's plans drop and every other segment survives (the
///   intact manifest decodes each one independently).
///
/// Exact because the planners above only produce faults that genuinely
/// damage their file (a bit flip always changes a CRC-covered byte; a
/// strict-prefix truncation always severs the trailing self-description).
/// The oracle covers **single** faults with the census's segments; for
/// composed faults (e.g. manifest loss *plus* a damaged symbol-carrying
/// segment) recovery cascades and must be asserted by hand.
pub fn expected_store_recovery(census: &[(u32, u64)], fault: &StoreFault) -> StoreRecovery {
    let total: u64 = census.iter().map(|(_, plans)| plans).sum();
    let victim = fault
        .file()
        .strip_prefix("seg-")
        .and_then(|rest| rest.strip_suffix(".upls"))
        .and_then(|id| id.parse::<u32>().ok());
    match victim {
        Some(id) => {
            let dropped: u64 = census
                .iter()
                .filter(|(seg, _)| *seg == id)
                .map(|(_, plans)| plans)
                .sum();
            StoreRecovery {
                manifest_ok: true,
                segments_recovered: census.len() - 1,
                recovered: total - dropped,
                dropped,
                dropped_segment: Some(id),
            }
        }
        None => StoreRecovery {
            manifest_ok: false,
            segments_recovered: census.len(),
            recovered: total,
            dropped: 0,
            dropped_segment: None,
        },
    }
}

/// What [`expected_store_recovery`] promises a salvage must report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRecovery {
    /// Whether the manifest survives the fault.
    pub manifest_ok: bool,
    /// Segments recovered whole.
    pub segments_recovered: usize,
    /// Plans the salvage must recover.
    pub recovered: u64,
    /// Plans lost with the dropped segment.
    pub dropped: u64,
    /// The dropped segment's id (`None` for a manifest fault).
    pub dropped_segment: Option<u32>,
}

/// The garbage records a dirty fleet actually produces, one per failure
/// stage: an unterminated JSON string (classify: parse), a valid JSON
/// string no dialect claims (classify: detect), a JSON document no
/// dialect claims (classify: detect), and a table fragment that sniffs
/// as TiDB but fails conversion (convert).
pub const GARBAGE_LINES: [&str; 4] = [
    "\"unterminated",
    "\"not a plan of any dialect\"",
    "{\"dirty_fleet_garbage\": true}",
    "\"| id | estRows |\\n\"",
];

/// Injects `count` seeded garbage lines into a JSONL raw dump, returning
/// the dirty dump and the (1-based, ascending) line numbers of the
/// injected lines — the exact error census a lenient ingest must report.
pub fn inject_garbage_lines(dump: &str, seed: u64, count: usize) -> (String, Vec<usize>) {
    let lines: Vec<&str> = dump.lines().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slots: Vec<usize> = (0..count)
        .map(|_| rng.gen_range(0..lines.len() + 1))
        .collect();
    slots.sort_unstable();

    let mut out = String::with_capacity(dump.len() + count * 32);
    let mut injected = Vec::with_capacity(count);
    let mut line_no = 0usize;
    let mut slot_iter = slots.into_iter().peekable();
    for i in 0..=lines.len() {
        while slot_iter.peek() == Some(&i) {
            slot_iter.next();
            let flavor = GARBAGE_LINES[rng.gen_range(0..GARBAGE_LINES.len())];
            out.push_str(flavor);
            out.push('\n');
            line_no += 1;
            injected.push(line_no);
        }
        if i < lines.len() {
            out.push_str(lines[i]);
            out.push('\n');
            line_no += 1;
        }
    }
    (out, injected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_apply_reproducibly() {
        let doc: Vec<u8> = (0..=255).collect();
        assert_eq!(
            FaultMutation::Truncate { len: 10 }.apply(&doc),
            (0..10).collect::<Vec<u8>>()
        );
        let flipped = FaultMutation::BitFlip { offset: 3, bit: 0 }.apply(&doc);
        assert_eq!(flipped[3], 2);
        assert_eq!(flipped.len(), doc.len());
        // Out-of-range offsets clamp instead of panicking.
        assert_eq!(FaultMutation::Truncate { len: 999 }.apply(&doc), doc);
        assert_eq!(
            FaultMutation::BitFlip {
                offset: 999,
                bit: 1
            }
            .apply(&doc),
            doc
        );
    }

    #[test]
    fn store_fault_plans_are_seeded_and_per_file() {
        // A store-shaped directory of synthetic files: listing order,
        // planner determinism and apply semantics need no real store.
        let dir =
            std::env::temp_dir().join(format!("uplan-inject-store-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-00001.upls"), vec![0xBBu8; 90]).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), vec![0xAAu8; 40]).unwrap();
        std::fs::write(dir.join("seg-00000.upls"), vec![0xCCu8; 70]).unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a store file").unwrap();

        // Manifest first, then segments by id; foreign files ignored.
        let files = store_files(&dir).unwrap();
        assert_eq!(
            files,
            vec![
                (MANIFEST_FILE.to_owned(), 40),
                ("seg-00000.upls".to_owned(), 70),
                ("seg-00001.upls".to_owned(), 90),
            ]
        );

        // Planners: one fault per file, seeded = reproducible, offsets
        // in range.
        let flips = store_bitflip_plan(&dir, 7).unwrap();
        assert_eq!(flips, store_bitflip_plan(&dir, 7).unwrap());
        assert_eq!(flips.len(), 3);
        for (fault, (file, len)) in flips.iter().zip(&files) {
            assert_eq!(fault.file(), file);
            match fault {
                StoreFault::Mutate {
                    mutation: FaultMutation::BitFlip { offset, bit },
                    ..
                } => assert!((*offset as u64) < *len && *bit < 8),
                other => panic!("unexpected fault {other:?}"),
            }
        }
        let cuts = store_truncate_plan(&dir, 7).unwrap();
        assert_eq!(cuts.len(), 3);
        for (fault, (_, len)) in cuts.iter().zip(&files) {
            match fault {
                StoreFault::Mutate {
                    mutation: FaultMutation::Truncate { len: cut },
                    ..
                } => assert!((*cut as u64) < *len, "strict prefix"),
                other => panic!("unexpected fault {other:?}"),
            }
        }
        let deletes = store_delete_plan(&dir).unwrap();
        assert_eq!(deletes.len(), 3);

        // apply_to_copy leaves the source pristine and damages exactly
        // the targeted file in the copy.
        let copy = dir.with_file_name(format!("uplan-inject-store-copy-{}", std::process::id()));
        deletes[0].apply_to_copy(&dir, &copy).unwrap();
        assert_eq!(store_files(&dir).unwrap(), files);
        assert_eq!(store_files(&copy).unwrap(), files[1..].to_vec());
        flips[1].apply_to_copy(&dir, &copy).unwrap();
        let seg0 = std::fs::read(copy.join("seg-00000.upls")).unwrap();
        assert_eq!(seg0.iter().filter(|b| **b != 0xCC).count(), 1);
        assert_eq!(
            std::fs::read(copy.join(MANIFEST_FILE)).unwrap(),
            vec![0xAAu8; 40]
        );
        assert_eq!(
            flips[1].describe(),
            format!(
                "{} of seg-00000.upls",
                match &flips[1] {
                    StoreFault::Mutate { mutation, .. } => mutation.describe(),
                    _ => unreachable!(),
                }
            )
        );

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&copy);
    }

    #[test]
    fn store_recovery_oracle_is_per_segment_exact() {
        let census = [(0u32, 40u64), (1, 30), (2, 50)];
        let seg = expected_store_recovery(
            &census,
            &StoreFault::Delete {
                file: "seg-00001.upls".into(),
            },
        );
        assert_eq!(
            seg,
            StoreRecovery {
                manifest_ok: true,
                segments_recovered: 2,
                recovered: 90,
                dropped: 30,
                dropped_segment: Some(1),
            }
        );
        let manifest = expected_store_recovery(
            &census,
            &StoreFault::Mutate {
                file: MANIFEST_FILE.into(),
                mutation: FaultMutation::Truncate { len: 3 },
            },
        );
        assert_eq!(
            manifest,
            StoreRecovery {
                manifest_ok: false,
                segments_recovered: 3,
                recovered: 120,
                dropped: 0,
                dropped_segment: None,
            }
        );
    }

    #[test]
    fn garbage_injection_reports_exact_line_numbers() {
        let dump = "line1\nline2\nline3\n";
        let (dirty, injected) = inject_garbage_lines(dump, 42, 5);
        let (again, injected_again) = inject_garbage_lines(dump, 42, 5);
        assert_eq!(dirty, again);
        assert_eq!(injected, injected_again);
        assert_eq!(injected.len(), 5);
        assert_eq!(dirty.lines().count(), 8);
        let lines: Vec<&str> = dirty.lines().collect();
        for (number, line) in lines.iter().enumerate().map(|(i, l)| (i + 1, l)) {
            if injected.contains(&number) {
                assert!(GARBAGE_LINES.contains(line), "line {number}: {line:?}");
            } else {
                assert!(line.starts_with("line"), "line {number}: {line:?}");
            }
        }
    }
}
