//! Store maintenance: `salvage` and `compact`.

use uplan_core::fingerprint::FingerprintOptions;
use uplan_corpus::SegmentStore;

use super::{new_store, open_store, positionals, refuse_file, summary, take_value, CliError};

/// `salvage`: the segment is the recovery unit.
pub(super) fn salvage(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let out: Option<String> = take_value(&mut args, "--out")?;
    let args = positionals(args)?;
    let path = args
        .first()
        .ok_or("usage: repro corpus salvage <store-dir> [--out <store-dir>]")?;
    refuse_file(path)?;
    let (corpus, report) = SegmentStore::salvage(path, FingerprintOptions::default())
        .map_err(|e| CliError::Operational(e.to_string()))?;
    // No manifest and no segment file: nothing was there to rebuild.
    if report.segments_declared == 0 && !SegmentStore::is_store_dir(path) {
        return Err(CliError::Input(format!("{path} holds no segment store")));
    }
    let mut lines = vec![format!(
        "salvaged {} of {} plans from {path} ({} dropped; \
         {} of {} segment(s) recovered, manifest {})",
        report.recovered,
        report.declared,
        report.dropped,
        report.segments_recovered,
        report.segments_declared,
        if report.manifest_ok {
            "intact"
        } else {
            "rebuilt from segment deltas"
        }
    )];
    if let Some(error) = &report.error {
        lines.push(format!("stopped at: {error}"));
    }
    if report.recovered > 0 {
        lines.push(format!(
            "index: {}",
            if report.index_rebuilt {
                "rebuilt"
            } else {
                "persisted"
            }
        ));
        lines.push(summary(&corpus));
    }
    if report.recovered == 0 && report.error.is_some() {
        return Err(CliError::Input(lines.join("\n")));
    }
    if let Some(out) = out {
        new_store(&out, corpus)?;
        lines.push(format!("wrote {out}"));
    }
    Ok(lines.join("\n"))
}

/// `compact`: merge every segment of a store into one.
pub(super) fn compact(args: &[String]) -> Result<String, CliError> {
    let args = positionals(args.to_vec())?;
    let path = args
        .first()
        .ok_or("usage: repro corpus compact <store-dir>")?;
    let mut store = open_store(path)?;
    let report = store
        .compact()
        .map_err(|e| CliError::Operational(format!("cannot compact {path}: {e}")))?;
    Ok(format!(
        "compacted {path}: {} segment(s) -> 1, {} -> {} segment bytes\n{}",
        report.segments_before,
        report.bytes_before,
        report.bytes_after,
        summary(store.corpus())
    ))
}
