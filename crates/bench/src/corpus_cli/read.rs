//! Verbs that read a store: `stats`, `cluster`, `diff`, `query` and
//! `sources`.

use uplan_convert::{RawIngestOptions, Source};
use uplan_corpus::{QueryOutcome, QueryRequest, MANIFEST_FILE};
use uplan_viz::cluster::ClusterView;

use super::{open_store, positional_or, positionals, summary, take_flag, take_value, CliError};

/// `stats`: manifest counters and the per-segment census, no plan decode.
pub(super) fn stats(args: &[String]) -> Result<String, CliError> {
    let args = positionals(args.to_vec())?;
    let path = args
        .first()
        .ok_or("usage: repro corpus stats <store-dir>")?;
    let store = open_store(path)?;
    let corpus = store.corpus();
    let index = if corpus.has_persisted_index() {
        "persisted"
    } else {
        "rebuilt"
    };
    let mut lines = vec![
        format!("{path}: {}", summary(corpus)),
        format!(
            "index: {index} ({} TED evaluations on load)",
            corpus.index_evals()
        ),
        format!("segments: {}", store.census().len()),
    ];
    let mut total = 0usize;
    for row in store.census() {
        let b = &row.bytes;
        total += b.total;
        lines.push(format!(
            "  segment {:>3}: {:>7} plans, {:>9} bytes \
             (plans {}, symbols {}, index {}, features {}, offsets {}, fingerprints {}, header {})",
            row.id,
            row.plans,
            b.total,
            b.plans,
            b.symbols,
            b.index,
            b.features,
            b.offsets,
            b.fingerprints,
            b.header
        ));
    }
    lines.push(format!(
        "  on disk: {total} segment bytes + {} manifest bytes",
        std::fs::metadata(std::path::Path::new(path).join(MANIFEST_FILE))
            .map(|m| m.len())
            .unwrap_or(0)
    ));
    Ok(lines.join("\n"))
}

pub(super) fn cluster(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    // `--dot` may appear anywhere; positionals keep their order around it.
    let dot = take_flag(&mut args, "--dot");
    let args = positionals(args)?;
    let path = args
        .first()
        .ok_or("usage: repro corpus cluster <corpus> [radius] [--dot]")?;
    let radius: u32 = positional_or(&args, 1, "radius", 2)?;
    let corpus = open_store(path)?.into_corpus();
    let response = corpus.execute(&QueryRequest::cluster(radius))?;
    let QueryOutcome::Clusters(clusters) = &response.outcome else {
        unreachable!("cluster queries answer clusters")
    };
    let views: Vec<ClusterView<'_>> = clusters
        .iter()
        .map(|c| ClusterView {
            label: format!("#{}", c.leader),
            leader: corpus.plan(c.leader),
            size: c.members.len(),
            spread: c.members.iter().map(|&(_, d)| d).max().unwrap_or(0),
        })
        .collect();
    let title = format!("{path} @ radius {radius}");
    Ok(if dot {
        uplan_viz::cluster::render_dot(&views, &title)
    } else {
        uplan_viz::cluster::render_text(&views, &title)
    })
}

pub(super) fn diff(args: &[String]) -> Result<String, CliError> {
    let args = positionals(args.to_vec())?;
    let (left_path, right_path) = match args.as_slice() {
        [l, r, ..] => (l, r),
        _ => return Err("usage: repro corpus diff <left-dir> <right-dir> [radius]".into()),
    };
    let radius: u32 = positional_or(&args, 2, "radius", 2)?;
    let left = open_store(left_path)?.into_corpus();
    let right = open_store(right_path)?.into_corpus();
    let diff = left.diff(&right, radius);
    Ok(format!(
        "left  {left_path}: {} distinct\nright {right_path}: {} distinct\n\
         shared fingerprints: {}\n\
         only in left:  {} plans ({} beyond TED radius {radius})\n\
         only in right: {} plans ({} beyond TED radius {radius})",
        left.len(),
        right.len(),
        diff.shared,
        diff.fingerprint_only_left.len(),
        diff.beyond_radius_left.len(),
        diff.fingerprint_only_right.len(),
        diff.beyond_radius_right.len(),
        radius = diff.radius,
    ))
}

/// `repro corpus query` — one query through the unified request
/// vocabulary, the same entry point the `uplan-serve` handlers call.
pub(super) fn query(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let json_out = take_flag(&mut args, "--json");
    let k: Option<usize> = take_value(&mut args, "--k")?;
    let radius: Option<u32> = take_value(&mut args, "--radius")?;
    let budget: Option<u64> = take_value(&mut args, "--budget")?;
    let mode: Option<String> = take_value(&mut args, "--mode")?;
    let candidates: Option<usize> = take_value(&mut args, "--candidates")?;
    let probe_path: Option<String> = take_value(&mut args, "--probe")?;
    let probe_raw_path: Option<String> = take_value(&mut args, "--probe-raw")?;
    let args = positionals(args)?;
    let (path, kind) = match args.as_slice() {
        [path, kind] => (path, kind.as_str()),
        _ => {
            return Err(
                "usage: repro corpus query <store-dir> <knn|radius|cluster|stats> \
                 [--k N] [--radius R] [--probe <plan.json>] [--probe-raw <record>] \
                 [--mode exact|approx] [--candidates N] \
                 [--budget N] [--json]"
                    .into(),
            )
        }
    };
    if probe_path.is_some() && probe_raw_path.is_some() {
        return Err("send one probe: --probe and --probe-raw are mutually exclusive".into());
    }
    let corpus = open_store(path)?.into_corpus();
    let mut request = match kind {
        "knn" => QueryRequest::knn(k.ok_or("knn queries need --k")?),
        "radius" => QueryRequest::radius(radius.ok_or("radius queries need --radius")?),
        "cluster" => QueryRequest::cluster(radius.unwrap_or(2)),
        "stats" => QueryRequest::stats(),
        other => {
            return Err(
                format!("unknown query kind {other:?}; one of knn, radius, cluster, stats").into(),
            )
        }
    };
    if let Some(budget) = budget {
        request = request.with_eval_budget(budget);
    }
    match mode.as_deref() {
        None | Some("exact") => {
            if let Some(n) = candidates {
                return Err(format!("--candidates {n} needs --mode approx").into());
            }
        }
        Some("approx") => request = request.approx(candidates.unwrap_or(0)),
        Some(other) => return Err(format!("unknown --mode {other:?}; one of exact, approx").into()),
    }
    if let Some(file) = probe_path.as_ref().or(probe_raw_path.as_ref()) {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Operational(format!("cannot read probe {file}: {e}")))?;
        let bad = |e: uplan_core::Error| CliError::Input(format!("{file}: {e}"));
        let plan = if probe_path.is_some() {
            uplan_core::formats::unified::from_json(&text).map_err(bad)?
        } else {
            let (strict, fingerprints) = (RawIngestOptions::default(), Default::default());
            let (plans, _) =
                uplan_convert::convert_raw_distinct(&text, &strict, fingerprints).map_err(bad)?;
            let count = plans.len();
            let [plan]: [_; 1] = plans.try_into().map_err(|_| {
                format!("{file}: raw probe must hold exactly one plan record, got {count}")
            })?;
            plan
        };
        request = request.with_probe(plan);
    }
    let response = corpus.execute(&request)?;
    if json_out {
        return Ok(response.to_json());
    }
    let answer = match &response.outcome {
        QueryOutcome::Matches(matches) => {
            let mut lines = vec![format!("{} match(es):", matches.len())];
            lines.extend(
                matches
                    .iter()
                    .map(|&(id, d)| format!("  #{id} @ distance {d}")),
            );
            lines.join("\n")
        }
        QueryOutcome::Clusters(clusters) => format!("{} cluster(s)", clusters.len()),
        QueryOutcome::Stats(_) => summary(&corpus),
    };
    Ok(format!(
        "{path}: {} query\n{answer}\nted_evals: {} ({} exited early, {} candidate(s) considered)",
        response.query,
        response.cost.ted_evals,
        response.cost.partial_evals,
        response.cost.candidates_considered,
    ))
}

/// `sources`: the accepted ingest source names, one a line.
pub(super) fn sources(_args: &[String]) -> Result<String, CliError> {
    Ok(Source::ALL.map(Source::name).join("\n"))
}
