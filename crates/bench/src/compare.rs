//! `repro compare <baseline.json>...` — the bench-regression gate.
//!
//! Runs the hot-path microbenchmarks once in quick mode and diffs the fresh
//! medians against one or more committed snapshots (`BENCH_baseline.json`,
//! `BENCH_snapshot.json`). A bench *regresses* when its fresh median exceeds
//! the baseline median by more than the noise tolerance
//! (`UPLAN_BENCH_TOLERANCE`, default 1.5× — quick-mode medians on shared CI
//! runners jitter, full-precision comparisons belong in `cargo bench`).
//! Regressions — and benches that silently vanished from the suite — make
//! the command exit non-zero, which is what the CI bench-smoke job gates on.
//!
//! Committed snapshots carry absolute nanoseconds from the machine that
//! wrote them, so a uniformly slower runner (a shared CI box vs the dev
//! workstation) would flag everything. The diff therefore self-calibrates:
//! with enough matched benches a file's calibration is the *median*
//! fresh/baseline ratio (clamped to `1.0..=MAX_CALIBRATION`). Machine skew
//! moves every ratio together and is absorbed; a genuine regression moves a
//! few benches away from the median and still trips the gate.
//!
//! A run measures one machine, so it divides every file by one machine
//! factor: the largest per-file calibration. A historical baseline whose rows were
//! mostly optimized away since (fresh/baseline ratios well below 1)
//! calibrates to the 1.0 floor on any host, and would otherwise flag the
//! untouched rows on a slow one.

use criterion::BenchResult;
use uplan_core::formats::json;

/// Default noise tolerance for quick-mode medians.
pub const DEFAULT_TOLERANCE: f64 = 1.5;

/// Calibration bounds: at least this many matched benches are needed to
/// trust the median ratio, and a machine is assumed at most this much
/// slower than the one that wrote the snapshot.
const MIN_CALIBRATION_BENCHES: usize = 5;
const MAX_CALIBRATION: f64 = 3.0;

/// One bench's comparison against one baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance of the baseline median.
    Ok,
    /// At least `1/tolerance`× faster than the baseline median.
    Faster,
    /// Slower than `tolerance ×` the baseline median.
    Regressed,
    /// Present in the fresh run but absent from the baseline.
    New,
    /// Present in the baseline but absent from the fresh run.
    Missing,
}

/// The outcome of diffing a fresh run against one baseline file.
pub struct Comparison {
    /// Baseline path.
    pub baseline: String,
    /// Machine-speed factor divided out before the tolerance check: the
    /// largest calibration over the run's baseline files (1.0 when the
    /// fresh machine is not uniformly slower, or when too few benches
    /// matched to estimate it).
    pub calibration: f64,
    /// `(bench, baseline_ns, fresh_ns, verdict)`; missing benches carry a
    /// fresh time of 0, new benches a baseline time of 0.
    pub rows: Vec<(String, f64, f64, Verdict)>,
}

impl Comparison {
    /// Whether this comparison fails the gate.
    pub fn failed(&self) -> bool {
        self.rows
            .iter()
            .any(|(_, _, _, v)| matches!(v, Verdict::Regressed | Verdict::Missing))
    }
}

/// Reads the noise tolerance from `UPLAN_BENCH_TOLERANCE`.
pub fn tolerance_from_env() -> f64 {
    std::env::var("UPLAN_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| *t >= 1.0)
        .unwrap_or(DEFAULT_TOLERANCE)
}

/// Parses a snapshot file's `benches` map into `(name, median_ns)` pairs.
pub fn parse_baseline(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(text).map_err(|e| format!("unparseable snapshot: {e}"))?;
    let benches = doc
        .get("benches")
        .and_then(json::JsonValue::as_object)
        .ok_or("snapshot has no \"benches\" object")?;
    Ok(benches
        .iter()
        .filter_map(|(name, entry)| {
            entry
                .get("median_ns")
                .and_then(json::JsonValue::as_f64)
                .map(|m| (name.clone().into_owned(), m))
        })
        .collect())
}

/// Machine-speed calibration: the median fresh/baseline ratio over matched
/// benches, clamped to `1.0..=MAX_CALIBRATION`, or 1.0 with too few
/// matches. Never below 1.0: a *faster* machine must not mask regressions.
fn calibration(baseline: &[(String, f64)], fresh: &[BenchResult]) -> f64 {
    let mut ratios: Vec<f64> = baseline
        .iter()
        .filter(|(_, base_ns)| *base_ns > 0.0)
        .filter_map(|(name, base_ns)| {
            fresh
                .iter()
                .find(|r| &r.name == name)
                .map(|r| r.median_ns / base_ns)
        })
        .collect();
    if ratios.len() < MIN_CALIBRATION_BENCHES {
        return 1.0;
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[ratios.len() / 2].clamp(1.0, MAX_CALIBRATION)
}

/// Diffs fresh results against every parsed baseline `(path, medians)` of
/// one run, dividing each by the run's machine factor: the largest
/// per-file calibration.
pub fn diff(
    baselines: &[(String, Vec<(String, f64)>)],
    fresh: &[BenchResult],
    tolerance: f64,
) -> Vec<Comparison> {
    let machine = baselines
        .iter()
        .map(|(_, baseline)| calibration(baseline, fresh))
        .fold(1.0, f64::max);
    baselines
        .iter()
        .map(|(name, baseline)| diff_one(name, baseline, fresh, tolerance, machine))
        .collect()
}

/// Diffs fresh results against one parsed baseline at a given calibration.
fn diff_one(
    baseline_name: &str,
    baseline: &[(String, f64)],
    fresh: &[BenchResult],
    tolerance: f64,
    calibration: f64,
) -> Comparison {
    let mut rows = Vec::new();
    for (name, base_ns) in baseline {
        match fresh.iter().find(|r| &r.name == name) {
            Some(r) => {
                let adjusted = base_ns * calibration;
                let verdict = if r.median_ns > adjusted * tolerance {
                    Verdict::Regressed
                } else if r.median_ns * tolerance < adjusted {
                    Verdict::Faster
                } else {
                    Verdict::Ok
                };
                rows.push((name.clone(), *base_ns, r.median_ns, verdict));
            }
            None => rows.push((name.clone(), *base_ns, 0.0, Verdict::Missing)),
        }
    }
    for r in fresh {
        if !baseline.iter().any(|(name, _)| name == &r.name) {
            rows.push((r.name.clone(), 0.0, r.median_ns, Verdict::New));
        }
    }
    Comparison {
        baseline: baseline_name.to_owned(),
        calibration,
        rows,
    }
}

/// Renders a comparison as an aligned table.
pub fn render(cmp: &Comparison, tolerance: f64) -> String {
    let mut out = format!(
        "vs {} (tolerance {tolerance:.2}x, machine calibration {:.2}x)\n\
         {:<36} {:>12} {:>12} {:>8}  verdict\n",
        cmp.baseline, cmp.calibration, "bench", "base µs", "fresh µs", "ratio"
    );
    for (name, base_ns, fresh_ns, verdict) in &cmp.rows {
        let (base, fresh) = (base_ns / 1e3, fresh_ns / 1e3);
        let ratio = if *base_ns > 0.0 && *fresh_ns > 0.0 {
            format!("{:.2}x", fresh_ns / base_ns)
        } else {
            "-".to_owned()
        };
        let verdict = match verdict {
            Verdict::Ok => "ok",
            Verdict::Faster => "ok (faster)",
            Verdict::Regressed => "REGRESSED",
            Verdict::New => "new (no baseline)",
            Verdict::Missing => "MISSING from run",
        };
        out.push_str(&format!(
            "{name:<36} {base:>12.2} {fresh:>12.2} {ratio:>8}  {verdict}\n"
        ));
    }
    out
}

/// Runs the gate: one fresh quick-mode collection, diffed against every
/// baseline path. Returns the report and whether the gate failed.
pub fn run(paths: &[String]) -> (String, bool) {
    let tolerance = tolerance_from_env();
    let fresh = crate::snapshot::collect();
    let filtered = std::env::var("UPLAN_BENCH_FILTER").is_ok_and(|f| !f.is_empty());
    let mut report = String::new();
    let mut failed = false;
    let mut baselines = Vec::new();
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                report.push_str(&format!("cannot read {path}: {e}\n"));
                failed = true;
                continue;
            }
        };
        match parse_baseline(&text) {
            Ok(baseline) => baselines.push((path.clone(), baseline)),
            Err(e) => {
                report.push_str(&format!("{path}: {e}\n"));
                failed = true;
            }
        }
    }
    for mut cmp in diff(&baselines, &fresh, tolerance) {
        if filtered {
            // A name filter deliberately runs a subset; absent benches are
            // not a signal then.
            cmp.rows.retain(|(_, _, _, v)| *v != Verdict::Missing);
        }
        report.push_str(&render(&cmp, tolerance));
        report.push('\n');
        failed |= cmp.failed();
    }
    report.push_str(if failed {
        "bench gate: FAILED\n"
    } else {
        "bench gate: ok\n"
    });
    (report, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One baseline file diffed alone.
    fn diff(
        name: &str,
        baseline: &[(String, f64)],
        fresh: &[BenchResult],
        tolerance: f64,
    ) -> Comparison {
        let mut cmps = super::diff(&[(name.to_owned(), baseline.to_vec())], fresh, tolerance);
        cmps.pop().unwrap()
    }

    fn result(name: &str, median_ns: f64) -> BenchResult {
        BenchResult {
            name: name.to_owned(),
            min_ns: median_ns * 0.9,
            median_ns,
            max_ns: median_ns * 1.2,
            iterations: 100,
        }
    }

    #[test]
    fn baseline_parsing_reads_medians() {
        let text = r#"{"snapshot_version": 1, "benches": {
            "a/x": {"median_ns": 1500.0, "min_ns": 1.0, "max_ns": 2.0, "iterations": 5},
            "a/y": {"median_ns": 3000, "min_ns": 1.0, "max_ns": 2.0, "iterations": 5}
        }}"#;
        let baseline = parse_baseline(text).unwrap();
        assert_eq!(baseline.len(), 2);
        assert_eq!(baseline[0], ("a/x".to_owned(), 1500.0));
        assert_eq!(baseline[1].1, 3000.0);
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("not json").is_err());
    }

    #[test]
    fn verdicts_cover_all_cases() {
        let baseline = vec![
            ("steady".to_owned(), 1000.0),
            ("slow".to_owned(), 1000.0),
            ("fast".to_owned(), 1000.0),
            ("gone".to_owned(), 1000.0),
        ];
        let fresh = vec![
            result("steady", 1100.0),
            result("slow", 1600.0),
            result("fast", 500.0),
            result("fresh_only", 42.0),
        ];
        let cmp = diff("base.json", &baseline, &fresh, 1.5);
        let verdict = |name: &str| {
            cmp.rows
                .iter()
                .find(|(n, _, _, _)| n == name)
                .map(|(_, _, _, v)| v.clone())
                .unwrap()
        };
        assert_eq!(verdict("steady"), Verdict::Ok);
        assert_eq!(verdict("slow"), Verdict::Regressed);
        assert_eq!(verdict("fast"), Verdict::Faster);
        assert_eq!(verdict("gone"), Verdict::Missing);
        assert_eq!(verdict("fresh_only"), Verdict::New);
        assert!(cmp.failed());
        let report = render(&cmp, 1.5);
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("1.60x"));
    }

    #[test]
    fn uniformly_slower_machine_is_calibrated_out() {
        // Every bench 2.2x slower: a slower runner, not a regression.
        let baseline: Vec<(String, f64)> = (0..8).map(|i| (format!("b{i}"), 1000.0)).collect();
        let fresh: Vec<BenchResult> = (0..8).map(|i| result(&format!("b{i}"), 2200.0)).collect();
        let cmp = diff("base.json", &baseline, &fresh, 1.5);
        assert!((cmp.calibration - 2.2).abs() < 1e-9);
        assert!(!cmp.failed(), "{:?}", cmp.rows);

        // Same slow machine, but one bench 2x worse than the rest: still a
        // regression after calibration (4400 > 1000 * 2.2 * 1.5).
        let mut fresh = fresh;
        fresh[3].median_ns = 4400.0 + 1.0;
        let cmp = diff("base.json", &baseline, &fresh, 1.5);
        assert!(cmp.failed());
        assert_eq!(
            cmp.rows
                .iter()
                .filter(|(_, _, _, v)| *v == Verdict::Regressed)
                .count(),
            1
        );

        // A uniformly *faster* machine never masks anything: calibration
        // clamps at 1.0.
        let fast: Vec<BenchResult> = (0..8).map(|i| result(&format!("b{i}"), 400.0)).collect();
        assert!((diff("base.json", &baseline, &fast, 1.5).calibration - 1.0).abs() < 1e-9);
    }

    /// A run against a historical baseline, most of whose rows were
    /// optimized 2.5x since, and a current snapshot: both files share the
    /// machine factor the snapshot measures.
    #[test]
    fn one_machine_factor_calibrates_every_file() {
        let names: Vec<String> = (0..10).map(|i| format!("b{i}")).collect();
        let snapshot: Vec<(String, f64)> = names.iter().map(|n| (n.clone(), 1000.0)).collect();
        // Rows 0..6 were optimized since the historical baseline; 6..10 not.
        let historical: Vec<(String, f64)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), if i < 6 { 2500.0 } else { 1000.0 }))
            .collect();
        let baselines = vec![
            ("BENCH_baseline.json".to_owned(), historical.clone()),
            ("BENCH_snapshot.json".to_owned(), snapshot.clone()),
        ];
        let tolerance = 1.25;

        // Uniformly 1.5x slower: alone, the historical file calibrates to
        // the 1.0 floor and flags the untouched rows; in the run, both
        // files pass at the snapshot's 1.5x.
        let slow: Vec<BenchResult> = names.iter().map(|n| result(n, 1500.0)).collect();
        assert!(diff("BENCH_baseline.json", &historical, &slow, tolerance).failed());
        let cmps = super::diff(&baselines, &slow, tolerance);
        assert_eq!(cmps.len(), 2);
        for cmp in &cmps {
            assert!((cmp.calibration - 1.5).abs() < 1e-9, "{}", cmp.baseline);
            assert!(!cmp.failed(), "{}: {:?}", cmp.baseline, cmp.rows);
        }

        // Three untouched rows 2.5x slower than the rest fail both files.
        let mut regressed = slow;
        for r in &mut regressed[6..9] {
            r.median_ns = 1500.0 * 2.5;
        }
        for cmp in super::diff(&baselines, &regressed, tolerance) {
            let flagged: Vec<&str> = cmp
                .rows
                .iter()
                .filter(|(_, _, _, v)| *v == Verdict::Regressed)
                .map(|(n, _, _, _)| n.as_str())
                .collect();
            assert_eq!(flagged, ["b6", "b7", "b8"], "{}", cmp.baseline);
        }
    }

    #[test]
    fn too_few_benches_disable_calibration() {
        let baseline = vec![("a".to_owned(), 1000.0), ("b".to_owned(), 1000.0)];
        let fresh = vec![result("a", 2000.0), result("b", 2000.0)];
        let cmp = diff("base.json", &baseline, &fresh, 1.5);
        assert!((cmp.calibration - 1.0).abs() < 1e-9);
        assert!(cmp.failed(), "without calibration these are regressions");
    }

    #[test]
    fn clean_comparison_passes() {
        let baseline = vec![("a".to_owned(), 1000.0)];
        let fresh = vec![result("a", 1400.0)];
        let cmp = diff("base.json", &baseline, &fresh, 1.5);
        assert!(!cmp.failed());
    }

    #[test]
    fn tolerance_env_parsing_falls_back() {
        // (Set/unset races with other tests are avoided by only reading.)
        assert!(tolerance_from_env() >= 1.0);
    }
}
