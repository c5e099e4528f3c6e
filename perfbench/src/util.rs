//! Small shared pieces: the seeded RNG, exact order statistics, directory
//! helpers and the result record every run prints.

use std::path::Path;
use std::time::Instant;

/// splitmix64 — every generated input derives from the run's `--seed`
/// through this, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `percent`/100.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// Mixes a salt into the run seed, so each input stream of a run is
/// seeded separately.
pub fn derive(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Exact percentile of unsorted samples (nearest rank), or `None` when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Microseconds elapsed since `start`.
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Calls `f` in batches of `batch` until `budget_s` has passed (at least
/// `min_batches` batches) and returns the median per-call time in µs.
pub fn time_per_call(
    budget_s: f64,
    batch: usize,
    min_batches: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::new();
    let mut i = 0usize;
    while per_call.len() < min_batches || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        per_call.push(us_since(t) / batch as f64);
    }
    median(&per_call)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Replaces `to` with a copy of the flat directory `from`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (printed on the human-readable line).
    pub samples: usize,
}

/// What a run reports: its metrics plus the operation census.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle failures, one line each (empty when every check passed).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records one oracle check: counts as an attempted operation, and as a
    /// failed one with its message when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
