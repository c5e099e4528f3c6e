//! Brute-force reference answers for metric plan queries. A full
//! tree-edit-distance scan is correct by construction, and its evaluation
//! count is what an index's pruning is measured against. The scans take
//! `(id, plan)` pairs, so any population can be checked against them.

use uplan_core::ted::{TedPlan, TedScratch};
use uplan_core::UnifiedPlan;

/// Every plan within `radius` tree edits of `probe`, as `(id, distance)`
/// in the order given, plus the evaluation count (one per plan).
pub fn scan_within_radius<'a>(
    plans: impl IntoIterator<Item = (usize, &'a UnifiedPlan)>,
    probe: &UnifiedPlan,
    radius: u32,
) -> (Vec<(usize, u32)>, u64) {
    let all = distances(plans, probe);
    let evals = all.len() as u64;
    (
        all.into_iter().filter(|&(_, d)| d <= radius).collect(),
        evals,
    )
}

/// The `k` plans nearest to `probe`, as `(id, distance)` by ascending
/// distance then id, plus the evaluation count (one per plan). An index
/// answers with the same distance multiset, but where several plans tie
/// at the k-th distance it may keep different tied ids.
pub fn scan_nearest<'a>(
    plans: impl IntoIterator<Item = (usize, &'a UnifiedPlan)>,
    probe: &UnifiedPlan,
    k: usize,
) -> (Vec<(usize, u32)>, u64) {
    let mut all = distances(plans, probe);
    let evals = all.len() as u64;
    all.sort_unstable_by_key(|&(id, d)| (d, id));
    all.truncate(k);
    (all, evals)
}

/// `(id, distance)` from `probe` to every plan, each by the full dynamic
/// program.
fn distances<'a>(
    plans: impl IntoIterator<Item = (usize, &'a UnifiedPlan)>,
    probe: &UnifiedPlan,
) -> Vec<(usize, u32)> {
    let probe = TedPlan::new(probe);
    let mut scratch = TedScratch::default();
    plans
        .into_iter()
        .map(|(id, plan)| (id, probe.distance(&TedPlan::new(plan), &mut scratch) as u32))
        .collect()
}
