//! A Burkhard–Keller tree over an integer metric.
//!
//! Tree edit distance with unit costs is a true metric (non-negative,
//! symmetric, zero iff label-identical trees, triangle inequality), which
//! is exactly what a BK-tree needs: every item in the subtree hanging off a
//! node's edge `e` lies at distance *exactly* `e` from that node, so a
//! query at distance `d` from the node can skip any edge with
//! `|d − e| > bound` — the triangle inequality guarantees nothing behind it
//! can answer. That turns "any plan within radius r?" over a 10k-plan
//! corpus from a full O(n) TED scan into a handful of evaluations.
//!
//! The tree stores opaque `u32` item ids and never computes distances
//! itself: every operation takes a `dist` closure and **returns how many
//! times it called it**. Those counts are determinism gates, not timings:
//! the same tree and probe evaluate the same nodes on any machine, so
//! tests pin the pruning claim and the identity of budgeted and
//! kernel-on/off walks on them. Speed is measured in wall clock
//! elsewhere. There is one traversal per query kind —
//! [`BkTree::within_radius`] and [`BkTree::nearest_into`] — each taking an
//! evaluation budget and a bounded metric.

use std::collections::BinaryHeap;

/// A BK-tree node: an item id plus children keyed by their distance to it.
#[derive(Debug, Clone)]
struct BkNode {
    item: u32,
    /// `(edge distance, node index)`; linear scan — real plan corpora have
    /// a few dozen distinct TED values per node at most.
    children: Vec<(u32, u32)>,
}

/// A BK-tree over `u32` item ids and a caller-supplied integer metric.
#[derive(Debug, Clone, Default)]
pub struct BkTree {
    nodes: Vec<BkNode>,
}

impl BkTree {
    /// An empty tree.
    pub fn new() -> BkTree {
        BkTree::default()
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts an item, routing by `dist(existing_item)`. Returns the
    /// number of metric evaluations spent.
    ///
    /// `dist` must be the same metric for every call on this tree, and
    /// `item` must not already be present (the corpus's fingerprint dedup
    /// guarantees both).
    pub fn insert(&mut self, item: u32, mut dist: impl FnMut(u32) -> u32) -> u64 {
        if self.nodes.is_empty() {
            self.nodes.push(BkNode {
                item,
                children: Vec::new(),
            });
            return 0;
        }
        let mut evals = 0u64;
        let mut cur = 0usize;
        loop {
            let d = dist(self.nodes[cur].item);
            evals += 1;
            match self.nodes[cur].children.iter().find(|(edge, _)| *edge == d) {
                Some(&(_, child)) => cur = child as usize,
                None => {
                    let idx = u32::try_from(self.nodes.len()).expect("BK-tree overflow");
                    self.nodes.push(BkNode {
                        item,
                        children: Vec::new(),
                    });
                    self.nodes[cur].children.push((d, idx));
                    return evals;
                }
            }
        }
    }

    /// All items within `radius` of the probe, as `(item, distance)` pairs
    /// in unspecified order, plus the number of metric evaluations spent —
    /// under a metric-evaluation budget and a *bounded* metric. The
    /// traversal stops *before* the evaluation that would exceed `limit`
    /// and the final `bool` reports whether it was cut short; unbudgeted
    /// callers pass `u64::MAX`.
    ///
    /// `dist(item, bound)` may return `None` to assert the distance exceeds
    /// `bound` without computing it exactly (an early-exit metric kernel);
    /// any `Some(d)` is taken as the exact distance. The traversal picks
    /// each node's bound so that a `None` answer can neither be a match nor
    /// open any child edge — matches and evaluation *starts* are therefore
    /// identical to an always-exact metric, every `None` just costs less.
    pub fn within_radius(
        &self,
        radius: u32,
        limit: u64,
        mut dist: impl FnMut(u32, u32) -> Option<u32>,
    ) -> (Vec<(u32, u32)>, u64, bool) {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return (out, 0, false);
        }
        let mut evals = 0u64;
        let mut stack = vec![0u32];
        while let Some(n) = stack.pop() {
            if evals >= limit {
                return (out, evals, true);
            }
            let node = &self.nodes[n as usize];
            // Distances up to radius + max edge still decide something: a
            // match needs d ≤ radius and child `edge` opens at
            // |d − edge| ≤ radius. Beyond that the node is a dead end, so
            // the metric may stop early.
            let max_edge = node.children.iter().map(|&(e, _)| e).max().unwrap_or(0);
            evals += 1;
            let Some(d) = dist(node.item, radius.saturating_add(max_edge)) else {
                continue;
            };
            if d <= radius {
                out.push((node.item, d));
            }
            for &(edge, child) in &node.children {
                // Everything behind `edge` is at exactly `edge` from this
                // node, hence at ≥ |d − edge| from the probe.
                if edge.abs_diff(d) <= radius {
                    stack.push(child);
                }
            }
        }
        (out, evals, false)
    }

    /// k-NN into a caller-owned best-`k` max-heap of `(distance, tag)`
    /// entries, so one query can *merge across several trees*: the heap
    /// carries the worst-keeper bound from tree to tree, and every tree
    /// after the first prunes against the bound the previous trees already
    /// tightened. `tag` maps a local item id into the caller's id space
    /// (a sharded corpus maps shard-local ids to global plan ids). Returns
    /// the number of metric evaluations spent in this tree and whether the
    /// budget cut the descent short: it stops *before* the evaluation that
    /// would exceed `limit`, leaving a best-effort prefix of the answer in
    /// the heap. Unbudgeted callers pass `u64::MAX`.
    ///
    /// The heap's *distance multiset* always equals a brute-force scan's.
    /// When more than `k` items tie at the k-th distance, *which* of the
    /// tied items are kept depends on traversal order — pruning skips
    /// subtrees that cannot strictly improve the result, so equal-distance
    /// alternatives behind them are never visited.
    ///
    /// The metric is bounded as in [`BkTree::within_radius`]: while the
    /// heap is filling every distance is needed exactly (the bound is
    /// `u32::MAX`); once it holds `k` entries a node only matters within
    /// worst-kept + max child edge, and a `None` beyond that can neither
    /// displace a kept entry nor survive any child's pruning check.
    pub fn nearest_into(
        &self,
        k: usize,
        limit: u64,
        best: &mut BinaryHeap<(u32, u32)>,
        tag: impl Fn(u32) -> u32,
        mut dist: impl FnMut(u32, u32) -> Option<u32>,
    ) -> (u64, bool) {
        if k == 0 || self.nodes.is_empty() {
            return (0, false);
        }
        let mut evals = 0u64;
        let mut gaps = Vec::new();
        let truncated = self.nearest_rec(0, k, limit, &tag, &mut dist, best, &mut evals, &mut gaps);
        (evals, truncated)
    }

    /// Returns `true` when the budget cut the descent short.
    #[allow(clippy::too_many_arguments)]
    fn nearest_rec(
        &self,
        n: u32,
        k: usize,
        limit: u64,
        tag: &impl Fn(u32) -> u32,
        dist: &mut impl FnMut(u32, u32) -> Option<u32>,
        best: &mut BinaryHeap<(u32, u32)>,
        evals: &mut u64,
        gaps: &mut Vec<(u32, u32)>,
    ) -> bool {
        if *evals >= limit {
            return true;
        }
        let node = &self.nodes[n as usize];
        let bound = match best.peek() {
            // A full heap only changes on d < worst, and child `edge` only
            // survives pruning when |d − edge| < worst; beyond
            // worst + max edge this node decides nothing.
            Some(&(worst, _)) if best.len() >= k => {
                let max_edge = node.children.iter().map(|&(e, _)| e).max().unwrap_or(0);
                worst.saturating_add(max_edge)
            }
            // Still filling: every distance is kept, so it must be exact.
            _ => u32::MAX,
        };
        *evals += 1;
        let Some(d) = dist(node.item, bound) else {
            return false;
        };
        if best.len() < k {
            best.push((d, tag(node.item)));
        } else if let Some(&(worst, _)) = best.peek() {
            if d < worst {
                best.pop();
                best.push((d, tag(node.item)));
            }
        }
        // Best-first over children: the subtree behind edge `e` bounds at
        // |d − e|, so visiting small gaps first tightens the heap early and
        // prunes more of the rest. One buffer serves the whole descent:
        // this node's gaps sit above its ancestors' pending ones, and each
        // child truncates back to where it started before the next is read.
        let start = gaps.len();
        gaps.extend(
            node.children
                .iter()
                .map(|&(edge, child)| (edge.abs_diff(d), child)),
        );
        gaps[start..].sort_unstable();
        for i in start..gaps.len() {
            let (gap, child) = gaps[i];
            // With a full heap, a subtree bounded at `gap >= worst` cannot
            // strictly improve any kept distance; equal-distance ties swap
            // items but never the distance multiset, so skipping is sound.
            let prune = best.len() >= k && best.peek().is_some_and(|&(worst, _)| gap >= worst);
            if !prune && self.nearest_rec(child, k, limit, tag, dist, best, evals, gaps) {
                return true;
            }
        }
        gaps.truncate(start);
        false
    }

    // -----------------------------------------------------------------------
    // Topology persistence
    // -----------------------------------------------------------------------
    //
    // A corpus shard inserts local ids 0, 1, 2, … in order, so node index,
    // insertion order and item id all coincide; the whole tree is then
    // described by one `(parent, edge distance)` pair per non-root node.
    // Persisting those pairs (each segment's BK edge groups) lets a reload
    // rebuild the exact tree without re-evaluating a single distance — the
    // cached edge distances *are* the distances `insert` would have
    // computed.

    /// `true` when node index, insertion order and item id coincide — the
    /// precondition for [`BkTree::edges`] round-tripping the tree.
    pub fn is_sequential(&self) -> bool {
        self.nodes
            .iter()
            .enumerate()
            .all(|(i, n)| n.item == i as u32)
    }

    /// The tree's topology as one `(parent node, edge distance)` pair per
    /// non-root node, indexed by node id − 1 (node 0 is the root). Requires
    /// [`BkTree::is_sequential`]; parents always precede children.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        debug_assert!(self.is_sequential());
        let mut out = vec![(0u32, 0u32); self.nodes.len().saturating_sub(1)];
        for (parent, node) in self.nodes.iter().enumerate() {
            for &(d, child) in &node.children {
                out[child as usize - 1] = (parent as u32, d);
            }
        }
        out
    }

    /// Rebuilds a sequential-id tree from [`BkTree::edges`] output without
    /// evaluating the metric. Errors (rather than panicking) on topology
    /// that no insertion sequence can produce: a parent at or after its
    /// child, or an edge count that does not match `count` — hostile or
    /// corrupted index sections must not crash the loader.
    pub fn from_edges(count: usize, edges: &[(u32, u32)]) -> Result<BkTree, String> {
        if edges.len() != count.saturating_sub(1) {
            return Err(format!(
                "BK topology has {} edges for {count} nodes (expected {})",
                edges.len(),
                count.saturating_sub(1)
            ));
        }
        let mut nodes: Vec<BkNode> = (0..count)
            .map(|i| BkNode {
                item: i as u32,
                children: Vec::new(),
            })
            .collect();
        for (i, &(parent, d)) in edges.iter().enumerate() {
            let child = (i + 1) as u32;
            if parent >= child {
                return Err(format!(
                    "BK topology edge {child} has non-causal parent {parent}"
                ));
            }
            nodes[parent as usize].children.push((d, child));
        }
        Ok(BkTree { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Absolute difference on a line of integers — a trivially correct
    /// metric for exercising the traversals.
    fn line_metric(items: &[u32], probe: u32) -> impl FnMut(u32) -> u32 + '_ {
        move |i| items[i as usize].abs_diff(probe)
    }

    /// The same metric, honestly bounded: it refuses to report distances
    /// beyond the traversal's per-node bound, exercising early exits.
    fn line_metric_bounded(items: &[u32], probe: u32) -> impl FnMut(u32, u32) -> Option<u32> + '_ {
        move |i, bound| {
            let d = items[i as usize].abs_diff(probe);
            (d <= bound).then_some(d)
        }
    }

    /// An unbudgeted radius query under an always-exact metric.
    fn within(
        tree: &BkTree,
        radius: u32,
        mut dist: impl FnMut(u32) -> u32,
    ) -> (Vec<(u32, u32)>, u64) {
        let (out, evals, _) = tree.within_radius(radius, u64::MAX, |item, _| Some(dist(item)));
        (out, evals)
    }

    /// An unbudgeted k-NN query under an always-exact metric, as
    /// `(item, distance)` sorted by ascending distance (then item id).
    fn nearest(
        tree: &BkTree,
        k: usize,
        mut dist: impl FnMut(u32) -> u32,
    ) -> (Vec<(u32, u32)>, u64) {
        let mut best = BinaryHeap::new();
        let (evals, _) = tree.nearest_into(
            k,
            u64::MAX,
            &mut best,
            |item| item,
            |item, _| Some(dist(item)),
        );
        let sorted = best.into_sorted_vec();
        (
            sorted.into_iter().map(|(d, item)| (item, d)).collect(),
            evals,
        )
    }

    fn build(values: &[u32]) -> BkTree {
        let mut tree = BkTree::new();
        for (i, _) in values.iter().enumerate() {
            let probe = values[i];
            tree.insert(i as u32, |j| values[j as usize].abs_diff(probe));
        }
        tree
    }

    #[test]
    fn radius_queries_match_brute_force() {
        let values = [5u32, 9, 1, 14, 5, 22, 8, 3, 17, 40, 2, 11];
        let tree = build(&values);
        for probe in 0..45u32 {
            for radius in 0..10u32 {
                let (mut got, evals) = within(&tree, radius, line_metric(&values, probe));
                got.sort_unstable();
                let mut want: Vec<(u32, u32)> = values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.abs_diff(probe) <= radius)
                    .map(|(i, v)| (i as u32, v.abs_diff(probe)))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "probe {probe} radius {radius}");
                assert!(evals <= values.len() as u64);
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_distances() {
        let values = [5u32, 9, 1, 14, 5, 22, 8, 3, 17, 40, 2, 11];
        let tree = build(&values);
        for probe in 0..45u32 {
            for k in 1..=values.len() + 1 {
                let (got, _) = nearest(&tree, k, line_metric(&values, probe));
                let mut want: Vec<u32> = values.iter().map(|v| v.abs_diff(probe)).collect();
                want.sort_unstable();
                want.truncate(k);
                let got_d: Vec<u32> = got.iter().map(|&(_, d)| d).collect();
                assert_eq!(got_d, want, "probe {probe} k {k}");
            }
        }
    }

    #[test]
    fn pruning_beats_scanning_on_clustered_data() {
        // 512 items in tight clusters: a radius-1 probe near one cluster
        // must not evaluate the whole population.
        let values: Vec<u32> = (0..512u32).map(|i| (i / 32) * 1000 + (i % 32)).collect();
        let tree = build(&values);
        let (hits, evals) = within(&tree, 1, line_metric(&values, 3015));
        assert!(!hits.is_empty());
        assert!(
            evals * 4 < values.len() as u64,
            "radius query spent {evals} evals on {} items",
            values.len()
        );
    }

    #[test]
    fn zero_distance_items_are_indexable() {
        // Distinct items at distance 0 (plans with equal trees but
        // different fingerprints) chain through 0-edges and stay findable.
        let values = [7u32, 7, 7, 9];
        let tree = build(&values);
        let (mut hits, _) = within(&tree, 0, line_metric(&values, 7));
        hits.sort_unstable();
        assert_eq!(hits, vec![(0, 0), (1, 0), (2, 0)]);
        let (knn, _) = nearest(&tree, 3, line_metric(&values, 7));
        assert!(knn.iter().all(|&(_, d)| d == 0));
        assert_eq!(knn.len(), 3);
    }

    #[test]
    fn edges_round_trip_the_exact_tree() {
        let values: Vec<u32> = (0..257u32).map(|i| (i * 37) % 101).collect();
        let tree = build(&values);
        assert!(tree.is_sequential());
        let edges = tree.edges();
        assert_eq!(edges.len(), tree.len() - 1);
        let rebuilt = BkTree::from_edges(tree.len(), &edges).unwrap();
        // The rebuilt tree answers every query with the *same matches and
        // the same evaluation counts* — it is the same tree, not an
        // equivalent one.
        for probe in 0..40u32 {
            let (mut a, ae) = within(&tree, 3, line_metric(&values, probe));
            let (mut b, be) = within(&rebuilt, 3, line_metric(&values, probe));
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            assert_eq!(ae, be);
            let (a, ae) = nearest(&tree, 4, line_metric(&values, probe));
            let (b, be) = nearest(&rebuilt, 4, line_metric(&values, probe));
            assert_eq!(a, b);
            assert_eq!(ae, be);
        }
        // And its own edge export is identical (stable fixpoint).
        assert_eq!(rebuilt.edges(), edges);
    }

    #[test]
    fn from_edges_rejects_malformed_topology() {
        assert!(BkTree::from_edges(3, &[(0, 1)]).is_err(), "missing edge");
        assert!(
            BkTree::from_edges(3, &[(0, 1), (2, 1)]).is_err(),
            "parent at/after child"
        );
        assert!(
            BkTree::from_edges(2, &[(5, 1)]).is_err(),
            "parent out of range"
        );
        let empty = BkTree::from_edges(0, &[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(BkTree::from_edges(1, &[]).unwrap().len(), 1);
    }

    #[test]
    fn nearest_into_merges_across_trees_with_a_shared_bound() {
        // Split one population across two trees; a merged k-NN over both
        // must return the global distance multiset, and the shared heap
        // means the second tree prunes against the first tree's results.
        let values = [5u32, 9, 1, 14, 5, 22, 8, 3, 17, 40, 2, 11];
        let (left, right) = values.split_at(6);
        let ltree = build(left);
        let rtree = build(right);
        for probe in 0..45u32 {
            for k in 1..=values.len() {
                let mut best = BinaryHeap::with_capacity(k + 1);
                let (mut evals, _) = ltree.nearest_into(
                    k,
                    u64::MAX,
                    &mut best,
                    |i| i,
                    line_metric_bounded(left, probe),
                );
                evals += rtree
                    .nearest_into(
                        k,
                        u64::MAX,
                        &mut best,
                        |i| i + left.len() as u32,
                        line_metric_bounded(right, probe),
                    )
                    .0;
                let mut got: Vec<u32> = best.into_sorted_vec().iter().map(|&(d, _)| d).collect();
                got.sort_unstable();
                let mut want: Vec<u32> = values.iter().map(|v| v.abs_diff(probe)).collect();
                want.sort_unstable();
                want.truncate(k);
                assert_eq!(got, want, "probe {probe} k {k}");
                assert!(evals <= values.len() as u64);
            }
        }
    }

    #[test]
    fn budgeted_traversals_stop_exactly_at_the_limit() {
        let values: Vec<u32> = (0..512u32).map(|i| (i * 37) % 101).collect();
        let tree = build(&values);
        for probe in [0u32, 13, 50, 100] {
            let (mut full, full_evals) = within(&tree, 3, line_metric(&values, probe));
            full.sort_unstable();
            // u64::MAX is the unbudgeted query, bit for bit.
            let (mut unlim, evals, cut) =
                tree.within_radius(3, u64::MAX, line_metric_bounded(&values, probe));
            unlim.sort_unstable();
            assert_eq!(unlim, full);
            assert_eq!(evals, full_evals);
            assert!(!cut);
            for limit in [1u64, full_evals / 2, full_evals] {
                let (part, spent, cut) =
                    tree.within_radius(3, limit, line_metric_bounded(&values, probe));
                assert!(spent <= limit, "spent {spent} over budget {limit}");
                if limit >= full_evals {
                    assert!(!cut);
                } else {
                    assert!(cut);
                    assert_eq!(spent, limit);
                }
                // A truncated answer is a subset of the full one.
                assert!(part.iter().all(|m| full.contains(m)));
            }
            // Same discipline for k-NN.
            let mut best = BinaryHeap::new();
            let (full_knn_evals, cut) = tree.nearest_into(
                4,
                u64::MAX,
                &mut best,
                |i| i,
                line_metric_bounded(&values, probe),
            );
            assert!(!cut);
            let (_, plain_evals) = nearest(&tree, 4, line_metric(&values, probe));
            assert_eq!(full_knn_evals, plain_evals);
            let mut best = BinaryHeap::new();
            let limit = full_knn_evals / 2;
            let (spent, cut) = tree.nearest_into(
                4,
                limit,
                &mut best,
                |i| i,
                line_metric_bounded(&values, probe),
            );
            assert!(cut);
            assert_eq!(spent, limit);
            assert!(best.len() <= 4);
        }
    }

    #[test]
    fn bounded_metric_is_invisible_except_for_the_savings() {
        // An honestly-bounded metric must answer every query with the same
        // matches and the same evaluation *starts* as an always-exact one —
        // the only observable difference is how many starts exited early.
        // The +66 shift puts the tree root mid-range: subtrees then mix
        // values on both sides of it, which is what makes visited-but-
        // beyond-bound nodes (the early exits) reachable at all.
        let values: Vec<u32> = (0..512u32).map(|i| (i * 37 + 66) % 101).collect();
        let tree = build(&values);
        let mut total_partials = 0u64;
        for probe in 0..101u32 {
            for radius in [0u32, 2, 5] {
                let (mut exact, exact_evals, _) = tree.within_radius(radius, u64::MAX, |i, _| {
                    Some(values[i as usize].abs_diff(probe))
                });
                let mut partials = 0u64;
                let (mut bounded, bounded_evals, _) =
                    tree.within_radius(radius, u64::MAX, |i, bound| {
                        let d = values[i as usize].abs_diff(probe);
                        if d > bound {
                            partials += 1;
                            return None;
                        }
                        Some(d)
                    });
                exact.sort_unstable();
                bounded.sort_unstable();
                assert_eq!(exact, bounded, "probe {probe} radius {radius}");
                assert_eq!(exact_evals, bounded_evals, "probe {probe} radius {radius}");
                total_partials += partials;
            }
            for k in [1usize, 4] {
                let mut exact_best = BinaryHeap::new();
                let (exact_evals, _) = tree.nearest_into(
                    k,
                    u64::MAX,
                    &mut exact_best,
                    |i| i,
                    |i, _| Some(values[i as usize].abs_diff(probe)),
                );
                let mut bounded_best = BinaryHeap::new();
                let (bounded_evals, _) = tree.nearest_into(
                    k,
                    u64::MAX,
                    &mut bounded_best,
                    |i| i,
                    line_metric_bounded(&values, probe),
                );
                assert_eq!(
                    exact_best.into_sorted_vec(),
                    bounded_best.into_sorted_vec(),
                    "probe {probe} k {k}"
                );
                assert_eq!(exact_evals, bounded_evals, "probe {probe} k {k}");
            }
        }
        assert!(total_partials > 0, "the bounded path never exited early");
    }

    #[test]
    fn empty_and_k_zero_edge_cases() {
        let tree = BkTree::new();
        assert!(tree.is_empty());
        let (hits, evals) = within(&tree, 5, |_| 0);
        assert!(hits.is_empty() && evals == 0);
        let (knn, evals) = nearest(&tree, 3, |_| 0);
        assert!(knn.is_empty() && evals == 0);
        let full = build(&[1, 2, 3]);
        assert_eq!(full.len(), 3);
        let (knn, evals) = nearest(&full, 0, |_| 0);
        assert!(knn.is_empty() && evals == 0);
    }
}
