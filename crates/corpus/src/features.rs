//! Structural feature vectors — the approximate-similarity pre-filter.
//!
//! TED is the corpus's ground-truth similarity metric, but even with
//! BK-tree pruning and the early-exit kernel every surviving candidate
//! pays a dynamic program quadratic in plan size. Following the
//! plan-embedding line of work (GNN plan representations motivate *cheap
//! structural summaries* as a similarity proxy), each plan gets one
//! fixed-width vector of structural counts computed at ingest:
//!
//! | slots    | content                                                |
//! |----------|--------------------------------------------------------|
//! | 0..8     | operation-category histogram (Table II order, 7 = ext) |
//! | 8        | node count                                             |
//! | 9        | max tree depth (root = 1)                              |
//! | 10..14   | arity histogram: leaves, 1-child, 2-child, ≥3-child    |
//! | 14..19   | property-category counts (plan + node, 4 = extension)  |
//! | 19       | max arity                                              |
//!
//! Two structurally close plans have close vectors, so L1 distance over
//! the vectors ranks candidates well enough for approximate k-NN:
//! generate a candidate set by vector distance, then re-rank the
//! candidates with exact TED. The vector distance is a *heuristic*, not a
//! TED lower bound — approximate mode trades bounded recall (measured on
//! the 10k fixture, gated in CI) for an order-of-magnitude cut in full
//! TED evaluations. Exact mode never consults these vectors.
//!
//! Vectors are deterministic functions of the plan, so persisting them
//! (the feature rows of every segment file, see
//! `uplan_core::formats::segment`) is a pure cache: a store open adopts
//! them instead of recomputing.

use uplan_core::model::PlanNode;
use uplan_core::model::Property;
use uplan_core::UnifiedPlan;

/// Width of every feature vector this crate computes and persists.
pub const FEATURE_DIM: usize = 20;

/// One plan's structural feature vector (see the module docs for the slot
/// layout).
pub type FeatureVector = [u32; FEATURE_DIM];

const SLOT_NODE_COUNT: usize = 8;
const SLOT_MAX_DEPTH: usize = 9;
const SLOT_ARITY_BASE: usize = 10;
const SLOT_PROP_BASE: usize = 14;
const SLOT_MAX_ARITY: usize = 19;

/// Computes the structural feature vector of one plan. Deterministic,
/// O(nodes + properties), saturating — hostile plan sizes clamp counts at
/// `u32::MAX` rather than wrapping.
pub fn features_of(plan: &UnifiedPlan) -> FeatureVector {
    let mut features = [0u32; FEATURE_DIM];
    count_properties(&plan.properties, &mut features);
    if let Some(root) = &plan.root {
        walk(root, 1, &mut features);
    }
    features
}

fn walk(node: &PlanNode, depth: u32, features: &mut FeatureVector) {
    bump(&mut features[node.operation.category.column_index()]);
    bump(&mut features[SLOT_NODE_COUNT]);
    features[SLOT_MAX_DEPTH] = features[SLOT_MAX_DEPTH].max(depth);
    let arity = node.children.len();
    bump(&mut features[SLOT_ARITY_BASE + arity.min(3)]);
    let arity = u32::try_from(arity).unwrap_or(u32::MAX);
    features[SLOT_MAX_ARITY] = features[SLOT_MAX_ARITY].max(arity);
    count_properties(&node.properties, features);
    for child in &node.children {
        walk(child, depth.saturating_add(1), features);
    }
}

fn count_properties(properties: &[Property], features: &mut FeatureVector) {
    for p in properties {
        bump(&mut features[SLOT_PROP_BASE + p.category.column_index()]);
    }
}

fn bump(slot: &mut u32) {
    *slot = slot.saturating_add(1);
}

/// L1 (cityblock) distance between two feature vectors — the candidate-
/// generation ranking of approximate queries. Symmetric, zero iff the
/// vectors are equal; summed in u64 so no pair of vectors can overflow.
pub fn l1_distance(a: &FeatureVector, b: &FeatureVector) -> u64 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| u64::from(x.abs_diff(y)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uplan_core::model::Property;
    use uplan_core::PlanNode;

    fn sample() -> UnifiedPlan {
        let scan = PlanNode::producer("Full_Table_Scan")
            .with_property(Property::cardinality("rows", 1000))
            .with_property(Property::cost("total_cost", 35.5));
        let other = PlanNode::producer("Index_Scan");
        let join = PlanNode::join("Hash_Join")
            .with_child(scan)
            .with_child(other);
        UnifiedPlan::with_root(join).with_plan_property(Property::status("planning_time_ms", 1))
    }

    #[test]
    fn counts_every_slot_of_a_known_plan() {
        let f = features_of(&sample());
        // Producer ×2, Join ×1, other op categories empty.
        assert_eq!(f[0], 2);
        assert_eq!(f[2], 1);
        assert_eq!(f[1] + f[3] + f[4] + f[5] + f[6] + f[7], 0);
        assert_eq!(f[SLOT_NODE_COUNT], 3);
        assert_eq!(f[SLOT_MAX_DEPTH], 2);
        // Two leaves, one 2-ary node; max arity 2.
        assert_eq!(f[SLOT_ARITY_BASE], 2);
        assert_eq!(f[SLOT_ARITY_BASE + 1], 0);
        assert_eq!(f[SLOT_ARITY_BASE + 2], 1);
        assert_eq!(f[SLOT_ARITY_BASE + 3], 0);
        assert_eq!(f[SLOT_MAX_ARITY], 2);
        // Cardinality, cost, and the plan-level status property.
        assert_eq!(f[SLOT_PROP_BASE], 1);
        assert_eq!(f[SLOT_PROP_BASE + 1], 1);
        assert_eq!(f[SLOT_PROP_BASE + 3], 1);
    }

    #[test]
    fn empty_plans_are_all_zero() {
        assert_eq!(features_of(&UnifiedPlan::new()), [0u32; FEATURE_DIM]);
    }

    #[test]
    fn l1_distance_is_a_symmetric_point_metric() {
        let a = features_of(&sample());
        let b = features_of(&UnifiedPlan::with_root(PlanNode::producer("Index_Scan")));
        assert_eq!(l1_distance(&a, &a), 0);
        assert_eq!(l1_distance(&a, &b), l1_distance(&b, &a));
        assert!(l1_distance(&a, &b) > 0);
    }
}
