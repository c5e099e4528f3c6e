//! Tree edit distance between unified plans.
//!
//! The paper's discussion (Section VI, *Additional use cases*) proposes
//! "similarity on tree structures" as a metric for comparing different
//! DBMSs' query plans through the unified representation. This module
//! implements the classic Zhang–Shasha ordered tree edit distance with unit
//! costs, where two nodes match when their operation category and stable
//! identifier agree, plus a normalized similarity on top.
//!
//! Hot-path representation: node labels are `(category symbol, stable
//! identifier symbol)` pairs packed into one `u64` each — label equality is
//! an integer compare, flattening a tree allocates three flat vectors and
//! zero per-node strings (stable forms are memoized by the interner), and
//! the dynamic program runs over two reused single-`Vec` tables instead of
//! per-keyroot-pair nested allocations.
//!
//! Bounded evaluations (the metric of every BK walk and re-rank) skip the
//! dynamic program whenever its verdict is already known:
//!
//! * **Label-multiset bound.** For any edit mapping `M` between trees `A`
//!   and `B`, the cost is `|A| + |B| − |M| − |M_equal|`, where `M_equal`
//!   are the mapped pairs with equal labels. Since `|M| ≤ min(|A|, |B|)`
//!   and `|M_equal| ≤ I = |labels(A) ∩ labels(B)|` (as multisets), the
//!   distance is at least `max(|A|, |B|) − I`. When that exceeds the bound
//!   the verdict is `Exceeded` without the program. It is never weaker
//!   than the size difference `||A| − |B||`, because `I ≤ min(|A|, |B|)`.
//! * **Banded program.** Forest cells off the diagonal band provably
//!   exceed the bound ([`tree_edit_distance_bounded`]).
//! * **Per-query shape memo** ([`TedProbe`]). Labels and leftmost-leaf
//!   indices in post order determine the labelled ordered tree, so two
//!   stored plans with equal sequences ("the same shape") are at the same
//!   distance from a probe. A probe remembers each shape's verdict: an
//!   exact distance `d` answers any later bound `b` (`Exact(d)` when
//!   `d ≤ b`, else `Exceeded`), and `Exceeded` at bound `b₀` answers any
//!   later bound `b ≤ b₀`; a larger bound runs the program again. A stored
//!   shape equal to the probe's answers `Exact(0)`. Shapes are bucketed by
//!   a 64-bit hash but matched on the full sequences, so a hash collision
//!   costs a comparison, never a wrong answer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::model::{PlanNode, UnifiedPlan};
use crate::symbol::SymbolTable;

/// Post-order flattening of a tree with leftmost-leaf-descendant indices —
/// the standard Zhang–Shasha preprocessing.
#[derive(Debug, Clone)]
struct Flat {
    /// `(category name symbol) << 32 | (stable identifier symbol)`.
    labels: Vec<u64>,
    /// `lld[i]` = post-order index of the leftmost leaf descendant of node `i`.
    lld: Vec<u32>,
    /// Post-order indices of keyroots (nodes with a left sibling, plus root),
    /// ascending.
    keyroots: Vec<u32>,
    /// Hash of `labels` and `lld`, which determine the labelled ordered
    /// tree: the bucket key of the shape memo ([`TedProbe`]). Symbol
    /// indices are process-local, so the key is never persisted.
    shape: u64,
}

impl Flat {
    /// `true` when both trees are the same labelled ordered tree. The hash
    /// only filters; the sequences decide.
    fn same_shape(&self, other: &Flat) -> bool {
        self.shape == other.shape && self.labels == other.labels && self.lld == other.lld
    }
}

/// The shape key of a post-order flattening: a 64-bit mix of every
/// `(label, lld)` pair.
fn shape_key(labels: &[u64], lld: &[u32]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = labels.len() as u64;
    for (&label, &leftmost) in labels.iter().zip(lld) {
        h = (h.rotate_left(23) ^ label).wrapping_mul(K);
        h = (h.rotate_left(23) ^ u64::from(leftmost)).wrapping_mul(K);
    }
    // splitmix64 finalizer: spreads the last pairs into the high bits the
    // memo's hash table buckets on.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn flatten(root: &PlanNode, table: &SymbolTable) -> Flat {
    let mut labels = Vec::new();
    let mut lld = Vec::new();

    fn walk(
        node: &PlanNode,
        table: &SymbolTable,
        labels: &mut Vec<u64>,
        lld: &mut Vec<u32>,
    ) -> u32 {
        let mut leftmost = None;
        for child in &node.children {
            let child_index = walk(child, table, labels, lld);
            leftmost.get_or_insert(lld[child_index as usize]);
        }
        let index = labels.len() as u32;
        let category = node.operation.category.name_symbol().index();
        let stable = table.stable(node.operation.identifier).index();
        labels.push(u64::from(category) << 32 | u64::from(stable));
        lld.push(leftmost.unwrap_or(index));
        index
    }
    walk(root, table, &mut labels, &mut lld);

    // Keyroots: for each distinct lld value, the highest post-order index.
    // One reverse pass suffices: the first time an lld value is seen walking
    // right-to-left *is* its highest index (O(n), replacing an O(n²) scan).
    let mut keyroots = Vec::new();
    let mut seen = vec![false; labels.len()];
    for i in (0..labels.len() as u32).rev() {
        let lld_i = lld[i as usize] as usize;
        if !seen[lld_i] {
            seen[lld_i] = true;
            keyroots.push(i);
        }
    }
    // The DP fills small subtrees first, so keyroots must ascend.
    keyroots.reverse();
    let shape = shape_key(&labels, &lld);
    Flat {
        labels,
        lld,
        keyroots,
        shape,
    }
}

/// Outcome of a bounded tree-edit-distance evaluation
/// ([`tree_edit_distance_bounded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedTed {
    /// The true distance — guaranteed equal to [`tree_edit_distance`] and
    /// `<=` the bound.
    Exact(usize),
    /// The true distance exceeds the bound; the exact value was not
    /// computed (that is the point — the evaluation stopped early).
    Exceeded,
}

impl BoundedTed {
    /// The distance when it was within the bound.
    pub fn exact(self) -> Option<usize> {
        match self {
            BoundedTed::Exact(d) => Some(d),
            BoundedTed::Exceeded => None,
        }
    }
}

/// Sentinel for dynamic-program cells whose true value provably exceeds the
/// bound. Half of `u32::MAX` so saturating additions never wrap back under
/// any real distance.
const EXCEEDED: u32 = u32::MAX / 2;

/// A plan pre-flattened for repeated tree-edit-distance evaluations.
///
/// Flattening (post-order walk, symbol-table reads, three vector
/// allocations) costs about as much as the dynamic program itself on
/// typical plan sizes, so callers that evaluate one probe against many
/// stored plans — BK traversals, shortlist re-ranks, index builds —
/// flatten each side once and evaluate over the views with a reused
/// [`TedScratch`]. [`tree_edit_distance`] is a one-shot wrapper over this
/// type, and [`tree_edit_distance_bounded`] over a one-shot [`TedProbe`].
#[derive(Debug, Clone, Default)]
pub struct TedPlan {
    /// `None` for an empty plan (no root): the distance to a peer is then
    /// the peer's node count.
    flat: Option<Flat>,
}

/// Reusable dynamic-program tables for [`TedPlan`] evaluations: the n×m
/// tree-distance table plus the forest-distance scratch, grown on demand
/// and recycled across evaluations so the hot path allocates nothing —
/// plus the stored side's sorted labels for the label-multiset bound (the
/// probe's are sorted once per query by [`TedProbe`]).
#[derive(Debug, Default)]
pub struct TedScratch {
    td: Vec<u32>,
    fd: Vec<u32>,
    /// The stored side's sorted labels.
    labels: Vec<u64>,
}

impl TedPlan {
    /// Flattens `plan` once for many evaluations.
    pub fn new(plan: &UnifiedPlan) -> TedPlan {
        TedPlan {
            flat: plan.root.as_ref().map(|root| {
                let table = SymbolTable::read();
                flatten(root, &table)
            }),
        }
    }

    /// Nodes in the flattened tree (zero for an empty plan).
    pub fn node_count(&self) -> usize {
        self.flat.as_ref().map_or(0, |flat| flat.labels.len())
    }

    /// Exact distance to `other` — equal to [`tree_edit_distance`] on the
    /// source plans.
    pub fn distance(&self, other: &TedPlan, scratch: &mut TedScratch) -> usize {
        match (&self.flat, &other.flat) {
            (None, None) => 0,
            (Some(flat), None) | (None, Some(flat)) => flat.labels.len(),
            (Some(a), Some(b)) => zhang_shasha(a, b, scratch),
        }
    }
}

/// The verdict for a known exact distance `d` under `bound`.
fn verdict(d: usize, bound: usize) -> BoundedTed {
    if d <= bound {
        BoundedTed::Exact(d)
    } else {
        BoundedTed::Exceeded
    }
}

/// Replaces `buf` with `labels` in ascending order.
fn sort_into(buf: &mut Vec<u64>, labels: &[u64]) {
    buf.clear();
    buf.extend_from_slice(labels);
    buf.sort_unstable();
}

/// `max(|A|, |B|) − |A ∩ B|` over two sorted label multisets: a lower
/// bound on the tree edit distance (module docs).
fn label_lower_bound(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len().max(b.len()) - shared
}

/// The un-memoized bounded evaluation of two non-empty trees, given `a`'s
/// labels sorted: the label-multiset bound, then the banded program.
fn bounded(
    a: &Flat,
    sorted_a: &[u64],
    b: &Flat,
    bound: usize,
    scratch: &mut TedScratch,
) -> BoundedTed {
    let (n, m) = (a.labels.len(), b.labels.len());
    // The label bound never exceeds max(n, m), and never falls below the
    // size difference: both ends decide without sorting.
    if n.abs_diff(m) > bound {
        return BoundedTed::Exceeded;
    }
    if n.max(m) > bound {
        sort_into(&mut scratch.labels, &b.labels);
        if label_lower_bound(sorted_a, &scratch.labels) > bound {
            return BoundedTed::Exceeded;
        }
    }
    let band = u32::try_from(bound)
        .unwrap_or(EXCEEDED - 1)
        .min(EXCEEDED - 1) as usize;
    verdict(zhang_shasha_banded(a, b, band, scratch) as usize, bound)
}

/// A probe prepared for one query's bounded evaluations against many
/// stored plans: its labels sorted once for the label-multiset bound, and
/// the per-query shape memo (module docs). Every verdict is `Exact(d)` when
/// the exact distance `d` is within the bound and `Exceeded` otherwise;
/// only the work behind it differs.
///
/// Memo entries borrow the stored views they were computed on, so a probe
/// lives no longer than the corpus it walks. Build one per probe: the
/// memo is keyed by the stored side only.
#[derive(Debug)]
pub struct TedProbe<'a> {
    plan: &'a TedPlan,
    /// The probe's labels in ascending order.
    sorted: Vec<u64>,
    /// Shape key → index of the newest entry in that bucket.
    heads: HashMap<u64, u32, BuildHasherDefault<ShapeKeyHasher>>,
    /// Memo entries, chained per bucket through `next`.
    entries: Vec<MemoEntry<'a>>,
}

/// One remembered verdict: the stored tree it was computed on (compared in
/// full on every hit) and what is known of its distance to the probe.
#[derive(Debug)]
struct MemoEntry<'a> {
    shape: &'a Flat,
    known: Known,
    /// The previous entry in the same bucket, or [`NO_ENTRY`].
    next: u32,
}

const NO_ENTRY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
enum Known {
    /// The exact distance.
    Exact(usize),
    /// The distance exceeds this bound.
    ExceededAt(usize),
}

/// Hasher for keys that already are well-mixed 64-bit hashes: passes them
/// through.
#[derive(Debug, Default)]
struct ShapeKeyHasher(u64);

impl Hasher for ShapeKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(byte)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

impl<'a> TedProbe<'a> {
    /// Prepares `plan` as the probe of one query.
    pub fn new(plan: &'a TedPlan) -> TedProbe<'a> {
        let mut sorted = Vec::new();
        if let Some(flat) = &plan.flat {
            sort_into(&mut sorted, &flat.labels);
        }
        TedProbe {
            plan,
            sorted,
            heads: HashMap::default(),
            entries: Vec::new(),
        }
    }

    /// Bounded distance from the probe to `other`, answered from the shape
    /// memo or the probe's own shape when possible, else computed by the
    /// label-multiset bound and the banded program, and remembered.
    pub fn distance_bounded(
        &mut self,
        other: &'a TedPlan,
        bound: usize,
        scratch: &mut TedScratch,
    ) -> BoundedTed {
        let (Some(a), Some(b)) = (&self.plan.flat, &other.flat) else {
            // An empty side: the distance is the other side's node count.
            return verdict(self.plan.node_count().max(other.node_count()), bound);
        };
        // Cheapest first: the size difference, the probe's own shape, the
        // memo; only then the label bound and the program.
        if a.labels.len().abs_diff(b.labels.len()) > bound {
            return BoundedTed::Exceeded;
        }
        if a.same_shape(b) {
            return BoundedTed::Exact(0);
        }
        let hit = self.find(b);
        if let Some(entry) = hit {
            match self.entries[entry as usize].known {
                Known::Exact(d) => return verdict(d, bound),
                Known::ExceededAt(at) if bound <= at => return BoundedTed::Exceeded,
                Known::ExceededAt(_) => {}
            }
        }
        let result = bounded(a, &self.sorted, b, bound, scratch);
        let known = match result {
            BoundedTed::Exact(d) => Known::Exact(d),
            BoundedTed::Exceeded => Known::ExceededAt(bound),
        };
        match hit {
            Some(entry) => self.entries[entry as usize].known = known,
            None => self.remember(b, known),
        }
        result
    }

    /// The memo entry for `b`'s shape, if any.
    fn find(&self, b: &Flat) -> Option<u32> {
        let mut entry = *self.heads.get(&b.shape)?;
        while entry != NO_ENTRY {
            let e = &self.entries[entry as usize];
            if e.shape.same_shape(b) {
                return Some(entry);
            }
            entry = e.next;
        }
        None
    }

    fn remember(&mut self, b: &'a Flat, known: Known) {
        let index = u32::try_from(self.entries.len()).expect("shape memo overflow");
        let next = self.heads.insert(b.shape, index).unwrap_or(NO_ENTRY);
        self.entries.push(MemoEntry {
            shape: b,
            known,
            next,
        });
    }
}

/// Zhang–Shasha tree edit distance with unit insert/delete/rename costs.
///
/// Empty plans (no tree) are treated as empty trees: the distance between an
/// empty and a non-empty plan is the node count of the latter.
pub fn tree_edit_distance(a: &UnifiedPlan, b: &UnifiedPlan) -> usize {
    TedPlan::new(a).distance(&TedPlan::new(b), &mut TedScratch::default())
}

fn zhang_shasha(a: &Flat, b: &Flat, scratch: &mut TedScratch) -> usize {
    let (n, m) = (a.labels.len(), b.labels.len());
    // Flat n×m tree-distance table plus one forest-distance scratch sized
    // for the worst keyroot pair — both recycled from `scratch`.
    scratch.td.clear();
    scratch.td.resize(n * m, 0);
    scratch.fd.clear();
    scratch.fd.resize((n + 1) * (m + 1), 0);
    let (td, fd) = (&mut scratch.td, &mut scratch.fd);

    for &i in &a.keyroots {
        for &j in &b.keyroots {
            tree_dist(a, b, i as usize, j as usize, td, fd);
        }
    }
    td[(n - 1) * m + (m - 1)] as usize
}

fn tree_dist(a: &Flat, b: &Flat, i: usize, j: usize, td: &mut [u32], fd: &mut [u32]) {
    let m = b.labels.len();
    let ali = a.lld[i] as usize;
    let blj = b.lld[j] as usize;
    let rows = i - ali + 2;
    let cols = j - blj + 2;
    // Forest distance matrix (row stride `cols`), indexed from
    // (ali-1, blj-1) conceptually.
    fd[0] = 0;
    for r in 1..rows {
        fd[r * cols] = r as u32;
    }
    for (c, cell) in fd[..cols].iter_mut().enumerate().skip(1) {
        *cell = c as u32;
    }
    for r in 1..rows {
        let ai = ali + r - 1;
        let a_lld = a.lld[ai] as usize;
        let whole_a = a_lld == ali;
        let label_a = a.labels[ai];
        let td_row = ai * m;
        for c in 1..cols {
            let bj = blj + c - 1;
            let cell = r * cols + c;
            let up = fd[cell - cols] + 1;
            let left = fd[cell - 1] + 1;
            let value = if whole_a && b.lld[bj] as usize == blj {
                // Both forests are whole trees rooted at ai/bj.
                let rename = u32::from(label_a != b.labels[bj]);
                let diag = fd[cell - cols - 1] + rename;
                let best = up.min(left).min(diag);
                td[td_row + bj] = best;
                best
            } else {
                let prev_r = a_lld - ali; // forest without subtree at ai
                let prev_c = b.lld[bj] as usize - blj;
                let diag = fd[prev_r * cols + prev_c] + td[td_row + bj];
                up.min(left).min(diag)
            };
            fd[cell] = value;
        }
    }
}

/// Zhang–Shasha with a diagonal band: the exact distance when it is within
/// `bound`, [`BoundedTed::Exceeded`] otherwise — without paying for the
/// full dynamic program in the latter case.
///
/// Two lower bounds decide before any program runs. The label-multiset
/// bound `max(|A|, |B|) − |labels(A) ∩ labels(B)|` holds because a mapping
/// `M` costs `|A| + |B| − |M| − |M_equal|`, with `|M| ≤ min(|A|, |B|)` and
/// `|M_equal|` at most the shared labels; its special case `||A| − |B||`
/// (shared labels at most the smaller size) needs no sorting. Either one
/// above `bound` answers `Exceeded`.
///
/// Soundness sketch of the band: a forest-distance cell `(r, c)` compares
/// forests of `r` and `c` nodes, so its true value is at least `|r − c|`.
/// Cells with `|r − c| > bound` therefore provably exceed the bound and can
/// be banded out (replaced by an over-approximation). All recurrences are mins over
/// monotone additions, so every computed value stays an over-approximation
/// of the true value; and any cell whose true value is `<= bound` has an
/// optimal derivation that passes only through cells with values `<=
/// bound` — all inside the band, hence computed exactly by induction. The
/// final value is thus exact whenever it lands within the bound, and
/// strictly above the bound exactly when the true distance is.
pub fn tree_edit_distance_bounded(a: &UnifiedPlan, b: &UnifiedPlan, bound: usize) -> BoundedTed {
    let (a, b) = (TedPlan::new(a), TedPlan::new(b));
    TedProbe::new(&a).distance_bounded(&b, bound, &mut TedScratch::default())
}

fn zhang_shasha_banded(a: &Flat, b: &Flat, band: usize, scratch: &mut TedScratch) -> u32 {
    let (n, m) = (a.labels.len(), b.labels.len());
    // Tree-distance entries whose whole-tree cell falls outside the band are
    // never written; initializing to the sentinel makes reading them sound
    // (their true value provably exceeds the bound).
    scratch.td.clear();
    scratch.td.resize(n * m, EXCEEDED);
    scratch.fd.clear();
    scratch.fd.resize((n + 1) * (m + 1), 0);
    let (td, fd) = (&mut scratch.td, &mut scratch.fd);

    for &i in &a.keyroots {
        for &j in &b.keyroots {
            tree_dist_banded(a, b, i as usize, j as usize, band, td, fd);
        }
    }
    // The root pair sits on the main diagonal within the band (the caller
    // checked the size difference), so this entry was written.
    td[(n - 1) * m + (m - 1)]
}

/// [`tree_dist`] restricted to the diagonal band `|r − c| <= band`. Cells
/// outside the band read as [`EXCEEDED`]; the two cells flanking each row's
/// band are written explicitly so the next row's up/left reads see the
/// sentinel rather than stale scratch from an earlier keyroot pair.
fn tree_dist_banded(
    a: &Flat,
    b: &Flat,
    i: usize,
    j: usize,
    band: usize,
    td: &mut [u32],
    fd: &mut [u32],
) {
    let m = b.labels.len();
    let ali = a.lld[i] as usize;
    let blj = b.lld[j] as usize;
    let rows = i - ali + 2;
    let cols = j - blj + 2;
    fd[0] = 0;
    for r in 1..rows {
        fd[r * cols] = r as u32;
    }
    for (c, cell) in fd[..cols].iter_mut().enumerate().skip(1) {
        *cell = c as u32;
    }
    for r in 1..rows {
        let lo = r.saturating_sub(band).max(1);
        let hi = (r + band).min(cols - 1);
        if lo > hi {
            // Every remaining row lies entirely below the band.
            break;
        }
        let row_base = r * cols;
        if lo > 1 {
            fd[row_base + lo - 1] = EXCEEDED;
        }
        if hi + 1 < cols {
            fd[row_base + hi + 1] = EXCEEDED;
        }
        let ai = ali + r - 1;
        let a_lld = a.lld[ai] as usize;
        let whole_a = a_lld == ali;
        let label_a = a.labels[ai];
        let td_row = ai * m;
        for c in lo..=hi {
            let bj = blj + c - 1;
            let cell = row_base + c;
            let up = fd[cell - cols].saturating_add(1);
            let left = fd[cell - 1].saturating_add(1);
            let value = if whole_a && b.lld[bj] as usize == blj {
                let rename = u32::from(label_a != b.labels[bj]);
                let diag = fd[cell - cols - 1].saturating_add(rename);
                let best = up.min(left).min(diag);
                td[td_row + bj] = best;
                best
            } else {
                let prev_r = a_lld - ali;
                let prev_c = b.lld[bj] as usize - blj;
                // The far-diagonal jump can land outside the band, where the
                // scratch holds stale data — such cells exceed the bound by
                // construction, so substitute the sentinel.
                let prev = if prev_r.abs_diff(prev_c) > band {
                    EXCEEDED
                } else {
                    fd[prev_r * cols + prev_c]
                };
                let diag = prev.saturating_add(td[td_row + bj]);
                up.min(left).min(diag)
            };
            fd[cell] = value;
        }
    }
}

/// Normalized similarity in `[0, 1]`: `1 − ted / (|a| + |b|)`.
///
/// The sum (not the max) bounds the distance: renames can make two
/// same-size trees cost more than their size (delete + insert both sides),
/// so `max` would not keep the ratio below 1. Two empty plans are fully
/// similar.
pub fn similarity(a: &UnifiedPlan, b: &UnifiedPlan) -> f64 {
    let size_a = a.operation_count();
    let size_b = b.operation_count();
    if size_a + size_b == 0 {
        return 1.0;
    }
    1.0 - tree_edit_distance(a, b) as f64 / (size_a + size_b) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PlanNode;

    fn leaf(name: &str) -> PlanNode {
        PlanNode::producer(name)
    }

    fn join(children: Vec<PlanNode>) -> PlanNode {
        PlanNode::join("Hash_Join").with_children(children)
    }

    #[test]
    fn identical_plans_have_zero_distance() {
        let plan = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        assert_eq!(tree_edit_distance(&plan, &plan.clone()), 0);
        assert_eq!(similarity(&plan, &plan.clone()), 1.0);
    }

    #[test]
    fn single_rename_costs_one() {
        let a = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        let b = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("C")]));
        assert_eq!(tree_edit_distance(&a, &b), 1);
    }

    #[test]
    fn category_participates_in_labels() {
        let a = UnifiedPlan::with_root(PlanNode::producer("Scan"));
        let b = UnifiedPlan::with_root(PlanNode::executor("Scan"));
        assert_eq!(tree_edit_distance(&a, &b), 1);
    }

    #[test]
    fn insertion_costs_one() {
        let a = UnifiedPlan::with_root(join(vec![leaf("A")]));
        let b = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        assert_eq!(tree_edit_distance(&a, &b), 1);
    }

    #[test]
    fn wrapper_insertion_costs_one() {
        // PG plan vs the same plan under a Gather node.
        let a = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        let b = UnifiedPlan::with_root(
            PlanNode::executor("Gather").with_child(join(vec![leaf("A"), leaf("B")])),
        );
        assert_eq!(tree_edit_distance(&a, &b), 1);
    }

    #[test]
    fn empty_plan_distances() {
        let empty = UnifiedPlan::new();
        let three = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        assert_eq!(tree_edit_distance(&empty, &empty.clone()), 0);
        assert_eq!(tree_edit_distance(&empty, &three), 3);
        assert_eq!(tree_edit_distance(&three, &empty), 3);
        assert_eq!(similarity(&empty, &empty.clone()), 1.0);
        assert_eq!(similarity(&empty, &three), 0.0);
        assert!(similarity(&three, &three.clone()) == 1.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = UnifiedPlan::with_root(join(vec![
            leaf("A"),
            PlanNode::executor("Hash_Row").with_child(leaf("B")),
        ]));
        let b = UnifiedPlan::with_root(join(vec![leaf("B"), leaf("C"), leaf("A")]));
        assert_eq!(tree_edit_distance(&a, &b), tree_edit_distance(&b, &a));
    }

    #[test]
    fn triangle_inequality_spot_check() {
        let a = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        let b = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("C")]));
        let c = UnifiedPlan::with_root(PlanNode::folder("Agg").with_child(join(vec![leaf("C")])));
        let ab = tree_edit_distance(&a, &b);
        let bc = tree_edit_distance(&b, &c);
        let ac = tree_edit_distance(&a, &c);
        assert!(ac <= ab + bc, "{ac} > {ab} + {bc}");
    }

    #[test]
    fn stable_identifiers_are_used() {
        let a = UnifiedPlan::with_root(PlanNode::executor("TableReader_7").with_child(leaf("A")));
        let b = UnifiedPlan::with_root(PlanNode::executor("TableReader_12").with_child(leaf("A")));
        assert_eq!(tree_edit_distance(&a, &b), 0);
    }

    /// Every plan pair used elsewhere in this module, for cross-checking
    /// the bounded kernel against the full one.
    fn test_plans() -> Vec<UnifiedPlan> {
        vec![
            UnifiedPlan::new(),
            UnifiedPlan::with_root(leaf("A")),
            UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")])),
            UnifiedPlan::with_root(join(vec![leaf("A"), leaf("C")])),
            UnifiedPlan::with_root(
                PlanNode::executor("Gather").with_child(join(vec![leaf("A"), leaf("B")])),
            ),
            UnifiedPlan::with_root(join(vec![
                leaf("A"),
                PlanNode::executor("Hash_Row").with_child(leaf("B")),
            ])),
            UnifiedPlan::with_root(join(vec![leaf("B"), leaf("C"), leaf("A")])),
            UnifiedPlan::with_root(PlanNode::folder("Agg").with_child(join(vec![leaf("C")]))),
            UnifiedPlan::with_root(PlanNode::combinator("Sort").with_child(
                PlanNode::folder("Aggregate").with_child(join(vec![
                    leaf("Full_Table_Scan"),
                    PlanNode::executor("Hash_Row").with_child(leaf("Full_Table_Scan")),
                ])),
            )),
            UnifiedPlan::with_root(
                PlanNode::projector("Project").with_child(
                    PlanNode::combinator("Sort").with_child(
                        PlanNode::folder("Aggregate").with_child(join(vec![
                            leaf("Full_Table_Scan"),
                            leaf("Full_Table_Scan"),
                        ])),
                    ),
                ),
            ),
        ]
    }

    #[test]
    fn bounded_ted_agrees_with_full_ted_at_every_bound() {
        let plans = test_plans();
        for a in &plans {
            for b in &plans {
                let exact = tree_edit_distance(a, b);
                for bound in 0..=(exact + 3) {
                    let got = tree_edit_distance_bounded(a, b, bound);
                    if exact <= bound {
                        assert_eq!(got, BoundedTed::Exact(exact), "bound {bound}");
                    } else {
                        assert_eq!(got, BoundedTed::Exceeded, "bound {bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_ted_handles_extreme_bounds() {
        let a = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        let b = UnifiedPlan::with_root(PlanNode::folder("Agg").with_child(join(vec![leaf("C")])));
        let exact = tree_edit_distance(&a, &b);
        assert_eq!(
            tree_edit_distance_bounded(&a, &b, usize::MAX),
            BoundedTed::Exact(exact)
        );
        assert_eq!(
            tree_edit_distance_bounded(&a, &a.clone(), 0),
            BoundedTed::Exact(0)
        );
        assert_eq!(BoundedTed::Exact(exact).exact(), Some(exact));
        assert_eq!(BoundedTed::Exceeded.exact(), None);
        // An empty side: the other side's node count, or 0 for two.
        let empty = UnifiedPlan::default();
        for (x, y) in [(&empty, &a), (&a, &empty)] {
            assert_eq!(tree_edit_distance_bounded(x, y, 3), BoundedTed::Exact(3));
            assert_eq!(tree_edit_distance_bounded(x, y, 2), BoundedTed::Exceeded);
        }
        assert_eq!(
            tree_edit_distance_bounded(&empty, &empty, 0),
            BoundedTed::Exact(0)
        );
    }

    #[test]
    fn known_distance_on_paper_like_plans() {
        // PG-style:   Sort -> Agg -> Join(scan, Hash(scan))
        // TiDB-style: Project -> Sort -> Agg -> Join(scan, scan)
        let pg = UnifiedPlan::with_root(PlanNode::combinator("Sort").with_child(
            PlanNode::folder("Aggregate").with_child(join(vec![
                leaf("Full_Table_Scan"),
                PlanNode::executor("Hash_Row").with_child(leaf("Full_Table_Scan")),
            ])),
        ));
        let tidb = UnifiedPlan::with_root(
            PlanNode::projector("Project").with_child(
                PlanNode::combinator("Sort").with_child(
                    PlanNode::folder("Aggregate")
                        .with_child(join(vec![leaf("Full_Table_Scan"), leaf("Full_Table_Scan")])),
                ),
            ),
        );
        // Delete Hash_Row, insert Project.
        assert_eq!(tree_edit_distance(&pg, &tidb), 2);
        let sim = similarity(&pg, &tidb);
        assert!(sim > 0.6 && sim < 1.0, "similarity {sim}");
    }

    /// A stored view with every shape key forced to one value, so every
    /// memo lookup lands in the same bucket and only the full-sequence
    /// comparison tells shapes apart.
    fn colliding(plan: &UnifiedPlan) -> TedPlan {
        let mut view = TedPlan::new(plan);
        if let Some(flat) = &mut view.flat {
            flat.shape = 0;
        }
        view
    }

    #[test]
    fn memo_survives_colliding_shape_keys() {
        let plans = test_plans();
        let stored: Vec<TedPlan> = plans.iter().chain(&plans).map(colliding).collect();
        let mut scratch = TedScratch::default();
        for probe_plan in &plans {
            let exact: Vec<usize> = plans
                .iter()
                .chain(&plans)
                .map(|plan| tree_edit_distance(probe_plan, plan))
                .collect();
            let probe_view = colliding(probe_plan);
            let mut probe = TedProbe::new(&probe_view);
            // Rising, falling and repeated bounds over every stored view
            // twice: exact hits, exceeded-at hits and recomputations.
            for bound in [0, 3, 1, 5, 2, 2, 8, 0] {
                for (view, &d) in stored.iter().zip(&exact) {
                    assert_eq!(
                        probe.distance_bounded(view, bound, &mut scratch),
                        verdict(d, bound),
                        "bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_shape_answers_zero_and_memo_keeps_verdicts() {
        let plan = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        let other = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("C")]));
        let (probe_view, same, near) = (
            TedPlan::new(&plan),
            TedPlan::new(&plan.clone()),
            TedPlan::new(&other),
        );
        let mut scratch = TedScratch::default();
        let mut probe = TedProbe::new(&probe_view);
        assert_eq!(
            probe.distance_bounded(&same, 0, &mut scratch),
            BoundedTed::Exact(0)
        );
        assert_eq!(
            probe.distance_bounded(&near, 0, &mut scratch),
            BoundedTed::Exceeded
        );
        assert_eq!(
            probe.distance_bounded(&near, 1, &mut scratch),
            BoundedTed::Exact(1)
        );
        assert_eq!(
            probe.distance_bounded(&near, 0, &mut scratch),
            BoundedTed::Exceeded
        );
        // One entry, upgraded in place from exceeded-at-0 to exact.
        assert_eq!(probe.entries.len(), 1);
    }

    mod properties {
        use super::super::*;
        use crate::model::PlanNode;
        use proptest::prelude::*;

        /// Plans over a four-label alphabet: small enough that label
        /// multisets overlap and whole shapes repeat.
        fn arb_small_plan() -> impl Strategy<Value = UnifiedPlan> {
            const NAMES: [&str; 2] = ["Scan", "Sort"];
            let leaf = (0usize..2).prop_map(|i| PlanNode::producer(NAMES[i]));
            leaf.prop_recursive(3, 12, 3, |inner| {
                (0usize..2, prop::collection::vec(inner, 1..4))
                    .prop_map(|(i, children)| PlanNode::executor(NAMES[i]).with_children(children))
            })
            .prop_map(UnifiedPlan::with_root)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The label-multiset bound never exceeds the distance, and the
            /// bounded kernel agrees with the full one at every bound.
            #[test]
            fn label_bound_and_bounded_kernel_agree_with_full_ted(
                a in arb_small_plan(),
                b in arb_small_plan(),
            ) {
                let exact = tree_edit_distance(&a, &b);
                let (va, vb) = (TedPlan::new(&a), TedPlan::new(&b));
                let sorted = |v: &TedPlan| {
                    let mut labels = Vec::new();
                    sort_into(&mut labels, &v.flat.as_ref().unwrap().labels);
                    labels
                };
                prop_assert!(label_lower_bound(&sorted(&va), &sorted(&vb)) <= exact);
                let mut scratch = TedScratch::default();
                let (fa, fb) = (va.flat.as_ref().unwrap(), vb.flat.as_ref().unwrap());
                for bound in 0..=exact + 2 {
                    prop_assert_eq!(
                        bounded(fa, &sorted(&va), fb, bound, &mut scratch),
                        verdict(exact, bound)
                    );
                }
            }

            /// The memoized metric answers every (stored plan, bound)
            /// sequence with the verdict of the unbanded full program.
            #[test]
            fn memoized_metric_equals_unmemoized(
                probe in arb_small_plan(),
                stored in prop::collection::vec(arb_small_plan(), 6..7),
                walk in prop::collection::vec((0usize..12, 0usize..9), 0..48),
            ) {
                // Each stored plan twice, as separate views: equal shapes
                // from different views share memo entries.
                let views: Vec<TedPlan> = stored.iter().chain(&stored).map(TedPlan::new).collect();
                let exact: Vec<usize> = stored
                    .iter()
                    .chain(&stored)
                    .map(|plan| tree_edit_distance(&probe, plan))
                    .collect();
                let probe_view = TedPlan::new(&probe);
                let mut memoized = TedProbe::new(&probe_view);
                let mut scratch = TedScratch::default();
                for (i, bound) in walk {
                    prop_assert_eq!(
                        memoized.distance_bounded(&views[i], bound, &mut scratch),
                        verdict(exact[i], bound)
                    );
                }
            }
        }
    }
}
