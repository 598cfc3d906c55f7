//! A kd-tree over `ℝ^D` with subtree max-weight augmentation.
//!
//! Stands in for the optimal halfspace/dominance structures the paper
//! plugs into its reductions (DESIGN.md substitutions 3 and 5):
//!
//! * **Region reporting** (`for_each_in`): visits a node only if its
//!   bounding box intersects the query region, giving the classic
//!   `O(n^{1−1/D} + t)` bound for halfspaces and dominance boxes.
//! * **Weight-thresholded reporting**: subtrees whose max weight is below
//!   `τ` are pruned, making the tree directly usable as a prioritized
//!   structure.
//! * **Max reporting** (`query_max`): best-first branch-and-bound on the
//!   subtree max weights.
//!
//! Regions are abstracted by the [`Region`] trait; halfspaces, balls and
//! dominance boxes are provided.

use emsim::CostModel;
use geom::point::{BallD, HalfspaceD, PointD};
use topk_core::{Element, Weight};

/// An element that knows its position in `ℝ^D` (so the tree stores each
/// element once rather than a `(point, payload)` pair).
pub trait KdPoint<const D: usize>: Element {
    /// The element's position.
    fn position(&self) -> PointD<D>;
}

/// A query region in `ℝ^D`, testable against points and boxes.
pub trait Region<const D: usize> {
    /// Does the region intersect the axis-aligned box `[lo, hi]`?
    /// (May err on the side of `true`; exactness only affects cost.)
    fn intersects_box(&self, lo: &[f64; D], hi: &[f64; D]) -> bool;
    /// Does the region fully contain the box? (May err toward `false`.)
    fn contains_box(&self, lo: &[f64; D], hi: &[f64; D]) -> bool;
    /// Does the region contain the point? (Must be exact.)
    fn contains_point(&self, p: &PointD<D>) -> bool;
}

impl<const D: usize> Region<D> for HalfspaceD<D> {
    fn intersects_box(&self, lo: &[f64; D], hi: &[f64; D]) -> bool {
        // Max of normal·x over the box ≥ offset?
        let mut best = 0.0;
        for i in 0..D {
            best += if self.normal[i] >= 0.0 {
                self.normal[i] * hi[i]
            } else {
                self.normal[i] * lo[i]
            };
        }
        best >= self.offset
    }
    fn contains_box(&self, lo: &[f64; D], hi: &[f64; D]) -> bool {
        let mut worst = 0.0;
        for i in 0..D {
            worst += if self.normal[i] >= 0.0 {
                self.normal[i] * lo[i]
            } else {
                self.normal[i] * hi[i]
            };
        }
        worst >= self.offset
    }
    fn contains_point(&self, p: &PointD<D>) -> bool {
        self.contains(p)
    }
}

impl<const D: usize> Region<D> for BallD<D> {
    fn intersects_box(&self, lo: &[f64; D], hi: &[f64; D]) -> bool {
        // Squared distance from center to the box.
        let mut d2 = 0.0;
        for i in 0..D {
            let c = self.center.coords[i];
            let v = c.clamp(lo[i], hi[i]);
            d2 += (c - v) * (c - v);
        }
        d2 <= self.radius * self.radius
    }
    fn contains_box(&self, lo: &[f64; D], hi: &[f64; D]) -> bool {
        // Farthest box corner within the ball?
        let mut d2 = 0.0;
        for i in 0..D {
            let c = self.center.coords[i];
            let far = if (c - lo[i]).abs() > (c - hi[i]).abs() {
                lo[i]
            } else {
                hi[i]
            };
            d2 += (c - far) * (c - far);
        }
        d2 <= self.radius * self.radius
    }
    fn contains_point(&self, p: &PointD<D>) -> bool {
        self.contains(p)
    }
}

/// An axis-aligned box region `[lo₁, hi₁] × … × [lo_D, hi_D]` (orthogonal
/// range reporting).
#[derive(Clone, Copy, Debug)]
pub struct BoxRegion<const D: usize> {
    /// Lower corner.
    pub lo: [f64; D],
    /// Upper corner (componentwise ≥ `lo`).
    pub hi: [f64; D],
}

impl<const D: usize> BoxRegion<D> {
    /// Construct; corners must be finite and ordered.
    pub fn new(lo: [f64; D], hi: [f64; D]) -> Self {
        assert!(
            lo.iter()
                .zip(hi.iter())
                .all(|(l, h)| l.is_finite() && h.is_finite() && l <= h),
            "invalid box"
        );
        BoxRegion { lo, hi }
    }
}

impl<const D: usize> Region<D> for BoxRegion<D> {
    fn intersects_box(&self, lo: &[f64; D], hi: &[f64; D]) -> bool {
        (0..D).all(|i| self.lo[i] <= hi[i] && lo[i] <= self.hi[i])
    }
    fn contains_box(&self, lo: &[f64; D], hi: &[f64; D]) -> bool {
        (0..D).all(|i| self.lo[i] <= lo[i] && hi[i] <= self.hi[i])
    }
    fn contains_point(&self, p: &PointD<D>) -> bool {
        (0..D).all(|i| self.lo[i] <= p.coords[i] && p.coords[i] <= self.hi[i])
    }
}

/// The dominance region `{x : x ⪯ q}` of Theorem 6 (as a box
/// `(-∞, q₁] × … × (-∞, q_D]`).
#[derive(Clone, Copy, Debug)]
pub struct DominanceRegion<const D: usize> {
    /// The query corner `q`.
    pub corner: PointD<D>,
}

impl<const D: usize> Region<D> for DominanceRegion<D> {
    fn intersects_box(&self, lo: &[f64; D], _hi: &[f64; D]) -> bool {
        lo.iter()
            .zip(self.corner.coords.iter())
            .all(|(l, q)| l <= q)
    }
    fn contains_box(&self, _lo: &[f64; D], hi: &[f64; D]) -> bool {
        hi.iter()
            .zip(self.corner.coords.iter())
            .all(|(h, q)| h <= q)
    }
    fn contains_point(&self, p: &PointD<D>) -> bool {
        p.dominated_by(&self.corner)
    }
}

struct KdNode<const D: usize, E> {
    lo: [f64; D],
    hi: [f64; D],
    max_w: Weight,
    kind: NodeKind<D, E>,
}

enum NodeKind<const D: usize, E> {
    /// Entries sorted by weight descending.
    Leaf(Vec<E>),
    Internal {
        left: usize,
        right: usize,
    },
}

/// A kd-tree storing weighted elements positioned in `ℝ^D`.
pub struct KdTree<const D: usize, E> {
    nodes: Vec<KdNode<D, E>>,
    root: Option<usize>,
    len: usize,
    array_id: u64,
    model: CostModel,
}

impl<const D: usize, E: KdPoint<D>> KdTree<D, E> {
    /// Build from positioned elements. `O(n log n)`.
    pub fn build(model: &CostModel, mut items: Vec<E>) -> Self {
        let leaf_cap = model.config().items_per_block::<E>().max(4);
        let mut tree = KdTree {
            nodes: Vec::new(),
            root: None,
            len: items.len(),
            array_id: model.new_array_id(),
            model: model.clone(),
        };
        if !items.is_empty() {
            let root = tree.build_rec(&mut items, 0, leaf_cap);
            tree.root = Some(root);
        }
        tree.model.charge_writes(tree.nodes.len() as u64);
        tree
    }

    fn build_rec(&mut self, items: &mut [E], axis: usize, leaf_cap: usize) -> usize {
        let mut lo = [f64::INFINITY; D];
        let mut hi = [f64::NEG_INFINITY; D];
        let mut max_w = 0;
        for e in items.iter() {
            let p = e.position();
            for i in 0..D {
                lo[i] = lo[i].min(p.coords[i]);
                hi[i] = hi[i].max(p.coords[i]);
            }
            max_w = max_w.max(e.weight());
        }
        if items.len() <= leaf_cap {
            let mut entries: Vec<E> = items.to_vec();
            entries.sort_by_key(|e| std::cmp::Reverse(e.weight()));
            self.nodes.push(KdNode {
                lo,
                hi,
                max_w,
                kind: NodeKind::Leaf(entries),
            });
            return self.nodes.len() - 1;
        }
        let mid = items.len() / 2;
        items.select_nth_unstable_by(mid, |a, b| {
            a.position().coords[axis]
                .partial_cmp(&b.position().coords[axis])
                .expect("finite coordinates")
        });
        let (l_items, r_items) = items.split_at_mut(mid);
        let next_axis = (axis + 1) % D;
        let left = self.build_rec(l_items, next_axis, leaf_cap);
        let right = self.build_rec(r_items, next_axis, leaf_cap);
        self.nodes.push(KdNode {
            lo,
            hi,
            max_w,
            kind: NodeKind::Internal { left, right },
        });
        self.nodes.len() - 1
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Space in blocks, assuming a packed layout (internal nodes are a
    /// bounding box, a max weight and two pointers; leaves hold up to a
    /// block of entries).
    pub fn space_blocks(&self) -> u64 {
        let b = self.model.b() as u64;
        let entry_words = (std::mem::size_of::<E>() as u64).div_ceil(8).max(1);
        let box_words = 2 * D as u64 + 3;
        let mut words = 0u64;
        for node in &self.nodes {
            words += box_words
                + match &node.kind {
                    NodeKind::Leaf(entries) => entries.len() as u64 * entry_words,
                    NodeKind::Internal { .. } => 0,
                };
        }
        words.div_ceil(b).max(1)
    }

    /// Visit every payload whose point lies in `region` with weight `≥ tau`
    /// until the visitor returns `false`.
    pub fn for_each_in<R: Region<D>>(
        &self,
        region: &R,
        tau: Weight,
        visit: &mut dyn FnMut(&E) -> bool,
    ) {
        if let Some(root) = self.root {
            self.report_rec(root, region, tau, visit);
        }
    }

    fn report_rec<R: Region<D>>(
        &self,
        u: usize,
        region: &R,
        tau: Weight,
        visit: &mut dyn FnMut(&E) -> bool,
    ) -> bool {
        self.model.touch(self.array_id, u as u64);
        let node = &self.nodes[u];
        if node.max_w < tau || !region.intersects_box(&node.lo, &node.hi) {
            return true;
        }
        match &node.kind {
            NodeKind::Leaf(entries) => {
                let check_region = !region.contains_box(&node.lo, &node.hi);
                for e in entries {
                    if e.weight() < tau {
                        break; // weight-descending
                    }
                    if (!check_region || region.contains_point(&e.position())) && !visit(e) {
                        return false;
                    }
                }
                true
            }
            NodeKind::Internal { left, right } => {
                self.report_rec(*left, region, tau, visit)
                    && self.report_rec(*right, region, tau, visit)
            }
        }
    }

    /// The heaviest payload in the region, if any — best-first descent
    /// guided by the subtree max weights (exact).
    pub fn query_max<R: Region<D>>(&self, region: &R) -> Option<E> {
        let mut best: Option<(Weight, E)> = None;
        if let Some(root) = self.root {
            self.max_rec(root, region, &mut best);
        }
        best.map(|(_, e)| e)
    }

    fn max_rec<R: Region<D>>(&self, u: usize, region: &R, best: &mut Option<(Weight, E)>) {
        self.model.touch(self.array_id, u as u64);
        let node = &self.nodes[u];
        if let Some((bw, _)) = best {
            if node.max_w <= *bw {
                return;
            }
        }
        if !region.intersects_box(&node.lo, &node.hi) {
            return;
        }
        match &node.kind {
            NodeKind::Leaf(entries) => {
                for e in entries {
                    if let Some((bw, _)) = best {
                        if e.weight() <= *bw {
                            break;
                        }
                    }
                    if region.contains_point(&e.position()) {
                        *best = Some((e.weight(), e.clone()));
                        break;
                    }
                }
            }
            NodeKind::Internal { left, right } => {
                // Heavier subtree first maximizes pruning.
                let (a, b) = if self.nodes[*left].max_w >= self.nodes[*right].max_w {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.max_rec(a, region, best);
                self.max_rec(b, region, best);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::EmConfig;

    #[derive(Clone, Debug)]
    struct Pt {
        pos: [f64; 2],
        w: u64,
    }
    impl Element for Pt {
        fn weight(&self) -> Weight {
            self.w
        }
    }
    impl KdPoint<2> for Pt {
        fn position(&self) -> PointD<2> {
            PointD::new(self.pos)
        }
    }

    fn cloud(n: usize, seed: u64) -> Vec<Pt> {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 10_000) as f64 / 100.0
        };
        (0..n)
            .map(|i| Pt {
                pos: [rnd(), rnd()],
                w: i as u64 + 1,
            })
            .collect()
    }

    #[test]
    fn halfspace_reporting_matches_brute() {
        let model = CostModel::new(EmConfig::new(64));
        let pts = cloud(2_000, 11);
        let tree = KdTree::build(&model, pts.clone());
        for &(a, b, c) in &[(1.0, 1.0, 100.0), (-1.0, 2.0, 0.0), (0.5, -1.0, -20.0)] {
            let h = HalfspaceD::new([a, b], c);
            for tau in [0u64, 500, 1_900] {
                let mut got: Vec<u64> = Vec::new();
                tree.for_each_in(&h, tau, &mut |e| {
                    got.push(e.w);
                    true
                });
                got.sort_unstable();
                let mut want: Vec<u64> = pts
                    .iter()
                    .filter(|e| h.contains(&e.position()) && e.w >= tau)
                    .map(|e| e.w)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "h=({a},{b},{c}) tau={tau}");
            }
        }
    }

    #[test]
    fn ball_reporting_matches_brute() {
        let model = CostModel::ram();
        let pts = cloud(1_000, 13);
        let tree = KdTree::build(&model, pts.clone());
        let ball = BallD::new(PointD::new([50.0, 50.0]), 20.0);
        let mut got: Vec<u64> = Vec::new();
        tree.for_each_in(&ball, 0, &mut |e| {
            got.push(e.w);
            true
        });
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .filter(|e| ball.contains(&e.position()))
            .map(|e| e.w)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn dominance_reporting_matches_brute() {
        let model = CostModel::ram();
        let pts = cloud(1_000, 17);
        let tree = KdTree::build(&model, pts.clone());
        let q = DominanceRegion {
            corner: PointD::new([40.0, 60.0]),
        };
        let mut got: Vec<u64> = Vec::new();
        tree.for_each_in(&q, 0, &mut |e| {
            got.push(e.w);
            true
        });
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .filter(|e| e.position().dominated_by(&q.corner))
            .map(|e| e.w)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn max_matches_brute() {
        let model = CostModel::ram();
        let pts = cloud(1_500, 19);
        let tree = KdTree::build(&model, pts.clone());
        for &(a, b, c) in &[(1.0, 0.0, 50.0), (0.0, 1.0, 99.0), (1.0, 1.0, 250.0)] {
            let h = HalfspaceD::new([a, b], c);
            let want = pts
                .iter()
                .filter(|e| h.contains(&e.position()))
                .map(|e| e.w)
                .max();
            assert_eq!(tree.query_max(&h).map(|e| e.w), want, "h=({a},{b},{c})");
        }
    }

    #[test]
    fn max_query_visits_few_nodes() {
        let model = CostModel::new(EmConfig::new(64));
        let pts = cloud(100_000, 23);
        let tree = KdTree::build(&model, pts.clone());
        let h = HalfspaceD::new([1.0, 1.0], 50.0); // contains ~everything
        model.reset();
        let got = tree.query_max(&h);
        assert!(got.is_some());
        // Best-first with max pruning should visit a tiny fraction of nodes.
        assert!(model.report().reads < 200, "reads {}", model.report().reads);
    }

    #[test]
    fn empty_region_and_empty_tree() {
        let model = CostModel::ram();
        let tree: KdTree<2, Pt> = KdTree::build(&model, vec![]);
        assert!(tree.is_empty());
        let h = HalfspaceD::new([1.0, 0.0], 0.0);
        assert!(tree.query_max(&h).is_none());

        let pts = cloud(100, 29);
        let tree = KdTree::build(&model, pts);
        let far = HalfspaceD::new([1.0, 0.0], 1e9); // empty
        let mut cnt = 0;
        tree.for_each_in(&far, 0, &mut |_| {
            cnt += 1;
            true
        });
        assert_eq!(cnt, 0);
        assert!(tree.query_max(&far).is_none());
    }

    #[test]
    fn early_termination() {
        let model = CostModel::ram();
        let pts = cloud(500, 31);
        let tree = KdTree::build(&model, pts);
        let h = HalfspaceD::new([1.0, 0.0], -1e9); // everything
        let mut cnt = 0;
        tree.for_each_in(&h, 0, &mut |_| {
            cnt += 1;
            cnt < 5
        });
        assert_eq!(cnt, 5);
    }

    #[test]
    fn reporting_cost_is_sublinear_for_thin_slabs() {
        // A halfspace grazing the cloud: few points qualify; node visits
        // should be ~O(√n) not O(n).
        let model = CostModel::new(EmConfig::new(64));
        let pts = cloud(65_536, 37);
        let tree = KdTree::build(&model, pts.clone());
        let h = HalfspaceD::new([1.0, 0.0], 99.0); // x ≥ 99 of [0,100)
        model.reset();
        let mut t = 0;
        tree.for_each_in(&h, 0, &mut |_| {
            t += 1;
            true
        });
        let reads = model.report().reads;
        let n = 65_536f64;
        let bound = 40.0 * n.sqrt() + 4.0 * t as f64;
        assert!(
            (reads as f64) < bound,
            "reads {reads}, t {t}, bound {bound}"
        );
    }
}
