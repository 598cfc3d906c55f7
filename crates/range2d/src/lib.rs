//! # range2d — top-k 2D orthogonal range reporting
//!
//! The "most extensively studied" top-k problem in the paper's survey
//! (§2: \[28, 29\] study the 2D orthogonal version; Rahul & Tao's own
//! PODS'15 paper is devoted to it). Elements are weighted points in the
//! plane; a predicate is an axis-aligned rectangle `[x₁, x₂] × [y₁, y₂]`.
//!
//! Substrates: a kd-tree with box pruning and weight-threshold pruning as
//! the prioritized structure, the same tree's best-first descent as the
//! max structure. Top-k via **both** reductions, plus the \[28\]
//! binary-search baseline for the E6-style comparison — making this, with
//! `range1d`, the cleanest playground for studying the reductions on a
//! problem the literature cares about.

use emsim::CostModel;
use geom::point::PointD;
use structures::kdtree::{BoxRegion, KdPoint, KdTree};
use structures::rangetree::{PlanarPoint, RangeTree2D};
use topk_core::{
    log_b, BinarySearchTopK, Element, ExpectedTopK, MaxBuilder, MaxIndex, PrioritizedBuilder,
    PrioritizedIndex, Theorem1Params, Theorem2Params, Weight, WorstCaseTopK,
};

/// A weighted point in the plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WPt {
    /// x-coordinate.
    pub x: f64,
    /// y-coordinate.
    pub y: f64,
    /// Distinct weight.
    pub weight: Weight,
}

impl WPt {
    /// Construct; coordinates must be finite.
    pub fn new(x: f64, y: f64, weight: Weight) -> Self {
        assert!(x.is_finite() && y.is_finite(), "coordinates must be finite");
        WPt { x, y, weight }
    }
}

impl Element for WPt {
    fn weight(&self) -> Weight {
        self.weight
    }
}

impl KdPoint<2> for WPt {
    fn position(&self) -> PointD<2> {
        PointD::new([self.x, self.y])
    }
}

impl PlanarPoint for WPt {
    fn px(&self) -> f64 {
        self.x
    }
    fn py(&self) -> f64 {
        self.y
    }
}

/// A closed query rectangle.
#[derive(Clone, Copy, Debug)]
pub struct RangeQ {
    /// Lower-left corner.
    pub lo: (f64, f64),
    /// Upper-right corner.
    pub hi: (f64, f64),
}

impl RangeQ {
    /// Construct; corners must be finite and ordered.
    pub fn new(lo: (f64, f64), hi: (f64, f64)) -> Self {
        assert!(
            lo.0.is_finite() && lo.1.is_finite() && hi.0.is_finite() && hi.1.is_finite(),
            "corners must be finite"
        );
        assert!(lo.0 <= hi.0 && lo.1 <= hi.1, "corners out of order");
        RangeQ { lo, hi }
    }

    /// Does the rectangle contain the point?
    pub fn contains(&self, p: &WPt) -> bool {
        self.lo.0 <= p.x && p.x <= self.hi.0 && self.lo.1 <= p.y && p.y <= self.hi.1
    }

    fn region(&self) -> BoxRegion<2> {
        BoxRegion::new([self.lo.0, self.lo.1], [self.hi.0, self.hi.1])
    }
}

/// Polynomial boundedness: outcomes determined by four coordinate ranks →
/// ≤ `(n+1)⁴ ≤ n⁵` for `n ≥ 5` → `λ = 5`.
pub const LAMBDA: f64 = 5.0;

/// Prioritized + max 2D range structure over a kd-tree.
pub struct RangeKd {
    tree: KdTree<2, WPt>,
}

impl RangeKd {
    /// Build over the given points.
    pub fn build(model: &CostModel, items: Vec<WPt>) -> Self {
        RangeKd {
            tree: KdTree::build(model, items),
        }
    }
}

impl PrioritizedIndex<WPt, RangeQ> for RangeKd {
    fn for_each_at_least(&self, q: &RangeQ, tau: Weight, visit: &mut dyn FnMut(&WPt) -> bool) {
        self.tree.for_each_in(&q.region(), tau, visit);
    }
    fn space_blocks(&self) -> u64 {
        self.tree.space_blocks()
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
}

impl MaxIndex<WPt, RangeQ> for RangeKd {
    fn query_max(&self, q: &RangeQ) -> Option<WPt> {
        self.tree.query_max(&q.region())
    }
    fn space_blocks(&self) -> u64 {
        self.tree.space_blocks()
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// Builder for [`RangeKd`] as a prioritized structure.
#[derive(Clone, Copy, Debug)]
pub struct RangeKdBuilder;

impl PrioritizedBuilder<WPt, RangeQ> for RangeKdBuilder {
    type Index = RangeKd;
    fn build(&self, model: &CostModel, items: Vec<WPt>) -> RangeKd {
        RangeKd::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        ((n.max(2) as f64).sqrt()).max(log_b(n, b))
    }
}

/// Builder for [`RangeKd`] as a max structure.
#[derive(Clone, Copy, Debug)]
pub struct RangeKdMaxBuilder;

impl MaxBuilder<WPt, RangeQ> for RangeKdMaxBuilder {
    type Index = RangeKd;
    fn build(&self, model: &CostModel, items: Vec<WPt>) -> RangeKd {
        RangeKd::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        // Best-first with max pruning: ~2·log₂ n measured.
        (2.0 * (n.max(2) as f64).log2()).max(log_b(n, b))
    }
}

/// Theorem 2 top-k 2D orthogonal range reporting.
pub type TopKRange2D = ExpectedTopK<WPt, RangeQ, RangeKdBuilder, RangeKdMaxBuilder>;

/// Build the Theorem 2 instance.
pub fn topk_range2d(model: &CostModel, items: Vec<WPt>, seed: u64) -> TopKRange2D {
    let params = Theorem2Params {
        seed,
        ..Theorem2Params::default()
    };
    ExpectedTopK::build(model, RangeKdBuilder, RangeKdMaxBuilder, items, params)
}

/// Theorem 1 top-k 2D orthogonal range reporting.
pub type TopKRange2DWorstCase = WorstCaseTopK<WPt, RangeQ, RangeKdBuilder>;

/// Build the Theorem 1 instance.
pub fn topk_range2d_worstcase(
    model: &CostModel,
    items: Vec<WPt>,
    seed: u64,
) -> TopKRange2DWorstCase {
    WorstCaseTopK::build(
        model,
        &RangeKdBuilder,
        items,
        Theorem1Params::new(LAMBDA).with_seed(seed),
    )
}

/// The \[28\] binary-search baseline on the same substrate.
pub type Range2DBaseline = BinarySearchTopK<WPt, RangeQ, RangeKdBuilder>;

/// Build the baseline instance.
pub fn topk_range2d_baseline(model: &CostModel, items: Vec<WPt>) -> Range2DBaseline {
    BinarySearchTopK::build(model, &RangeKdBuilder, items)
}

/// Alternative substrate: the classic range tree with PST secondaries —
/// `O(log² n + t)` prioritized reporting / `O(log² n)` max in
/// `O(n log n)` space (vs the kd substrate's `O(√n + t)` in linear
/// space). `exp_range2d` measures the trade-off under Theorem 2.
pub struct RangeRt {
    tree: RangeTree2D<WPt>,
}

impl PrioritizedIndex<WPt, RangeQ> for RangeRt {
    fn for_each_at_least(&self, q: &RangeQ, tau: Weight, visit: &mut dyn FnMut(&WPt) -> bool) {
        self.tree
            .for_each_in(q.lo.0, q.hi.0, q.lo.1, q.hi.1, tau, visit);
    }
    fn space_blocks(&self) -> u64 {
        self.tree.space_blocks()
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
}

impl MaxIndex<WPt, RangeQ> for RangeRt {
    fn query_max(&self, q: &RangeQ) -> Option<WPt> {
        self.tree.max_in(q.lo.0, q.hi.0, q.lo.1, q.hi.1)
    }
    fn space_blocks(&self) -> u64 {
        self.tree.space_blocks()
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// Builder for [`RangeRt`] as a prioritized structure.
#[derive(Clone, Copy, Debug)]
pub struct RangeRtBuilder;

impl PrioritizedBuilder<WPt, RangeQ> for RangeRtBuilder {
    type Index = RangeRt;
    fn build(&self, model: &CostModel, items: Vec<WPt>) -> RangeRt {
        RangeRt {
            tree: RangeTree2D::build(model, items),
        }
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let lg = (n.max(2) as f64).log2();
        (lg * lg).max(log_b(n, b))
    }
}

/// Builder for [`RangeRt`] as a max structure.
#[derive(Clone, Copy, Debug)]
pub struct RangeRtMaxBuilder;

impl MaxBuilder<WPt, RangeQ> for RangeRtMaxBuilder {
    type Index = RangeRt;
    fn build(&self, model: &CostModel, items: Vec<WPt>) -> RangeRt {
        RangeRt {
            tree: RangeTree2D::build(model, items),
        }
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let lg = (n.max(2) as f64).log2();
        (lg * lg).max(log_b(n, b))
    }
}

/// Theorem 2 top-k 2D range reporting over the range-tree substrate.
pub type TopKRange2DRt = ExpectedTopK<WPt, RangeQ, RangeRtBuilder, RangeRtMaxBuilder>;

/// Build the Theorem 2 instance over the range-tree substrate.
pub fn topk_range2d_rangetree(model: &CostModel, items: Vec<WPt>, seed: u64) -> TopKRange2DRt {
    let params = Theorem2Params {
        seed,
        ..Theorem2Params::default()
    };
    ExpectedTopK::build(model, RangeRtBuilder, RangeRtMaxBuilder, items, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topk_core::brute;
    use topk_core::TopKIndex;

    fn mk(n: usize, seed: u64) -> Vec<WPt> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                WPt::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    i as u64 + 1,
                )
            })
            .collect()
    }

    fn mk_ranges(seed: u64, n: usize) -> Vec<RangeQ> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                RangeQ::new(
                    (x, y),
                    (
                        (x + rng.gen_range(0.0..50.0)).min(100.0),
                        (y + rng.gen_range(0.0..50.0)).min(100.0),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn prioritized_and_max_match_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(1_200, 151);
        let idx = RangeKd::build(&model, items.clone());
        for q in mk_ranges(152, 40) {
            for tau in [0u64, 400, 1_100] {
                let mut got = Vec::new();
                idx.query(&q, tau, &mut got);
                let mut got_w: Vec<u64> = got.iter().map(|p| p.weight).collect();
                got_w.sort_unstable();
                let want = brute::prioritized(&items, |p| q.contains(p), tau);
                let mut want_w: Vec<u64> = want.iter().map(|p| p.weight).collect();
                want_w.sort_unstable();
                assert_eq!(got_w, want_w);
            }
            assert_eq!(
                idx.query_max(&q).map(|p| p.weight),
                brute::max(&items, |p| q.contains(p)).map(|p| p.weight)
            );
        }
    }

    #[test]
    fn all_topk_structures_agree_with_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(2_500, 153);
        let t2 = topk_range2d(&model, items.clone(), 26);
        let t1 = topk_range2d_worstcase(&model, items.clone(), 27);
        let bs = topk_range2d_baseline(&model, items.clone());
        for q in mk_ranges(154, 6) {
            for k in [1usize, 12, 150, 3_000] {
                let want: Vec<u64> = brute::top_k(&items, |p| q.contains(p), k)
                    .iter()
                    .map(|p| p.weight)
                    .collect();
                let mut v = Vec::new();
                t2.query_topk(&q, k, &mut v);
                assert_eq!(
                    v.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    want,
                    "t2 k={k}"
                );
                let mut v = Vec::new();
                t1.query_topk(&q, k, &mut v);
                assert_eq!(
                    v.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    want,
                    "t1 k={k}"
                );
                let mut v = Vec::new();
                bs.query_topk(&q, k, &mut v);
                assert_eq!(
                    v.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    want,
                    "bs k={k}"
                );
            }
        }
    }

    #[test]
    fn rangetree_substrate_agrees_with_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(2_000, 156);
        let idx = topk_range2d_rangetree(&model, items.clone(), 28);
        for q in mk_ranges(157, 6) {
            for k in [1usize, 17, 300, 2_500] {
                let want: Vec<u64> = brute::top_k(&items, |p| q.contains(p), k)
                    .iter()
                    .map(|p| p.weight)
                    .collect();
                let mut v = Vec::new();
                idx.query_topk(&q, k, &mut v);
                assert_eq!(
                    v.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    want,
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn degenerate_ranges() {
        let model = CostModel::ram();
        let items = vec![WPt::new(5.0, 5.0, 1), WPt::new(5.0, 6.0, 2)];
        let idx = topk_range2d(&model, items, 1);
        // Point query.
        let q = RangeQ::new((5.0, 5.0), (5.0, 5.0));
        let mut out = Vec::new();
        idx.query_topk(&q, 5, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].weight, 1);
    }

    #[test]
    fn empty_input_and_empty_range() {
        let model = CostModel::ram();
        let idx = topk_range2d(&model, vec![], 1);
        let mut out = Vec::new();
        idx.query_topk(&RangeQ::new((0.0, 0.0), (1.0, 1.0)), 5, &mut out);
        assert!(out.is_empty());

        let items = mk(100, 155);
        let idx = topk_range2d(&model, items, 2);
        idx.query_topk(&RangeQ::new((200.0, 200.0), (300.0, 300.0)), 5, &mut out);
        assert!(out.is_empty());
    }
}
