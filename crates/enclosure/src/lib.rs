//! # enclosure — top-k 2D point enclosure (Theorem 5)
//!
//! The problem: `𝔻` is the set of axis-parallel rectangles
//! `[x₁, x₂] × [y₁, y₂]`; a predicate is a point `q ∈ ℝ²`; a rectangle
//! satisfies it iff `q` lies inside. The paper's running example: *"find
//! the 10 gentlemen with the highest salaries such that my age and height
//! fall into their preferred ranges."*
//!
//! Following §5.2, both structures are a segment tree on the rectangles'
//! x-projections with a 1D y-structure per canonical node:
//!
//! * prioritized ([`EncPri`]): inner = weight-sorted y-segment-tree runs
//!   ([`interval::SegStabG`]) → `O(log² n + t)` query;
//! * max ([`EncMax`]): inner = the folklore 1D stabbing-max of §5.2
//!   ([`interval::StaticStabMaxG`]) → `O(log² n)` query; and
//! * max with **fractional cascading** ([`CascadeStabMax`]): the §5.2
//!   improvement to `O(log n)` — one binary search at the root, `O(1)`
//!   bridge hops per path node.
//!
//! Top-k: [`TopKEnclosure`] (Theorem 2) and [`TopKEnclosureWorstCase`]
//! (Theorem 1).

pub mod cascade;

pub use cascade::{CascadeStabMax, CascadeStabMaxBuilder};

use emsim::CostModel;
use geom::Point2;
use interval::{HasInterval, SegStabG, StaticStabMaxG};
use structures::segtree::SegTreeOfSets;
use topk_core::{
    log_b, Element, EmError, ExpectedTopK, MaxBuilder, MaxIndex, PrioritizedBuilder,
    PrioritizedIndex, Retrier, Theorem1Params, Theorem2Params, TopKAnswer, TopKIndex, Weight,
    WorstCaseTopK,
};

/// A weighted axis-parallel rectangle `[x1, x2] × [y1, y2]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x1: f64,
    /// Right edge (`≥ x1`).
    pub x2: f64,
    /// Bottom edge.
    pub y1: f64,
    /// Top edge (`≥ y1`).
    pub y2: f64,
    /// Distinct weight.
    pub weight: Weight,
}

impl Rect {
    /// Construct; edges must be finite, `x1 ≤ x2`, `y1 ≤ y2`.
    pub fn new(x1: f64, x2: f64, y1: f64, y2: f64, weight: Weight) -> Self {
        assert!(
            x1.is_finite() && x2.is_finite() && y1.is_finite() && y2.is_finite(),
            "rectangle edges must be finite"
        );
        assert!(x1 <= x2 && y1 <= y2, "degenerate rectangle");
        Rect {
            x1,
            x2,
            y1,
            y2,
            weight,
        }
    }

    /// Does the rectangle contain the point (closed on all sides)?
    pub fn contains(&self, q: Point2) -> bool {
        self.x1 <= q.x && q.x <= self.x2 && self.y1 <= q.y && q.y <= self.y2
    }
}

impl Element for Rect {
    fn weight(&self) -> Weight {
        self.weight
    }
}

/// The y-extent hook used by the inner 1D structures.
impl HasInterval for Rect {
    fn ilo(&self) -> f64 {
        self.y1
    }
    fn ihi(&self) -> f64 {
        self.y2
    }
}

/// Polynomial boundedness: distinct outcomes are determined by the
/// (x-slab, y-slab) pair, so ≤ (2n+1)² ≤ n³ for n ≥ 5 → `λ = 3`.
pub const LAMBDA: f64 = 3.0;

/// Prioritized point enclosure. See the crate docs.
pub struct EncPri {
    tree: SegTreeOfSets<SegStabG<Rect>>,
}

impl EncPri {
    /// Build over the given rectangles.
    pub fn build(model: &CostModel, items: Vec<Rect>) -> Self {
        let (tree, _) = SegTreeOfSets::build(
            model,
            &items,
            |r| (r.x1, r.x2),
            |_, bucket| SegStabG::build(model, gather(&items, bucket)),
        );
        EncPri { tree }
    }
}

/// The rectangles at `positions`, in that order.
fn gather(items: &[Rect], positions: &[u32]) -> Vec<Rect> {
    positions.iter().map(|&i| items[i as usize]).collect()
}

impl PrioritizedIndex<Rect, Point2> for EncPri {
    fn for_each_at_least(&self, q: &Point2, tau: Weight, visit: &mut dyn FnMut(&Rect) -> bool) {
        let y = q.y;
        self.tree.for_each_on_path(q.x, &mut |inner| {
            let mut keep_going = true;
            inner.for_each_at_least(&y, tau, &mut |r| {
                if !visit(r) {
                    keep_going = false;
                    return false;
                }
                true
            });
            keep_going
        });
    }

    fn space_blocks(&self) -> u64 {
        self.tree
            .space_blocks(|inner| PrioritizedIndex::<Rect, f64>::space_blocks(inner).max(1))
    }

    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// Builder for [`EncPri`].
#[derive(Clone, Copy, Debug)]
pub struct EncPriBuilder;

impl PrioritizedBuilder<Rect, Point2> for EncPriBuilder {
    type Index = EncPri;
    fn build(&self, model: &CostModel, items: Vec<Rect>) -> EncPri {
        EncPri::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let lg = (n.max(2) as f64).log2();
        (lg * lg).max(log_b(n, b))
    }
}

/// Point-enclosure max (2D stabbing max, §5.2). See the crate docs.
pub struct EncMax {
    tree: SegTreeOfSets<StaticStabMaxG<Rect>>,
}

impl EncMax {
    /// Build over the given rectangles.
    pub fn build(model: &CostModel, items: Vec<Rect>) -> Self {
        let (tree, _) = SegTreeOfSets::build(
            model,
            &items,
            |r| (r.x1, r.x2),
            |_, bucket| StaticStabMaxG::build(model, gather(&items, bucket)),
        );
        EncMax { tree }
    }
}

impl MaxIndex<Rect, Point2> for EncMax {
    fn query_max(&self, q: &Point2) -> Option<Rect> {
        let mut best: Option<Rect> = None;
        self.tree.for_each_on_path(q.x, &mut |inner| {
            if let Some(r) = inner.query_max(&q.y) {
                if best.is_none_or(|b| r.weight > b.weight) {
                    best = Some(r);
                }
            }
            true
        });
        best
    }

    fn space_blocks(&self) -> u64 {
        self.tree
            .space_blocks(|inner| MaxIndex::<Rect, f64>::space_blocks(inner).max(1))
    }

    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// Builder for [`EncMax`].
#[derive(Clone, Copy, Debug)]
pub struct EncMaxBuilder;

impl MaxBuilder<Rect, Point2> for EncMaxBuilder {
    type Index = EncMax;
    fn build(&self, model: &CostModel, items: Vec<Rect>) -> EncMax {
        EncMax::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let lg = (n.max(2) as f64).log2();
        (lg * lg).max(log_b(n, b))
    }
}

/// Theorem 2 top-k point enclosure (expected bounds, Theorem 5 bullet 1).
pub struct TopKEnclosure {
    inner: ExpectedTopK<Rect, Point2, EncPriBuilder, EncMaxBuilder>,
}

impl TopKEnclosure {
    /// Build over the given rectangles.
    pub fn build(model: &CostModel, items: Vec<Rect>, seed: u64) -> Self {
        let params = Theorem2Params {
            seed,
            ..Theorem2Params::default()
        };
        TopKEnclosure {
            inner: ExpectedTopK::build(model, EncPriBuilder, EncMaxBuilder, items, params),
        }
    }
}

impl TopKIndex<Rect, Point2> for TopKEnclosure {
    fn query_topk(&self, q: &Point2, k: usize, out: &mut Vec<Rect>) {
        self.inner.query_topk(q, k, out);
    }
    fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }
    fn try_query_topk(
        &self,
        q: &Point2,
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<Rect>, EmError> {
        self.inner.try_query_topk(q, k, retrier)
    }
}

/// Theorem 1 top-k point enclosure (worst-case bounds, Theorem 5 bullet 2).
pub struct TopKEnclosureWorstCase {
    inner: WorstCaseTopK<Rect, Point2, EncPriBuilder>,
}

impl TopKEnclosureWorstCase {
    /// Build over the given rectangles.
    pub fn build(model: &CostModel, items: Vec<Rect>, seed: u64) -> Self {
        let params = Theorem1Params::new(LAMBDA).with_seed(seed);
        TopKEnclosureWorstCase {
            inner: WorstCaseTopK::build(model, &EncPriBuilder, items, params),
        }
    }
}

impl TopKIndex<Rect, Point2> for TopKEnclosureWorstCase {
    fn query_topk(&self, q: &Point2, k: usize, out: &mut Vec<Rect>) {
        self.inner.query_topk(q, k, out);
    }
    fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }
    fn try_query_topk(
        &self,
        q: &Point2,
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<Rect>, EmError> {
        self.inner.try_query_topk(q, k, retrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topk_core::brute;

    fn mk(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x1: f64 = rng.gen_range(0.0..100.0);
                let y1: f64 = rng.gen_range(0.0..100.0);
                Rect::new(
                    x1,
                    x1 + rng.gen_range(0.0..30.0),
                    y1,
                    y1 + rng.gen_range(0.0..30.0),
                    i as u64 + 1,
                )
            })
            .collect()
    }

    fn queries(seed: u64, n: usize) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(-5.0..135.0), rng.gen_range(-5.0..135.0)))
            .collect()
    }

    #[test]
    fn prioritized_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(600, 71);
        let idx = EncPri::build(&model, items.clone());
        for q in queries(72, 60) {
            for tau in [0u64, 100, 400] {
                let mut got = Vec::new();
                idx.query(&q, tau, &mut got);
                let mut got_w: Vec<u64> = got.iter().map(|r| r.weight).collect();
                got_w.sort_unstable();
                let want = brute::prioritized(&items, |r| r.contains(q), tau);
                let mut want_w: Vec<u64> = want.iter().map(|r| r.weight).collect();
                want_w.sort_unstable();
                assert_eq!(got_w, want_w, "q={q:?} tau={tau}");
            }
        }
    }

    #[test]
    fn max_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(600, 73);
        let idx = EncMax::build(&model, items.clone());
        for q in queries(74, 150) {
            let want = brute::max(&items, |r| r.contains(q));
            assert_eq!(
                idx.query_max(&q).map(|r| r.weight),
                want.map(|r| r.weight),
                "q={q:?}"
            );
        }
    }

    #[test]
    fn max_on_rectangle_corners() {
        let model = CostModel::ram();
        let items = vec![
            Rect::new(0.0, 10.0, 0.0, 10.0, 5),
            Rect::new(10.0, 20.0, 10.0, 20.0, 9),
        ];
        let idx = EncMax::build(&model, items);
        // (10,10) lies in both rectangles (closed).
        assert_eq!(
            idx.query_max(&Point2::new(10.0, 10.0)).map(|r| r.weight),
            Some(9)
        );
        assert_eq!(
            idx.query_max(&Point2::new(0.0, 0.0)).map(|r| r.weight),
            Some(5)
        );
        assert_eq!(idx.query_max(&Point2::new(20.0, 0.0)), None);
    }

    #[test]
    fn theorem2_topk_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(2_000, 75);
        let idx = TopKEnclosure::build(&model, items.clone(), 7);
        for q in queries(76, 12) {
            for k in [1usize, 5, 50, 500, 3_000] {
                let mut got = Vec::new();
                idx.query_topk(&q, k, &mut got);
                let want = brute::top_k(&items, |r| r.contains(q), k);
                assert_eq!(
                    got.iter().map(|r| r.weight).collect::<Vec<_>>(),
                    want.iter().map(|r| r.weight).collect::<Vec<_>>(),
                    "q={q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn theorem1_topk_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(1_200, 77);
        let idx = TopKEnclosureWorstCase::build(&model, items.clone(), 8);
        for q in queries(78, 8) {
            for k in [1usize, 10, 100, 1_199] {
                let mut got = Vec::new();
                idx.query_topk(&q, k, &mut got);
                let want = brute::top_k(&items, |r| r.contains(q), k);
                assert_eq!(
                    got.iter().map(|r| r.weight).collect::<Vec<_>>(),
                    want.iter().map(|r| r.weight).collect::<Vec<_>>(),
                    "q={q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn dating_site_example_shape() {
        // The paper's §1.4 scenario: rectangles are (age × height) ranges
        // weighted by salary; the query is a person's (age, height).
        let model = CostModel::ram();
        let profiles = vec![
            Rect::new(25.0, 35.0, 160.0, 175.0, 90_000),
            Rect::new(20.0, 30.0, 165.0, 185.0, 120_000),
            Rect::new(30.0, 45.0, 150.0, 170.0, 75_000),
            Rect::new(18.0, 99.0, 100.0, 220.0, 60_000),
        ];
        let idx = TopKEnclosure::build(&model, profiles, 1);
        let me = Point2::new(28.0, 168.0);
        let mut out = Vec::new();
        idx.query_topk(&me, 2, &mut out);
        assert_eq!(
            out.iter().map(|r| r.weight).collect::<Vec<_>>(),
            vec![120_000, 90_000]
        );
    }

    #[test]
    fn empty_input() {
        let model = CostModel::ram();
        let idx = TopKEnclosure::build(&model, vec![], 1);
        let mut out = Vec::new();
        idx.query_topk(&Point2::new(0.0, 0.0), 5, &mut out);
        assert!(out.is_empty());
    }
}
