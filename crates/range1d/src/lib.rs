//! # range1d — top-k 1D range reporting (framework showcase)
//!
//! The simplest classical instance (the 1D version studied in
//! \[3, 11, 12, 33, 35\] of the paper's survey): elements are weighted
//! points on a line, a predicate is an interval `[lo, hi]`. Prioritized
//! reporting is exactly a 3-sided query — one [`PrioritySearchTree`] — and
//! max reporting is the same tree's best-first descent, so this crate is
//! the cleanest end-to-end validation of both reductions with textbook
//! substrates.

use emsim::CostModel;
use geom::OrderedF64;
use structures::PrioritySearchTree;
use topk_core::{
    log_b, BinarySearchTopK, CountingTopK, Element, ExpectedTopK, MaxBuilder, MaxIndex,
    PrioritizedBuilder, PrioritizedIndex, RepCntBuilder, RepCntIndex, Theorem1Params,
    Theorem2Params, Weight, WorstCaseTopK,
};

/// A weighted point on the line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WPoint1 {
    /// Position.
    pub x: f64,
    /// Distinct weight.
    pub weight: Weight,
}

impl WPoint1 {
    /// Construct; position must be finite.
    pub fn new(x: f64, weight: Weight) -> Self {
        assert!(x.is_finite(), "position must be finite");
        WPoint1 { x, weight }
    }
}

impl Element for WPoint1 {
    fn weight(&self) -> Weight {
        self.weight
    }
}

/// A closed query range `[lo, hi]`.
#[derive(Clone, Copy, Debug)]
pub struct Range {
    /// Lower end.
    pub lo: f64,
    /// Upper end (`≥ lo`).
    pub hi: f64,
}

impl Range {
    /// Construct; ends must be finite with `lo ≤ hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        Range { lo, hi }
    }

    /// Does the range contain `p`?
    pub fn contains(&self, p: &WPoint1) -> bool {
        self.lo <= p.x && p.x <= self.hi
    }
}

/// Polynomial boundedness: ≤ `n(n+1)/2 + 1 ≤ n²` outcomes → `λ = 2`.
pub const LAMBDA: f64 = 2.0;

/// Prioritized + max 1D range structure over a single PST.
pub struct RangePst {
    pst: PrioritySearchTree<OrderedF64, WPoint1>,
}

impl RangePst {
    /// Build over the given points.
    pub fn build(model: &CostModel, items: Vec<WPoint1>) -> Self {
        RangePst {
            pst: PrioritySearchTree::build(model, items, |p| OrderedF64::new(p.x)),
        }
    }
}

impl PrioritizedIndex<WPoint1, Range> for RangePst {
    fn for_each_at_least(&self, q: &Range, tau: Weight, visit: &mut dyn FnMut(&WPoint1) -> bool) {
        self.pst
            .query_3sided(OrderedF64::new(q.lo), OrderedF64::new(q.hi), tau, visit);
    }
    fn space_blocks(&self) -> u64 {
        self.pst.space_blocks()
    }
    fn len(&self) -> usize {
        self.pst.len()
    }
}

impl MaxIndex<WPoint1, Range> for RangePst {
    fn query_max(&self, q: &Range) -> Option<WPoint1> {
        self.pst
            .max_in_range(OrderedF64::new(q.lo), OrderedF64::new(q.hi))
    }
    fn space_blocks(&self) -> u64 {
        self.pst.space_blocks()
    }
    fn len(&self) -> usize {
        self.pst.len()
    }
}

/// Builder for [`RangePst`] as a prioritized structure.
#[derive(Clone, Copy, Debug)]
pub struct RangePstBuilder;

impl PrioritizedBuilder<WPoint1, Range> for RangePstBuilder {
    type Index = RangePst;
    fn build(&self, model: &CostModel, items: Vec<WPoint1>) -> RangePst {
        RangePst::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        ((n.max(2) as f64).log2()).max(log_b(n, b))
    }
}

/// Builder for [`RangePst`] as a max structure.
#[derive(Clone, Copy, Debug)]
pub struct RangeMaxBuilder;

impl MaxBuilder<WPoint1, Range> for RangeMaxBuilder {
    type Index = RangePst;
    fn build(&self, model: &CostModel, items: Vec<WPoint1>) -> RangePst {
        RangePst::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        ((n.max(2) as f64).log2()).max(log_b(n, b))
    }
}

/// Theorem 2 top-k 1D range reporting.
pub type TopKRange1D = ExpectedTopK<WPoint1, Range, RangePstBuilder, RangeMaxBuilder>;

/// Build the Theorem 2 instance.
pub fn topk_range1d(model: &CostModel, items: Vec<WPoint1>, seed: u64) -> TopKRange1D {
    let params = Theorem2Params {
        seed,
        ..Theorem2Params::default()
    };
    ExpectedTopK::build(model, RangePstBuilder, RangeMaxBuilder, items, params)
}

/// Theorem 1 top-k 1D range reporting.
pub type TopKRange1DWorstCase = WorstCaseTopK<WPoint1, Range, RangePstBuilder>;

/// Build the Theorem 1 instance.
pub fn topk_range1d_worstcase(
    model: &CostModel,
    items: Vec<WPoint1>,
    seed: u64,
) -> TopKRange1DWorstCase {
    WorstCaseTopK::build(
        model,
        &RangePstBuilder,
        items,
        Theorem1Params::new(LAMBDA).with_seed(seed),
    )
}

/// The \[28\]-style binary-search baseline on the same substrate
/// (experiment E6 compares it against the reductions).
pub type Range1DBaseline = BinarySearchTopK<WPoint1, Range, RangePstBuilder>;

/// Build the baseline instance.
pub fn topk_range1d_baseline(model: &CostModel, items: Vec<WPoint1>) -> Range1DBaseline {
    BinarySearchTopK::build(model, &RangePstBuilder, items)
}

/// Exact reporting + counting over an x-sorted block array — the per-node
/// structure of the §2 counting reduction for 1D ranges (reporting in
/// `O(log n + t)`, exact counting in `O(log n)`).
pub struct RangeRC {
    xs: emsim::BlockArray<WPoint1>,
}

impl RepCntIndex<WPoint1, Range> for RangeRC {
    fn report_while(&self, q: &Range, visit: &mut dyn FnMut(&WPoint1) -> bool) {
        let lo = self.xs.partition_point(|p| p.x < q.lo);
        let hi = self.xs.partition_point(|p| p.x <= q.hi);
        self.xs.scan_while(lo, hi, |p| visit(p));
    }
    fn count(&self, q: &Range) -> usize {
        let lo = self.xs.partition_point(|p| p.x < q.lo);
        let hi = self.xs.partition_point(|p| p.x <= q.hi);
        hi - lo
    }
    fn space_blocks(&self) -> u64 {
        self.xs.blocks().max(1)
    }
}

/// Builder for [`RangeRC`].
#[derive(Clone, Copy, Debug)]
pub struct RangeRCBuilder;

impl RepCntBuilder<WPoint1, Range> for RangeRCBuilder {
    type Index = RangeRC;
    fn build(&self, model: &CostModel, mut items: Vec<WPoint1>) -> RangeRC {
        items.sort_by(|a, b| a.x.partial_cmp(&b.x).unwrap());
        RangeRC {
            xs: emsim::BlockArray::new(model, items),
        }
    }
}

/// The §2 counting-reduction baseline on 1D ranges.
pub type Range1DCounting = CountingTopK<WPoint1, Range, RangeRCBuilder>;

/// Build the counting-reduction instance.
pub fn topk_range1d_counting(model: &CostModel, items: Vec<WPoint1>) -> Range1DCounting {
    CountingTopK::build(model, &RangeRCBuilder, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topk_core::brute;
    use topk_core::TopKIndex;

    fn mk(n: usize, seed: u64) -> Vec<WPoint1> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| WPoint1::new(rng.gen_range(0.0..1000.0), i as u64 + 1))
            .collect()
    }

    fn ranges(seed: u64, n: usize) -> Vec<Range> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a: f64 = rng.gen_range(0.0..1000.0);
                Range::new(a, a + rng.gen_range(0.0..400.0))
            })
            .collect()
    }

    #[test]
    fn prioritized_and_max_match_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(1_000, 141);
        let idx = RangePst::build(&model, items.clone());
        for q in ranges(142, 50) {
            for tau in [0u64, 300, 900] {
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
    fn all_three_topk_structures_agree_with_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(3_000, 143);
        let t2 = topk_range1d(&model, items.clone(), 16);
        let t1 = topk_range1d_worstcase(&model, items.clone(), 17);
        let bs = topk_range1d_baseline(&model, items.clone());
        let cnt = topk_range1d_counting(&model, items.clone());
        for q in ranges(144, 8) {
            for k in [1usize, 8, 64, 512, 4_000] {
                let want = brute::top_k(&items, |p| q.contains(p), k);
                let want_w: Vec<u64> = want.iter().map(|p| p.weight).collect();
                for (name, got) in [
                    ("t2", {
                        let mut v = Vec::new();
                        t2.query_topk(&q, k, &mut v);
                        v
                    }),
                    ("t1", {
                        let mut v = Vec::new();
                        t1.query_topk(&q, k, &mut v);
                        v
                    }),
                    ("bs", {
                        let mut v = Vec::new();
                        bs.query_topk(&q, k, &mut v);
                        v
                    }),
                    ("cnt", {
                        let mut v = Vec::new();
                        cnt.query_topk(&q, k, &mut v);
                        v
                    }),
                ] {
                    assert_eq!(
                        got.iter().map(|p| p.weight).collect::<Vec<_>>(),
                        want_w,
                        "{name} q={q:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn point_range_queries() {
        let model = CostModel::ram();
        let items = vec![
            WPoint1::new(5.0, 1),
            WPoint1::new(5.0, 2),
            WPoint1::new(6.0, 3),
        ];
        let idx = RangePst::build(&model, items);
        let q = Range::new(5.0, 5.0);
        let mut out = Vec::new();
        idx.query(&q, 0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(idx.query_max(&q).map(|p| p.weight), Some(2));
    }
}
