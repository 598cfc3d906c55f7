//! Top-k halfspace reporting in dimension `D ≥ 3` (Theorem 3, bullets
//! 2–3).
//!
//! Reporting substrate: a kd-tree with `O(n^{1−1/D} + t)` halfspace
//! queries (DESIGN.md substitution 3 for Afshani–Chan / Agarwal et al.).
//! Prioritized: the §5.5 weight B-tree — a [`structures::CanonicalWeightTree`] with
//! fanout `max(2, (n/B)^{ε/2})` (`ε = 1/2` here), giving `O(1)` levels and
//! `O((n/B)^{1−1/D+ε} + t/B)` prioritized queries.
//!
//! Top-k: **Theorem 1**. Because `Q_pri(n) ≥ (n/B)^ε`, the reduction's
//! query bound (eq. (4)) collapses to `O(Q_pri(n))` — *zero slowdown*,
//! the paper's second remark under Theorem 1 and the point of experiment
//! E11. A Theorem 2 assembly is provided for comparison.

use emsim::CostModel;
use geom::point::{HalfspaceD, PointD};
use structures::kdtree::{KdPoint, KdTree};
use structures::weight_tree::WeightTreeBuilder;
use structures::{ReportingBuilder, ReportingIndex};
use topk_core::{
    log_b, Element, EmError, ExpectedTopK, MaxBuilder, MaxIndex, Retrier, Theorem1Params,
    Theorem2Params, TopKAnswer, TopKIndex, Weight, WorstCaseTopK,
};

/// A weighted point in `ℝ^D`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WPointD<const D: usize> {
    /// Coordinates.
    pub coords: [f64; D],
    /// Distinct weight.
    pub weight: Weight,
}

impl<const D: usize> WPointD<D> {
    /// Construct; coordinates must be finite.
    pub fn new(coords: [f64; D], weight: Weight) -> Self {
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "coordinates must be finite"
        );
        WPointD { coords, weight }
    }

    /// The geometric point.
    pub fn point(&self) -> PointD<D> {
        PointD::new(self.coords)
    }
}

impl<const D: usize> Element for WPointD<D> {
    fn weight(&self) -> Weight {
        self.weight
    }
}

impl<const D: usize> KdPoint<D> for WPointD<D> {
    fn position(&self) -> PointD<D> {
        self.point()
    }
}

/// Polynomial boundedness in `ℝ^D`: `O(n^D)` outcomes → `λ = D + 1`.
pub fn lambda(d: usize) -> f64 {
    (d + 1) as f64
}

/// kd-tree halfspace reporting structure for the weight-tree nodes.
pub struct KdReporting<const D: usize> {
    tree: KdTree<D, WPointD<D>>,
}

impl<const D: usize> ReportingIndex<WPointD<D>, HalfspaceD<D>> for KdReporting<D> {
    fn for_each(&self, q: &HalfspaceD<D>, visit: &mut dyn FnMut(&WPointD<D>) -> bool) {
        self.tree.for_each_in(q, 0, visit);
    }
    fn space_blocks(&self) -> u64 {
        self.tree.space_blocks()
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// Builder for [`KdReporting`].
#[derive(Clone, Copy, Debug)]
pub struct KdReportingBuilder;

impl<const D: usize> ReportingBuilder<WPointD<D>, HalfspaceD<D>> for KdReportingBuilder {
    type Index = KdReporting<D>;
    fn build(&self, model: &CostModel, items: Vec<WPointD<D>>) -> KdReporting<D> {
        KdReporting {
            tree: KdTree::build(model, items),
        }
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let exp = 1.0 - 1.0 / D as f64;
        ((n.max(2) as f64).powf(exp)).max(log_b(n, b))
    }
}

/// §5.5 fanout: `max(2, (n/B)^{ε/2})` with `ε = 1/2`.
fn em_fanout(n: usize, b: usize) -> usize {
    (((n / b.max(1)).max(2) as f64).powf(0.25) as usize).max(2)
}

/// The §5.5 prioritized builder (weight B-tree of kd reporting structures).
pub type HalfspaceHdPriBuilder = WeightTreeBuilder<KdReportingBuilder>;

/// Construct the §5.5 prioritized builder.
pub fn pri_hd_builder() -> HalfspaceHdPriBuilder {
    WeightTreeBuilder {
        reporting: KdReportingBuilder,
        fanout: em_fanout,
    }
}

/// Halfspace max over a kd-tree (best-first, max-pruned).
pub struct KdHalfspaceMax<const D: usize> {
    tree: KdTree<D, WPointD<D>>,
}

impl<const D: usize> MaxIndex<WPointD<D>, HalfspaceD<D>> for KdHalfspaceMax<D> {
    fn query_max(&self, q: &HalfspaceD<D>) -> Option<WPointD<D>> {
        self.tree.query_max(q)
    }
    fn space_blocks(&self) -> u64 {
        self.tree.space_blocks()
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// Builder for [`KdHalfspaceMax`].
#[derive(Clone, Copy, Debug)]
pub struct KdHalfspaceMaxBuilder;

impl<const D: usize> MaxBuilder<WPointD<D>, HalfspaceD<D>> for KdHalfspaceMaxBuilder {
    type Index = KdHalfspaceMax<D>;
    fn build(&self, model: &CostModel, items: Vec<WPointD<D>>) -> KdHalfspaceMax<D> {
        KdHalfspaceMax {
            tree: KdTree::build(model, items),
        }
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        // Measured: best-first with max pruning visits ~2·log₂ n nodes.
        (2.0 * (n.max(2) as f64).log2()).max(log_b(n, b))
    }
}

/// Theorem 1 top-k halfspace reporting in `ℝ^D` — the zero-slowdown
/// regime. See the module docs.
pub struct TopKHalfspaceWorstCase<const D: usize> {
    inner: WorstCaseTopK<WPointD<D>, HalfspaceD<D>, HalfspaceHdPriBuilder>,
}

impl<const D: usize> TopKHalfspaceWorstCase<D> {
    /// Build over the given points.
    pub fn build(model: &CostModel, items: Vec<WPointD<D>>, seed: u64) -> Self {
        let params = Theorem1Params::new(lambda(D)).with_seed(seed);
        TopKHalfspaceWorstCase {
            inner: WorstCaseTopK::build(model, &pri_hd_builder(), items, params),
        }
    }

    /// The `f` boundary (diagnostics).
    pub fn f(&self) -> usize {
        self.inner.f()
    }
}

impl<const D: usize> TopKIndex<WPointD<D>, HalfspaceD<D>> for TopKHalfspaceWorstCase<D> {
    fn query_topk(&self, q: &HalfspaceD<D>, k: usize, out: &mut Vec<WPointD<D>>) {
        self.inner.query_topk(q, k, out);
    }
    fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }
    fn try_query_topk(
        &self,
        q: &HalfspaceD<D>,
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<WPointD<D>>, EmError> {
        self.inner.try_query_topk(q, k, retrier)
    }
}

/// Theorem 2 top-k halfspace reporting in `ℝ^D` (for comparison with the
/// Theorem 1 assembly).
pub struct TopKHalfspaceExpected<const D: usize> {
    inner: ExpectedTopK<WPointD<D>, HalfspaceD<D>, HalfspaceHdPriBuilder, KdHalfspaceMaxBuilder>,
}

impl<const D: usize> TopKHalfspaceExpected<D> {
    /// Build over the given points.
    pub fn build(model: &CostModel, items: Vec<WPointD<D>>, seed: u64) -> Self {
        let params = Theorem2Params {
            seed,
            ..Theorem2Params::default()
        };
        TopKHalfspaceExpected {
            inner: ExpectedTopK::build(
                model,
                pri_hd_builder(),
                KdHalfspaceMaxBuilder,
                items,
                params,
            ),
        }
    }
}

impl<const D: usize> TopKIndex<WPointD<D>, HalfspaceD<D>> for TopKHalfspaceExpected<D> {
    fn query_topk(&self, q: &HalfspaceD<D>, k: usize, out: &mut Vec<WPointD<D>>) {
        self.inner.query_topk(q, k, out);
    }
    fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }
    fn try_query_topk(
        &self,
        q: &HalfspaceD<D>,
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<WPointD<D>>, EmError> {
        self.inner.try_query_topk(q, k, retrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topk_core::{brute, PrioritizedBuilder, PrioritizedIndex};

    fn cloud4(n: usize, seed: u64) -> Vec<WPointD<4>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                WPointD::new(
                    [
                        rng.gen_range(-50.0..50.0),
                        rng.gen_range(-50.0..50.0),
                        rng.gen_range(-50.0..50.0),
                        rng.gen_range(-50.0..50.0),
                    ],
                    i as u64 + 1,
                )
            })
            .collect()
    }

    fn halfspaces4(seed: u64, n: usize) -> Vec<HalfspaceD<4>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                HalfspaceD::new(
                    [
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0f64).max(0.01),
                    ],
                    rng.gen_range(-60.0..60.0),
                )
            })
            .collect()
    }

    #[test]
    fn prioritized_hd_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = cloud4(800, 121);
        let builder = pri_hd_builder();
        let idx = builder.build(&model, items.clone());
        for h in halfspaces4(122, 15) {
            for tau in [0u64, 300, 750] {
                let mut got = Vec::new();
                idx.query(&h, tau, &mut got);
                let mut got_w: Vec<u64> = got.iter().map(|p| p.weight).collect();
                got_w.sort_unstable();
                let want = brute::prioritized(&items, |p| h.contains(&p.point()), tau);
                let mut want_w: Vec<u64> = want.iter().map(|p| p.weight).collect();
                want_w.sort_unstable();
                assert_eq!(got_w, want_w);
            }
        }
    }

    #[test]
    fn theorem1_topk_matches_brute_in_4d() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = cloud4(1_500, 123);
        let idx = TopKHalfspaceWorstCase::build(&model, items.clone(), 13);
        for h in halfspaces4(124, 6) {
            for k in [1usize, 10, 100, 2_000] {
                let mut got = Vec::new();
                idx.query_topk(&h, k, &mut got);
                let want = brute::top_k(&items, |p| h.contains(&p.point()), k);
                assert_eq!(
                    got.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    want.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn theorem2_topk_matches_brute_in_4d() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = cloud4(1_200, 125);
        let idx = TopKHalfspaceExpected::build(&model, items.clone(), 14);
        for h in halfspaces4(126, 6) {
            for k in [1usize, 7, 77, 1_500] {
                let mut got = Vec::new();
                idx.query_topk(&h, k, &mut got);
                let want = brute::top_k(&items, |p| h.contains(&p.point()), k);
                assert_eq!(
                    got.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    want.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn max_hd_matches_brute() {
        let model = CostModel::ram();
        let items = cloud4(600, 127);
        let idx = KdHalfspaceMaxBuilder.build(&model, items.clone());
        for h in halfspaces4(128, 40) {
            let want = brute::max(&items, |p| h.contains(&p.point()));
            assert_eq!(idx.query_max(&h).map(|p| p.weight), want.map(|p| p.weight));
        }
    }

    #[test]
    fn em_fanout_grows_with_n() {
        assert_eq!(em_fanout(64, 64), 2);
        assert!(em_fanout(1 << 20, 64) > em_fanout(1 << 12, 64));
    }
}
