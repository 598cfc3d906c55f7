//! Top-k 2D halfspace reporting (Theorem 3, first bullet).
//!
//! Exactly the §5.4 assembly: prioritized = a binary weight tree with a
//! convex-layers halfplane reporting structure per node
//! ([`structures::CanonicalWeightTree`] over
//! [`crate::ConvexLayersHalfplane`]); max = [`crate::WeightHullTree`];
//! top-k = **Theorem 2** (expected `O(polylog n + k)` query,
//! `O(n log n)` space).

use emsim::CostModel;
use geom::Halfplane;
use structures::weight_tree::WeightTreeBuilder;
use topk_core::{EmError, ExpectedTopK, Retrier, Theorem2Params, TopKAnswer, TopKIndex};

use crate::max2d::WeightHullTreeBuilder;
use crate::reporting2d::ConvexLayersBuilder;
use crate::WPoint2;

fn binary_fanout(_n: usize, _b: usize) -> usize {
    2
}

/// The §5.4 prioritized builder: binary weight tree of convex-layer
/// reporting structures.
pub type Halfplane2dPriBuilder = WeightTreeBuilder<ConvexLayersBuilder>;

/// Construct the §5.4 prioritized builder.
pub fn pri2d_builder() -> Halfplane2dPriBuilder {
    WeightTreeBuilder {
        reporting: ConvexLayersBuilder,
        fanout: binary_fanout,
    }
}

/// Theorem 2 top-k 2D halfspace reporting. See the module docs.
pub struct TopKHalfplane {
    inner: ExpectedTopK<WPoint2, Halfplane, Halfplane2dPriBuilder, WeightHullTreeBuilder>,
}

impl TopKHalfplane {
    /// Build over the given points.
    pub fn build(model: &CostModel, items: Vec<WPoint2>, seed: u64) -> Self {
        let params = Theorem2Params {
            seed,
            ..Theorem2Params::default()
        };
        TopKHalfplane {
            inner: ExpectedTopK::build(
                model,
                pri2d_builder(),
                WeightHullTreeBuilder,
                items,
                params,
            ),
        }
    }

    /// Sampling-level sizes (diagnostics).
    pub fn sample_sizes(&self) -> Vec<usize> {
        self.inner.sample_sizes()
    }
}

impl TopKIndex<WPoint2, Halfplane> for TopKHalfplane {
    fn query_topk(&self, q: &Halfplane, k: usize, out: &mut Vec<WPoint2>) {
        self.inner.query_topk(q, k, out);
    }
    fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }
    fn try_query_topk(
        &self,
        q: &Halfplane,
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<WPoint2>, EmError> {
        self.inner.try_query_topk(q, k, retrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cloud, halfplanes};
    use topk_core::{brute, PrioritizedBuilder, PrioritizedIndex};

    #[test]
    fn prioritized_2d_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = cloud(700, 111);
        let builder = pri2d_builder();
        let idx = builder.build(&model, items.clone());
        for h in halfplanes(112, 25) {
            for tau in [0u64, 200, 650] {
                let mut got = Vec::new();
                idx.query(&h, tau, &mut got);
                let mut got_w: Vec<u64> = got.iter().map(|p| p.weight).collect();
                got_w.sort_unstable();
                let want = brute::prioritized(&items, |p| h.contains(p.point()), tau);
                let mut want_w: Vec<u64> = want.iter().map(|p| p.weight).collect();
                want_w.sort_unstable();
                assert_eq!(got_w, want_w, "h={h:?} tau={tau}");
            }
        }
    }

    #[test]
    fn topk_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = cloud(2_500, 113);
        let idx = TopKHalfplane::build(&model, items.clone(), 11);
        for h in halfplanes(114, 10) {
            for k in [1usize, 5, 64, 500, 3_000] {
                let mut got = Vec::new();
                idx.query_topk(&h, k, &mut got);
                let want = brute::top_k(&items, |p| h.contains(p.point()), k);
                assert_eq!(
                    got.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    want.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    "h={h:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn space_is_n_log_n_ish() {
        let b = 64;
        let model = CostModel::new(emsim::EmConfig::new(b));
        let n = 20_000usize;
        let items = cloud(n, 115);
        let idx = TopKHalfplane::build(&model, items, 12);
        let n_blocks = (3 * n as u64).div_ceil(b as u64);
        let logn = (n as f64).log2().ceil() as u64;
        assert!(
            idx.space_blocks() <= 10 * n_blocks * logn,
            "space {} vs n/B·log n = {}",
            idx.space_blocks(),
            n_blocks * logn
        );
    }

    #[test]
    fn empty_input() {
        let model = CostModel::ram();
        let idx = TopKHalfplane::build(&model, vec![], 1);
        let mut out = Vec::new();
        idx.query_topk(&Halfplane::new(1.0, 0.0, 0.0), 3, &mut out);
        assert!(out.is_empty());
    }
}
