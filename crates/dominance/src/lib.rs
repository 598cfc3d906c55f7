//! # dominance — top-k 3D dominance (Theorem 6)
//!
//! The problem: `𝔻 = ℝ³`; a predicate is a point `q = (x, y, z)`; an
//! element `e` satisfies it iff `e_x ≤ x ∧ e_y ≤ y ∧ e_z ≤ z`. The paper's
//! running example: *"find the 10 best-rated hotels whose prices are at
//! most x, distances at most y, and security rating at least z"* (flip the
//! sign of a coordinate to turn "at least" into "at most").
//!
//! The paper combines a prioritized 4D-dominance structure (Afshani et
//! al.) with a max structure built from vertical decompositions and 3D
//! point location (Afshani '08 + Rahul '15). We substitute both with a
//! max-weight-augmented kd-tree (DESIGN.md substitution 5): prioritized
//! reporting via box pruning + weight pruning, max via best-first descent.
//! Theorem 2 then assembles the top-k structure — the reduction is
//! black-box, so its behaviour (the thing under test) is unchanged.

use emsim::CostModel;
use geom::point::PointD;
use structures::kdtree::{DominanceRegion, KdPoint, KdTree};
use structures::rangetree::{PlanarPoint, RangeTree2D};
use topk_core::{
    log_b, Element, EmError, ExpectedTopK, MaxBuilder, MaxIndex, PrioritizedBuilder,
    PrioritizedIndex, Retrier, Theorem2Params, TopKAnswer, TopKIndex, Weight,
};

/// A weighted point in ℝ³ (e.g. a hotel: price, distance, 100 − rating).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hotel {
    /// The three coordinates, all "smaller is better".
    pub coords: [f64; 3],
    /// Distinct weight (e.g. a rating to maximize).
    pub weight: Weight,
}

impl Hotel {
    /// Construct; coordinates must be finite.
    pub fn new(coords: [f64; 3], weight: Weight) -> Self {
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "coordinates must be finite"
        );
        Hotel { coords, weight }
    }

    /// The dominance predicate of Theorem 6.
    pub fn dominated_by(&self, q: &[f64; 3]) -> bool {
        self.coords.iter().zip(q.iter()).all(|(c, qq)| c <= qq)
    }
}

impl Element for Hotel {
    fn weight(&self) -> Weight {
        self.weight
    }
}

impl KdPoint<3> for Hotel {
    fn position(&self) -> PointD<3> {
        PointD::new(self.coords)
    }
}

impl PlanarPoint for Hotel {
    fn px(&self) -> f64 {
        self.coords[0]
    }
    fn py(&self) -> f64 {
        self.coords[1]
    }
}

/// Polynomial boundedness: outcomes are determined by the query's rank in
/// each coordinate, ≤ (n+1)³ ≤ n⁴ for n ≥ 3 → `λ = 4`.
pub const LAMBDA: f64 = 4.0;

/// Prioritized 3D dominance over a kd-tree.
pub struct DomPri {
    tree: KdTree<3, Hotel>,
}

impl DomPri {
    /// Build over the given points.
    pub fn build(model: &CostModel, items: Vec<Hotel>) -> Self {
        DomPri {
            tree: KdTree::build(model, items),
        }
    }
}

impl PrioritizedIndex<Hotel, [f64; 3]> for DomPri {
    fn for_each_at_least(&self, q: &[f64; 3], tau: Weight, visit: &mut dyn FnMut(&Hotel) -> bool) {
        let region = DominanceRegion {
            corner: PointD::new(*q),
        };
        self.tree.for_each_in(&region, tau, visit);
    }

    fn space_blocks(&self) -> u64 {
        self.tree.space_blocks()
    }

    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// Builder for [`DomPri`].
#[derive(Clone, Copy, Debug)]
pub struct DomPriBuilder;

impl PrioritizedBuilder<Hotel, [f64; 3]> for DomPriBuilder {
    type Index = DomPri;
    fn build(&self, model: &CostModel, items: Vec<Hotel>) -> DomPri {
        DomPri::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        // kd-tree dominance: O(n^{2/3}) node visits.
        ((n.max(2) as f64).powf(2.0 / 3.0)).max(log_b(n, b))
    }
}

/// 3D dominance max over the same kd-tree (best-first, max-pruned).
pub struct DomMax {
    tree: KdTree<3, Hotel>,
}

impl DomMax {
    /// Build over the given points.
    pub fn build(model: &CostModel, items: Vec<Hotel>) -> Self {
        DomMax {
            tree: KdTree::build(model, items),
        }
    }
}

impl MaxIndex<Hotel, [f64; 3]> for DomMax {
    fn query_max(&self, q: &[f64; 3]) -> Option<Hotel> {
        self.tree.query_max(&DominanceRegion {
            corner: PointD::new(*q),
        })
    }

    fn space_blocks(&self) -> u64 {
        self.tree.space_blocks()
    }

    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// Builder for [`DomMax`].
#[derive(Clone, Copy, Debug)]
pub struct DomMaxBuilder;

impl MaxBuilder<Hotel, [f64; 3]> for DomMaxBuilder {
    type Index = DomMax;
    fn build(&self, model: &CostModel, items: Vec<Hotel>) -> DomMax {
        DomMax::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        // Best-first with max pruning measures ~2·log₂ n node visits on
        // the evaluation workloads (see experiment E9); the estimate feeds
        // Theorem 2's K₁ = B·Q_max sizing, so it should track reality.
        (2.0 * (n.max(2) as f64).log2()).max(log_b(n, b))
    }
}

/// Theorem 2 top-k 3D dominance (Theorem 6).
pub struct TopKDominance {
    inner: ExpectedTopK<Hotel, [f64; 3], DomPriBuilder, DomMaxBuilder>,
}

impl TopKDominance {
    /// Build over the given points.
    pub fn build(model: &CostModel, items: Vec<Hotel>, seed: u64) -> Self {
        let params = Theorem2Params {
            seed,
            ..Theorem2Params::default()
        };
        TopKDominance {
            inner: ExpectedTopK::build(model, DomPriBuilder, DomMaxBuilder, items, params),
        }
    }
}

impl TopKIndex<Hotel, [f64; 3]> for TopKDominance {
    fn query_topk(&self, q: &[f64; 3], k: usize, out: &mut Vec<Hotel>) {
        self.inner.query_topk(q, k, out);
    }
    fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }
    fn try_query_topk(
        &self,
        q: &[f64; 3],
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<Hotel>, EmError> {
        self.inner.try_query_topk(q, k, retrier)
    }
}

/// Alternative 3D substrate in the spirit of the paper's §5.3 layered
/// construction: a balanced tree over the z-coordinate whose canonical
/// nodes carry 2D range trees on (x, y) — prioritized dominance reporting
/// in `O(log³ n + t)` and max in `O(log³ n)`, using `O(n log² n)` space.
/// The polylog counterpart to the linear-space kd substrate
/// ([`DomPri`]/[`DomMax`]); experiment E20 measures the
/// trade-off under Theorem 2.
pub struct DomZTree {
    /// Nodes of a balanced BST over z; `nodes[u] = (z_lo, z_hi, 2D tree,
    /// left, right)`.
    nodes: Vec<ZNode>,
    root: Option<usize>,
    len: usize,
    array_id: u64,
    model: CostModel,
}

struct ZNode {
    z_lo: f64,
    z_hi: f64,
    xy: RangeTree2D<Hotel>,
    left: Option<usize>,
    right: Option<usize>,
}

impl DomZTree {
    /// Build over the given points.
    pub fn build(model: &CostModel, mut items: Vec<Hotel>) -> Self {
        items.sort_by(|a, b| a.coords[2].partial_cmp(&b.coords[2]).unwrap());
        let len = items.len();
        let mut s = DomZTree {
            nodes: Vec::new(),
            root: None,
            len,
            array_id: model.new_array_id(),
            model: model.clone(),
        };
        if !items.is_empty() {
            let root = s.build_rec(model, items);
            s.root = Some(root);
        }
        s.model.charge_writes(s.nodes.len() as u64);
        s
    }

    /// `items` sorted by z ascending.
    fn build_rec(&mut self, model: &CostModel, items: Vec<Hotel>) -> usize {
        let z_lo = items.first().unwrap().coords[2];
        let z_hi = items.last().unwrap().coords[2];
        let xy = RangeTree2D::build(model, items.clone());
        let leaf_cap = model.config().items_per_block::<Hotel>().max(4);
        let (left, right) = if items.len() <= leaf_cap {
            (None, None)
        } else {
            let mut l = items;
            let r = l.split_off(l.len() / 2);
            (
                Some(self.build_rec(model, l)),
                Some(self.build_rec(model, r)),
            )
        };
        self.nodes.push(ZNode {
            z_lo,
            z_hi,
            xy,
            left,
            right,
        });
        self.nodes.len() - 1
    }

    const NEG: f64 = -1.0e15;

    /// Visit canonical z-subtrees fully below `q_z` and run `f` on each
    /// node's 2D tree; straddling leaves get per-element filtering via
    /// the returned flag.
    fn canonical_z(
        &self,
        u: usize,
        qz: f64,
        f: &mut dyn FnMut(&RangeTree2D<Hotel>, bool) -> bool,
    ) -> bool {
        self.model.touch(self.array_id, u as u64);
        let node = &self.nodes[u];
        if node.z_lo > qz {
            return true;
        }
        if node.z_hi <= qz {
            return f(&node.xy, false);
        }
        match (node.left, node.right) {
            (Some(l), Some(r)) => self.canonical_z(l, qz, f) && self.canonical_z(r, qz, f),
            _ => f(&node.xy, true), // straddling leaf: z-filter needed
        }
    }
}

impl PrioritizedIndex<Hotel, [f64; 3]> for DomZTree {
    fn for_each_at_least(&self, q: &[f64; 3], tau: Weight, visit: &mut dyn FnMut(&Hotel) -> bool) {
        let Some(root) = self.root else { return };
        let (qx, qy, qz) = (q[0], q[1], q[2]);
        self.canonical_z(root, qz, &mut |xy, need_z_filter| {
            let mut go_on = true;
            xy.for_each_in(Self::NEG, qx, Self::NEG, qy, tau, &mut |h| {
                if need_z_filter && h.coords[2] > qz {
                    return true;
                }
                if !visit(h) {
                    go_on = false;
                    return false;
                }
                true
            });
            go_on
        });
    }

    fn space_blocks(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.xy.space_blocks() + 1)
            .sum::<u64>()
            .max(1)
    }

    fn len(&self) -> usize {
        self.len
    }
}

impl MaxIndex<Hotel, [f64; 3]> for DomZTree {
    fn query_max(&self, q: &[f64; 3]) -> Option<Hotel> {
        let root = self.root?;
        let (qx, qy, qz) = (q[0], q[1], q[2]);
        let mut best: Option<Hotel> = None;
        self.canonical_z(root, qz, &mut |xy, need_z_filter| {
            if need_z_filter {
                // Straddling leaf: threshold-scan with z filtering.
                let floor = best.as_ref().map_or(0, |b| b.weight.saturating_add(1));
                xy.for_each_in(Self::NEG, qx, Self::NEG, qy, floor, &mut |h| {
                    if h.coords[2] <= qz && best.as_ref().is_none_or(|b| h.weight > b.weight) {
                        best = Some(*h);
                    }
                    true
                });
            } else if let Some(h) = xy.max_in(Self::NEG, qx, Self::NEG, qy) {
                if best.as_ref().is_none_or(|b| h.weight > b.weight) {
                    best = Some(h);
                }
            }
            true
        });
        best
    }

    fn space_blocks(&self) -> u64 {
        PrioritizedIndex::space_blocks(self)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Builder for [`DomZTree`] as a prioritized structure.
#[derive(Clone, Copy, Debug)]
pub struct DomZTreeBuilder;

impl PrioritizedBuilder<Hotel, [f64; 3]> for DomZTreeBuilder {
    type Index = DomZTree;
    fn build(&self, model: &CostModel, items: Vec<Hotel>) -> DomZTree {
        DomZTree::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let lg = (n.max(2) as f64).log2();
        (lg * lg * lg).max(log_b(n, b))
    }
}

/// Builder for [`DomZTree`] as a max structure.
#[derive(Clone, Copy, Debug)]
pub struct DomZTreeMaxBuilder;

impl MaxBuilder<Hotel, [f64; 3]> for DomZTreeMaxBuilder {
    type Index = DomZTree;
    fn build(&self, model: &CostModel, items: Vec<Hotel>) -> DomZTree {
        DomZTree::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let lg = (n.max(2) as f64).log2();
        (lg * lg * lg).max(log_b(n, b))
    }
}

/// Theorem 2 top-k 3D dominance over the polylog z-tree substrate.
pub type TopKDominanceZt = ExpectedTopK<Hotel, [f64; 3], DomZTreeBuilder, DomZTreeMaxBuilder>;

/// Build the z-tree-substrate Theorem 2 instance.
pub fn topk_dominance_ztree(model: &CostModel, items: Vec<Hotel>, seed: u64) -> TopKDominanceZt {
    let params = Theorem2Params {
        seed,
        ..Theorem2Params::default()
    };
    ExpectedTopK::build(model, DomZTreeBuilder, DomZTreeMaxBuilder, items, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topk_core::brute;

    fn mk(n: usize, seed: u64) -> Vec<Hotel> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                Hotel::new(
                    [
                        rng.gen_range(0.0..100.0),
                        rng.gen_range(0.0..100.0),
                        rng.gen_range(0.0..100.0),
                    ],
                    i as u64 + 1,
                )
            })
            .collect()
    }

    fn mk_queries(seed: u64, n: usize) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(10.0..110.0),
                    rng.gen_range(10.0..110.0),
                    rng.gen_range(10.0..110.0),
                ]
            })
            .collect()
    }

    #[test]
    fn prioritized_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(1_000, 81);
        let idx = DomPri::build(&model, items.clone());
        for q in mk_queries(82, 25) {
            for tau in [0u64, 300, 900] {
                let mut got = Vec::new();
                idx.query(&q, tau, &mut got);
                let mut got_w: Vec<u64> = got.iter().map(|h| h.weight).collect();
                got_w.sort_unstable();
                let want = brute::prioritized(&items, |h| h.dominated_by(&q), tau);
                let mut want_w: Vec<u64> = want.iter().map(|h| h.weight).collect();
                want_w.sort_unstable();
                assert_eq!(got_w, want_w, "q={q:?} tau={tau}");
            }
        }
    }

    #[test]
    fn max_matches_brute() {
        let model = CostModel::ram();
        let items = mk(1_000, 83);
        let idx = DomMax::build(&model, items.clone());
        for q in mk_queries(84, 80) {
            let want = brute::max(&items, |h| h.dominated_by(&q));
            assert_eq!(
                idx.query_max(&q).map(|h| h.weight),
                want.map(|h| h.weight),
                "q={q:?}"
            );
        }
    }

    #[test]
    fn topk_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(3_000, 85);
        let idx = TopKDominance::build(&model, items.clone(), 9);
        for q in mk_queries(86, 10) {
            for k in [1usize, 10, 100, 1_000, 4_000] {
                let mut got = Vec::new();
                idx.query_topk(&q, k, &mut got);
                let want = brute::top_k(&items, |h| h.dominated_by(&q), k);
                assert_eq!(
                    got.iter().map(|h| h.weight).collect::<Vec<_>>(),
                    want.iter().map(|h| h.weight).collect::<Vec<_>>(),
                    "q={q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn ztree_prioritized_and_max_match_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(800, 87);
        let idx = DomZTree::build(&model, items.clone());
        for q in mk_queries(88, 30) {
            for tau in [0u64, 250, 700] {
                let mut got = Vec::new();
                idx.query(&q, tau, &mut got);
                let mut got_w: Vec<u64> = got.iter().map(|h| h.weight).collect();
                got_w.sort_unstable();
                let want = brute::prioritized(&items, |h| h.dominated_by(&q), tau);
                let mut want_w: Vec<u64> = want.iter().map(|h| h.weight).collect();
                want_w.sort_unstable();
                assert_eq!(got_w, want_w, "q={q:?} tau={tau}");
            }
            assert_eq!(
                idx.query_max(&q).map(|h| h.weight),
                brute::max(&items, |h| h.dominated_by(&q)).map(|h| h.weight),
                "max q={q:?}"
            );
        }
    }

    #[test]
    fn ztree_topk_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(1_500, 89);
        let idx = topk_dominance_ztree(&model, items.clone(), 10);
        for q in mk_queries(90, 6) {
            for k in [1usize, 20, 300, 2_000] {
                let mut got = Vec::new();
                idx.query_topk(&q, k, &mut got);
                let want = brute::top_k(&items, |h| h.dominated_by(&q), k);
                assert_eq!(
                    got.iter().map(|h| h.weight).collect::<Vec<_>>(),
                    want.iter().map(|h| h.weight).collect::<Vec<_>>(),
                    "q={q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn hotel_example_shape() {
        // §1.4: cheap, close, secure hotels with the best ratings. We store
        // (price, distance, 100 − security) and weight = rating.
        let model = CostModel::ram();
        let hotels = vec![
            Hotel::new([120.0, 2.0, 100.0 - 80.0], 910), // rating 9.1
            Hotel::new([80.0, 5.0, 100.0 - 90.0], 870),
            Hotel::new([200.0, 1.0, 100.0 - 95.0], 990), // pricey
            Hotel::new([60.0, 8.0, 100.0 - 70.0], 750),
        ];
        let idx = TopKDominance::build(&model, hotels, 2);
        // Price ≤ 150, distance ≤ 6 km, security ≥ 75 (i.e. 100−sec ≤ 25).
        let mut out = Vec::new();
        idx.query_topk(&[150.0, 6.0, 25.0], 2, &mut out);
        assert_eq!(
            out.iter().map(|h| h.weight).collect::<Vec<_>>(),
            vec![910, 870]
        );
    }

    #[test]
    fn boundary_inclusive() {
        let model = CostModel::ram();
        let items = vec![Hotel::new([5.0, 5.0, 5.0], 1)];
        let idx = TopKDominance::build(&model, items, 3);
        let mut out = Vec::new();
        idx.query_topk(&[5.0, 5.0, 5.0], 1, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        idx.query_topk(&[5.0, 5.0, 4.999], 1, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_input() {
        let model = CostModel::ram();
        let idx = TopKDominance::build(&model, vec![], 1);
        let mut out = Vec::new();
        idx.query_topk(&[1.0, 1.0, 1.0], 3, &mut out);
        assert!(out.is_empty());
    }
}
