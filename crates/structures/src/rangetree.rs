//! A 2D range tree with priority-search-tree secondaries.
//!
//! The classic polylog substrate for orthogonal range queries: a balanced
//! tree over `x` with, at every node, a [`PrioritySearchTree`] over the
//! subtree's `(y, weight)` pairs. A query decomposes `[x₁, x₂]` into
//! `O(log n)` canonical nodes and runs a 3-sided query
//! (`y ∈ [y₁, y₂] ∧ w ≥ τ`) on each — `O(log² n + t)` prioritized
//! reporting and `O(log² n)` max, in `O(n log n)` space.
//!
//! This is the textbook alternative to the kd-tree substrate
//! (`O(√n + t)` but linear space): experiment E19 measures the trade-off
//! under the Theorem 2 reduction.

use emsim::CostModel;
use geom::OrderedF64;
use topk_core::{Element, Weight};

use crate::pst::PrioritySearchTree;

/// An element with a 2D position, as used by [`RangeTree2D`].
pub trait PlanarPoint: Element {
    /// x-coordinate.
    fn px(&self) -> f64;
    /// y-coordinate.
    fn py(&self) -> f64;
}

struct RtNode<E> {
    /// x-range covered by the subtree.
    x_lo: f64,
    x_hi: f64,
    /// 3-sided structure over the subtree's `(y, w)` pairs.
    ys: PrioritySearchTree<OrderedF64, E>,
    left: Option<usize>,
    right: Option<usize>,
}

/// A static 2D range tree. See the module docs.
pub struct RangeTree2D<E> {
    nodes: Vec<RtNode<E>>,
    root: Option<usize>,
    len: usize,
    array_id: u64,
    model: CostModel,
}

impl<E: PlanarPoint> RangeTree2D<E> {
    /// Build over the given points. `O(n log n)` space and time.
    pub fn build(model: &CostModel, mut items: Vec<E>) -> Self {
        items.sort_by(|a, b| a.px().partial_cmp(&b.px()).expect("finite coordinates"));
        let len = items.len();
        let mut tree = RangeTree2D {
            nodes: Vec::new(),
            root: None,
            len,
            array_id: model.new_array_id(),
            model: model.clone(),
        };
        if !items.is_empty() {
            let root = tree.build_rec(model, items);
            tree.root = Some(root);
        }
        tree.model.charge_writes(tree.nodes.len() as u64);
        tree
    }

    /// `items` sorted by x ascending.
    fn build_rec(&mut self, model: &CostModel, items: Vec<E>) -> usize {
        let x_lo = items.first().unwrap().px();
        let x_hi = items.last().unwrap().px();
        let ys = PrioritySearchTree::build(model, items.clone(), |e| OrderedF64::new(e.py()));
        let leaf_cap = model.config().items_per_block::<E>().max(4);
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
        self.nodes.push(RtNode {
            x_lo,
            x_hi,
            ys,
            left,
            right,
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

    /// Space in blocks: every point appears in `O(log n)` secondaries.
    pub fn space_blocks(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.ys.space_blocks() + 1)
            .sum::<u64>()
            .max(1)
    }

    /// Visit every element with `x ∈ [x₁,x₂]`, `y ∈ [y₁,y₂]`, `w ≥ τ`
    /// until the visitor returns `false`.
    pub fn for_each_in(
        &self,
        x1: f64,
        x2: f64,
        y1: f64,
        y2: f64,
        tau: Weight,
        visit: &mut dyn FnMut(&E) -> bool,
    ) {
        if let Some(root) = self.root {
            self.query_rec(root, x1, x2, y1, y2, tau, visit);
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the recursion carries the query box, τ and the visitor"
    )]
    fn query_rec(
        &self,
        u: usize,
        x1: f64,
        x2: f64,
        y1: f64,
        y2: f64,
        tau: Weight,
        visit: &mut dyn FnMut(&E) -> bool,
    ) -> bool {
        self.model.touch(self.array_id, u as u64);
        let node = &self.nodes[u];
        if node.x_hi < x1 || node.x_lo > x2 {
            return true;
        }
        if x1 <= node.x_lo && node.x_hi <= x2 {
            // Canonical node: 3-sided query on the secondary.
            let mut go_on = true;
            node.ys
                .query_3sided(OrderedF64::new(y1), OrderedF64::new(y2), tau, &mut |e| {
                    if !visit(e) {
                        go_on = false;
                        return false;
                    }
                    true
                });
            return go_on;
        }
        match (node.left, node.right) {
            (Some(l), Some(r)) => {
                self.query_rec(l, x1, x2, y1, y2, tau, visit)
                    && self.query_rec(r, x1, x2, y1, y2, tau, visit)
            }
            _ => {
                // Straddling leaf: filter elements directly.
                let mut go_on = true;
                node.ys
                    .query_3sided(OrderedF64::new(y1), OrderedF64::new(y2), tau, &mut |e| {
                        if e.px() >= x1 && e.px() <= x2 && !visit(e) {
                            go_on = false;
                            return false;
                        }
                        true
                    });
                go_on
            }
        }
    }

    /// The heaviest element in the box, if any.
    pub fn max_in(&self, x1: f64, x2: f64, y1: f64, y2: f64) -> Option<E> {
        let mut best: Option<E> = None;
        if let Some(root) = self.root {
            self.max_rec(root, x1, x2, y1, y2, &mut best);
        }
        best
    }

    fn max_rec(&self, u: usize, x1: f64, x2: f64, y1: f64, y2: f64, best: &mut Option<E>) {
        self.model.touch(self.array_id, u as u64);
        let node = &self.nodes[u];
        if node.x_hi < x1 || node.x_lo > x2 {
            return;
        }
        if x1 <= node.x_lo && node.x_hi <= x2 {
            if let Some(e) = node
                .ys
                .max_in_range(OrderedF64::new(y1), OrderedF64::new(y2))
            {
                if best.as_ref().is_none_or(|b| e.weight() > b.weight()) {
                    *best = Some(e);
                }
            }
            return;
        }
        match (node.left, node.right) {
            (Some(l), Some(r)) => {
                self.max_rec(l, x1, x2, y1, y2, best);
                self.max_rec(r, x1, x2, y1, y2, best);
            }
            _ => {
                // Straddling leaf: threshold query above the current best
                // with explicit x filtering.
                let floor = best.as_ref().map_or(0, |b| b.weight().saturating_add(1));
                node.ys
                    .query_3sided(OrderedF64::new(y1), OrderedF64::new(y2), floor, &mut |e| {
                        if e.px() >= x1
                            && e.px() <= x2
                            && best.as_ref().is_none_or(|b| e.weight() > b.weight())
                        {
                            *best = Some(e.clone());
                        }
                        true
                    });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[derive(Clone, Debug, PartialEq)]
    struct P {
        x: f64,
        y: f64,
        w: u64,
    }
    impl Element for P {
        fn weight(&self) -> Weight {
            self.w
        }
    }
    impl PlanarPoint for P {
        fn px(&self) -> f64 {
            self.x
        }
        fn py(&self) -> f64 {
            self.y
        }
    }

    fn mk(n: usize, seed: u64) -> Vec<P> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| P {
                x: rng.gen_range(0.0..100.0),
                y: rng.gen_range(0.0..100.0),
                w: i as u64 + 1,
            })
            .collect()
    }

    fn brute(items: &[P], x1: f64, x2: f64, y1: f64, y2: f64, tau: u64) -> Vec<u64> {
        let mut v: Vec<u64> = items
            .iter()
            .filter(|p| p.x >= x1 && p.x <= x2 && p.y >= y1 && p.y <= y2 && p.w >= tau)
            .map(|p| p.w)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn reporting_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(1_500, 171);
        let t = RangeTree2D::build(&model, items.clone());
        let mut rng = StdRng::seed_from_u64(172);
        for _ in 0..60 {
            let x1: f64 = rng.gen_range(0.0..100.0);
            let y1: f64 = rng.gen_range(0.0..100.0);
            let (x2, y2) = (x1 + rng.gen_range(0.0..50.0), y1 + rng.gen_range(0.0..50.0));
            for tau in [0u64, 500, 1_400] {
                let mut got: Vec<u64> = Vec::new();
                t.for_each_in(x1, x2, y1, y2, tau, &mut |p| {
                    got.push(p.w);
                    true
                });
                got.sort_unstable();
                assert_eq!(got, brute(&items, x1, x2, y1, y2, tau));
            }
        }
    }

    #[test]
    fn max_matches_brute() {
        let model = CostModel::ram();
        let items = mk(1_000, 173);
        let t = RangeTree2D::build(&model, items.clone());
        let mut rng = StdRng::seed_from_u64(174);
        for _ in 0..100 {
            let x1: f64 = rng.gen_range(0.0..100.0);
            let y1: f64 = rng.gen_range(0.0..100.0);
            let (x2, y2) = (x1 + rng.gen_range(0.0..60.0), y1 + rng.gen_range(0.0..60.0));
            let want = brute(&items, x1, x2, y1, y2, 0).last().copied();
            assert_eq!(t.max_in(x1, x2, y1, y2).map(|p| p.w), want);
        }
    }

    #[test]
    fn query_cost_is_polylog() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(100_000, 175);
        let t = RangeTree2D::build(&model, items.clone());
        // Selective query: small box, high τ.
        model.reset();
        let mut cnt = 0;
        t.for_each_in(10.0, 60.0, 10.0, 60.0, 99_000, &mut |_| {
            cnt += 1;
            true
        });
        let reads = model.report().reads;
        assert!(reads < 800, "reads {reads} (t = {cnt}) — should be polylog");
    }

    #[test]
    fn space_is_n_log_n() {
        let b = 64;
        let model = CostModel::new(emsim::EmConfig::new(b));
        let n = 30_000usize;
        let items = mk(n, 176);
        let t = RangeTree2D::build(&model, items);
        let one_copy = (3 * n) as u64 / b as u64;
        let logn = (n as f64).log2().ceil() as u64;
        assert!(
            t.space_blocks() <= 4 * one_copy * logn,
            "space {} vs n/B·log n = {}",
            t.space_blocks(),
            one_copy * logn
        );
        assert!(t.space_blocks() >= one_copy, "suspiciously small");
    }

    #[test]
    fn empty_and_degenerate() {
        let model = CostModel::ram();
        let t: RangeTree2D<P> = RangeTree2D::build(&model, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.max_in(0.0, 1.0, 0.0, 1.0), None);

        // All points identical x (degenerate splits).
        let items: Vec<P> = (0..100)
            .map(|i| P {
                x: 5.0,
                y: i as f64,
                w: i as u64 + 1,
            })
            .collect();
        let t = RangeTree2D::build(&model, items.clone());
        let mut got = Vec::new();
        t.for_each_in(5.0, 5.0, 10.0, 20.0, 0, &mut |p| {
            got.push(p.w);
            true
        });
        got.sort_unstable();
        assert_eq!(got, (11..=21).collect::<Vec<u64>>());
    }
}
