//! 2D halfplane max reporting: the weight-prefix hull tree.
//!
//! §5.4 solves this by dualizing to a planar subdivision and doing point
//! location in `O(log n)` with a persistent-tree structure. We substitute
//! (DESIGN.md substitution 4) an equally exact structure with an
//! `O(log² n)` query: a balanced tree over the points in *descending
//! weight* order, each node storing the convex hull of its range. A
//! halfplane contains a point of a range iff it contains the range's
//! extreme hull vertex in the halfplane's normal direction, so the
//! max-weight point is found by always descending into the heavier half
//! when it is non-empty for the query.

use emsim::CostModel;
use geom::hull::ConvexPolygon;
use geom::{Halfplane, Point2};
use topk_core::{log_b, MaxBuilder, MaxIndex};

use crate::WPoint2;

struct HullNode {
    poly: ConvexPolygon,
    /// Range [lo, hi) into the weight-descending point array.
    lo: usize,
    hi: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// The weight-prefix hull tree. See the module docs.
pub struct WeightHullTree {
    /// Points sorted by weight descending.
    points: Vec<WPoint2>,
    nodes: Vec<HullNode>,
    root: Option<usize>,
    array_id: u64,
    model: CostModel,
    leaf_cap: usize,
}

impl WeightHullTree {
    /// Build over the given points.
    pub fn build(model: &CostModel, mut items: Vec<WPoint2>) -> Self {
        items.sort_by_key(|e| std::cmp::Reverse(e.weight));
        for w in items.windows(2) {
            assert!(w[0].weight != w[1].weight, "weights must be distinct");
        }
        let leaf_cap = model.config().items_per_block::<WPoint2>().max(4);
        let mut s = WeightHullTree {
            points: items,
            nodes: Vec::new(),
            root: None,
            array_id: model.new_array_id(),
            model: model.clone(),
            leaf_cap,
        };
        if !s.points.is_empty() {
            let root = s.build_rec(0, s.points.len());
            s.root = Some(root);
        }
        s.model.charge_writes(s.nodes.len() as u64);
        s
    }

    fn build_rec(&mut self, lo: usize, hi: usize) -> usize {
        let pts: Vec<Point2> = self.points[lo..hi].iter().map(WPoint2::point).collect();
        let poly = ConvexPolygon::hull_of(&pts);
        let (left, right) = if hi - lo <= self.leaf_cap {
            (None, None)
        } else {
            let mid = lo + (hi - lo) / 2;
            // Left = heavier half (points are weight-descending).
            let l = self.build_rec(lo, mid);
            let r = self.build_rec(mid, hi);
            (Some(l), Some(r))
        };
        self.nodes.push(HullNode {
            poly,
            lo,
            hi,
            left,
            right,
        });
        self.nodes.len() - 1
    }

    /// Does the halfplane contain any vertex of this node's hull?
    fn hit(&self, u: usize, h: &Halfplane, dir: Point2) -> bool {
        self.model.touch(self.array_id, u as u64);
        let poly = &self.nodes[u].poly;
        if poly.is_empty() {
            return false;
        }
        self.model
            .charge_reads((poly.len().max(2) as f64).log2().ceil() as u64);
        let ext = poly.extreme(dir);
        h.contains(poly.verts[ext])
    }

    /// Total hull vertices stored (diagnostics; space is `O(n log n)`
    /// worst case, typically far less).
    pub fn hull_vertices(&self) -> usize {
        self.nodes.iter().map(|n| n.poly.len()).sum()
    }
}

impl MaxIndex<WPoint2, Halfplane> for WeightHullTree {
    fn query_max(&self, q: &Halfplane) -> Option<WPoint2> {
        let dir = Point2::new(q.a, q.b);
        let mut u = self.root?;
        if !self.hit(u, q, dir) {
            return None;
        }
        loop {
            let node = &self.nodes[u];
            match (node.left, node.right) {
                (Some(l), Some(r)) => {
                    // The heavier half wins whenever it is non-empty for q.
                    if self.hit(l, q, dir) {
                        u = l;
                    } else {
                        u = r;
                        // The parent was hit, so if the left missed, the
                        // right must contain a qualifying point.
                    }
                }
                _ => {
                    // Leaf: points are weight-descending; first hit is max.
                    self.model.charge_scan::<WPoint2>(node.hi - node.lo);
                    return self.points[node.lo..node.hi]
                        .iter()
                        .find(|p| q.contains(p.point()))
                        .copied();
                }
            }
        }
    }

    fn space_blocks(&self) -> u64 {
        let per = self.model.config().items_per_block::<WPoint2>().max(1) as u64;
        let pts = (self.points.len() as u64).div_ceil(per).max(1);
        let hull = (self.hull_vertices() as u64).div_ceil(per).max(1);
        pts + hull
    }

    fn len(&self) -> usize {
        self.points.len()
    }
}

/// Builder for [`WeightHullTree`].
#[derive(Clone, Copy, Debug)]
pub struct WeightHullTreeBuilder;

impl MaxBuilder<WPoint2, Halfplane> for WeightHullTreeBuilder {
    type Index = WeightHullTree;
    fn build(&self, model: &CostModel, items: Vec<WPoint2>) -> WeightHullTree {
        WeightHullTree::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let lg = (n.max(2) as f64).log2();
        (lg * lg).max(log_b(n, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cloud, halfplanes};
    use topk_core::brute;

    #[test]
    fn max_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = cloud(1_000, 101);
        let idx = WeightHullTree::build(&model, items.clone());
        for h in halfplanes(102, 120) {
            let want = brute::max(&items, |p| h.contains(p.point()));
            assert_eq!(
                idx.query_max(&h).map(|p| p.weight),
                want.map(|p| p.weight),
                "h={h:?}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        let model = CostModel::ram();
        let idx = WeightHullTree::build(&model, vec![]);
        assert_eq!(idx.query_max(&Halfplane::new(1.0, 0.0, 0.0)), None);

        let idx = WeightHullTree::build(&model, vec![WPoint2::new(3.0, 4.0, 9)]);
        assert_eq!(
            idx.query_max(&Halfplane::new(1.0, 0.0, 0.0))
                .map(|p| p.weight),
            Some(9)
        );
        assert_eq!(idx.query_max(&Halfplane::new(1.0, 0.0, 5.0)), None);
    }

    #[test]
    fn query_cost_is_polylog() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = cloud(50_000, 103);
        let idx = WeightHullTree::build(&model, items);
        model.reset();
        idx.query_max(&Halfplane::new(1.0, 1.0, 0.0));
        let reads = model.report().reads;
        // ~log(n/B) hull tests at ~log n probes each.
        assert!(reads < 400, "reads {reads}");
    }

    #[test]
    fn heavier_points_always_preferred() {
        let model = CostModel::ram();
        // Heaviest point is far left; query halfplanes that include or
        // exclude it.
        let mut items = cloud(200, 104);
        items.push(WPoint2::new(-500.0, 0.0, 1_000_000));
        let idx = WeightHullTree::build(&model, items);
        let include = Halfplane::new(-1.0, 0.0, 100.0); // x ≤ -100
        assert_eq!(idx.query_max(&include).map(|p| p.weight), Some(1_000_000));
        let exclude = Halfplane::new(1.0, 0.0, -100.0); // x ≥ -100
        let got = idx.query_max(&exclude).map(|p| p.weight);
        assert!(got.is_some() && got != Some(1_000_000));
    }
}
