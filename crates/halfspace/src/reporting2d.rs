//! 2D halfplane reporting via convex layers (Chazelle–Guibas–Lee style,
//! the structure §5.4 builds its prioritized index from).
//!
//! The points are peeled into convex layers. For a query halfplane `h`:
//! walk the layers outermost-in; in each layer find the extreme vertex in
//! `h`'s normal direction (`O(log)`); if even it is outside `h`, no deeper
//! point qualifies (deeper layers lie inside this layer's hull) and the
//! query stops; otherwise the qualifying vertices form a contiguous arc
//! around the extreme vertex, reported by walking both ways.
//!
//! Cost: `O(ℓ·log n + t)` where `ℓ ≤` (number of layers intersected) `+ 1`
//! — the paper's `O(log n + t)` modulo our fractional-cascading
//! substitution (DESIGN.md substitution 6).

use emsim::CostModel;
use geom::hull::ConvexPolygon;
use geom::layers::convex_layers;
use geom::{Halfplane, Point2};
use structures::{ReportingBuilder, ReportingIndex};
use topk_core::log_b;

use crate::WPoint2;

struct Layer {
    poly: ConvexPolygon,
    payload: Vec<WPoint2>,
}

/// The convex-layers halfplane reporting structure. See the module docs.
pub struct ConvexLayersHalfplane {
    layers: Vec<Layer>,
    len: usize,
    array_id: u64,
    model: CostModel,
}

impl ConvexLayersHalfplane {
    /// Build over the given points.
    pub fn build(model: &CostModel, items: Vec<WPoint2>) -> Self {
        let pts: Vec<Point2> = items.iter().map(WPoint2::point).collect();
        let layer_indices = convex_layers(&pts);
        let layers = layer_indices
            .into_iter()
            .map(|idx| {
                let payload: Vec<WPoint2> = idx.iter().map(|&i| items[i]).collect();
                let verts: Vec<Point2> = payload.iter().map(WPoint2::point).collect();
                Layer {
                    poly: ConvexPolygon::new(verts),
                    payload,
                }
            })
            .collect();
        let s = ConvexLayersHalfplane {
            layers,
            len: items.len(),
            array_id: model.new_array_id(),
            model: model.clone(),
        };
        s.model.charge_writes(
            (s.len.max(1) as u64).div_ceil(s.model.config().items_per_block::<WPoint2>() as u64),
        );
        s
    }
}

impl ReportingIndex<WPoint2, Halfplane> for ConvexLayersHalfplane {
    fn for_each(&self, q: &Halfplane, visit: &mut dyn FnMut(&WPoint2) -> bool) {
        let dir = Point2::new(q.a, q.b);
        for (li, layer) in self.layers.iter().enumerate() {
            let n = layer.poly.len();
            if n == 0 {
                continue;
            }
            // Charge the extreme-vertex search.
            self.model.touch(self.array_id, (li * 2) as u64);
            self.model
                .charge_reads((n.max(2) as f64).log2().ceil() as u64);
            if n <= 4 {
                // Tiny layer: check directly.
                let mut any = false;
                for p in &layer.payload {
                    if q.contains(p.point()) {
                        any = true;
                        if !visit(p) {
                            return;
                        }
                    }
                }
                if !any {
                    return; // nothing here → nothing deeper
                }
                continue;
            }
            let ext = layer.poly.extreme(dir);
            if !q.contains(layer.poly.verts[ext]) {
                return; // deeper layers are inside this hull
            }
            // Report the contiguous arc around `ext`.
            if !visit(&layer.payload[ext]) {
                return;
            }
            let mut reported = 1u64;
            let mut i = (ext + 1) % n;
            while i != ext && q.contains(layer.poly.verts[i]) {
                reported += 1;
                if !visit(&layer.payload[i]) {
                    return;
                }
                i = (i + 1) % n;
            }
            if i != ext {
                let mut j = (ext + n - 1) % n;
                while j != i && q.contains(layer.poly.verts[j]) {
                    reported += 1;
                    if !visit(&layer.payload[j]) {
                        return;
                    }
                    j = (j + n - 1) % n;
                }
            }
            // Charge the walk as a sequential scan.
            self.model.charge_scan::<WPoint2>(reported as usize);
        }
    }

    fn space_blocks(&self) -> u64 {
        let per = self.model.config().items_per_block::<WPoint2>().max(1) as u64;
        (self.len as u64).div_ceil(per).max(1) * 2 // points + hull skeleton
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Builder for [`ConvexLayersHalfplane`].
#[derive(Clone, Copy, Debug)]
pub struct ConvexLayersBuilder;

impl ReportingBuilder<WPoint2, Halfplane> for ConvexLayersBuilder {
    type Index = ConvexLayersHalfplane;
    fn build(&self, model: &CostModel, items: Vec<WPoint2>) -> ConvexLayersHalfplane {
        ConvexLayersHalfplane::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        ((n.max(2) as f64).log2()).max(log_b(n, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cloud, halfplanes};

    fn brute(items: &[WPoint2], h: &Halfplane) -> Vec<u64> {
        let mut v: Vec<u64> = items
            .iter()
            .filter(|p| h.contains(p.point()))
            .map(|p| p.weight)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn reporting_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = cloud(800, 91);
        let idx = ConvexLayersHalfplane::build(&model, items.clone());
        for h in halfplanes(92, 60) {
            let mut got: Vec<u64> = Vec::new();
            idx.for_each(&h, &mut |p| {
                got.push(p.weight);
                true
            });
            got.sort_unstable();
            assert_eq!(got, brute(&items, &h), "h={h:?}");
        }
    }

    #[test]
    fn empty_halfplane_answers() {
        let model = CostModel::ram();
        let items = cloud(300, 93);
        let idx = ConvexLayersHalfplane::build(&model, items);
        let far = Halfplane::new(1.0, 0.0, 1e9);
        let mut cnt = 0;
        idx.for_each(&far, &mut |_| {
            cnt += 1;
            true
        });
        assert_eq!(cnt, 0);
    }

    #[test]
    fn all_points_reported_for_full_halfplane() {
        let model = CostModel::ram();
        let items = cloud(500, 94);
        let idx = ConvexLayersHalfplane::build(&model, items.clone());
        let everything = Halfplane::new(1.0, 0.0, -1e9);
        let mut cnt = 0;
        idx.for_each(&everything, &mut |_| {
            cnt += 1;
            true
        });
        assert_eq!(cnt, items.len());
    }

    #[test]
    fn early_termination() {
        let model = CostModel::ram();
        let items = cloud(500, 95);
        let idx = ConvexLayersHalfplane::build(&model, items);
        let everything = Halfplane::new(0.0, 1.0, -1e9);
        let mut cnt = 0;
        idx.for_each(&everything, &mut |_| {
            cnt += 1;
            cnt < 7
        });
        assert_eq!(cnt, 7);
    }

    #[test]
    fn grazing_halfplane_cost_is_sublinear() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = cloud(50_000, 96);
        let idx = ConvexLayersHalfplane::build(&model, items);
        // x ≥ 99.9: grazes the cloud boundary, reports a handful.
        let h = Halfplane::new(1.0, 0.0, 99.9);
        model.reset();
        let mut t = 0;
        idx.for_each(&h, &mut |_| {
            t += 1;
            true
        });
        let reads = model.report().reads;
        assert!(
            reads < 200,
            "reads {reads} for t = {t} — should stop at the first failing layer"
        );
    }

    #[test]
    fn tiny_inputs() {
        let model = CostModel::ram();
        let idx = ConvexLayersHalfplane::build(&model, vec![]);
        let h = Halfplane::new(1.0, 1.0, 0.0);
        let mut cnt = 0;
        idx.for_each(&h, &mut |_| {
            cnt += 1;
            true
        });
        assert_eq!(cnt, 0);

        let one = vec![WPoint2::new(1.0, 1.0, 5)];
        let idx = ConvexLayersHalfplane::build(&model, one);
        idx.for_each(&h, &mut |p| {
            assert_eq!(p.weight, 5);
            cnt += 1;
            true
        });
        assert_eq!(cnt, 1);
    }

    #[test]
    fn collinear_points() {
        let model = CostModel::ram();
        let items: Vec<WPoint2> = (0..20)
            .map(|i| WPoint2::new(i as f64, 2.0 * i as f64, i as u64 + 1))
            .collect();
        let idx = ConvexLayersHalfplane::build(&model, items.clone());
        for h in halfplanes(97, 25) {
            let mut got: Vec<u64> = Vec::new();
            idx.for_each(&h, &mut |p| {
                got.push(p.weight);
                true
            });
            got.sort_unstable();
            assert_eq!(got, brute(&items, &h), "h={h:?}");
        }
    }
}
