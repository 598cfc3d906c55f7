//! Top-k circular range reporting via the lifting trick (Corollary 1).
//!
//! 2D points are lifted to the paraboloid `(x, y, x² + y²) ⊂ ℝ³`; a disk
//! `dist(x, q) ≤ r` becomes the halfspace `2q·x − x₃ ≥ |q|² − r²` over the
//! lifted points, so the ℝ³ halfspace structures of [`crate::hd`] answer
//! circular queries directly. The wrapper stores the original 2D payload
//! and translates queries/results.

use emsim::CostModel;
use geom::lift::{lift_ball, lift_point};
use geom::point::{BallD, HalfspaceD, PointD};
use topk_core::{TopKIndex, Weight};

use crate::hd::{TopKHalfspaceExpected, WPointD};
use crate::WPoint2;

/// A disk query in the plane: center and radius.
#[derive(Clone, Copy, Debug)]
pub struct Disk {
    /// Center.
    pub center: (f64, f64),
    /// Radius (`> 0`).
    pub radius: f64,
}

impl Disk {
    /// Construct a disk.
    pub fn new(center: (f64, f64), radius: f64) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "radius must be positive"
        );
        Disk { center, radius }
    }

    /// Does the (closed) disk contain the point?
    pub fn contains(&self, p: &WPoint2) -> bool {
        let dx = p.x - self.center.0;
        let dy = p.y - self.center.1;
        dx * dx + dy * dy <= self.radius * self.radius
    }

    fn to_ball(self) -> BallD<2> {
        BallD::new(PointD::new([self.center.0, self.center.1]), self.radius)
    }
}

/// Top-k circular range reporting over 2D points (Corollary 1).
///
/// The paper derives Corollary 1 from Theorem 3's d ≥ 3 bullets (Theorem 1
/// assembly); at laptop scales the paper's `f = 12λB·Q_pri` constant makes
/// that assembly degenerate (see README "deviations"), so this wrapper uses
/// the Theorem 2 assembly over the same lifted substrate — the same
/// reduction framework, with practical constants.
pub struct TopKCircular {
    inner: TopKHalfspaceExpected<3>,
    /// Original points by weight, to translate results back.
    originals: std::collections::HashMap<Weight, WPoint2>,
}

impl TopKCircular {
    /// Build over the given 2D points.
    pub fn build(model: &CostModel, items: Vec<WPoint2>, seed: u64) -> Self {
        let originals: std::collections::HashMap<Weight, WPoint2> =
            items.iter().map(|p| (p.weight, *p)).collect();
        assert_eq!(originals.len(), items.len(), "weights must be distinct");
        let lifted: Vec<WPointD<3>> = items
            .iter()
            .map(|p| {
                let l: PointD<3> = lift_point(&PointD::new([p.x, p.y]));
                WPointD::new(l.coords, p.weight)
            })
            .collect();
        TopKCircular {
            inner: TopKHalfspaceExpected::build(model, lifted, seed),
            originals,
        }
    }

    /// The `k` heaviest points inside the disk, heaviest first.
    pub fn query_topk(&self, q: &Disk, k: usize, out: &mut Vec<WPoint2>) {
        let h: HalfspaceD<3> = lift_ball(&q.to_ball());
        let mut lifted_out = Vec::new();
        self.inner.query_topk(&h, k, &mut lifted_out);
        out.extend(lifted_out.iter().map(|l| self.originals[&l.weight]));
    }

    /// Space in blocks.
    pub fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cloud;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topk_core::brute;

    #[test]
    fn circular_topk_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = cloud(1_200, 131);
        let idx = TopKCircular::build(&model, items.clone(), 15);
        let mut rng = StdRng::seed_from_u64(132);
        for _ in 0..8 {
            let q = Disk::new(
                (rng.gen_range(-80.0..80.0), rng.gen_range(-80.0..80.0)),
                rng.gen_range(10.0..120.0),
            );
            for k in [1usize, 10, 100, 1_500] {
                let mut got = Vec::new();
                idx.query_topk(&q, k, &mut got);
                let want = brute::top_k(&items, |p| q.contains(p), k);
                assert_eq!(
                    got.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    want.iter().map(|p| p.weight).collect::<Vec<_>>(),
                    "q={q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn boundary_points_included() {
        let model = CostModel::ram();
        let items = vec![
            WPoint2::new(3.0, 4.0, 1), // dist 5 from origin
            WPoint2::new(6.0, 8.0, 2), // dist 10
        ];
        let idx = TopKCircular::build(&model, items, 1);
        let mut out = Vec::new();
        idx.query_topk(&Disk::new((0.0, 0.0), 5.0), 5, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].weight, 1);
    }

    #[test]
    fn results_are_original_points() {
        let model = CostModel::ram();
        let items = cloud(200, 133);
        let idx = TopKCircular::build(&model, items.clone(), 2);
        let mut out = Vec::new();
        idx.query_topk(&Disk::new((0.0, 0.0), 150.0), 3, &mut out);
        for p in &out {
            assert!(items.contains(p), "result {p:?} not an input point");
        }
    }

    #[test]
    fn empty_disk() {
        let model = CostModel::ram();
        let items = cloud(200, 134);
        let idx = TopKCircular::build(&model, items, 3);
        let mut out = Vec::new();
        idx.query_topk(&Disk::new((10_000.0, 10_000.0), 1.0), 5, &mut out);
        assert!(out.is_empty());
    }
}
