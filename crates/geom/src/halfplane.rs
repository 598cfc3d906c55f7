//! 2D halfplanes and halfplane-intersection polygons.
//!
//! A [`Halfplane`] is the predicate of Theorem 3 in the plane:
//! `{(x, y) : a·x + b·y ≥ c}`. The intersection routine clips a huge
//! bounding square by the *complements* of a set of halfplanes — exactly
//! the region "not covered by any of them" that the §5.4 stabbing-max
//! construction (in our weight-prefix variant, DESIGN.md substitution 4)
//! tests query points against.

use crate::hull::ConvexPolygon;
use crate::point::Point2;

/// The closed halfplane `a·x + b·y ≥ c`.
#[derive(Clone, Copy, Debug)]
pub struct Halfplane {
    /// Normal x-component.
    pub a: f64,
    /// Normal y-component.
    pub b: f64,
    /// Offset.
    pub c: f64,
}

impl Halfplane {
    /// Construct; parameters must be finite and the normal nonzero.
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        assert!(
            a.is_finite() && b.is_finite() && c.is_finite(),
            "halfplane parameters must be finite"
        );
        assert!(a != 0.0 || b != 0.0, "halfplane normal must be nonzero");
        Halfplane { a, b, c }
    }

    /// Signed slack `a·x + b·y − c` (≥ 0 inside).
    pub fn eval(&self, p: Point2) -> f64 {
        self.a * p.x + self.b * p.y - self.c
    }

    /// Whether the point lies in the closed halfplane.
    pub fn contains(&self, p: Point2) -> bool {
        self.eval(p) >= 0.0
    }

    /// The complementary (closed) halfplane `a·x + b·y ≤ c`, i.e.
    /// `−a·x − b·y ≥ −c`.
    pub fn complement(&self) -> Halfplane {
        Halfplane {
            a: -self.a,
            b: -self.b,
            c: -self.c,
        }
    }
}

/// Clip a convex polygon (CCW) by a halfplane (keep the inside).
/// Sutherland–Hodgman, one pass, `O(|poly|)`.
pub fn clip(poly: &[Point2], h: &Halfplane) -> Vec<Point2> {
    let n = poly.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(n + 1);
    for i in 0..n {
        let cur = poly[i];
        let nxt = poly[(i + 1) % n];
        let cin = h.contains(cur);
        let nin = h.contains(nxt);
        if cin {
            out.push(cur);
        }
        if cin != nin {
            // Edge crosses the boundary; add the intersection point.
            let fc = h.eval(cur);
            let fn_ = h.eval(nxt);
            let t = fc / (fc - fn_);
            out.push(Point2::new(
                cur.x + t * (nxt.x - cur.x),
                cur.y + t * (nxt.y - cur.y),
            ));
        }
    }
    // Vertices lying exactly on the clip line produce duplicates; drop them
    // (including the cyclic first/last pair).
    out.dedup();
    while out.len() >= 2 && out.first() == out.last() {
        out.pop();
    }
    out
}

/// The intersection of the given halfplanes, clipped to the square
/// `[-bound, bound]²`. Returns a CCW convex polygon, possibly empty.
pub fn intersect_halfplanes(halfplanes: &[Halfplane], bound: f64) -> ConvexPolygon {
    let mut poly = vec![
        Point2::new(-bound, -bound),
        Point2::new(bound, -bound),
        Point2::new(bound, bound),
        Point2::new(-bound, bound),
    ];
    for h in halfplanes {
        poly = clip(&poly, h);
        if poly.is_empty() {
            break;
        }
    }
    ConvexPolygon::new(poly)
}

/// The region *not covered by any* of `halfplanes` (the intersection of
/// their complements), clipped to `[-bound, bound]²`. A query point is
/// covered by the union of the halfplanes iff it is outside this region.
pub fn uncovered_region(halfplanes: &[Halfplane], bound: f64) -> ConvexPolygon {
    let complements: Vec<Halfplane> = halfplanes.iter().map(Halfplane::complement).collect();
    intersect_halfplanes(&complements, bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_contains() {
        let h = Halfplane::new(1.0, 0.0, 2.0); // x ≥ 2
        assert!(h.contains(Point2::new(2.0, 5.0)));
        assert!(h.contains(Point2::new(3.0, -5.0)));
        assert!(!h.contains(Point2::new(1.9, 0.0)));
        assert_eq!(h.eval(Point2::new(5.0, 0.0)), 3.0);
    }

    #[test]
    fn complement_flips_membership() {
        let h = Halfplane::new(1.0, 2.0, 3.0);
        let p = Point2::new(10.0, 10.0);
        let q = Point2::new(-10.0, -10.0);
        assert!(h.contains(p) && !h.contains(q));
        assert!(!h.complement().contains(p) && h.complement().contains(q));
    }

    #[test]
    fn clip_square_by_diagonal() {
        let sq = vec![
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(2.0, 2.0),
            Point2::new(0.0, 2.0),
        ];
        // keep x + y ≥ 2 (upper-right triangle)
        let h = Halfplane::new(1.0, 1.0, 2.0);
        let tri = clip(&sq, &h);
        assert_eq!(tri.len(), 3);
        let area: f64 = {
            let mut a = 0.0;
            for i in 0..tri.len() {
                let p = tri[i];
                let q = tri[(i + 1) % tri.len()];
                a += p.x * q.y - q.x * p.y;
            }
            a / 2.0
        };
        assert!((area - 2.0).abs() < 1e-9, "area {area}");
    }

    #[test]
    fn intersection_of_box_halfplanes() {
        let hs = vec![
            Halfplane::new(1.0, 0.0, 1.0),   // x ≥ 1
            Halfplane::new(-1.0, 0.0, -3.0), // x ≤ 3
            Halfplane::new(0.0, 1.0, 0.0),   // y ≥ 0
            Halfplane::new(0.0, -1.0, -2.0), // y ≤ 2
        ];
        let poly = intersect_halfplanes(&hs, 1e6);
        assert_eq!(poly.len(), 4);
        assert!(poly.contains(Point2::new(2.0, 1.0)));
        assert!(!poly.contains(Point2::new(0.5, 1.0)));
        assert!(!poly.contains(Point2::new(2.0, 2.5)));
    }

    #[test]
    fn empty_intersection() {
        let hs = vec![
            Halfplane::new(1.0, 0.0, 1.0),  // x ≥ 1
            Halfplane::new(-1.0, 0.0, 0.0), // x ≤ 0
        ];
        let poly = intersect_halfplanes(&hs, 1e6);
        assert!(poly.is_empty() || poly.len() < 3);
    }

    #[test]
    fn uncovered_region_detects_union_membership() {
        // Two halfplanes covering x ≥ 1 and y ≥ 1; uncovered = x<1 ∧ y<1.
        let hs = vec![Halfplane::new(1.0, 0.0, 1.0), Halfplane::new(0.0, 1.0, 1.0)];
        let region = uncovered_region(&hs, 1e6);
        // (0,0) uncovered; (2,0) covered by first; (0,2) by second.
        assert!(region.contains(Point2::new(0.0, 0.0)));
        assert!(!region.contains(Point2::new(2.0, 0.0)));
        assert!(!region.contains(Point2::new(0.0, 2.0)));
    }

    #[test]
    fn random_uncovered_region_agrees_with_direct_test() {
        let mut x: u64 = 5;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % 2_001) as f64 - 1_000.0) / 100.0
        };
        for _ in 0..20 {
            let hs: Vec<Halfplane> = (0..15)
                .map(|_| {
                    let (mut a, mut b) = (rnd(), rnd());
                    if a == 0.0 && b == 0.0 {
                        a = 1.0;
                        b = 0.5;
                    }
                    Halfplane::new(a, b, rnd())
                })
                .collect();
            let region = uncovered_region(&hs, 1e7);
            for _ in 0..50 {
                let p = Point2::new(rnd(), rnd());
                let covered = hs.iter().any(|h| h.contains(p));
                // Boundary-grazing points may disagree by float error; skip
                // points too close to any boundary.
                let min_slack = hs
                    .iter()
                    .map(|h| h.eval(p).abs())
                    .fold(f64::INFINITY, f64::min);
                if min_slack < 1e-6 {
                    continue;
                }
                assert_eq!(!covered, region.contains(p), "p = {p:?}");
            }
        }
    }
}
