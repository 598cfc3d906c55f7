//! Convex hulls: Andrew's monotone chain, extreme-vertex queries, and
//! point-in-convex-polygon tests.
//!
//! The 2D halfspace structures (§5.4) rest on two `O(log n)` primitives on
//! a convex polygon: find the vertex extreme in a direction, and test point
//! membership. Both are provided here, with linear-scan reference versions
//! used by the tests.

use crate::point::Point2;

/// Andrew's monotone chain. Returns the hull vertices in counter-clockwise
/// order with *strictly* convex turns (collinear points dropped). Returns
/// the indices of hull vertices into `pts`.
///
/// Degenerate inputs (all collinear, ≤ 2 points) return the extreme points.
pub fn convex_hull_indices(pts: &[Point2]) -> Vec<usize> {
    let n = pts.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| pts[a].key().cmp(&pts[b].key()));
    idx.dedup_by(|&mut a, &mut b| pts[a] == pts[b]);

    let mut hull: Vec<usize> = Vec::with_capacity(idx.len() * 2);
    // Lower hull.
    for &i in &idx {
        while hull.len() >= 2
            && Point2::cross(pts[hull[hull.len() - 2]], pts[hull[hull.len() - 1]], pts[i]) <= 0.0
        {
            hull.pop();
        }
        hull.push(i);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &i in idx.iter().rev().skip(1) {
        while hull.len() >= lower_len
            && Point2::cross(pts[hull[hull.len() - 2]], pts[hull[hull.len() - 1]], pts[i]) <= 0.0
        {
            hull.pop();
        }
        hull.push(i);
    }
    hull.pop(); // last point == first point
    hull
}

/// Convenience: the hull as points (CCW).
pub fn convex_hull(pts: &[Point2]) -> Vec<Point2> {
    convex_hull_indices(pts)
        .into_iter()
        .map(|i| pts[i])
        .collect()
}

/// A convex polygon with CCW vertices, supporting `O(log n)` queries.
#[derive(Clone, Debug)]
pub struct ConvexPolygon {
    /// Vertices in counter-clockwise order, strictly convex.
    pub verts: Vec<Point2>,
}

impl ConvexPolygon {
    /// Build from CCW vertices (as produced by [`convex_hull`]).
    pub fn new(verts: Vec<Point2>) -> Self {
        ConvexPolygon { verts }
    }

    /// Build as the hull of arbitrary points.
    pub fn hull_of(pts: &[Point2]) -> Self {
        ConvexPolygon::new(convex_hull(pts))
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the polygon has no vertices.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Index of a vertex maximizing `dir · v`.
    ///
    /// Strategy: a golden-section-style shrink over the cyclic unimodal
    /// dot-product sequence to get within a constant-size window, then an
    /// exact hill-climb (a local max of a linear function on a convex
    /// polygon is global, so the climb certifies exactness). Expected
    /// `O(log n)`; the climb is `O(1)` steps whenever the shrink landed in
    /// the right window and degrades gracefully otherwise.
    pub fn extreme(&self, dir: Point2) -> usize {
        let n = self.verts.len();
        assert!(n > 0, "extreme of empty polygon");
        if n <= 16 {
            return self.extreme_linear(dir);
        }
        let val = |i: usize| self.verts[i % n].dot(dir);
        // Probe a shrinking lattice: keep the best of ~8 evenly spaced
        // probes, halving the window around it until small.
        let mut center = 0usize;
        let mut span = n;
        while span > 8 {
            let step = (span / 8).max(1);
            let mut best = center;
            let mut best_v = val(center);
            let mut off = 0usize;
            while off < span {
                let i = center + n - span / 2 + off;
                let v = val(i);
                if v > best_v {
                    best_v = v;
                    best = i;
                }
                off += step;
            }
            center = best % n;
            span = 2 * step;
        }
        self.hill_climb(center, dir)
    }

    /// Exact hill-climb to a local (= global) maximum from `start`.
    fn hill_climb(&self, start: usize, dir: Point2) -> usize {
        let n = self.verts.len();
        let val = |i: usize| self.verts[i].dot(dir);
        let mut best = start % n;
        loop {
            let next = (best + 1) % n;
            let prev = (best + n - 1) % n;
            if val(next) > val(best) {
                best = next;
            } else if val(prev) > val(best) {
                best = prev;
            } else {
                return best;
            }
        }
    }

    /// Linear-scan extreme (reference implementation; also used for tiny
    /// polygons).
    pub fn extreme_linear(&self, dir: Point2) -> usize {
        assert!(!self.verts.is_empty(), "extreme of empty polygon");
        let mut best = 0;
        for i in 1..self.verts.len() {
            if self.verts[i].dot(dir) > self.verts[best].dot(dir) {
                best = i;
            }
        }
        best
    }

    /// Point-in-polygon (closed) in `O(log n)` by fan binary search from
    /// vertex 0.
    pub fn contains(&self, p: Point2) -> bool {
        let n = self.verts.len();
        match n {
            0 => false,
            1 => self.verts[0] == p,
            2 => {
                // Degenerate segment: collinear and within the bounding box.
                let (a, b) = (self.verts[0], self.verts[1]);
                Point2::cross(a, b, p) == 0.0
                    && p.x >= a.x.min(b.x)
                    && p.x <= a.x.max(b.x)
                    && p.y >= a.y.min(b.y)
                    && p.y <= a.y.max(b.y)
            }
            _ => {
                let v0 = self.verts[0];
                // p must be inside the fan wedge at v0.
                if Point2::cross(v0, self.verts[1], p) < 0.0 {
                    return false;
                }
                if Point2::cross(v0, self.verts[n - 1], p) > 0.0 {
                    return false;
                }
                // Binary search for the fan triangle containing p.
                let (mut lo, mut hi) = (1usize, n - 1);
                while hi - lo > 1 {
                    let mid = usize::midpoint(lo, hi);
                    if Point2::cross(v0, self.verts[mid], p) >= 0.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Point2::cross(self.verts[lo], self.verts[lo + 1], p) >= 0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Vec<Point2> {
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(2.0, 2.0),
            Point2::new(0.0, 2.0),
            Point2::new(1.0, 1.0), // interior
            Point2::new(1.0, 0.0), // collinear on edge
        ]
    }

    #[test]
    fn hull_of_square_is_four_corners() {
        let h = convex_hull(&square());
        assert_eq!(h.len(), 4);
        // CCW starting at lexicographic min.
        assert_eq!(h[0], Point2::new(0.0, 0.0));
        assert_eq!(h[1], Point2::new(2.0, 0.0));
        assert_eq!(h[2], Point2::new(2.0, 2.0));
        assert_eq!(h[3], Point2::new(0.0, 2.0));
    }

    #[test]
    fn hull_handles_degenerate_inputs() {
        let one = vec![Point2::new(1.0, 1.0)];
        assert_eq!(convex_hull(&one).len(), 1);
        let col: Vec<Point2> = (0..5).map(|i| Point2::new(i as f64, i as f64)).collect();
        let h = convex_hull(&col);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0], Point2::new(0.0, 0.0));
        assert_eq!(h[1], Point2::new(4.0, 4.0));
    }

    #[test]
    fn hull_is_ccw_and_convex_on_random_points() {
        let mut x: u64 = 88_172_645_463_325_252;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 10_000) as f64 / 100.0
        };
        let pts: Vec<Point2> = (0..2_000).map(|_| Point2::new(rnd(), rnd())).collect();
        let h = convex_hull(&pts);
        assert!(h.len() >= 3);
        for i in 0..h.len() {
            let a = h[i];
            let b = h[(i + 1) % h.len()];
            let c = h[(i + 2) % h.len()];
            assert!(Point2::cross(a, b, c) > 0.0, "not strictly CCW at {i}");
        }
        // Every input point is inside or on the hull.
        let poly = ConvexPolygon::new(h);
        for p in &pts {
            assert!(poly.contains(*p));
        }
    }

    #[test]
    fn extreme_matches_linear_on_random_polygons() {
        let mut x: u64 = 123_456_789;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 20_000) as f64 / 100.0 - 100.0
        };
        for trial in 0..50 {
            let pts: Vec<Point2> = (0..200).map(|_| Point2::new(rnd(), rnd())).collect();
            let poly = ConvexPolygon::hull_of(&pts);
            for _ in 0..40 {
                let dir = Point2::new(rnd(), rnd());
                if dir.x == 0.0 && dir.y == 0.0 {
                    continue;
                }
                let fast = poly.verts[poly.extreme(dir)].dot(dir);
                let slow = poly.verts[poly.extreme_linear(dir)].dot(dir);
                assert!(
                    (fast - slow).abs() <= 1e-9 * slow.abs().max(1.0),
                    "trial {trial}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn contains_agrees_with_halfplane_check() {
        let poly = ConvexPolygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 0.0),
            Point2::new(4.0, 3.0),
            Point2::new(0.0, 3.0),
        ]);
        assert!(poly.contains(Point2::new(2.0, 1.5)));
        assert!(poly.contains(Point2::new(0.0, 0.0))); // vertex
        assert!(poly.contains(Point2::new(2.0, 0.0))); // edge
        assert!(!poly.contains(Point2::new(-0.1, 1.0)));
        assert!(!poly.contains(Point2::new(2.0, 3.1)));
    }

    #[test]
    fn contains_on_empty_and_tiny() {
        assert!(!ConvexPolygon::new(vec![]).contains(Point2::new(0.0, 0.0)));
        let single = ConvexPolygon::new(vec![Point2::new(1.0, 1.0)]);
        assert!(single.contains(Point2::new(1.0, 1.0)));
        assert!(!single.contains(Point2::new(1.0, 2.0)));
        let seg = ConvexPolygon::new(vec![Point2::new(0.0, 0.0), Point2::new(2.0, 2.0)]);
        assert!(seg.contains(Point2::new(1.0, 1.0)));
        assert!(!seg.contains(Point2::new(1.0, 0.0)));
        assert!(!seg.contains(Point2::new(3.0, 3.0)));
    }
}
