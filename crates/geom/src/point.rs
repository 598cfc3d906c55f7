//! Points in 2, 3, and `D` dimensions, with the predicates the paper's
//! problems evaluate (dominance, halfspace membership, Euclidean balls).

use crate::ordered::OrderedF64;

/// A point in the plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point2 {
    /// x-coordinate.
    pub x: f64,
    /// y-coordinate.
    pub y: f64,
}

impl Point2 {
    /// Construct; coordinates must be finite.
    pub fn new(x: f64, y: f64) -> Self {
        assert!(x.is_finite() && y.is_finite(), "coordinates must be finite");
        Point2 { x, y }
    }

    /// The cross product `(b - a) × (c - a)`: positive iff `a → b → c` is a
    /// counter-clockwise turn.
    pub fn cross(a: Point2, b: Point2, c: Point2) -> f64 {
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    }

    /// Dot product with another point treated as a vector.
    pub fn dot(self, other: Point2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Squared Euclidean distance to `other`.
    pub fn dist2(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Lexicographic key `(x, y)` for sorting.
    pub fn key(self) -> (OrderedF64, OrderedF64) {
        (OrderedF64::new(self.x), OrderedF64::new(self.y))
    }
}

/// A point in 3-space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point3 {
    /// x-coordinate.
    pub x: f64,
    /// y-coordinate.
    pub y: f64,
    /// z-coordinate.
    pub z: f64,
}

impl Point3 {
    /// Construct; coordinates must be finite.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        assert!(
            x.is_finite() && y.is_finite() && z.is_finite(),
            "coordinates must be finite"
        );
        Point3 { x, y, z }
    }

    /// Componentwise dominance: `self ⪯ q` (the 3D-dominance predicate of
    /// Theorem 6: `e` satisfies `q` iff `e_x ≤ q_x ∧ e_y ≤ q_y ∧ e_z ≤ q_z`).
    pub fn dominated_by(self, q: Point3) -> bool {
        self.x <= q.x && self.y <= q.y && self.z <= q.z
    }

    /// Dot product.
    pub fn dot(self, other: Point3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }
}

/// A point in `D`-dimensional space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointD<const D: usize> {
    /// Coordinates.
    pub coords: [f64; D],
}

impl<const D: usize> PointD<D> {
    /// Construct; coordinates must be finite.
    pub fn new(coords: [f64; D]) -> Self {
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "coordinates must be finite"
        );
        PointD { coords }
    }

    /// Dot product with a direction vector.
    pub fn dot(&self, dir: &[f64; D]) -> f64 {
        self.coords.iter().zip(dir.iter()).map(|(a, b)| a * b).sum()
    }

    /// Squared Euclidean distance.
    pub fn dist2(&self, other: &PointD<D>) -> f64 {
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Componentwise dominance `self ⪯ q`.
    pub fn dominated_by(&self, q: &PointD<D>) -> bool {
        self.coords.iter().zip(q.coords.iter()).all(|(a, b)| a <= b)
    }
}

/// A halfspace in `D` dimensions: `{x : x·normal ≥ offset}` — the predicate
/// family of Theorem 3 (`x·q ≥ c`).
#[derive(Clone, Copy, Debug)]
pub struct HalfspaceD<const D: usize> {
    /// Normal vector `q`.
    pub normal: [f64; D],
    /// Offset `c`.
    pub offset: f64,
}

impl<const D: usize> HalfspaceD<D> {
    /// Construct; entries must be finite.
    pub fn new(normal: [f64; D], offset: f64) -> Self {
        assert!(
            normal.iter().all(|c| c.is_finite()) && offset.is_finite(),
            "halfspace parameters must be finite"
        );
        HalfspaceD { normal, offset }
    }

    /// Whether the point lies in the (closed) halfspace.
    pub fn contains(&self, p: &PointD<D>) -> bool {
        p.dot(&self.normal) >= self.offset
    }
}

/// A Euclidean ball in `D` dimensions — the predicate family of Corollary 1
/// (`dist(x, q) ≤ r`).
#[derive(Clone, Copy, Debug)]
pub struct BallD<const D: usize> {
    /// Center `q`.
    pub center: PointD<D>,
    /// Radius `r > 0`.
    pub radius: f64,
}

impl<const D: usize> BallD<D> {
    /// Construct; radius must be positive and finite.
    pub fn new(center: PointD<D>, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive"
        );
        BallD { center, radius }
    }

    /// Whether the point lies in the (closed) ball.
    pub fn contains(&self, p: &PointD<D>) -> bool {
        p.dist2(&self.center) <= self.radius * self.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_sign_detects_turns() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let ccw = Point2::new(1.0, 1.0);
        let cw = Point2::new(1.0, -1.0);
        assert!(Point2::cross(a, b, ccw) > 0.0);
        assert!(Point2::cross(a, b, cw) < 0.0);
        assert_eq!(Point2::cross(a, b, Point2::new(2.0, 0.0)), 0.0);
    }

    #[test]
    fn dominance_is_componentwise() {
        let p = Point3::new(1.0, 2.0, 3.0);
        assert!(p.dominated_by(Point3::new(1.0, 2.0, 3.0)));
        assert!(p.dominated_by(Point3::new(5.0, 5.0, 5.0)));
        assert!(!p.dominated_by(Point3::new(0.9, 5.0, 5.0)));
    }

    #[test]
    fn halfspace_membership() {
        let h = HalfspaceD::new([1.0, -1.0], 0.0); // x ≥ y
        assert!(h.contains(&PointD::new([2.0, 1.0])));
        assert!(h.contains(&PointD::new([1.0, 1.0]))); // closed
        assert!(!h.contains(&PointD::new([0.0, 1.0])));
    }

    #[test]
    fn ball_membership_is_closed() {
        let b = BallD::new(PointD::new([0.0, 0.0]), 5.0);
        assert!(b.contains(&PointD::new([3.0, 4.0]))); // on boundary
        assert!(!b.contains(&PointD::new([3.1, 4.0])));
    }

    #[test]
    fn non_finite_rejected() {
        assert!(std::panic::catch_unwind(|| Point2::new(f64::NAN, 0.0)).is_err());
        assert!(std::panic::catch_unwind(|| BallD::new(PointD::new([0.0]), -1.0)).is_err());
    }
}
