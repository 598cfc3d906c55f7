//! Point–line duality ("by standard duality", §5.4 of the paper).
//!
//! The classic transform: a point `p = (a, b)` maps to the line
//! `y = a·x − b`, and a non-vertical line `y = m·x + c` maps to the point
//! `(m, −c)`. The transform preserves incidence and above/below order:
//! `p` lies above `ℓ` iff `ℓ*` lies above `p*`. §5.4 uses it to turn
//! "max-weight point inside a query halfplane" into "max-weight halfplane
//! containing a query point" and back; we expose it so callers can do the
//! same, and test the invariants it promises.

use crate::point::Point2;

/// A non-vertical line `y = m·x + c`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Line {
    /// Slope.
    pub m: f64,
    /// Intercept.
    pub c: f64,
}

impl Line {
    /// Construct; parameters must be finite.
    pub fn new(m: f64, c: f64) -> Self {
        assert!(
            m.is_finite() && c.is_finite(),
            "line parameters must be finite"
        );
        Line { m, c }
    }

    /// `y`-value at `x`.
    pub fn at(&self, x: f64) -> f64 {
        self.m * x + self.c
    }

    /// Is `p` strictly above the line?
    pub fn above(&self, p: Point2) -> bool {
        p.y > self.at(p.x)
    }
}

/// Dual of a point: the line `y = a·x − b`.
pub fn point_to_line(p: Point2) -> Line {
    Line::new(p.x, -p.y)
}

/// Dual of a line: the point `(m, −c)`.
pub fn line_to_point(l: Line) -> Point2 {
    Point2::new(l.m, -l.c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rnd_stream(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2_001) as f64 - 1_000.0) / 100.0
        }
    }

    #[test]
    fn duality_is_an_involution() {
        let mut rnd = rnd_stream(5);
        for _ in 0..100 {
            let p = Point2::new(rnd(), rnd());
            assert_eq!(line_to_point(point_to_line(p)), p);
            let l = Line::new(rnd(), rnd());
            assert_eq!(point_to_line(line_to_point(l)), l);
        }
    }

    #[test]
    fn duality_preserves_incidence() {
        // p on ℓ  ⟺  ℓ* on p*.
        let l = Line::new(2.0, 3.0);
        let p = Point2::new(1.0, l.at(1.0));
        let p_star = point_to_line(p);
        let l_star = line_to_point(l);
        assert!((p_star.at(l_star.x) - l_star.y).abs() < 1e-9);
    }

    #[test]
    fn duality_reverses_above_below_consistently() {
        // p above ℓ  ⟺  ℓ* above p* (with this sign convention).
        let mut rnd = rnd_stream(9);
        for _ in 0..500 {
            let p = Point2::new(rnd(), rnd());
            let l = Line::new(rnd(), rnd());
            let lhs = l.above(p);
            let p_star = point_to_line(p);
            let l_star = line_to_point(l);
            let rhs = p_star.above(l_star);
            // p.y > m·p.x + c  ⟺  −c > p.x·m − p.y  ⟺  l*.y > p*(l*.x).
            assert_eq!(lhs, rhs, "p={p:?} l={l:?}");
        }
    }
}
