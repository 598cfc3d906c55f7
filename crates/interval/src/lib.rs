//! # interval — top-k interval stabbing (Theorem 4)
//!
//! The problem: `𝔻` is the set of closed intervals `[x, y] ⊂ ℝ`; a
//! predicate is a point `q`; an interval satisfies it iff `q ∈ [x, y]`.
//! Theorem 4 derives, from a prioritized structure and a max structure,
//!
//! * an expected `O(log_B n + k/B)`-query, linear-space, dynamically
//!   updatable top-k structure (via Theorem 2), and
//! * a worst-case `O(log_B² n + k/B)`-query, linear-space top-k structure
//!   (via Theorem 1).
//!
//! This crate provides the substrates (per DESIGN.md substitutions 1–2):
//!
//! * [`PstStab`] — prioritized stabbing via an interval tree with two
//!   priority search trees per node: **linear space**, `O(log² n + t)`
//!   query (stands in for Tao's `SoCG`'12 ray-stabbing structure).
//! * [`SegStab`] — prioritized stabbing via a segment tree with
//!   weight-descending canonical lists: `O(n log n)` space,
//!   `O(log n + t)` query. The space/query trade-off against [`PstStab`]
//!   is the `exp_ablation_inner` experiment.
//! * [`StaticStabMax`] — the folklore `O(n)`-space `O(log n)`-query
//!   stabbing-max structure of §5.2 (slab decomposition + predecessor
//!   search).
//! * [`DynStabbing`] — a dynamic structure answering *both* prioritized and
//!   max stabbing queries with `O(log² n)` amortized updates (segment tree
//!   with weight-sorted per-node runs and periodic rebuilds).
//!
//! and the assembled top-k indexes: [`TopKStabbing`] (Theorem 2),
//! [`TopKStabbingWorstCase`] (Theorem 1), and [`DynTopKStabbing`]
//! (Theorem 2 + updates).

pub mod dynamic;
pub mod max;
pub mod prioritized;
pub mod topk;

pub use dynamic::{DynStabbing, DynStabbingBuilder, DynStabbingMaxBuilder};
pub use max::{StabMaxBuilder, StaticStabMax, StaticStabMaxG};
pub use prioritized::{PstStab, PstStabBuilder, PstStabG, SegStab, SegStabBuilder, SegStabG};
pub use topk::{DynTopKStabbing, TopKStabbing, TopKStabbingWorstCase};

use topk_core::{Element, Weight};

/// A closed weighted interval `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Left endpoint.
    pub lo: f64,
    /// Right endpoint (`≥ lo`).
    pub hi: f64,
    /// Distinct weight.
    pub weight: Weight,
}

impl Interval {
    /// Construct; endpoints must be finite with `lo ≤ hi`.
    pub fn new(lo: f64, hi: f64, weight: Weight) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid interval [{lo}, {hi}]"
        );
        Interval { lo, hi, weight }
    }

    /// Does this interval contain the stabbing point?
    pub fn stabs(&self, q: f64) -> bool {
        self.lo <= q && q <= self.hi
    }
}

impl Element for Interval {
    fn weight(&self) -> Weight {
        self.weight
    }
}

/// An element carrying a 1D extent — the hook that lets the stabbing
/// structures in this crate work for any payload (e.g. the y-extents of
/// the rectangles in `enclosure`).
pub trait HasInterval: Element {
    /// Left endpoint of the extent.
    fn ilo(&self) -> f64;
    /// Right endpoint of the extent (`≥ ilo`).
    fn ihi(&self) -> f64;
    /// Does the extent contain `q`? (Closed on both sides.)
    fn istabs(&self, q: f64) -> bool {
        self.ilo() <= q && q <= self.ihi()
    }
}

impl HasInterval for Interval {
    fn ilo(&self) -> f64 {
        self.lo
    }
    fn ihi(&self) -> f64 {
        self.hi
    }
}

/// The polynomial-boundedness constant for interval stabbing: at most
/// `2n + 1 ≤ n²` distinct outcomes (one per slab between endpoints), so
/// `λ = 2` is a safe choice for all `n ≥ 2`.
pub const LAMBDA: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stabs_is_closed() {
        let i = Interval::new(1.0, 3.0, 7);
        assert!(i.stabs(1.0));
        assert!(i.stabs(3.0));
        assert!(i.stabs(2.0));
        assert!(!i.stabs(0.999));
        assert!(!i.stabs(3.001));
    }

    #[test]
    fn invalid_intervals_rejected() {
        assert!(std::panic::catch_unwind(|| Interval::new(3.0, 1.0, 1)).is_err());
        assert!(std::panic::catch_unwind(|| Interval::new(f64::NAN, 1.0, 1)).is_err());
    }

    #[test]
    fn degenerate_point_interval() {
        let i = Interval::new(5.0, 5.0, 1);
        assert!(i.stabs(5.0));
        assert!(!i.stabs(5.0 + 1e-12));
    }
}
