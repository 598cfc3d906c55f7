//! A totally-ordered finite `f64` wrapper.

use std::cmp::Ordering;
use std::fmt;

/// An `f64` that is guaranteed finite and therefore totally ordered.
///
/// The geometric structures sort by coordinates constantly; this wrapper
/// lets them use `Ord`-based APIs without `partial_cmp().unwrap()` noise.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wrap a finite float. Panics on NaN or infinities.
    pub fn new(v: f64) -> Self {
        assert!(v.is_finite(), "coordinate must be finite, got {v}");
        OrderedF64(v)
    }

    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrderedF64 {}

#[expect(
    clippy::derive_ord_xor_partial_ord,
    reason = "finite floats only: this total order agrees with the derived partial one"
)]
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        // Finite floats always compare.
        self.0.partial_cmp(&other.0).expect("finite floats compare")
    }
}

impl fmt::Debug for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<f64> for OrderedF64 {
    fn from(v: f64) -> Self {
        OrderedF64::new(v)
    }
}

impl From<OrderedF64> for f64 {
    fn from(v: OrderedF64) -> f64 {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let mut v: Vec<OrderedF64> = [3.5, -1.0, 0.0, 2.25, -0.0]
            .iter()
            .map(|&x| OrderedF64::new(x))
            .collect();
        v.sort();
        let got: Vec<f64> = v.iter().map(|o| o.get()).collect();
        assert_eq!(got, vec![-1.0, -0.0, 0.0, 2.25, 3.5]);
    }

    #[test]
    fn nan_rejected() {
        assert!(std::panic::catch_unwind(|| OrderedF64::new(f64::NAN)).is_err());
        assert!(std::panic::catch_unwind(|| OrderedF64::new(f64::INFINITY)).is_err());
    }

    #[test]
    fn conversion_roundtrip() {
        let o: OrderedF64 = 4.5.into();
        let f: f64 = o.into();
        assert_eq!(f, 4.5);
    }
}
