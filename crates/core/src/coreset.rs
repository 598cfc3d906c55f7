//! Top-k core-sets — Lemma 2 of the paper.
//!
//! A core-set `R ⊆ D` for rank parameter `K` is a `p`-sample with
//! `p = 4(λ/K)·ln n`, where `λ` is the problem's polynomial-boundedness
//! constant (at most `n^λ` distinct outcomes `q(D)`). Lemma 2 shows that,
//! with non-zero probability, simultaneously for *every* predicate `q` with
//! `|q(D)| ≥ 4K`:
//!
//! * `|q(R)| > 8λ·ln n`, and
//! * the element of weight-rank `⌈8λ·ln n⌉` in `q(R)` has weight-rank in
//!   `q(D)` between `K` and `4K`.
//!
//! The size bound `|R| ≤ 12λ(n/K)·ln n` holds with probability ≥ 2/3 by
//! Markov; the builder below *retries* the sampling until the size bound is
//! met (O(1) expected retries), which is how a constructive implementation
//! realizes the lemma's existential statement. The rank properties cannot
//! be verified efficiently for all `q` at build time; Theorem 1's query
//! algorithm instead detects their (rare) failure per-query and falls back,
//! so correctness never depends on them.

use rand::Rng;

use crate::sampling::p_sample;
use crate::traits::Element;

/// Parameters of a core-set construction.
#[derive(Clone, Copy, Debug)]
pub struct CoreSetParams {
    /// The problem's polynomial-boundedness constant `λ` (e.g. interval
    /// stabbing has `≤ 2n+1` distinct outcomes, so `λ = 1` for `n ≥ 3`).
    pub lambda: f64,
    /// The rank parameter `K` (Lemma 2 wants `K ≥ 4λ·ln n`).
    pub k: usize,
}

impl CoreSetParams {
    /// The sampling probability `p = 4(λ/K)·ln n`, clamped to `[0, 1]`.
    pub fn sample_probability(&self, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        (4.0 * self.lambda * (n as f64).ln() / self.k as f64).min(1.0)
    }

    /// The size bound `12λ(n/K)·ln n` the construction retries to meet.
    pub fn size_bound(&self, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        12.0 * self.lambda * (n as f64) * (n as f64).ln() / self.k as f64
    }

    /// The distinguished sample rank `⌈2Kp⌉ = ⌈8λ·ln n⌉` whose element lands
    /// (w.h.p.) at rank `[K, 4K]` of any large `q(D)`.
    pub fn sample_rank(&self, n: usize) -> usize {
        let p = self.sample_probability(n);
        ((2.0 * self.k as f64 * p).ceil() as usize).max(1)
    }
}

/// Construct a top-k core-set of `items` (Lemma 2), retrying until the size
/// bound holds. Returns the core-set.
pub fn core_set<E: Element>(rng: &mut impl Rng, items: &[E], params: &CoreSetParams) -> Vec<E> {
    let n = items.len();
    let p = params.sample_probability(n);
    if p >= 1.0 {
        return items.to_vec();
    }
    let bound = params.size_bound(n);
    loop {
        let r = p_sample(rng, items, p);
        if (r.len() as f64) <= bound {
            return r;
        }
    }
}

/// Check the two per-query conditions of Lemma 2 against a concrete
/// predicate outcome: `qd` = weights of `q(D)`, `qr` = weights of `q(R)`.
/// Only meaningful when `qd.len() ≥ 4K`. Used by tests and experiment E3.
pub fn lemma2_holds_for_query(
    qd: &[crate::traits::Weight],
    qr: &[crate::traits::Weight],
    params: &CoreSetParams,
    n: usize,
) -> bool {
    let min_size = (8.0 * params.lambda * (n as f64).ln()).ceil() as usize;
    if qr.len() <= min_size.saturating_sub(1) {
        return false;
    }
    let rank = params.sample_rank(n).min(qr.len());
    let e = crate::sampling::weight_of_rank(qr, rank);
    let rank_in_qd = crate::sampling::rank_of(qd, e);
    (params.k..=4 * params.k).contains(&rank_in_qd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Element, Weight};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[derive(Clone, Debug)]
    struct Pt {
        x: u64,
        w: u64,
    }
    impl Element for Pt {
        fn weight(&self) -> Weight {
            self.w
        }
    }

    #[test]
    fn size_bound_respected() {
        let mut rng = StdRng::seed_from_u64(5);
        let items: Vec<Pt> = (0..50_000u64).map(|i| Pt { x: i, w: i }).collect();
        let params = CoreSetParams {
            lambda: 1.0,
            k: 2_000,
        };
        let r = core_set(&mut rng, &items, &params);
        assert!((r.len() as f64) <= params.size_bound(items.len()));
        assert!(!r.is_empty());
    }

    #[test]
    fn full_copy_when_p_saturates() {
        let mut rng = StdRng::seed_from_u64(5);
        let items: Vec<Pt> = (0..100u64).map(|i| Pt { x: i, w: i }).collect();
        // K tiny → p ≥ 1 → core-set is the whole set.
        let params = CoreSetParams { lambda: 1.0, k: 1 };
        let r = core_set(&mut rng, &items, &params);
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn sample_rank_formula() {
        let params = CoreSetParams {
            lambda: 1.0,
            k: 1_000,
        };
        let n = 100_000;
        // ⌈8·ln(100000)⌉ = ⌈92.1⌉ = 93.
        assert_eq!(params.sample_rank(n), 93);
    }

    /// Empirically validate Lemma 2 on 1D prefix predicates (λ = 1):
    /// predicates are `x ≤ q₀` for all thresholds, i.e. n+1 outcomes.
    #[test]
    fn lemma2_empirically_holds_for_most_prefix_queries() {
        let n = 30_000usize;
        let k = 1_500usize;
        let params = CoreSetParams { lambda: 1.0, k };
        // Shuffle weights against positions.
        let mut rng = StdRng::seed_from_u64(11);
        let mut weights: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            weights.swap(i, j);
        }
        let items: Vec<Pt> = (0..n as u64)
            .map(|i| Pt {
                x: i,
                w: weights[i as usize],
            })
            .collect();
        let r = core_set(&mut rng, &items, &params);

        // Check every 500th prefix predicate with |q(D)| ≥ 4K.
        let mut checked = 0;
        let mut ok = 0;
        for q in (4 * k..n).step_by(500) {
            let qd: Vec<u64> = items[..=q].iter().map(|p| p.w).collect();
            let qr: Vec<u64> = r.iter().filter(|p| p.x <= q as u64).map(|p| p.w).collect();
            checked += 1;
            if lemma2_holds_for_query(&qd, &qr, &params, n) {
                ok += 1;
            }
        }
        // The lemma guarantees ALL queries succeed w.p. ≥ some constant over
        // the sampling; per-query failure probability is ≤ 1/(2n^λ), so on a
        // fixed good seed we expect essentially all to pass.
        assert!(checked > 20);
        assert!(
            ok as f64 >= 0.95 * checked as f64,
            "only {ok}/{checked} prefix queries satisfied Lemma 2"
        );
    }

    #[test]
    fn tiny_inputs_do_not_panic() {
        let mut rng = StdRng::seed_from_u64(1);
        let items: Vec<Pt> = vec![Pt { x: 0, w: 3 }];
        let params = CoreSetParams { lambda: 1.0, k: 10 };
        let r = core_set(&mut rng, &items, &params);
        assert!(r.len() <= 1);
        let empty: Vec<Pt> = Vec::new();
        let r = core_set(&mut rng, &empty, &params);
        assert!(r.is_empty());
    }
}
