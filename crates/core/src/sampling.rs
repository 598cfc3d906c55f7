//! Rank sampling — Lemma 1 and Lemma 3 of the paper.
//!
//! Both reductions rest on one probabilistic idea: sample the data set so
//! that a *fixed, easy-to-find* rank in the sample (the `⌈2kp⌉`-th largest
//! for Lemma 1, the maximum for Lemma 3) lands, with good probability, at a
//! rank `Θ(k)` in the original set. The functions here construct the
//! samples; [`lemma1_holds`]/[`lemma3_holds`] are the checkable predicates
//! the experiment `exp_lemma1`/`exp_lemma3` binaries estimate probabilities
//! with.

use rand::Rng;

use crate::traits::{Element, Weight};

/// Independently keep each item with probability `p` (a *p-sample*, §3.1).
pub fn p_sample<E: Clone>(rng: &mut impl Rng, items: &[E], p: f64) -> Vec<E> {
    assert!(
        (0.0..=1.0).contains(&p),
        "sampling probability out of range"
    );
    if p >= 1.0 {
        return items.to_vec();
    }
    items
        .iter()
        .filter(|_| rng.gen::<f64>() < p)
        .cloned()
        .collect()
}

/// The parameter bundle of Lemma 1: sampling rate `p` and failure budget
/// `δ`, valid when `kp ≥ 3·ln(3/δ)` and `n ≥ 4k`.
#[derive(Clone, Copy, Debug)]
pub struct Lemma1Params {
    /// Sampling probability.
    pub p: f64,
    /// Failure probability bound.
    pub delta: f64,
    /// The rank parameter `k`.
    pub k: usize,
}

impl Lemma1Params {
    /// Whether the lemma's working conditions hold for a set of size `n`.
    pub fn preconditions(&self, n: usize) -> bool {
        self.k >= 1
            && self.delta > 0.0
            && self.delta < 1.0
            && (self.k as f64) * self.p >= 3.0 * (3.0 / self.delta).ln()
            && n >= 4 * self.k
    }
}

/// The rank (1-based, descending by weight) of `weight` within `weights`.
/// `weights` need not be sorted.
pub fn rank_of(weights: &[Weight], weight: Weight) -> usize {
    weights.iter().filter(|&&w| w > weight).count() + 1
}

/// The weight of rank `r` (1-based, descending) in `weights`.
/// Panics if `r` is out of range.
pub fn weight_of_rank(weights: &[Weight], r: usize) -> Weight {
    assert!(r >= 1 && r <= weights.len(), "rank out of range");
    let mut v = weights.to_vec();
    let idx = r - 1;
    v.select_nth_unstable_by(idx, |a, b| b.cmp(a));
    v[idx]
}

/// Evaluate the two events of **Lemma 1** on a concrete sample:
/// (i) `|R| > 2kp`, and (ii) the element of rank `⌈2kp⌉` in `R` has rank in
/// `S` between `k` and `4k`. Returns `true` iff both hold.
pub fn lemma1_holds(s: &[Weight], r: &[Weight], k: usize, p: f64) -> bool {
    let threshold = 2.0 * (k as f64) * p;
    if (r.len() as f64) <= threshold {
        return false;
    }
    let sample_rank = threshold.ceil() as usize;
    let e = weight_of_rank(r, sample_rank.max(1));
    let rank_in_s = rank_of(s, e);
    (k..=4 * k).contains(&rank_in_s)
}

/// Take a `(1/K)`-sample of `items` (§4, Lemma 3).
pub fn one_in_k_sample<E: Clone>(rng: &mut impl Rng, items: &[E], k: f64) -> Vec<E> {
    assert!(k >= 1.0, "K must be at least 1");
    p_sample(rng, items, 1.0 / k)
}

/// Evaluate the two events of **Lemma 3** on a concrete sample: (i) `|R| ≥ 1`
/// and (ii) the largest element of `R` has rank in `S` in `(K, 4K]`.
pub fn lemma3_holds(s: &[Weight], r: &[Weight], big_k: f64) -> bool {
    let Some(&max) = r.iter().max() else {
        return false;
    };
    let rank = rank_of(s, max) as f64;
    rank > big_k && rank <= 4.0 * big_k
}

/// Convenience for experiments: the heaviest `count` elements of `items`,
/// descending. (Pure RAM helper — charges nothing.)
pub fn heaviest<E: Element>(items: &[E], count: usize) -> Vec<E> {
    let mut v: Vec<E> = items.to_vec();
    v.sort_by_key(|e| std::cmp::Reverse(e.weight()));
    v.truncate(count);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn p_sample_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(p_sample(&mut rng, &items, 1.0).len(), 100);
        assert_eq!(p_sample(&mut rng, &items, 0.0).len(), 0);
    }

    #[test]
    fn p_sample_size_concentrates() {
        let mut rng = StdRng::seed_from_u64(7);
        let items: Vec<u32> = (0..100_000).collect();
        let r = p_sample(&mut rng, &items, 0.1);
        let expected = 10_000.0;
        assert!(
            (r.len() as f64 - expected).abs() < 0.05 * expected,
            "|R| = {}",
            r.len()
        );
    }

    #[test]
    fn rank_helpers_agree() {
        let weights = vec![50, 10, 40, 30, 20];
        assert_eq!(rank_of(&weights, 50), 1);
        assert_eq!(rank_of(&weights, 10), 5);
        assert_eq!(weight_of_rank(&weights, 1), 50);
        assert_eq!(weight_of_rank(&weights, 3), 30);
        assert_eq!(weight_of_rank(&weights, 5), 10);
    }

    #[test]
    fn lemma1_empirical_probability_beats_bound() {
        // n = 40_000, k = 100, δ = 1/4, p = 3·ln(3/δ)/k.
        let n = 40_000usize;
        let k = 100usize;
        let delta = 0.25;
        let p = 3.0 * (3.0f64 / delta).ln() / (k as f64);
        let params = Lemma1Params { p, delta, k };
        assert!(params.preconditions(n));
        let s: Vec<u64> = (0..n as u64).collect();
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 300;
        let mut ok = 0;
        for _ in 0..trials {
            let r = p_sample(&mut rng, &s, p);
            if lemma1_holds(&s, &r, k, p) {
                ok += 1;
            }
        }
        let rate = ok as f64 / trials as f64;
        assert!(
            rate >= 1.0 - delta,
            "success rate {rate} below 1-δ = {}",
            1.0 - delta
        );
    }

    #[test]
    fn lemma3_empirical_probability_beats_bound() {
        let n = 10_000usize;
        let big_k = 100.0;
        let s: Vec<u64> = (0..n as u64).collect();
        let mut rng = StdRng::seed_from_u64(43);
        let trials = 2_000;
        let mut ok = 0;
        for _ in 0..trials {
            let r = one_in_k_sample(&mut rng, &s, big_k);
            if lemma3_holds(&s, &r, big_k) {
                ok += 1;
            }
        }
        let rate = ok as f64 / trials as f64;
        // The paper proves ≥ 0.09; empirically it is far higher (~0.6).
        assert!(rate >= 0.09, "success rate {rate} below the Lemma 3 bound");
    }

    #[test]
    fn lemma3_fails_on_empty_sample() {
        assert!(!lemma3_holds(&[1, 2, 3], &[], 2.0));
    }

    #[test]
    fn heaviest_is_sorted_desc() {
        #[derive(Clone)]
        struct W(u64);
        impl Element for W {
            fn weight(&self) -> Weight {
                self.0
            }
        }
        let items: Vec<W> = [5u64, 9, 1, 7, 3].iter().map(|&w| W(w)).collect();
        let top = heaviest(&items, 3);
        let ws: Vec<u64> = top.iter().map(|e| e.0).collect();
        assert_eq!(ws, vec![9, 7, 5]);
    }
}
