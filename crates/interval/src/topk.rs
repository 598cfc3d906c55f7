//! The assembled top-k interval-stabbing structures of Theorem 4.
//!
//! * [`TopKStabbing`] — Theorem 2 (expected, no degradation): prioritized
//!   = [`crate::SegStab`], max = [`crate::StaticStabMax`].
//! * [`TopKStabbingWorstCase`] — Theorem 1 (worst case): prioritized =
//!   [`crate::PstStab`] by default (linear space).
//! * [`DynTopKStabbing`] — Theorem 2 with updates: both components are
//!   [`crate::DynStabbing`].

use emsim::CostModel;
use topk_core::{
    DynamicIndex, EmError, ExpectedTopK, Retrier, Theorem1Params, Theorem2Params, TopKAnswer,
    TopKIndex, Weight, WorstCaseTopK,
};

use crate::dynamic::{DynStabbingBuilder, DynStabbingMaxBuilder};
use crate::max::StabMaxBuilder;
use crate::prioritized::{PstStabBuilder, SegStabBuilder};
use crate::{Interval, LAMBDA};

/// Theorem 2 top-k interval stabbing (static). Expected
/// `O(polylog n + k/B)` query, `O((n/B) polylog)` space.
///
/// ```
/// use emsim::{CostModel, EmConfig};
/// use interval::{Interval, TopKStabbing};
/// use topk_core::TopKIndex;
///
/// let model = CostModel::new(EmConfig::new(64));
/// let data: Vec<Interval> =
///     (0..2_000u64).map(|i| Interval::new(i as f64, (i + 40) as f64, i + 1)).collect();
/// let index = TopKStabbing::build(&model, data, 7);
/// let mut out = Vec::new();
/// index.query_topk(&1_000.0, 3, &mut out);
/// assert_eq!(out.iter().map(|iv| iv.weight).collect::<Vec<_>>(), vec![1_001, 1_000, 999]);
/// ```
pub struct TopKStabbing {
    inner: ExpectedTopK<Interval, f64, SegStabBuilder, StabMaxBuilder>,
}

impl TopKStabbing {
    /// Build over the given intervals. `seed` drives the Theorem 2 sampling.
    pub fn build(model: &CostModel, items: Vec<Interval>, seed: u64) -> Self {
        let params = Theorem2Params {
            seed,
            ..Theorem2Params::default()
        };
        TopKStabbing {
            inner: ExpectedTopK::build(model, SegStabBuilder, StabMaxBuilder, items, params),
        }
    }

    /// Sampling-level sizes (diagnostics).
    pub fn sample_sizes(&self) -> Vec<usize> {
        self.inner.sample_sizes()
    }
}

impl TopKIndex<Interval, f64> for TopKStabbing {
    fn query_topk(&self, q: &f64, k: usize, out: &mut Vec<Interval>) {
        self.inner.query_topk(q, k, out);
    }
    fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }
    fn try_query_topk(
        &self,
        q: &f64,
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<Interval>, EmError> {
        self.inner.try_query_topk(q, k, retrier)
    }
}

/// Theorem 1 top-k interval stabbing (worst case), over the linear-space
/// [`crate::PstStab`] prioritized structure.
pub struct TopKStabbingWorstCase {
    inner: WorstCaseTopK<Interval, f64, PstStabBuilder>,
}

impl TopKStabbingWorstCase {
    /// Build over the given intervals.
    pub fn build(model: &CostModel, items: Vec<Interval>, seed: u64) -> Self {
        let params = Theorem1Params::new(LAMBDA).with_seed(seed);
        TopKStabbingWorstCase {
            inner: WorstCaseTopK::build(model, &PstStabBuilder, items, params),
        }
    }

    /// The `f` boundary of the Theorem 1 construction (diagnostics).
    pub fn f(&self) -> usize {
        self.inner.f()
    }
}

impl TopKIndex<Interval, f64> for TopKStabbingWorstCase {
    fn query_topk(&self, q: &f64, k: usize, out: &mut Vec<Interval>) {
        self.inner.query_topk(q, k, out);
    }
    fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }
    fn try_query_topk(
        &self,
        q: &f64,
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<Interval>, EmError> {
        self.inner.try_query_topk(q, k, retrier)
    }
}

/// Theorem 2 top-k interval stabbing with insertions and deletions
/// (amortized expected `O(log² n)` updates through the dynamic substrate).
pub struct DynTopKStabbing {
    inner: ExpectedTopK<Interval, f64, DynStabbingBuilder, DynStabbingMaxBuilder>,
}

impl DynTopKStabbing {
    /// Build over the given intervals.
    pub fn build(model: &CostModel, items: Vec<Interval>, seed: u64) -> Self {
        let params = Theorem2Params {
            seed,
            ..Theorem2Params::default()
        };
        DynTopKStabbing {
            inner: ExpectedTopK::build(
                model,
                DynStabbingBuilder,
                DynStabbingMaxBuilder,
                items,
                params,
            ),
        }
    }

    /// Insert an interval (weights must stay distinct).
    pub fn insert(&mut self, iv: Interval) {
        self.inner.insert(iv);
    }

    /// Delete the interval with this weight.
    pub fn delete(&mut self, weight: Weight) -> bool {
        self.inner.delete(weight)
    }

    /// Number of intervals stored.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl TopKIndex<Interval, f64> for DynTopKStabbing {
    fn query_topk(&self, q: &f64, k: usize, out: &mut Vec<Interval>) {
        self.inner.query_topk(q, k, out);
    }
    fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }
    fn try_query_topk(
        &self,
        q: &f64,
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<Interval>, EmError> {
        self.inner.try_query_topk(q, k, retrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topk_core::brute;

    fn mk(n: usize, seed: u64) -> Vec<Interval> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let a: f64 = rng.gen_range(0.0..1000.0);
                let len: f64 = rng.gen_range(0.0..150.0);
                Interval::new(a, a + len, i as u64 + 1)
            })
            .collect()
    }

    fn check_topk<T: TopKIndex<Interval, f64>>(
        idx: &T,
        items: &[Interval],
        queries: &[f64],
        ks: &[usize],
    ) {
        for &q in queries {
            for &k in ks {
                let mut got = Vec::new();
                idx.query_topk(&q, k, &mut got);
                let want = brute::top_k(items, |iv| iv.stabs(q), k);
                assert_eq!(
                    got.iter().map(|iv| iv.weight).collect::<Vec<_>>(),
                    want.iter().map(|iv| iv.weight).collect::<Vec<_>>(),
                    "q={q} k={k}"
                );
                // The fallible path runs the same reduction body.
                let tried = idx.try_query_topk(&q, k, &Retrier::default()).unwrap();
                assert_eq!(tried, TopKAnswer::Exact(got), "try_query_topk q={q} k={k}");
            }
        }
    }

    #[test]
    fn theorem2_instance_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(4_000, 61);
        let idx = TopKStabbing::build(&model, items.clone(), 1);
        check_topk(
            &idx,
            &items,
            &[0.0, 250.0, 500.0, 999.0, 2_000.0],
            &[1, 2, 10, 100, 1_000, 5_000],
        );
    }

    #[test]
    fn theorem1_instance_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(3_000, 62);
        let idx = TopKStabbingWorstCase::build(&model, items.clone(), 2);
        check_topk(
            &idx,
            &items,
            &[100.0, 500.0, 900.0],
            &[1, 7, 64, 500, 2_999],
        );
    }

    #[test]
    fn dynamic_instance_full_lifecycle() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let mut items = mk(800, 63);
        let mut idx = DynTopKStabbing::build(&model, items.clone(), 3);
        let mut rng = StdRng::seed_from_u64(64);
        let mut next_w = 100_000u64;
        for step in 0..400 {
            if rng.gen_bool(0.5) || items.is_empty() {
                let a: f64 = rng.gen_range(0.0..1000.0);
                let iv = Interval::new(a, a + rng.gen_range(0.0..150.0), next_w);
                next_w += 1;
                idx.insert(iv);
                items.push(iv);
            } else {
                let i = rng.gen_range(0..items.len());
                let iv = items.swap_remove(i);
                assert!(idx.delete(iv.weight), "step {step}");
            }
            if step % 57 == 0 {
                let q: f64 = rng.gen_range(0.0..1000.0);
                check_topk(&idx, &items, &[q], &[1, 5, 50]);
            }
        }
        assert_eq!(idx.len(), items.len());
        check_topk(&idx, &items, &[123.0, 456.0, 789.0], &[1, 10, 200]);
    }

    #[test]
    fn space_within_theorem_bounds() {
        // Theorem 4: O(n/B) space (up to our documented log factors).
        let b = 64;
        let model = CostModel::new(emsim::EmConfig::new(b));
        let n = 30_000usize;
        let items = mk(n, 65);
        let t2 = TopKStabbing::build(&model, items.clone(), 4);
        let t1 = TopKStabbingWorstCase::build(&model, items, 5);
        let n_blocks = (3 * n as u64).div_ceil(b as u64);
        let logn = (n as f64).log2().ceil() as u64;
        assert!(
            t2.space_blocks() <= 14 * n_blocks * logn,
            "T2 space {} vs n/B {}",
            t2.space_blocks(),
            n_blocks
        );
        assert!(
            t1.space_blocks() <= 14 * n_blocks,
            "T1 space {} vs n/B {} (linear-space substrate)",
            t1.space_blocks(),
            n_blocks
        );
    }

    #[test]
    fn expected_query_cost_beats_scan() {
        let b = 64;
        let model = CostModel::new(emsim::EmConfig::new(b));
        let n = 60_000usize;
        let items = mk(n, 66);
        let idx = TopKStabbing::build(&model, items, 6);
        let mut total = 0u64;
        let queries = 40;
        for i in 0..queries {
            let q = 25.0 * i as f64;
            model.reset();
            let mut out = Vec::new();
            idx.query_topk(&q, 10, &mut out);
            total += model.report().reads;
        }
        let avg = total / queries;
        let scan_cost = (3 * n as u64).div_ceil(b as u64);
        assert!(
            avg < scan_cost / 2,
            "avg top-10 query reads {avg} not clearly below scan {scan_cost}"
        );
    }
}
