//! The folklore static stabbing-max structure of §5.2.
//!
//! "The 2n endpoints of the intervals divide ℝ into at most 2n+1 disjoint
//! subintervals. With each subinterval I, we associate the maximum weight
//! of all the intervals in D that span I. […] Finding the subinterval is
//! essentially predecessor search." — `O(n)` space, `O(log n)` query.
//!
//! Slabs here are the points `xs[i]` and the open gaps between them, so
//! closed intervals are handled exactly (an interval covers its endpoint
//! slabs but not the gaps beyond them).

use std::collections::BTreeMap;

use emsim::{BlockArray, CostModel};
use topk_core::{log_b, MaxBuilder, MaxIndex, Weight};

use crate::{HasInterval, Interval};

/// The §5.2 slab-decomposition stabbing-max structure, generic over the
/// element type.
pub struct StaticStabMaxG<E> {
    /// Sorted distinct endpoints.
    xs: BlockArray<f64>,
    /// `slab_max[j]` = the heaviest element covering elementary slab `j`
    /// (see `stab_index` for the slab numbering), or `None`.
    slab_max: BlockArray<Option<E>>,
    len: usize,
}

/// [`StaticStabMaxG`] over plain [`Interval`]s.
pub type StaticStabMax = StaticStabMaxG<Interval>;

impl<E: HasInterval> StaticStabMaxG<E> {
    /// Build over the given elements. `O(n log n)` time, `O(n)` space.
    pub fn build(model: &CostModel, items: Vec<E>) -> Self {
        let mut xs: Vec<f64> = Vec::with_capacity(items.len() * 2);
        for iv in &items {
            xs.push(iv.ilo());
            xs.push(iv.ihi());
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();
        let m = xs.len();

        // Sweep: active multiset keyed by weight (distinct), recording the
        // max per slab. Slab numbering: 0 = (-∞, xs[0]); 2i+1 = [xs[i]];
        // 2i+2 = (xs[i], xs[i+1]); 2m = (xs[m-1], ∞).
        let mut starts: Vec<Vec<usize>> = vec![Vec::new(); m]; // by lo index
        let mut ends: Vec<Vec<usize>> = vec![Vec::new(); m]; // by hi index
        for (idx, iv) in items.iter().enumerate() {
            let li = xs.partition_point(|&x| x < iv.ilo());
            let hi = xs.partition_point(|&x| x < iv.ihi());
            starts[li].push(idx);
            ends[hi].push(idx);
        }
        let mut active: BTreeMap<Weight, usize> = BTreeMap::new();
        let mut slab_max: Vec<Option<E>> = vec![None; 2 * m + 1];
        for i in 0..m {
            // Entering the point slab 2i+1: elements starting here activate.
            for &idx in &starts[i] {
                active.insert(items[idx].weight(), idx);
            }
            slab_max[2 * i + 1] = active.last_key_value().map(|(_, &idx)| items[idx].clone());
            // Leaving the point: elements ending here deactivate.
            for &idx in &ends[i] {
                active.remove(&items[idx].weight());
            }
            // The following gap slab 2i+2 (if any) sees the updated set.
            slab_max[2 * i + 2] = active.last_key_value().map(|(_, &idx)| items[idx].clone());
        }
        debug_assert!(active.is_empty(), "sweep must deactivate everything");

        StaticStabMaxG {
            xs: BlockArray::new(model, xs),
            slab_max: BlockArray::new(model, slab_max),
            len: items.len(),
        }
    }
}

impl<E: HasInterval> MaxIndex<E, f64> for StaticStabMaxG<E> {
    fn query_max(&self, q: &f64) -> Option<E> {
        if self.len == 0 {
            return None;
        }
        // Predecessor search on the endpoint array (binary probes charged
        // by BlockArray::partition_point).
        let i = self.xs.partition_point(|&x| x < *q);
        let slab = if i < self.xs.len() && *self.xs.get(i) == *q {
            2 * i + 1
        } else {
            2 * i
        };
        self.slab_max.get(slab).clone()
    }

    fn space_blocks(&self) -> u64 {
        self.xs.blocks() + self.slab_max.blocks()
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Builder for [`StaticStabMax`].
#[derive(Clone, Copy, Debug)]
pub struct StabMaxBuilder;

impl MaxBuilder<Interval, f64> for StabMaxBuilder {
    type Index = StaticStabMax;
    fn build(&self, model: &CostModel, items: Vec<Interval>) -> StaticStabMax {
        StaticStabMax::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        ((n.max(2) as f64).log2()).max(log_b(n, b))
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
                let a: f64 = rng.gen_range(0.0..100.0);
                let len: f64 = rng.gen_range(0.0..30.0);
                Interval::new(a, a + len, i as u64 + 1)
            })
            .collect()
    }

    #[test]
    fn matches_brute_on_random_inputs() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(800, 7);
        let idx = StaticStabMax::build(&model, items.clone());
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..300 {
            let q: f64 = rng.gen_range(-10.0..140.0);
            let want = brute::max(&items, |iv| iv.stabs(q));
            assert_eq!(
                idx.query_max(&q).map(|iv| iv.weight),
                want.map(|iv| iv.weight),
                "q={q}"
            );
        }
    }

    #[test]
    fn exact_endpoint_queries() {
        let model = CostModel::ram();
        let items = vec![
            Interval::new(0.0, 10.0, 5),
            Interval::new(10.0, 20.0, 3),
            Interval::new(20.0, 30.0, 9),
        ];
        let idx = StaticStabMax::build(&model, items);
        assert_eq!(idx.query_max(&0.0).map(|i| i.weight), Some(5));
        assert_eq!(idx.query_max(&10.0).map(|i| i.weight), Some(5)); // both stab, 5 > 3
        assert_eq!(idx.query_max(&15.0).map(|i| i.weight), Some(3));
        assert_eq!(idx.query_max(&20.0).map(|i| i.weight), Some(9));
        assert_eq!(idx.query_max(&30.0).map(|i| i.weight), Some(9));
        assert_eq!(idx.query_max(&30.5), None);
        assert_eq!(idx.query_max(&-0.5), None);
    }

    #[test]
    fn empty_and_degenerate() {
        let model = CostModel::ram();
        let idx = StaticStabMax::build(&model, vec![]);
        assert_eq!(idx.query_max(&5.0), None);
        let idx = StaticStabMax::build(&model, vec![Interval::new(5.0, 5.0, 1)]);
        assert_eq!(idx.query_max(&5.0).map(|i| i.weight), Some(1));
        assert_eq!(idx.query_max(&5.1), None);
    }

    #[test]
    fn query_cost_is_logarithmic() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(100_000, 9);
        let idx = StaticStabMax::build(&model, items);
        model.reset();
        idx.query_max(&50.0);
        // Binary probes over ~200k endpoints ≈ 18, plus one slab access.
        assert!(model.report().reads <= 24, "reads {}", model.report().reads);
    }

    #[test]
    fn space_is_linear() {
        let b = 64;
        let model = CostModel::new(emsim::EmConfig::new(b));
        let n = 50_000;
        let items = mk(n, 10);
        let idx = StaticStabMax::build(&model, items);
        // xs: 2n f64 (64/block); slab_max: 4n+1 Options (≤ 4 words each).
        let bound = (2 * n as u64).div_ceil(64) + (4 * n as u64 + 1).div_ceil(16) + 4;
        assert!(
            idx.space_blocks() <= 2 * bound,
            "space {}",
            idx.space_blocks()
        );
    }
}
