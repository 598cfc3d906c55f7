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

use emsim::{BlockArray, CostModel};
use topk_core::{log_b, MaxBuilder, MaxIndex};

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
    pub fn build(model: &CostModel, mut items: Vec<E>) -> Self {
        let mut xs: Vec<f64> = Vec::with_capacity(items.len() * 2);
        for iv in &items {
            xs.push(iv.ilo());
            xs.push(iv.ihi());
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();
        let m = xs.len();

        // Slab numbering: 0 = (-∞, xs[0]); 2i+1 = [xs[i]]; 2i+2 =
        // (xs[i], xs[i+1]); 2m = (xs[m-1], ∞). An element covers the slabs
        // [2·idx(lo)+1, 2·idx(hi)+1]. Paint each element's slabs, heaviest
        // element first, skipping painted slabs: each slab is written once,
        // by its heaviest cover. `next[j]` leads to the first unpainted slab
        // at or after j (union-find with path halving; 2m+1 is a sentinel).
        items.sort_by_key(|e| std::cmp::Reverse(e.weight()));
        let mut next: Vec<usize> = (0..=2 * m + 1).collect();
        let mut slab_max: Vec<Option<E>> = vec![None; 2 * m + 1];
        for e in &items {
            let hi = 2 * xs.partition_point(|&x| x < e.ihi()) + 1;
            let mut j = 2 * xs.partition_point(|&x| x < e.ilo()) + 1;
            loop {
                while next[j] != j {
                    next[j] = next[next[j]];
                    j = next[j];
                }
                if j > hi {
                    break;
                }
                slab_max[j] = Some(e.clone());
                next[j] = j + 1;
            }
        }

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
    fn every_slab_holds_its_heaviest_cover() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 5, 40, 400] {
            // Few coordinates, so endpoints are shared; some degenerate.
            let items: Vec<Interval> = (0..n)
                .map(|i| {
                    let a = f64::from(rng.gen_range(0..30u32));
                    let b = if rng.gen_range(0..5) == 0 {
                        a
                    } else {
                        f64::from(rng.gen_range(0..30u32))
                    };
                    Interval::new(a.min(b), a.max(b), (i as u64 * 7919) % 100_003 + 1)
                })
                .collect();
            let model = CostModel::ram();
            let idx = StaticStabMax::build(&model, items.clone());
            let m = idx.xs.len();
            assert_eq!(idx.slab_max.len(), 2 * m + 1);
            for j in 0..=2 * m {
                // A point inside slab j: the endpoint itself, a gap's
                // midpoint, or a point beyond the outermost endpoints.
                let x = |i: usize| *idx.xs.get(i);
                let q = match j {
                    0 => x(0) - 1.0,
                    _ if j == 2 * m => x(m - 1) + 1.0,
                    _ if j % 2 == 1 => x(j / 2),
                    _ => f64::midpoint(x(j / 2 - 1), x(j / 2)),
                };
                let want = brute::max(&items, |iv| iv.stabs(q));
                assert_eq!(
                    idx.slab_max.get(j).map(|iv| iv.weight),
                    want.map(|iv| iv.weight),
                    "n={n} slab {j}"
                );
            }
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
