//! 2D stabbing max with **fractional cascading** — the device §5.2 uses to
//! shave the inner log: "the algorithm takes O(log² n) time, which can be
//! improved to O(log n) with fractional cascading \[14\], because each 1D
//! query performs nothing but predecessor search on a sorted list."
//!
//! Structure: the usual segment tree over the rectangles' x-extents, with
//! each canonical node holding the §5.2 slab decomposition of its
//! rectangles' **y**-extents. A query walks one root-to-leaf x-path and
//! needs the predecessor of `q.y` in every node's y-endpoint list. Instead
//! of `O(log n)` independent binary searches, each node keeps an
//! *augmented catalog* — its own endpoints merged with every 4th element
//! of each child's augmented catalog — with bridge pointers, so after one
//! binary search at the root every subsequent predecessor costs `O(1)`
//! (≤ 3 local steps, by the sampling density).
//!
//! [`CascadeStabMax`] answers the same queries as [`crate::EncMax`] in
//! `O(log n)` instead of `O(log² n)`; experiment E18 measures the
//! difference, closing DESIGN.md substitution 6 for this structure.

use emsim::CostModel;
use geom::Point2;
use std::collections::BTreeMap;
use structures::segtree::EndpointSearch;
use topk_core::{log_b, MaxBuilder, MaxIndex, Weight};

use crate::Rect;

const NONE: u32 = u32::MAX;

/// Per-node payload: the real y-endpoint list with slab maxima, plus the
/// augmented catalog and its bridges.
#[derive(Default)]
struct CNode {
    /// Sorted distinct y-endpoints of this node's rectangles.
    ys: Vec<f64>,
    /// `slab_max[j]`: heaviest rectangle covering y-slab `j` (§5.2
    /// numbering: `0 = (-∞, ys[0])`, `2i+1 = [ys[i]]`, `2i+2` = gap).
    slab_max: Vec<Option<Rect>>,
    /// Augmented catalog: `ys` merged with every 4th element of each
    /// child's augmented catalog. Sorted.
    aug: Vec<f64>,
    /// For `aug[i]`: index of the predecessor (`≤ aug[i]`) in `ys`, or NONE.
    to_real: Vec<u32>,
    /// For `aug[i]` and child side `s`: index of the predecessor of
    /// `aug[i]` in the child's `aug`, or NONE.
    to_child: [Vec<u32>; 2],
}

/// Fractionally cascaded 2D stabbing-max structure. See the module docs.
pub struct CascadeStabMax {
    xs: Vec<f64>,
    /// The B-tree levels above `xs` that locate `q.x` in it.
    search: EndpointSearch,
    nodes: Vec<CNode>,
    cap: usize,
    len: usize,
    array_id: u64,
    /// The array id of the root's augmented catalog, which the root
    /// y-search reads block by block.
    root_aug_id: u64,
    model: CostModel,
}

impl CascadeStabMax {
    /// Build over the given rectangles.
    pub fn build(model: &CostModel, items: Vec<Rect>) -> Self {
        let mut xs: Vec<f64> = Vec::with_capacity(items.len() * 2);
        for r in &items {
            xs.push(r.x1);
            xs.push(r.x2);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();
        let m = xs.len();
        let cap = (2 * m + 1).max(1).next_power_of_two().max(2);

        // Canonical assignment of rectangles to nodes by x-extent.
        let mut buckets: Vec<Vec<Rect>> = (0..2 * cap).map(|_| Vec::new()).collect();
        for r in &items {
            let a = 2 * xs.partition_point(|&x| x < r.x1) + 1;
            let b = 2 * xs.partition_point(|&x| x < r.x2) + 1;
            let (mut l, mut rr) = (a + cap, b + cap + 1);
            while l < rr {
                if l & 1 == 1 {
                    buckets[l].push(*r);
                    l += 1;
                }
                if rr & 1 == 1 {
                    rr -= 1;
                    buckets[rr].push(*r);
                }
                l /= 2;
                rr /= 2;
            }
        }

        // Per-node 1D slab structures on y.
        let mut nodes: Vec<CNode> = (0..2 * cap).map(|_| CNode::default()).collect();
        for (u, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut ys: Vec<f64> = Vec::with_capacity(bucket.len() * 2);
            for r in bucket {
                ys.push(r.y1);
                ys.push(r.y2);
            }
            ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ys.dedup();
            let my = ys.len();
            let mut starts: Vec<Vec<usize>> = vec![Vec::new(); my];
            let mut ends: Vec<Vec<usize>> = vec![Vec::new(); my];
            for (i, r) in bucket.iter().enumerate() {
                starts[ys.partition_point(|&y| y < r.y1)].push(i);
                ends[ys.partition_point(|&y| y < r.y2)].push(i);
            }
            let mut active: BTreeMap<Weight, usize> = BTreeMap::new();
            let mut slab_max: Vec<Option<Rect>> = vec![None; 2 * my + 1];
            for i in 0..my {
                for &idx in &starts[i] {
                    active.insert(bucket[idx].weight, idx);
                }
                slab_max[2 * i + 1] = active.last_key_value().map(|(_, &idx)| bucket[idx]);
                for &idx in &ends[i] {
                    active.remove(&bucket[idx].weight);
                }
                slab_max[2 * i + 2] = active.last_key_value().map(|(_, &idx)| bucket[idx]);
            }
            nodes[u].ys = ys;
            nodes[u].slab_max = slab_max;
        }

        // Fractional cascading, bottom-up: aug = ys ∪ sample4(children).
        for u in (1..2 * cap).rev() {
            let (cl, cr) = (2 * u, 2 * u + 1);
            let mut merged: Vec<f64> = nodes[u].ys.clone();
            if cl < 2 * cap {
                merged.extend(nodes[cl].aug.iter().copied().step_by(4));
            }
            if cr < 2 * cap {
                merged.extend(nodes[cr].aug.iter().copied().step_by(4));
            }
            merged.sort_by(|a, b| a.partial_cmp(b).unwrap());
            merged.dedup();

            // Bridges: predecessor of each aug element in ys and in each
            // child's aug, by a linear merge scan.
            let to_real = bridge(&merged, &nodes[u].ys);
            let to_left = if cl < 2 * cap {
                bridge(&merged, &nodes[cl].aug)
            } else {
                vec![NONE; merged.len()]
            };
            let to_right = if cr < 2 * cap {
                bridge(&merged, &nodes[cr].aug)
            } else {
                vec![NONE; merged.len()]
            };
            nodes[u].aug = merged;
            nodes[u].to_real = to_real;
            nodes[u].to_child = [to_left, to_right];
        }

        let per = model.config().items_per_block::<f64>();
        let search = EndpointSearch::build(&xs, per, 2 * cap);
        let s = CascadeStabMax {
            xs,
            search,
            nodes,
            cap,
            len: items.len(),
            array_id: model.new_array_id(),
            root_aug_id: model.new_array_id(),
            model: model.clone(),
        };
        s.model.charge_writes(
            s.nodes
                .iter()
                .map(|n| (n.aug.len() + n.ys.len()) as u64)
                .sum::<u64>()
                .div_ceil(per as u64)
                .max(1)
                + s.search_blocks(),
        );
        s
    }

    /// Blocks of the x-search: the endpoint array and the levels above it.
    fn search_blocks(&self) -> u64 {
        let per = self.model.config().items_per_block::<f64>() as u64;
        (self.xs.len() as u64).div_ceil(per) + self.search.internal_blocks()
    }

    /// Predecessor position of `y` in the root's augmented catalog, or
    /// NONE: a binary search that reads each probe's catalog block through
    /// the pool, as `BlockArray::partition_point` does.
    fn root_pred(&self, y: f64) -> u32 {
        let aug = &self.nodes[1].aug;
        let per = self.model.config().items_per_block::<f64>();
        let (mut lo, mut hi) = (0, aug.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.model.touch(self.root_aug_id, (mid / per) as u64);
            if aug[mid] <= y {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            NONE
        } else {
            (lo - 1) as u32
        }
    }

    /// Max rectangle at node `u` covering y-slab derived from the real
    /// predecessor index (`pred` = largest index with `ys[pred] ≤ y`).
    fn node_max(&self, u: usize, pred: u32, y: f64) -> Option<Rect> {
        let node = &self.nodes[u];
        if node.ys.is_empty() {
            return None;
        }
        let slab = if pred == NONE {
            0
        } else {
            let p = pred as usize;
            if node.ys[p] == y {
                2 * p + 1
            } else {
                2 * p + 2
            }
        };
        node.slab_max.get(slab).copied().flatten()
    }

    /// Total augmented catalog size (diagnostics; ≤ 2× the real catalogs).
    pub fn aug_population(&self) -> usize {
        self.nodes.iter().map(|n| n.aug.len()).sum()
    }

    /// Total real catalog size.
    pub fn real_population(&self) -> usize {
        self.nodes.iter().map(|n| n.ys.len()).sum()
    }
}

/// For each element of sorted `from`, the index of its predecessor
/// (`≤ value`) in sorted `to`, or NONE.
fn bridge(from: &[f64], to: &[f64]) -> Vec<u32> {
    let mut out = Vec::with_capacity(from.len());
    let mut j = 0usize;
    for &v in from {
        while j < to.len() && to[j] <= v {
            j += 1;
        }
        out.push(if j == 0 { NONE } else { (j - 1) as u32 });
    }
    out
}

impl MaxIndex<Rect, Point2> for CascadeStabMax {
    fn query_max(&self, q: &Point2) -> Option<Rect> {
        if self.len == 0 {
            return None;
        }
        // The x-slab, by a walk down the endpoint B-tree …
        let slab = self.search.stab_index(&self.xs, q.x, |block| {
            self.model.touch(self.array_id, block);
        });
        let leaf = self.cap + slab;
        // … then the root-to-leaf path, top-down: one binary search at the
        // root …
        self.model.touch(self.array_id, 1);
        let mut pos = self.root_pred(q.y);
        let mut best = self.node_max(
            1,
            if pos == NONE {
                NONE
            } else {
                self.nodes[1].to_real[pos as usize]
            },
            q.y,
        );

        let depth = (usize::BITS - leaf.leading_zeros()) as usize; // bits in leaf
        let mut u = 1usize;
        for level in (0..depth - 1).rev() {
            let dir = (leaf >> level) & 1;
            let child = 2 * u + dir;
            // … then O(1) bridge-and-walk per descent.
            self.model.touch(self.array_id, child as u64);
            let mut cpos = if pos == NONE {
                NONE
            } else {
                self.nodes[u].to_child[dir][pos as usize]
            };
            // Walk forward over at most 3 unsampled child elements ≤ q.y.
            let caug = &self.nodes[child].aug;
            loop {
                let next = if cpos == NONE { 0 } else { cpos as usize + 1 };
                if next < caug.len() && caug[next] <= q.y {
                    cpos = next as u32;
                } else {
                    break;
                }
            }
            let real = if cpos == NONE {
                NONE
            } else {
                self.nodes[child].to_real[cpos as usize]
            };
            if let Some(r) = self.node_max(child, real, q.y) {
                if best.is_none_or(|b| r.weight > b.weight) {
                    best = Some(r);
                }
            }
            u = child;
            pos = cpos;
        }
        best
    }

    fn space_blocks(&self) -> u64 {
        let per = self.model.config().items_per_block::<f64>().max(1) as u64;
        let words: u64 = self
            .nodes
            .iter()
            .map(|n| (n.ys.len() + 4 * n.aug.len() + 4 * n.slab_max.len()) as u64)
            .sum();
        words.div_ceil(per).max(1) + self.search_blocks()
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Builder for [`CascadeStabMax`].
#[derive(Clone, Copy, Debug)]
pub struct CascadeStabMaxBuilder;

impl MaxBuilder<Rect, Point2> for CascadeStabMaxBuilder {
    type Index = CascadeStabMax;
    fn build(&self, model: &CostModel, items: Vec<Rect>) -> CascadeStabMax {
        CascadeStabMax::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        // One binary search plus O(1) per path node.
        (2.0 * (n.max(2) as f64).log2()).max(log_b(n, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topk_core::brute;

    fn mk(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x1: f64 = rng.gen_range(0.0..100.0);
                let y1: f64 = rng.gen_range(0.0..100.0);
                Rect::new(
                    x1,
                    x1 + rng.gen_range(0.0..30.0),
                    y1,
                    y1 + rng.gen_range(0.0..30.0),
                    i as u64 + 1,
                )
            })
            .collect()
    }

    #[test]
    fn matches_brute_on_random_inputs() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(700, 161);
        let idx = CascadeStabMax::build(&model, items.clone());
        let mut rng = StdRng::seed_from_u64(162);
        for _ in 0..400 {
            let q = Point2::new(rng.gen_range(-5.0..135.0), rng.gen_range(-5.0..135.0));
            let want = brute::max(&items, |r| r.contains(q));
            assert_eq!(
                idx.query_max(&q).map(|r| r.weight),
                want.map(|r| r.weight),
                "q={q:?}"
            );
        }
    }

    #[test]
    fn matches_the_uncascaded_structure() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(900, 163);
        let cascaded = CascadeStabMax::build(&model, items.clone());
        let plain = crate::EncMax::build(&model, items);
        let mut rng = StdRng::seed_from_u64(164);
        for _ in 0..300 {
            let q = Point2::new(rng.gen_range(0.0..130.0), rng.gen_range(0.0..130.0));
            assert_eq!(
                cascaded.query_max(&q).map(|r| r.weight),
                plain.query_max(&q).map(|r| r.weight),
                "q={q:?}"
            );
        }
    }

    #[test]
    fn exact_corner_queries() {
        let model = CostModel::ram();
        let items = vec![
            Rect::new(0.0, 10.0, 0.0, 10.0, 5),
            Rect::new(10.0, 20.0, 10.0, 20.0, 9),
            Rect::new(5.0, 15.0, 5.0, 15.0, 7),
        ];
        let idx = CascadeStabMax::build(&model, items.clone());
        for q in [
            Point2::new(10.0, 10.0),
            Point2::new(0.0, 0.0),
            Point2::new(15.0, 15.0),
            Point2::new(20.0, 20.0),
            Point2::new(20.0001, 20.0),
        ] {
            assert_eq!(
                idx.query_max(&q).map(|r| r.weight),
                brute::max(&items, |r| r.contains(q)).map(|r| r.weight),
                "q={q:?}"
            );
        }
    }

    #[test]
    fn augmented_catalogs_stay_bounded() {
        let model = CostModel::ram();
        let items = mk(2_000, 165);
        let idx = CascadeStabMax::build(&model, items);
        // Sampling every 4th from two children: |aug| ≤ 2·|real| overall.
        assert!(
            idx.aug_population() <= 2 * idx.real_population() + 64,
            "aug {} vs real {}",
            idx.aug_population(),
            idx.real_population()
        );
    }

    #[test]
    fn query_uses_single_binary_search() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(20_000, 166);
        let idx = CascadeStabMax::build(&model, items);
        model.reset();
        idx.query_max(&Point2::new(50.0, 50.0));
        let reads = model.report().reads;
        // log₂(aug_root) ≈ 16 probes + ~17 path nodes ≈ 33; far below the
        // ~17·15 of per-node binary searches.
        assert!(reads < 60, "reads {reads}");
    }

    #[test]
    fn query_reads_the_x_walk_the_root_probes_and_the_path() {
        let items = mk(3_000, 167);
        let model = CostModel::new(emsim::EmConfig::new(64));
        let idx = CascadeStabMax::build(&model, items.clone());
        for q in [
            Point2::new(-1.0, 50.0),
            Point2::new(50.0, 50.0),
            Point2::new(99.5, 3.0),
        ] {
            let mut walk = 0;
            idx.search.stab_index(&idx.xs, q.x, |_| walk += 1);
            // ⌈log_64 m⌉ levels for m ≈ 6 000 endpoints.
            assert_eq!(walk, 3);
            let aug = &idx.nodes[1].aug;
            let (mut lo, mut hi, mut probes) = (0, aug.len(), 0);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                probes += 1;
                if aug[mid] <= q.y {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let path = idx.cap.trailing_zeros() as u64;
            model.reset();
            idx.query_max(&q);
            assert_eq!(model.report().reads, walk + 1 + probes + path, "q={q:?}");
        }

        // Every read goes through the pool: a repeated query is free.
        let pooled = CostModel::new(emsim::EmConfig::with_memory(64, 4_096));
        let idx = CascadeStabMax::build(&pooled, items);
        let q = Point2::new(50.0, 50.0);
        idx.query_max(&q);
        pooled.reset();
        idx.query_max(&q);
        assert_eq!(pooled.report().reads, 0);
    }

    #[test]
    fn empty_input() {
        let model = CostModel::ram();
        let idx = CascadeStabMax::build(&model, vec![]);
        assert_eq!(idx.query_max(&Point2::new(1.0, 1.0)), None);
    }
}
