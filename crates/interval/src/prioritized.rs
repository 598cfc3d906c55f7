//! Prioritized interval stabbing: two interchangeable structures.
//!
//! * [`SegStab`] — segment tree whose canonical nodes hold their intervals
//!   in weight-descending block runs. Query: locate `q` with the tree's
//!   endpoint B-tree (`O(log_B n)`), walk the `O(log n)` path nodes, and
//!   scan each run down to `τ` (every run item stabs `q` by the canonical
//!   decomposition). A node record carries its run's heaviest weight, so a
//!   run whose top is below `τ` costs no block of its own. `O(n log n)`
//!   space, `O(log n + t/B)` query.
//! * [`PstStab`] — classic interval tree (median of endpoints); each node
//!   stores the intervals containing its center in **two priority search
//!   trees** (by left endpoint and by right endpoint). Query: descend the
//!   center path; at a node with center `c`, if `q ≤ c` every node interval
//!   has `hi ≥ c ≥ q`, so the stabbing condition reduces to the 3-sided
//!   query `lo ≤ q ∧ w ≥ τ` (symmetrically for `q > c`). Linear space,
//!   `O(log² n + t)` query.

use emsim::{BlockArray, CostModel};
use geom::OrderedF64;
use structures::segtree::{SegTreeOfSets, Summary};
use structures::PrioritySearchTree;
use topk_core::{log_b, PrioritizedBuilder, PrioritizedIndex, Weight};

use crate::{HasInterval, Interval};

/// A weight-descending run of elements in blocks (a segment-tree node
/// summary), with its heaviest weight kept in the node record.
pub struct WeightRun<E> {
    top: Weight,
    arr: BlockArray<E>,
}

impl<E> Summary for WeightRun<E> {
    fn space_blocks(&self) -> u64 {
        self.arr.blocks().max(1)
    }
}

/// Segment-tree prioritized stabbing structure, generic over the element
/// type. See the module docs.
pub struct SegStabG<E> {
    tree: SegTreeOfSets<WeightRun<E>>,
}

/// [`SegStabG`] over plain [`Interval`]s.
pub type SegStab = SegStabG<Interval>;

impl<E: HasInterval> SegStabG<E> {
    /// Build over the given elements.
    pub fn build(model: &CostModel, items: Vec<E>) -> Self {
        let tree = SegTreeOfSets::build(
            model,
            &items,
            |e| (e.ilo(), e.ihi()),
            |m, mut bucket| {
                bucket.sort_by_key(|e| std::cmp::Reverse(e.weight()));
                WeightRun {
                    top: bucket.first().map_or(0, E::weight),
                    arr: BlockArray::new(m, bucket),
                }
            },
        );
        SegStabG { tree }
    }
}

impl<E: HasInterval> PrioritizedIndex<E, f64> for SegStabG<E> {
    fn for_each_at_least(&self, q: &f64, tau: Weight, visit: &mut dyn FnMut(&E) -> bool) {
        self.tree.for_each_on_path(*q, &mut |run| {
            // The record was read on the path walk; the run is descending.
            if run.top < tau {
                return true;
            }
            let mut keep_going = true;
            run.arr.scan_while(0, run.arr.len(), |e| {
                if e.weight() < tau {
                    return false;
                }
                if !visit(e) {
                    keep_going = false;
                    return false;
                }
                true
            });
            keep_going
        });
    }

    fn space_blocks(&self) -> u64 {
        self.tree.space_blocks()
    }

    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// Builder for [`SegStab`].
#[derive(Clone, Copy, Debug)]
pub struct SegStabBuilder;

impl PrioritizedBuilder<Interval, f64> for SegStabBuilder {
    type Index = SegStab;
    fn build(&self, model: &CostModel, items: Vec<Interval>) -> SegStab {
        SegStab::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        // O(log n) path nodes; clamp at the Theorem 1 precondition.
        ((n.max(2) as f64).log2()).max(log_b(n, b))
    }
}

struct ItNode<E> {
    center: f64,
    /// Elements containing `center`, keyed by left endpoint (for `q ≤ c`).
    by_lo: PrioritySearchTree<OrderedF64, E>,
    /// The same elements keyed by *negated* right endpoint, so the 3-sided
    /// query `hi ≥ q` becomes `-hi ≤ -q` (for `q > c`).
    by_neg_hi: PrioritySearchTree<OrderedF64, E>,
    left: Option<usize>,
    right: Option<usize>,
}

/// Interval-tree + PST prioritized stabbing structure, generic over the
/// element type. See the module docs.
pub struct PstStabG<E> {
    nodes: Vec<ItNode<E>>,
    root: Option<usize>,
    len: usize,
    array_id: u64,
    model: CostModel,
    /// Conservative finite stand-ins for ±∞ in 3-sided queries.
    min_key: f64,
    max_key: f64,
}

/// [`PstStabG`] over plain [`Interval`]s.
pub type PstStab = PstStabG<Interval>;

impl<E: HasInterval> PstStabG<E> {
    /// Build over the given elements.
    pub fn build(model: &CostModel, items: Vec<E>) -> Self {
        let len = items.len();
        let mut min_key = 0.0f64;
        let mut max_key = 0.0f64;
        for iv in &items {
            min_key = min_key.min(iv.ilo());
            max_key = max_key.max(iv.ihi());
        }
        let mut s = PstStabG {
            nodes: Vec::new(),
            root: None,
            len,
            array_id: model.new_array_id(),
            model: model.clone(),
            min_key,
            max_key,
        };
        if !items.is_empty() {
            let root = s.build_rec(model, items);
            s.root = Some(root);
        }
        s.model.charge_writes(s.nodes.len() as u64);
        s
    }

    fn build_rec(&mut self, model: &CostModel, items: Vec<E>) -> usize {
        // Median endpoint as center.
        let mut endpoints: Vec<f64> = Vec::with_capacity(items.len() * 2);
        for iv in &items {
            endpoints.push(iv.ilo());
            endpoints.push(iv.ihi());
        }
        let mid = endpoints.len() / 2;
        endpoints.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).unwrap());
        let center = endpoints[mid];

        let mut here = Vec::new();
        let mut left_items = Vec::new();
        let mut right_items = Vec::new();
        for iv in items {
            if iv.istabs(center) {
                here.push(iv);
            } else if iv.ihi() < center {
                left_items.push(iv);
            } else {
                right_items.push(iv);
            }
        }
        // Degenerate split guard (all endpoints equal): everything stabs
        // the center, so both child lists are empty and recursion stops.
        let by_lo = PrioritySearchTree::build(
            model,
            here.iter()
                .map(|iv| (OrderedF64::new(iv.ilo()), iv.clone()))
                .collect(),
        );
        let by_neg_hi = PrioritySearchTree::build(
            model,
            here.iter()
                .map(|iv| (OrderedF64::new(-iv.ihi()), iv.clone()))
                .collect(),
        );
        let left = if left_items.is_empty() {
            None
        } else {
            Some(self.build_rec(model, left_items))
        };
        let right = if right_items.is_empty() {
            None
        } else {
            Some(self.build_rec(model, right_items))
        };
        self.nodes.push(ItNode {
            center,
            by_lo,
            by_neg_hi,
            left,
            right,
        });
        self.nodes.len() - 1
    }

    /// Depth of the interval tree (diagnostics).
    pub fn depth(&self) -> usize {
        fn rec<E>(nodes: &[ItNode<E>], u: Option<usize>) -> usize {
            match u {
                None => 0,
                Some(u) => {
                    1 + rec(nodes, nodes[u].left).max(rec(nodes, nodes[u].right))
                }
            }
        }
        rec(&self.nodes, self.root)
    }
}

impl<E: HasInterval> PrioritizedIndex<E, f64> for PstStabG<E> {
    fn for_each_at_least(&self, q: &f64, tau: Weight, visit: &mut dyn FnMut(&E) -> bool) {
        let q = *q;
        let mut u = self.root;
        let mut stopped = false;
        while let Some(i) = u {
            if stopped {
                return;
            }
            self.model.touch(self.array_id, i as u64);
            let node = &self.nodes[i];
            if q <= node.center {
                // Node intervals have hi ≥ center ≥ q; report lo ≤ q, w ≥ τ.
                node.by_lo.query_3sided(
                    OrderedF64::new(self.min_key.min(q)),
                    OrderedF64::new(q),
                    tau,
                    &mut |iv| {
                        if !visit(iv) {
                            stopped = true;
                            return false;
                        }
                        true
                    },
                );
                if q == node.center {
                    return; // deeper intervals cannot contain the center
                }
                u = node.left;
            } else {
                // Node intervals have lo ≤ center < q; report hi ≥ q.
                node.by_neg_hi.query_3sided(
                    OrderedF64::new((-self.max_key).min(-q)),
                    OrderedF64::new(-q),
                    tau,
                    &mut |iv| {
                        if !visit(iv) {
                            stopped = true;
                            return false;
                        }
                        true
                    },
                );
                u = node.right;
            }
        }
    }

    fn space_blocks(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.by_lo.space_blocks() + n.by_neg_hi.space_blocks() + 1)
            .sum::<u64>()
            .max(1)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Builder for [`PstStab`].
#[derive(Clone, Copy, Debug)]
pub struct PstStabBuilder;

impl PrioritizedBuilder<Interval, f64> for PstStabBuilder {
    type Index = PstStab;
    fn build(&self, model: &CostModel, items: Vec<Interval>) -> PstStab {
        PstStab::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let lg = (n.max(2) as f64).log2();
        (lg * lg).max(log_b(n, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topk_core::brute;

    pub(crate) fn mk_intervals(n: usize, seed: u64) -> Vec<Interval> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let a: f64 = rng.gen_range(0.0..1000.0);
                let len: f64 = rng.gen_range(0.0..200.0);
                Interval::new(a, a + len, (i as u64) * 2 + 1)
            })
            .collect()
    }

    fn check_prioritized<I: PrioritizedIndex<Interval, f64>>(
        idx: &I,
        items: &[Interval],
        queries: &[f64],
        taus: &[u64],
    ) {
        for &q in queries {
            for &tau in taus {
                let mut got = Vec::new();
                idx.query(&q, tau, &mut got);
                let mut got_w: Vec<u64> = got.iter().map(|iv| iv.weight).collect();
                got_w.sort_unstable();
                let want = brute::prioritized(items, |iv| iv.stabs(q), tau);
                let mut want_w: Vec<u64> = want.iter().map(|iv| iv.weight).collect();
                want_w.sort_unstable();
                assert_eq!(got_w, want_w, "q={q} tau={tau}");
                // Everything reported must actually stab.
                assert!(got.iter().all(|iv| iv.stabs(q)));
            }
        }
    }

    #[test]
    fn segstab_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk_intervals(1_000, 42);
        let idx = SegStab::build(&model, items.clone());
        check_prioritized(
            &idx,
            &items,
            &[0.0, 100.0, 500.5, 999.0, 1200.0, -5.0],
            &[0, 1, 500, 1_500, 2_100],
        );
    }

    #[test]
    fn pststab_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk_intervals(1_000, 43);
        let idx = PstStab::build(&model, items.clone());
        check_prioritized(
            &idx,
            &items,
            &[0.0, 100.0, 500.5, 999.0, 1200.0, -5.0],
            &[0, 1, 500, 1_500, 2_100],
        );
    }

    #[test]
    fn pststab_query_at_exact_endpoints() {
        let model = CostModel::ram();
        let items = vec![
            Interval::new(0.0, 10.0, 1),
            Interval::new(10.0, 20.0, 3),
            Interval::new(5.0, 15.0, 5),
            Interval::new(10.0, 10.0, 7),
        ];
        let idx = PstStab::build(&model, items.clone());
        check_prioritized(&idx, &items, &[0.0, 5.0, 10.0, 15.0, 20.0], &[0, 4]);
    }

    #[test]
    fn pststab_space_is_linear() {
        let b = 64;
        let model = CostModel::new(emsim::EmConfig::new(b));
        let n = 50_000;
        let items = mk_intervals(n, 44);
        let idx = PstStab::build(&model, items);
        // 3 words per interval → ~21 per block → ~2400 blocks; PST adds
        // internal nodes. Stay within a small constant multiple.
        let n_blocks = (n as u64 * 3).div_ceil(b as u64);
        assert!(
            idx.space_blocks() <= 6 * n_blocks,
            "space {} blocks vs n-blocks {}",
            idx.space_blocks(),
            n_blocks
        );
    }

    #[test]
    fn segstab_space_has_log_factor_but_bounded() {
        let b = 64;
        let model = CostModel::new(emsim::EmConfig::new(b));
        let n = 20_000usize;
        let items = mk_intervals(n, 45);
        let idx = SegStab::build(&model, items);
        let n_blocks = (n as u64 * 3).div_ceil(b as u64);
        let logn = (n as f64).log2() as u64 + 1;
        assert!(
            idx.space_blocks() <= 12 * n_blocks * logn,
            "space {} vs bound {}",
            idx.space_blocks(),
            8 * n_blocks * logn
        );
    }

    #[test]
    fn pststab_depth_is_logarithmic() {
        let model = CostModel::ram();
        let items = mk_intervals(10_000, 46);
        let idx = PstStab::build(&model, items);
        assert!(idx.depth() <= 40, "depth {}", idx.depth());
    }

    #[test]
    fn nested_intervals() {
        let model = CostModel::ram();
        // All intervals share the midpoint — worst case for interval trees.
        let items: Vec<Interval> = (0..200)
            .map(|i| Interval::new(-(i as f64) - 1.0, i as f64 + 1.0, i as u64 + 1))
            .collect();
        let seg = SegStab::build(&model, items.clone());
        let pst = PstStab::build(&model, items.clone());
        check_prioritized(&seg, &items, &[0.0, -50.0, 50.0, -201.0, 201.0], &[0, 100]);
        check_prioritized(&pst, &items, &[0.0, -50.0, 50.0, -201.0, 201.0], &[0, 100]);
    }

    #[test]
    fn empty_structures() {
        let model = CostModel::ram();
        let seg = SegStab::build(&model, vec![]);
        let pst = PstStab::build(&model, vec![]);
        let mut out = Vec::new();
        seg.query(&1.0, 0, &mut out);
        assert!(out.is_empty());
        pst.query(&1.0, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn segstab_skips_runs_below_tau_from_the_node_record() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk_intervals(1_500, 48);
        let idx = SegStab::build(&model, items.clone());
        let mut xs: Vec<f64> = items.iter().flat_map(|iv| [iv.lo, iv.hi]).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        // ⌈log_64 m⌉ = 2 search levels for m ≈ 3 000 endpoints.
        assert!(xs.len() > 64 && xs.len() <= 64 * 64);
        let levels = 2;
        let tau = items.iter().map(|iv| iv.weight).max().unwrap() + 1;
        for q in [-3.0, 0.0, 250.25, 600.0, 1100.0] {
            let mut nodes = 0;
            idx.tree.for_each_on_path(q, &mut |_| {
                nodes += 1;
                true
            });
            model.reset();
            let mut got = Vec::new();
            idx.query(&q, tau, &mut got);
            assert!(got.is_empty());
            assert_eq!(model.report().reads, levels + nodes, "q={q}");
        }
    }

    #[test]
    fn segstab_query_cost_is_output_sensitive() {
        let b = 64;
        let model = CostModel::new(emsim::EmConfig::new(b));
        let n = 100_000;
        let items = mk_intervals(n, 47);
        let idx = SegStab::build(&model, items.clone());
        // τ just below the global max → t is tiny.
        let tau = (n as u64) * 2 - 20;
        model.reset();
        let mut t = 0;
        idx.query(&500.0, tau, &mut Vec::new());
        idx.for_each_at_least(&500.0, tau, &mut |_| {
            t += 1;
            true
        });
        let reads = model.report().reads;
        assert!(reads < 300, "reads {reads} (t = {t})");
    }
}
