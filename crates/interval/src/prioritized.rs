//! Prioritized interval stabbing: two interchangeable structures.
//!
//! * [`SegStab`] — segment tree whose canonical nodes hold their intervals
//!   in weight-descending block runs. Query: locate `q` with the tree's
//!   endpoint B-tree (`O(log_B n)`), walk the `O(log n)` path nodes, and
//!   scan each run down to `τ` (every run item stabs `q` by the canonical
//!   decomposition). A node record carries its run's heaviest weight, so a
//!   run whose top is below `τ` costs no block of its own. The records are
//!   3 words, stored in subtree blocks of `h = ⌊log₂(R + 1)⌋` levels
//!   (`R` records to a block, `h = 4` at `B = 64`), so the walk reads
//!   at most `⌈depth/h⌉` record blocks. `O(n log n)` space,
//!   `O(log n + t/B)` query.
//!
//!   In memory each element is stored once: the elements are stable-sorted
//!   by descending weight, and a run is a range of the flat array of
//!   positions into them that the tree's build returns (weight
//!   descending, ties in input order). The
//!   cost model still sees a block layout of copies: all runs share one
//!   array id, run r owns blocks `[first_block_r, first_block_r +
//!   ⌈len_r/B'⌉)` (`B'` elements per block), a scan reads each block as it
//!   reaches it, and build writes and space count those blocks. No run has
//!   a fallible read path, so none mirrors block headers to the device.
//! * [`PstStab`] — classic interval tree (median of endpoints); each node
//!   stores the intervals containing its center in **two priority search
//!   trees** (by left endpoint and by right endpoint). Query: descend the
//!   center path; at a node with center `c`, if `q ≤ c` every node interval
//!   has `hi ≥ c ≥ q`, so the stabbing condition reduces to the 3-sided
//!   query `lo ≤ q ∧ w ≥ τ` (symmetrically for `q > c`). Each of the
//!   `O(log n)` path nodes costs one read for its record, which holds its
//!   PSTs' root summaries, so a PST with nothing in range at or above `τ`
//!   costs no read; the 3-sided query at a node with `n_v` intervals costs
//!   `O(log₂(n_v/B) + t_v/B)` reads. Linear space, `O(log² n + t/B)` query.

use emsim::CostModel;
use geom::OrderedF64;
use structures::segtree::SegTreeOfSets;
use structures::PrioritySearchTree;
use topk_core::{log_b, PrioritizedBuilder, PrioritizedIndex, Weight};

use crate::{HasInterval, Interval};

/// A segment-tree node's run: `len` positions into the weight-sorted
/// elements, from `start` in the tree's position array, so weight
/// descending. It occupies blocks `first_block..` of the runs' array id,
/// `B'` elements to a block. The record keeps the run's heaviest weight.
struct WeightRun {
    top: Weight,
    start: u32,
    len: u32,
    first_block: u64,
}

/// Segment-tree prioritized stabbing structure, generic over the element
/// type. See the module docs.
pub struct SegStabG<E> {
    /// The elements, stable-sorted by descending weight.
    elems: Vec<E>,
    /// The runs back to back: positions into `elems`, ascending in each.
    positions: Vec<u32>,
    tree: SegTreeOfSets<WeightRun>,
    /// `B'`: elements of type `E` per block.
    per_block: usize,
    /// The array id the runs' blocks are charged under.
    array_id: u64,
    model: CostModel,
}

/// [`SegStabG`] over plain [`Interval`]s.
pub type SegStab = SegStabG<Interval>;

impl<E: HasInterval> SegStabG<E> {
    /// Build over the given elements.
    pub fn build(model: &CostModel, mut elems: Vec<E>) -> Self {
        // Stable: equal weights keep input order within every run.
        elems.sort_by_key(|e| std::cmp::Reverse(e.weight()));
        let per_block = model.config().items_per_block::<E>();
        let mut blocks = 0u64;
        let (tree, positions) = SegTreeOfSets::build(
            model,
            &elems,
            |e| (e.ilo(), e.ihi()),
            |start, bucket| {
                let run = WeightRun {
                    top: elems[bucket[0] as usize].weight(),
                    start: u32::try_from(start).expect("run start fits u32"),
                    len: u32::try_from(bucket.len()).expect("run length fits u32"),
                    first_block: blocks,
                };
                blocks += bucket.len().div_ceil(per_block) as u64;
                run
            },
        );
        model.charge_writes(blocks);
        SegStabG {
            elems,
            positions,
            tree,
            per_block,
            array_id: model.new_array_id(),
            model: model.clone(),
        }
    }
}

impl<E: HasInterval> PrioritizedIndex<E, f64> for SegStabG<E> {
    fn for_each_at_least(&self, q: &f64, tau: Weight, visit: &mut dyn FnMut(&E) -> bool) {
        self.tree.for_each_on_path(*q, &mut |run| {
            // The record was read on the path walk; the run is descending.
            if run.top < tau {
                return true;
            }
            // Charge each block of the run as the scan reaches it.
            let run_positions = &self.positions[run.start as usize..][..run.len as usize];
            for (i, &p) in run_positions.iter().enumerate() {
                if i % self.per_block == 0 {
                    let block = run.first_block + (i / self.per_block) as u64;
                    self.model.touch(self.array_id, block);
                }
                let e = &self.elems[p as usize];
                if e.weight() < tau {
                    return true;
                }
                if !visit(e) {
                    return false;
                }
            }
            true
        });
    }

    fn space_blocks(&self) -> u64 {
        let per = self.per_block as u64;
        self.tree
            .space_blocks(|run| u64::from(run.len).div_ceil(per).max(1))
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

/// An interval-tree node record: its center, its children and the handles
/// of its two PSTs, whose root summaries (key bounds, top weight, address)
/// sit in the record, so a PST that cannot answer costs no read of its own.
/// Eleven words with `f64` keys, one block.
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
        let by_lo = PrioritySearchTree::build(model, here.clone(), |iv| OrderedF64::new(iv.ilo()));
        let by_neg_hi = PrioritySearchTree::build(model, here, |iv| OrderedF64::new(-iv.ihi()));
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
                Some(u) => 1 + rec(nodes, nodes[u].left).max(rec(nodes, nodes[u].right)),
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
    use structures::segtree::{canonical, stab_index, RecordGroups};
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

    /// The record groups a stab at `q` reads in a segment tree over
    /// `items`: the non-empty nodes on its leaf-to-root path, found from
    /// the canonical decomposition, counted once per band of `h` levels.
    /// Also returns how many such nodes there are.
    fn path_record_groups(items: &[Interval], q: f64, h: u32) -> (usize, u64) {
        let mut xs: Vec<f64> = items.iter().flat_map(|iv| [iv.lo, iv.hi]).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let cap = (2 * xs.len() + 1).next_power_of_two();
        let mut filled = vec![false; 2 * cap];
        for iv in items {
            let (a, b) = (stab_index(&xs, iv.lo), stab_index(&xs, iv.hi));
            canonical(cap, a, b, |u| filled[u] = true);
        }
        let leaf = cap + stab_index(&xs, q);
        let mut bands: Vec<u32> = std::iter::successors(Some(leaf), |&u| (u > 1).then_some(u / 2))
            .filter(|&u| filled[u])
            .map(|u| u.ilog2() / h)
            .collect();
        let nodes = bands.len();
        bands.dedup();
        (nodes, bands.len() as u64)
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
        // A 3-word `WeightRun` record: 21 to a block, 4 levels to a group.
        assert_eq!(RecordGroups::of::<WeightRun>(model.config()).levels(), 4);
        let tau = items.iter().map(|iv| iv.weight).max().unwrap() + 1;
        for q in [-3.0, 0.0, 250.25, 600.0, 1100.0] {
            let mut nodes = 0;
            idx.tree.for_each_on_path(q, &mut |_| {
                nodes += 1;
                true
            });
            let (filled, groups) = path_record_groups(&items, q, 4);
            assert_eq!(nodes, filled, "q={q}");
            model.reset();
            let mut got = Vec::new();
            idx.query(&q, tau, &mut got);
            assert!(got.is_empty());
            assert_eq!(model.report().reads, levels + groups, "q={q}");
        }
    }

    /// Every run of `idx` once, as `(start, len, first_block, top)`, found
    /// by walking the path of a point in each elementary slab.
    fn runs(idx: &SegStab, items: &[Interval]) -> Vec<(u32, u32, u64, Weight)> {
        let mut xs: Vec<f64> = items.iter().flat_map(|iv| [iv.lo, iv.hi]).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut qs = vec![xs[0] - 1.0, xs[xs.len() - 1] + 1.0];
        qs.extend(
            xs.windows(2)
                .flat_map(|w| [w[0], f64::midpoint(w[0], w[1])]),
        );
        let mut runs = Vec::new();
        for q in qs {
            idx.tree.for_each_on_path(q, &mut |run| {
                runs.push((run.start, run.len, run.first_block, run.top));
                true
            });
        }
        runs.sort_unstable();
        runs.dedup();
        runs
    }

    /// `⌈log_fanout m⌉`, at least 1: the levels of an endpoint B-tree.
    fn search_levels(m: usize, fanout: usize) -> u64 {
        let (mut levels, mut reach) = (1, fanout);
        while reach < m {
            levels += 1;
            reach *= fanout;
        }
        levels
    }

    #[test]
    fn segstab_runs_own_disjoint_blocks_and_space_counts_them() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let per = model.config().items_per_block::<Interval>() as u64;
        let items = mk_intervals(2_000, 50);
        let idx = SegStab::build(&model, items.clone());
        let mut runs = runs(&idx, &items);
        // Runs tile the position array and each is weight-descending.
        assert_eq!(
            runs.iter().map(|r| r.1 as usize).sum::<usize>(),
            idx.positions.len()
        );
        for &(start, len, _, top) in &runs {
            let ws: Vec<Weight> = idx.positions[start as usize..][..len as usize]
                .iter()
                .map(|&p| idx.elems[p as usize].weight)
                .collect();
            assert_eq!(ws[0], top);
            assert!(ws.windows(2).all(|w| w[0] > w[1]));
        }
        // No two runs share a block id.
        runs.sort_unstable_by_key(|r| r.2);
        for w in runs.windows(2) {
            assert!(w[0].2 + u64::from(w[0].1).div_ceil(per) <= w[1].2, "{w:?}");
        }
        let run_blocks: u64 = runs
            .iter()
            .map(|r| u64::from(r.1).div_ceil(per).max(1))
            .sum();
        assert_eq!(
            idx.space_blocks(),
            idx.tree.space_blocks(|_| 0) + run_blocks
        );
    }

    #[test]
    fn segstab_stab_reads_levels_records_and_scanned_blocks() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let per = model.config().items_per_block::<Interval>();
        let items = mk_intervals(3_000, 51);
        let idx = SegStab::build(&model, items.clone());
        let mut xs: Vec<f64> = items.iter().flat_map(|iv| [iv.lo, iv.hi]).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let m = xs.len();
        let levels = search_levels(m, model.config().items_per_block::<f64>());
        for q in [-3.0, 0.0, 250.25, 600.0, 999.5, 1100.0] {
            // The path's record groups, 4 levels to a group (see above).
            let (_, groups) = path_record_groups(&items, q, 4);
            for tau in [0, 1_000, 4_000, 5_500, 6_001] {
                // Per path node: its run's blocks up to and including the
                // first item below τ.
                let mut blocks = 0;
                idx.tree.for_each_on_path(q, &mut |run| {
                    if run.top >= tau {
                        let pos = &idx.positions[run.start as usize..][..run.len as usize];
                        let above = pos
                            .iter()
                            .take_while(|&&p| idx.elems[p as usize].weight >= tau)
                            .count();
                        let scanned = (above + 1).min(pos.len());
                        blocks += scanned.div_ceil(per) as u64;
                    }
                    true
                });
                model.reset();
                let mut got = Vec::new();
                idx.query(&q, tau, &mut got);
                assert_eq!(
                    model.report().reads,
                    levels + groups + blocks,
                    "q={q} tau={tau}"
                );
            }
        }
    }

    #[test]
    fn segstab_run_of_one_block_and_one_more_costs_two_blocks() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let per = model.config().items_per_block::<Interval>();
        // One interval shape, so one run; 2 endpoints, so 1 search level.
        for extra in [0, 5] {
            let items: Vec<Interval> = (0..per + 1 + extra)
                .map(|i| Interval::new(0.0, 10.0, 100 + i as u64))
                .collect();
            let idx = SegStab::build(&model, items);
            // The B'+1 heaviest are at or above τ.
            let tau = 100 + extra as u64;
            model.reset();
            let mut got = Vec::new();
            idx.query(&5.0, tau, &mut got);
            assert_eq!(got.len(), per + 1);
            assert_eq!(model.report().reads, 1 + 1 + 2, "extra={extra}");
        }
    }

    #[test]
    fn pststab_reads_only_its_path_when_tau_is_above_every_weight() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk_intervals(1_500, 49);
        let idx = PstStab::build(&model, items.clone());
        let tau = items.iter().map(|iv| iv.weight).max().unwrap() + 1;
        let root_center = idx.nodes[idx.root.unwrap()].center;
        for q in [-3.0, 0.0, 250.25, 600.0, 1100.0, root_center] {
            // The interval-tree nodes on q's path; each record holds its
            // PSTs' root summaries, which rule both trees out.
            let mut path = 0;
            let mut u = idx.root;
            while let Some(i) = u {
                path += 1;
                let node = &idx.nodes[i];
                u = if q < node.center {
                    node.left
                } else if q > node.center {
                    node.right
                } else {
                    None
                };
            }
            model.reset();
            let mut got = Vec::new();
            idx.query(&q, tau, &mut got);
            assert!(got.is_empty());
            assert_eq!(model.report().reads, path, "q={q}");
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
