//! A generic segment tree over 1D intervals with a per-canonical-node
//! summary structure.
//!
//! The classic tool behind §5.2's point-enclosure structures: each input
//! interval is assigned to `O(log n)` canonical nodes; a stabbing query at
//! `q` visits the `O(log n)` nodes on one root-to-leaf path and consults
//! each node's summary. The summary type is caller-supplied, so the same
//! tree serves as
//!
//! * a prioritized interval-stabbing structure (summary = elements sorted
//!   by weight descending in blocks → `O(log n + t)` reporting), and
//! * the outer x-tree of the 2D point-enclosure structures (summary = an
//!   inner 1D y-structure).
//!
//! Elementary intervals are the points `xs[i]` and the open gaps between
//! them (plus the two unbounded gaps), so closed input intervals and
//! arbitrary real query points are handled exactly.

use emsim::CostModel;

/// The `slot` of a node with no value.
const EMPTY: u32 = u32::MAX;

/// Per-node values of a heap-shaped tree, stored only for the nodes that
/// have one: `slot[u]` is node `u`'s position in a dense `values` vector,
/// or `u32::MAX`. Most canonical nodes of a segment tree hold nothing, so
/// this costs 4 bytes per empty node instead of one empty value each.
pub struct NodeArena<S> {
    slot: Vec<u32>,
    values: Vec<S>,
}

impl<S> NodeArena<S> {
    /// An arena over node ids `0..nodes`, all empty.
    pub fn new(nodes: usize) -> Self {
        NodeArena {
            slot: vec![EMPTY; nodes],
            values: Vec::new(),
        }
    }

    /// An arena with a value for each node of non-zero `counts[u]`, made by
    /// `make(counts[u])` in node order. Reuses `counts` as the slot index.
    pub fn from_counts(mut counts: Vec<u32>, mut make: impl FnMut(u32) -> S) -> Self {
        let mut values = Vec::new();
        for s in &mut counts {
            if *s == 0 {
                *s = EMPTY;
            } else {
                values.push(make(*s));
                *s = u32::try_from(values.len() - 1).expect("arena node count fits u32");
            }
        }
        NodeArena {
            slot: counts,
            values,
        }
    }

    /// Node `u`'s value, if it has one.
    pub fn get(&self, u: usize) -> Option<&S> {
        match self.slot[u] {
            EMPTY => None,
            i => Some(&self.values[i as usize]),
        }
    }

    /// Node `u`'s value, if it has one.
    pub fn get_mut(&mut self, u: usize) -> Option<&mut S> {
        match self.slot[u] {
            EMPTY => None,
            i => Some(&mut self.values[i as usize]),
        }
    }

    /// Node `u`'s value, created with `S::default()` if it has none.
    pub fn get_or_default_mut(&mut self, u: usize) -> &mut S
    where
        S: Default,
    {
        if self.slot[u] == EMPTY {
            self.slot[u] = u32::try_from(self.values.len()).expect("arena node count fits u32");
            self.values.push(S::default());
        }
        &mut self.values[self.slot[u] as usize]
    }

    /// The values present, in the order they were created.
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// The same nodes, each value mapped through `f`.
    pub fn map<T>(self, f: impl FnMut(S) -> T) -> NodeArena<T> {
        NodeArena {
            slot: self.slot,
            values: self.values.into_iter().map(f).collect(),
        }
    }
}

/// A summary structure stored at a canonical node.
pub trait Summary {
    /// Space in blocks.
    fn space_blocks(&self) -> u64;
}

/// A segment tree whose canonical nodes carry summaries of type `S`.
pub struct SegTreeOfSets<S> {
    /// Sorted, deduplicated endpoint coordinates.
    xs: Vec<f64>,
    /// The summaries of the non-empty nodes of the heap-shaped tree over
    /// `2·xs.len() + 1` elementary leaves.
    nodes: NodeArena<S>,
    n_leaves: usize,
    len: usize,
    array_id: u64,
    model: CostModel,
}

impl<S: Summary> SegTreeOfSets<S> {
    /// Build over `items`, where `range(item) = (lo, hi)` is a closed
    /// interval with `lo ≤ hi`, and `make_summary` turns each canonical
    /// node's assigned items into its summary.
    pub fn build<E: Clone>(
        model: &CostModel,
        items: &[E],
        range: impl Fn(&E) -> (f64, f64),
        mut make_summary: impl FnMut(&CostModel, Vec<E>) -> S,
    ) -> Self {
        let mut xs: Vec<f64> = Vec::with_capacity(items.len() * 2);
        for e in items {
            let (lo, hi) = range(e);
            assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad interval [{lo}, {hi}]");
            xs.push(lo);
            xs.push(hi);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();

        let m = xs.len();
        let n_leaves = (2 * m + 1).max(1);
        // Heap layout sized to the next power of two.
        let cap = n_leaves.next_power_of_two();
        // Each interval covers the elementary span [2·idx(lo)+1, 2·idx(hi)+1].
        let span = |e: &E| {
            let (lo, hi) = range(e);
            (2 * lower_index(&xs, lo) + 1, 2 * lower_index(&xs, hi) + 1)
        };

        // Pass 1: count each canonical node's items.
        let mut counts: Vec<u32> = vec![0; 2 * cap];
        for e in items {
            let (a, b) = span(e);
            canonical(cap, a, b, |u| counts[u] += 1);
        }
        // Give each non-empty node an exactly sized bucket, then (pass 2)
        // fill the buckets, each in input order.
        let mut buckets = NodeArena::from_counts(counts, |c| Vec::with_capacity(c as usize));
        for e in items {
            let (a, b) = span(e);
            canonical(cap, a, b, |u| {
                buckets.get_mut(u).expect("counted node").push(e.clone());
            });
        }

        let nodes = buckets.map(|bucket| make_summary(model, bucket));
        model.charge_writes(nodes.values().len() as u64);
        SegTreeOfSets {
            xs,
            nodes,
            n_leaves: cap,
            len: items.len(),
            array_id: model.new_array_id(),
            model: model.clone(),
        }
    }

    /// Number of intervals stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total space: summaries plus the endpoint array.
    pub fn space_blocks(&self) -> u64 {
        let per = self.model.config().items_per_block::<f64>().max(1) as u64;
        let xs_blocks = (self.xs.len() as u64).div_ceil(per);
        let summaries: u64 = self.nodes.values().iter().map(Summary::space_blocks).sum();
        xs_blocks + summaries
    }

    /// Visit the summaries on the root-to-leaf path for stabbing point `q`
    /// (every interval containing `q` lives in exactly one of them).
    /// Charges one I/O per node on the path (`O(log n)`), plus the
    /// predecessor search on the endpoint array. Stops early when `visit`
    /// returns `false`.
    pub fn for_each_on_path(&self, q: f64, visit: &mut dyn FnMut(&S) -> bool) {
        if self.len == 0 {
            return;
        }
        // Predecessor search: which elementary interval contains q?
        // Charged as log2 probes of the xs array.
        let elem = stab_index(&self.xs, q);
        self.model
            .charge_reads((self.xs.len().max(2) as f64).log2().ceil() as u64);
        let mut u = self.n_leaves + elem; // leaf in heap layout
        while u >= 1 {
            if let Some(summary) = self.nodes.get(u) {
                self.model.touch(self.array_id, u as u64);
                if !visit(summary) {
                    return;
                }
            }
            if u == 1 {
                break;
            }
            u /= 2;
        }
    }
}

/// Index of `v` in sorted `xs` (must be present — intervals' endpoints are).
fn lower_index(xs: &[f64], v: f64) -> usize {
    let i = xs.partition_point(|&x| x < v);
    debug_assert!(i < xs.len() && xs[i] == v, "endpoint must be a grid point");
    i
}

/// Which elementary interval (0..2m) contains the query point?
/// `2i+1` = the point `xs[i]`; `2i` = the open gap before it; `2m` = after.
pub fn stab_index(xs: &[f64], q: f64) -> usize {
    let m = xs.len();
    let i = xs.partition_point(|&x| x < q);
    if i < m && xs[i] == q {
        2 * i + 1
    } else {
        2 * i
    }
}

/// Visit the canonical nodes of the leaf span `[a, b]` in the heap-shaped
/// tree over `n_leaves` leaves (iterative bottom-up decomposition, the
/// standard trick).
pub fn canonical(n_leaves: usize, a: usize, b: usize, mut f: impl FnMut(usize)) {
    let mut l = a + n_leaves;
    let mut r = b + n_leaves + 1; // exclusive
    while l < r {
        if l & 1 == 1 {
            f(l);
            l += 1;
        }
        if r & 1 == 1 {
            r -= 1;
            f(r);
        }
        l /= 2;
        r /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trivial summary: the raw items.
    struct Raw(Vec<(f64, f64, u64)>);
    impl Summary for Raw {
        fn space_blocks(&self) -> u64 {
            1 + self.0.len() as u64 / 16
        }
    }

    fn build_raw(
        model: &CostModel,
        items: &[(f64, f64, u64)],
    ) -> SegTreeOfSets<Raw> {
        SegTreeOfSets::build(model, items, |&(lo, hi, _)| (lo, hi), |_, v| Raw(v))
    }

    fn stab_brute(items: &[(f64, f64, u64)], q: f64) -> Vec<u64> {
        let mut v: Vec<u64> = items
            .iter()
            .filter(|&&(lo, hi, _)| lo <= q && q <= hi)
            .map(|&(_, _, w)| w)
            .collect();
        v.sort_unstable();
        v
    }

    fn stab_tree(tree: &SegTreeOfSets<Raw>, q: f64) -> Vec<u64> {
        let mut v = Vec::new();
        tree.for_each_on_path(q, &mut |s| {
            // Canonical decomposition: EVERY item in a path summary contains q.
            for &(lo, hi, w) in &s.0 {
                assert!(lo <= q && q <= hi, "non-stabbing item in path node");
                v.push(w);
            }
            true
        });
        v.sort_unstable();
        v
    }

    #[test]
    fn node_arena_stores_only_filled_nodes() {
        let mut arena: NodeArena<Vec<u32>> = NodeArena::new(8);
        assert!(arena.get(3).is_none());
        assert!(arena.get_mut(3).is_none());
        arena.get_or_default_mut(5).push(1);
        arena.get_or_default_mut(2).push(2);
        arena.get_or_default_mut(5).push(3);
        assert_eq!(arena.get(5), Some(&vec![1, 3]));
        assert_eq!(arena.values(), &[vec![1, 3], vec![2]]);

        let counted = NodeArena::from_counts(vec![0, 2, 0, 1], |c| c * 10);
        assert_eq!(
            (counted.get(0), counted.get(1), counted.get(3)),
            (None, Some(&20), Some(&10))
        );
        let mapped = counted.map(|v| v + 1);
        assert_eq!(mapped.values(), &[21, 11]);
        assert_eq!(mapped.get(3), Some(&11));
    }

    #[test]
    fn canonical_decomposition_is_exact() {
        let model = CostModel::ram();
        let items = vec![
            (0.0, 10.0, 1u64),
            (2.0, 3.0, 2),
            (3.0, 7.0, 3),
            (5.0, 5.0, 4),
            (-4.0, -1.0, 5),
            (8.0, 12.0, 6),
        ];
        let tree = build_raw(&model, &items);
        for q in [
            -5.0, -4.0, -2.5, -1.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 7.5, 8.0, 10.0,
            11.0, 12.0, 13.0,
        ] {
            assert_eq!(stab_tree(&tree, q), stab_brute(&items, q), "q={q}");
        }
    }

    #[test]
    fn randomized_against_brute() {
        let model = CostModel::ram();
        let mut x: u64 = 1234;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1_000) as f64 / 10.0
        };
        let items: Vec<(f64, f64, u64)> = (0..400u64)
            .map(|i| {
                let a = rnd();
                let b = rnd();
                (a.min(b), a.max(b), i + 1)
            })
            .collect();
        let tree = build_raw(&model, &items);
        for _ in 0..200 {
            let q = rnd();
            assert_eq!(stab_tree(&tree, q), stab_brute(&items, q), "q={q}");
        }
    }

    #[test]
    fn each_interval_in_log_nodes() {
        let model = CostModel::ram();
        let n = 1_000;
        let items: Vec<(f64, f64, u64)> = (0..n)
            .map(|i| (i as f64, (i + n) as f64, i as u64 + 1))
            .collect();
        let tree = build_raw(&model, &items);
        let total: usize = tree.nodes.values().iter().map(|s| s.0.len()).sum();
        // O(n log n) copies: with 2n endpoints the tree has ~4n leaves,
        // log ≈ 12; allow 4× slack.
        let bound = (n as f64) * (4.0 * n as f64).log2() * 4.0;
        assert!((total as f64) < bound, "total copies {total} > {bound}");
    }

    #[test]
    fn empty_tree() {
        let model = CostModel::ram();
        let tree = build_raw(&model, &[]);
        assert!(tree.is_empty());
        let mut visited = 0;
        tree.for_each_on_path(1.0, &mut |_| {
            visited += 1;
            true
        });
        assert_eq!(visited, 0);
    }

    #[test]
    fn point_intervals() {
        let model = CostModel::ram();
        let items = vec![(5.0, 5.0, 1u64), (5.0, 5.0, 2)];
        // Degenerate [5,5] intervals stab only q = 5.
        let tree = SegTreeOfSets::build(&model, &items, |&(lo, hi, _)| (lo, hi), |_, v| Raw(v));
        assert_eq!(stab_tree(&tree, 5.0), vec![1, 2]);
        assert_eq!(stab_tree(&tree, 4.999), Vec::<u64>::new());
        assert_eq!(stab_tree(&tree, 5.001), Vec::<u64>::new());
    }

    #[test]
    fn early_stop() {
        let model = CostModel::ram();
        let items: Vec<(f64, f64, u64)> =
            (0..50).map(|i| (0.0, 100.0, i + 1)).collect();
        let tree = build_raw(&model, &items);
        let mut nodes = 0;
        tree.for_each_on_path(50.0, &mut |_| {
            nodes += 1;
            false
        });
        assert_eq!(nodes, 1);
    }
}
