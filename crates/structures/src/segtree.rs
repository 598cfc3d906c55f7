//! A generic segment tree over 1D intervals with a per-canonical-node
//! summary structure.
//!
//! The classic tool behind §5.2's point-enclosure structures: each input
//! interval is assigned to `O(log n)` canonical nodes; a stabbing query at
//! `q` visits the `O(log n)` nodes on one root-to-leaf path and consults
//! each node's summary. The summary type is caller-supplied, so the same
//! tree serves as
//!
//! * a prioritized interval-stabbing structure (summary = a range of
//!   weight-descending positions → `O(log n + t)` reporting), and
//! * the outer x-tree of the 2D point-enclosure structures (summary = an
//!   inner 1D y-structure).
//!
//! The build stores no element. It finds each item's elementary span
//! once, then places every (node, item position) pair with one counting
//! sort into a flat `Vec<u32>`: the buckets lie back to back in node
//! order, each in input order. Each non-empty node's summary is made from
//! its slice of that array, and the array is returned to the caller, so a
//! summary may be just a range of it.
//!
//! Elementary intervals are the points `xs[i]` and the open gaps between
//! them (plus the two unbounded gaps), so closed input intervals and
//! arbitrary real query points are handled exactly.
//!
//! A query locates `q` among the `m` sorted endpoints with a static B-tree
//! ([`EndpointSearch`]) whose leaf level is the endpoint array itself:
//! one block read per level, `⌈log_B' m⌉` in all (`B'` keys per block),
//! then walks the path from the leaf up.
//!
//! Node records are stored in subtree blocks ([`RecordGroups`]): with `R`
//! records to a block, one block holds a subtree of `h = ⌊log₂(R + 1)⌋`
//! levels, so a root-to-leaf path of `d` levels meets `⌈d/h⌉` record
//! blocks. The walk reads a block when it first meets a non-empty node in
//! it and keeps it while the path stays inside.

use emsim::{CostModel, EmConfig};

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
}

/// The subtree-blocked layout of a heap-shaped tree's node records (node
/// 1 is the root, node `u`'s children are `2u` and `2u + 1`).
///
/// With `R` records to a block, a group spans `h = ⌊log₂(R + 1)⌋` levels:
/// node `u` at depth `d` lives in the block of its ancestor at depth
/// `h·⌊d/h⌋`, so a group holds at most `2^h − 1 ≤ R` records and a path of
/// `d` levels from the root meets `⌈d/h⌉` groups. A group's block id is
/// its root's node id. With one record to a block (`B = 1`), `h = 1` and
/// every node has a block of its own.
#[derive(Clone, Copy, Debug)]
pub struct RecordGroups {
    /// `h`, the levels a group spans.
    levels: u32,
    /// `d mod h` for each depth `d`: how many levels node `u` at depth `d`
    /// lies below its group root, `u >> (d mod h)`. A table, so that the
    /// build's count of groups pays no division per node.
    below_root: [u8; usize::BITS as usize],
}

impl RecordGroups {
    /// Groups of records of type `T` under `config`'s block size.
    pub fn of<T>(config: EmConfig) -> Self {
        Self::new(config.items_per_block::<T>())
    }

    /// Groups for `per_block` (at least 1) records to a block.
    pub(crate) fn new(per_block: usize) -> Self {
        let levels = (per_block.max(1) + 1).ilog2();
        RecordGroups {
            levels,
            below_root: std::array::from_fn(|d| (d as u32 % levels) as u8),
        }
    }

    /// `h`, the levels a group spans.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The block id of node `u`'s record (`u ≥ 1`): its group root's id.
    pub(crate) fn block(&self, u: usize) -> u64 {
        (u >> self.below_root[u.ilog2() as usize]) as u64
    }

    /// An empty set of groups of the nodes below `bound`.
    pub(crate) fn set(self, bound: usize) -> GroupSet {
        GroupSet {
            groups: self,
            roots: vec![0; bound.div_ceil(64)],
        }
    }

    /// A walk that reads each group once, as it enters it.
    pub fn walk(self) -> GroupWalk {
        GroupWalk {
            groups: self,
            open: None,
        }
    }
}

/// A set of [`RecordGroups`] groups, one bit per node id for the group
/// roots: a build adds each node it fills and writes one block per group.
pub(crate) struct GroupSet {
    groups: RecordGroups,
    roots: Vec<u64>,
}

impl GroupSet {
    /// Add the group of node `u` (`u ≥ 1`, below the set's bound).
    pub(crate) fn insert(&mut self, u: usize) {
        let g = self.groups.block(u) as usize;
        self.roots[g / 64] |= 1 << (g % 64);
    }

    /// The number of groups in the set.
    pub(crate) fn count(&self) -> u64 {
        self.roots.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

/// A path walk over [`RecordGroups`]: the block it last read stays in one
/// buffer while the path is inside that group, as a run scan keeps the
/// block it has reached.
pub struct GroupWalk {
    groups: RecordGroups,
    open: Option<u64>,
}

impl GroupWalk {
    /// Visit node `u`'s record, calling `read(block)` unless its group's
    /// block is the one open.
    pub fn visit(&mut self, u: usize, read: impl FnOnce(u64)) {
        let block = self.groups.block(u);
        if self.open != Some(block) {
            self.open = Some(block);
            read(block);
        }
    }
}

/// A segment tree whose canonical nodes carry summaries of type `S`.
pub struct SegTreeOfSets<S> {
    /// Sorted, deduplicated endpoint coordinates.
    xs: Vec<f64>,
    /// The B-tree levels above `xs` that locate a query point in it.
    search: EndpointSearch,
    /// The summaries of the non-empty nodes of the heap-shaped tree over
    /// `2·xs.len() + 1` elementary leaves.
    nodes: NodeArena<S>,
    /// The record blocks, one record of type `S` per non-empty node.
    groups: RecordGroups,
    n_leaves: usize,
    len: usize,
    array_id: u64,
    model: CostModel,
}

impl<S> SegTreeOfSets<S> {
    /// Build over `items`, where `range(item) = (lo, hi)` is a closed
    /// interval with `lo ≤ hi`.
    ///
    /// A node's *bucket* is the positions in `items` of the items assigned
    /// to it, in input order. All buckets lie back to back in one array,
    /// in node order, which is returned beside the tree. For each
    /// non-empty node, in node order, `make_summary(start, bucket)`
    /// makes its summary from its bucket, `positions[start..][..len]`.
    pub fn build<E>(
        model: &CostModel,
        items: &[E],
        range: impl Fn(&E) -> (f64, f64),
        mut make_summary: impl FnMut(usize, &[u32]) -> S,
    ) -> (Self, Vec<u32>) {
        assert!(u32::try_from(items.len()).is_ok(), "item positions fit u32");
        let mut xs: Vec<f64> = Vec::with_capacity(items.len() * 2);
        for e in items {
            let (lo, hi) = range(e);
            assert!(
                lo.is_finite() && hi.is_finite() && lo <= hi,
                "bad interval [{lo}, {hi}]"
            );
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
        let spans: Vec<(usize, usize)> = items
            .iter()
            .map(|e| {
                let (lo, hi) = range(e);
                (2 * lower_index(&xs, lo) + 1, 2 * lower_index(&xs, hi) + 1)
            })
            .collect();

        // One counting sort of (node, position) pairs. `bound[u]` counts
        // node u's items, then (prefix sums) marks where its bucket ends.
        let mut bound: Vec<u32> = vec![0; 2 * cap];
        for &(a, b) in &spans {
            canonical(cap, a, b, |u| bound[u] += 1);
        }
        let mut total = 0usize;
        for c in &mut bound {
            total += *c as usize;
            *c = u32::try_from(total).expect("bucket entries fit u32");
        }
        // Filling last item first leaves each bucket in input order and
        // moves `bound[u]` back to where the bucket starts.
        let mut positions = vec![0u32; total];
        for (i, &(a, b)) in spans.iter().enumerate().rev() {
            canonical(cap, a, b, |u| {
                bound[u] -= 1;
                positions[bound[u] as usize] = i as u32;
            });
        }
        // Free the spans before the summaries, whose growth sets the
        // build's peak memory.
        drop(spans);

        // Summaries in node order; `bound` becomes the arena's slot index
        // (node u's end, `bound[u + 1]`, is read before it is overwritten).
        // The build writes one record block per group that holds a summary.
        let groups = RecordGroups::of::<S>(model.config());
        let mut filled = groups.set(2 * cap);
        let mut values = Vec::new();
        for u in 0..2 * cap {
            let start = bound[u] as usize;
            let end = bound.get(u + 1).map_or(total, |&e| e as usize);
            bound[u] = if start == end {
                EMPTY
            } else {
                filled.insert(u);
                values.push(make_summary(start, &positions[start..end]));
                u32::try_from(values.len() - 1).expect("arena node count fits u32")
            };
        }
        let nodes = NodeArena {
            slot: bound,
            values,
        };

        let search = EndpointSearch::build(&xs, model.config().items_per_block::<f64>(), 2 * cap);
        model.charge_writes(filled.count() + search.internal_blocks());
        let tree = SegTreeOfSets {
            xs,
            search,
            nodes,
            groups,
            n_leaves: cap,
            len: items.len(),
            array_id: model.new_array_id(),
            model: model.clone(),
        };
        (tree, positions)
    }

    /// Number of intervals stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total space: the endpoint array, the search levels above it, and
    /// each summary's `summary_blocks`.
    pub fn space_blocks(&self, summary_blocks: impl Fn(&S) -> u64) -> u64 {
        let per = self.model.config().items_per_block::<f64>().max(1) as u64;
        let xs_blocks = (self.xs.len() as u64).div_ceil(per);
        let summaries: u64 = self.nodes.values().iter().map(summary_blocks).sum();
        xs_blocks + self.search.internal_blocks() + summaries
    }

    /// Visit the summaries on the root-to-leaf path for stabbing point `q`
    /// (every interval containing `q` lives in exactly one of them).
    /// Charges one I/O per level of the endpoint B-tree (`⌈log_B' m⌉`) and
    /// one per record group on the path that holds a non-empty path node
    /// (at most `⌈depth/h⌉`, see [`RecordGroups`]), all through the buffer
    /// pool. Stops early when `visit` returns `false`.
    pub fn for_each_on_path(&self, q: f64, visit: &mut dyn FnMut(&S) -> bool) {
        if self.len == 0 {
            return;
        }
        let elem = self
            .search
            .stab_index(&self.xs, q, |block| self.model.touch(self.array_id, block));
        let mut walk = self.groups.walk();
        let mut u = self.n_leaves + elem; // leaf in heap layout
        while u >= 1 {
            if let Some(summary) = self.nodes.get(u) {
                walk.visit(u, |block| self.model.touch(self.array_id, block));
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

/// A static B-tree over a sorted key array, the array itself being its
/// leaf level: each internal level holds every `per`-th key of the level
/// below, up to a root level of at most `per` keys. Its blocks share the
/// owner's array id, numbered from `first_block` up, leaves first. With
/// one key per block (the RAM model) the fan-out is 2, a binary search.
pub struct EndpointSearch {
    per: usize,
    /// The internal levels, lowest first.
    levels: Vec<Vec<f64>>,
    /// The block id of each level's first block, leaves first.
    starts: Vec<u64>,
}

impl EndpointSearch {
    /// Build the levels above `xs` (sorted), `per` keys to a block, with
    /// block ids from `first_block` up.
    pub fn build(xs: &[f64], per: usize, first_block: usize) -> Self {
        let per = per.max(2);
        let mut levels: Vec<Vec<f64>> = Vec::new();
        let mut starts = vec![first_block as u64];
        let mut below = xs;
        while below.len() > per {
            let up: Vec<f64> = below.iter().step_by(per).copied().collect();
            starts.push(starts[starts.len() - 1] + below.len().div_ceil(per) as u64);
            levels.push(up);
            below = &levels[levels.len() - 1];
        }
        EndpointSearch {
            per,
            levels,
            starts,
        }
    }

    /// Blocks of the internal levels (the leaf level is the key array).
    pub fn internal_blocks(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.len().div_ceil(self.per) as u64)
            .sum()
    }

    /// [`stab_index`] of `q` in `xs`, found by walking the levels root to
    /// leaf and calling `read(block)` once per level.
    pub fn stab_index(&self, xs: &[f64], q: f64, mut read: impl FnMut(u64)) -> usize {
        // `p` is the partition point (`x < q`) of the level just searched.
        // Key `p - 1` of a level opens block `p - 1` of the level below, so
        // that block holds the next partition point (block 0 if `p = 0`).
        let mut p = 0usize;
        for level in (0..=self.levels.len()).rev() {
            let keys = if level == 0 {
                xs
            } else {
                &self.levels[level - 1]
            };
            let b = p.saturating_sub(1);
            read(self.starts[level] + b as u64);
            let block = &keys[b * self.per..keys.len().min((b + 1) * self.per)];
            p = b * self.per + block.partition_point(|&x| x < q);
        }
        slab(xs, p, q)
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
    slab(xs, xs.partition_point(|&x| x < q), q)
}

/// The elementary interval of `q`, given its partition point `i` in `xs`.
fn slab(xs: &[f64], i: usize, q: f64) -> usize {
    if i < xs.len() && xs[i] == q {
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

    fn build_raw(model: &CostModel, items: &[(f64, f64, u64)]) -> SegTreeOfSets<Raw> {
        let copy = |bucket: &[u32]| Raw(bucket.iter().map(|&i| items[i as usize]).collect());
        SegTreeOfSets::build(model, items, |&(lo, hi, _)| (lo, hi), |_, b| copy(b)).0
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

    /// `⌈log_fanout m⌉`, at least 1: the levels of an endpoint B-tree.
    fn search_levels(m: usize, fanout: usize) -> usize {
        let (mut levels, mut reach) = (1, fanout);
        while reach < m {
            levels += 1;
            reach *= fanout;
        }
        levels
    }

    #[test]
    fn endpoint_search_matches_stab_index_with_one_read_per_level() {
        let mut x: u64 = 77;
        let mut rnd = move |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        for per in [1, 2, 8, 64] {
            let fanout = per.max(2);
            let mut sizes = vec![1, per, per + 1, per * per, per * per + 1];
            sizes.extend((0..4).map(|_| 1 + rnd(3 * per * per * per + 2)));
            for m in sizes {
                // Endpoints 0, 2, 4, …: q = 2i is on one, 2i + 1 between two.
                let xs: Vec<f64> = (0..m).map(|i| 2.0 * i as f64).collect();
                let search = EndpointSearch::build(&xs, per, 1000);
                let top = 2.0 * m as f64;
                let mut qs = vec![-5.0, -0.5, 0.0, 1.0, top - 2.0, top - 1.5, top, top + 7.0];
                qs.extend((0..30).map(|_| rnd(2 * m + 4) as f64 / 2.0 - 1.0));
                for q in qs {
                    let mut blocks = Vec::new();
                    let elem = search.stab_index(&xs, q, |b| blocks.push(b));
                    assert_eq!(elem, stab_index(&xs, q), "per={per} m={m} q={q}");
                    assert_eq!(
                        blocks.len(),
                        search_levels(m, fanout),
                        "per={per} m={m} q={q}"
                    );
                    assert!(
                        blocks.windows(2).all(|w| w[0] > w[1]) && blocks[blocks.len() - 1] >= 1000,
                        "one distinct block per level, root first: {blocks:?}"
                    );
                }
            }
        }
    }

    /// The depths of the non-empty nodes on the leaf-to-root path of `q`.
    fn filled_path_depths<S>(tree: &SegTreeOfSets<S>, q: f64) -> Vec<u32> {
        let leaf = tree.n_leaves + stab_index(&tree.xs, q);
        std::iter::successors(Some(leaf), |&u| (u > 1).then_some(u / 2))
            .filter(|&u| tree.nodes.get(u).is_some())
            .map(usize::ilog2)
            .collect()
    }

    /// The record groups a path walk over nodes at `depths` reads: one per
    /// band of `h` levels that holds one of them.
    fn bands(depths: &[u32], h: u32) -> u64 {
        let mut bands: Vec<u32> = depths.iter().map(|d| d / h).collect();
        bands.dedup();
        bands.len() as u64
    }

    #[test]
    fn path_walk_reads_search_levels_then_node_records() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items: Vec<(f64, f64, u64)> = (0..3_000)
            .map(|i| (i as f64, i as f64 + 40.5, i as u64 + 1))
            .collect();
        let tree = build_raw(&model, &items);
        let built = model.report().writes;
        // 6 000 endpoints, 64 per block: 94 leaf blocks under 2 internal
        // blocks (94 keys) under a root of 2 keys.
        assert_eq!(tree.xs.len(), 6_000);
        let levels = search_levels(tree.xs.len(), 64) as u64;
        assert_eq!(levels, 3);
        assert_eq!(tree.search.internal_blocks(), 3);
        // A `Raw` record is 3 words: 21 to a block, 4 levels to a group.
        assert_eq!(tree.groups.levels(), 4);
        // Build writes one block per group that holds a non-empty node.
        let mut groups = std::collections::HashSet::new();
        for u in 1..2 * tree.n_leaves {
            if tree.nodes.get(u).is_some() {
                groups.insert(u >> (u.ilog2() % 4));
            }
        }
        assert!(groups.len() < tree.nodes.values().len());
        assert_eq!(built, groups.len() as u64 + 3);
        for q in [-1.0, 0.0, 17.25, 1500.0, 3040.5, 9999.0] {
            let depths = filled_path_depths(&tree, q);
            model.reset();
            let mut nodes = 0;
            tree.for_each_on_path(q, &mut |_| {
                nodes += 1;
                true
            });
            assert_eq!(nodes, depths.len(), "q={q}");
            assert_eq!(model.report().reads, levels + bands(&depths, 4), "q={q}");
        }
    }

    #[test]
    fn record_groups_meet_ceil_depth_over_h_groups_on_every_path() {
        let mut x: u64 = 99;
        let mut rnd = move |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        for per in [1, 2, 3, 6, 7, 8, 15, 21, 64, 1000] {
            let groups = RecordGroups::new(per);
            let h = groups.levels();
            assert!((1 << h) - 1 <= per && per < (1 << (h + 1)) - 1, "per={per}");
            for depth in 1..=24u32 {
                // Leaves of a tree of `depth` levels: first, last, and some
                // in between.
                let first = 1usize << (depth - 1);
                let mut leaves = vec![first, 2 * first - 1];
                leaves.extend((0..6).map(|_| first + rnd(first)));
                for leaf in leaves {
                    let mut walk = groups.walk();
                    let mut reads = 0;
                    let mut u = leaf;
                    loop {
                        walk.visit(u, |_| reads += 1);
                        if u == 1 {
                            break;
                        }
                        u /= 2;
                    }
                    assert_eq!(reads, depth.div_ceil(h), "per={per} leaf={leaf}");
                }
            }
        }
    }

    #[test]
    fn record_groups_hold_at_most_r_records() {
        for per in [1, 2, 3, 5, 7, 15, 21, 64] {
            let groups = RecordGroups::new(per);
            let nodes = 1usize << 12;
            let mut members = std::collections::HashMap::<u64, usize>::new();
            for u in 1..nodes {
                let g = groups.block(u);
                // A group's block id is its root, an ancestor of u.
                let root = g as usize;
                assert_eq!(u >> (u.ilog2() - root.ilog2()), root, "per={per} u={u}");
                *members.entry(g).or_default() += 1;
            }
            assert!(members.values().all(|&c| c <= per), "per={per}");
            let mut all = groups.set(nodes);
            (1..nodes).for_each(|u| all.insert(u));
            assert_eq!(all.count(), members.len() as u64);
            // Odd nodes only: still one count per distinct group.
            let mut odd = groups.set(nodes);
            (1..nodes).step_by(2).for_each(|u| odd.insert(u));
            let distinct: std::collections::HashSet<u64> =
                (1..nodes).step_by(2).map(|u| groups.block(u)).collect();
            assert_eq!(odd.count(), distinct.len() as u64);
        }
    }

    #[test]
    fn record_groups_at_b1_are_per_node() {
        let groups = RecordGroups::of::<Raw>(emsim::EmConfig::ram());
        assert_eq!(groups.levels(), 1);
        assert!((1..1000).all(|u| groups.block(u) == u as u64));
        let model = CostModel::ram();
        let items: Vec<(f64, f64, u64)> = (0..300)
            .map(|i| (i as f64, i as f64 + 20.5, i as u64 + 1))
            .collect();
        let tree = build_raw(&model, &items);
        assert_eq!(
            model.report().writes,
            tree.nodes.values().len() as u64 + tree.search.internal_blocks()
        );
        let levels = search_levels(tree.xs.len(), 2) as u64;
        for q in [-1.0, 0.0, 17.25, 150.0, 300.5, 999.0] {
            model.reset();
            let mut nodes = 0;
            tree.for_each_on_path(q, &mut |_| {
                nodes += 1;
                true
            });
            assert_eq!(model.report().reads, levels + nodes, "q={q}");
        }
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
    }

    #[test]
    fn flat_buckets_match_a_per_node_reference_in_input_order() {
        let mut x: u64 = 4242;
        let mut rnd = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for n in [1usize, 2, 7, 60, 300] {
            // Few distinct coordinates, so endpoints are shared, and about
            // one interval in five degenerate.
            let items: Vec<(f64, f64, u64)> = (0..n as u64)
                .map(|i| {
                    let a = rnd(40) as f64 / 2.0;
                    let b = if rnd(5) == 0 { a } else { rnd(40) as f64 / 2.0 };
                    (a.min(b), a.max(b), i)
                })
                .collect();
            let model = CostModel::ram();
            let (tree, positions) = SegTreeOfSets::build(
                &model,
                &items,
                |&(lo, hi, _)| (lo, hi),
                |start, bucket| (start, bucket.to_vec()),
            );
            // Reference: node u holds an item iff u's leaves lie inside the
            // item's leaf span and its parent's do not; one Vec per node,
            // filled in input order.
            let cap = tree.n_leaves;
            let leaves = |u: usize| {
                let depth = u.ilog2();
                let width = cap >> depth;
                let first = (u - (1 << depth)) * width;
                (first, first + width - 1)
            };
            let mut reference: Vec<Vec<u32>> = vec![Vec::new(); 2 * cap];
            for (i, &(lo, hi, _)) in items.iter().enumerate() {
                let (a, b) = (stab_index(&tree.xs, lo), stab_index(&tree.xs, hi));
                let inside = |(l, r): (usize, usize)| a <= l && r <= b;
                for (u, bucket) in reference.iter_mut().enumerate().skip(1) {
                    if inside(leaves(u)) && (u == 1 || !inside(leaves(u / 2))) {
                        bucket.push(i as u32);
                    }
                }
            }
            let mut next = 0;
            for (u, want) in reference.iter().enumerate() {
                match tree.nodes.get(u) {
                    None => assert!(want.is_empty(), "n={n} node {u} lost {want:?}"),
                    Some((start, got)) => {
                        assert_eq!(got, want, "n={n} node {u}");
                        // Buckets are back to back in node order.
                        assert_eq!(*start, next, "n={n} node {u}");
                        assert_eq!(&positions[*start..*start + got.len()], &got[..]);
                        next += got.len();
                    }
                }
            }
            assert_eq!(next, positions.len(), "n={n}");
        }
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
        let tree = build_raw(&model, &items);
        assert_eq!(stab_tree(&tree, 5.0), vec![1, 2]);
        assert_eq!(stab_tree(&tree, 4.999), Vec::<u64>::new());
        assert_eq!(stab_tree(&tree, 5.001), Vec::<u64>::new());
    }

    #[test]
    fn early_stop() {
        let model = CostModel::ram();
        let items: Vec<(f64, f64, u64)> = (0..50).map(|i| (0.0, 100.0, i + 1)).collect();
        let tree = build_raw(&model, &items);
        let mut nodes = 0;
        tree.for_each_on_path(50.0, &mut |_| {
            nodes += 1;
            false
        });
        assert_eq!(nodes, 1);
    }
}
