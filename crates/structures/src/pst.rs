//! A static priority search tree (PST) for 3-sided queries, laid out one
//! node per block.
//!
//! Stores elements with a totally ordered key `x` and a weight `w`, and
//! reports every element with `x ∈ [x₁, x₂]` and `w ≥ τ` in
//! `O(log₂(n/B) + t/B)` I/Os. The layout is the external PST of
//! Arge–Samoladas–Vitter: a binary tree, balanced on `x`, whose every node
//! is one block holding the heaviest elements of its subtree in weight
//! order, so every descendant is lighter than a node's lightest entry.
//!
//! A node's header and entries fit in `B` words together. Entries are the
//! elements alone: the key is derived from an element by the key function
//! given at build, never stored. The header keeps, per child, the child's
//! key bounds, its heaviest weight and its address (`2·(2·w(K) + 2)`
//! words), so a query prunes a child that lies outside `[x₁, x₂]` or below
//! `τ` without reading it. An internal node holds `⌊(B − header)/w(E)⌋`
//! entries and a leaf `⌊B/w(E)⌋`, where `w(T)` is `T`'s size in words;
//! when `B` is smaller than a header plus one entry (the RAM model, `B = 1`)
//! a node holds one entry and a visit is still one read.
//!
//! A subtree whose elements fit one leaf is a leaf. A larger one takes its
//! node's worth of heaviest elements and gives the left child a perfect
//! subtree's worth of the rest, in key order, and the right child what
//! remains (left-filled): every node off one root-to-leaf path is full.
//!
//! This is the workhorse behind the linear-space prioritized
//! interval-stabbing structure (DESIGN.md substitutions 1 and 12) and the
//! 1D range-reporting showcase.

use std::cmp::Reverse;

use emsim::CostModel;
use topk_core::{Element, Weight};

/// What a record keeps about one subtree: enough to rule it out for a
/// query without reading it. A parent's header holds one per child; the
/// tree handle holds the root's.
#[derive(Clone, Copy, Debug)]
struct Summary<K> {
    /// Smallest and largest key in the subtree.
    xlo: K,
    xhi: K,
    /// The subtree's heaviest weight (its root's first entry).
    top: Weight,
    /// The subtree's root node.
    node: usize,
}

impl<K: Ord> Summary<K> {
    /// Whether the subtree can hold an element with `x ∈ [x₁, x₂]` and
    /// `w ≥ tau`.
    fn admits(&self, x1: K, x2: K, tau: Weight) -> bool {
        self.top >= tau && self.xlo <= x2 && self.xhi >= x1
    }
}

#[derive(Debug)]
struct Node<K> {
    /// This node's entries are `elems[start..end]`, weight-descending.
    start: usize,
    end: usize,
    /// The header: one summary per child.
    kids: [Option<Summary<K>>; 2],
}

/// A static priority search tree. See the module docs.
///
/// ```
/// use emsim::CostModel;
/// use structures::PrioritySearchTree;
/// use topk_core::Element;
///
/// #[derive(Clone)]
/// struct Item { x: i64, w: u64 }
/// impl Element for Item {
///     fn weight(&self) -> u64 { self.w }
/// }
///
/// let model = CostModel::ram();
/// let items: Vec<Item> = (0..100).map(|i| Item { x: i, w: (i as u64 * 37) % 101 + 1 }).collect();
/// let pst = PrioritySearchTree::build(&model, items, |it| it.x);
///
/// // All elements with x ∈ [10, 20] and weight ≥ 50:
/// let mut hits = 0;
/// pst.query_3sided(10, 20, 50, &mut |e| { assert!(e.w >= 50); hits += 1; true });
/// assert!(hits > 0);
/// ```
#[derive(Debug)]
pub struct PrioritySearchTree<K, E> {
    /// Every element, node by node.
    elems: Vec<E>,
    nodes: Vec<Node<K>>,
    root: Option<Summary<K>>,
    key: fn(&E) -> K,
    /// Entries per internal node and per leaf.
    node_cap: usize,
    leaf_cap: usize,
    array_id: u64,
    model: CostModel,
}

impl<K: Ord + Copy, E: Element> PrioritySearchTree<K, E> {
    /// Build over `items`, keyed by `key`. `O(n log n)` time, one block
    /// written per node.
    pub fn build(model: &CostModel, items: Vec<E>, key: fn(&E) -> K) -> Self {
        let leaf_cap = model.config().items_per_block::<E>();
        let node_cap = (model.b().saturating_sub(header_words::<K>()) / words::<E>()).max(1);
        // Keys are computed once and kept beside the elements only while
        // building.
        let mut keyed: Vec<(K, E)> = items.into_iter().map(|e| (key(&e), e)).collect();
        keyed.sort_by_key(|p| p.0);
        let mut tree = PrioritySearchTree {
            elems: Vec::with_capacity(keyed.len()),
            nodes: Vec::new(),
            root: None,
            key,
            node_cap,
            leaf_cap,
            array_id: model.new_array_id(),
            model: model.clone(),
        };
        if !keyed.is_empty() {
            tree.root = Some(tree.build_rec(keyed));
        }
        tree.model.charge_writes(tree.nodes.len() as u64);
        tree
    }

    /// Build the subtree over the keyed `items` (sorted by key ascending)
    /// and return its summary. Nodes are numbered in preorder.
    fn build_rec(&mut self, mut items: Vec<(K, E)>) -> Summary<K> {
        let len = items.len();
        let (xlo, xhi) = (items[0].0, items[len - 1].0);
        let node = self.nodes.len();
        let mut here = if len <= self.leaf_cap {
            std::mem::take(&mut items)
        } else {
            take_heaviest(&mut items, self.node_cap)
        };
        here.sort_by_key(|p| Reverse(p.1.weight()));
        let top = here[0].1.weight();
        let start = self.elems.len();
        self.elems.extend(here.into_iter().map(|(_, e)| e));
        self.nodes.push(Node {
            start,
            end: self.elems.len(),
            kids: [None, None],
        });
        if !items.is_empty() {
            let right = items.split_off(self.left_share(len).min(items.len()));
            self.nodes[node].kids[0] = Some(self.build_rec(items));
            if !right.is_empty() {
                self.nodes[node].kids[1] = Some(self.build_rec(right));
            }
        }
        Summary {
            xlo,
            xhi,
            top,
            node,
        }
    }

    /// The left child's share of a subtree over `r > leaf_cap` items: a
    /// perfect subtree one level below the smallest perfect subtree that
    /// holds `r` (a leaf at height 0, a node plus two perfect subtrees of
    /// height `h − 1` at height `h`).
    fn left_share(&self, r: usize) -> usize {
        let mut below = self.leaf_cap;
        while self.node_cap + 2 * below < r {
            below = self.node_cap + 2 * below;
        }
        below
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Space in blocks: one per node, each holding its header and entries
    /// within `B` words (see the module docs).
    pub fn space_blocks(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Read node `u`'s block and return its entries.
    fn read(&self, u: usize) -> &[E] {
        self.model.touch(self.array_id, u as u64);
        let node = &self.nodes[u];
        &self.elems[node.start..node.end]
    }

    /// Visit every element with `x ∈ [x₁, x₂]` and `w ≥ tau` until `visit`
    /// returns `false`. `O(log₂(n/B) + t/B)` reads: a node is read only
    /// when the summary that points at it admits the query.
    pub fn query_3sided(&self, x1: K, x2: K, tau: Weight, visit: &mut dyn FnMut(&E) -> bool) {
        if let Some(root) = self.root.filter(|r| r.admits(x1, x2, tau)) {
            self.query_rec(root.node, x1, x2, tau, visit);
        }
    }

    /// Returns `false` if the visitor aborted.
    fn query_rec(
        &self,
        u: usize,
        x1: K,
        x2: K,
        tau: Weight,
        visit: &mut dyn FnMut(&E) -> bool,
    ) -> bool {
        for e in self.read(u) {
            if e.weight() < tau {
                // Weight-descending, and every descendant is lighter than
                // this node's lightest entry: the whole subtree is done.
                return true;
            }
            let x = (self.key)(e);
            if x >= x1 && x <= x2 && !visit(e) {
                return false;
            }
        }
        for kid in self.nodes[u].kids.iter().flatten() {
            if kid.admits(x1, x2, tau) && !self.query_rec(kid.node, x1, x2, tau, visit) {
                return false;
            }
        }
        true
    }

    /// The heaviest element with `x ∈ [x₁, x₂]`, if any. Best-first
    /// descent: a child is read only when its summary is in range and
    /// heavier than the best element found so far, heavier child first.
    pub fn max_in_range(&self, x1: K, x2: K) -> Option<E> {
        let mut best: Option<&E> = None;
        if let Some(root) = self.root.filter(|r| r.admits(x1, x2, 0)) {
            self.max_rec(root.node, x1, x2, &mut best);
        }
        best.cloned()
    }

    fn max_rec<'a>(&'a self, u: usize, x1: K, x2: K, best: &mut Option<&'a E>) {
        for e in self.read(u) {
            if best.is_some_and(|b| e.weight() <= b.weight()) {
                return; // descendants are lighter still
            }
            let x = (self.key)(e);
            if x >= x1 && x <= x2 {
                // Every later entry and every descendant is lighter.
                *best = Some(e);
                return;
            }
        }
        let mut kids = self.nodes[u].kids;
        if let [Some(l), Some(r)] = kids {
            if r.top > l.top {
                kids.swap(0, 1);
            }
        }
        for kid in kids.into_iter().flatten() {
            let floor = best.map_or(0, |b| b.weight().saturating_add(1));
            if kid.admits(x1, x2, floor) {
                self.max_rec(kid.node, x1, x2, best);
            }
        }
    }
}

/// Size of `T` in words (at least one).
fn words<T>() -> usize {
    std::mem::size_of::<T>().div_ceil(8).max(1)
}

/// Words of a node header over keys `K`: per child, its key bounds, its
/// heaviest weight and its address.
fn header_words<K>() -> usize {
    2 * (2 * words::<K>() + 2)
}

/// Remove the `cap` heaviest of the keyed `items` (ties broken
/// arbitrarily) and return them; the rest keep their order.
fn take_heaviest<K, E: Element>(items: &mut Vec<(K, E)>, cap: usize) -> Vec<(K, E)> {
    let mut ws: Vec<Weight> = items.iter().map(|p| p.1.weight()).collect();
    ws.select_nth_unstable_by(cap - 1, |a, b| b.cmp(a));
    let cutoff = ws[cap - 1];
    // Weights are distinct in the paper's setting, but duplicates are
    // tolerated: take at most `cap` entries at or above the cutoff.
    let mut top = Vec::with_capacity(cap);
    let mut rest = Vec::with_capacity(items.len() - cap);
    for p in items.drain(..) {
        if p.1.weight() >= cutoff && top.len() < cap {
            top.push(p);
        } else {
            rest.push(p);
        }
    }
    *items = rest;
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::EmConfig;

    #[derive(Clone, Debug, PartialEq)]
    struct Item {
        x: i64,
        w: u64,
    }
    impl Element for Item {
        fn weight(&self) -> Weight {
            self.w
        }
    }

    fn mk(n: usize, seed: u64) -> Vec<Item> {
        let mut s = seed.max(1);
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut weights: Vec<u64> = (1..=n as u64).collect();
        for i in (1..n).rev() {
            let j = (rnd() % (i as u64 + 1)) as usize;
            weights.swap(i, j);
        }
        (0..n)
            .map(|i| Item {
                x: (rnd() % 1_000) as i64,
                w: weights[i],
            })
            .collect()
    }

    fn key(it: &Item) -> i64 {
        it.x
    }

    fn brute(items: &[Item], x1: i64, x2: i64, tau: u64) -> Vec<u64> {
        let mut v: Vec<u64> = items
            .iter()
            .filter(|it| it.x >= x1 && it.x <= x2 && it.w >= tau)
            .map(|it| it.w)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn three_sided_matches_brute() {
        let model = CostModel::new(EmConfig::new(64));
        let items = mk(2_000, 17);
        let pst = PrioritySearchTree::build(&model, items.clone(), key);
        for &(x1, x2) in &[(0i64, 999i64), (100, 200), (500, 500), (900, 100)] {
            for &tau in &[0u64, 1, 500, 1_500, 1_999, 5_000] {
                let mut got = Vec::new();
                pst.query_3sided(x1, x2, tau, &mut |e| {
                    got.push(e.w);
                    true
                });
                got.sort_unstable();
                assert_eq!(got, brute(&items, x1, x2, tau), "[{x1},{x2}] tau={tau}");
            }
        }
    }

    #[test]
    fn max_in_range_matches_brute() {
        let model = CostModel::ram();
        let items = mk(1_500, 23);
        let pst = PrioritySearchTree::build(&model, items.clone(), key);
        for &(x1, x2) in &[(0i64, 999i64), (10, 20), (250, 750), (999, 999), (5, 1)] {
            let want = items
                .iter()
                .filter(|it| it.x >= x1 && it.x <= x2)
                .map(|it| it.w)
                .max();
            assert_eq!(pst.max_in_range(x1, x2).map(|e| e.w), want, "[{x1},{x2}]");
        }
    }

    #[test]
    fn early_termination_respected() {
        let model = CostModel::ram();
        let items = mk(500, 3);
        let pst = PrioritySearchTree::build(&model, items, key);
        let mut count = 0;
        pst.query_3sided(0, 999, 0, &mut |_| {
            count += 1;
            count < 7
        });
        assert_eq!(count, 7);
    }

    #[test]
    fn pruned_children_cost_no_read() {
        // B = 12 words: a header is 8 words and an item 2, so a node holds
        // 2 entries and a leaf 6. Fourteen items make a root over two
        // leaves: the root takes x = 3 and x = 10, the leaves x ∈ [0, 6]
        // (top weight 7) and x ∈ [7, 13] (top weight 53).
        let model = CostModel::new(EmConfig::new(12));
        let items: Vec<Item> = (0..14)
            .map(|x| Item {
                x,
                w: match x {
                    3 => 100,
                    10 => 99,
                    0..7 => x as u64 + 1,
                    _ => 40 + x as u64,
                },
            })
            .collect();
        let pst = PrioritySearchTree::build(&model, items, key);
        assert_eq!(pst.space_blocks(), 3);
        let root = pst.root.unwrap();
        let [Some(l), Some(r)] = pst.nodes[root.node].kids else {
            panic!("the root has two children");
        };
        let bounds = |k: Summary<i64>| (k.xlo, k.xhi, k.top);
        assert_eq!((bounds(l), bounds(r)), ((0, 6, 7), (7, 13, 53)));

        let heavy = [47, 48, 49, 51, 52, 53, 99, 100];
        let cases: [(i64, i64, u64, &[u64], u64); 5] = [
            // The right leaf is out of range: root and left leaf only.
            (0, 2, 0, &[1, 2, 3], 2),
            // The left leaf's top is below τ: root and right leaf only.
            (0, 13, 20, &heavy, 2),
            // Both leaves are below τ: the root alone.
            (0, 13, 60, &[99, 100], 1),
            // The root's summary, held by the handle, rules these out.
            (14, 20, 0, &[], 0),
            (0, 13, 101, &[], 0),
        ];
        for (x1, x2, tau, want, reads) in cases {
            model.reset();
            let mut got = Vec::new();
            pst.query_3sided(x1, x2, tau, &mut |e| {
                got.push(e.w);
                true
            });
            got.sort_unstable();
            assert_eq!(got, want, "[{x1}, {x2}] tau={tau}");
            assert_eq!(model.report().reads, reads, "[{x1}, {x2}] tau={tau}");
        }
        // Max: the heavier right leaf answers 49; the left one is out of
        // range and lighter than that.
        model.reset();
        assert_eq!(pst.max_in_range(7, 9).map(|e| e.w), Some(49));
        assert_eq!(model.report().reads, 2);
        model.reset();
        assert_eq!(pst.max_in_range(14, 20), None);
        assert_eq!(model.report().reads, 0);
    }

    /// Items in the subtree rooted at `u`.
    fn subtree_len(pst: &PrioritySearchTree<i64, Item>, u: usize) -> usize {
        let node = &pst.nodes[u];
        let kids: usize = node
            .kids
            .iter()
            .flatten()
            .map(|k| subtree_len(pst, k.node))
            .sum();
        node.end - node.start + kids
    }

    #[test]
    fn nodes_fit_one_block_and_only_oversized_remainders_split() {
        for b in [12, 16, 24, 64, 256] {
            let model = CostModel::new(EmConfig::new(b));
            let leaf_cap = b / 2;
            let node_cap = (b - header_words::<i64>()) / 2;
            for n in [1, leaf_cap, leaf_cap + 1, 5 * leaf_cap + 3, 3_000] {
                let pst = PrioritySearchTree::build(&model, mk(n, n as u64), key);
                assert_eq!((pst.leaf_cap, pst.node_cap), (leaf_cap, node_cap));
                assert_eq!(pst.space_blocks(), pst.nodes.len() as u64);
                let mut partial = 0;
                for (u, node) in pst.nodes.iter().enumerate() {
                    let entries = node.end - node.start;
                    let internal = node.kids.iter().any(Option::is_some);
                    if internal {
                        assert!(header_words::<i64>() + 2 * entries <= b, "B={b} n={n}");
                        assert_eq!(entries, node_cap, "B={b} n={n}");
                        let rest = subtree_len(&pst, u) - entries;
                        assert!(rest + entries > leaf_cap, "B={b} n={n} node {u}");
                        // A remainder that fits one leaf is not split.
                        let kids = node.kids.iter().flatten().count();
                        assert!(rest > leaf_cap || kids == 1, "B={b} n={n} node {u}");
                    } else {
                        assert!(2 * entries <= b && entries >= 1, "B={b} n={n}");
                        partial += usize::from(entries < leaf_cap);
                    }
                }
                // Left-filled: the leaves that are not full lie on one
                // root-to-leaf path, one per level at most.
                let depth = (n as f64).log2().ceil() as usize + 1;
                assert!(partial <= depth, "B={b} n={n}: {partial} partial leaves");
            }
        }
    }

    #[test]
    fn query_cost_is_logarithmic_plus_output() {
        let b = 64;
        let model = CostModel::new(EmConfig::new(b));
        let n = 100_000;
        let items: Vec<Item> = (0..n)
            .map(|i| Item {
                x: i as i64,
                w: (i as u64).wrapping_mul(2_654_435_761) % (8 * n as u64) + 1,
            })
            .collect();
        // Make weights distinct.
        let mut seen = std::collections::HashSet::new();
        let items: Vec<Item> = items
            .into_iter()
            .map(|mut it| {
                while !seen.insert(it.w) {
                    it.w += 1_000_000_007;
                }
                it
            })
            .collect();
        // Weights land in [1, 8n + bumps]; a τ near the top keeps t tiny.
        let pst = PrioritySearchTree::build(&model, items.clone(), key);
        let mut ws: Vec<u64> = items.iter().map(|it| it.w).collect();
        ws.sort_unstable_by(|a, b| b.cmp(a));
        let tau = ws[40]; // exactly 41 elements at or above τ
        model.reset();
        let mut t = 0;
        pst.query_3sided(0, (n - 1) as i64, tau, &mut |_| {
            t += 1;
            true
        });
        assert_eq!(t, 41);
        let reads = model.report().reads;
        // Node visits should be O(log n + t), far below n.
        assert!(reads < 600, "reads {reads} for t = {t}");
    }

    #[test]
    fn empty_and_single() {
        let model = CostModel::ram();
        let pst: PrioritySearchTree<i64, Item> = PrioritySearchTree::build(&model, vec![], key);
        assert!(pst.is_empty());
        assert_eq!(pst.max_in_range(0, 100), None);
        let mut seen = 0;
        pst.query_3sided(0, 10, 0, &mut |_| {
            seen += 1;
            true
        });
        assert_eq!(seen, 0);

        let one = PrioritySearchTree::build(&model, vec![Item { x: 5, w: 42 }], key);
        assert_eq!(one.max_in_range(0, 10).map(|e| e.w), Some(42));
        assert_eq!(one.max_in_range(6, 10).map(|e| e.w), None);
    }

    #[test]
    fn duplicate_keys_allowed() {
        let model = CostModel::ram();
        let items: Vec<Item> = (0..100u64).map(|i| Item { x: 7, w: i + 1 }).collect();
        let pst = PrioritySearchTree::build(&model, items, key);
        let mut got = Vec::new();
        pst.query_3sided(7, 7, 50, &mut |e| {
            got.push(e.w);
            true
        });
        assert_eq!(got.len(), 51);
        assert_eq!(pst.max_in_range(7, 7).map(|e| e.w), Some(100));
    }
}
