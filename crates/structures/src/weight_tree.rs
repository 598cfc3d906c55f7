//! The canonical weight tree: prioritized reporting from *unweighted*
//! reporting (§5.4 and §5.5 of the paper).
//!
//! Build a search tree over the elements' weights — binary in RAM (§5.4),
//! fanout `f = (n/B)^{ε/2}` in EM (§5.5) — and attach to every node an
//! unweighted reporting structure over the elements in its subtree. A
//! prioritized query `(q, τ)` collects the canonical node set covering
//! `{e : w(e) ≥ τ}` (`O(fanout · height)` nodes) and runs the reporting
//! query on each.
//!
//! The adapter is generic over the reporting structure via
//! [`ReportingBuilder`], so one implementation serves 2D halfspace
//! (convex-layer reporting), d-dim halfspace (kd-tree reporting), and
//! anything else with a reporting structure.

use emsim::CostModel;
use topk_core::{Element, MaxIndex, PrioritizedBuilder, PrioritizedIndex, Weight};

/// An unweighted reporting structure: report `q(D)`.
pub trait ReportingIndex<E, Q> {
    /// Visit every element satisfying `q` until the visitor returns `false`.
    fn for_each(&self, q: &Q, visit: &mut dyn FnMut(&E) -> bool);
    /// Space in blocks.
    fn space_blocks(&self) -> u64;
    /// Number of elements indexed.
    fn len(&self) -> usize;
    /// Whether the structure indexes no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Constructs reporting structures on arbitrary subsets.
pub trait ReportingBuilder<E, Q> {
    /// The structure built.
    type Index: ReportingIndex<E, Q>;
    /// Build on `items`.
    fn build(&self, model: &CostModel, items: Vec<E>) -> Self::Index;
    /// Query cost in I/Os, excluding the output term.
    fn query_cost(&self, n: usize, b: usize) -> f64;
}

struct WtNode<I> {
    /// Minimum weight in the subtree (subtree covers `[w_min, w_max]`).
    w_min: Weight,
    w_max: Weight,
    index: I,
    /// Children, ordered by ascending weight range. Empty for leaves.
    children: Vec<usize>,
}

/// A weight-ordered tree with a reporting structure per node.
pub struct CanonicalWeightTree<E, Q, RB>
where
    RB: ReportingBuilder<E, Q>,
{
    nodes: Vec<WtNode<RB::Index>>,
    root: Option<usize>,
    len: usize,
    array_id: u64,
    model: CostModel,
    _e: std::marker::PhantomData<(E, Q)>,
}

impl<E, Q, RB> CanonicalWeightTree<E, Q, RB>
where
    E: Element,
    RB: ReportingBuilder<E, Q>,
{
    /// Build with the given fanout (≥ 2): 2 for the RAM constructions of
    /// §5.4, `(n/B)^{ε/2}` for the EM construction of §5.5.
    pub fn build(model: &CostModel, builder: &RB, mut items: Vec<E>, fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        let mut tree = CanonicalWeightTree {
            nodes: Vec::new(),
            root: None,
            len: items.len(),
            array_id: model.new_array_id(),
            model: model.clone(),
            _e: std::marker::PhantomData,
        };
        if items.is_empty() {
            return tree;
        }
        items.sort_by_key(Element::weight);
        for w in items.windows(2) {
            assert!(w[0].weight() != w[1].weight(), "weights must be distinct");
        }
        // Leaf size: one block of elements.
        let leaf_cap = model.config().items_per_block::<E>().max(4);
        let root = tree.build_rec(model, builder, items, fanout, leaf_cap);
        tree.root = Some(root);
        tree.model.charge_writes(tree.nodes.len() as u64);
        tree
    }

    /// `items` sorted ascending by weight.
    fn build_rec(
        &mut self,
        model: &CostModel,
        builder: &RB,
        items: Vec<E>,
        fanout: usize,
        leaf_cap: usize,
    ) -> usize {
        let w_min = items.first().unwrap().weight();
        let w_max = items.last().unwrap().weight();
        let index = builder.build(model, items.clone());
        if items.len() <= leaf_cap {
            self.nodes.push(WtNode {
                w_min,
                w_max,
                index,
                children: Vec::new(),
            });
            return self.nodes.len() - 1;
        }
        let chunk = items.len().div_ceil(fanout).max(1);
        let mut children = Vec::new();
        let mut rest = items;
        while !rest.is_empty() {
            let tail = rest.split_off(rest.len().min(chunk));
            let child = self.build_rec(model, builder, rest, fanout, leaf_cap);
            children.push(child);
            rest = tail;
        }
        self.nodes.push(WtNode {
            w_min,
            w_max,
            index,
            children,
        });
        self.nodes.len() - 1
    }

    /// Collect the canonical nodes covering `{w ≥ tau}` and visit each.
    fn canonical_rec(&self, u: usize, tau: Weight, out: &mut Vec<usize>) {
        self.model.touch(self.array_id, u as u64);
        let node = &self.nodes[u];
        if node.w_max < tau {
            return;
        }
        if node.w_min >= tau {
            out.push(u);
            return;
        }
        if node.children.is_empty() {
            // Leaf straddling τ: report it with per-element filtering.
            out.push(u);
            return;
        }
        for &c in &node.children {
            self.canonical_rec(c, tau, out);
        }
    }
}

impl<E, Q, RB> PrioritizedIndex<E, Q> for CanonicalWeightTree<E, Q, RB>
where
    E: Element,
    RB: ReportingBuilder<E, Q>,
{
    fn for_each_at_least(&self, q: &Q, tau: Weight, visit: &mut dyn FnMut(&E) -> bool) {
        let Some(root) = self.root else {
            return;
        };
        let mut canon = Vec::new();
        self.canonical_rec(root, tau, &mut canon);
        let mut stopped = false;
        for u in canon {
            if stopped {
                break;
            }
            self.nodes[u].index.for_each(q, &mut |e| {
                if e.weight() < tau {
                    return true; // straddling leaf: filter
                }
                if !visit(e) {
                    stopped = true;
                    return false;
                }
                true
            });
        }
    }

    fn space_blocks(&self) -> u64 {
        self.nodes.iter().map(|n| n.index.space_blocks() + 1).sum()
    }

    fn len(&self) -> usize {
        self.len
    }
}

impl<E, Q, RB> MaxIndex<E, Q> for CanonicalWeightTree<E, Q, RB>
where
    E: Element,
    RB: ReportingBuilder<E, Q>,
{
    /// Max reporting for free from the same tree: descend from the root,
    /// always taking the heaviest child whose reporting structure has any
    /// match (an emptiness probe — `for_each` stopped at the first hit).
    /// `O(height · fanout)` probes; at the leaf, the heaviest match wins.
    fn query_max(&self, q: &Q) -> Option<E> {
        let mut u = self.root?;
        let has_match = |v: usize| {
            self.model.touch(self.array_id, v as u64);
            let mut any = false;
            self.nodes[v].index.for_each(q, &mut |_| {
                any = true;
                false
            });
            any
        };
        if !has_match(u) {
            return None;
        }
        'descend: loop {
            let node = &self.nodes[u];
            if node.children.is_empty() {
                // Leaf: heaviest matching element.
                let mut best: Option<E> = None;
                node.index.for_each(q, &mut |e| {
                    if best.as_ref().is_none_or(|b| e.weight() > b.weight()) {
                        best = Some(e.clone());
                    }
                    true
                });
                return best;
            }
            // Children are ordered ascending by weight range.
            for &c in node.children.iter().rev() {
                if has_match(c) {
                    u = c;
                    continue 'descend;
                }
            }
            unreachable!("parent had a match but no child does");
        }
    }

    fn space_blocks(&self) -> u64 {
        PrioritizedIndex::space_blocks(self)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// A [`PrioritizedBuilder`] wrapping a [`ReportingBuilder`] via
/// [`CanonicalWeightTree`]. The fanout function receives `(n, B)`.
pub struct WeightTreeBuilder<RB> {
    /// The inner reporting builder.
    pub reporting: RB,
    /// Fanout selector, e.g. `|_, _| 2` (RAM) or `|n, b| ((n/b) as
    /// f64).powf(eps/2.0) as usize` (EM §5.5).
    pub fanout: fn(usize, usize) -> usize,
}

impl<E, Q, RB> PrioritizedBuilder<E, Q> for WeightTreeBuilder<RB>
where
    E: Element,
    RB: ReportingBuilder<E, Q>,
{
    type Index = CanonicalWeightTree<E, Q, RB>;

    fn build(&self, model: &CostModel, items: Vec<E>) -> Self::Index {
        let fanout = (self.fanout)(items.len().max(2), model.b()).max(2);
        CanonicalWeightTree::build(model, &self.reporting, items, fanout)
    }

    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let fanout = (self.fanout)(n.max(2), b).max(2) as f64;
        let height = ((n.max(2) as f64).ln() / fanout.ln()).ceil().max(1.0);
        // O(fanout · height) canonical nodes, each paying one reporting query.
        (fanout * height * self.reporting.query_cost(n, b)).max(topk_core::traits::log_b(n, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::brute;
    use topk_core::toy::ToyElem;
    use topk_core::MaxIndex;

    /// Unweighted reporting structure for the prefix predicate: a plain
    /// x-sorted vector (reports q(D) in O(log n + t)).
    struct PrefixReporter {
        items: Vec<ToyElem>, // sorted by x
    }
    impl ReportingIndex<ToyElem, u64> for PrefixReporter {
        fn for_each(&self, q: &u64, visit: &mut dyn FnMut(&ToyElem) -> bool) {
            for e in &self.items {
                if e.x > *q {
                    break;
                }
                if !visit(e) {
                    return;
                }
            }
        }
        fn space_blocks(&self) -> u64 {
            1 + self.items.len() as u64 / 16
        }
        fn len(&self) -> usize {
            self.items.len()
        }
    }
    struct PrefixReporterBuilder;
    impl ReportingBuilder<ToyElem, u64> for PrefixReporterBuilder {
        type Index = PrefixReporter;
        fn build(&self, _model: &CostModel, mut items: Vec<ToyElem>) -> PrefixReporter {
            items.sort_by_key(|e| e.x);
            PrefixReporter { items }
        }
        fn query_cost(&self, n: usize, b: usize) -> f64 {
            topk_core::traits::log_b(n, b)
        }
    }

    fn mk(n: u64) -> Vec<ToyElem> {
        (0..n)
            .map(|i| ToyElem {
                x: (i * 37) % 101,
                w: (i * 7919) % (n * 16) + 1,
            })
            .collect()
    }

    fn dedup_weights(mut v: Vec<ToyElem>) -> Vec<ToyElem> {
        let mut seen = std::collections::HashSet::new();
        v.retain(|e| seen.insert(e.w));
        v
    }

    #[test]
    fn prioritized_via_weight_tree_matches_brute_binary() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = dedup_weights(mk(2_000));
        let tree = CanonicalWeightTree::build(&model, &PrefixReporterBuilder, items.clone(), 2);
        for qx in [0u64, 30, 100] {
            for tau in [0u64, 1, 5_000, 20_000, 100_000] {
                let mut got = Vec::new();
                tree.query(&qx, tau, &mut got);
                let mut got_w: Vec<u64> = got.iter().map(|e| e.w).collect();
                got_w.sort_unstable();
                let want = brute::prioritized(&items, |e| e.x <= qx, tau);
                let mut want_w: Vec<u64> = want.iter().map(|e| e.w).collect();
                want_w.sort_unstable();
                assert_eq!(got_w, want_w, "q={qx} tau={tau}");
            }
        }
    }

    #[test]
    fn prioritized_via_weight_tree_matches_brute_high_fanout() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = dedup_weights(mk(3_000));
        let tree = CanonicalWeightTree::build(&model, &PrefixReporterBuilder, items.clone(), 16);
        for qx in [0u64, 50, 100] {
            for tau in [0u64, 10_000, 30_000] {
                let mut got = Vec::new();
                tree.query(&qx, tau, &mut got);
                let mut got_w: Vec<u64> = got.iter().map(|e| e.w).collect();
                got_w.sort_unstable();
                let want = brute::prioritized(&items, |e| e.x <= qx, tau);
                let mut want_w: Vec<u64> = want.iter().map(|e| e.w).collect();
                want_w.sort_unstable();
                assert_eq!(got_w, want_w, "q={qx} tau={tau}");
            }
        }
    }

    #[test]
    fn canonical_set_is_small() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = dedup_weights(mk(10_000));
        let n = items.len();
        let tree = CanonicalWeightTree::build(&model, &PrefixReporterBuilder, items, 2);
        let mut canon = Vec::new();
        tree.canonical_rec(tree.root.unwrap(), (n as u64) * 8, &mut canon);
        // O(log n) canonical nodes for a binary weight tree.
        assert!(
            canon.len() <= 2 * (n as f64).log2().ceil() as usize + 2,
            "canonical set size {}",
            canon.len()
        );
    }

    #[test]
    fn empty_build() {
        let model = CostModel::ram();
        let tree: CanonicalWeightTree<ToyElem, u64, PrefixReporterBuilder> =
            CanonicalWeightTree::build(&model, &PrefixReporterBuilder, vec![], 2);
        let mut out = Vec::new();
        tree.query(&10, 0, &mut out);
        assert!(out.is_empty());
        assert_eq!(PrioritizedIndex::len(&tree), 0);
    }

    #[test]
    fn max_via_emptiness_descent_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = dedup_weights(mk(1_500));
        let tree = CanonicalWeightTree::build(&model, &PrefixReporterBuilder, items.clone(), 2);
        for qx in [0u64, 1, 17, 50, 100, 200] {
            assert_eq!(
                MaxIndex::query_max(&tree, &qx).map(|e| e.w),
                brute::max(&items, |e| e.x <= qx).map(|e| e.w),
                "q={qx}"
            );
        }
        // Empty tree.
        let empty: CanonicalWeightTree<ToyElem, u64, PrefixReporterBuilder> =
            CanonicalWeightTree::build(&model, &PrefixReporterBuilder, vec![], 2);
        assert_eq!(MaxIndex::query_max(&empty, &5), None);
    }

    #[test]
    fn builder_adapter_works_as_prioritized_builder() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = dedup_weights(mk(800));
        let builder = WeightTreeBuilder {
            reporting: PrefixReporterBuilder,
            fanout: |_, _| 2,
        };
        let idx = builder.build(&model, items.clone());
        let mut got = Vec::new();
        idx.query(&40, 3_000, &mut got);
        let want = brute::prioritized(&items, |e| e.x <= 40, 3_000);
        assert_eq!(got.len(), want.len());
        assert!(builder.query_cost(items.len(), 64) >= 1.0);
    }
}
