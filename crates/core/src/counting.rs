//! The second Rahul–Janardan reduction (§2 of the paper): top-k from
//! *conventional reporting* + *approximate counting*.
//!
//! Given, for the unweighted problem, a reporting structure
//! (`S_rep`, `Q_rep + O(t/B)`) and an approximate counting structure
//! returning a value in `[|q(D)|, c·|q(D)|]` (`S_cnt`, `Q_cnt`), \[28\]
//! builds a top-k structure with
//!
//! * `S_top = O((S_rep + S_cnt)·log₂ n)`, and
//! * `Q_top = O((Q_rep + Q_cnt)·log₂ n) + O(k/B)`.
//!
//! Construction: a balanced binary tree over the weights in *descending*
//! order, each node carrying reporting + counting structures over its
//! subtree. A query descends the tree guided by counts to find the
//! shortest weight-descending canonical prefix covering `≥ k` matches,
//! reports that prefix, and k-selects. Approximate counts can make the
//! prefix undershoot; the implementation verifies the reported count and
//! retries with a doubled target (w.h.p. zero retries for a constant-`c`
//! counter), so answers are always exact.
//!
//! This is the machinery behind the paper's §1.4 "competing results" —
//! the structures its Theorems 3–6 improve on — so the experiments use it
//! as a second baseline next to [`crate::BinarySearchTopK`].

use emsim::CostModel;

use crate::traits::{selection, Element, TopKIndex};

/// A per-node structure answering both reporting and approximate counting
/// queries over its subset.
pub trait RepCntIndex<E: Element, Q> {
    /// Visit every element satisfying `q` until the visitor returns
    /// `false` (unweighted reporting).
    fn report_while(&self, q: &Q, visit: &mut dyn FnMut(&E) -> bool);
    /// A count in `[|q(D_u)|, c·|q(D_u)|]` for the builder's constant `c`.
    fn count(&self, q: &Q) -> usize;
    /// Space in blocks.
    fn space_blocks(&self) -> u64;
}

/// Builder for [`RepCntIndex`] structures on arbitrary subsets.
pub trait RepCntBuilder<E: Element, Q> {
    /// The per-node structure.
    type Index: RepCntIndex<E, Q>;
    /// Build on `items`.
    fn build(&self, model: &CostModel, items: Vec<E>) -> Self::Index;
    /// The counting overcount factor `c ≥ 1` (`1` = exact counting).
    fn overcount(&self) -> f64 {
        1.0
    }
}

struct CNode<I> {
    index: I,
    /// Children in weight order: `heavy` covers the heavier half.
    heavy: Option<usize>,
    light: Option<usize>,
}

/// The §2 top-k structure. See the module docs.
pub struct CountingTopK<E, Q, B>
where
    E: Element,
    B: RepCntBuilder<E, Q>,
{
    model: CostModel,
    nodes: Vec<CNode<B::Index>>,
    root: Option<usize>,
    len: usize,
    array_id: u64,
    _q: std::marker::PhantomData<(E, Q)>,
}

impl<E, Q, B> CountingTopK<E, Q, B>
where
    E: Element,
    B: RepCntBuilder<E, Q>,
{
    /// Build over `items` (distinct weights required).
    pub fn build(model: &CostModel, builder: &B, mut items: Vec<E>) -> Self {
        items.sort_by_key(|e| std::cmp::Reverse(e.weight()));
        for w in items.windows(2) {
            assert!(w[0].weight() != w[1].weight(), "weights must be distinct");
        }
        let mut s = CountingTopK {
            model: model.clone(),
            nodes: Vec::new(),
            root: None,
            len: items.len(),
            array_id: model.new_array_id(),
            _q: std::marker::PhantomData,
        };
        if !items.is_empty() {
            let leaf_cap = model.config().items_per_block::<E>().max(4);
            let root = s.build_rec(model, builder, items, leaf_cap);
            s.root = Some(root);
        }
        s.model.charge_writes(s.nodes.len() as u64);
        s
    }

    /// `items` sorted by weight descending.
    fn build_rec(
        &mut self,
        model: &CostModel,
        builder: &B,
        items: Vec<E>,
        leaf_cap: usize,
    ) -> usize {
        let index = builder.build(model, items.clone());
        let (heavy, light) = if items.len() <= leaf_cap {
            (None, None)
        } else {
            let mut heavy_half = items;
            let light_half = heavy_half.split_off(heavy_half.len() / 2);
            (
                Some(self.build_rec(model, builder, heavy_half, leaf_cap)),
                Some(self.build_rec(model, builder, light_half, leaf_cap)),
            )
        };
        self.nodes.push(CNode {
            index,
            heavy,
            light,
        });
        self.nodes.len() - 1
    }

    /// Descend to find a weight-descending canonical prefix with
    /// (approximate) count `≥ target`, collecting the prefix nodes.
    fn prefix_for(&self, q: &Q, target: usize, prefix: &mut Vec<usize>) {
        let Some(mut u) = self.root else {
            return;
        };
        let mut remaining = target as i64;
        loop {
            self.model.touch(self.array_id, u as u64);
            let node = &self.nodes[u];
            match (node.heavy, node.light) {
                (Some(h), Some(l)) => {
                    let ch = self.nodes[h].index.count(q) as i64;
                    if ch >= remaining {
                        u = h;
                    } else {
                        prefix.push(h);
                        remaining -= ch;
                        u = l;
                    }
                }
                _ => {
                    prefix.push(u);
                    return;
                }
            }
        }
    }
}

impl<E, Q, B> TopKIndex<E, Q> for CountingTopK<E, Q, B>
where
    E: Element,
    B: RepCntBuilder<E, Q>,
{
    fn query_topk(&self, q: &Q, k: usize, out: &mut Vec<E>) {
        if k == 0 || self.len == 0 {
            return;
        }
        // Approximate counts can undershoot the true prefix; verify the
        // reported count and double the target until ≥ k (or the whole
        // tree is the prefix). W.h.p. zero retries for constant overcount.
        let mut target = k;
        loop {
            let mut prefix = Vec::new();
            if target >= self.len {
                // k (or the escalated target) covers everything: the
                // prefix is the whole tree — report the root directly.
                prefix.push(self.root.unwrap());
            } else {
                self.prefix_for(q, target, &mut prefix);
            }
            let mut candidates = selection(&self.model, k);
            for u in &prefix {
                self.model.touch(self.array_id, *u as u64);
                self.nodes[*u].index.report_while(q, &mut |e| {
                    candidates.offer(e);
                    true
                });
            }
            if candidates.seen() >= k || target >= self.len {
                out.extend(candidates.finish(&self.model));
                return;
            }
            target = (target * 2).min(self.len);
        }
    }

    fn space_blocks(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.index.space_blocks() + 1)
            .sum::<u64>()
            .max(1)
    }
}

/// An approximate counter built from *reporting alone*, in the spirit of
/// the Aronov–Har-Peled reduction the paper contrasts Theorem 2 against
/// (§1.3: "reduces approximate counting to emptiness queries").
///
/// Keep reporting structures over geometric `2^{-i}`-samples; to count,
/// probe levels from the sparsest down, stopping at the first level whose
/// sample answer exceeds a confidence threshold `C`; the estimate is
/// `(sample count) · 2^i`, inflated by a safety factor so it errs on the
/// *over*counting side — [`CountingTopK`]'s verify-and-retry loop then
/// guarantees exact answers regardless of estimator noise.
pub struct SampledCounter<E, Q, RB>
where
    E: Element,
    RB: RepCntBuilder<E, Q>,
{
    /// `levels[i]` indexes a `2^{-i}`-sample; level 0 is the full set.
    levels: Vec<RB::Index>,
    threshold: usize,
    _q: std::marker::PhantomData<(E, Q)>,
}

impl<E, Q, RB> SampledCounter<E, Q, RB>
where
    E: Element,
    RB: RepCntBuilder<E, Q>,
{
    /// Build with confidence threshold `C` (≥ 8 recommended) and a seeded
    /// RNG for the sampling.
    pub fn build(
        model: &CostModel,
        builder: &RB,
        items: &[E],
        threshold: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        assert!(threshold >= 1);
        let mut levels = Vec::new();
        let mut current: Vec<E> = items.to_vec();
        loop {
            let next: Vec<E> = current
                .iter()
                .filter(|_| rng.gen::<bool>())
                .cloned()
                .collect();
            levels.push(builder.build(model, std::mem::replace(&mut current, next)));
            if current.len() <= threshold {
                levels.push(builder.build(model, std::mem::take(&mut current)));
                break;
            }
        }
        SampledCounter {
            levels,
            threshold,
            _q: std::marker::PhantomData,
        }
    }

    /// An estimate of `|q(D)|` that overcounts w.h.p. (never reports 0 for
    /// a nonempty answer: level 0 is exact for small answers).
    pub fn estimate(&self, q: &Q) -> usize {
        // Probe sparse→dense; the first level with > threshold matches
        // gives the estimate. If even level 0 stays below the threshold,
        // its count is exact.
        for (i, level) in self.levels.iter().enumerate().rev() {
            let mut cnt = 0usize;
            level.report_while(q, &mut |_| {
                cnt += 1;
                cnt <= 4 * self.threshold
            });
            if cnt > self.threshold {
                // Inflate by 4× to err toward overcounting (the retry loop
                // in CountingTopK absorbs the occasional undercount).
                return cnt.saturating_mul(1 << i).saturating_mul(4);
            }
            if i == 0 {
                return cnt;
            }
        }
        0
    }

    /// Number of sampling levels (diagnostics).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::toy::ToyElem;

    /// Exact reporting + counting for the prefix predicate (`x ≤ q`),
    /// backed by an x-sorted vector.
    struct PrefixRC {
        items: Vec<ToyElem>, // sorted by x
    }
    impl RepCntIndex<ToyElem, u64> for PrefixRC {
        fn report_while(&self, q: &u64, visit: &mut dyn FnMut(&ToyElem) -> bool) {
            for e in &self.items {
                if e.x > *q {
                    break;
                }
                if !visit(e) {
                    return;
                }
            }
        }
        fn count(&self, q: &u64) -> usize {
            self.items.partition_point(|e| e.x <= *q)
        }
        fn space_blocks(&self) -> u64 {
            1 + self.items.len() as u64 / 16
        }
    }
    struct PrefixRCBuilder;
    impl RepCntBuilder<ToyElem, u64> for PrefixRCBuilder {
        type Index = PrefixRC;
        fn build(&self, _model: &CostModel, mut items: Vec<ToyElem>) -> PrefixRC {
            items.sort_by_key(|e| e.x);
            PrefixRC { items }
        }
    }

    /// A deliberately 2×-overcounting variant, to exercise the retry path.
    struct OverRCBuilder;
    struct OverRC(PrefixRC);
    impl RepCntIndex<ToyElem, u64> for OverRC {
        fn report_while(&self, q: &u64, visit: &mut dyn FnMut(&ToyElem) -> bool) {
            self.0.report_while(q, visit);
        }
        fn count(&self, q: &u64) -> usize {
            2 * self.0.count(q)
        }
        fn space_blocks(&self) -> u64 {
            self.0.space_blocks()
        }
    }
    impl RepCntBuilder<ToyElem, u64> for OverRCBuilder {
        type Index = OverRC;
        fn build(&self, model: &CostModel, items: Vec<ToyElem>) -> OverRC {
            OverRC(PrefixRCBuilder.build(model, items))
        }
        fn overcount(&self) -> f64 {
            2.0
        }
    }

    fn mk(n: u64) -> Vec<ToyElem> {
        (0..n)
            .map(|i| ToyElem {
                x: (i * 37) % 101,
                w: (i * 2_654_435_761) % (1 << 40) + i + 1,
            })
            .collect()
    }

    fn dedup(mut v: Vec<ToyElem>) -> Vec<ToyElem> {
        let mut seen = std::collections::HashSet::new();
        v.retain(|e| seen.insert(e.w));
        v
    }

    #[test]
    fn exact_counter_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = dedup(mk(2_000));
        let idx = CountingTopK::build(&model, &PrefixRCBuilder, items.clone());
        for q in [0u64, 10, 50, 100] {
            for k in [1usize, 7, 64, 500, 5_000] {
                let mut got = Vec::new();
                idx.query_topk(&q, k, &mut got);
                let want = brute::top_k(&items, |e| e.x <= q, k);
                assert_eq!(
                    got.iter().map(|e| e.w).collect::<Vec<_>>(),
                    want.iter().map(|e| e.w).collect::<Vec<_>>(),
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    fn overcounting_counter_still_exact() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = dedup(mk(1_500));
        let idx = CountingTopK::build(&model, &OverRCBuilder, items.clone());
        for q in [5u64, 60, 100] {
            for k in [1usize, 10, 200, 1_499] {
                let mut got = Vec::new();
                idx.query_topk(&q, k, &mut got);
                let want = brute::top_k(&items, |e| e.x <= q, k);
                assert_eq!(
                    got.iter().map(|e| e.w).collect::<Vec<_>>(),
                    want.iter().map(|e| e.w).collect::<Vec<_>>(),
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    fn empty_and_k_zero() {
        let model = CostModel::ram();
        let idx: CountingTopK<ToyElem, u64, PrefixRCBuilder> =
            CountingTopK::build(&model, &PrefixRCBuilder, vec![]);
        let mut out = Vec::new();
        idx.query_topk(&10, 5, &mut out);
        assert!(out.is_empty());

        let idx = CountingTopK::build(&model, &PrefixRCBuilder, dedup(mk(10)));
        idx.query_topk(&10, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn sampled_counter_estimates_within_expected_band() {
        use rand::SeedableRng;
        let model = CostModel::ram();
        let items = dedup(mk(20_000));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0);
        let counter = SampledCounter::build(&model, &PrefixRCBuilder, &items, 8, &mut rng);
        assert!(counter.level_count() > 8);
        for q in [0u64, 3, 25, 60, 100] {
            let exact = items.iter().filter(|e| e.x <= q).count();
            let est = counter.estimate(&q);
            if exact <= 8 {
                assert_eq!(est, exact, "small answers must be exact (q={q})");
            } else {
                // Over-counting bias by design; allow a generous whp band.
                assert!(est >= exact / 4, "q={q}: est {est} « exact {exact}");
                assert!(est <= exact * 64, "q={q}: est {est} » exact {exact}");
            }
        }
    }

    #[test]
    fn space_has_log_factor() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let n = 10_000;
        let items = dedup(mk(n));
        let m = items.len();
        let idx = CountingTopK::build(&model, &PrefixRCBuilder, items);
        // Each element appears in O(log(n/B)) node structures.
        let per = 16u64;
        let one_copy = (m as u64).div_ceil(per);
        let logn = (m as f64).log2().ceil() as u64;
        assert!(
            idx.space_blocks() <= 4 * one_copy * logn,
            "space {} vs n/B·log n = {}",
            idx.space_blocks(),
            one_copy * logn
        );
    }
}
