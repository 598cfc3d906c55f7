//! **Theorem 2** — the expected no-degradation reduction from top-k to
//! prioritized + max reporting (§4 of the paper).
//!
//! Given a prioritized structure (`S_pri`, `Q_pri + O(t/B)`) and a max
//! structure (`S_max = O(n²/B)`, geometrically converging, `Q_max`),
//! [`ExpectedTopK`] answers top-k queries in expected
//! `O(Q_pri(n) + Q_max(n) + k/B)` I/Os using expected
//! `O(S_pri(n) + S_max(6n/(B·Q_max(n))))` space — *no performance
//! degradation*. If both inputs are dynamic, updates cost expected
//! `O(U_pri + U_max)`.
//!
//! ## Construction (§4)
//!
//! Fix `σ = 1/20` and `K_i = B·Q_max(n)·(1+σ)^{i-1}` for `i = 1..h` where
//! `h` is maximal with `K_h ≤ n/4`. Keep a prioritized structure on `D` and,
//! for each `i`, a max structure on an independent `(1/K_i)`-sample `R_i`.
//!
//! A top-k query locates the smallest `i` with `K_i ≥ k` and runs *rounds*
//! `j = i, i+1, …`: the round asks the max structure on `R_j` for the
//! heaviest sampled element `e` satisfying `q` — by Lemma 3 its weight-rank
//! in `q(D)` is in `(K_j, 4K_j]` with probability ≥ 0.09 — then fetches
//! everything above `w(e)` with one cost-monitored prioritized query.
//! When `k ≤ K_j/8` and the buffer pool can hold them, the round also asks
//! the max structures of the next levels, up to eight in all while their
//! union stays a `(≤ 1/(4k))`-sample, and fetches above the heaviest of
//! their answers: its rank is about `K_j` over the number of levels, still
//! at least `k` with probability ≥ 3/4, and a fetch that comes back
//! complete but smaller than `k` steps to the next lighter answer.
//! Only if every consulted `q(R_l)` is empty, or every such fetch is
//! complete but smaller than `k`, does the round run §4's `τ = 0` probe,
//! which answers when `|q(D)| ≤ 4K_j`. §4 runs that probe first; once
//! `|q(D)| > 4K_j` it is truncated and thrown away, so running it last
//! saves its reads while keeping the round's cost bound and its success
//! event (DESIGN.md, substitutions 8 and 9).
//! The round *verifies* its own success (the fetched set is complete and
//! large enough to contain the top-k), so answers are always exact; failed
//! rounds escalate `j` and the geometric success probability yields the
//! expected cost bound.
//!
//! ## Updates
//!
//! Each element belongs to `R_i` independently with probability `1/K_i`, so
//! it has `O(1)` expected copies. Insertion samples its memberships;
//! deletion looks them up in an `O(1)`-expected-time hash table keyed by the
//! (distinct) weight — the "bookkeeping" of §4. We additionally rebuild the
//! whole structure when `n` drifts by 2× from the size it was built for
//! (the paper's analysis treats `n` as stationary; periodic rebuilding is
//! the standard way to discharge that assumption, amortized `O(build/n)`).

use std::collections::HashMap;

use emsim::trace::phase;
use emsim::{CostModel, EmError, Media, Retrier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::traits::{
    query, query_max, query_monitored, selection, DynamicIndex, Element, FaultMark, MaxBuilder,
    MaxIndex, Monitored, PrioritizedBuilder, PrioritizedIndex, TopKAnswer, TopKIndex, Weight,
};

/// The most sample levels a round asks for pivots. Eight of them put the
/// heaviest pivot's rank in `q(D)` near `K_j/8` instead of `K_j`, and
/// spread what one query costs over eight independent samples instead of
/// the one that every query of a build shares. A round asks extra levels
/// only while their max structures, over `n/K_l` elements each, fit in
/// the buffer pool together: there an extra max query costs next to
/// nothing, while without a pool it costs a full `Q_max`.
const PIVOT_LEVELS: usize = 8;

/// Tunables of the Theorem 2 construction.
#[derive(Clone, Copy, Debug)]
pub struct Theorem2Params {
    /// The geometric ratio `σ`; the paper fixes `1/20`.
    pub sigma: f64,
    /// Constant in `K_1 = c·B·Q_max(n)`; the paper uses `c = 1`.
    pub k1_constant: f64,
    /// Seed for the build/update-time sampling.
    pub seed: u64,
}

impl Default for Theorem2Params {
    fn default() -> Self {
        Theorem2Params {
            sigma: 0.05,
            k1_constant: 1.0,
            seed: 0x74_6f70_6b32, // "topk2"
        }
    }
}

/// The Theorem 2 top-k structure. See the module docs.
///
/// ```
/// use topk_core::{CostModel, EmConfig, ExpectedTopK, Theorem2Params, TopKIndex};
/// use topk_core::toy::{AllBuilder, AllMaxBuilder, AllQuery, ToyElem};
///
/// let model = CostModel::new(EmConfig::new(64));
/// let items: Vec<ToyElem> = (0..1_000).map(|i| ToyElem { x: i, w: i + 1 }).collect();
/// let topk = ExpectedTopK::build(&model, AllBuilder, AllMaxBuilder, items,
///                                Theorem2Params::default());
/// let mut out = Vec::new();
/// topk.query_topk(&AllQuery, 3, &mut out);
/// assert_eq!(out.iter().map(|e| e.w).collect::<Vec<_>>(), vec![1_000, 999, 998]);
/// ```
pub struct ExpectedTopK<E, Q, PB, MB>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
    MB: MaxBuilder<E, Q>,
{
    model: CostModel,
    params: Theorem2Params,
    pri_builder: PB,
    max_builder: MB,
    /// The prioritized structure on `D`.
    pri: PB::Index,
    /// `maxes[j]` is the max structure on the `(1/K_{j+1})`-sample `R_{j+1}`.
    maxes: Vec<MB::Index>,
    /// The thresholds `K_1 < K_2 < … < K_h`.
    ks: Vec<f64>,
    /// `pivot_levels[j]`: how many levels from `j` on have max structures
    /// that fit in the buffer pool together, at most [`PIVOT_LEVELS`].
    pivot_levels: Vec<usize>,
    /// The data set itself (for the naive `O(n/B)` path and rebuilds),
    /// with a weight → position map for O(1)-expected deletes.
    data: Vec<E>,
    positions: HashMap<Weight, usize>,
    /// weight → indices of the `R_i`s containing the element (§4 bookkeeping).
    membership: HashMap<Weight, Vec<u32>>,
    /// `n` at the last (re)build; drifting 2× triggers a rebuild.
    built_n: usize,
    rng: StdRng,
    _q: std::marker::PhantomData<Q>,
}

impl<E, Q, PB, MB> ExpectedTopK<E, Q, PB, MB>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
    MB: MaxBuilder<E, Q>,
{
    /// Build on `items` (distinct weights required).
    pub fn build(
        model: &CostModel,
        pri_builder: PB,
        max_builder: MB,
        items: Vec<E>,
        params: Theorem2Params,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let parts = {
            let _g = model.span(phase::BUILD);
            construct(model, &pri_builder, &max_builder, &params, &mut rng, items)
        };
        ExpectedTopK {
            model: model.clone(),
            params,
            pri_builder,
            max_builder,
            pri: parts.pri,
            maxes: parts.maxes,
            ks: parts.ks,
            pivot_levels: parts.pivot_levels,
            data: parts.data,
            positions: parts.positions,
            membership: parts.membership,
            built_n: parts.built_n,
            rng,
            _q: std::marker::PhantomData,
        }
    }

    /// Reconstruct every component from scratch on `items` (used when `n`
    /// drifts 2× from the built size).
    fn rebuild(&mut self, items: Vec<E>) {
        let _g = self.model.span(phase::REBUILD);
        let parts = construct(
            &self.model,
            &self.pri_builder,
            &self.max_builder,
            &self.params,
            &mut self.rng,
            items,
        );
        self.pri = parts.pri;
        self.maxes = parts.maxes;
        self.ks = parts.ks;
        self.pivot_levels = parts.pivot_levels;
        self.data = parts.data;
        self.positions = parts.positions;
        self.membership = parts.membership;
        self.built_n = parts.built_n;
    }

    /// The number of sampling levels `h`.
    pub fn levels(&self) -> usize {
        self.ks.len()
    }

    /// Sizes of the samples `R_1..R_h` (diagnostics for experiment E5).
    pub fn sample_sizes(&self) -> Vec<usize> {
        self.maxes.iter().map(MaxIndex::len).collect()
    }

    /// Number of elements currently stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The query body behind both [`TopKIndex`] entry points: the `k` (at
    /// most) heaviest of `q(D)` and whether they are exact.
    fn top_k(
        &self,
        q: &Q,
        k: usize,
        media: Media,
        mark: &mut FaultMark,
    ) -> Result<(Vec<E>, bool), EmError> {
        if k == 0 || self.data.is_empty() {
            return Ok((Vec::new(), true));
        }
        let n = self.data.len();

        // k below B·Q_max: treat as top-K_1, then k-select (§4 "Query").
        // No levels (n ≤ 4K_1): naive.
        let Some(&k1) = self.ks.first() else {
            return self.naive_scan(q, k, media, mark);
        };
        let k_eff = (k1.ceil() as usize).max(k);

        // k beyond K_h: naive O(n/B) = O(k/B).
        if k_eff as f64 > *self.ks.last().unwrap() || k_eff >= n {
            return self.naive_scan(q, k, media, mark);
        }

        // Smallest i with K_i ≥ k_eff; then rounds j = i..h.
        let i = self.ks.partition_point(|&kj| kj < k_eff as f64);
        for j in i..self.ks.len() {
            if let Some(result) = self.round_at(q, k, j, media, mark) {
                return Ok((result, true));
            }
        }
        // All rounds failed (probability ≤ 0.91^h): naive.
        self.naive_scan(q, k, media, mark)
    }

    /// Naive path: read all of `D` and k-select (`O(n/B)`). Exact when the
    /// full prioritized query survives (even if earlier rounds lost
    /// structures), degraded to the partial visitor prefix when it
    /// doesn't, `Err` when nothing was recovered.
    fn naive_scan(
        &self,
        q: &Q,
        k: usize,
        media: Media,
        mark: &mut FaultMark,
    ) -> Result<(Vec<E>, bool), EmError> {
        // A black-box reduction cannot evaluate predicates on raw elements,
        // so "read the whole D" is a full prioritized query with τ = -∞
        // (cost Q_pri + O(n/B) = O(n/B) for any sane Q_pri).
        let scan = self.model.span(phase::SCAN);
        let mut s = selection(&self.model, k);
        match query(media, &self.pri, q, 0, &mut s) {
            Ok(()) => Ok((s.finish(&self.model), true)),
            Err(e) => {
                drop(scan);
                let _g = self.model.span(phase::DEGRADE);
                mark.note(&self.model);
                if s.seen() == 0 {
                    Err(e)
                } else {
                    Ok((s.finish(&self.model), false))
                }
            }
        }
    }

    /// One round of the §4 query procedure at level `j` (0-based into
    /// `self.ks`). Returns `Some(result)` on success.
    ///
    /// The round samples first. The max structures on `R_j, R_{j+1}, …`
    /// (`⌊K_j/4k⌋` of them, no more than fit in the buffer pool together,
    /// between 1 and [`PIVOT_LEVELS`]) yield one pivot each, and prioritized fetches above the pivots, heaviest first and
    /// each cost-monitored at `4K_j`, run until one is complete with at
    /// least `k` items, which answers. If a fetch is truncated, more than
    /// `4K_j` items weigh `≥ τ`, so `|q(D)| > 4K_j` and the round fails.
    /// Only when no pivot is left does the round run §4's `τ = 0` probe,
    /// which answers exactly iff `|q(D)| ≤ 4K_j`. The pivot from `R_j`
    /// alone is among those tried, so the round succeeds whenever §4's
    /// round does, and with a constant number of levels it still costs
    /// `O(Q_pri + Q_max + K_j/B)`.
    ///
    /// Any unrecoverable fault inside the round makes it fail and the query
    /// escalates `j`: the paper's own escalation handles structure loss for
    /// free. A `Some` answer is always exact, because every fetch verifies
    /// itself (`Complete`, and `≥ k` results unless it holds all of `q(D)`)
    /// regardless of how its pivot was obtained.
    fn round_at(
        &self,
        q: &Q,
        k: usize,
        j: usize,
        media: Media,
        mark: &mut FaultMark,
    ) -> Option<Vec<E>> {
        let limit = 4 * self.ks[j].ceil() as usize;

        // Pivots: the heaviest sampled element of each consulted q(R_l),
        // heaviest first; an empty q(R_l) is the paper's dummy with
        // w = -∞. The union of the levels stays a (≤ 1/(4k))-sample, so the
        // heaviest pivot is rarely among the top k.
        let levels = ((self.ks[j] / (4 * k) as f64) as usize)
            .min(self.pivot_levels[j])
            .max(1);
        let mut pivots = Vec::with_capacity(levels + 1);
        for max in &self.maxes[j..j + levels] {
            let found = {
                let _g = self.model.span(phase::SAMPLE);
                query_max(media, max, q)
            };
            match found {
                Ok(e) => pivots.extend(e.as_ref().map(Element::weight)),
                Err(_) => {
                    mark.note(&self.model);
                    return None;
                }
            }
        }
        pivots.sort_unstable_by(|a, b| b.cmp(a));
        pivots.dedup();
        pivots.push(0);

        // Fetch above each pivot in turn until one fetch holds the top k;
        // the τ = 0 probe comes last.
        for tau in pivots {
            let mut s = selection(&self.model, k);
            let fetch = {
                let _g = self.model.span(phase::PROBE);
                query_monitored(media, &self.pri, q, tau, limit, &mut s)
            };
            match fetch {
                // Complete at τ = 0 is all of q(D). Above a pivot the paper
                // requires |S| > K_j; |S| ≥ k suffices for exactness
                // (K_j ≥ k), and accepting it only lowers the failure
                // probability below the 0.91 of the analysis.
                Ok(Monitored::Complete) if tau == 0 || s.seen() >= k => {
                    let _g = self.model.span(phase::SELECT);
                    return Some(s.finish(&self.model));
                }
                // Fewer than k items weigh ≥ τ: try the next lighter pivot.
                Ok(Monitored::Complete) => {}
                // More than 4K_j items weigh ≥ τ, so |q(D)| > 4K_j and every
                // lighter fetch would be truncated too.
                Ok(Monitored::Truncated) => return None,
                Err(_) => {
                    mark.note(&self.model);
                    return None;
                }
            }
        }
        unreachable!("the τ = 0 probe always decides the round")
    }
}

/// The freshly built components shared by `build` and `rebuild`.
struct Parts<E, PI, MI> {
    pri: PI,
    maxes: Vec<MI>,
    ks: Vec<f64>,
    pivot_levels: Vec<usize>,
    data: Vec<E>,
    positions: HashMap<Weight, usize>,
    membership: HashMap<Weight, Vec<u32>>,
    built_n: usize,
}

fn construct<E, Q, PB, MB>(
    model: &CostModel,
    pri_builder: &PB,
    max_builder: &MB,
    params: &Theorem2Params,
    rng: &mut StdRng,
    items: Vec<E>,
) -> Parts<E, PB::Index, MB::Index>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
    MB: MaxBuilder<E, Q>,
{
    let n = items.len();
    let b = model.b() as f64;
    let q_max = max_builder.query_cost(n.max(2), model.b());
    // K_1 = B·Q_max(n) per §4, capped at n/64 so the ladder stays non-empty
    // when Q_max is large relative to n (a max structure with polylog² cost
    // at small n would otherwise push K_1 past the K_h ≤ n/4 ceiling and
    // force the naive path). Lowering K_1 only adds a few light sample
    // levels; the round cost remains O(Q_pri + Q_max + K_j/B).
    let k1 = (params.k1_constant * b * q_max)
        .max(1.0)
        .min((n as f64 / 64.0).max(b));

    // K_i ladder: K_1, K_1(1+σ), …, ≤ n/4.
    let mut ks = Vec::new();
    let mut k = k1;
    while k <= n as f64 / 4.0 {
        ks.push(k);
        k *= 1.0 + params.sigma;
    }

    // Sample memberships element-major so each element's copies are recorded
    // once (the §4 bookkeeping).
    let mut membership = HashMap::new();
    let mut samples: Vec<Vec<E>> = vec![Vec::new(); ks.len()];
    for e in &items {
        let mut levels = Vec::new();
        for (j, &kj) in ks.iter().enumerate() {
            if rng.gen::<f64>() < 1.0 / kj {
                samples[j].push(e.clone());
                levels.push(j as u32);
            }
        }
        if !levels.is_empty() {
            membership.insert(e.weight(), levels);
        }
    }

    let pri = pri_builder.build(model, items.clone());
    let maxes: Vec<MB::Index> = samples
        .into_iter()
        .map(|r| max_builder.build(model, r))
        .collect();
    let frames = model.config().mem_blocks as u64;
    let pivot_levels = (0..maxes.len())
        .map(|j| {
            let mut blocks = 0;
            maxes[j..]
                .iter()
                .take(PIVOT_LEVELS)
                .take_while(|m| {
                    blocks += m.space_blocks();
                    blocks <= frames
                })
                .count()
        })
        .collect();

    let positions: HashMap<Weight, usize> = items
        .iter()
        .enumerate()
        .map(|(i, e)| (e.weight(), i))
        .collect();
    assert_eq!(positions.len(), n, "weights must be distinct");
    Parts {
        pri,
        maxes,
        ks,
        pivot_levels,
        data: items,
        positions,
        membership,
        built_n: n.max(1),
    }
}

impl<E, Q, PB, MB> TopKIndex<E, Q> for ExpectedTopK<E, Q, PB, MB>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
    MB: MaxBuilder<E, Q>,
{
    fn query_topk(&self, q: &Q, k: usize, out: &mut Vec<E>) {
        let (items, _) = self
            .top_k(q, k, Media::Perfect, &mut FaultMark::default())
            .expect("perfect media cannot fail");
        out.extend(items);
    }

    fn space_blocks(&self) -> u64 {
        let per = self.model.config().items_per_block::<E>().max(1) as u64;
        let data_blocks = (self.data.len() as u64).div_ceil(per);
        self.pri.space_blocks()
            + self
                .maxes
                .iter()
                .map(super::traits::MaxIndex::space_blocks)
                .sum::<u64>()
            + data_blocks
    }

    fn try_query_topk(&self, q: &Q, k: usize, retrier: &Retrier) -> Result<TopKAnswer<E>, EmError> {
        let mut mark = FaultMark::default();
        let body = self.top_k(q, k, Media::Retried(retrier), &mut mark);
        mark.answer(&self.model, body)
    }
}

/// Batched queries via locality-ordered execution: the round procedure of
/// every query walks the same geometric sample structures `R_j` head
/// first, so adjacent queries re-hit the dense upper blocks of each
/// sample through the buffer pool. Answers stay bit-identical to
/// one-at-a-time queries.
impl<E, Q, PB, MB> crate::batch::BatchTopK<E, Q> for ExpectedTopK<E, Q, PB, MB>
where
    E: Element,
    Q: crate::batch::BatchKey,
    PB: PrioritizedBuilder<E, Q>,
    MB: MaxBuilder<E, Q>,
{
}

impl<E, Q, PB, MB> DynamicIndex<E> for ExpectedTopK<E, Q, PB, MB>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
    MB: MaxBuilder<E, Q>,
    PB::Index: DynamicIndex<E>,
    MB::Index: DynamicIndex<E>,
{
    fn insert(&mut self, e: E) {
        let w = e.weight();
        assert!(
            !self.positions.contains_key(&w),
            "duplicate weight {w} on insert"
        );
        self.pri.insert(e.clone());
        let mut levels = Vec::new();
        for (j, &kj) in self.ks.iter().enumerate() {
            if self.rng.gen::<f64>() < 1.0 / kj {
                self.maxes[j].insert(e.clone());
                levels.push(j as u32);
            }
        }
        if !levels.is_empty() {
            self.membership.insert(w, levels);
        }
        self.positions.insert(w, self.data.len());
        self.data.push(e);
        if self.data.len() > 2 * self.built_n {
            let items = std::mem::take(&mut self.data);
            self.rebuild(items);
        }
    }

    fn delete(&mut self, weight: Weight) -> bool {
        let Some(pos) = self.positions.remove(&weight) else {
            return false;
        };
        self.pri.delete(weight);
        if let Some(levels) = self.membership.remove(&weight) {
            for j in levels {
                self.maxes[j as usize].delete(weight);
            }
        }
        self.data.swap_remove(pos);
        if pos < self.data.len() {
            self.positions.insert(self.data[pos].weight(), pos);
        }
        if self.built_n >= 2 && self.data.len() < self.built_n / 2 {
            let items = std::mem::take(&mut self.data);
            self.rebuild(items);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::toy::{
        AllBuilder, AllMaxBuilder, AllQuery, PrefixBuilder, PrefixMaxBuilder, PrefixQuery, ToyElem,
    };
    use emsim::EmConfig;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn mk_items(n: usize, seed: u64) -> Vec<ToyElem> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights: Vec<u64> = (1..=n as u64).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            weights.swap(i, j);
        }
        (0..n)
            .map(|i| ToyElem {
                x: i as u64,
                w: weights[i],
            })
            .collect()
    }

    /// What the indexes of [`Counted`] builders were asked: each
    /// prioritized call as `(τ, items visited)`, and the number of max calls.
    #[derive(Default)]
    struct Calls {
        pri: RefCell<Vec<(Weight, usize)>>,
        max: Cell<usize>,
    }

    impl Calls {
        /// The calls logged since the last `take`.
        fn take(&self) -> (Vec<(Weight, usize)>, usize) {
            (self.pri.take(), self.max.take())
        }
    }

    /// A call-counting decorator for a builder: every index it builds
    /// forwards to the inner index and logs its queries in `calls`.
    struct Counted<B> {
        inner: B,
        calls: Rc<Calls>,
    }

    impl<B> Counted<B> {
        fn new(inner: B, calls: &Rc<Calls>) -> Self {
            Counted {
                inner,
                calls: Rc::clone(calls),
            }
        }
    }

    struct CountedIndex<I> {
        inner: I,
        calls: Rc<Calls>,
    }

    impl<Q, B: PrioritizedBuilder<ToyElem, Q>> PrioritizedBuilder<ToyElem, Q> for Counted<B> {
        type Index = CountedIndex<B::Index>;
        fn build(&self, model: &CostModel, items: Vec<ToyElem>) -> Self::Index {
            CountedIndex {
                inner: self.inner.build(model, items),
                calls: Rc::clone(&self.calls),
            }
        }
        fn query_cost(&self, n: usize, b: usize) -> f64 {
            self.inner.query_cost(n, b)
        }
    }

    impl<Q, B: MaxBuilder<ToyElem, Q>> MaxBuilder<ToyElem, Q> for Counted<B> {
        type Index = CountedIndex<B::Index>;
        fn build(&self, model: &CostModel, items: Vec<ToyElem>) -> Self::Index {
            CountedIndex {
                inner: self.inner.build(model, items),
                calls: Rc::clone(&self.calls),
            }
        }
        fn query_cost(&self, n: usize, b: usize) -> f64 {
            self.inner.query_cost(n, b)
        }
    }

    impl<Q, I: PrioritizedIndex<ToyElem, Q>> PrioritizedIndex<ToyElem, Q> for CountedIndex<I> {
        fn for_each_at_least(&self, q: &Q, tau: Weight, visit: &mut dyn FnMut(&ToyElem) -> bool) {
            let mut seen = 0;
            self.inner.for_each_at_least(q, tau, &mut |e| {
                seen += 1;
                visit(e)
            });
            self.calls.pri.borrow_mut().push((tau, seen));
        }
        fn space_blocks(&self) -> u64 {
            self.inner.space_blocks()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    impl<Q, I: MaxIndex<ToyElem, Q>> MaxIndex<ToyElem, Q> for CountedIndex<I> {
        fn query_max(&self, q: &Q) -> Option<ToyElem> {
            self.calls.max.set(self.calls.max.get() + 1);
            self.inner.query_max(q)
        }
        fn space_blocks(&self) -> u64 {
            self.inner.space_blocks()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    /// Once `|q(D)| > 4K_1`, §4's `τ = 0` probe would be truncated; the
    /// round asks the max structures first and answers from one fetch.
    /// It asks extra levels only for small `k`, and only when their max
    /// structures fit in the buffer pool.
    #[test]
    fn round_samples_first_and_fetches_once() {
        let items = mk_items(20_000, 5);
        // K_1 = B·Q_max = 64: k = 1 may ask PIVOT_LEVELS levels, k = 10
        // only ⌊K_1/4k⌋ = 1, and without a pool every round asks one.
        for (frames, k, levels) in [(4_096, 1, PIVOT_LEVELS), (4_096, 10, 1), (0, 1, 1)] {
            let model = CostModel::new(EmConfig::with_memory(64, frames));
            let calls = Rc::new(Calls::default());
            let t2 = ExpectedTopK::build(
                &model,
                Counted::new(AllBuilder, &calls),
                Counted::new(AllMaxBuilder, &calls),
                items.clone(),
                Theorem2Params::default(),
            );
            assert_eq!(t2.ks[0], 64.0);
            let mut got = Vec::new();
            t2.query_topk(&AllQuery, k, &mut got);
            assert_eq!(got, brute::top_k(&items, |_| true, k), "k={k}");
            let (pri, max) = calls.take();
            assert_eq!(max, levels, "frames={frames} k={k}: max calls");
            assert_eq!(pri.len(), 1, "k={k}: prioritized calls {pri:?}");
            assert!(pri[0].0 > 0, "k={k}: the fetch runs at τ = w(e)");
        }
    }

    /// Empty `q(R_j)`: the round's only prioritized call is the `τ = 0`
    /// probe, which is complete and answers exactly.
    #[test]
    fn empty_sample_falls_back_to_exact_probe() {
        let model = CostModel::new(EmConfig::with_memory(64, 4_096));
        let items = mk_items(5_000, 9);
        let calls = Rc::new(Calls::default());
        let t2 = ExpectedTopK::build(
            &model,
            Counted::new(PrefixBuilder, &calls),
            Counted::new(PrefixMaxBuilder, &calls),
            items.clone(),
            Theorem2Params::default(),
        );
        let k = 5;
        // The first round's level: the first K_j ≥ ⌈K_1⌉.
        let j = t2.ks.partition_point(|&kj| kj < t2.ks[0].ceil());
        let levels = ((t2.ks[j] / (4 * k) as f64) as usize).min(t2.pivot_levels[j]);
        assert!(levels > 1, "K_j = {}", t2.ks[j]);
        let mut empty = 0;
        // Item i sits at x = i, so |q(D)| = x_max + 1 ≤ 4K_1.
        for qx in 0..(4.0 * t2.ks[0]) as u64 - 1 {
            let q = PrefixQuery { x_max: qx };
            let sampled = t2.maxes[j..j + levels]
                .iter()
                .any(|m| m.query_max(&q).is_some());
            calls.take();
            if sampled {
                continue;
            }
            empty += 1;
            let mut got = Vec::new();
            t2.query_topk(&q, k, &mut got);
            assert_eq!(got, brute::top_k(&items, |e| e.x <= qx, k), "q={qx}");
            assert_eq!(calls.take(), (vec![(0, qx as usize + 1)], levels), "q={qx}");
        }
        assert!(empty > 0, "no query with an empty q(R_1)");
    }

    /// A fetch above a pivot that is complete but smaller than `k` is
    /// followed by a fetch above the next lighter pivot, the `τ = 0` probe
    /// last, and the answer stays exact. `k = ⌈K_1⌉` asks one level, so its
    /// small fetch goes straight to the probe; `k = 4` asks several.
    #[test]
    fn small_fetch_steps_to_a_lighter_pivot() {
        let model = CostModel::new(EmConfig::with_memory(64, 4_096));
        let items = mk_items(20_000, 11);
        let calls = Rc::new(Calls::default());
        let t2 = ExpectedTopK::build(
            &model,
            Counted::new(PrefixBuilder, &calls),
            Counted::new(PrefixMaxBuilder, &calls),
            items.clone(),
            Theorem2Params::default(),
        );
        for k in [t2.ks[0].ceil() as usize, 4] {
            let mut steps = 0;
            for qx in (0..20_000u64).step_by(97) {
                let mut got = Vec::new();
                t2.query_topk(&PrefixQuery { x_max: qx }, k, &mut got);
                assert_eq!(got, brute::top_k(&items, |e| e.x <= qx, k), "q={qx}");
                let (pri, max) = calls.take();
                for pair in pri.windows(2) {
                    let ((tau, seen), (next, _)) = (pair[0], pair[1]);
                    if tau > 0 && seen < k {
                        steps += 1;
                        assert!(next < tau, "k={k} q={qx}: {pri:?}");
                        if max == 1 {
                            assert_eq!(next, 0, "k={k} q={qx}: {pri:?}");
                        }
                    }
                }
            }
            assert!(steps > 0, "k={k}: no round took the small-fetch arm");
        }
    }

    #[test]
    fn exact_on_trivial_predicate() {
        let model = CostModel::new(EmConfig::new(64));
        let items = mk_items(20_000, 5);
        let t2 = ExpectedTopK::build(
            &model,
            AllBuilder,
            AllMaxBuilder,
            items.clone(),
            Theorem2Params::default(),
        );
        assert!(t2.levels() > 0);
        for k in [1usize, 2, 10, 64, 100, 1_000, 9_999, 19_999, 20_000, 30_000] {
            let mut got = Vec::new();
            t2.query_topk(&AllQuery, k, &mut got);
            let want = brute::top_k(&items, |_| true, k);
            assert_eq!(
                got.iter().map(|e| e.w).collect::<Vec<_>>(),
                want.iter().map(|e| e.w).collect::<Vec<_>>(),
                "k={k}"
            );
        }
    }

    #[test]
    fn exact_on_prefix_predicate() {
        let model = CostModel::new(EmConfig::new(64));
        let items = mk_items(5_000, 9);
        let t2 = ExpectedTopK::build(
            &model,
            PrefixBuilder,
            PrefixMaxBuilder,
            items.clone(),
            Theorem2Params::default(),
        );
        for qx in [0u64, 100, 2_500, 4_999] {
            for k in [1usize, 5, 100, 1_000, 4_999] {
                let mut got = Vec::new();
                t2.query_topk(&PrefixQuery { x_max: qx }, k, &mut got);
                let want = brute::top_k(&items, |e| e.x <= qx, k);
                assert_eq!(
                    got.iter().map(|e| e.w).collect::<Vec<_>>(),
                    want.iter().map(|e| e.w).collect::<Vec<_>>(),
                    "q={qx} k={k}"
                );
            }
        }
    }

    #[test]
    fn small_inputs_use_naive_path() {
        let model = CostModel::new(EmConfig::new(64));
        let items = mk_items(50, 1);
        let t2 = ExpectedTopK::build(
            &model,
            AllBuilder,
            AllMaxBuilder,
            items.clone(),
            Theorem2Params::default(),
        );
        assert_eq!(t2.levels(), 0); // n/4 < K_1 = B
        let mut got = Vec::new();
        t2.query_topk(&AllQuery, 7, &mut got);
        assert_eq!(got.len(), 7);
        assert_eq!(got[0].w, 50);
    }

    #[test]
    fn sample_sizes_decay_geometrically() {
        let model = CostModel::new(EmConfig::new(64));
        let items = mk_items(100_000, 3);
        let t2 = ExpectedTopK::build(
            &model,
            AllBuilder,
            AllMaxBuilder,
            items,
            Theorem2Params::default(),
        );
        let sizes = t2.sample_sizes();
        assert!(!sizes.is_empty());
        // E|R_1| = n/K_1 = 100000/64 ≈ 1562; allow wide slack.
        assert!(sizes[0] > 800 && sizes[0] < 2_600, "R_1 = {}", sizes[0]);
        // Total copies across all levels ≈ n/K_1 · 1/(1-1/(1+σ)) ≈ 21·n/K_1.
        let total: usize = sizes.iter().sum();
        assert!(total < 60_000, "total copies {total}");
        assert!(*sizes.last().unwrap() <= sizes[0]);
    }

    #[test]
    fn dynamic_updates_match_brute() {
        use crate::toy::{DynPrefixBuilder, DynPrefixMaxBuilder};
        let model = CostModel::new(EmConfig::new(64));
        let mut items = mk_items(3_000, 71);
        let mut t2 = ExpectedTopK::build(
            &model,
            DynPrefixBuilder,
            DynPrefixMaxBuilder,
            items.clone(),
            Theorem2Params::default(),
        );
        let mut rng = StdRng::seed_from_u64(72);
        let mut next_w = 1_000_000u64;
        for step in 0..1_500 {
            if rng.gen_bool(0.5) || items.is_empty() {
                let e = ToyElem {
                    x: rng.gen_range(0..5_000),
                    w: next_w,
                };
                next_w += 1;
                t2.insert(e);
                items.push(e);
            } else {
                let i = rng.gen_range(0..items.len());
                let e = items.swap_remove(i);
                assert!(t2.delete(e.w), "step {step}");
                assert!(!t2.delete(e.w), "double delete step {step}");
            }
            if step % 173 == 0 {
                let qx = rng.gen_range(0..5_000);
                for k in [1usize, 9, 120] {
                    let mut got = Vec::new();
                    t2.query_topk(&PrefixQuery { x_max: qx }, k, &mut got);
                    let want = brute::top_k(&items, |e| e.x <= qx, k);
                    assert_eq!(
                        got.iter().map(|e| e.w).collect::<Vec<_>>(),
                        want.iter().map(|e| e.w).collect::<Vec<_>>(),
                        "step {step} q={qx} k={k}"
                    );
                }
            }
        }
        assert_eq!(t2.len(), items.len());
    }

    #[test]
    fn dynamic_rebuild_triggers_on_growth_and_shrink() {
        use crate::toy::{DynPrefixBuilder, DynPrefixMaxBuilder};
        let model = CostModel::ram();
        let items = mk_items(256, 73);
        let mut t2 = ExpectedTopK::build(
            &model,
            DynPrefixBuilder,
            DynPrefixMaxBuilder,
            items.clone(),
            Theorem2Params::default(),
        );
        let built = t2.built_n;
        // Grow past 2×: rebuild must bump built_n.
        for i in 0..600u64 {
            t2.insert(ToyElem {
                x: i,
                w: 10_000 + i,
            });
        }
        assert!(t2.built_n > built, "rebuild on growth");
        let grown = t2.built_n;
        // Shrink below half: rebuild again.
        let mut weights: Vec<u64> = (0..600).map(|i| 10_000 + i).collect();
        weights.extend(items.iter().map(|e| e.w));
        for w in weights.iter().take(700) {
            t2.delete(*w);
        }
        assert!(t2.built_n < grown, "rebuild on shrink");
        // Still exact.
        let mut got = Vec::new();
        t2.query_topk(&PrefixQuery { x_max: u64::MAX }, 10, &mut got);
        assert_eq!(got.len(), 10.min(t2.len()));
    }

    #[test]
    fn try_query_topk_is_exact_under_inert_plan() {
        // Two identical pooled meters: `query_topk` runs on one,
        // `try_query_topk` on the other. k = 2 000 exceeds K_h and takes
        // the naive path; the other ks run rounds.
        let items = mk_items(5_000, 9);
        let build = || {
            let model =
                CostModel::with_faults(EmConfig::with_memory(64, 32), emsim::FaultPlan::none());
            let t2 = ExpectedTopK::build(
                &model,
                PrefixBuilder,
                PrefixMaxBuilder,
                items.clone(),
                Theorem2Params::default(),
            );
            (model, t2)
        };
        let (ma, a) = build();
        let (mb, b) = build();
        for &qx in &[0u64, 2_500, 4_999] {
            for &k in &[1usize, 5, 100, 1_000, 2_000] {
                let q = PrefixQuery { x_max: qx };
                crate::traits::parity::assert_query_agrees(
                    &format!("q={qx} k={k}"),
                    (&ma, &a),
                    (&mb, &b),
                    &q,
                    k,
                );
                let mut got = Vec::new();
                a.query_topk(&q, k, &mut got);
                let want = brute::top_k(&items, |e| e.x <= qx, k);
                assert_eq!(got, want, "q={qx} k={k}");
            }
        }
    }

    #[test]
    fn chaos_answers_are_exact_or_flagged() {
        use crate::traits::TopKAnswer;
        let model = CostModel::new(EmConfig::new(16));
        let items = mk_items(4_000, 41);
        let t2 = ExpectedTopK::build(
            &model,
            PrefixBuilder,
            PrefixMaxBuilder,
            items.clone(),
            Theorem2Params::default(),
        );
        let retrier = Retrier::new(2);
        let (mut exact, mut degraded, mut errors) = (0u32, 0u32, 0u32);
        for seed in 0..10u64 {
            model.set_fault_plan(emsim::FaultPlan::chaos(seed, 0.01));
            for &qx in &[60u64, 2_000, 3_999] {
                for &k in &[1usize, 16, 200, 2_500] {
                    let q = PrefixQuery { x_max: qx };
                    match t2.try_query_topk(&q, k, &retrier) {
                        Ok(TopKAnswer::Exact(got)) => {
                            exact += 1;
                            let want = brute::top_k(&items, |e| e.x <= qx, k);
                            assert_eq!(
                                got.iter().map(|e| e.w).collect::<Vec<_>>(),
                                want.iter().map(|e| e.w).collect::<Vec<_>>(),
                                "seed={seed} q={qx} k={k}"
                            );
                        }
                        Ok(TopKAnswer::Degraded { items: got, .. }) => {
                            degraded += 1;
                            assert!(got.windows(2).all(|w| w[0].w > w[1].w));
                            assert!(got.len() <= k);
                            for e in &got {
                                assert!(e.x <= qx, "degraded item must satisfy q");
                                assert!(
                                    items.iter().any(|i| i.w == e.w && i.x == e.x),
                                    "degraded item must be genuine"
                                );
                            }
                        }
                        Err(_) => errors += 1,
                    }
                }
            }
        }
        model.set_fault_plan(emsim::FaultPlan::none());
        assert!(exact > 0, "some queries should survive the chaos plan");
        assert!(
            degraded + errors > 0,
            "chaos should surface at least one fault (exact={exact})"
        );
    }

    #[test]
    fn expectation_argument_membership_is_sparse() {
        let model = CostModel::new(EmConfig::new(64));
        let items = mk_items(50_000, 4);
        let t2 = ExpectedTopK::build(
            &model,
            AllBuilder,
            AllMaxBuilder,
            items,
            Theorem2Params::default(),
        );
        // Elements with ≥1 copy should be a small fraction of n.
        assert!(t2.membership.len() < 25_000);
    }

    /// All of `D` in input order. Its fallible visitor fails after `cut`
    /// visits, as a structure does when a block stays unreadable mid-query.
    struct CutBuilder(usize);

    struct CutIndex {
        items: Vec<ToyElem>,
        cut: usize,
    }

    impl PrioritizedBuilder<ToyElem, AllQuery> for CutBuilder {
        type Index = CutIndex;
        fn build(&self, _model: &CostModel, items: Vec<ToyElem>) -> CutIndex {
            CutIndex { items, cut: self.0 }
        }
        fn query_cost(&self, _n: usize, _b: usize) -> f64 {
            1.0
        }
    }

    impl PrioritizedIndex<ToyElem, AllQuery> for CutIndex {
        fn for_each_at_least(
            &self,
            _q: &AllQuery,
            tau: Weight,
            visit: &mut dyn FnMut(&ToyElem) -> bool,
        ) {
            for e in self.items.iter().filter(|e| e.w >= tau) {
                if !visit(e) {
                    return;
                }
            }
        }
        fn try_for_each_at_least(
            &self,
            _q: &AllQuery,
            tau: Weight,
            _retrier: &Retrier,
            visit: &mut dyn FnMut(&ToyElem) -> bool,
        ) -> Result<(), EmError> {
            for (i, e) in self.items.iter().filter(|e| e.w >= tau).enumerate() {
                if i == self.cut {
                    return Err(EmError::BadBlock {
                        array_id: 0,
                        block: i as u64,
                    });
                }
                if !visit(e) {
                    break;
                }
            }
            Ok(())
        }
        fn space_blocks(&self) -> u64 {
            1
        }
        fn len(&self) -> usize {
            self.items.len()
        }
    }

    /// With 200 items there is no sampling level (`n ≤ 4K_1`), so every
    /// query takes the naive scan. When its visitor dies mid-query, the
    /// answer is the top k of the prefix it visited, on the one-block heap
    /// (k ≤ B' = 32) and on the threshold spill alike.
    #[test]
    fn naive_scan_degrades_to_the_top_k_of_the_visited_prefix() {
        let items = mk_items(200, 9);
        let model = CostModel::new(EmConfig::new(64));
        for cut in [1, 57, 199] {
            let t2 = ExpectedTopK::build(
                &model,
                CutBuilder(cut),
                AllMaxBuilder,
                items.clone(),
                Theorem2Params::default(),
            );
            assert_eq!(t2.levels(), 0);
            for k in [1, 10, 32, 33, 300] {
                let want = brute::top_k(&items[..cut], |_| true, k);
                match t2.try_query_topk(&AllQuery, k, &Retrier::default()) {
                    Ok(TopKAnswer::Degraded { items, .. }) => {
                        assert_eq!(items, want, "cut={cut} k={k}");
                    }
                    other => panic!("cut={cut} k={k}: {other:?}"),
                }
            }
        }
    }

    /// Without a pool, a round's k ≤ B' candidates stream through a
    /// one-block heap as the fetch reports them: the `select` phase charges
    /// only the output block, not a re-read of the fetched candidates.
    #[test]
    fn unpooled_round_selection_charges_only_its_output() {
        let items = mk_items(20_000, 5);
        let model = CostModel::new(EmConfig::new(64));
        let t2 = ExpectedTopK::build(
            &model,
            AllBuilder,
            AllMaxBuilder,
            items.clone(),
            Theorem2Params::default(),
        );
        let per = model.config().items_per_block::<ToyElem>();
        for k in [1, 10, per] {
            let (got, report) = model.explain(|| {
                let mut got = Vec::new();
                t2.query_topk(&AllQuery, k, &mut got);
                got
            });
            assert_eq!(got, brute::top_k(&items, |_| true, k), "k={k}");
            assert_eq!(
                report.phases[phase::SELECT.label()].reads,
                1,
                "k={k}: ⌈k/B'⌉"
            );
        }
    }
}
