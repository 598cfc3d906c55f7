//! Baselines the paper compares against.
//!
//! * [`BinarySearchTopK`] — the prior state-of-the-art general reduction of
//!   Rahul & Janardan \[28\] as characterized by eqs. (1)–(2) of §1.2:
//!   binary search on the weight threshold `τ`, answering each probe with a
//!   cost-monitored prioritized query. Query cost
//!   `O((Q_pri(n) + k/B)·log₂ n)` — note the *multiplicative* `log₂ n` on
//!   `k/B` that Theorem 1 eliminates (experiment E6).
//! * [`ScanTopK`] — the trivial structure: keep `D` in `O(n/B)` blocks,
//!   answer every query by a full scan plus k-selection in `O(n/B)`.
//!   (Requires predicate evaluation, so it is generic over a matcher
//!   closure — unlike the reductions, which are black-box.)

use emsim::trace::phase;
use emsim::{BlockArray, CostModel, EmError, Media, Retrier};

use crate::batch::{BatchKey, BatchTopK};
use crate::traits::{
    query, query_monitored, selection, Element, FaultMark, PrioritizedBuilder, PrioritizedIndex,
    Selection, TopKAnswer, TopKIndex, Weight,
};

/// The binary-search reduction of \[28\] (eqs. (1)–(2)).
pub struct BinarySearchTopK<E, Q, PB>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
{
    model: CostModel,
    pri: PB::Index,
    /// All weights, ascending, in blocks — the binary-search domain.
    weights: BlockArray<Weight>,
    _q: std::marker::PhantomData<Q>,
}

impl<E, Q, PB> BinarySearchTopK<E, Q, PB>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
{
    /// Build on `items` (distinct weights required).
    pub fn build(model: &CostModel, builder: &PB, items: Vec<E>) -> Self {
        let _build = model.span(phase::BUILD);
        let mut ws: Vec<Weight> = items.iter().map(Element::weight).collect();
        emsim::sort::external_sort_by(model, &mut ws, |&w| w);
        for w in ws.windows(2) {
            assert!(w[0] != w[1], "weights must be distinct");
        }
        let weights = BlockArray::new(model, ws);
        let pri = builder.build(model, items);
        BinarySearchTopK {
            model: model.clone(),
            pri,
            weights,
            _q: std::marker::PhantomData,
        }
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
        if k == 0 || self.weights.is_empty() {
            return Ok((Vec::new(), true));
        }
        match self.search(q, k, media) {
            Ok(items) => Ok((items, true)),
            Err(_) => {
                // A probe (weight read or counting query) stayed unreadable.
                // One exact full prioritized query answers regardless of τ*;
                // if that fails too, degrade to its partial prefix.
                mark.note(&self.model);
                let _g = self.model.span(phase::DEGRADE);
                let mut s = selection(&self.model, k);
                match query(media, &self.pri, q, 0, &mut s) {
                    Ok(()) => Ok((s.finish(&self.model), true)),
                    Err(_) if s.seen() > 0 => Ok((s.finish(&self.model), false)),
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// The binary search itself. Any unrecoverable fault aborts it: a
    /// binary search cannot route around a missing probe.
    fn search(&self, q: &Q, k: usize, media: Media) -> Result<Vec<E>, EmError> {
        // |{e ∈ q(D) : w(e) ≥ τ}|, capped at k+1, via a monitored
        // prioritized query (cost Q_pri + O(k/B)). A selection of none
        // keeps no element; it only counts the visits.
        let count_from = |tau: Weight| -> Result<usize, EmError> {
            let mut counted = selection(&self.model, 0);
            query_monitored(media, &self.pri, q, tau, k, &mut counted)?;
            Ok(counted.seen())
        };
        let n = self.weights.len();
        // Binary search over the sorted weight array for the largest τ with
        // |{w ≥ τ} ∩ q(D)| ≥ k. Invariant: count(weights[hi..]) < k ≤
        // count(weights[lo..]) — treating count(weights[0..]) as the k-cap.
        let mut lo = 0usize; // count(w ≥ weights[lo]) ≥ k, "low weight" side
        let mut hi = n; // exclusive; count above weights[hi] < k
        let search = self.model.span(phase::PROBE);
        // Quick check at the lowest weight: fewer than k matches in total?
        // Then the monitored query was complete and holds all of q(D).
        let lowest = *self.weights.try_get(0, media)?;
        let mut all = selection(&self.model, k);
        query_monitored(media, &self.pri, q, lowest, k, &mut all)?;
        if all.seen() < k {
            drop(search);
            let _g = self.model.span(phase::SELECT);
            return Ok(all.finish(&self.model));
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if count_from(*self.weights.try_get(mid, media)?)? >= k {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // τ* = weights[lo]: at least k matches at or above it, fewer than k
        // strictly above the next weight. Fetch and k-select.
        let tau = *self.weights.try_get(lo, media)?;
        let mut s = selection(&self.model, k);
        query(media, &self.pri, q, tau, &mut s)?;
        drop(search);
        let _g = self.model.span(phase::SELECT);
        Ok(s.finish(&self.model))
    }
}

impl<E, Q, PB> TopKIndex<E, Q> for BinarySearchTopK<E, Q, PB>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
{
    fn query_topk(&self, q: &Q, k: usize, out: &mut Vec<E>) {
        let (items, _) = self
            .top_k(q, k, Media::Perfect, &mut FaultMark::default())
            .expect("perfect media cannot fail");
        out.extend(items);
    }

    fn space_blocks(&self) -> u64 {
        self.pri.space_blocks() + self.weights.blocks()
    }

    fn try_query_topk(&self, q: &Q, k: usize, retrier: &Retrier) -> Result<TopKAnswer<E>, EmError> {
        let mut mark = FaultMark::default();
        let body = self.top_k(q, k, Media::Retried(retrier), &mut mark);
        mark.answer(&self.model, body)
    }
}

/// Batched queries via locality-ordered execution: adjacent probes of the
/// binary search re-read the same sorted-weight blocks and prioritized
/// structure prefix, which the buffer pool amortizes across the batch.
impl<E, Q, PB> BatchTopK<E, Q> for BinarySearchTopK<E, Q, PB>
where
    E: Element,
    Q: BatchKey,
    PB: PrioritizedBuilder<E, Q>,
{
}

/// The trivial scan baseline.
pub struct ScanTopK<E, Q, F>
where
    E: Element,
    F: Fn(&Q, &E) -> bool,
{
    model: CostModel,
    data: BlockArray<E>,
    matches: F,
    _q: std::marker::PhantomData<Q>,
}

impl<E, Q, F> ScanTopK<E, Q, F>
where
    E: Element,
    F: Fn(&Q, &E) -> bool,
{
    /// Store `items` in blocks; `matches` evaluates the predicate.
    pub fn build(model: &CostModel, items: Vec<E>, matches: F) -> Self {
        ScanTopK {
            model: model.clone(),
            data: BlockArray::new(model, items),
            matches,
            _q: std::marker::PhantomData,
        }
    }
}

impl<E, Q, F> ScanTopK<E, Q, F>
where
    E: Element,
    F: Fn(&Q, &E) -> bool,
{
    /// The query body behind every entry point, solo and batched: one pass
    /// over `D` offers each item to the selector of every query it
    /// matches, then each selection finishes. When the scan dies at an
    /// unreadable block, everything offered before it is a genuine prefix
    /// for every query, so each degrades to the top k of its own partial
    /// candidates, or is `Err` if it had none yet. Nothing is retried: the scan has no redundant structure to
    /// fall back on.
    fn scan_top_k(
        &self,
        queries: &[Q],
        k: usize,
        media: Media,
    ) -> Vec<Result<TopKAnswer<E>, EmError>> {
        if k == 0 || queries.is_empty() {
            return queries
                .iter()
                .map(|_| Ok(TopKAnswer::Exact(Vec::new())))
                .collect();
        }
        let mut candidates: Vec<Selection<E>> =
            queries.iter().map(|_| selection(&self.model, k)).collect();
        let scan_span = self.model.span(phase::SCAN);
        let scan = self.data.try_scan_while(0, self.data.len(), media, |e| {
            for (q, c) in queries.iter().zip(candidates.iter_mut()) {
                if (self.matches)(q, e) {
                    c.offer(e);
                }
            }
            true
        });
        drop(scan_span);
        match scan {
            Ok(_) => candidates
                .into_iter()
                .map(|c| {
                    let _g = self.model.span(phase::SELECT);
                    Ok(TopKAnswer::Exact(c.finish(&self.model)))
                })
                .collect(),
            Err((_, e)) => {
                let _g = self.model.span(phase::DEGRADE);
                let mut mark = FaultMark::default();
                mark.note(&self.model);
                candidates
                    .into_iter()
                    .map(|c| {
                        if c.seen() == 0 {
                            return Err(e.clone());
                        }
                        let items = c.finish(&self.model);
                        Ok(TopKAnswer::Degraded {
                            items,
                            extra_ios: mark.extra(&self.model),
                        })
                    })
                    .collect()
            }
        }
    }
}

impl<E, Q, F> TopKIndex<E, Q> for ScanTopK<E, Q, F>
where
    E: Element,
    F: Fn(&Q, &E) -> bool,
{
    fn query_topk(&self, q: &Q, k: usize, out: &mut Vec<E>) {
        for answer in self.scan_top_k(std::slice::from_ref(q), k, Media::Perfect) {
            out.extend(answer.expect("perfect media cannot fail").into_items());
        }
    }

    fn space_blocks(&self) -> u64 {
        self.data.blocks()
    }

    fn try_query_topk(&self, q: &Q, k: usize, retrier: &Retrier) -> Result<TopKAnswer<E>, EmError> {
        let mut answers = self.scan_top_k(std::slice::from_ref(q), k, Media::Retried(retrier));
        answers.pop().expect("one answer per query")
    }
}

/// True algorithmic batching for the scan baseline: one shared `O(n/B)`
/// pass over `D` feeds the selector of *every* query in the batch —
/// `O(n/B + m·cost(select))` for `m` queries instead of `m` full scans.
/// Each query's selector is offered what its solo scan would offer (same
/// data, same order), and k-selection is deterministic given its
/// candidates, so batch answers are bit-identical to one-at-a-time
/// answers.
impl<E, Q, F> BatchTopK<E, Q> for ScanTopK<E, Q, F>
where
    E: Element,
    Q: BatchKey,
    F: Fn(&Q, &E) -> bool,
{
    fn query_topk_batch(&self, queries: &[Q], k: usize) -> Vec<Vec<E>> {
        let _batch = self.model.span(phase::BATCH);
        self.scan_top_k(queries, k, Media::Perfect)
            .into_iter()
            .map(|answer| answer.expect("perfect media cannot fail").into_items())
            .collect()
    }

    fn try_query_topk_batch(
        &self,
        queries: &[Q],
        k: usize,
        retrier: &Retrier,
    ) -> Vec<Result<TopKAnswer<E>, EmError>> {
        let _batch = self.model.span(phase::BATCH);
        self.scan_top_k(queries, k, Media::Retried(retrier))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::toy::{PrefixBuilder, PrefixQuery, ToyElem};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn binary_search_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk_items(3_000, 21);
        let bs = BinarySearchTopK::build(&model, &PrefixBuilder, items.clone());
        for qx in [0u64, 10, 1_500, 2_999] {
            for k in [1usize, 3, 64, 500, 2_999, 4_000] {
                let mut got = Vec::new();
                bs.query_topk(&PrefixQuery { x_max: qx }, k, &mut got);
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
    fn binary_search_answers_a_small_q_from_its_quick_check() {
        // |q(D)| = 11 < k: the monitored quick check at the lowest weight
        // is complete and holds all of q(D), so no second query runs.
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk_items(3_000, 21);
        let bs = BinarySearchTopK::build(&model, &PrefixBuilder, items.clone());
        let q = PrefixQuery { x_max: 10 };
        let (got, report) = model.explain(|| {
            let mut got = Vec::new();
            bs.query_topk(&q, 64, &mut got);
            got
        });
        assert_eq!(got, brute::top_k(&items, |e| e.x <= 10, 64));
        assert!(!report.phases.contains_key(phase::FALLBACK.label()));
    }

    #[test]
    fn scan_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk_items(1_000, 22);
        let sc = ScanTopK::build(&model, items.clone(), |q: &PrefixQuery, e: &ToyElem| {
            e.x <= q.x_max
        });
        for qx in [0u64, 500, 999] {
            for k in [1usize, 10, 999, 1_001] {
                let mut got = Vec::new();
                sc.query_topk(&PrefixQuery { x_max: qx }, k, &mut got);
                let want = brute::top_k(&items, |e| e.x <= qx, k);
                assert_eq!(got.len(), want.len(), "q={qx} k={k}");
                assert_eq!(
                    got.iter().map(|e| e.w).collect::<Vec<_>>(),
                    want.iter().map(|e| e.w).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn scan_cost_is_n_over_b() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let n = 64_000;
        let items = mk_items(n, 23);
        let sc = ScanTopK::build(&model, items, |_: &PrefixQuery, _: &ToyElem| true);
        model.reset();
        let mut got = Vec::new();
        sc.query_topk(&PrefixQuery { x_max: 0 }, 1, &mut got);
        let reads = model.report().reads;
        // 2 words per elem → 32 per block → 2000 blocks. The one survivor
        // streams through the selection, which adds its output block.
        assert_eq!(reads, 2_001);
    }

    #[test]
    fn scan_degrades_to_the_top_k_of_the_scanned_prefix() {
        // A permanent fault stops the scan at its first bad block. Every
        // query then answers the top k of the items scanned before it:
        // k ≥ n returns that whole prefix, and smaller k its heaviest.
        let n = 2_000;
        let items = mk_items(n, 24);
        let plan = emsim::FaultPlan::new(1).with_permanent(0.05);
        let model = CostModel::with_faults(emsim::EmConfig::new(64), plan);
        let sc = ScanTopK::build(&model, items.clone(), |_: &PrefixQuery, _: &ToyElem| true);
        let q = PrefixQuery { x_max: 0 };
        let retrier = Retrier::new(2);
        let degraded = |k| match sc.try_query_topk(&q, k, &retrier) {
            Ok(TopKAnswer::Degraded { items, .. }) => items,
            other => panic!("k={k}: {other:?}"),
        };
        let scanned = degraded(n).len();
        assert!(0 < scanned && scanned < n, "the fault falls mid-scan");
        for k in [1, 10, 32, 33, n] {
            let want = brute::top_k(&items[..scanned], |_| true, k);
            assert_eq!(degraded(k), want, "k={k}");
        }
    }

    #[test]
    fn try_query_topk_is_exact_under_inert_plan() {
        use crate::traits::parity::{assert_query_agrees, assert_runs_agree};
        // Two identical pooled meters: the infallible entry points run on
        // one, the fallible ones on the other. k = 1 600 exceeds every
        // |q(D)| and takes the binary search's fallback.
        let items = mk_items(1_500, 31);
        let matches = |q: &PrefixQuery, e: &ToyElem| e.x <= q.x_max;
        let build = || {
            let model = CostModel::with_faults(
                emsim::EmConfig::with_memory(64, 32),
                emsim::FaultPlan::none(),
            );
            let bs = BinarySearchTopK::build(&model, &PrefixBuilder, items.clone());
            let sc = ScanTopK::build(&model, items.clone(), matches);
            (model, bs, sc)
        };
        let (ma, bs_a, sc_a) = build();
        let (mb, bs_b, sc_b) = build();
        let retrier = Retrier::default();
        for &qx in &[0u64, 750, 1_499] {
            for &k in &[1usize, 12, 400, 1_600] {
                let q = PrefixQuery { x_max: qx };
                assert_query_agrees(
                    &format!("bs q={qx} k={k}"),
                    (&ma, &bs_a),
                    (&mb, &bs_b),
                    &q,
                    k,
                );
                assert_query_agrees(
                    &format!("sc q={qx} k={k}"),
                    (&ma, &sc_a),
                    (&mb, &sc_b),
                    &q,
                    k,
                );
                let want = brute::top_k(&items, |e| e.x <= qx, k);
                for idx in [&bs_a as &dyn TopKIndex<_, _>, &sc_a] {
                    let mut got = Vec::new();
                    idx.query_topk(&q, k, &mut got);
                    assert_eq!(got, want, "q={qx} k={k}");
                }
            }
            let qs: Vec<PrefixQuery> = (0..5)
                .map(|i| PrefixQuery {
                    x_max: qx / (i + 1),
                })
                .collect();
            assert_runs_agree(
                &format!("sc batch q={qx}"),
                (&ma, || sc_a.query_topk_batch(&qs, 12)),
                (&mb, || sc_b.try_query_topk_batch(&qs, 12, &retrier)),
            );
        }
    }

    #[test]
    fn chaos_answers_are_exact_or_flagged() {
        use crate::traits::TopKAnswer;
        let model = CostModel::new(emsim::EmConfig::new(16));
        let items = mk_items(2_000, 33);
        let bs = BinarySearchTopK::build(&model, &PrefixBuilder, items.clone());
        let sc = ScanTopK::build(&model, items.clone(), |q: &PrefixQuery, e: &ToyElem| {
            e.x <= q.x_max
        });
        let retrier = Retrier::new(2);
        let (mut exact, mut faulted) = (0u32, 0u32);
        let mut check =
            |answer: Result<TopKAnswer<ToyElem>, emsim::EmError>, qx: u64, k: usize| match answer {
                Ok(TopKAnswer::Exact(got)) => {
                    exact += 1;
                    let want = brute::top_k(&items, |e| e.x <= qx, k);
                    assert_eq!(
                        got.iter().map(|e| e.w).collect::<Vec<_>>(),
                        want.iter().map(|e| e.w).collect::<Vec<_>>(),
                        "q={qx} k={k}"
                    );
                }
                Ok(TopKAnswer::Degraded { items: got, .. }) => {
                    faulted += 1;
                    assert!(got.windows(2).all(|w| w[0].w > w[1].w));
                    for e in &got {
                        assert!(e.x <= qx, "degraded item must satisfy q");
                        assert!(items.iter().any(|i| i.w == e.w && i.x == e.x));
                    }
                }
                Err(_) => faulted += 1,
            };
        for seed in 0..10u64 {
            model.set_fault_plan(emsim::FaultPlan::chaos(seed, 0.01));
            for &qx in &[40u64, 1_000, 1_999] {
                for &k in &[1usize, 20, 500] {
                    let q = PrefixQuery { x_max: qx };
                    check(bs.try_query_topk(&q, k, &retrier), qx, k);
                    check(sc.try_query_topk(&q, k, &retrier), qx, k);
                }
            }
        }
        model.set_fault_plan(emsim::FaultPlan::none());
        assert!(exact > 0, "some queries should survive the chaos plan");
        assert!(faulted > 0, "chaos should surface at least one fault");
    }

    #[test]
    fn empty_and_k_zero() {
        let model = CostModel::ram();
        let bs: BinarySearchTopK<ToyElem, PrefixQuery, PrefixBuilder> =
            BinarySearchTopK::build(&model, &PrefixBuilder, Vec::new());
        let mut out = Vec::new();
        bs.query_topk(&PrefixQuery { x_max: 5 }, 3, &mut out);
        assert!(out.is_empty());
        let items = mk_items(5, 2);
        let bs = BinarySearchTopK::build(&model, &PrefixBuilder, items);
        bs.query_topk(&PrefixQuery { x_max: 5 }, 0, &mut out);
        assert!(out.is_empty());
    }
}
