//! Batched top-k execution: serve many queries in one pass.
//!
//! Every structure in this crate answers queries one at a time, which
//! means consecutive queries over the same region independently re-fetch
//! the same upper-level blocks — the root-to-leaf prefix of a hierarchy
//! level, the shared rungs of Theorem 1's ladder, the dense head of
//! Theorem 2's sample structures. Under a buffer pool those re-fetches are
//! exactly the blocks that *would* be free if the queries ran back to
//! back, so a batch engine needs only two ingredients:
//!
//! 1. **Locality order** — sort the batch by a per-query locality key
//!    ([`BatchKey`]) so queries touching the same region run adjacently
//!    and their shared blocks are pool-resident when the next query needs
//!    them. The sort is stable on the input index, so equal keys keep
//!    their submission order and the whole schedule is deterministic.
//! 2. **Answer transparency** — each query still runs the structure's own
//!    `query_topk`, so batch answers are *bit-identical* to one-at-a-time
//!    answers (asserted by experiment E17); only the I/O cost changes.
//!
//! [`ScanTopK`](crate::ScanTopK) overrides the default with true
//! algorithmic batching: one shared `O(n/B)` scan collects candidates for
//! every query in the batch at once.
//!
//! The fallible variants compose with the PR-2 fault ladder: each query
//! produces its own [`TopKAnswer`] (exact, degraded, or `Err`), retried
//! through the caller's [`Retrier`], and one query's fault never poisons
//! its batch neighbours.

use emsim::trace::{phase, phase_scope};
use emsim::{EmError, Retrier};

use crate::traits::{Element, TopKAnswer, TopKIndex};

/// A query that can state a scalar locality key: queries with nearby keys
/// touch overlapping parts of the structure, so sorting a batch by this
/// key maximizes buffer-pool reuse between adjacent queries.
///
/// The key only orders the batch — it never changes any answer — so a
/// coarse key (or even a constant) is always *correct*, merely less
/// effective at amortizing I/O.
pub trait BatchKey {
    /// The locality key this query sorts by within a batch.
    fn batch_key(&self) -> u64;
}

/// References order like the queries they point at, so schedulers that
/// gather `&Q` views of a partially-admitted batch (the serving loop) can
/// feed them straight to [`locality_order`].
impl<Q: BatchKey + ?Sized> BatchKey for &Q {
    fn batch_key(&self) -> u64 {
        (**self).batch_key()
    }
}

/// The execution schedule for a batch: indices into `queries`, sorted by
/// `(batch_key, input index)` — deterministic, stable on ties.
///
/// Keys are materialized once so the sort comparator is a pure integer
/// compare (no repeated `batch_key()` virtual calls in the hot loop), and
/// the `(key, index)` pair makes an *unstable* sort produce the stable
/// order — the same trick the selection kernels use to keep every backend
/// bit-identical.
pub fn locality_order<Q: BatchKey>(queries: &[Q]) -> Vec<usize> {
    let keys: Vec<u64> = queries.iter().map(BatchKey::batch_key).collect();
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_unstable_by_key(|&i| (keys[i], i));
    order
}

/// Batched top-k: answer a slice of queries in one locality-ordered pass.
///
/// The default implementations execute the structure's own single-query
/// paths in [`locality_order`], returning answers in *input* order — the
/// amortization comes entirely from the buffer pool seeing a
/// locality-friendly access sequence. Structures with a genuinely shared
/// execution plan (e.g. [`crate::ScanTopK`]) override them.
pub trait BatchTopK<E: Element, Q: BatchKey>: TopKIndex<E, Q> {
    /// Answer every query in `queries` with its top-k, heaviest first.
    /// `results[i]` corresponds to `queries[i]` regardless of the internal
    /// execution order, and is bit-identical to what
    /// [`TopKIndex::query_topk`] would report for that query alone.
    fn query_topk_batch(&self, queries: &[Q], k: usize) -> Vec<Vec<E>> {
        // Ambient phase, not a meter span: the trait has no CostModel, and
        // the inner query paths open their own spans anyway. Only the batch
        // machinery itself (and any unlabelled inner charge) lands here.
        let _batch = phase_scope(phase::BATCH);
        let mut results: Vec<Vec<E>> = queries.iter().map(|_| Vec::new()).collect();
        for i in locality_order(queries) {
            self.query_topk(&queries[i], k, &mut results[i]);
        }
        results
    }

    /// Fallible batch: each query independently runs the structure's
    /// [`TopKIndex::try_query_topk`] ladder (retry → degrade → `Err`), in
    /// locality order, results in input order. A query that degrades or
    /// fails does not disturb its neighbours' answers.
    fn try_query_topk_batch(
        &self,
        queries: &[Q],
        k: usize,
        retrier: &Retrier,
    ) -> Vec<Result<TopKAnswer<E>, EmError>> {
        let _batch = phase_scope(phase::BATCH);
        let mut results: Vec<Option<Result<TopKAnswer<E>, EmError>>> =
            queries.iter().map(|_| None).collect();
        for i in locality_order(queries) {
            results[i] = Some(self.try_query_topk(&queries[i], k, retrier));
        }
        results
            .into_iter()
            .map(|r| r.expect("every query index is scheduled exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct K(u64);
    impl BatchKey for K {
        fn batch_key(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn locality_order_sorts_by_key_then_index() {
        let qs = [K(5), K(1), K(5), K(0)];
        assert_eq!(locality_order(&qs), vec![3, 1, 0, 2]);
        assert_eq!(locality_order::<K>(&[]), Vec::<usize>::new());
    }

    mod structures {
        use emsim::{CostModel, EmConfig, FaultPlan, Retrier};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use crate::baseline::{BinarySearchTopK, ScanTopK};
        use crate::batch::BatchTopK;
        use crate::theorem1::{Theorem1Params, WorstCaseTopK};
        use crate::theorem2::{ExpectedTopK, Theorem2Params};
        use crate::toy::{PrefixBuilder, PrefixMaxBuilder, PrefixQuery, ToyElem};

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

        fn queries(n: usize) -> Vec<PrefixQuery> {
            // Deliberately unsorted keys, with duplicates.
            (0..24u64)
                .map(|i| PrefixQuery {
                    x_max: (i * 7919 + 13) % n as u64,
                })
                .collect()
        }

        /// Batch answers must be bit-identical to one-at-a-time answers,
        /// for every structure, under a pooled meter (where the batch
        /// changes the hit pattern but must not change any answer).
        #[test]
        fn batch_answers_match_sequential_for_every_structure() {
            let model = CostModel::with_faults(EmConfig::with_memory(64, 16), FaultPlan::none());
            let items = mk_items(1_200, 77);
            let qs = queries(1_200);

            let t1 = WorstCaseTopK::build(
                &model,
                &PrefixBuilder,
                items.clone(),
                Theorem1Params::new(1.0),
            );
            let t2 = ExpectedTopK::build(
                &model,
                PrefixBuilder,
                PrefixMaxBuilder,
                items.clone(),
                Theorem2Params::default(),
            );
            let bs = BinarySearchTopK::build(&model, &PrefixBuilder, items.clone());
            let sc = ScanTopK::build(&model, items.clone(), |q: &PrefixQuery, e: &ToyElem| {
                e.x <= q.x_max
            });

            fn check<I: BatchTopK<ToyElem, PrefixQuery>>(
                name: &str,
                idx: &I,
                qs: &[PrefixQuery],
                k: usize,
            ) {
                let batch = idx.query_topk_batch(qs, k);
                assert_eq!(batch.len(), qs.len());
                for (q, got) in qs.iter().zip(&batch) {
                    let mut solo = Vec::new();
                    idx.query_topk(q, k, &mut solo);
                    assert_eq!(
                        got.iter().map(|e| (e.x, e.w)).collect::<Vec<_>>(),
                        solo.iter().map(|e| (e.x, e.w)).collect::<Vec<_>>(),
                        "{name}: batch answer differs for x_max={} k={k}",
                        q.x_max
                    );
                }
            }

            for k in [1usize, 8, 100] {
                check("theorem1", &t1, &qs, k);
                check("theorem2", &t2, &qs, k);
                check("binary_search", &bs, &qs, k);
                check("scan", &sc, &qs, k);
            }
            // k = 0 and the empty batch are trivially consistent.
            assert!(t1.query_topk_batch(&qs, 0).iter().all(Vec::is_empty));
            assert!(sc.query_topk_batch(&qs, 0).iter().all(Vec::is_empty));
            assert!(sc.query_topk_batch(&[], 3).is_empty());
        }

        /// The fallible batch path composes with the retry/degrade ladder:
        /// inert plans give all-Exact answers matching the infallible
        /// batch; chaos plans give per-query Exact/Degraded/Err outcomes
        /// whose Exact answers still match the fault-free truth.
        #[test]
        fn try_batch_composes_with_the_fault_ladder() {
            let model = CostModel::with_faults(EmConfig::with_memory(16, 8), FaultPlan::none());
            let items = mk_items(800, 78);
            let qs = queries(800);
            let retrier = Retrier::new(2);
            let sc = ScanTopK::build(&model, items.clone(), |q: &PrefixQuery, e: &ToyElem| {
                e.x <= q.x_max
            });
            let bs = BinarySearchTopK::build(&model, &PrefixBuilder, items.clone());

            let truth = sc.query_topk_batch(&qs, 10);
            for answers in [
                sc.try_query_topk_batch(&qs, 10, &retrier),
                bs.try_query_topk_batch(&qs, 10, &retrier),
            ] {
                for (want, got) in truth.iter().zip(answers) {
                    let got = got.expect("inert plan never fails");
                    assert!(got.is_exact());
                    assert_eq!(
                        got.items().iter().map(|e| e.w).collect::<Vec<_>>(),
                        want.iter().map(|e| e.w).collect::<Vec<_>>()
                    );
                }
            }

            let mut non_exact = 0u32;
            for seed in 0..8u64 {
                model.set_fault_plan(FaultPlan::chaos(seed, 0.02));
                for (want, answer) in truth.iter().zip(sc.try_query_topk_batch(&qs, 10, &retrier)) {
                    match answer {
                        Ok(a) if a.is_exact() => assert_eq!(
                            a.items().iter().map(|e| e.w).collect::<Vec<_>>(),
                            want.iter().map(|e| e.w).collect::<Vec<_>>(),
                            "Exact survivors must equal the fault-free truth"
                        ),
                        _ => non_exact += 1,
                    }
                }
            }
            model.set_fault_plan(FaultPlan::none());
            assert!(non_exact > 0, "chaos should surface at least one fault");
        }
    }
}
