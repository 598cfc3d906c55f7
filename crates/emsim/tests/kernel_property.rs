//! Property suite pinning the PR-6 kernel-equivalence invariant: for any
//! input, any `k`, any pool policy (exact LRU / sharded CLOCK), and any
//! fault plan, every kernel backend (scalar reference, 4-lane unrolled,
//! AVX2 where the CPU has it) produces
//!
//! * the same selection output (bit-identical `Vec`, same order),
//! * the same metered I/O counts (the stable branch-free partition
//!   preserves the quickselect pivot sequence, hence the pass count),
//! * the same per-phase trace sums (everything except the wall-clock
//!   `nanos` field, which is the one deliberately non-deterministic
//!   counter).
//!
//! This is the enforcement arm of the golden-baseline discipline: the
//! goldens pin one number per experiment, this suite pins the reason the
//! number cannot depend on the dispatch path.

use std::sync::Arc;

use emsim::kernels::{avx2_available, with_backend, Backend};
use emsim::select::{top_k_by_ord, top_k_by_weight};
use emsim::trace::{phase, RecordingSink};
use emsim::{CostModel, EmConfig, FaultPlan, PoolPolicy};
use proptest::prelude::*;

fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar, Backend::Unrolled];
    if avx2_available() {
        v.push(Backend::Avx2);
    }
    v
}

/// Per-phase trace sums: phase label plus the six deterministic counters
/// (`nanos`, the wall-clock field, is deliberately excluded — it is the
/// one field allowed to differ between backends).
type PhaseSums = Vec<(&'static str, [u64; 6])>;

/// Everything one backend run observes: the answer, the aggregate meter
/// counts, and the per-phase trace sums.
fn observe(
    backend: Backend,
    items: &[u64],
    k: usize,
    policy: PoolPolicy,
    plan: &FaultPlan,
    touches: &[(u64, u64)],
) -> (Vec<u64>, u64, u64, PhaseSums) {
    with_backend(backend, || {
        let sink = Arc::new(RecordingSink::new());
        let model =
            CostModel::with_faults_and_policy(EmConfig::with_memory(8, 4), *plan, policy);
        model.set_trace_sink(sink.clone());
        // Pool / fault traffic interleaved with selection: the kernels must
        // not perturb (or be perturbed by) pool state or armed plans.
        {
            let _g = model.span(phase::SCAN);
            for &(array, block) in touches {
                let _ = model.try_touch(array % 3, block % 16, 0);
            }
        }
        let out = {
            let _g = model.span(phase::SELECT);
            top_k_by_weight(&model, items, k, |&x| x)
        };
        let agg = model.report();
        let phases = sink
            .report()
            .phases
            .iter()
            .map(|(name, p)| {
                (*name, [p.reads, p.writes, p.pool_hits, p.pool_misses, p.faults, p.retries])
            })
            .collect();
        (out, agg.reads, agg.writes, phases)
    })
}

fn check_equivalence(
    items: &[u64],
    k: usize,
    policy: PoolPolicy,
    plan: &FaultPlan,
    touches: &[(u64, u64)],
) -> Result<(), TestCaseError> {
    let reference = observe(Backend::Scalar, items, k, policy, plan, touches);
    // The scalar path must itself agree with a sort-based oracle.
    let mut oracle = items.to_vec();
    oracle.sort_unstable_by(|a, b| b.cmp(a));
    oracle.truncate(k);
    prop_assert_eq!(&reference.0, &oracle, "scalar backend vs sort oracle");
    for b in backends() {
        let got = observe(b, items, k, policy, plan, touches);
        prop_assert_eq!(&got.0, &reference.0, "answers differ on {:?}", b);
        prop_assert_eq!(got.1, reference.1, "read counts differ on {:?}", b);
        prop_assert_eq!(got.2, reference.2, "write counts differ on {:?}", b);
        prop_assert_eq!(&got.3, &reference.3, "trace-phase sums differ on {:?}", b);
    }
    // The generic Ord-bound fallback answers identically too (its charges
    // intentionally match; it is the dispatch macro's fallback arm).
    let generic = with_backend(Backend::Scalar, || {
        let model = CostModel::new(EmConfig::with_memory(8, 4));
        top_k_by_ord(&model, items, k, |&x| x)
    });
    prop_assert_eq!(&generic, &reference.0, "Ord fallback differs");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// LRU pool, perfect media. Keys drawn from a small range to force
    /// heavy duplication (the quickselect worst case the bounded gather
    /// fixed); k can exceed the input length.
    #[test]
    fn backends_agree_under_lru(
        items in prop::collection::vec(0u64..64, 0..400),
        k in 0usize..64,
        touches in prop::collection::vec((0u64..3, 0u64..16), 0..40),
    ) {
        check_equivalence(&items, k, PoolPolicy::Lru, &FaultPlan::none(), &touches)?;
    }

    /// Sharded-CLOCK pool, perfect media, wide keys.
    #[test]
    fn backends_agree_under_sharded_clock(
        items in prop::collection::vec(0u64..u64::MAX, 0..400),
        k in 0usize..64,
        touches in prop::collection::vec((0u64..3, 0u64..16), 0..40),
    ) {
        check_equivalence(
            &items,
            k,
            PoolPolicy::ShardedClock { shards: 4 },
            &FaultPlan::none(),
            &touches,
        )?;
    }

    /// Armed chaos plans on both pool policies: injected faults and retry
    /// traffic land identically whatever backend the selection ran on.
    #[test]
    fn backends_agree_under_faults(
        items in prop::collection::vec(0u64..1024, 0..300),
        k in 0usize..48,
        touches in prop::collection::vec((0u64..3, 0u64..16), 1..40),
        seed in 0u64..16,
    ) {
        let plan = FaultPlan::chaos(seed, 0.1);
        check_equivalence(&items, k, PoolPolicy::Lru, &plan, &touches)?;
        check_equivalence(
            &items,
            k,
            PoolPolicy::ShardedClock { shards: 4 },
            &plan,
            &touches,
        )?;
    }
}
