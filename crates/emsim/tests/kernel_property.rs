//! Property suite pinning the PR-6 kernel-equivalence invariant: for any
//! input, any `k`, any traffic through the LRU buffer pool, and any
//! fault plan, both kernel backends (scalar reference, branch-free
//! unrolled) produce
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

use emsim::kernels::Backend;
use emsim::select::top_k_by_weight;
use emsim::trace::{phase, RecordingSink};
use emsim::{CostModel, EmConfig, FaultPlan, IoReport, Substrate};
use proptest::prelude::*;

const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Unrolled];

/// Per-phase trace sums: phase label plus the six deterministic counters
/// (`nanos`, the wall-clock field, is deliberately excluded — it is the
/// one field allowed to differ between backends).
type PhaseSums = Vec<(&'static str, [u64; 6])>;

/// Everything one backend run observes: the answer, the aggregate meter
/// report, and the per-phase trace sums.
type Observed = (Vec<u64>, IoReport, PhaseSums);

fn observe(
    backend: Backend,
    items: &[u64],
    k: usize,
    plan: &FaultPlan,
    touches: &[(u64, u64)],
) -> Observed {
    let sink = Arc::new(RecordingSink::new());
    let substrate = Substrate {
        kernels: backend,
        faults: *plan,
        trace: Some(sink.clone()),
        ..Substrate::current()
    };
    let model = CostModel::with_substrate(EmConfig::with_memory(8, 4), substrate);
    // Pool / fault traffic interleaved with selection: the kernels must
    // not perturb (or be perturbed by) pool state or armed plans.
    {
        let _g = model.span(phase::SCAN);
        for &(array, block) in touches {
            let _ = model.try_fetch(array % 3, block % 16, 0);
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
            (
                *name,
                [
                    p.reads,
                    p.writes,
                    p.pool_hits,
                    p.pool_misses,
                    p.faults,
                    p.retries,
                ],
            )
        })
        .collect();
    (out, agg, phases)
}

fn check_equivalence(
    items: &[u64],
    k: usize,
    plan: &FaultPlan,
    touches: &[(u64, u64)],
) -> Result<(), TestCaseError> {
    let reference = observe(Backend::Scalar, items, k, plan, touches);
    // The scalar path must itself agree with a sort-based oracle.
    let mut oracle = items.to_vec();
    oracle.sort_unstable_by(|a, b| b.cmp(a));
    oracle.truncate(k);
    prop_assert_eq!(&reference.0, &oracle, "scalar backend vs sort oracle");
    for b in BACKENDS {
        let got = observe(b, items, k, plan, touches);
        prop_assert_eq!(&got.0, &reference.0, "answers differ on {:?}", b);
        prop_assert_eq!(got.1, reference.1, "meter reports differ on {:?}", b);
        prop_assert_eq!(&got.2, &reference.2, "trace-phase sums differ on {:?}", b);
    }
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
        check_equivalence(&items, k, &FaultPlan::none(), &touches)?;
    }

    /// LRU pool, perfect media, wide keys.
    #[test]
    fn backends_agree_on_wide_keys(
        items in prop::collection::vec(0u64..u64::MAX, 0..400),
        k in 0usize..64,
        touches in prop::collection::vec((0u64..3, 0u64..16), 0..40),
    ) {
        check_equivalence(&items, k, &FaultPlan::none(), &touches)?;
    }

    /// Armed chaos plans: injected faults and retry
    /// traffic land identically whatever backend the selection ran on.
    #[test]
    fn backends_agree_under_faults(
        items in prop::collection::vec(0u64..1024, 0..300),
        k in 0usize..48,
        touches in prop::collection::vec((0u64..3, 0u64..16), 1..40),
        seed in 0u64..16,
    ) {
        let plan = FaultPlan::chaos(seed, 0.1);
        check_equivalence(&items, k, &plan, &touches)?;
    }
}
