//! Property test pinning the tracing reconciliation invariant (the PR-5
//! satellite): per-phase event totals recorded by a [`RecordingSink`] sum
//! *exactly* to the meter's aggregate [`IoReport`](emsim::IoReport) — for
//! arbitrary interleavings of metered operations and span nesting, through
//! the LRU buffer pool, with and without an armed [`FaultPlan`].
//!
//! The invariant holds because every counter bump in `cost.rs` is paired
//! with exactly one sink event, and charges outside any span land in the
//! explicit [`phase::OTHER`] bucket instead of being dropped.

use std::sync::Arc;

use emsim::trace::{phase, Phase, RecordingSink};
use emsim::{CostModel, EmConfig, FaultPlan};
use proptest::prelude::*;

/// Span labels the driver rotates through (including "no span", which
/// exercises the `OTHER` catch-all).
const PHASES: [Option<&Phase>; 6] = [
    None,
    Some(phase::PROBE),
    Some(phase::SAMPLE),
    Some(phase::SELECT),
    Some(phase::SCAN),
    Some(phase::DEGRADE),
];

/// Replay `ops` against a fresh meter with the given plan, and check that
/// the sink's per-phase sums reconcile with the aggregate.
fn check_reconciliation(ops: &[(u8, u8, u64)], plan: FaultPlan) -> Result<(), TestCaseError> {
    let sink = Arc::new(RecordingSink::new());
    let model = CostModel::with_faults(EmConfig::with_memory(64, 6), plan);
    model.set_trace_sink(sink.clone());
    for &(op, ph, block) in ops {
        let _g = PHASES[ph as usize % PHASES.len()].map(|p| model.span(p));
        let array = block % 3;
        match op % 6 {
            0 => model.touch(array, block),
            1 => {
                let _ = model.try_fetch(array, block, 0);
            }
            2 => {
                // A retry rung: attempt > 0 on the same block.
                let _ = model.try_fetch(array, block, 1);
            }
            3 => model.charge_reads(block % 4),
            4 => model.charge_writes(block % 3),
            _ => model.record_fault(),
        }
    }
    let total = sink.report().total();
    let agg = model.report();
    prop_assert_eq!(total.reads, agg.reads, "reads reconcile");
    prop_assert_eq!(total.writes, agg.writes, "writes reconcile");
    prop_assert_eq!(total.pool_hits, agg.pool_hits, "pool hits reconcile");
    prop_assert_eq!(total.pool_misses, agg.pool_misses, "pool misses reconcile");
    prop_assert_eq!(total.faults, agg.faults, "faults reconcile");
    prop_assert_eq!(total.ios(), agg.reads + agg.writes, "I/Os reconcile");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LRU pool, perfect media.
    #[test]
    fn phase_sums_reconcile_under_lru(
        ops in prop::collection::vec((0u8..6, 0u8..6, 0u64..48), 1..250),
    ) {
        check_reconciliation(&ops, FaultPlan::none())?;
    }

    /// An armed chaos plan: injected faults and retry
    /// attempts must land in the same phase buckets as the charges they
    /// accompany, and the sums must still be exact.
    #[test]
    fn phase_sums_reconcile_under_faults(
        ops in prop::collection::vec((0u8..6, 0u8..6, 0u64..48), 1..250),
        seed in 0u64..32,
    ) {
        check_reconciliation(&ops, FaultPlan::chaos(seed, 0.08))?;
    }
}
