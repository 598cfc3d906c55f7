//! Literal pin of the retry/degrade ladder of every reduction.
//!
//! Each structure answers the toy prefix problem under a fixed set of
//! `FaultPlan::chaos` seeds with `Retrier::new(2)`. The tally of outcomes
//! (`Exact` / `Degraded` / `Err`), the summed `extra_ios` of the degraded
//! answers, and the meter's read, write and fault counts are compared against
//! literals. Any change to the order of steps on a fault arm — which
//! structure is re-read, when the recovery mark is taken, what is
//! k-selected — moves at least one of them.

use topk_core::toy::{PrefixBuilder, PrefixMaxBuilder, PrefixQuery, ToyElem};
use topk_core::{
    BatchTopK, BinarySearchTopK, CostModel, EmConfig, EmError, ExpectedTopK, FaultPlan, Retrier,
    ScanTopK, Theorem1Params, Theorem2Params, TopKAnswer, TopKIndex, WorstCaseTopK,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 3_000;
const SEEDS: std::ops::Range<u64> = 0..6;
const RATES: [f64; 4] = [0.001, 0.004, 0.02, 0.05];
const XS: [u64; 3] = [60, 1_400, 2_999];
/// Spans Theorem 1's top-f regime, its doubling ladder and its `k ≥ n/2`
/// scan, and Theorem 2's rounds and naive path.
const KS: [usize; 5] = [1, 16, 200, 900, 2_000];

fn mk_items(seed: u64) -> Vec<ToyElem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights: Vec<u64> = (1..=N as u64).collect();
    for i in (1..N).rev() {
        let j = rng.gen_range(0..=i);
        weights.swap(i, j);
    }
    (0..N)
        .map(|i| ToyElem {
            x: i as u64,
            w: weights[i],
        })
        .collect()
}

fn pinned_model() -> CostModel {
    CostModel::with_faults(EmConfig::new(16), FaultPlan::none())
}

/// `(exact, degraded, err, Σ extra_ios, reads, writes, faults)` over every
/// plan.
type Tally = (u32, u32, u32, u64, u64, u64, u64);

fn tally(
    model: &CostModel,
    mut run: impl FnMut(&PrefixQuery, usize) -> Vec<Result<TopKAnswer<ToyElem>, EmError>>,
) -> Tally {
    let (mut exact, mut degraded, mut err, mut extra) = (0, 0, 0, 0);
    let before = model.report();
    for rate in RATES {
        for seed in SEEDS {
            model.set_fault_plan(FaultPlan::chaos(seed, rate));
            for x_max in XS {
                for k in KS {
                    for answer in run(&PrefixQuery { x_max }, k) {
                        match answer {
                            Ok(TopKAnswer::Exact(_)) => exact += 1,
                            Ok(TopKAnswer::Degraded { extra_ios, .. }) => {
                                degraded += 1;
                                extra += extra_ios;
                            }
                            Err(_) => err += 1,
                        }
                    }
                }
            }
        }
    }
    model.set_fault_plan(FaultPlan::none());
    let after = model.report();
    (
        exact,
        degraded,
        err,
        extra,
        after.reads - before.reads,
        after.writes - before.writes,
        after.faults - before.faults,
    )
}

fn solo<'a, I: TopKIndex<ToyElem, PrefixQuery>>(
    idx: &'a I,
    retrier: &'a Retrier,
) -> impl FnMut(&PrefixQuery, usize) -> Vec<Result<TopKAnswer<ToyElem>, EmError>> + 'a {
    move |q, k| vec![idx.try_query_topk(q, k, retrier)]
}

#[test]
fn theorem1_ladder_is_pinned() {
    let model = pinned_model();
    let t1 = WorstCaseTopK::build(
        &model,
        &PrefixBuilder,
        mk_items(11),
        Theorem1Params::new(1.0).with_seed(5),
    );
    let retrier = Retrier::new(2);
    assert_eq!(
        tally(&model, solo(&t1, &retrier)),
        (150, 206, 4, 13_299, 123_643, 22_283, 666)
    );
}

#[test]
fn theorem2_ladder_is_pinned() {
    let model = pinned_model();
    let t2 = ExpectedTopK::build(
        &model,
        PrefixBuilder,
        PrefixMaxBuilder,
        mk_items(41),
        Theorem2Params::default(),
    );
    let retrier = Retrier::new(2);
    assert_eq!(
        tally(&model, solo(&t2, &retrier)),
        (203, 157, 0, 108_774, 175_503, 18_571, 6_274)
    );
}

#[test]
fn binary_search_ladder_is_pinned() {
    let model = pinned_model();
    let bs = BinarySearchTopK::build(&model, &PrefixBuilder, mk_items(33));
    let retrier = Retrier::new(2);
    assert_eq!(
        tally(&model, solo(&bs, &retrier)),
        (239, 116, 5, 18_090, 206_598, 17_337, 1_398)
    );
}

#[test]
fn scan_ladder_is_pinned() {
    let model = pinned_model();
    let sc = ScanTopK::build(&model, mk_items(22), |q: &PrefixQuery, e: &ToyElem| {
        e.x <= q.x_max
    });
    let retrier = Retrier::new(2);
    assert_eq!(
        tally(&model, solo(&sc, &retrier)),
        (105, 255, 0, 26_631, 101_795, 24_918, 825)
    );
}

/// The scan baseline's batch override shares one scan across the batch,
/// so a fault degrades every query of the batch at once.
#[test]
fn scan_batch_ladder_is_pinned() {
    let model = pinned_model();
    let sc = ScanTopK::build(&model, mk_items(22), |q: &PrefixQuery, e: &ToyElem| {
        e.x <= q.x_max
    });
    let retrier = Retrier::new(2);
    let got = tally(&model, |q, k| {
        let batch: Vec<PrefixQuery> = (0..4u64)
            .map(|i| PrefixQuery {
                x_max: q.x_max.saturating_sub(i * 300),
            })
            .collect();
        sc.try_query_topk_batch(&batch, k, &retrier)
    });
    assert_eq!(got, (420, 1_020, 0, 247_494, 210_627, 85_273, 825));
}
