//! E16: the chaos harness — fault-injected queries through the
//! retry/degrade paths (DESIGN.md "Failure model").
//!
//! Sweeps fault rate × retry budget over the structures whose reads go
//! through the fallible substrate accessors (the toy prefix problem keeps
//! the ground truth cheap), and *asserts* the robustness contract on every
//! single query:
//!
//! * every `Ok`/`Exact` answer is bit-identical to brute force;
//! * every `Ok`/`Degraded` answer is sorted, genuine (each element really
//!   is in the data set and satisfies the predicate), and flagged;
//! * unreadable structures surface as `Err`, never as silently-wrong data;
//! * at fault rate 0 nothing degrades and no fault is metered.
//!
//! The table reports how the exact/degraded/error split and the recovery
//! cost (`extra_ios`) move with the two knobs.

use emsim::{CostModel, EmConfig, FaultPlan, Retrier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk_core::toy::{PrefixBuilder, PrefixMaxBuilder, PrefixQuery, ToyElem};
use topk_core::{
    brute, BinarySearchTopK, ExpectedTopK, Theorem1Params, Theorem2Params, TopKAnswer, TopKIndex,
    WorstCaseTopK,
};

use crate::table::{f, Table};
use crate::Scale;

/// Distinct-weight random items, same generator as the core test suites.
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

/// Per-cell tallies of one (structure, rate, budget) sweep point.
#[derive(Default)]
struct CellStats {
    queries: u64,
    exact: u64,
    degraded: u64,
    errors: u64,
    extra_ios: u64,
}

/// Run every query of the grid against `topk` under `plan`, asserting the
/// robustness contract and tallying outcomes.
fn drive_cell(
    topk: &dyn TopKIndex<ToyElem, PrefixQuery>,
    model: &CostModel,
    items: &[ToyElem],
    plan_seeds: std::ops::Range<u64>,
    rate: f64,
    retrier: &Retrier,
    stats: &mut CellStats,
) {
    let n = items.len();
    let qxs: Vec<u64> = (0..6)
        .map(|i| (n as u64).saturating_sub(1) * i / 5)
        .collect();
    let ks = [1usize, 8, (n / 7).max(2), n / 2];
    for seed in plan_seeds {
        let plan = if rate == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::chaos(0xFA00 + seed, rate)
        };
        model.set_fault_plan(plan);
        for &qx in &qxs {
            for &k in &ks {
                let q = PrefixQuery { x_max: qx };
                stats.queries += 1;
                match topk.try_query_topk(&q, k, retrier) {
                    Ok(TopKAnswer::Exact(got)) => {
                        stats.exact += 1;
                        let want = brute::top_k(items, |e| e.x <= qx, k);
                        assert_eq!(
                            got.iter().map(|e| e.w).collect::<Vec<_>>(),
                            want.iter().map(|e| e.w).collect::<Vec<_>>(),
                            "Exact answer diverged from brute force \
                             (seed={seed} rate={rate} q={qx} k={k})"
                        );
                    }
                    Ok(TopKAnswer::Degraded {
                        items: got,
                        extra_ios,
                    }) => {
                        stats.degraded += 1;
                        stats.extra_ios += extra_ios;
                        assert!(
                            got.windows(2).all(|w| w[0].w > w[1].w),
                            "degraded answer must stay sorted (seed={seed} q={qx} k={k})"
                        );
                        for e in &got {
                            assert!(e.x <= qx, "degraded item must satisfy the predicate");
                            assert!(
                                items.iter().any(|i| i.w == e.w && i.x == e.x),
                                "degraded item must be a genuine element"
                            );
                        }
                    }
                    Err(_) => stats.errors += 1,
                }
            }
        }
    }
    model.set_fault_plan(FaultPlan::none());
}

/// The sweep body, parameterized so `exp_faults` (registry defaults) and
/// the `exp_faults` binary (`--fault-rate` / `--retry-budget`) share it.
pub fn run_faults(scale: Scale, rates: &[f64], budgets: &[u32]) -> Table {
    let mut t = Table::new(
        "E16 — chaos harness: fault rate × retry budget (every Ok answer verified vs brute force)",
        &[
            "structure",
            "rate",
            "budget",
            "queries",
            "exact",
            "degraded",
            "err",
            "faults",
            "avg extra IOs",
        ],
    );
    let n = scale.n(4_096);
    let items = mk_items(n, 0xFA);
    let b = 16usize;

    // Each structure meters (and faults) through its own model; plans are
    // installed explicitly so the default substrate's plan never leaks in
    // and the sweep is bit-deterministic at any thread count.
    let m1 = CostModel::new(EmConfig::new(b));
    let t1 = WorstCaseTopK::build(
        &m1,
        &PrefixBuilder,
        items.clone(),
        Theorem1Params::new(1.0).with_seed(0xFA1),
    );
    let m2 = CostModel::new(EmConfig::new(b));
    let t2 = ExpectedTopK::build(
        &m2,
        PrefixBuilder,
        PrefixMaxBuilder,
        items.clone(),
        Theorem2Params::default(),
    );
    let mb = CostModel::new(EmConfig::new(b));
    let bs = BinarySearchTopK::build(&mb, &PrefixBuilder, items.clone());

    let structures: [(&str, &dyn TopKIndex<ToyElem, PrefixQuery>, &CostModel); 3] = [
        ("theorem1", &t1, &m1),
        ("theorem2", &t2, &m2),
        ("binsearch", &bs, &mb),
    ];

    let plans = scale.trials(30) as u64 / 10; // 3 plans at paper scale
    for (name, topk, model) in structures {
        for &rate in rates {
            for &budget in budgets {
                let retrier = Retrier::new(budget);
                let faults_before = model.report().faults;
                let mut stats = CellStats::default();
                drive_cell(
                    topk,
                    model,
                    &items,
                    0..plans.max(1),
                    rate,
                    &retrier,
                    &mut stats,
                );
                let faults = model.report().faults - faults_before;
                if rate == 0.0 {
                    assert_eq!(
                        stats.exact, stats.queries,
                        "zero fault rate must leave every answer exact ({name})"
                    );
                    assert_eq!(faults, 0, "zero fault rate must meter zero faults ({name})");
                }
                t.row_strings(vec![
                    name.to_string(),
                    format!("{rate}"),
                    budget.to_string(),
                    stats.queries.to_string(),
                    stats.exact.to_string(),
                    stats.degraded.to_string(),
                    stats.errors.to_string(),
                    faults.to_string(),
                    f(stats.extra_ios as f64 / stats.degraded.max(1) as f64),
                ]);
            }
        }
    }
    t
}

/// **E16.** Registry entry point with the default grid.
pub fn exp_faults(scale: Scale) -> Table {
    run_faults(scale, &[0.0, 0.005, 0.02, 0.05], &[0, 1, 3])
}
