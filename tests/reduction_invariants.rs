//! Structural invariants of the reductions themselves — beyond exactness,
//! the *shapes* the paper's constructions promise: geometric decay of the
//! sample/core-set hierarchies, monitored-query contracts, and monotone
//! scaling of the internal parameters.

use topk::core::toy::{AllBuilder, AllMaxBuilder, ToyElem};
use topk::core::{
    CostModel, EmConfig, ExpectedTopK, Monitored, PrioritizedBuilder, PrioritizedIndex,
    Theorem2Params,
};

fn mk_items(n: usize, seed: u64) -> Vec<ToyElem> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
fn theorem2_sample_ladder_decays_geometrically() {
    let model = CostModel::new(EmConfig::new(64));
    let n = 200_000;
    let t2 = ExpectedTopK::build(
        &model,
        AllBuilder,
        AllMaxBuilder,
        mk_items(n, 1),
        Theorem2Params::default(),
    );
    let sizes = t2.sample_sizes();
    assert!(
        sizes.len() > 20,
        "ladder should have many levels at n = {n}"
    );
    // E|R_i| = n/K_i decays by (1+σ) per level; verify the measured decay
    // over windows of 20 levels (individual levels are noisy).
    let window = 20;
    let expected_decay = 1.05f64.powi(window as i32);
    for w in sizes.windows(window + 1).step_by(window) {
        let (first, last) = (w[0].max(1) as f64, w[window].max(1) as f64);
        let decay = first / last;
        // Allow wide slack for sampling noise, but the direction and rough
        // magnitude must hold.
        assert!(
            decay > expected_decay / 4.0 && decay < expected_decay * 4.0,
            "window decay {decay:.2} vs expected ≈ {expected_decay:.2}"
        );
    }
}

#[test]
fn theorem1_internal_parameters_scale_with_n_and_b() {
    use topk::interval::TopKStabbingWorstCase;
    let mut last_f = 0;
    for b in [16usize, 64, 256] {
        let model = CostModel::new(EmConfig::new(b));
        let items = topk::workloads::intervals::uniform(4_096, 1_000.0, 100.0, 2);
        let t1 = TopKStabbingWorstCase::build(&model, items, 3);
        // f = 12λB·Q_pri grows with B.
        assert!(
            t1.f() > last_f,
            "f must grow with B: {} after {last_f}",
            t1.f()
        );
        last_f = t1.f();
    }
}

#[test]
fn monitored_query_contract_on_every_problem() {
    // Complete ⇒ output is the exact answer set; Truncated ⇒ exactly
    // limit+1 elements, all of which are genuine answers.
    let model = CostModel::new(EmConfig::new(64));

    // Interval stabbing (both prioritized variants).
    let items = topk::workloads::intervals::uniform(2_000, 1_000.0, 150.0, 4);
    let q = 500.0f64;
    let exact: Vec<u64> = items
        .iter()
        .filter(|iv| iv.stabs(q))
        .map(|iv| iv.weight)
        .collect();
    assert!(exact.len() > 20, "test needs a meaty answer");
    for idx in [
        Box::new(topk::interval::SegStab::build(&model, items.clone()))
            as Box<dyn PrioritizedIndex<topk::interval::Interval, f64>>,
        Box::new(topk::interval::PstStab::build(&model, items.clone())),
    ] {
        let mut out = Vec::new();
        let m = idx.query_monitored(&q, 0, exact.len() + 10, &mut out);
        assert_eq!(m, Monitored::Complete);
        let mut got: Vec<u64> = out.iter().map(|iv| iv.weight).collect();
        got.sort_unstable();
        let mut want = exact.clone();
        want.sort_unstable();
        assert_eq!(got, want);

        let mut out = Vec::new();
        let m = idx.query_monitored(&q, 0, 5, &mut out);
        assert_eq!(m, Monitored::Truncated);
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|iv| iv.stabs(q)));
    }
}

#[test]
fn io_trace_attributes_query_cost_to_structures() {
    // The tracing facility must attribute a Theorem 2 query's reads to the
    // component structures (several array ids, none dominating pathologically).
    use topk::core::TopKIndex;
    let model = CostModel::new(EmConfig::new(64));
    let items = topk::workloads::intervals::uniform(30_000, 1_000.0, 120.0, 5);
    let idx = topk::interval::TopKStabbing::build(&model, items, 6);
    model.start_trace();
    let mut out = Vec::new();
    idx.query_topk(&500.0, 10, &mut out);
    let trace = model.stop_trace();
    assert!(!trace.is_empty(), "query must touch at least one structure");
    let total: u64 = trace.iter().map(|(_, c)| c).sum();
    assert!(total > 0);
    // Heaviest-first ordering.
    assert!(trace.windows(2).all(|w| w[0].1 >= w[1].1));
}

#[test]
fn query_cost_estimates_are_sane() {
    // Builders' Q(n) estimates feed the reductions' parameter choices; they
    // must be ≥ log_B n and monotone in n.
    fn check<B: PrioritizedBuilder<E, Q>, E: topk::core::Element, Q>(b: &B, name: &str) {
        let mut last = 0.0;
        for n in [1_000usize, 10_000, 100_000, 1_000_000] {
            let c = b.query_cost(n, 64);
            assert!(c >= topk::core::log_b(n, 64), "{name} below log_B n");
            assert!(c >= last, "{name} not monotone");
            last = c;
        }
    }
    check(&topk::interval::SegStabBuilder, "segstab");
    check(&topk::interval::PstStabBuilder, "pststab");
    check(&topk::enclosure::EncPriBuilder, "encpri");
    check(&topk::dominance::DomPriBuilder, "dompri");
    check(&topk::range1d::RangePstBuilder, "rangepst");
    check(&topk::range2d::RangeKdBuilder, "rangekd");
}

#[test]
fn theorem1_fallback_paths_stay_exact() {
    // Force the Lemma 2 failure paths: an f below the paper's condition
    // (11) makes the pivot rank exceed f, so every deep query must take the
    // verified fallback — answers must remain exact regardless.
    use topk::core::{Theorem1Params, TopKIndex, WorstCaseTopK};
    let model = CostModel::new(EmConfig::new(64));
    let items = topk::workloads::intervals::uniform(4_000, 1_000.0, 300.0, 31);
    let params = Theorem1Params {
        lambda: 2.0,
        f_constant: 0.001, // f ≈ 1–2: hopelessly below ⌈8λ ln n⌉
        seed: 32,
    };
    let t1 = WorstCaseTopK::build(
        &model,
        &topk::interval::SegStabBuilder,
        items.clone(),
        params,
    );
    for q in [100.0f64, 500.0, 900.0] {
        for k in [1usize, 5, 200, 3_999] {
            let mut got = Vec::new();
            t1.query_topk(&q, k, &mut got);
            let want = topk::core::brute::top_k(&items, |iv| iv.stabs(q), k);
            assert_eq!(
                got.iter().map(|iv| iv.weight).collect::<Vec<_>>(),
                want.iter().map(|iv| iv.weight).collect::<Vec<_>>(),
                "fallback path wrong at q={q} k={k}"
            );
        }
    }
}
