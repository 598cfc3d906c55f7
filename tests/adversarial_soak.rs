//! Soak tests on adversarial input families: the structures must stay
//! *exact* (and not blow up) on shapes designed to stress them.

use topk::core::brute;
use topk::core::{CostModel, EmConfig, TopKIndex};
use topk::workloads::adversarial;

fn model() -> CostModel {
    CostModel::new(EmConfig::new(64))
}

#[test]
fn weight_span_correlated_intervals_stay_exact() {
    let items = adversarial::weight_span_correlated(3_000, 1_000.0, 11);
    let t2 = topk::interval::TopKStabbing::build(&model(), items.clone(), 1);
    let t1 = topk::interval::TopKStabbingWorstCase::build(&model(), items.clone(), 2);
    for q in [0.0f64, 111.0, 499.9, 987.0, 1_000.0] {
        for k in [1usize, 25, 400] {
            let want: Vec<u64> = brute::top_k(&items, |iv| iv.stabs(q), k)
                .iter()
                .map(|iv| iv.weight)
                .collect();
            let mut v = Vec::new();
            t2.query_topk(&q, k, &mut v);
            assert_eq!(
                v.iter().map(|iv| iv.weight).collect::<Vec<_>>(),
                want,
                "t2 q={q} k={k}"
            );
            let mut v = Vec::new();
            t1.query_topk(&q, k, &mut v);
            assert_eq!(
                v.iter().map(|iv| iv.weight).collect::<Vec<_>>(),
                want,
                "t1 q={q} k={k}"
            );
        }
    }
}

#[test]
fn fan_intervals_stay_exact_and_structures_stay_bounded() {
    let items = adversarial::fan(2_000, 12);
    let idx = topk::interval::TopKStabbing::build(&model(), items.clone(), 3);
    for q in [-1.0f64, 0.0, 0.5, 500.0, 999.9, 1_001.0] {
        for k in [1usize, 10, 100] {
            let want: Vec<u64> = brute::top_k(&items, |iv| iv.stabs(q), k)
                .iter()
                .map(|iv| iv.weight)
                .collect();
            let mut v = Vec::new();
            idx.query_topk(&q, k, &mut v);
            assert_eq!(
                v.iter().map(|iv| iv.weight).collect::<Vec<_>>(),
                want,
                "q={q} k={k}"
            );
        }
    }
    // The PST variant must not degenerate into a linear chain either.
    let pst = topk::interval::PstStab::build(&model(), items);
    assert!(pst.depth() <= 64, "fan input degenerated the interval tree");
}

#[test]
fn collinear_points_halfplane_exact() {
    let items = adversarial::collinear_points(800, 13);
    let idx = topk::halfspace::TopKHalfplane::build(&model(), items.clone(), 4);
    for (a, b, c) in [
        (1.0f64, 0.0f64, 100.0f64),
        (0.0, 1.0, 500.0),
        (2.0, -1.0, -1.0), // parallel to the point line
        (-2.0, 1.0, 1.0),
        (1.0, 1.0, 0.0),
    ] {
        let h = topk::geometry::Halfplane::new(a, b, c);
        for k in [1usize, 15, 800] {
            let want: Vec<u64> = brute::top_k(&items, |p| h.contains(p.point()), k)
                .iter()
                .map(|p| p.weight)
                .collect();
            let mut v = Vec::new();
            idx.query_topk(&h, k, &mut v);
            assert_eq!(
                v.iter().map(|p| p.weight).collect::<Vec<_>>(),
                want,
                "h=({a},{b},{c}) k={k}"
            );
        }
    }
}

#[test]
fn clustered_points_range2d_exact() {
    let pts = adversarial::clustered_points(2_000, 4, 14);
    let items: Vec<topk::range2d::WPt> = pts
        .iter()
        .map(|p| topk::range2d::WPt::new(p.x, p.y, p.weight))
        .collect();
    let idx = topk::range2d::topk_range2d(&model(), items.clone(), 5);
    for (lo, hi) in [
        ((-100.0, -100.0), (100.0, 100.0)),
        ((-3.0, -3.0), (3.0, 3.0)),
        ((50.0, 50.0), (51.0, 51.0)),
    ] {
        let q = topk::range2d::RangeQ::new(lo, hi);
        for k in [1usize, 30, 2_500] {
            let want: Vec<u64> = brute::top_k(&items, |p| q.contains(p), k)
                .iter()
                .map(|p| p.weight)
                .collect();
            let mut v = Vec::new();
            idx.query_topk(&q, k, &mut v);
            assert_eq!(v.iter().map(|p| p.weight).collect::<Vec<_>>(), want);
        }
    }
}
