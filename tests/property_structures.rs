//! Property-based tests for the newer substrates: the generic segment
//! tree, fractional cascading, the counting reduction, the kd-tree
//! regions, and the EM sorting/selection primitives.

use proptest::prelude::*;
use topk::core::brute;
use topk::core::{CostModel, EmConfig, MaxIndex, TopKIndex};

fn model() -> CostModel {
    CostModel::new(EmConfig::new(64))
}

fn rects(max_len: usize) -> impl Strategy<Value = Vec<topk::enclosure::Rect>> {
    prop::collection::vec(
        (0.0f64..50.0, 0.0f64..20.0, 0.0f64..50.0, 0.0f64..20.0),
        0..max_len,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (x, dx, y, dy))| {
                topk::enclosure::Rect::new(x, x + dx, y, y + dy, i as u64 + 1)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cascade_stab_max_matches_brute(items in rects(100), qx in -2.0f64..75.0, qy in -2.0f64..75.0) {
        let idx = topk::enclosure::CascadeStabMax::build(&model(), items.clone());
        let q = topk::geometry::Point2::new(qx, qy);
        prop_assert_eq!(
            idx.query_max(&q).map(|r| r.weight),
            brute::max(&items, |r| r.contains(q)).map(|r| r.weight)
        );
    }

    #[test]
    fn cascade_agrees_with_plain_everywhere(items in rects(80), qs in prop::collection::vec((-2.0f64..75.0, -2.0f64..75.0), 10)) {
        let cascaded = topk::enclosure::CascadeStabMax::build(&model(), items.clone());
        let plain = topk::enclosure::EncMax::build(&model(), items);
        for (qx, qy) in qs {
            let q = topk::geometry::Point2::new(qx, qy);
            prop_assert_eq!(
                cascaded.query_max(&q).map(|r| r.weight),
                plain.query_max(&q).map(|r| r.weight)
            );
        }
    }

    #[test]
    fn enclosure_topk_matches_brute(items in rects(80), qx in 0.0f64..70.0, qy in 0.0f64..70.0, k in 0usize..90) {
        let idx = topk::enclosure::TopKEnclosure::build(&model(), items.clone(), 5);
        let q = topk::geometry::Point2::new(qx, qy);
        let mut got = Vec::new();
        idx.query_topk(&q, k, &mut got);
        let want = brute::top_k(&items, |r| r.contains(q), k);
        prop_assert_eq!(
            got.iter().map(|r| r.weight).collect::<Vec<_>>(),
            want.iter().map(|r| r.weight).collect::<Vec<_>>()
        );
    }

    #[test]
    fn counting_reduction_matches_brute_1d(
        xs in prop::collection::vec(0.0f64..100.0, 0..120),
        lo in 0.0f64..100.0,
        len in 0.0f64..60.0,
        k in 0usize..130
    ) {
        let items: Vec<topk::range1d::WPoint1> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| topk::range1d::WPoint1::new(x, i as u64 + 1))
            .collect();
        let q = topk::range1d::Range::new(lo, (lo + len).min(100.0));
        let idx = topk::range1d::topk_range1d_counting(&model(), items.clone());
        let mut got = Vec::new();
        idx.query_topk(&q, k, &mut got);
        let want = brute::top_k(&items, |p| q.contains(p), k);
        prop_assert_eq!(
            got.iter().map(|p| p.weight).collect::<Vec<_>>(),
            want.iter().map(|p| p.weight).collect::<Vec<_>>()
        );
    }

    #[test]
    fn external_sort_sorts(mut v in prop::collection::vec(0u64..1_000_000, 0..500)) {
        let m = CostModel::new(EmConfig::with_memory(32, 6));
        let mut expected = v.clone();
        expected.sort_unstable();
        emsim::sort::external_sort_by(&m, &mut v, |&x| x);
        prop_assert_eq!(v, expected);
    }

    #[test]
    fn halfplane_clip_preserves_membership(
        poly_seed in 0u64..1_000,
        a in -1.0f64..1.0, b in -1.0f64..1.0, c in -50.0f64..50.0,
        px in -60.0f64..60.0, py in -60.0f64..60.0
    ) {
        let (a, b) = if a == 0.0 && b == 0.0 { (1.0, 0.0) } else { (a, b) };
        // A random convex polygon: hull of seeded points.
        let mut s = poly_seed | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 1000) as f64) / 10.0 - 50.0
        };
        let pts: Vec<topk::geometry::Point2> =
            (0..20).map(|_| topk::geometry::Point2::new(rnd(), rnd())).collect();
        let hull = topk::geometry::hull::convex_hull(&pts);
        prop_assume!(hull.len() >= 3);
        let h = topk::geometry::Halfplane::new(a, b, c);
        let clipped = topk::geometry::halfplane::clip(&hull, &h);
        let p = topk::geometry::Point2::new(px, py);
        let in_hull = topk::geometry::hull::ConvexPolygon::new(hull.clone()).contains(p);
        let in_clip = topk::geometry::hull::ConvexPolygon::new(clipped).contains(p);
        // Points well inside both the polygon and the halfplane must
        // survive; points outside the halfplane must not. Use a slack band
        // to dodge boundary float error.
        let slack = h.eval(p);
        if in_hull && slack > 1e-6 {
            prop_assert!(in_clip, "interior point lost by clip");
        }
        if slack < -1e-6 {
            prop_assert!(!in_clip, "outside-halfplane point kept by clip");
        }
    }
}

#[test]
fn range2d_topk_matches_brute_fixed_sweep() {
    // Deterministic replacement for the placeholder proptest above.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(404);
    for trial in 0..10 {
        let n = rng.gen_range(0..400);
        let items: Vec<topk::range2d::WPt> = (0..n)
            .map(|i| {
                topk::range2d::WPt::new(
                    rng.gen_range(0.0..80.0),
                    rng.gen_range(0.0..80.0),
                    i as u64 + 1,
                )
            })
            .collect();
        let idx = topk::range2d::topk_range2d(&model(), items.clone(), trial);
        for _ in 0..5 {
            let x: f64 = rng.gen_range(0.0..80.0);
            let y: f64 = rng.gen_range(0.0..80.0);
            let q = topk::range2d::RangeQ::new(
                (x, y),
                (
                    (x + rng.gen_range(0.0..40.0)).min(80.0),
                    (y + rng.gen_range(0.0..40.0)).min(80.0),
                ),
            );
            let k = rng.gen_range(0..50);
            let mut got = Vec::new();
            idx.query_topk(&q, k, &mut got);
            let want = brute::top_k(&items, |p| q.contains(p), k);
            assert_eq!(
                got.iter().map(|p| p.weight).collect::<Vec<_>>(),
                want.iter().map(|p| p.weight).collect::<Vec<_>>(),
                "trial {trial}"
            );
        }
    }
}
