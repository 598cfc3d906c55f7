//! Property-based tests (proptest) on the core invariants:
//! every index ≡ brute force on arbitrary inputs, the samplers respect
//! their bounds, and the EM substrates behave like their std references.

use proptest::prelude::*;
use topk::core::brute;
use topk::core::{CostModel, EmConfig, MaxIndex, PrioritizedIndex, TopKIndex};

fn model() -> CostModel {
    CostModel::new(EmConfig::new(64))
}

/// Arbitrary weighted intervals with distinct weights.
fn intervals(max_len: usize) -> impl Strategy<Value = Vec<topk::interval::Interval>> {
    prop::collection::vec((0.0f64..100.0, 0.0f64..30.0), 0..max_len).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (a, len))| topk::interval::Interval::new(a, a + len, i as u64 + 1))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kselect_matches_sort(mut xs in prop::collection::vec(0u64..1_000_000, 1..300), k in 1usize..300) {
        let m = model();
        let k = k.min(xs.len());
        let got = emsim::select::top_k_by_weight(&m, &xs, k, |&x| x);
        xs.sort_unstable_by(|a, b| b.cmp(a));
        xs.truncate(k);
        prop_assert_eq!(got, xs);
    }

    #[test]
    fn stabbing_topk_thm2_matches_brute(items in intervals(120), q in -5.0f64..110.0, k in 0usize..140) {
        let idx = topk::interval::TopKStabbing::build(&model(), items.clone(), 1);
        let mut got = Vec::new();
        idx.query_topk(&q, k, &mut got);
        let want = brute::top_k(&items, |iv| iv.stabs(q), k);
        prop_assert_eq!(
            got.iter().map(|iv| iv.weight).collect::<Vec<_>>(),
            want.iter().map(|iv| iv.weight).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stabbing_topk_thm1_matches_brute(items in intervals(100), q in -5.0f64..110.0, k in 0usize..120) {
        let idx = topk::interval::TopKStabbingWorstCase::build(&model(), items.clone(), 2);
        let mut got = Vec::new();
        idx.query_topk(&q, k, &mut got);
        let want = brute::top_k(&items, |iv| iv.stabs(q), k);
        prop_assert_eq!(
            got.iter().map(|iv| iv.weight).collect::<Vec<_>>(),
            want.iter().map(|iv| iv.weight).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stab_max_matches_brute(items in intervals(150), q in -5.0f64..110.0) {
        let idx = topk::interval::StaticStabMax::build(&model(), items.clone());
        prop_assert_eq!(
            idx.query_max(&q).map(|iv| iv.weight),
            brute::max(&items, |iv| iv.stabs(q)).map(|iv| iv.weight)
        );
    }

    #[test]
    fn dyn_stabbing_under_deletion_prefix(items in intervals(80), del in 0usize..80, q in -5.0f64..110.0) {
        use topk::core::DynamicIndex;
        let mut idx = topk::interval::DynStabbing::build(&model(), items.clone());
        let del = del.min(items.len());
        for iv in &items[..del] {
            prop_assert!(idx.delete(iv.weight));
        }
        let rest = &items[del..];
        let mut got = Vec::new();
        idx.query(&q, 0, &mut got);
        let mut got_w: Vec<u64> = got.iter().map(|iv| iv.weight).collect();
        got_w.sort_unstable();
        let want = brute::prioritized(rest, |iv| iv.stabs(q), 0);
        let mut want_w: Vec<u64> = want.iter().map(|iv| iv.weight).collect();
        want_w.sort_unstable();
        prop_assert_eq!(got_w, want_w);
        prop_assert_eq!(
            MaxIndex::query_max(&idx, &q).map(|iv| iv.weight),
            brute::max(rest, |iv| iv.stabs(q)).map(|iv| iv.weight)
        );
    }

    #[test]
    fn hull_contains_all_inputs(pts in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..80)) {
        let points: Vec<topk::geometry::Point2> =
            pts.iter().map(|&(x, y)| topk::geometry::Point2::new(x, y)).collect();
        let hull = topk::geometry::hull::ConvexPolygon::hull_of(&points);
        for p in &points {
            prop_assert!(hull.contains(*p), "point {:?} escapes its own hull", p);
        }
    }

    #[test]
    fn convex_layers_partition(pts in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..60)) {
        let points: Vec<topk::geometry::Point2> =
            pts.iter().map(|&(x, y)| topk::geometry::Point2::new(x, y)).collect();
        let layers = topk::geometry::layers::convex_layers(&points);
        let mut seen = vec![false; points.len()];
        for layer in &layers {
            for &i in layer {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn halfplane_topk_matches_brute(
        pts in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..80),
        a in -1.0f64..1.0, bb in -1.0f64..1.0, c in -60.0f64..60.0, k in 0usize..90
    ) {
        let (a, bb) = if a == 0.0 && bb == 0.0 { (1.0, 0.0) } else { (a, bb) };
        let items: Vec<topk::halfspace::WPoint2> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| topk::halfspace::WPoint2::new(x, y, i as u64 + 1))
            .collect();
        let h = topk::geometry::Halfplane::new(a, bb, c);
        let idx = topk::halfspace::TopKHalfplane::build(&model(), items.clone(), 3);
        let mut got = Vec::new();
        idx.query_topk(&h, k, &mut got);
        let want = brute::top_k(&items, |p| h.contains(p.point()), k);
        prop_assert_eq!(
            got.iter().map(|p| p.weight).collect::<Vec<_>>(),
            want.iter().map(|p| p.weight).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dominance_topk_matches_brute(
        pts in prop::collection::vec(([0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0],), 0..100),
        q in [20.0f64..110.0, 20.0f64..110.0, 20.0f64..110.0],
        k in 0usize..110
    ) {
        let items: Vec<topk::dominance::Hotel> = pts
            .iter()
            .enumerate()
            .map(|(i, (c,))| topk::dominance::Hotel::new(*c, i as u64 + 1))
            .collect();
        let idx = topk::dominance::TopKDominance::build(&model(), items.clone(), 4);
        let mut got = Vec::new();
        idx.query_topk(&q, k, &mut got);
        let want = brute::top_k(&items, |h| h.dominated_by(&q), k);
        prop_assert_eq!(
            got.iter().map(|h| h.weight).collect::<Vec<_>>(),
            want.iter().map(|h| h.weight).collect::<Vec<_>>()
        );
    }

    #[test]
    fn coreset_size_bound_always_holds(n in 64usize..2_000, k_frac in 4usize..32) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let k = (n / k_frac).max(1);
        let params = topk::core::CoreSetParams { lambda: 1.0, k };
        #[derive(Clone)]
        struct W(u64);
        impl topk::core::Element for W {
            fn weight(&self) -> u64 { self.0 }
        }
        let items: Vec<W> = (0..n as u64).map(W).collect();
        let r = topk::core::core_set(&mut rng, &items, &params);
        prop_assert!((r.len() as f64) <= params.size_bound(n).max(n as f64));
    }
}
