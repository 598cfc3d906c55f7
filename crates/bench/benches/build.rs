//! Wall-clock build benchmarks for the substrates and assembled
//! structures.

use criterion::{criterion_group, criterion_main, Criterion};
use emsim::{CostModel, EmConfig};
use topk_core::{MaxBuilder, MaxIndex, PrioritizedBuilder, TopKIndex};

fn bench_builds(c: &mut Criterion) {
    let mut g = c.benchmark_group("build");
    g.sample_size(10);
    let n = 30_000;

    let items = workloads::intervals::uniform(n, 1_000.0, 120.0, 1);
    g.bench_function("interval/segstab", |b| {
        b.iter(|| {
            let model = CostModel::new(EmConfig::new(64));
            topk_core::PrioritizedIndex::<_, f64>::len(
                &interval::SegStabBuilder.build(&model, items.clone()),
            )
        });
    });
    g.bench_function("interval/pststab", |b| {
        b.iter(|| {
            let model = CostModel::new(EmConfig::new(64));
            topk_core::PrioritizedIndex::<_, f64>::len(
                &interval::PstStabBuilder.build(&model, items.clone()),
            )
        });
    });
    g.bench_function("interval/stabmax", |b| {
        b.iter(|| {
            let model = CostModel::new(EmConfig::new(64));
            MaxIndex::<_, f64>::len(&interval::StabMaxBuilder.build(&model, items.clone()))
        });
    });
    g.bench_function("interval/topk_thm2", |b| {
        b.iter(|| {
            let model = CostModel::new(EmConfig::new(64));
            interval::TopKStabbing::build(&model, items.clone(), 1).space_blocks()
        });
    });

    let pts = workloads::points::uniform2(n, 100.0, 2);
    g.bench_function("halfspace/convex_layers", |b| {
        b.iter(|| {
            let model = CostModel::new(EmConfig::new(64));
            halfspace::ConvexLayersHalfplane::build(&model, pts.clone()).layer_count()
        });
    });
    g.bench_function("halfspace/hull_tree_max", |b| {
        b.iter(|| {
            let model = CostModel::new(EmConfig::new(64));
            halfspace::WeightHullTree::build(&model, pts.clone()).hull_vertices()
        });
    });

    let hotels = workloads::hotels::uniform(n, 3);
    g.bench_function("dominance/kdtree_pri", |b| {
        b.iter(|| {
            let model = CostModel::new(EmConfig::new(64));
            topk_core::PrioritizedIndex::<_, [f64; 3]>::len(
                &dominance::DomPriBuilder.build(&model, hotels.clone()),
            )
        });
    });
    g.finish();
}

criterion_group!(benches, bench_builds);
criterion_main!(benches);
