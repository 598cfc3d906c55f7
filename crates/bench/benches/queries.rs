//! Wall-clock query benchmarks (RAM-model view of the structures).
//!
//! The I/O-model measurements live in the experiment registry
//! (`bench::parallel::all_experiments`, run by `exp_all`); these
//! criterion benches confirm that the wall-clock behaviour tracks the
//! simulated I/O counts for every top-k structure and baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emsim::{CostModel, EmConfig};
use topk_core::TopKIndex;

fn bench_interval(c: &mut Criterion) {
    let mut g = c.benchmark_group("interval_topk");
    g.sample_size(10);
    let n = 50_000;
    let items = workloads::intervals::uniform(n, 1_000.0, 120.0, 1);
    let queries = workloads::intervals::stab_queries(64, 1_000.0, 2);

    let model = CostModel::new(EmConfig::new(64));
    let t2 = interval::TopKStabbing::build(&model, items.clone(), 1);
    for k in [10usize, 1_000] {
        g.bench_with_input(BenchmarkId::new("thm2", k), &k, |b, &k| {
            b.iter(|| {
                let mut out = Vec::new();
                for &q in &queries {
                    out.clear();
                    t2.query_topk(&q, k, &mut out);
                }
                out.len()
            });
        });
    }

    let model = CostModel::new(EmConfig::new(64));
    let t1 = interval::TopKStabbingWorstCase::build(&model, items.clone(), 1);
    for k in [10usize, 1_000] {
        g.bench_with_input(BenchmarkId::new("thm1", k), &k, |b, &k| {
            b.iter(|| {
                let mut out = Vec::new();
                for &q in &queries {
                    out.clear();
                    t1.query_topk(&q, k, &mut out);
                }
                out.len()
            });
        });
    }

    let model = CostModel::new(EmConfig::new(64));
    let sc = topk_core::ScanTopK::build(&model, items, |q: &f64, iv: &interval::Interval| {
        iv.stabs(*q)
    });
    g.bench_function("scan/10", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for &q in &queries {
                out.clear();
                sc.query_topk(&q, 10, &mut out);
            }
            out.len()
        });
    });
    g.finish();
}

fn bench_enclosure(c: &mut Criterion) {
    let mut g = c.benchmark_group("enclosure_topk");
    g.sample_size(10);
    let n = 20_000;
    let items = workloads::rects::dating(n, 3);
    let queries = workloads::rects::point_queries(32, 60.0, 4);
    let model = CostModel::new(EmConfig::new(64));
    let idx = enclosure::TopKEnclosure::build(&model, items, 3);
    g.bench_function("thm2/10", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for q in &queries {
                out.clear();
                idx.query_topk(q, 10, &mut out);
            }
            out.len()
        });
    });
    g.finish();
}

fn bench_dominance(c: &mut Criterion) {
    let mut g = c.benchmark_group("dominance_topk");
    g.sample_size(10);
    let n = 30_000;
    let items = workloads::hotels::correlated(n, 5);
    let queries = workloads::hotels::queries(32, 6);
    let model = CostModel::new(EmConfig::new(64));
    let idx = dominance::TopKDominance::build(&model, items, 5);
    g.bench_function("thm2/10", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for q in &queries {
                out.clear();
                idx.query_topk(q, 10, &mut out);
            }
            out.len()
        });
    });
    g.finish();
}

fn bench_halfspace(c: &mut Criterion) {
    let mut g = c.benchmark_group("halfspace_topk");
    g.sample_size(10);
    let n = 20_000;
    let items = workloads::points::uniform2(n, 100.0, 7);
    let queries = workloads::points::halfplanes(32, 100.0, 8);
    let model = CostModel::new(EmConfig::new(64));
    let idx = halfspace::TopKHalfplane::build(&model, items, 7);
    g.bench_function("2d_thm2/10", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for q in &queries {
                out.clear();
                idx.query_topk(q, 10, &mut out);
            }
            out.len()
        });
    });

    let disks = workloads::points::disks(16, 80.0, 9);
    let pts = workloads::points::gaussian2(n, 80.0, 9);
    let model = CostModel::new(EmConfig::new(64));
    let circ = halfspace::TopKCircular::build(&model, pts, 9);
    g.bench_function("circular_thm1/10", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for q in &disks {
                out.clear();
                circ.query_topk(q, 10, &mut out);
            }
            out.len()
        });
    });
    g.finish();
}

fn bench_baseline_duel(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_baseline_duel_1d");
    g.sample_size(10);
    let n = 100_000;
    let items = workloads::line::uniform(n, 1_000.0, 10);
    let queries = workloads::line::ranges(32, 1_000.0, 0.3, 11);

    let model = CostModel::new(EmConfig::new(64));
    let t2 = range1d::topk_range1d(&model, items.clone(), 10);
    let model = CostModel::new(EmConfig::new(64));
    let bs = range1d::topk_range1d_baseline(&model, items);
    for k in [10usize, 1_000] {
        g.bench_with_input(BenchmarkId::new("thm2", k), &k, |b, &k| {
            b.iter(|| {
                let mut out = Vec::new();
                for q in &queries {
                    out.clear();
                    t2.query_topk(q, k, &mut out);
                }
                out.len()
            });
        });
        g.bench_with_input(BenchmarkId::new("binsearch28", k), &k, |b, &k| {
            b.iter(|| {
                let mut out = Vec::new();
                for q in &queries {
                    out.clear();
                    bs.query_topk(q, k, &mut out);
                }
                out.len()
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_interval,
    bench_enclosure,
    bench_dominance,
    bench_halfspace,
    bench_baseline_duel
);
criterion_main!(benches);
