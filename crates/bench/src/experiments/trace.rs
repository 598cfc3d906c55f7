//! E21: per-phase I/O attribution — the observability ablation.
//!
//! Re-runs the E6 structures (Theorems 1/2, the \[28\] binary-search
//! reduction, the scan baseline) under [`CostModel::explain`] on pooled
//! meters and tabulates *where* their query I/Os go — the EXPLAIN surface
//! documented in OBSERVABILITY.md. The shapes under test:
//!
//! * Theorem 1 is mostly `probe` (level-0 / `D` queries): its selection
//!   keeps only the k survivors its caller reads, which fit in the pool,
//!   so `select` charges only the output.
//! * Theorem 2 is mostly `probe` (τ-queries) with a `sample` tail (the
//!   max-structure ladder). Its k survivors fit in the pool, so `select`
//!   charges only the output (DESIGN.md substitution 10).
//! * The binary search pays `probe` over and over (the `log n` factor).
//! * The scan is all `scan`.
//!
//! The experiment also *asserts* the reconciliation invariant on real
//! query traffic: per-phase reads sum exactly to the meter's aggregate.

use emsim::{CostModel, CostReport, EmConfig};
use range1d::{topk_range1d, topk_range1d_baseline, topk_range1d_worstcase};
use topk_core::{ScanTopK, TopKIndex};
use workloads::line;

use crate::experiments::avg_ios_explained;
use crate::table::{f, Table};
use crate::Scale;

/// **E21.** Per-phase read/write/pool attribution at fixed `n`, `k`.
pub fn exp_trace(scale: Scale) -> Table {
    let b = 64usize;
    let n = scale.n(65_536);
    let k = 64usize;
    let mut t = Table::new(
        format!("E21 — per-phase I/O attribution (1D ranges, n = {n}, B = {b}, k = {k}, pooled)"),
        &[
            "structure",
            "phase",
            "reads",
            "writes",
            "pool hits",
            "pool misses",
            "reads %",
        ],
    );
    let items = line::uniform(n, 1_000.0, 0x21E);
    let queries = line::ranges(20, 1_000.0, 0.3, 0x21E + 1);

    let add = |t: &mut Table, name: &str, model: &CostModel, report: &CostReport| {
        let total = report.total();
        assert_eq!(
            total.reads,
            model.report().reads,
            "{name}: per-phase sums drifted from the aggregate meter"
        );
        for (ph, p) in &report.phases {
            t.row_strings(vec![
                name.to_string(),
                (*ph).to_string(),
                p.reads.to_string(),
                p.writes.to_string(),
                p.pool_hits.to_string(),
                p.pool_misses.to_string(),
                f(100.0 * p.reads as f64 / total.reads.max(1) as f64),
            ]);
        }
    };

    let m2 = CostModel::new(EmConfig::with_memory(b, 16));
    let t2 = topk_range1d(&m2, items.clone(), 0x21E);
    let (_, rep) = avg_ios_explained(&m2, &queries, |q| {
        let mut out = Vec::new();
        t2.query_topk(q, k, &mut out);
    });
    add(&mut t, "thm2", &m2, &rep);

    let m1 = CostModel::new(EmConfig::with_memory(b, 16));
    let t1 = topk_range1d_worstcase(&m1, items.clone(), 0x21E);
    let (_, rep) = avg_ios_explained(&m1, &queries, |q| {
        let mut out = Vec::new();
        t1.query_topk(q, k, &mut out);
    });
    add(&mut t, "thm1", &m1, &rep);

    let mb = CostModel::new(EmConfig::with_memory(b, 16));
    let bs = topk_range1d_baseline(&mb, items.clone());
    let (_, rep) = avg_ios_explained(&mb, &queries, |q| {
        let mut out = Vec::new();
        bs.query_topk(q, k, &mut out);
    });
    add(&mut t, "binsearch", &mb, &rep);

    let ms = CostModel::new(EmConfig::with_memory(b, 16));
    let sc = ScanTopK::build(&ms, items, |q: &range1d::Range, e: &range1d::WPoint1| {
        q.contains(e)
    });
    let (_, rep) = avg_ios_explained(&ms, &queries, |q| {
        let mut out = Vec::new();
        sc.query_topk(q, k, &mut out);
    });
    add(&mut t, "scan", &ms, &rep);

    t
}
