//! E6: the headline duel — Theorem 1/2 reductions versus the prior-work
//! binary-search reduction (eqs. (1)–(2)) and the naive scan, on 1D range
//! reporting.
//!
//! The paper's central claim against \[28\] is the *multiplicative `log n`
//! on the output term*: the binary-search reduction pays
//! `O((Q_pri + k/B)·log n)` while Theorems 1 and 2 pay `+O(k/B)` flat, so
//! the gap must widen linearly-in-`k` by a `log n` factor.

use emsim::{CostModel, EmConfig};
use range1d::{topk_range1d, topk_range1d_baseline, topk_range1d_counting, topk_range1d_worstcase};
use topk_core::{ScanTopK, TopKIndex};
use workloads::line;

use crate::experiments::avg_ios;
use crate::table::{f, Table};
use crate::Scale;

/// **E6.** Query I/Os vs `k` for the four structures at fixed `n`.
pub fn exp_baseline(scale: Scale) -> Table {
    let b = 64usize;
    let n = scale.n(131_072);
    let mut t = Table::new(
        format!("E6 — reductions vs [28] binary search vs scan (1D ranges, n = {n}, B = {b})"),
        &[
            "k",
            "thm2 (IO)",
            "thm1 (IO)",
            "binsearch (IO)",
            "counting (IO)",
            "scan (IO)",
            "binsearch/thm2",
        ],
    );
    let items = line::uniform(n, 1_000.0, 0xE6);
    let queries = line::ranges(25, 1_000.0, 0.3, 0xE6 + 1);

    let m2 = CostModel::new(EmConfig::new(b));
    let t2 = topk_range1d(&m2, items.clone(), 0xE6);
    let m1 = CostModel::new(EmConfig::new(b));
    let t1 = topk_range1d_worstcase(&m1, items.clone(), 0xE6);
    let mb = CostModel::new(EmConfig::new(b));
    let bs = topk_range1d_baseline(&mb, items.clone());
    let mc = CostModel::new(EmConfig::new(b));
    let cnt = topk_range1d_counting(&mc, items.clone());
    let ms = CostModel::new(EmConfig::new(b));
    let sc = ScanTopK::build(&ms, items, |q: &range1d::Range, e: &range1d::WPoint1| {
        q.contains(e)
    });

    let mut k = 1usize;
    while k <= n / 8 {
        let io2 = avg_ios(&m2, &queries, |q| {
            let mut out = Vec::new();
            t2.query_topk(q, k, &mut out);
        });
        let io1 = avg_ios(&m1, &queries, |q| {
            let mut out = Vec::new();
            t1.query_topk(q, k, &mut out);
        });
        let iob = avg_ios(&mb, &queries, |q| {
            let mut out = Vec::new();
            bs.query_topk(q, k, &mut out);
        });
        let ioc = avg_ios(&mc, &queries, |q| {
            let mut out = Vec::new();
            cnt.query_topk(q, k, &mut out);
        });
        let ios = avg_ios(&ms, &queries, |q| {
            let mut out = Vec::new();
            sc.query_topk(q, k, &mut out);
        });
        t.row_strings(vec![
            k.to_string(),
            f(io2),
            f(io1),
            f(iob),
            f(ioc),
            f(ios),
            f(iob / io2.max(1.0)),
        ]);
        k *= 8;
    }
    t
}
