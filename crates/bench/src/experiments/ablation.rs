//! E14: ablation — the reduction over two interchangeable prioritized
//! substrates (the black-box claim in action).
//!
//! Theorem 1 is agnostic to the inner structure; swapping the linear-space
//! interval-tree+PST ([`interval::PstStab`]) for the `O(n log n)`-space
//! segment tree ([`interval::SegStab`]) must trade space for query time
//! exactly as the inner structures themselves do, with the reduction's
//! overhead factor unchanged.

use emsim::{CostModel, EmConfig};
use interval::{PstStabBuilder, SegStabBuilder};
use topk_core::{MaxIndex, Theorem1Params, TopKIndex, WorstCaseTopK};
use workloads::intervals;

use crate::experiments::avg_ios;
use crate::table::{f, Table};
use crate::Scale;

/// **E14.** Theorem 1 over PST vs segment-tree inner structures, plus the
/// effect of the `f`-constant (the paper's 12 vs smaller).
pub fn exp_ablation_inner(scale: Scale) -> Table {
    let b = 64usize;
    let n = scale.n(32_768);
    let mut t = Table::new(
        format!("E14 — Theorem 1 inner-structure & f-constant ablation (n = {n})"),
        &["inner", "f-const", "k", "IO/query", "space (blocks)"],
    );
    let items = intervals::uniform(n, 1_000.0, 120.0, 0xEE);
    let queries = intervals::stab_queries(20, 1_000.0, 0xEE + 1);

    for &fc in &[0.5f64, 2.0] {
        // λ = 1 with a small f-constant keeps f below n so the core-set
        // hierarchy is actually exercised (the paper's constants put f ≫ n
        // at this scale; see E4's notes).
        let model = CostModel::new(EmConfig::new(b));
        let params = Theorem1Params {
            lambda: 1.0,
            f_constant: fc,
            seed: 0xEE,
        };
        let t1 = WorstCaseTopK::build(&model, &PstStabBuilder, items.clone(), params);
        for &k in &[10usize, 1_000] {
            let io = avg_ios(&model, &queries, |&q| {
                let mut out = Vec::new();
                t1.query_topk(&q, k, &mut out);
            });
            t.row_strings(vec![
                "pst".into(),
                f(fc),
                k.to_string(),
                f(io),
                t1.space_blocks().to_string(),
            ]);
        }
        // Segment-tree inner (n log n space, faster prioritized query).
        let model = CostModel::new(EmConfig::new(b));
        let t1 = WorstCaseTopK::build(&model, &SegStabBuilder, items.clone(), params);
        for &k in &[10usize, 1_000] {
            let io = avg_ios(&model, &queries, |&q| {
                let mut out = Vec::new();
                t1.query_topk(&q, k, &mut out);
            });
            t.row_strings(vec![
                "segtree".into(),
                f(fc),
                k.to_string(),
                f(io),
                t1.space_blocks().to_string(),
            ]);
        }
    }
    t
}

/// **E18.** Fractional cascading ablation (§5.2): the 2D stabbing-max
/// structure with per-node binary searches (`O(log² n)`) vs the cascaded
/// variant (`O(log n)`), on the same rectangle sets — the query-I/O gap
/// must widen like `log n`.
pub fn exp_ablation_cascade(scale: Scale) -> Table {
    let b = 64usize;
    let mut t = Table::new(
        "E18 — fractional cascading ablation on 2D stabbing max",
        &["n", "plain IO/query", "cascaded IO/query", "speedup"],
    );
    for &n in &crate::experiments::sizes(scale.n(8_192), scale.n(65_536)) {
        let items = workloads::rects::uniform(n, 1_000.0, 80.0, 0xF0);
        let queries = workloads::rects::point_queries(200, 1_000.0, 0xF0 + 1);

        let model_p = CostModel::new(EmConfig::new(b));
        let plain = enclosure::EncMax::build(&model_p, items.clone());
        let io_plain = avg_ios(&model_p, &queries, |q| {
            let _ = plain.query_max(q);
        });

        let model_c = CostModel::new(EmConfig::new(b));
        let cascaded = enclosure::CascadeStabMax::build(&model_c, items);
        let io_casc = avg_ios(&model_c, &queries, |q| {
            let _ = cascaded.query_max(q);
        });

        t.row_strings(vec![
            n.to_string(),
            f(io_plain),
            f(io_casc),
            f(io_plain / io_casc.max(1.0)),
        ]);
    }
    t
}

/// **E19.** Substrate ablation on 2D orthogonal ranges: kd-tree
/// (`O(√n + t)`, linear space) vs range tree (`O(log² n + t)`,
/// `O(n log n)` space) under the Theorem 2 reduction. The reduction is
/// black-box: each assembly inherits its substrate's trade-off.
pub fn exp_range2d(scale: Scale) -> Table {
    let b = 64usize;
    let mut t = Table::new(
        "E19 — range2d substrate ablation under Theorem 2 (kd vs range tree)",
        &[
            "n",
            "k",
            "kd IO/query",
            "rt IO/query",
            "kd space",
            "rt space",
        ],
    );
    for &n in &crate::experiments::sizes(scale.n(8_192), scale.n(65_536)) {
        let items: Vec<range2d::WPt> = {
            let pts = workloads::points::uniform2(n, 100.0, 0xF1);
            pts.iter()
                .map(|p| range2d::WPt::new(p.x, p.y, p.weight))
                .collect()
        };
        let queries: Vec<range2d::RangeQ> = (0..12)
            .map(|i| {
                let a = -90.0 + (i as f64) * 12.0;
                range2d::RangeQ::new((a, a), (a + 40.0, a + 40.0))
            })
            .collect();

        let model_kd = CostModel::new(EmConfig::new(b));
        let kd = range2d::topk_range2d(&model_kd, items.clone(), 0xF1);
        let model_rt = CostModel::new(EmConfig::new(b));
        let rt = range2d::topk_range2d_rangetree(&model_rt, items, 0xF1);
        for &k in &[10usize, 200] {
            let io_kd = avg_ios(&model_kd, &queries, |q| {
                let mut out = Vec::new();
                kd.query_topk(q, k, &mut out);
            });
            let io_rt = avg_ios(&model_rt, &queries, |q| {
                let mut out = Vec::new();
                rt.query_topk(q, k, &mut out);
            });
            t.row_strings(vec![
                n.to_string(),
                k.to_string(),
                f(io_kd),
                f(io_rt),
                kd.space_blocks().to_string(),
                rt.space_blocks().to_string(),
            ]);
        }
    }
    t
}

/// **E20.** Substrate ablation on 3D dominance: kd-tree (linear space,
/// `O(n^{2/3}+t)` reporting) vs z-tree-of-range-trees (`O(n log² n)` space,
/// `O(log³ n + t)` reporting) under Theorem 2 — the paper's §5.3 layered
/// spirit against our kd substitution (DESIGN.md substitution 5).
pub fn exp_dominance_substrates(scale: Scale) -> Table {
    let b = 64usize;
    let mut t = Table::new(
        "E20 — 3D dominance substrate ablation under Theorem 2 (kd vs z-tree)",
        &[
            "n",
            "k",
            "kd IO/query",
            "ztree IO/query",
            "kd space",
            "ztree space",
        ],
    );
    for &n in &crate::experiments::sizes(scale.n(8_192), scale.n(32_768)) {
        let items = workloads::hotels::uniform(n, 0xF2);
        let queries = workloads::hotels::queries(12, 0xF2 + 1);

        let model_kd = CostModel::new(EmConfig::new(b));
        let kd = dominance::TopKDominance::build(&model_kd, items.clone(), 0xF2);
        let model_zt = CostModel::new(EmConfig::new(b));
        let zt = dominance::topk_dominance_ztree(&model_zt, items, 0xF2);
        for &k in &[10usize, 100] {
            let io_kd = avg_ios(&model_kd, &queries, |q| {
                let mut out = Vec::new();
                kd.query_topk(q, k, &mut out);
            });
            let io_zt = avg_ios(&model_zt, &queries, |q| {
                let mut out = Vec::new();
                zt.query_topk(q, k, &mut out);
            });
            t.row_strings(vec![
                n.to_string(),
                k.to_string(),
                f(io_kd),
                f(io_zt),
                kd.space_blocks().to_string(),
                zt.space_blocks().to_string(),
            ]);
        }
    }
    t
}
