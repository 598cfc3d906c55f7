//! E7–E12: the concrete problems of Theorems 3–6 and Corollary 1.

use emsim::{CostModel, EmConfig};
use topk_core::{PrioritizedBuilder, PrioritizedIndex, TopKIndex};

use crate::experiments::{avg_ios, sizes};
use crate::table::{f, Table};
use crate::Scale;

/// **E7 (Theorem 4).** Top-k interval stabbing across workload shapes:
/// query I/Os vs `n` (fixed `k`) and vs `k` (fixed `n`).
pub fn exp_interval(scale: Scale) -> Table {
    let b = 64usize;
    let mut t = Table::new(
        "E7 / Theorem 4 — top-k interval stabbing (Theorem 2 assembly)",
        &["workload", "n", "k", "IO/query", "scan IO", "speedup"],
    );
    for &n in &sizes(scale.n(8_192), scale.n(65_536)) {
        for (name, items) in [
            (
                "uniform",
                workloads::intervals::uniform(n, 1_000.0, 120.0, 0xE7),
            ),
            ("nested", workloads::intervals::nested(n, 0xE7)),
            ("mixed", workloads::intervals::mixed(n, 1_000.0, 0xE7)),
        ] {
            let span = if name == "nested" {
                2.0 * n as f64
            } else {
                1_000.0
            };
            let queries: Vec<f64> = workloads::intervals::stab_queries(20, span, 0xE7 + 2)
                .into_iter()
                .map(|q| if name == "nested" { q - n as f64 } else { q })
                .collect();
            let model = CostModel::new(EmConfig::new(b));
            let idx = interval::TopKStabbing::build(&model, items, 0xE7);
            let scan = (3 * n) as f64 / b as f64;
            for &k in &[10usize, 1_000] {
                let io = avg_ios(&model, &queries, |&q| {
                    let mut out = Vec::new();
                    idx.query_topk(&q, k, &mut out);
                });
                t.row_strings(vec![
                    name.into(),
                    n.to_string(),
                    k.to_string(),
                    f(io),
                    f(scan),
                    f(scan / io.max(1.0)),
                ]);
            }
        }
    }
    t
}

/// **E8 (Theorem 5).** Top-k point enclosure on the dating-site workload.
pub fn exp_enclosure(scale: Scale) -> Table {
    let b = 64usize;
    let mut t = Table::new(
        "E8 / Theorem 5 — top-k point enclosure (dating workload)",
        &["n", "k", "IO/query", "scan IO", "speedup"],
    );
    for &n in &sizes(scale.n(4_096), scale.n(32_768)) {
        let items = workloads::rects::dating(n, 0xE8);
        let queries: Vec<geom::Point2> = (0..15)
            .map(|i| geom::Point2::new(20.0 + (i as f64) * 2.5, 150.0 + (i as f64) * 4.0))
            .collect();
        let model = CostModel::new(EmConfig::new(b));
        let idx = enclosure::TopKEnclosure::build(&model, items, 0xE8);
        let scan = (5 * n) as f64 / b as f64;
        for &k in &[10usize, 100] {
            let io = avg_ios(&model, &queries, |q| {
                let mut out = Vec::new();
                idx.query_topk(q, k, &mut out);
            });
            t.row_strings(vec![
                n.to_string(),
                k.to_string(),
                f(io),
                f(scan),
                f(scan / io.max(1.0)),
            ]);
        }
    }
    t
}

/// **E9 (Theorem 6).** Top-k 3D dominance on uniform and correlated
/// hotel workloads.
pub fn exp_dominance(scale: Scale) -> Table {
    let b = 64usize;
    let mut t = Table::new(
        "E9 / Theorem 6 — top-k 3D dominance (hotel workloads)",
        &["workload", "n", "k", "IO/query", "scan IO"],
    );
    for &n in &sizes(scale.n(8_192), scale.n(32_768)) {
        for (name, items) in [
            ("uniform", workloads::hotels::uniform(n, 0xE9)),
            ("correlated", workloads::hotels::correlated(n, 0xE9)),
        ] {
            let queries = workloads::hotels::queries(15, 0xE9 + 1);
            let model = CostModel::new(EmConfig::new(b));
            let idx = dominance::TopKDominance::build(&model, items, 0xE9);
            let scan = (4 * n) as f64 / b as f64;
            for &k in &[10usize, 100] {
                let io = avg_ios(&model, &queries, |q| {
                    let mut out = Vec::new();
                    idx.query_topk(q, k, &mut out);
                });
                t.row_strings(vec![
                    name.into(),
                    n.to_string(),
                    k.to_string(),
                    f(io),
                    f(scan),
                ]);
            }
        }
    }
    t
}

/// **E10 (Theorem 3, d = 2).** Top-k halfplane reporting: I/Os vs `n`,
/// expected `O(polylog + k)` shape.
pub fn exp_halfspace2d(scale: Scale) -> Table {
    let b = 64usize;
    let mut t = Table::new(
        "E10 / Theorem 3 (d=2) — top-k halfplane reporting",
        &["n", "k", "IO/query", "scan IO"],
    );
    for &n in &sizes(scale.n(4_096), scale.n(16_384)) {
        let items = workloads::points::uniform2(n, 100.0, 0xEA);
        let queries = workloads::points::halfplanes(12, 100.0, 0xEA + 1);
        let model = CostModel::new(EmConfig::new(b));
        let idx = halfspace::TopKHalfplane::build(&model, items, 0xEA);
        let scan = (3 * n) as f64 / b as f64;
        for &k in &[10usize, 100] {
            let io = avg_ios(&model, &queries, |q| {
                let mut out = Vec::new();
                idx.query_topk(q, k, &mut out);
            });
            t.row_strings(vec![n.to_string(), k.to_string(), f(io), f(scan)]);
        }
    }
    t
}

/// **E11 (Theorem 3, d ≥ 4 + the zero-slowdown remark).** The remark
/// concerns *hard* queries — those whose cost is dominated by the
/// structural `(n/B)^{1−1/d+ε}` search, not the output. We therefore use
/// *grazing* halfspaces (≈ 32 qualifying points regardless of n): the
/// kd-substrate's prioritized query then genuinely pays its polynomial
/// search cost, and Theorem 1's top-k query must track it within a
/// constant — the ratio column must stay flat while `Q_pri` itself grows
/// polynomially in `n`.
pub fn exp_halfspace_hd(scale: Scale) -> Table {
    let b = 64usize;
    let mut t = Table::new(
        "E11 / Theorem 3 (d=4) — zero-slowdown regime of Theorem 1 (grazing halfspaces)",
        &["n", "k", "Q_top (IO)", "Q_pri (IO)", "ratio", "|q(D)|"],
    );
    for &n in &sizes(scale.n(8_192), scale.n(65_536)) {
        let items = workloads::points::uniform_d::<4>(n, 50.0, 0xEB);
        // Grazing halfspaces: offset at the (n−32)-th projection quantile.
        let dirs = workloads::points::halfspaces_d::<4>(8, 60.0, 0xEB + 1);
        let queries: Vec<geom::point::HalfspaceD<4>> = dirs
            .iter()
            .map(|h| {
                let mut projs: Vec<f64> = items.iter().map(|p| p.point().dot(&h.normal)).collect();
                projs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                geom::point::HalfspaceD::new(h.normal, projs[projs.len() - 33])
            })
            .collect();
        let avg_matches: f64 = queries
            .iter()
            .map(|h| items.iter().filter(|p| h.contains(&p.point())).count() as f64)
            .sum::<f64>()
            / queries.len() as f64;

        let model_p = CostModel::new(EmConfig::new(b));
        let pri = halfspace::hd::pri_hd_builder().build(&model_p, items.clone());
        let q_pri = avg_ios(&model_p, &queries, |q| {
            let mut out = Vec::new();
            pri.query(q, 0, &mut out);
        });

        let model_t = CostModel::new(EmConfig::new(b));
        let idx = halfspace::TopKHalfspaceWorstCase::<4>::build(&model_t, items, 0xEB);
        for &k in &[8usize, 32] {
            let q_top = avg_ios(&model_t, &queries, |q| {
                let mut out = Vec::new();
                idx.query_topk(q, k, &mut out);
            });
            t.row_strings(vec![
                n.to_string(),
                k.to_string(),
                f(q_top),
                f(q_pri),
                f(q_top / q_pri.max(1.0)),
                f(avg_matches),
            ]);
        }
    }
    t
}

/// **E12 (Corollary 1).** Top-k circular reporting via lifting: same
/// shape as the d = 3 halfspace structure it reduces to.
pub fn exp_circular(scale: Scale) -> Table {
    let b = 64usize;
    let mut t = Table::new(
        "E12 / Corollary 1 — top-k circular reporting via lifting",
        &["n", "k", "IO/query", "scan IO"],
    );
    for &n in &sizes(scale.n(4_096), scale.n(16_384)) {
        let items = workloads::points::gaussian2(n, 80.0, 0xEC);
        let queries = workloads::points::disks(10, 80.0, 0xEC + 1);
        let model = CostModel::new(EmConfig::new(b));
        let idx = halfspace::TopKCircular::build(&model, items, 0xEC);
        let scan = (3 * n) as f64 / b as f64;
        for &k in &[10usize, 100] {
            let io = avg_ios(&model, &queries, |q| {
                let mut out = Vec::new();
                idx.query_topk(q, k, &mut out);
            });
            t.row_strings(vec![n.to_string(), k.to_string(), f(io), f(scan)]);
        }
    }
    t
}
