//! E15: space accounting — measured blocks vs theory for every structure
//! (geometric convergence of the core-set/sample hierarchies, eq. (3) and
//! eq. (5)).

use emsim::{CostModel, EmConfig};
use topk_core::{MaxBuilder, MaxIndex, PrioritizedBuilder, PrioritizedIndex, TopKIndex};

use crate::experiments::sizes;
use crate::table::{f, Table};
use crate::Scale;

/// **E15.** Space in blocks, per structure, across `n`; the last column is
/// the measured blocks per input block `n·words/B` (must stay bounded for
/// linear-space structures and grow like `log n` for the segment trees).
pub fn exp_space(scale: Scale) -> Table {
    let b = 64usize;
    let mut t = Table::new(
        "E15 — space accounting (blocks; n-blocks = n·words/B)",
        &["structure", "n", "blocks", "n-blocks", "blowup"],
    );
    for &n in &sizes(scale.n(8_192), scale.n(32_768)) {
        let n_blocks_iv = (3 * n) as f64 / b as f64;
        let items = workloads::intervals::uniform(n, 1_000.0, 120.0, 0xEF);

        let model = CostModel::new(EmConfig::new(b));
        let s = interval::PstStabBuilder.build(&model, items.clone());
        push(&mut t, "interval/pst-pri", n, s.space_blocks(), n_blocks_iv);

        let model = CostModel::new(EmConfig::new(b));
        let s = interval::SegStabBuilder.build(&model, items.clone());
        push(
            &mut t,
            "interval/segtree-pri",
            n,
            s.space_blocks(),
            n_blocks_iv,
        );

        let model = CostModel::new(EmConfig::new(b));
        let s = interval::StabMaxBuilder.build(&model, items.clone());
        push(
            &mut t,
            "interval/stab-max",
            n,
            MaxIndex::space_blocks(&s),
            n_blocks_iv,
        );

        let model = CostModel::new(EmConfig::new(b));
        let s = interval::TopKStabbing::build(&model, items.clone(), 0xEF);
        push(
            &mut t,
            "interval/topk-thm2",
            n,
            s.space_blocks(),
            n_blocks_iv,
        );

        let model = CostModel::new(EmConfig::new(b));
        let s = interval::TopKStabbingWorstCase::build(&model, items, 0xEF);
        push(
            &mut t,
            "interval/topk-thm1",
            n,
            s.space_blocks(),
            n_blocks_iv,
        );

        let pts = workloads::points::uniform2(n, 100.0, 0xEF);
        let n_blocks_pt = (3 * n) as f64 / b as f64;
        let model = CostModel::new(EmConfig::new(b));
        let s = halfspace::WeightHullTree::build(&model, pts.clone());
        push(
            &mut t,
            "halfspace/hull-max",
            n,
            MaxIndex::space_blocks(&s),
            n_blocks_pt,
        );

        let model = CostModel::new(EmConfig::new(b));
        let s = halfspace::TopKHalfplane::build(&model, pts, 0xEF);
        push(
            &mut t,
            "halfspace/topk-2d",
            n,
            s.space_blocks(),
            n_blocks_pt,
        );

        let hotels = workloads::hotels::uniform(n, 0xEF);
        let n_blocks_h = (4 * n) as f64 / b as f64;
        let model = CostModel::new(EmConfig::new(b));
        let s = dominance::TopKDominance::build(&model, hotels, 0xEF);
        push(&mut t, "dominance/topk", n, s.space_blocks(), n_blocks_h);
    }
    t
}

fn push(t: &mut Table, name: &str, n: usize, blocks: u64, n_blocks: f64) {
    t.row_strings(vec![
        name.into(),
        n.to_string(),
        blocks.to_string(),
        f(n_blocks),
        f(blocks as f64 / n_blocks.max(1.0)),
    ]);
}
