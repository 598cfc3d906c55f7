//! Logical-I/O pins for the point-enclosure structures, whose outer
//! segment tree carries an inner structure per canonical node.
//!
//! Answers alone cannot catch a layout change that keeps results but moves
//! a block id, a pool key or a charged write. These tests build from fixed
//! seeded inputs on an explicit fault-free meter and compare the build
//! writes, `space_blocks()` and each query's I/O with literal constants.
//! Any change to them must say why the I/O moved.

use std::sync::Arc;

use emsim::{CostModel, EmConfig, FaultPlan, MemDevice, PoolPolicy};
use enclosure::{EncMax, EncPri, Rect};
use geom::Point2;
use topk_core::{MaxIndex, PrioritizedIndex};

/// A small pool, so queries see both hits and misses.
fn meter() -> CostModel {
    CostModel::with_device(
        EmConfig::with_memory(64, 512),
        FaultPlan::none(),
        PoolPolicy::Lru,
        Arc::new(MemDevice::new()),
    )
}

/// `SplitMix64`: a self-contained generator, so the inputs cannot drift
/// with any dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, hi)` with two decimals, so edges repeat.
    fn coord(&mut self, hi: u64) -> f64 {
        (self.next() % (hi * 100)) as f64 / 100.0
    }
}

fn rects(n: u64, seed: u64) -> Vec<Rect> {
    let mut rng = SplitMix(seed);
    (0..n)
        .map(|i| {
            let x1 = rng.coord(100);
            let w = rng.coord(30);
            let y1 = rng.coord(100);
            let h = rng.coord(30);
            Rect::new(x1, x1 + w, y1, y1 + h, i * 5 + 2)
        })
        .collect()
}

fn points(count: usize, seed: u64) -> Vec<Point2> {
    let mut rng = SplitMix(seed);
    (0..count)
        .map(|_| Point2::new(rng.coord(110), rng.coord(110)))
        .collect()
}

#[test]
fn enc_pri_build_space_and_query_ios_are_pinned() {
    let m = meter();
    let items = rects(1500, 0xE0C1_0001);
    let (idx, built) = m.measure(|| EncPri::build(&m, items));
    assert_eq!(built.writes, PRI_BUILD_WRITES, "build writes");
    assert_eq!(idx.space_blocks(), PRI_SPACE_BLOCKS, "space_blocks");

    let taus = [0u64, 3_000, 7_000];
    let got: Vec<(u64, u64, usize)> = points(24, 0x0E0C_0001)
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut out = Vec::new();
            let ((), r) = m.measure(|| idx.query(q, taus[i % taus.len()], &mut out));
            (r.reads, r.pool_hits, out.len())
        })
        .collect();
    assert_eq!(got, PRI_QUERIES, "per-query (reads, pool_hits, reported)");
}

#[test]
fn enc_max_build_space_and_query_ios_are_pinned() {
    let m = meter();
    let items = rects(1500, 0xE0C1_0002);
    let (idx, built) = m.measure(|| EncMax::build(&m, items));
    assert_eq!(built.writes, MAX_BUILD_WRITES, "build writes");
    assert_eq!(idx.space_blocks(), MAX_SPACE_BLOCKS, "space_blocks");

    let got: Vec<(u64, u64, u64)> = points(24, 0x0E0C_0002)
        .iter()
        .map(|q| {
            let (best, r) = m.measure(|| idx.query_max(q));
            (r.reads, r.pool_hits, best.map_or(0, |b| b.weight))
        })
        .collect();
    assert_eq!(
        got, MAX_QUERIES,
        "per-query (reads, pool_hits, answer weight)"
    );
}

const PRI_BUILD_WRITES: u64 = 56775;
const PRI_SPACE_BLOCKS: u64 = 40141;
const PRI_QUERIES: &[(u64, u64, usize)] = &[
    (52, 0, 34),
    (33, 1, 6),
    (36, 1, 2),
    (18, 1, 16),
    (10, 1, 1),
    (25, 6, 1),
    (28, 1, 10),
    (38, 5, 12),
    (16, 6, 1),
    (46, 3, 37),
    (44, 1, 21),
    (27, 6, 6),
    (53, 1, 29),
    (29, 7, 11),
    (27, 9, 2),
    (33, 12, 28),
    (12, 14, 1),
    (37, 3, 2),
    (49, 10, 43),
    (19, 10, 14),
    (34, 4, 2),
    (16, 44, 44),
    (13, 1, 0),
    (33, 3, 2),
];

const MAX_BUILD_WRITES: u64 = 16541;
const MAX_SPACE_BLOCKS: u64 = 13336;
const MAX_QUERIES: &[(u64, u64, u64)] = &[
    (29, 49, 7262),
    (20, 27, 7402),
    (28, 43, 7377),
    (20, 38, 6187),
    (12, 14, 6762),
    (21, 49, 7492),
    (21, 38, 7302),
    (20, 51, 7457),
    (25, 46, 6912),
    (27, 46, 7407),
    (24, 40, 7402),
    (15, 50, 7477),
    (22, 42, 7277),
    (22, 43, 7452),
    (23, 52, 7167),
    (13, 53, 7412),
    (21, 43, 7477),
    (16, 22, 6332),
    (15, 59, 7492),
    (24, 46, 7442),
    (24, 38, 6482),
    (24, 46, 7442),
    (22, 53, 7457),
    (14, 26, 7402),
];
