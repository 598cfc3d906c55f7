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

const PRI_BUILD_WRITES: u64 = 74922;
const PRI_SPACE_BLOCKS: u64 = 40095;
const PRI_QUERIES: &[(u64, u64, usize)] = &[
    (105, 0, 34),
    (84, 0, 6),
    (98, 0, 2),
    (48, 0, 16),
    (29, 0, 1),
    (87, 2, 1),
    (54, 0, 10),
    (99, 3, 12),
    (55, 2, 1),
    (96, 1, 37),
    (90, 0, 21),
    (87, 4, 6),
    (104, 0, 29),
    (80, 2, 11),
    (100, 3, 2),
    (86, 7, 28),
    (64, 5, 1),
    (112, 1, 2),
    (109, 3, 43),
    (64, 3, 14),
    (107, 1, 2),
    (75, 39, 44),
    (36, 0, 0),
    (103, 0, 2),
];

const MAX_BUILD_WRITES: u64 = 18356;
const MAX_SPACE_BLOCKS: u64 = 13335;
const MAX_QUERIES: &[(u64, u64, u64)] = &[
    (43, 49, 7262),
    (33, 26, 7402),
    (44, 41, 7377),
    (33, 37, 6187),
    (24, 13, 6762),
    (35, 48, 7492),
    (36, 37, 7302),
    (35, 50, 7457),
    (40, 45, 6912),
    (42, 45, 7407),
    (38, 39, 7402),
    (29, 50, 7477),
    (36, 42, 7277),
    (36, 42, 7452),
    (38, 51, 7167),
    (27, 52, 7412),
    (36, 42, 7477),
    (28, 21, 6332),
    (28, 60, 7492),
    (39, 45, 7442),
    (39, 37, 6482),
    (39, 45, 7442),
    (36, 53, 7457),
    (33, 20, 7402),
];
