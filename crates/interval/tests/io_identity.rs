//! Logical-I/O pins for the segment-tree structures of this crate.
//!
//! Answers alone cannot catch a layout change that keeps results but moves
//! a block id, a pool key or a charged write. These tests build from fixed
//! seeded inputs on an explicit fault-free meter and compare the build
//! writes, `space_blocks()` and each query's `(reads, pool_hits, reported)`
//! with literal constants. Any change to them must say why the I/O moved.

use std::sync::Arc;

use emsim::{CostModel, EmConfig, FaultPlan, MemDevice, PoolPolicy};
use interval::{Interval, SegStab, TopKStabbing};
use topk_core::{PrioritizedIndex, TopKIndex};

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

    /// Uniform on `[0, hi)` with three decimals, so endpoints repeat.
    fn coord(&mut self, hi: u64) -> f64 {
        (self.next() % (hi * 1000)) as f64 / 1000.0
    }
}

fn intervals(n: u64, seed: u64) -> Vec<Interval> {
    let mut rng = SplitMix(seed);
    (0..n)
        .map(|i| {
            let lo = rng.coord(1000);
            let len = rng.coord(120);
            Interval::new(lo, lo + len, i * 7 + 3)
        })
        .collect()
}

fn stabs(count: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    (0..count).map(|_| rng.coord(1100)).collect()
}

#[test]
fn segstab_build_space_and_query_ios_are_pinned() {
    let m = meter();
    let items = intervals(3000, 0x5E65_7AB1);
    let (idx, built) = m.measure(|| SegStab::build(&m, items));
    assert_eq!(built.writes, SEGSTAB_BUILD_WRITES, "build writes");
    assert_eq!(idx.space_blocks(), SEGSTAB_SPACE_BLOCKS, "space_blocks");

    let taus = [0u64, 10_000, 19_000];
    let got: Vec<(u64, u64, usize)> = stabs(24, 0x0051_AB50)
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let mut out = Vec::new();
            let ((), r) = m.measure(|| idx.query(&q, taus[i % taus.len()], &mut out));
            (r.reads, r.pool_hits, out.len())
        })
        .collect();
    assert_eq!(
        got, SEGSTAB_QUERIES,
        "per-query (reads, pool_hits, reported)"
    );
}

#[test]
fn topk_stabbing_build_space_and_query_ios_are_pinned() {
    let m = meter();
    let items = intervals(4000, 0x7095_0002);
    let (idx, built) = m.measure(|| TopKStabbing::build(&m, items, 17));
    assert_eq!(built.writes, TOPK_BUILD_WRITES, "build writes");
    assert_eq!(idx.space_blocks(), TOPK_SPACE_BLOCKS, "space_blocks");

    let ks = [1usize, 10, 100];
    let got: Vec<(u64, u64, usize)> = stabs(24, 0x0051_AB51)
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let mut out = Vec::new();
            let ((), r) = m.measure(|| idx.query_topk(&q, ks[i % ks.len()], &mut out));
            (r.reads, r.pool_hits, out.len())
        })
        .collect();
    assert_eq!(got, TOPK_QUERIES, "per-query (reads, pool_hits, reported)");
}

const SEGSTAB_BUILD_WRITES: u64 = 22311;
const SEGSTAB_SPACE_BLOCKS: u64 = 11365;
const SEGSTAB_QUERIES: &[(u64, u64, usize)] = &[
    (37, 0, 174),
    (35, 0, 89),
    (31, 0, 23),
    (36, 0, 175),
    (33, 0, 98),
    (19, 0, 7),
    (36, 2, 178),
    (29, 2, 88),
    (33, 0, 18),
    (29, 7, 175),
    (33, 0, 86),
    (31, 0, 14),
    (33, 5, 179),
    (30, 2, 85),
    (29, 2, 12),
    (19, 16, 149),
    (27, 0, 37),
    (15, 0, 0),
    (32, 6, 183),
    (33, 2, 105),
    (25, 6, 12),
    (28, 6, 175),
    (30, 5, 88),
    (31, 0, 14),
];

const TOPK_BUILD_WRITES: u64 = 30081;
const TOPK_SPACE_BLOCKS: u64 = 15754;
const TOPK_QUERIES: &[(u64, u64, usize)] = &[
    (81, 0, 1),
    (46, 0, 10),
    (78, 0, 100),
    (70, 0, 1),
    (60, 8, 10),
    (85, 0, 100),
    (63, 25, 1),
    (60, 0, 10),
    (79, 0, 100),
    (73, 0, 1),
    (66, 33, 10),
    (50, 0, 100),
    (75, 0, 1),
    (26, 5, 10),
    (82, 5, 100),
    (66, 4, 1),
    (74, 4, 10),
    (62, 13, 100),
    (38, 5, 1),
    (89, 63, 10),
    (79, 0, 100),
    (58, 25, 1),
    (44, 26, 10),
    (82, 4, 100),
];
