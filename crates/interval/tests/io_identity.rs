//! Logical-I/O pins for the segment-tree structures of this crate.
//!
//! Answers alone cannot catch a layout change that keeps results but moves
//! a block id, a pool key or a charged write. These tests build from fixed
//! seeded inputs on an explicit fault-free meter and compare the build
//! writes, `space_blocks()` and each query's `(reads, pool_hits, reported)`
//! with literal constants. The dynamic structures also pin each update's
//! `(reads, writes)` over a fixed script that runs past a grid rebuild, and
//! the exact order in which a prioritized query visits its items (a
//! cost-monitored query truncates at the item where that order says). Any
//! change to them must say why the I/O moved.

use std::sync::Arc;

use emsim::{CostModel, EmConfig, FaultPlan, MemDevice, PoolPolicy};
use interval::{DynStabbing, DynTopKStabbing, Interval, SegStab, TopKStabbing};
use topk_core::{DynamicIndex, MaxIndex, PrioritizedIndex, TopKIndex, Weight};

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

/// One step of the update script.
enum Op {
    Insert(Interval),
    Delete(Weight),
    /// A stab, with a script-chosen parameter (`τ` or `k`).
    Query(f64, u64),
}

/// The update script the dynamic pins replay over `intervals(n0, seed)`:
/// cycles of insert, insert, delete, query. Fresh weights are `7j + 5`,
/// so early inserts land between the initial weights `7i + 3` and later
/// ones above them. Every fifth delete names an absent weight. With
/// `n0 = 128` the 120 inserts of 240 steps pass one grid rebuild, which
/// runs after `max(64, n/2)` inserts.
fn update_script(n0: u64, steps: usize, seed: u64) -> Vec<Op> {
    let mut rng = SplitMix(seed);
    let mut live: Vec<Weight> = (0..n0).map(|i| i * 7 + 3).collect();
    let mut fresh = 0u64;
    let mut deletes = 0u64;
    (0..steps)
        .map(|i| match i % 4 {
            0 | 1 => {
                let lo = rng.coord(1000);
                let len = rng.coord(120);
                let iv = Interval::new(lo, lo + len, fresh * 7 + 5);
                fresh += 1;
                live.push(iv.weight);
                Op::Insert(iv)
            }
            2 => {
                deletes += 1;
                if deletes.is_multiple_of(5) {
                    Op::Delete(deletes * 7 + 6)
                } else {
                    let at = (rng.next() % live.len() as u64) as usize;
                    Op::Delete(live.swap_remove(at))
                }
            }
            _ => Op::Query(rng.coord(1100), rng.next() % 3),
        })
        .collect()
}

/// The weights `for_each_at_least(q, τ)` visits, in visit order, stopping
/// after the eighth.
fn visit_order(idx: &DynStabbing, q: f64, tau: Weight) -> Vec<Weight> {
    let mut seen = Vec::new();
    idx.for_each_at_least(&q, tau, &mut |iv| {
        seen.push(iv.weight);
        seen.len() < 8
    });
    seen
}

const VISIT_PROBES: [(f64, Weight); 4] = [(500.0, 0), (500.0, 450), (37.5, 0), (912.25, 300)];

#[test]
fn dyn_stabbing_build_update_query_ios_and_visit_order_are_pinned() {
    let m = meter();
    let items = intervals(128, 0xD1_5AB0);
    let (mut idx, built) = m.measure(|| DynStabbing::build(&m, items));
    assert_eq!(built.writes, DYN_BUILD_WRITES, "build writes");
    assert_eq!(
        PrioritizedIndex::space_blocks(&idx),
        DYN_SPACE_BLOCKS,
        "space_blocks"
    );
    let before: Vec<Vec<Weight>> = VISIT_PROBES
        .iter()
        .map(|&(q, tau)| visit_order(&idx, q, tau))
        .collect();
    assert_eq!(before, DYN_VISITS_BUILT, "visit order after build");

    let taus = [0u64, 300, 700];
    let got: Vec<(u64, u64, usize)> = update_script(128, 240, 0xD1_5C21)
        .into_iter()
        .enumerate()
        .map(|(i, op)| match op {
            Op::Insert(iv) => {
                let ((), r) = m.measure(|| idx.insert(iv));
                (r.reads, r.writes, 0)
            }
            Op::Delete(w) => {
                let (found, r) = m.measure(|| idx.delete(w));
                (r.reads, r.writes, usize::from(found))
            }
            Op::Query(q, p) if i % 8 == 3 => {
                let mut out = Vec::new();
                let ((), r) = m.measure(|| idx.query(&q, taus[p as usize], &mut out));
                (r.reads, r.writes, out.len())
            }
            Op::Query(q, _) => {
                // A max query reports the weight of its answer.
                let (best, r) = m.measure(|| idx.query_max(&q));
                (r.reads, r.writes, best.map_or(0, |iv| iv.weight as usize))
            }
        })
        .collect();
    assert_eq!(got, DYN_SCRIPT, "per-op (reads, writes, reported)");
    assert_eq!(
        PrioritizedIndex::space_blocks(&idx),
        DYN_SPACE_BLOCKS_AFTER,
        "space_blocks after the script"
    );
    let after: Vec<Vec<Weight>> = VISIT_PROBES
        .iter()
        .map(|&(q, tau)| visit_order(&idx, q, tau))
        .collect();
    assert_eq!(after, DYN_VISITS_AFTER, "visit order after the script");
}

#[test]
fn dyn_topk_stabbing_build_update_and_query_ios_are_pinned() {
    let m = meter();
    let items = intervals(128, 0xD1_70B0);
    let (mut idx, built) = m.measure(|| DynTopKStabbing::build(&m, items, 23));
    assert_eq!(built.writes, DYN_TOPK_BUILD_WRITES, "build writes");
    assert_eq!(idx.space_blocks(), DYN_TOPK_SPACE_BLOCKS, "space_blocks");

    let ks = [1usize, 10, 100];
    let got: Vec<(u64, u64, usize)> = update_script(128, 240, 0xD1_7C21)
        .into_iter()
        .map(|op| match op {
            Op::Insert(iv) => {
                let ((), r) = m.measure(|| idx.insert(iv));
                (r.reads, r.writes, 0)
            }
            Op::Delete(w) => {
                let (found, r) = m.measure(|| idx.delete(w));
                (r.reads, r.writes, usize::from(found))
            }
            Op::Query(q, p) => {
                let mut out = Vec::new();
                let ((), r) = m.measure(|| idx.query_topk(&q, ks[p as usize], &mut out));
                (r.reads, r.writes, out.len())
            }
        })
        .collect();
    assert_eq!(got, DYN_TOPK_SCRIPT, "per-op (reads, writes, reported)");
    assert_eq!(
        idx.space_blocks(),
        DYN_TOPK_SPACE_BLOCKS_AFTER,
        "space_blocks after the script"
    );
}

const DYN_BUILD_WRITES: u64 = 16;
const DYN_SPACE_BLOCKS: u64 = 43;
const DYN_SPACE_BLOCKS_AFTER: u64 = 70;
const DYN_VISITS_BUILT: [&[Weight]; 4] = [
    &[192, 45, 808, 801, 682, 647, 724, 416],
    &[808, 801, 682, 647, 724],
    &[290, 598, 451],
    &[640, 528, 654, 514, 500, 360],
];
const DYN_VISITS_AFTER: [&[Weight]; 4] = [
    &[649, 481, 691, 416, 808, 656, 432, 45],
    &[649, 481, 691, 808, 656, 682],
    &[290, 82, 551, 810, 598, 530, 451],
    &[640, 654, 572, 500, 514, 439, 360, 528],
];
#[rustfmt::skip]
const DYN_SCRIPT: &[(u64, u64, usize)] = &[
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (7, 0, 4),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (7, 0, 619),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 3),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (3, 0, 507),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (8, 0, 6),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 773),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (7, 0, 3),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 794),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (7, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (5, 0, 864),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (0, 0, 7),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (0, 0, 864),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 864),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (3, 0, 12),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (10, 0, 0),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 4),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 836),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (3, 0, 2),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (0, 0, 507),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (3, 0, 0),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (0, 0, 773),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 12),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 857),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (0, 0, 5),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 885),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 724),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 2),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (4, 0, 878),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 4),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 416),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 9),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (3, 0, 836),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (6, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 619),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (0, 0, 8),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 808),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (0, 0, 5),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (0, 0, 864),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (2, 0, 11),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 0),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 0),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (3, 0, 885),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (5, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (2, 0, 591),
    (0, 32, 0), (0, 9, 0), (0, 9, 1), (8, 0, 3),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 892),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (3, 0, 13),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (3, 0, 787),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 12),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 787),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (2, 0, 9),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (0, 0, 864),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (5, 0, 2),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (0, 0, 794),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (7, 0, 15),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (0, 0, 787),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (4, 0, 822),
];

const DYN_TOPK_BUILD_WRITES: u64 = 16;
const DYN_TOPK_SPACE_BLOCKS: u64 = 50;
const DYN_TOPK_SPACE_BLOCKS_AFTER: u64 = 79;
#[rustfmt::skip]
const DYN_TOPK_SCRIPT: &[(u64, u64, usize)] = &[
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (12, 0, 8),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 8),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (9, 0, 8),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (7, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (1, 0, 8),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (10, 0, 5),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (3, 0, 7),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (9, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (1, 0, 9),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (8, 0, 6),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (8, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (8, 0, 8),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 6),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (8, 0, 11),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (6, 0, 9),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (7, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (3, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 13),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (7, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (1, 0, 8),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (1, 0, 11),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 9),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (1, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (1, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (10, 0, 0),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 8),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (5, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (1, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (1, 0, 9),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (6, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (0, 0, 0),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (1, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (3, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (6, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (3, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (7, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (1, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (7, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (7, 0, 9),
    (0, 32, 0), (0, 9, 0), (0, 9, 1), (7, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (9, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (1, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (5, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (8, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (6, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (5, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (6, 0, 14),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (1, 0, 9),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (8, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 1),
    (0, 9, 0), (0, 9, 0), (0, 9, 1), (4, 0, 10),
    (0, 9, 0), (0, 9, 0), (0, 0, 0), (5, 0, 1),
];

const SEGSTAB_BUILD_WRITES: u64 = 22314;
const SEGSTAB_SPACE_BLOCKS: u64 = 11368;
const SEGSTAB_QUERIES: &[(u64, u64, usize)] = &[
    (27, 0, 174),
    (22, 2, 89),
    (15, 2, 23),
    (24, 2, 175),
    (20, 2, 98),
    (8, 1, 7),
    (24, 4, 178),
    (16, 4, 88),
    (17, 2, 18),
    (17, 9, 175),
    (20, 2, 86),
    (15, 2, 14),
    (21, 7, 179),
    (18, 3, 85),
    (13, 3, 12),
    (6, 19, 149),
    (14, 2, 37),
    (2, 2, 0),
    (20, 8, 183),
    (20, 4, 105),
    (8, 7, 12),
    (16, 8, 175),
    (17, 7, 88),
    (14, 2, 14),
];

const TOPK_BUILD_WRITES: u64 = 30084;
const TOPK_SPACE_BLOCKS: u64 = 15757;
const TOPK_QUERIES: &[(u64, u64, usize)] = &[
    (36, 55, 1),
    (14, 10, 10),
    (32, 7, 100),
    (26, 62, 1),
    (10, 15, 10),
    (32, 23, 100),
    (25, 65, 1),
    (17, 11, 10),
    (28, 9, 100),
    (32, 60, 1),
    (20, 13, 10),
    (20, 17, 100),
    (25, 64, 1),
    (7, 13, 10),
    (25, 11, 100),
    (16, 71, 1),
    (27, 32, 10),
    (25, 32, 100),
    (14, 61, 1),
    (14, 66, 10),
    (27, 10, 100),
    (22, 65, 1),
    (4, 27, 10),
    (23, 13, 100),
];
