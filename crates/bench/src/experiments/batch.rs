//! E17: batch amortization — the batched query engine vs one-at-a-time
//! execution (DESIGN.md "Batched execution & buffer-pool concurrency").
//!
//! A fixed set of `m` top-k queries is answered two ways on every
//! structure: *sequentially* (buffer pool cleared before every query — the
//! cost model of a structure serving interleaved, unrelated traffic) and
//! *batched* (queries grouped into chunks of `batch` and served through
//! [`BatchTopK::query_topk_batch`], pool cleared per chunk). The grid
//! sweeps batch size × k × query distribution (clustered vs uniform), and
//! the table reports I/Os per query plus wall-clock for each cell.
//!
//! Two properties are *asserted* on every cell, not just plotted:
//!
//! * batch answers are bit-identical to the sequential answers — batching
//!   may only change the cost, never the output;
//! * for Theorem 1 and Theorem 2 on the clustered distribution, I/Os per
//!   query strictly decrease as the batch size grows (the shared
//!   upper-level blocks are fetched once per chunk instead of once per
//!   query).
//!
//! Everything here runs the infallible query paths on explicit meters, so
//! the I/O counts are bit-deterministic at any thread count and under any
//! default fault plan (the chaos soak reruns this experiment unchanged).

use std::time::Instant;

use emsim::{CostModel, EmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk_core::toy::{PrefixBuilder, PrefixMaxBuilder, PrefixQuery, ToyElem};
use topk_core::{
    BatchTopK, BinarySearchTopK, ExpectedTopK, ScanTopK, Theorem1Params, Theorem2Params,
    WorstCaseTopK,
};

use crate::table::{f, Table};
use crate::Scale;

/// Distinct-weight random items, same generator as the core test suites.
fn mk_items(n: usize, seed: u64) -> Vec<ToyElem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights: Vec<u64> = (1..=n as u64).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        weights.swap(i, j);
    }
    (0..n)
        .map(|i| ToyElem {
            x: i as u64,
            w: weights[i],
        })
        .collect()
}

/// The query workload: `m` prefix queries, either *clustered* (keys packed
/// around a few centers — the locality a batch engine exploits) or
/// *uniform* (keys spread over the whole domain).
fn mk_queries(n: usize, m: usize, clustered: bool, seed: u64) -> Vec<PrefixQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|i| {
            let x_max = if clustered {
                // Four tight clusters in the upper half of the domain
                // (high x_max → dense matches → shallow scans that overlap
                // heavily between neighbouring queries).
                let center = n as u64 * (5 + 2 * (i as u64 % 4)) / 16 + n as u64 / 2;
                let jitter = rng.gen_range(0..(n as u64 / 64).max(1));
                (center + jitter).min(n as u64 - 1)
            } else {
                rng.gen_range(0..n as u64)
            };
            PrefixQuery { x_max }
        })
        .collect()
}

/// One query at a time, cold pool before each — the unbatched baseline.
fn run_sequential<I: BatchTopK<ToyElem, PrefixQuery>>(
    topk: &I,
    model: &CostModel,
    qs: &[PrefixQuery],
    k: usize,
) -> (Vec<Vec<ToyElem>>, u64, f64) {
    let before = model.report();
    let start = Instant::now();
    let mut answers = Vec::with_capacity(qs.len());
    for q in qs {
        model.clear_pool();
        let mut out = Vec::new();
        topk.query_topk(q, k, &mut out);
        answers.push(out);
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (answers, model.report().since(&before).total(), ms)
}

/// Chunks of `batch` through the batch engine, cold pool before each chunk.
fn run_batched<I: BatchTopK<ToyElem, PrefixQuery>>(
    topk: &I,
    model: &CostModel,
    qs: &[PrefixQuery],
    k: usize,
    batch: usize,
) -> (Vec<Vec<ToyElem>>, u64, f64) {
    let before = model.report();
    let start = Instant::now();
    let mut answers = Vec::with_capacity(qs.len());
    for chunk in qs.chunks(batch) {
        model.clear_pool();
        answers.extend(topk.query_topk_batch(chunk, k));
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (answers, model.report().since(&before).total(), ms)
}

fn assert_bit_identical(
    name: &str,
    dist: &str,
    k: usize,
    batch: usize,
    seq: &[Vec<ToyElem>],
    bat: &[Vec<ToyElem>],
) {
    assert_eq!(seq.len(), bat.len());
    for (i, (s, b)) in seq.iter().zip(bat).enumerate() {
        assert_eq!(
            s.iter().map(|e| (e.x, e.w)).collect::<Vec<_>>(),
            b.iter().map(|e| (e.x, e.w)).collect::<Vec<_>>(),
            "{name}/{dist}: batch={batch} k={k} changed the answer of query #{i}"
        );
    }
}

/// The sweep body, parameterized so the registry entry (`exp_batch`) and
/// the `exp_batch` binary (`--batches` / `--ks`) share it.
pub fn run_batch(scale: Scale, batches: &[usize], ks: &[usize]) -> Table {
    let mut t = Table::new(
        "E17 — batch amortization: I/Os per query vs batch size \
         (batch answers asserted bit-identical to sequential)",
        &[
            "structure",
            "dist",
            "k",
            "batch",
            "IOs/query",
            "vs batch=1",
            "seq ms",
            "batch ms",
        ],
    );
    let n = scale.n(4_096);
    let m = 64; // queries per workload
    let b = 64usize;
    // M/B scales with the data (4 frames per data block, i.e. M = 4n
    // words): big enough that a chunk's shared upper-level blocks stay
    // resident between neighbouring queries, small enough that the
    // sequential baseline (pool cleared per query) still pays for them.
    // With a constant frame count the pool thrashes at larger scales and
    // batching amortizes nothing.
    let frames = (4 * n / b).max(32);
    let items = mk_items(n, 0xE17);

    // Explicit per-structure meters (the E16 idiom): builds charge here,
    // measurements below are differential, and nothing consults a fault
    // plan, so counts are identical under the chaos soak.
    let m1 = CostModel::new(EmConfig::with_memory(b, frames));
    let t1 = WorstCaseTopK::build(
        &m1,
        &PrefixBuilder,
        items.clone(),
        Theorem1Params::new(1.0).with_seed(0xE171),
    );
    let m2 = CostModel::new(EmConfig::with_memory(b, frames));
    let t2 = ExpectedTopK::build(
        &m2,
        PrefixBuilder,
        PrefixMaxBuilder,
        items.clone(),
        Theorem2Params::default(),
    );
    let mb = CostModel::new(EmConfig::with_memory(b, frames));
    let bs = BinarySearchTopK::build(&mb, &PrefixBuilder, items.clone());
    let ms = CostModel::new(EmConfig::with_memory(b, frames));
    let sc = ScanTopK::build(&ms, items.clone(), |q: &PrefixQuery, e: &ToyElem| {
        e.x <= q.x_max
    });

    sweep(&mut t, "theorem1", &t1, &m1, n, m, batches, ks, true);
    sweep(&mut t, "theorem2", &t2, &m2, n, m, batches, ks, true);
    sweep(&mut t, "binsearch", &bs, &mb, n, m, batches, ks, false);
    sweep(&mut t, "scan", &sc, &ms, n, m, batches, ks, false);
    t
}

/// The full (distribution × k × batch) grid for one structure, with the
/// bit-identity assertion on every cell and — for the reductions
/// (`assert_monotone`) — the strict amortization assertion on the
/// clustered distribution.
#[expect(
    clippy::too_many_arguments,
    reason = "one grid sweep shared by every structure of the table"
)]
fn sweep<I: BatchTopK<ToyElem, PrefixQuery>>(
    t: &mut Table,
    name: &str,
    topk: &I,
    model: &CostModel,
    n: usize,
    m: usize,
    batches: &[usize],
    ks: &[usize],
    assert_monotone: bool,
) {
    for (dist, clustered) in [("clustered", true), ("uniform", false)] {
        let qs = mk_queries(n, m, clustered, 0xE17_5EED);
        for &k in ks {
            let (seq_answers, _seq_ios, seq_ms) = run_sequential(topk, model, &qs, k);
            let mut per_query_ios = Vec::with_capacity(batches.len());
            for &batch in batches {
                let (answers, ios, batch_ms) = run_batched(topk, model, &qs, k, batch);
                assert_bit_identical(name, dist, k, batch, &seq_answers, &answers);
                let ios_per_query = ios as f64 / m as f64;
                per_query_ios.push(ios_per_query);
                t.row_strings(vec![
                    name.to_string(),
                    dist.to_string(),
                    k.to_string(),
                    batch.to_string(),
                    f(ios_per_query),
                    f(ios_per_query / per_query_ios[0]),
                    f(seq_ms),
                    f(batch_ms),
                ]);
            }
            // The headline claim of the experiment, asserted: on clustered
            // workloads the reductions amortize strictly with batch size.
            if clustered && assert_monotone {
                for w in per_query_ios.windows(2) {
                    assert!(
                        w[1] < w[0],
                        "{name}/{dist} k={k}: I/Os per query must strictly decrease \
                         with batch size, got {per_query_ios:?} over batches {batches:?}"
                    );
                }
            }
        }
    }
}

/// **E17.** Registry entry point with the default grid.
pub fn exp_batch(scale: Scale) -> Table {
    run_batch(scale, &[1, 4, 16, 64], &[1, 8, 64])
}
