//! E23: crash-recovery torture + simulator validation for the persistent
//! block device (DESIGN.md "Persistence & crash safety").
//!
//! Two halves, both *asserting* rather than just reporting:
//!
//! * **Crash grid** — a two-phase indexed dataset (`part0` synced, then
//!   `part1` synced) is written to a fresh [`FileDevice`] with
//!   `CrashPoint(c)` armed, for *every* physical write index `c` plus the
//!   no-crash control. After each simulated power loss the store is
//!   reopened fault-free and the recovered state must be exactly one of
//!   the committed prefixes — nothing, `part0`, or everything — with zero
//!   corrupt survivors and the uncommitted tail truncated. A top-k index
//!   is then rebuilt over the recovered items and every query answer is
//!   checked against brute force: recovery hands back a store you can
//!   *query*, not just reopen.
//! * **Simulator validation** — a [`CountingDevice`] wraps the file store
//!   and counts actual `pread`/`pwrite` calls while a metered probe
//!   workload runs. The contract: every charged (miss) read is exactly one
//!   physical `pread`, pool hits are absorbed (no physical traffic), so
//!   `preads == metered reads` and
//!   `block accesses − preads == pool hits` — the pool-absorption bound
//!   the acceptance criteria name.

use std::path::PathBuf;
use std::sync::Arc;

use emsim::{
    BlockArray, BlockDevice, CostModel, CountingDevice, EmConfig, EmError, FaultPlan, FaultScope,
    FileDevice, Media, PoolPolicy, Retrier,
};
use topk_core::toy::{PrefixBuilder, PrefixQuery, ToyElem};
use topk_core::{brute, BinarySearchTopK, TopKAnswer, TopKIndex};

use crate::table::Table;
use crate::Scale;

/// Block size (words) of the torture machine: small enough that even the
/// smoke dataset spans several blocks per part.
const B: usize = 16;

/// A fresh per-process scratch directory for one trial; any leftover from
/// a previous run of the same process is removed first.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emsim-e23-{}-{name}", std::process::id()));
    #[expect(
        clippy::disallowed_methods,
        reason = "experiment scratch-dir lifecycle, not block storage: \
                  the device under test lives in emsim::device"
    )]
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Remove a trial directory (best-effort; tmp reaping handles stragglers).
fn cleanup(dir: &PathBuf) {
    #[expect(
        clippy::disallowed_methods,
        reason = "experiment scratch-dir lifecycle, not block storage: \
                  the device under test lives in emsim::device"
    )]
    let _ = std::fs::remove_dir_all(dir);
}

/// Deterministic distinct-weight items covering `[0, n)` positions.
fn mk_items(n: usize) -> Vec<ToyElem> {
    // A fixed odd multiplier permutes weights; distinctness is what the
    // top-k contract needs, randomness is not.
    (0..n as u64)
        .map(|i| ToyElem {
            x: i,
            w: (i * 0x9E37) % (n as u64 * 0xA001) + 1,
        })
        .collect()
}

/// What one crash trial recovered, classified against the sync points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Recovered {
    Nothing,
    Part0,
    Everything,
}

/// One crash-grid trial: arm `CrashPoint(c)`, attempt the two-phase write,
/// power-cycle, recover, and verify. Returns what survived plus the bytes
/// the recovery pass truncated.
fn crash_trial(c: u64, part0: &[ToyElem], part1: &[ToyElem]) -> Result<(Recovered, u64), EmError> {
    let dir = fresh_dir(&format!("crash-{c}"));
    let plan = FaultPlan::new(0xE23)
        .with_crash_point(c)
        .with_scope(FaultScope::File);
    {
        let dev: Arc<FileDevice> = Arc::new(FileDevice::open_with(&dir, plan)?);
        let m = CostModel::with_device(
            EmConfig::new(B),
            FaultPlan::none(),
            PoolPolicy::Lru,
            dev.clone(),
        );
        // The write attempt: each part becomes durable only at its sync.
        // A crash anywhere inside aborts the rest — exactly like a process
        // dying mid-build.
        let _attempt = (|| -> Result<(), EmError> {
            BlockArray::new_named(&m, "part0", part0.to_vec())?;
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: commit part0, the first recovery point \
                          the crash grid must be able to come back to"
            )]
            dev.sync()?;
            BlockArray::new_named(&m, "part1", part1.to_vec())?;
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: commit part1, the fully-built recovery point"
            )]
            dev.sync()?;
            Ok(())
        })();
    } // power loss: the device handle drops with staged state unsynced
    let first_recovery = {
        let reopened = FileDevice::open(&dir)?;
        let rec = reopened.recovery();
        assert_eq!(
            rec.corrupt_blocks, 0,
            "crash point {c}: a committed block failed its CRC after recovery"
        );
        rec
    };
    {
        // Recovering twice must be idempotent: before anything new is
        // written, a second open finds nothing left to truncate.
        let again = FileDevice::open(&dir)?;
        let rec = again.recovery();
        assert_eq!(
            rec.corrupt_blocks, 0,
            "crash point {c}: committed block failed CRC"
        );
        assert_eq!(
            rec.truncated_bytes, 0,
            "crash point {c}: recovery was not idempotent"
        );
    }
    let dev: Arc<dyn BlockDevice> = Arc::new(FileDevice::open(&dir)?);
    let m = CostModel::with_device(EmConfig::new(B), FaultPlan::none(), PoolPolicy::Lru, dev);
    let p0: BlockArray<ToyElem> = BlockArray::open_named(&m, "part0")?;
    let p1: BlockArray<ToyElem> = BlockArray::open_named(&m, "part1")?;
    // Oracle access: the recovered contents feed the brute-force checker,
    // not a metered query path.
    let (r0, r1) = (p0.unmetered_for_oracle(), p1.unmetered_for_oracle());
    let recovered_items: Vec<ToyElem> = r0.iter().chain(r1).copied().collect();

    // Old-or-new: the recovered state must be exactly a committed prefix.
    let class = match (r0, r1) {
        ([], []) => Recovered::Nothing,
        (a, []) if a == part0 => Recovered::Part0,
        (a, b) if a == part0 && b == part1 => Recovered::Everything,
        _ => panic!(
            "crash point {c}: recovered a state that was never committed \
             ({} + {} items)",
            p0.len(),
            p1.len()
        ),
    };

    // Recovery must hand back a *queryable* store: rebuild an index over
    // the recovered items and check answers against brute force.
    let retrier = Retrier::default();
    if !recovered_items.is_empty() {
        // Explicit none-plan: the verification queries must stay exact even
        // when the chaos soak arms a default logical fault plan.
        let qm = CostModel::with_faults(EmConfig::new(B), FaultPlan::none());
        let idx = BinarySearchTopK::build(&qm, &PrefixBuilder, recovered_items.clone());
        let n = recovered_items.len() as u64;
        for qx in [0, n / 3, n - 1, 2 * n] {
            for k in [1usize, 4, recovered_items.len() / 2 + 1] {
                let q = PrefixQuery { x_max: qx };
                let got = match idx.try_query_topk(&q, k, &retrier) {
                    Ok(TopKAnswer::Exact(got)) => got,
                    other => panic!("fault-free query on recovered store degraded: {other:?}"),
                };
                let want = brute::top_k(&recovered_items, |e| e.x <= qx, k);
                assert_eq!(
                    got.iter().map(|e| e.w).collect::<Vec<_>>(),
                    want.iter().map(|e| e.w).collect::<Vec<_>>(),
                    "crash point {c}: recovered answers diverged (qx={qx} k={k})"
                );
            }
        }
    }
    cleanup(&dir);
    Ok((class, first_recovery.truncated_bytes))
}

/// **E23.** Crash-recovery grid + simulator-validation table.
pub fn exp_persist(scale: Scale) -> Table {
    let mut t = Table::new(
        "E23 — persistence: crash grid over every write index + metered-vs-physical validation",
        &["section", "cell", "detail", "result"],
    );

    // ---- Part A: the crash grid -------------------------------------
    let part_items = match scale {
        Scale::Smoke => 24,
        Scale::Paper => 96,
    };
    let items = mk_items(part_items * 2);
    let (part0, part1) = items.split_at(part_items);
    let per_block = EmConfig::new(B).items_per_block::<ToyElem>();
    let blocks_per_part = part_items.div_ceil(per_block) as u64;
    // Each named part issues one mirror write and one payload write per
    // block, in that order; predicted phase boundaries of the grid:
    let writes_per_part = 2 * blocks_per_part;
    let total_writes = 2 * writes_per_part;

    let mut tally = [
        (Recovered::Nothing, 0u64),
        (Recovered::Part0, 0),
        (Recovered::Everything, 0),
    ];
    for c in 0..=total_writes {
        let (class, _) = crash_trial(c, part0, part1).expect("crash trial must recover");
        let expected = if c < writes_per_part {
            Recovered::Nothing
        } else if c < total_writes {
            Recovered::Part0
        } else {
            Recovered::Everything
        };
        assert_eq!(
            class, expected,
            "crash point {c}: wrong committed prefix recovered \
             (boundaries {writes_per_part}/{total_writes})"
        );
        for slot in &mut tally {
            if slot.0 == class {
                slot.1 += 1;
            }
        }
    }
    for (class, count) in tally {
        t.row_strings(vec![
            "crash-grid".into(),
            format!("{class:?}"),
            format!("of {} crash points", total_writes + 1),
            format!("{count} recovered+verified"),
        ]);
    }

    // ---- Part B: simulator validation -------------------------------
    let n = part_items * 16; // enough blocks that small pools actually evict
    let data: Vec<u64> = (0..n as u64).collect();
    let probes = match scale {
        Scale::Smoke => 400usize,
        Scale::Paper => 4_000,
    };
    for frames in [0usize, 2, 8, 64] {
        let dir = fresh_dir(&format!("validate-{frames}"));
        let file: Arc<dyn BlockDevice> =
            Arc::new(FileDevice::open(&dir).expect("open validation store"));
        let counting = Arc::new(CountingDevice::new(file));
        let m = CostModel::with_device(
            EmConfig::with_memory(B, frames),
            FaultPlan::none(),
            PoolPolicy::Lru,
            counting.clone(),
        );
        let arr = BlockArray::new(&m, data.clone());
        let built = counting.counts();
        assert_eq!(
            built.pwrites,
            arr.blocks(),
            "one physical mirror write per laid-out block"
        );
        m.reset();
        let retrier = Retrier::default();
        let mut x = 0x2545_F491u64;
        for _ in 0..probes {
            // xorshift: deterministic probe positions, scattered blocks.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % n as u64) as usize;
            let got = arr
                .try_get(i, Media::Retried(&retrier))
                .expect("fault-free probe");
            assert_eq!(*got, i as u64);
        }
        let rep = m.report();
        let counts = counting.counts();
        let preads = counts.preads - built.preads;
        // The validation contract: a charged miss is exactly one pread;
        // a pool hit is physically free. `accesses − preads == hits`.
        assert_eq!(
            preads, rep.reads,
            "metered reads must equal physical preads"
        );
        assert_eq!(
            rep.pool_hits + rep.reads,
            probes as u64,
            "every probe is one block access"
        );
        t.row_strings(vec![
            "validate".into(),
            format!("frames={frames}"),
            format!(
                "probes={probes} metered={} hits={}",
                rep.reads, rep.pool_hits
            ),
            format!("preads={preads} (1:1, absorption={})", rep.pool_hits),
        ]);
        cleanup(&dir);
    }
    t
}
