//! The concurrency contract of the metering substrate and the experiment
//! harness: a shared `CostModel` counts exactly under thread hammering,
//! scoped child meters roll up losslessly, and a parallel experiment run
//! charges the same I/Os as a sequential one, which in turn charges the
//! committed golden counts.

mod common;

use bench::parallel::{all_experiments, run_experiments};
use bench::Scale;
use common::{golden, sorted_ios};
use emsim::sync::Counter;
use emsim::{FaultPlan, Substrate};
use topk::core::{CostModel, EmConfig};

#[test]
fn cost_model_is_send_sync_and_shareable() {
    fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<CostModel>();
}

/// N threads hammer one shared meter; the final counters must equal the
/// sum of what each thread reports having charged.
#[test]
fn concurrent_charges_are_exact() {
    let model = CostModel::new(EmConfig::with_memory(64, 8));
    let threads = 8;
    let per_thread_ops = 10_000u64;
    let expected_reads = Counter::new(0);
    let expected_writes = Counter::new(0);

    std::thread::scope(|s| {
        for t in 0..threads {
            let model = model.clone();
            let expected_reads = &expected_reads;
            let expected_writes = &expected_writes;
            s.spawn(move || {
                let mut reads = 0u64;
                let mut writes = 0u64;
                for i in 0..per_thread_ops {
                    match i % 4 {
                        0 => {
                            model.charge_reads(1 + t);
                            reads += 1 + t;
                        }
                        1 => {
                            model.charge_writes(2);
                            writes += 2;
                        }
                        2 => {
                            // Distinct blocks per thread and op: every touch
                            // misses the pool and costs one read.
                            model.touch(t, per_thread_ops + i);
                            reads += 1;
                        }
                        _ => {
                            model.charge_scan::<u64>(64);
                            reads += 1;
                        }
                    }
                }
                expected_reads.add(reads);
                expected_writes.add(writes);
            });
        }
    });

    let r = model.report();
    assert_eq!(r.reads, expected_reads.get());
    assert_eq!(r.writes, expected_writes.get());
}

/// Concurrent scoped trials: every child's charges (including pool
/// statistics) land in the parent exactly once.
#[test]
fn scoped_meters_roll_up_from_threads() {
    let parent = CostModel::new(EmConfig::with_memory(64, 4));
    let trials = 16u64;
    std::thread::scope(|s| {
        for t in 0..trials {
            let parent = parent.clone();
            s.spawn(move || {
                let trial = parent.scoped();
                trial.touch(0, t); // miss in the fresh child pool
                trial.touch(0, t); // hit
                trial.charge_writes(3);
            });
        }
    });
    let r = parent.report();
    assert_eq!(r.reads, trials);
    assert_eq!(r.writes, 3 * trials);
    assert_eq!(r.pool_hits, trials);
    assert_eq!(r.pool_misses, trials);
}

/// A parallel experiment run must charge exactly the same I/Os per
/// experiment as a sequential run: every experiment owns its RNG seeds and
/// meters, so thread count cannot leak into the accounting. The sequential
/// run is the registry's fault-free baseline on the default device and is
/// held to `crates/bench/golden_smoke_ios.json` (`fault_soak.rs` holds its
/// `FileDevice` and chaos runs to the same file); each of its tables must
/// have rows. Every experiment of the registry is compared on
/// `(reads, writes)`; the rendered tables are compared for four of them
/// only, because the others carry wall-clock cells.
#[test]
fn parallel_run_matches_sequential_io_counts() {
    const SAME_TABLE: [&str; 4] = ["lemma1", "interval", "dominance", "updates"];
    let all = all_experiments();
    let _fault_free = Substrate {
        faults: FaultPlan::none(),
        ..Substrate::current()
    }
    .install();
    let seq = run_experiments(all, Scale::Smoke, 1);
    assert_eq!(seq.len(), all.len());
    for o in &seq {
        assert!(
            o.error.is_none(),
            "{} panicked fault-free: {:?}",
            o.name,
            o.error
        );
        assert!(!o.table.is_empty(), "{} produced an empty table", o.name);
    }
    assert_eq!(
        sorted_ios(&seq),
        golden(),
        "fault-free (name, reads, writes) drifted from golden_smoke_ios.json"
    );

    let par = run_experiments(all, Scale::Smoke, 4);
    assert_eq!(par.len(), all.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.name, p.name, "outcome order must be registry order");
        assert_eq!(
            (s.ios.reads, s.ios.writes),
            (p.ios.reads, p.ios.writes),
            "experiment {} charged different I/Os sequentially vs in parallel",
            s.name
        );
        if SAME_TABLE.contains(&s.name) {
            assert_eq!(
                s.table.render(),
                p.table.render(),
                "experiment {} rendered a different table sequentially vs in parallel",
                s.name
            );
        }
    }
    let compared = seq.iter().filter(|s| SAME_TABLE.contains(&s.name));
    assert_eq!(compared.count(), SAME_TABLE.len());
}
