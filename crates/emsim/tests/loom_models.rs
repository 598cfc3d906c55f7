//! Concurrency models for the meter's shared state, run under `loom`.
//!
//! Build with the `loom` feature so every atomic and mutex inside `emsim`
//! goes through the instrumented `loom::sync` types (`src/sync.rs`):
//!
//! ```text
//! cargo test -p emsim --features loom --test loom_models --release
//! ```
//!
//! Each model spins up a handful of threads against a deliberately tiny
//! structure — a `CostModel` whose scoped children roll up concurrently,
//! or one meter charged directly from several threads — and asserts the
//! invariants the sequential tests pin, but now across every thread
//! schedule the checker explores. With the
//! offline loom shim that exploration is randomized preemption rather
//! than exhaustive DPOR (see `shims/README.md`); the models themselves
//! are written against the real loom API, so a registry build upgrades
//! the guarantee without touching this file.

#![cfg(feature = "loom")]

use emsim::{CostModel, EmConfig};
use loom::thread;

/// Scoped-meter rollup: concurrent trials charging isolated children must
/// leave the parent with exactly the sum of the children's I/Os once all
/// children drop — the property that makes parallel measurement exact.
#[test]
fn scoped_meter_rollup_is_exact() {
    loom::model(|| {
        const THREADS: u64 = 3;
        const TOUCHES: u64 = 4;
        let parent = CostModel::new(EmConfig::with_memory(64, 8));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let scoped = parent.scoped();
                thread::spawn(move || {
                    for i in 0..TOUCHES {
                        // Distinct blocks per thread: each child records
                        // TOUCHES cold misses, so the expected parent
                        // total is exact, not schedule-dependent.
                        scoped.touch(t, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = parent.report();
        assert_eq!(
            report.reads,
            THREADS * TOUCHES,
            "parent must absorb exactly the children's reads"
        );
        assert_eq!(
            report.pool_misses,
            THREADS * TOUCHES,
            "each child's cold misses roll up, none lost or doubled"
        );
        assert_eq!(report.writes, 0);
    });
}

/// Direct concurrent charging of one shared meter (no scoping): the
/// relaxed counters may interleave any way they like, but the totals must
/// still be exact — counters are `fetch_add`, never read-modify-write.
#[test]
fn shared_meter_totals_exact() {
    loom::model(|| {
        const THREADS: u64 = 2;
        const CHARGES: u64 = 5;
        // No buffer pool: every touch is one read, so the expected total
        // is exact regardless of interleaving.
        let meter = CostModel::new(EmConfig::new(4));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let meter = meter.clone();
                thread::spawn(move || {
                    for i in 0..CHARGES {
                        meter.touch(t, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(meter.report().reads, THREADS * CHARGES);
    });
}
