//! Offline stand-in for the [`loom`](https://docs.rs/loom) model checker.
//!
//! The build environment has no crates.io access (see shims/README.md),
//! so this crate provides the loom API subset `emsim`'s concurrency
//! models use — `loom::model`, `loom::thread`, and `loom::sync::{Mutex,
//! atomic}` — with an honest downgrade of the checking strategy: real
//! loom exhaustively enumerates interleavings with DPOR bounded by
//! `LOOM_MAX_BRANCHES`; this shim runs the model body many times
//! (`LOOM_MAX_ITER`, default 64) and injects randomized-but-seeded
//! preemption points (`thread::yield_now`) before every atomic and mutex
//! operation, so each iteration exercises a different thread schedule.
//!
//! That finds lost-update and ordering bugs in practice (each shared-state
//! touch is a context-switch candidate, exactly where loom would branch)
//! but proves nothing: absence of a failure is evidence, not a
//! certificate. The emsim models are written against the real loom API so
//! that if the environment ever gains registry access, swapping this shim
//! for the real crate upgrades the guarantee without touching the models.
//!
//! Supported surface:
//! * [`model`] — run a closure under schedule perturbation, many times.
//! * [`thread`] — re-exports `std::thread` spawn/join/yield.
//! * [`sync::Mutex`] — std mutex (poisoning included) with a preemption
//!   point before each `lock`.
//! * [`sync::atomic`] — `AtomicU64`/`AtomicU32`/`AtomicBool`/`AtomicUsize`
//!   wrappers with a preemption point before each operation. `const`
//!   constructors are kept (real loom lacks them; emsim only constructs
//!   atomics at runtime, so the difference is invisible there).

#![expect(
    clippy::disallowed_types,
    reason = "the stand-in's atomics wrap std's; the workspace uses them through emsim::sync"
)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64 as StdAtomicU64, Ordering::Relaxed};

/// Nesting depth of active [`model`] calls (global: preemption injection
/// is on whenever any model is running).
static MODEL_DEPTH: AtomicU32 = AtomicU32::new(0);

/// Per-iteration base seed, mixed into each thread's schedule stream.
static ITER_SEED: StdAtomicU64 = StdAtomicU64::new(0x9E37_79B9_7F4A_7C15);

thread_local! {
    static SCHED_STATE: Cell<u64> = const { Cell::new(0) };
}

/// A preemption point: under an active model, maybe yield the OS thread so
/// another runnable thread gets the next shot at the shared state.
pub(crate) fn preempt() {
    if MODEL_DEPTH.load(Relaxed) == 0 {
        return;
    }
    let mixed = SCHED_STATE.with(|s| {
        let mut x = s.get();
        if x == 0 {
            // First preemption on this thread this iteration: derive a
            // stream from the iteration seed and the thread identity.
            x = ITER_SEED.load(Relaxed) ^ thread_seed();
        }
        // xorshift64* step.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    });
    // Yield on ~1 in 4 preemption points; occasionally (1 in 64) yield
    // twice, which on a loaded scheduler behaves like a longer preemption.
    if mixed.trailing_zeros() >= 2 {
        std::thread::yield_now();
    }
    if mixed & 0x3F == 1 {
        std::thread::yield_now();
        std::thread::yield_now();
    }
}

fn thread_seed() -> u64 {
    // ThreadId has no stable integer accessor; hash its Debug formatting.
    use std::hash::{Hash, Hasher};
    let mut h = std::hash::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish() | 1
}

/// Run `f` under the model checker: `LOOM_MAX_ITER` iterations (default
/// 64), each with a distinct schedule-perturbation seed. Panics (failed
/// assertions inside the model) propagate immediately, with the failing
/// iteration number attached via a message on stderr.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let iters: u64 = std::env::var("LOOM_MAX_ITER")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    MODEL_DEPTH.fetch_add(1, Relaxed);
    struct Depth;
    impl Drop for Depth {
        fn drop(&mut self) {
            MODEL_DEPTH.fetch_sub(1, Relaxed);
        }
    }
    let _depth = Depth;
    for i in 0..iters {
        ITER_SEED.store(
            (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 32),
            Relaxed,
        );
        SCHED_STATE.with(|s| s.set(0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&f));
        if let Err(payload) = r {
            eprintln!("loom(shim): model failed on iteration {i} of {iters}");
            std::panic::resume_unwind(payload);
        }
    }
}

pub mod thread {
    //! `std::thread` re-exports; `spawn`ed threads participate in the
    //! schedule perturbation automatically (their first preemption point
    //! seeds a fresh stream).
    pub use std::thread::{current, spawn, yield_now, JoinHandle};
}

pub mod sync {
    //! Synchronization primitives with preemption points.

    pub use std::sync::{Arc, LockResult, MutexGuard, PoisonError};

    /// `std::sync::Mutex` with a preemption point before each `lock`.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Create a mutex (const, unlike real loom — see crate docs).
        pub const fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }

        /// Lock, after a preemption point. Poisoning semantics are std's.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            crate::preempt();
            self.0.lock()
        }

        /// Consume the mutex, returning the inner value.
        pub fn into_inner(self) -> LockResult<T> {
            self.0.into_inner()
        }

        /// Mutable access without locking (exclusive borrow proves
        /// exclusivity).
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.0.get_mut()
        }
    }

    pub mod atomic {
        //! Atomic wrappers with preemption points before every operation.

        pub use std::sync::atomic::Ordering;

        macro_rules! atomic_wrapper {
            ($(#[$meta:meta])* $name:ident, $std:ty, $val:ty) => {
                $(#[$meta])*
                #[derive(Debug, Default)]
                pub struct $name($std);

                impl $name {
                    /// Create the atomic (const, unlike real loom).
                    pub const fn new(v: $val) -> Self {
                        $name(<$std>::new(v))
                    }

                    /// Atomic load, after a preemption point.
                    pub fn load(&self, order: Ordering) -> $val {
                        crate::preempt();
                        self.0.load(order)
                    }

                    /// Atomic store, after a preemption point.
                    pub fn store(&self, v: $val, order: Ordering) {
                        crate::preempt();
                        self.0.store(v, order);
                    }

                    /// Atomic swap, after a preemption point.
                    pub fn swap(&self, v: $val, order: Ordering) -> $val {
                        crate::preempt();
                        self.0.swap(v, order)
                    }

                    /// Atomic compare-exchange, after a preemption point.
                    pub fn compare_exchange(
                        &self,
                        current: $val,
                        new: $val,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$val, $val> {
                        crate::preempt();
                        self.0.compare_exchange(current, new, success, failure)
                    }
                }
            };
        }

        atomic_wrapper!(
            /// `AtomicBool` with preemption points.
            AtomicBool,
            std::sync::atomic::AtomicBool,
            bool
        );
        atomic_wrapper!(
            /// `AtomicU32` with preemption points.
            AtomicU32,
            std::sync::atomic::AtomicU32,
            u32
        );
        atomic_wrapper!(
            /// `AtomicUsize` with preemption points.
            AtomicUsize,
            std::sync::atomic::AtomicUsize,
            usize
        );
        atomic_wrapper!(
            /// `AtomicU64` with preemption points.
            AtomicU64,
            std::sync::atomic::AtomicU64,
            u64
        );

        macro_rules! fetch_ops {
            ($name:ident, $val:ty) => {
                impl $name {
                    /// Atomic add, after a preemption point.
                    pub fn fetch_add(&self, v: $val, order: Ordering) -> $val {
                        crate::preempt();
                        self.0.fetch_add(v, order)
                    }

                    /// Atomic subtract, after a preemption point.
                    pub fn fetch_sub(&self, v: $val, order: Ordering) -> $val {
                        crate::preempt();
                        self.0.fetch_sub(v, order)
                    }
                }
            };
        }

        fetch_ops!(AtomicU32, u32);
        fetch_ops!(AtomicUsize, usize);
        fetch_ops!(AtomicU64, u64);
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use super::sync::{Arc, Mutex};

    #[test]
    fn model_runs_and_finds_consistent_counts() {
        model_iters_env_guard();
        super::model(|| {
            let n = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = n.clone();
                    super::thread::spawn(move || {
                        for _ in 0..100 {
                            n.fetch_add(1, Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Relaxed), 200);
        });
    }

    #[test]
    fn mutex_mirrors_std_poisoning() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "poisoned lock surfaces like std");
    }

    fn model_iters_env_guard() {
        // Keep the self-test fast regardless of ambient LOOM_MAX_ITER.
        if std::env::var("LOOM_MAX_ITER").is_err() {
            std::env::set_var("LOOM_MAX_ITER", "8");
        }
    }
}
