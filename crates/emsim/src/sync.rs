//! Switchable synchronization imports: `std::sync` normally, `loom::sync`
//! under `--features loom`, and the workspace's only atomics.
//!
//! The meter, the devices and the trace sinks import their primitives
//! from here instead of `std::sync` directly, so building with the `loom`
//! feature routes every atomic and mutex operation through the model
//! checker's instrumented types — the `loom_models.rs` integration test
//! then drives `ScopedMeter` rollup and a shared meter's totals across
//! perturbed thread schedules. Without the feature these are plain
//! re-exports and the compiled code is byte-identical to importing
//! `std::sync`, so golden I/O baselines are untouched.
//!
//! Every atomic in the workspace is a statistics [`Counter`] or an
//! activation [`Flag`] whose readers tolerate staleness; cross-thread
//! hand-off goes through mutexes, channels and `thread::join`. So both
//! types are `Relaxed` inside and take no `Ordering`: a stronger ordering
//! cannot be written outside this module. The root `clippy.toml` bans
//! `std::sync::atomic`'s types everywhere else (`disallowed-types`).
//!
//! ```compile_fail
//! use emsim::sync::Counter;
//! use std::sync::atomic::Ordering;
//!
//! let c = Counter::new(0);
//! c.add(1, Ordering::SeqCst);
//! ```
//!
//! The default-substrate slot (`substrate.rs`) deliberately stays a `std`
//! mutex even under loom: it is filled from the environment on first use
//! and read once per meter construction, so there is no interleaving in
//! it to explore, and a loom mutex in a `static` would outlive the model
//! that created it.

#![cfg_attr(
    not(feature = "loom"),
    expect(
        clippy::disallowed_types,
        reason = "the Relaxed-only wrappers that every other atomic use is funnelled into"
    )
)]

#[cfg(feature = "loom")]
pub(crate) use loom::sync::{atomic, Arc, Mutex, MutexGuard};

#[cfg(not(feature = "loom"))]
pub(crate) use std::sync::{atomic, Arc, Mutex, MutexGuard};

use atomic::Ordering::Relaxed;

/// A `u64` counter shared between threads, every access `Relaxed`: a
/// statistics total, a work-stealing index or an id fountain.
///
/// ```
/// use emsim::sync::Counter;
///
/// let c = Counter::new(0);
/// assert_eq!(c.add(2), 0);
/// assert_eq!(c.sub(1), 2);
/// assert_eq!(c.get(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Counter(atomic::AtomicU64);

impl Counter {
    /// A counter starting at `v`.
    pub const fn new(v: u64) -> Self {
        Counter(atomic::AtomicU64::new(v))
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Add `n` and return the value before the addition.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Relaxed)
    }

    /// Subtract `n` and return the value before the subtraction.
    #[inline]
    pub fn sub(&self, n: u64) -> u64 {
        self.0.fetch_sub(n, Relaxed)
    }
}

/// A boolean shared between threads, every access `Relaxed`: a fast-path
/// switch whose readers fall back to a mutex-guarded slot for the state
/// it guards.
///
/// ```
/// use emsim::sync::Flag;
///
/// let f = Flag::new(false);
/// f.set(true);
/// assert!(f.get());
/// ```
#[derive(Debug, Default)]
pub struct Flag(atomic::AtomicBool);

impl Flag {
    /// A flag starting at `v`.
    pub const fn new(v: bool) -> Self {
        Flag(atomic::AtomicBool::new(v))
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> bool {
        self.0.load(Relaxed)
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: bool) {
        self.0.store(v, Relaxed);
    }
}
