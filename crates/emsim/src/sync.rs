//! The workspace's only atomics: the `Relaxed`-only [`Counter`] and
//! [`Flag`].
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

#![expect(
    clippy::disallowed_types,
    reason = "the Relaxed-only wrappers that every other atomic use is funnelled into"
)]

use std::sync::atomic::{self, Ordering::Relaxed};

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
