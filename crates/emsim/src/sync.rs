//! Switchable synchronization imports: `std::sync` normally, `loom::sync`
//! under `--features loom`.
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
//! The default-substrate slot (`substrate.rs`) deliberately stays a `std`
//! mutex even under loom: it is filled from the environment on first use
//! and read once per meter construction, so there is no interleaving in
//! it to explore, and a loom mutex in a `static` would outlive the model
//! that created it.

#[cfg(feature = "loom")]
pub(crate) use loom::sync::{atomic, Arc, Mutex, MutexGuard};

#[cfg(not(feature = "loom"))]
pub(crate) use std::sync::{atomic, Arc, Mutex, MutexGuard};
