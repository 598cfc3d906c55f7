//! Switchable synchronization imports: `std::sync` normally, `loom::sync`
//! under `--features loom`.
//!
//! The meter, the trace sink, and the fault registry all import their
//! primitives from here instead of `std::sync` directly, so building with
//! the `loom` feature routes every atomic and mutex operation through the
//! model checker's instrumented types — the `loom_models.rs` integration
//! test then drives `ScopedMeter` rollup and a shared meter's totals
//! across perturbed thread schedules. Without the
//! feature these are plain re-exports and the compiled code is
//! byte-identical to importing `std::sync`, so golden I/O baselines are
//! untouched.
//!
//! `OnceLock` deliberately stays `std` even under loom: it guards
//! initialize-once globals (env-derived fault plans, the chosen kernel
//! backend), where the only concurrency is "first caller wins" — there is
//! no interleaving to explore, and loom provides no equivalent.

#[cfg(feature = "loom")]
pub(crate) use loom::sync::{atomic, Arc, Mutex, MutexGuard};

#[cfg(not(feature = "loom"))]
pub(crate) use std::sync::{atomic, Arc, Mutex, MutexGuard};
