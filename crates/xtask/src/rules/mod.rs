//! The invariant rules. Each rule is a pure function from a
//! [`FileCtx`](crate::ctx::FileCtx) (plus whatever workspace-level
//! registry it needs) to diagnostics; the
//! engine in `lib.rs` applies the allowlist and aggregates.

pub mod atomics;
pub mod chokepoint;
pub mod device;
pub mod meter;
pub mod phases;
pub mod unsafe_hygiene;

use std::path::Path;

/// Whether `rel` is inside the emsim crate's sources.
pub(crate) fn in_emsim(rel: &Path) -> bool {
    rel.starts_with("crates/emsim")
}

/// Whether `rel` is exactly the select chokepoint module.
pub(crate) fn is_chokepoint_module(rel: &Path) -> bool {
    rel == Path::new("crates/core/src/traits.rs")
}

/// Whether `rel` is the one module allowed to contain `unsafe`.
pub(crate) fn is_kernels_module(rel: &Path) -> bool {
    rel == Path::new("crates/emsim/src/kernels.rs")
}
