//! The invariant rules. Each rule is a pure function from a
//! [`FileCtx`](crate::ctx::FileCtx) (plus whatever workspace-level
//! registry it needs) to diagnostics; the
//! engine in `lib.rs` applies the allowlist and aggregates.

pub mod atomics;
pub mod device;
pub mod phases;

use std::path::Path;

/// Whether `rel` is inside the emsim crate's sources.
pub(crate) fn in_emsim(rel: &Path) -> bool {
    rel.starts_with("crates/emsim")
}
