//! INV07 `device-hygiene` — all persistent-store I/O goes through
//! `emsim::device`, and every durability point is documented.
//!
//! Two mechanical checks add up to the invariant:
//!
//! 1. Outside `crates/emsim/src/device.rs` (and outside the analyzer
//!    itself, whose job is reading source files), no direct `std::fs`
//!    usage in production code. A stray `File::create` next to the block
//!    device would write bytes the recovery pass knows nothing about —
//!    exactly the torn state the catalog protocol exists to rule out.
//!    Test code is exempt (scratch-dir cleanup is not block storage);
//!    deliberate exceptions (experiment scratch dirs, the trace sink)
//!    carry `// allow_invariant(device-hygiene): reason` markers.
//! 2. Every `.sync(` / `.sync_all(` / `.sync_data(` call site outside
//!    test code must be immediately preceded by a `// DURABILITY:`
//!    comment saying what becomes durable and why here, as a
//!    `// SAFETY:` comment justifies an `unsafe` block. A sync is the one
//!    point where the old-or-new crash guarantee is bought; an
//!    undocumented one is either missing a guarantee or paying for one
//!    nobody asked for.

use std::path::Path;

use crate::ctx::FileCtx;
use crate::diag::{Diagnostic, DEVICE_HYGIENE};

/// Whether `rel` is the one module allowed to touch `std::fs` directly.
fn is_device_module(rel: &Path) -> bool {
    rel == Path::new("crates/emsim/src/device.rs")
}

/// Whether `rel` belongs to the analyzer itself (which must read files).
fn is_analyzer(rel: &Path) -> bool {
    rel.starts_with("crates/xtask")
}

/// Run the rule on one file.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if is_analyzer(&ctx.rel) {
        return;
    }
    if !is_device_module(&ctx.rel) {
        check_no_direct_fs(ctx, out);
    }
    check_syncs_documented(ctx, out);
}

/// Flag `std :: fs` token sequences (covers `use std::fs`, qualified
/// `std::fs::File` paths, and `std::fs::remove_dir_all` calls alike).
fn check_no_direct_fs(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for w in toks.windows(4) {
        if w[0].is_ident("std") && w[1].is_punct(':') && w[2].is_punct(':') && w[3].is_ident("fs") {
            if ctx.in_test(w[3].line) {
                continue;
            }
            out.push(Diagnostic {
                rule: DEVICE_HYGIENE,
                file: ctx.rel.clone(),
                line: w[3].line,
                col: w[3].col,
                message: "direct `std::fs` use outside `emsim::device`; persistent state \
                          must go through the `BlockDevice` layer so the crash-recovery \
                          catalog sees every write (scratch files need an \
                          `allow_invariant(device-hygiene)` marker saying why they are \
                          not block storage)"
                    .into(),
                snippet: ctx.snippet(w[3].line),
            });
        }
    }
}

/// Flag `.sync(` / `.sync_all(` / `.sync_data(` calls without a
/// `// DURABILITY:` comment on the same line or directly above.
fn check_syncs_documented(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for w in toks.windows(3) {
        let is_sync = w[1]
            .ident()
            .is_some_and(|n| matches!(n, "sync" | "sync_all" | "sync_data"));
        if w[0].is_punct('.') && is_sync && w[2].is_punct('(') {
            if ctx.in_test(w[1].line) || has_durability_comment(ctx, w[1].line) {
                continue;
            }
            out.push(Diagnostic {
                rule: DEVICE_HYGIENE,
                file: ctx.rel.clone(),
                line: w[1].line,
                col: w[1].col,
                message: format!(
                    "`.{}()` without an immediately preceding `// DURABILITY:` comment; \
                     state what becomes durable at this point and which crash-recovery \
                     guarantee depends on it",
                    w[1].ident().unwrap_or("sync"),
                ),
                snippet: ctx.snippet(w[1].line),
            });
        }
    }
}

/// Is there a `DURABILITY:` comment on the call's own line or above it?
/// The walk skips blank, attribute, and other comment lines freely, and
/// tolerates up to three intervening code lines so the comment can sit
/// above a rustfmt-wrapped method chain (`state.data\n.sync_data()`).
fn has_durability_comment(ctx: &FileCtx, line: u32) -> bool {
    if comment_is_durability(ctx, line) {
        return true;
    }
    let mut code_lines = 0u32;
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let src = ctx.lines.get(l as usize - 1).map_or("", |s| s.trim());
        if src.is_empty() || src.starts_with("#[") || src.starts_with("#![") {
            l -= 1;
            continue;
        }
        if comment_is_durability(ctx, l) {
            return true;
        }
        if !src.starts_with("//") {
            code_lines += 1;
            if code_lines > 3 {
                return false;
            }
        }
        l -= 1;
    }
    false
}

fn comment_is_durability(ctx: &FileCtx, line: u32) -> bool {
    ctx.lexed
        .comment_on(line)
        .is_some_and(|c| c.contains("DURABILITY:"))
}
