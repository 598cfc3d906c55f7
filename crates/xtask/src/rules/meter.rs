//! INV01 `meter-soundness` — block storage may only be reached through the
//! metered (or fallible `try_*`) accessors.
//!
//! Two mechanical checks add up to the invariant:
//!
//! 1. Outside `crates/emsim` (and outside test code), no call to the
//!    unmetered escape hatch `.raw()` — the one accessor that hands back
//!    the backing slice without charging I/Os. Build-time code inside
//!    emsim may use it (its passes are pre-charged); everything else must
//!    go through `get` / `scan_*` / `partition_point` / `try_*`, which
//!    route every block touch through the [`CostModel`] meter.
//! 2. Inside `crates/emsim`, the storage field of `BlockArray` (`data`)
//!    must stay private — a `pub` field would let any crate bypass the
//!    meter without even calling an accessor.

use crate::ctx::FileCtx;
use crate::diag::{Diagnostic, METER_SOUNDNESS};
use crate::rules::in_emsim;

const STORAGE_STRUCTS: &[&str] = &["BlockArray"];
const STORAGE_FIELDS: &[&str] = &["data"];

/// Run the rule on one file.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if in_emsim(&ctx.rel) {
        check_fields_private(ctx, out);
    } else {
        check_no_raw_access(ctx, out);
    }
}

fn check_no_raw_access(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for w in toks.windows(3) {
        if w[0].is_punct('.') && w[1].is_ident("raw") && w[2].is_punct('(') {
            if ctx.in_test(w[1].line) {
                continue;
            }
            out.push(Diagnostic {
                rule: METER_SOUNDNESS,
                file: ctx.rel.clone(),
                line: w[1].line,
                col: w[1].col,
                message: "unmetered `.raw()` access to block storage outside emsim; \
                          route reads through the metered accessors (`get`, `scan_*`, \
                          `partition_point`, `try_*`) so every block touch is charged"
                    .into(),
                snippet: ctx.snippet(w[1].line),
            });
        }
    }
}

fn check_fields_private(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let is_struct_kw = toks[i].is_ident("struct");
        let name_is_storage = toks
            .get(i + 1)
            .and_then(|t| t.ident())
            .is_some_and(|n| STORAGE_STRUCTS.contains(&n));
        if is_struct_kw && name_is_storage {
            // Scan the struct body (depth-1 between the braces) for
            // `pub <field> :` on a protected field.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_punct(';') {
                    break; // tuple/unit struct forward decl — nothing to do
                }
                j += 1;
            }
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1
                    && toks[j].is_ident("pub")
                    && toks
                        .get(j + 1)
                        .and_then(|t| t.ident())
                        .is_some_and(|n| STORAGE_FIELDS.contains(&n))
                    && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                {
                    let t = &toks[j + 1];
                    out.push(Diagnostic {
                        rule: METER_SOUNDNESS,
                        file: ctx.rel.clone(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "storage field `{}` of `{}` is `pub`; block storage must \
                             stay private so every access pays the meter",
                            t.ident().unwrap_or("?"),
                            toks[i + 1].ident().unwrap_or("?"),
                        ),
                        snippet: ctx.snippet(t.line),
                    });
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
}
