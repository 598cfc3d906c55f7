//! INV02 `select-chokepoint` — every top-k selection routes through
//! `topk_core::traits::select_top_k`.
//!
//! The quickselect entry points (`emsim::select::*`) and the SIMD scan
//! kernels behind them (`emsim::kernels::*`) are the hot path the golden
//! I/O baselines pin. If call sites scatter, a future signature or
//! charging change has to find them all by hand — PR 6 routed all 41
//! sites through the one chokepoint precisely so the analyzer can keep
//! them there. Outside `crates/emsim` itself and the chokepoint module,
//! any reference to these entry points (call, `use` import, or path
//! mention) is a violation; deliberate exceptions — the E22 backend
//! comparison — carry `allow_invariant(select-chokepoint)` markers with
//! their reasons.

use crate::ctx::FileCtx;
use crate::diag::{Diagnostic, SELECT_CHOKEPOINT};
use crate::rules::{in_emsim, is_chokepoint_module};

/// The guarded entry points.
const RESTRICTED: &[&str] = &[
    "top_k_by_weight",
    "top_k_by_key",
    "top_k_by_ord",
    "kth_largest",
    "partition3",
    "filter_ge_indices",
];

/// Run the rule on one file.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if in_emsim(&ctx.rel) || is_chokepoint_module(&ctx.rel) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !RESTRICTED.contains(&name) {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        // Only flag *references*: a call `name(...)`, a turbofish
        // `name::<...>`, or a path/use mention `select::name`. A local
        // `fn name` definition or an unrelated identifier is left alone.
        let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            || (toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.is_punct('<')));
        let in_path = i >= 1 && toks[i - 1].is_punct(':');
        let defined = i >= 1 && toks[i - 1].is_ident("fn");
        if defined || !(called || in_path) {
            continue;
        }
        out.push(Diagnostic {
            rule: SELECT_CHOKEPOINT,
            file: ctx.rel.clone(),
            line: t.line,
            col: t.col,
            message: format!(
                "`{name}` invoked outside the select chokepoint; route top-k \
                 selection through `topk_core::select_top_k` (crates/core/src/traits.rs) \
                 so charging and dispatch changes stay single-sited"
            ),
            snippet: ctx.snippet(t.line),
        });
    }
}
