//! INV04 `phase-taxonomy` — trace spans use only the registered phase
//! labels.
//!
//! The registry is `pub mod phase` in `crates/emsim/src/trace.rs`: the
//! analyzer parses its `pub const NAME: &str = "label";` items and then
//! enforces, workspace-wide, that
//!
//! 1. every string literal handed to `.span(...)` / `phase_scope(...)` is
//!    a registered label — and even then the `phase::` const should be
//!    used, so *any* string literal outside `crates/emsim` is flagged
//!    (the label strings appear verbatim only in the registry, its tests,
//!    and exporter goldens);
//! 2. every `phase::IDENT` path names a registered const (a typo\'d const
//!    would fail to compile, but a *locally defined* `mod phase` with new
//!    labels would not — this keeps the taxonomy closed).

use std::collections::BTreeMap;

use crate::ctx::FileCtx;
use crate::diag::{Diagnostic, PHASE_TAXONOMY};
use crate::lexer::TokKind;
use crate::rules::in_emsim;

/// The phase registry: const name → label string.
#[derive(Clone, Debug, Default)]
pub struct PhaseRegistry {
    /// `SELECT` → `select`, in registry order.
    pub consts: BTreeMap<String, String>,
}

impl PhaseRegistry {
    /// Whether a label string is registered.
    pub fn has_label(&self, label: &str) -> bool {
        self.consts.values().any(|l| l == label)
    }
}

/// Parse the registry out of the trace module (`pub mod phase { ... }`).
pub fn parse_registry(trace: &FileCtx) -> PhaseRegistry {
    let toks = &trace.lexed.tokens;
    let mut reg = PhaseRegistry::default();
    // Find `mod phase {`, then collect `const NAME ... = "label"` at any
    // depth inside it.
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("mod") && toks.get(i + 1).is_some_and(|t| t.is_ident("phase")) {
            let mut j = i + 2;
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].is_ident("const") {
                    let name = toks.get(j + 1).and_then(|t| t.ident()).map(str::to_string);
                    // The label is the next string literal before the `;`.
                    let mut k = j + 2;
                    let mut label = None;
                    while k < toks.len() && !toks[k].is_punct(';') {
                        if let TokKind::Str(s) = &toks[k].kind {
                            label = Some(s.clone());
                            break;
                        }
                        k += 1;
                    }
                    if let (Some(name), Some(label)) = (name, label) {
                        reg.consts.insert(name, label);
                    }
                    j = k;
                }
                j += 1;
            }
            return reg;
        }
        i += 1;
    }
    reg
}

/// Run the rule on one file.
pub fn check(ctx: &FileCtx, reg: &PhaseRegistry, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        // `.span(ARG)` / `phase_scope(ARG)` with a string-literal argument.
        let is_span_call = t.is_ident("span") && i >= 1 && toks[i - 1].is_punct('.');
        let is_scope_call = t.is_ident("phase_scope");
        if (is_span_call || is_scope_call) && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            if let Some(TokKind::Str(s)) = toks.get(i + 2).map(|n| &n.kind) {
                let arg = &toks[i + 2];
                if !reg.has_label(s) {
                    out.push(Diagnostic {
                        rule: PHASE_TAXONOMY,
                        file: ctx.rel.clone(),
                        line: arg.line,
                        col: arg.col,
                        message: format!(
                            "span label \"{s}\" is not in the registered phase taxonomy \
                             (emsim::trace::phase); pick a registered phase or extend \
                             the registry deliberately"
                        ),
                        snippet: ctx.snippet(arg.line),
                    });
                } else if !in_emsim(&ctx.rel) {
                    out.push(Diagnostic {
                        rule: PHASE_TAXONOMY,
                        file: ctx.rel.clone(),
                        line: arg.line,
                        col: arg.col,
                        message: format!(
                            "span label \"{s}\" spelled as a string literal; use the \
                             `emsim::trace::phase` const so the registry stays the \
                             single source of truth"
                        ),
                        snippet: ctx.snippet(arg.line),
                    });
                }
            }
        }
        // `phase::IDENT` must name a registered const.
        if t.is_ident("phase")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            if let Some(name_tok) = toks.get(i + 3) {
                if let Some(name) = name_tok.ident() {
                    // Only consts look like labels (SCREAMING_CASE); skip
                    // paths like `phase::scope_fn` or the mod decl itself.
                    let screaming = name.chars().all(|c| c.is_ascii_uppercase() || c == '_')
                        && !name.is_empty();
                    if screaming && !reg.consts.contains_key(name) {
                        out.push(Diagnostic {
                            rule: PHASE_TAXONOMY,
                            file: ctx.rel.clone(),
                            line: name_tok.line,
                            col: name_tok.col,
                            message: format!(
                                "`phase::{name}` is not a registered phase const; the \
                                 taxonomy is closed — extend `emsim::trace::phase` (and \
                                 every exporter golden) if a new phase is truly needed"
                            ),
                            snippet: ctx.snippet(name_tok.line),
                        });
                    }
                }
            }
        }
    }
}
