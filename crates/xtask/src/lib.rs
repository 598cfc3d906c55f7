//! # xtask — the workspace invariant checker
//!
//! `cargo xtask analyze` parses every Rust source file in the workspace
//! (a comment/string-aware lexer — the offline build has no registry
//! access, so no `syn`) and enforces the project's load-bearing
//! invariants as machine-checked rules. The paper's reductions are only
//! credible because every I/O is metered and every answer is pinned by
//! golden baselines; these rules turn that from discipline into a gate:
//!
//! | ID    | name              | invariant |
//! |-------|-------------------|-----------|
//! | INV01 | meter-soundness   | block storage only via metered accessors |
//! | INV02 | select-chokepoint | all top-k selection via `select_top_k`   |
//! | INV03 | unsafe-hygiene    | `unsafe` confined to kernels, `// SAFETY:` everywhere |
//! | INV04 | phase-taxonomy    | trace spans use registered phase labels  |
//! | INV05 | atomics-audit     | atomic orderings match `atomics.expect`  |
//! | INV06 | stale-allow       | every allowlist marker still suppresses something |
//! | INV07 | device-hygiene    | persistent I/O only via `emsim::device`, syncs say `// DURABILITY:` |
//!
//! Deliberate exceptions are written in the source as
//! `// allow_invariant(<rule>): <reason>` directly above the excused
//! line; a marker without a reason, or one that stops matching anything,
//! is itself a violation. See DESIGN.md "Static analysis & soundness".

pub mod ctx;
pub mod diag;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

use ctx::FileCtx;
use diag::{Diagnostic, RuleId, STALE_ALLOW};

/// Where the atomics expectations live, relative to the workspace root.
pub const ATOMICS_EXPECT: &str = "crates/xtask/atomics.expect";

/// Result of an analysis run.
pub struct Analysis {
    /// All surviving findings, in rule/file/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// Every atomic site observed (for `--bless-atomics`).
    pub atomic_sites: Vec<rules::atomics::AtomicSite>,
}

/// Analyze the workspace rooted at `root`. `only` restricts to one rule.
pub fn analyze(root: &Path, only: Option<RuleId>) -> Analysis {
    let files = ctx::workspace_files(root);
    let mut ctxs = Vec::new();
    for rel in files {
        match FileCtx::load(root, rel.clone()) {
            Ok(c) => ctxs.push(c),
            Err(e) => eprintln!("xtask: skipping unreadable {}: {e}", rel.display()),
        }
    }
    analyze_contexts(root, &ctxs, only)
}

/// Analyze pre-loaded file contexts (the fixture tests enter here with
/// in-memory sources).
pub fn analyze_contexts(root: &Path, ctxs: &[FileCtx], only: Option<RuleId>) -> Analysis {
    let registry = ctxs
        .iter()
        .find(|c| c.rel == Path::new("crates/emsim/src/trace.rs"))
        .map(rules::phases::parse_registry)
        .unwrap_or_default();

    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut atomic_sites = Vec::new();
    for c in ctxs {
        rules::meter::check(c, &mut raw);
        rules::chokepoint::check(c, &mut raw);
        rules::unsafe_hygiene::check(c, &mut raw);
        rules::phases::check(c, &registry, &mut raw);
        rules::device::check(c, &mut raw);
        atomic_sites.extend(rules::atomics::collect(c));
    }

    let expect_rel = PathBuf::from(ATOMICS_EXPECT);
    let expectations = std::fs::read_to_string(root.join(&expect_rel)).unwrap_or_default();
    rules::atomics::diff(&atomic_sites, &expectations, &expect_rel, &mut raw);

    // Apply the allowlist: a marker suppresses findings of its rule on its
    // own line and the two lines below it, in its own file.
    let mut kept: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let suppressed = ctxs.iter().any(|c| {
            c.rel == d.file
                && c.allows.iter().any(|m| {
                    let rule_matches = diag::rule_by_key(&m.rule_key) == Some(d.rule);
                    let span_matches = c.marker_covers(m.line, d.line);
                    let ok = rule_matches && span_matches && !m.reason.is_empty();
                    if ok {
                        m.used.set(true);
                    }
                    ok
                })
        });
        if !suppressed {
            kept.push(d);
        }
    }

    // INV06: markers that are malformed or no longer suppress anything.
    for c in ctxs {
        for m in &c.allows {
            let diag = if diag::rule_by_key(&m.rule_key).is_none() {
                Some(format!(
                    "allow_invariant marker names unknown rule `{}`; valid keys are {}",
                    m.rule_key,
                    diag::RULES
                        .iter()
                        .map(|r| r.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            } else if m.reason.is_empty() {
                Some(format!(
                    "allow_invariant({}) has no reason; exceptions must say why",
                    m.rule_key
                ))
            } else if !m.used.get() {
                Some(format!(
                    "stale allow_invariant({}) marker: it no longer suppresses any \
                     finding — delete it so the allowlist stays honest",
                    m.rule_key
                ))
            } else {
                None
            };
            if let Some(message) = diag {
                kept.push(Diagnostic {
                    rule: STALE_ALLOW,
                    file: c.rel.clone(),
                    line: m.line,
                    col: 1,
                    message,
                    snippet: c.snippet(m.line),
                });
            }
        }
    }

    if let Some(rule) = only {
        kept.retain(|d| d.rule == rule);
    }

    kept.sort_by(|a, b| {
        (a.rule, &a.file, a.line, a.col).cmp(&(b.rule, &b.file, b.line, b.col))
    });

    Analysis {
        diagnostics: kept,
        files_scanned: ctxs.len(),
        atomic_sites,
    }
}
