//! Per-file analysis context: lexed tokens, `#[cfg(test)]` regions, and
//! `allow_invariant(...)` markers, plus the workspace file walk.

use std::path::{Path, PathBuf};

use crate::lexer::{lex, Lexed};

/// An `// allow_invariant(rule): reason` marker found in comments.
///
/// Policy (DESIGN.md "Static analysis & soundness"): the marker must name
/// the rule (ID or name) and carry a non-empty reason after the colon; it
/// suppresses findings of that rule on its own comment block and the two
/// code lines below it (comment continuation lines don't consume the
/// window, so a marker always sits directly above the code it excuses).
#[derive(Clone, Debug)]
pub struct AllowMarker {
    /// Rule key as written (resolved against the catalog by the engine).
    pub rule_key: String,
    /// Justification text after the colon.
    pub reason: String,
    /// 1-based line the marker sits on.
    pub line: u32,
    /// Set by the engine when the marker suppresses at least one finding.
    pub used: std::cell::Cell<bool>,
}

/// One source file, lexed and annotated.
pub struct FileCtx {
    /// Path relative to the workspace root.
    pub rel: PathBuf,
    /// Raw source lines (for diagnostic snippets).
    pub lines: Vec<String>,
    /// Token and comment streams.
    pub lexed: Lexed,
    /// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` /
    /// `#[test]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// Allowlist markers in this file.
    pub allows: Vec<AllowMarker>,
}

impl FileCtx {
    /// Load and lex one file. `rel` must be relative to `root`.
    pub fn load(root: &Path, rel: PathBuf) -> std::io::Result<FileCtx> {
        let src = std::fs::read_to_string(root.join(&rel))?;
        Ok(FileCtx::from_source(rel, &src))
    }

    /// Build a context from in-memory source (used by the fixture tests).
    pub fn from_source(rel: PathBuf, src: &str) -> FileCtx {
        let lexed = lex(src);
        let test_regions = find_test_regions(&lexed);
        let allows = find_allow_markers(&lexed);
        FileCtx {
            rel,
            lines: src.lines().map(str::to_string).collect(),
            lexed,
            test_regions,
            allows,
        }
    }

    /// Whether the file as a whole is test/bench/example code (never
    /// production query paths).
    pub fn is_test_file(&self) -> bool {
        self.rel.components().any(|c| {
            matches!(
                c.as_os_str().to_str(),
                Some("tests" | "benches" | "examples")
            )
        })
    }

    /// Whether 1-based `line` sits inside a `#[cfg(test)]` region (or the
    /// file is test code wholesale).
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file()
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// The source line (1-based) for a diagnostic snippet.
    pub fn snippet(&self, line: u32) -> Option<String> {
        self.lines.get(line as usize - 1).cloned()
    }

    /// Whether a marker on `marker_line` covers `target`: its own line,
    /// the rest of its comment block, and the two code lines below (lines
    /// that are pure comment continuation don't use up the window, so a
    /// multi-line justification still reaches the code it excuses).
    pub fn marker_covers(&self, marker_line: u32, target: u32) -> bool {
        if target < marker_line {
            return false;
        }
        let mut code_lines = 0u32;
        for line in marker_line..=target {
            if line == target {
                return code_lines <= 2;
            }
            let src = self.lines.get(line as usize - 1).map_or("", |s| s.trim());
            let is_comment = src.starts_with("//") || line == marker_line;
            if !is_comment {
                code_lines += 1;
                if code_lines > 2 {
                    return false;
                }
            }
        }
        false
    }
}

/// Find line ranges covered by `#[cfg(test, ...)]` / `#[test]` items: after
/// such an attribute, the region runs from the next `{` to its matching
/// `}` (brace-counted over the token stream, which the lexer guarantees is
/// free of braces inside strings and comments).
fn find_test_regions(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Scan the attribute body for the `test` / `cfg(test)` idents.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut is_test_attr = false;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].is_ident("test") || toks[j].is_ident("cfg_test") {
                    is_test_attr = true;
                }
                j += 1;
            }
            if is_test_attr {
                // Region: next `{` after the attribute to its match.
                let mut k = j + 1;
                while k < toks.len() && !toks[k].is_punct('{') {
                    // A `;` first means `#[cfg(test)] mod t;` — no body here.
                    if toks[k].is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if k < toks.len() && toks[k].is_punct('{') {
                    let start_line = toks[i].line;
                    let mut braces = 0i32;
                    let mut end_line = toks[k].line;
                    while k < toks.len() {
                        if toks[k].is_punct('{') {
                            braces += 1;
                        } else if toks[k].is_punct('}') {
                            braces -= 1;
                            if braces == 0 {
                                end_line = toks[k].line;
                                break;
                            }
                        }
                        k += 1;
                    }
                    regions.push((start_line, end_line));
                    i = k;
                }
            }
            i = j.max(i) + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Parse `allow_invariant(rule): reason` out of the comment stream.
fn find_allow_markers(lexed: &Lexed) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(rest) = c.text.trim().strip_prefix("allow_invariant(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule_key = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .trim_start_matches([':', ' ', '-'])
            .trim()
            .to_string();
        out.push(AllowMarker {
            rule_key,
            reason,
            line: c.line,
            used: std::cell::Cell::new(false),
        });
    }
    out
}

/// Every Rust source file the analyzer looks at, relative to `root`.
///
/// Covered: `crates/*/src`, `crates/*/tests`, `crates/*/benches`,
/// `crates/*/examples`, the umbrella `src/`, and the workspace `tests/`.
/// Excluded: `shims/` (offline stand-ins for registry crates — third-party
/// API surface, not this project's invariants), `target/`, and the
/// analyzer's own `tests/fixtures` tree (deliberately violating code).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        walk(root, &root.join(top), &mut out);
    }
    out.sort();
    out
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == ".git" {
                continue;
            }
            walk(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_region_covers_mod_body() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.raw(); }\n}\nfn c() {}\n";
        let ctx = FileCtx::from_source(PathBuf::from("crates/x/src/lib.rs"), src);
        assert!(ctx.in_test(4));
        assert!(!ctx.in_test(1));
        assert!(!ctx.in_test(6));
    }

    #[test]
    fn test_attr_fn_is_a_region() {
        let src = "#[test]\nfn t() {\n    boom();\n}\nfn prod() {}\n";
        let ctx = FileCtx::from_source(PathBuf::from("crates/x/src/lib.rs"), src);
        assert!(ctx.in_test(3));
        assert!(!ctx.in_test(5));
    }

    #[test]
    fn tests_dir_is_wholesale_test() {
        let ctx = FileCtx::from_source(PathBuf::from("crates/x/tests/t.rs"), "fn f() {}");
        assert!(ctx.in_test(1));
    }

    #[test]
    fn allow_markers_parse_rule_and_reason() {
        let src = "// allow_invariant(device-hygiene): E23 scratch dir\nfoo();\n";
        let ctx = FileCtx::from_source(PathBuf::from("a.rs"), src);
        assert_eq!(ctx.allows.len(), 1);
        assert_eq!(ctx.allows[0].rule_key, "device-hygiene");
        assert!(ctx.allows[0].reason.contains("E23"));
    }
}
