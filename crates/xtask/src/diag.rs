//! Diagnostics: stable rule IDs, span-accurate locations, rustc-style
//! rendering.

use std::fmt;
use std::path::PathBuf;

/// Identity of one invariant rule. IDs are stable across releases — CI
/// output, allowlist markers and fixture assertions all key on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RuleId {
    /// Stable short ID (`INV04`...).
    pub id: &'static str,
    /// Human name, also accepted by `allow_invariant(...)` markers.
    pub name: &'static str,
}

/// The rule catalog. Order is the order rules run and report.
pub const RULES: &[RuleId] = &[PHASE_TAXONOMY, ATOMICS_AUDIT, STALE_ALLOW, DEVICE_HYGIENE];

/// INV04: trace spans use only registered phase labels.
pub const PHASE_TAXONOMY: RuleId = RuleId {
    id: "INV04",
    name: "phase-taxonomy",
};
/// INV05: atomic orderings match the checked-in expectations file.
pub const ATOMICS_AUDIT: RuleId = RuleId {
    id: "INV05",
    name: "atomics-audit",
};
/// INV06: every `allow_invariant` marker must suppress something.
pub const STALE_ALLOW: RuleId = RuleId {
    id: "INV06",
    name: "stale-allow",
};
/// INV07: persistent-store I/O only via `emsim::device`, syncs documented.
pub const DEVICE_HYGIENE: RuleId = RuleId {
    id: "INV07",
    name: "device-hygiene",
};

/// Look a rule up by ID or name (both are accepted on the CLI and in
/// allowlist markers).
pub fn rule_by_key(key: &str) -> Option<RuleId> {
    RULES
        .iter()
        .copied()
        .find(|r| r.id.eq_ignore_ascii_case(key) || r.name == key)
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// File, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line (0 = whole-file finding, e.g. a stale expectations
    /// entry).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What went wrong and what to do about it.
    pub message: String,
    /// The offending source line, if the finding has a span.
    pub snippet: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "error[{}/{}]: {}",
            self.rule.id, self.rule.name, self.message
        )?;
        if self.line == 0 {
            writeln!(f, "  --> {}", self.file.display())?;
        } else {
            writeln!(
                f,
                "  --> {}:{}:{}",
                self.file.display(),
                self.line,
                self.col
            )?;
        }
        if let Some(s) = &self.snippet {
            writeln!(f, "   |   {}", s.trim_end())?;
        }
        Ok(())
    }
}
