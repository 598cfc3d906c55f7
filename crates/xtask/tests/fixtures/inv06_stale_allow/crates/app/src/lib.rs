//! INV06 fixture: allowlist markers that are stale or malformed.

// Line 4 marker: names a rule that does not exist.
// allow_invariant(made-up-rule): because reasons
pub fn a() {}

// Line 8 marker: valid rule, but the reason is empty.
// allow_invariant(device-hygiene):
pub fn b() {}

// Line 12 marker: valid rule and reason, but nothing below violates it —
// allow_invariant(device-hygiene): historical exception, code was removed
pub fn c() {}
