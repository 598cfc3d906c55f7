//! Fixture tests: each `tests/fixtures/<name>/` directory is a miniature
//! workspace containing a deliberate violation of exactly one rule; the
//! test asserts the analyzer reports it — right rule ID, right file,
//! right line — and nothing else. The last test runs the analyzer over
//! the real workspace and requires a clean bill, so a rule regression
//! (false positive) fails here before it fails in CI.

use std::path::{Path, PathBuf};

use xtask::diag::{
    Diagnostic, ATOMICS_AUDIT, DEVICE_HYGIENE, METER_SOUNDNESS, PHASE_TAXONOMY,
    SELECT_CHOKEPOINT, STALE_ALLOW, UNSAFE_HYGIENE,
};
use xtask::{analyze, Analysis};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str) -> Analysis {
    analyze(&fixture_root(name), None)
}

fn render(diags: &[Diagnostic]) -> String {
    diags.iter().map(ToString::to_string).collect()
}

#[test]
fn inv01_flags_raw_access_outside_emsim() {
    let a = run("inv01_meter");
    assert_eq!(a.diagnostics.len(), 1, "{}", render(&a.diagnostics));
    let d = &a.diagnostics[0];
    assert_eq!(d.rule, METER_SOUNDNESS);
    assert_eq!(d.rule.id, "INV01");
    assert_eq!(d.file, Path::new("crates/app/src/lib.rs"));
    assert_eq!((d.line, d.col), (5, 9), "span must point at `raw`");
    assert!(d.message.contains(".raw()"), "{}", d.message);
    assert!(
        d.snippet.as_deref().is_some_and(|s| s.contains("arr.raw()")),
        "snippet should carry the offending line"
    );
}

#[test]
fn inv01_ignores_test_code() {
    // The fixture's #[cfg(test)] module calls raw() too (line 12); only
    // the production call may be reported.
    let a = run("inv01_meter");
    assert!(
        a.diagnostics.iter().all(|d| d.line != 12),
        "test-region raw() must not be flagged: {}",
        render(&a.diagnostics)
    );
}

#[test]
fn inv02_flags_direct_selection_call() {
    let a = run("inv02_chokepoint");
    assert_eq!(a.diagnostics.len(), 1, "{}", render(&a.diagnostics));
    let d = &a.diagnostics[0];
    assert_eq!(d.rule, SELECT_CHOKEPOINT);
    assert_eq!(d.rule.id, "INV02");
    assert_eq!(d.file, Path::new("crates/app/src/lib.rs"));
    assert_eq!(d.line, 5);
    assert!(d.message.contains("top_k_by_weight"), "{}", d.message);
    assert!(d.message.contains("select_top_k"), "{}", d.message);
}

#[test]
fn inv03_flags_unsafe_outside_kernels_and_missing_safety_comment() {
    let a = run("inv03_unsafe");
    assert_eq!(a.diagnostics.len(), 2, "{}", render(&a.diagnostics));

    // Sorted order: rule, then file — app (escaped unsafe) before kernels
    // (undocumented unsafe).
    let escaped = &a.diagnostics[0];
    assert_eq!(escaped.rule, UNSAFE_HYGIENE);
    assert_eq!(escaped.rule.id, "INV03");
    assert_eq!(escaped.file, Path::new("crates/app/src/lib.rs"));
    assert_eq!(escaped.line, 5);
    assert!(escaped.message.contains("outside"), "{}", escaped.message);

    let undocumented = &a.diagnostics[1];
    assert_eq!(undocumented.rule, UNSAFE_HYGIENE);
    assert_eq!(undocumented.file, Path::new("crates/emsim/src/kernels.rs"));
    assert_eq!(undocumented.line, 6);
    assert!(
        undocumented.message.contains("SAFETY"),
        "{}",
        undocumented.message
    );
}

#[test]
fn inv03_accepts_documented_unsafe_in_kernels() {
    // The fixture's second kernel fn (line 13) carries a SAFETY comment
    // and must pass.
    let a = run("inv03_unsafe");
    assert!(
        a.diagnostics.iter().all(|d| d.line != 13),
        "documented unsafe must not be flagged: {}",
        render(&a.diagnostics)
    );
}

#[test]
fn inv04_flags_unregistered_and_raw_literal_labels() {
    let a = run("inv04_phases");
    assert_eq!(a.diagnostics.len(), 2, "{}", render(&a.diagnostics));

    let unregistered = &a.diagnostics[0];
    assert_eq!(unregistered.rule, PHASE_TAXONOMY);
    assert_eq!(unregistered.rule.id, "INV04");
    assert_eq!(unregistered.file, Path::new("crates/app/src/lib.rs"));
    assert_eq!(unregistered.line, 5);
    assert!(
        unregistered.message.contains("\"warmup\""),
        "{}",
        unregistered.message
    );

    // "probe" IS registered (the fixture's trace.rs registry has it), but
    // a raw literal outside emsim must still route through the const.
    let raw_literal = &a.diagnostics[1];
    assert_eq!(raw_literal.rule, PHASE_TAXONOMY);
    assert_eq!(raw_literal.line, 8);
    assert!(
        raw_literal.message.contains("string literal"),
        "{}",
        raw_literal.message
    );
}

#[test]
fn inv05_flags_undocumented_seqcst_and_stale_expectation() {
    let a = run("inv05_atomics");
    assert_eq!(a.diagnostics.len(), 2, "{}", render(&a.diagnostics));

    let seqcst = &a.diagnostics[0];
    assert_eq!(seqcst.rule, ATOMICS_AUDIT);
    assert_eq!(seqcst.rule.id, "INV05");
    assert_eq!(seqcst.file, Path::new("crates/app/src/lib.rs"));
    assert_eq!(seqcst.line, 15);
    assert!(seqcst.message.contains("SeqCst"), "{}", seqcst.message);
    assert!(
        seqcst.message.contains("events.fetch_add"),
        "{}",
        seqcst.message
    );

    // The expectations file documents a site that no longer exists; that
    // entry must be reported as stale (whole-file span: line 0).
    let stale = &a.diagnostics[1];
    assert_eq!(stale.rule, ATOMICS_AUDIT);
    assert_eq!(stale.file, Path::new("crates/xtask/atomics.expect"));
    assert_eq!(stale.line, 0);
    assert!(stale.message.contains("ghost_counter"), "{}", stale.message);

    // The collector itself saw exactly the one real site.
    assert_eq!(a.atomic_sites.len(), 1);
    assert_eq!(a.atomic_sites[0].field, "events");
    assert_eq!(a.atomic_sites[0].ordering, "SeqCst");
}

#[test]
fn inv06_flags_unknown_rule_empty_reason_and_stale_marker() {
    let a = run("inv06_stale_allow");
    assert_eq!(a.diagnostics.len(), 3, "{}", render(&a.diagnostics));
    for d in &a.diagnostics {
        assert_eq!(d.rule, STALE_ALLOW);
        assert_eq!(d.rule.id, "INV06");
        assert_eq!(d.file, Path::new("crates/app/src/lib.rs"));
    }
    let unknown = &a.diagnostics[0];
    assert_eq!(unknown.line, 4);
    assert!(unknown.message.contains("made-up-rule"), "{}", unknown.message);

    let no_reason = &a.diagnostics[1];
    assert_eq!(no_reason.line, 8);
    assert!(no_reason.message.contains("no reason"), "{}", no_reason.message);

    let stale = &a.diagnostics[2];
    assert_eq!(stale.line, 12);
    assert!(stale.message.contains("stale"), "{}", stale.message);
}

#[test]
fn inv07_flags_direct_fs_and_undocumented_sync() {
    let a = run("inv07_device");
    assert_eq!(a.diagnostics.len(), 2, "{}", render(&a.diagnostics));

    let direct_fs = &a.diagnostics[0];
    assert_eq!(direct_fs.rule, DEVICE_HYGIENE);
    assert_eq!(direct_fs.rule.id, "INV07");
    assert_eq!(direct_fs.file, Path::new("crates/app/src/lib.rs"));
    assert_eq!(direct_fs.line, 6);
    assert!(direct_fs.message.contains("std::fs"), "{}", direct_fs.message);

    let sync = &a.diagnostics[1];
    assert_eq!(sync.rule, DEVICE_HYGIENE);
    assert_eq!(sync.line, 11);
    assert!(sync.message.contains("DURABILITY"), "{}", sync.message);
}

#[test]
fn inv07_accepts_documented_sync_marker_and_test_code() {
    // The documented sync (line 16), the excused scratch file (line 21),
    // and the test-module filesystem use must all pass.
    let a = run("inv07_device");
    assert!(
        a.diagnostics.iter().all(|d| ![16, 21, 28, 29].contains(&d.line)),
        "{}",
        render(&a.diagnostics)
    );
}

#[test]
fn valid_marker_suppresses_finding_and_is_not_stale() {
    // Same violation as inv01, but excused by a well-formed multi-line
    // marker for meter-soundness: the run must be clean — no INV01
    // (suppressed) and no INV06 (the marker is used).
    let a = run("allow_suppression");
    assert!(a.diagnostics.is_empty(), "{}", render(&a.diagnostics));
}

#[test]
fn only_filter_restricts_to_one_rule() {
    // inv05 trips only INV05; asking for INV02 must return nothing, and
    // asking for INV05 returns both findings.
    let root = fixture_root("inv05_atomics");
    let only_inv02 = analyze(&root, Some(SELECT_CHOKEPOINT));
    assert!(only_inv02.diagnostics.is_empty());
    let only_inv05 = analyze(&root, Some(ATOMICS_AUDIT));
    assert_eq!(only_inv05.diagnostics.len(), 2);
}

#[test]
fn real_workspace_is_clean() {
    // The analyzer over the actual repository: zero diagnostics (CI runs
    // the binary form of this as a gate), a real number of files scanned,
    // and a populated atomics inventory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = analyze(&root, None);
    assert!(a.diagnostics.is_empty(), "{}", render(&a.diagnostics));
    assert!(a.files_scanned > 50, "only {} files scanned", a.files_scanned);
    assert!(!a.atomic_sites.is_empty());
}
