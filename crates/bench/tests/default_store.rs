//! `exp_all` run with `EMSIM_DEVICE=file` deletes the store it opened in
//! the temp directory when `EMSIM_DATA_DIR` is unset, and keeps a store
//! the caller named. It runs in the temp directory too, so the same
//! emptiness check shows that it writes no result file without `--json`.
//! A `SCALE` other than `smoke` or `paper`, a flag without its value, or a
//! `--threads` that is not a positive integer makes it exit 2 before it
//! runs anything.

#![expect(
    clippy::disallowed_methods,
    reason = "the test inspects and removes the stores in its scratch directories"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty directory under the test's temp directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emsim-store-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run E12 at smoke scale on a `FileDevice`, with `tmp` as the temp and
/// working directory and `data_dir` as `EMSIM_DATA_DIR` if given.
fn run_on_file_device(tmp: &Path, data_dir: Option<&Path>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_all"));
    cmd.args(["--only", "circular"])
        .current_dir(tmp)
        .env("SCALE", "smoke")
        .env("EMSIM_DEVICE", "file")
        .env("TMPDIR", tmp)
        .env_remove("EMSIM_DATA_DIR");
    if let Some(dir) = data_dir {
        cmd.env("EMSIM_DATA_DIR", dir);
    }
    let out = cmd.output().expect("exp_all runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect()
}

#[test]
fn default_store_is_removed_and_a_named_one_is_kept() {
    let tmp = scratch("tmp");
    run_on_file_device(&tmp, None);
    assert_eq!(
        entries(&tmp),
        Vec::<PathBuf>::new(),
        "default store or result file left behind"
    );

    let named = scratch("named");
    run_on_file_device(&tmp, Some(&named));
    assert!(!entries(&named).is_empty(), "the named store is kept");
    assert_eq!(entries(&tmp), Vec::<PathBuf>::new());

    std::fs::remove_dir_all(&tmp).unwrap();
    std::fs::remove_dir_all(&named).unwrap();
}

#[test]
fn an_unknown_scale_exits_2_without_running() {
    for scale in ["full", "Smoke"] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_all"))
            .env("SCALE", scale)
            .output()
            .expect("exp_all runs");
        assert_eq!(out.status.code(), Some(2), "SCALE={scale}");
        assert!(out.stdout.is_empty(), "SCALE={scale} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("smoke|paper"), "{stderr}");
    }
}

#[test]
fn a_flag_without_its_value_exits_2_without_running() {
    // `--only circular` first, so a regression runs one small experiment,
    // not the registry.
    for args in [
        &["--only"][..],
        &["--only", "circular", "--json"],
        &["--only", "circular", "--trace"],
        &["--only", "circular", "--threads"],
        &["--only", "circular", "--threads", "two"],
        &["--only", "circular", "--threads", "0"],
        &["--only", "circular", "--threads", "-1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_all"))
            .args(args)
            .env("SCALE", "smoke")
            .output()
            .expect("exp_all runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: exp_all"), "{args:?}: {stderr}");
    }
}
