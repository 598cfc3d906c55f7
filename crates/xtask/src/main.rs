//! `cargo xtask` — the workspace's own tooling. One subcommand:
//!
//! ```text
//! cargo xtask experiments
//! ```
//!
//! `experiments` runs `SCALE=paper exp_all` and exits nonzero when a table
//! in EXPERIMENTS.md no longer matches the binary's, printing the block
//! that moved.

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // cargo sets CARGO_MANIFEST_DIR to crates/xtask; the workspace root is
    // two levels up. Fall back to the current directory for direct runs.
    std::env::var_os("CARGO_MANIFEST_DIR").map_or_else(
        || PathBuf::from("."),
        |d| PathBuf::from(d).join("../..").canonicalize().unwrap(),
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: cargo xtask experiments\n\
         \n\
         experiments compares the tables in EXPERIMENTS.md with what\n\
         SCALE=paper exp_all prints, wall-clock cells masked."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("experiments") => experiments(&args[1..]),
        _ => usage(),
    }
}

fn experiments(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        usage();
    }
    let root = workspace_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let run = std::process::Command::new(cargo)
        .current_dir(&root)
        .args([
            "run",
            "--release",
            "--quiet",
            "-p",
            "bench",
            "--bin",
            "exp_all",
        ])
        .env("SCALE", "paper")
        .stderr(std::process::Stdio::inherit())
        .output();
    let stdout = match run {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
        Ok(out) => {
            eprintln!("xtask: exp_all failed ({})", out.status);
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("xtask: cannot run exp_all: {e}");
            return ExitCode::FAILURE;
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "reads the EXPERIMENTS.md document, not block storage"
    )]
    let md = match std::fs::read_to_string(root.join("EXPERIMENTS.md")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask: cannot read EXPERIMENTS.md: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (moved, checked) = xtask::experiments::check(&md, &stdout);
    for report in &moved {
        eprintln!("{report}");
    }
    if moved.is_empty() {
        println!("xtask experiments: all {checked} tables in EXPERIMENTS.md match exp_all");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask experiments: {} of {checked} tables in EXPERIMENTS.md moved",
            moved.len()
        );
        ExitCode::FAILURE
    }
}
