//! `cargo xtask` — the workspace's own tooling. Two subcommands:
//!
//! ```text
//! cargo xtask analyze [--rule <id|name>] [--list-rules] [--bless-atomics]
//! cargo xtask experiments
//! ```
//!
//! `analyze` exits nonzero on any rule violation; CI runs it as a required
//! job. `experiments` runs `SCALE=paper exp_all` and exits nonzero when
//! a table in EXPERIMENTS.md no longer matches the binary's, printing the
//! block that moved.

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
        "usage: cargo xtask analyze [--rule <id|name>] [--list-rules] [--bless-atomics]\n\
         \x20      cargo xtask experiments\n\
         \n\
         analyze checks the workspace's load-bearing invariants (phase\n\
         taxonomy, atomic orderings, allowlist, device I/O).\n\
         See DESIGN.md \"Static analysis & soundness\" for the rule catalog\n\
         and the allow_invariant(...) exception policy.\n\
         \n\
         experiments compares the tables in EXPERIMENTS.md with what\n\
         SCALE=paper exp_all prints, wall-clock cells masked."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
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
        .args(["--", "--json", "-"])
        .env("SCALE", "paper")
        .env_remove("EXP_ONLY")
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

fn analyze(args: &[String]) -> ExitCode {
    let mut only = None;
    let mut bless = false;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--list-rules" => {
                for r in xtask::diag::RULES {
                    println!("{}  {}", r.id, r.name);
                }
                return ExitCode::SUCCESS;
            }
            "--rule" => {
                i += 1;
                let Some(key) = args.get(i) else { usage() };
                match xtask::diag::rule_by_key(key) {
                    Some(r) => only = Some(r),
                    None => {
                        eprintln!("xtask: unknown rule `{key}` (try --list-rules)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--bless-atomics" => bless = true,
            _ => usage(),
        }
        i += 1;
    }

    let root = workspace_root();
    let analysis = xtask::analyze(&root, only);

    if bless {
        let rendered = xtask::rules::atomics::render_expectations(&analysis.atomic_sites);
        let path = root.join(xtask::ATOMICS_EXPECT);
        if let Err(e) = std::fs::write(&path, rendered) {
            eprintln!("xtask: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "xtask: blessed {} atomic sites into {}",
            analysis.atomic_sites.len(),
            xtask::ATOMICS_EXPECT
        );
        // Re-run so the exit status reflects the blessed state.
        let analysis = xtask::analyze(&root, only);
        return report(&analysis);
    }

    report(&analysis)
}

fn report(analysis: &xtask::Analysis) -> ExitCode {
    for d in &analysis.diagnostics {
        eprintln!("{d}");
    }
    let n = analysis.diagnostics.len();
    if n == 0 {
        println!(
            "xtask analyze: clean — {} files, 0 violations",
            analysis.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask analyze: {n} violation{} across {} files scanned",
            if n == 1 { "" } else { "s" },
            analysis.files_scanned
        );
        ExitCode::FAILURE
    }
}
