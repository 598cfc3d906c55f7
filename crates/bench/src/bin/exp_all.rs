//! The experiment runner: every experiment of the registry
//! (`bench::parallel::all_experiments`, E1–E23 and E25, see DESIGN.md §4)
//! fanned out across threads, its buffered tables printed in E-order.
//!
//! Usage:
//!
//! ```text
//! SCALE=smoke|paper cargo run --release -p bench --bin exp_all -- \
//!     [--only <substring>] [--threads N] [--sequential] [--json PATH] \
//!     [--trace PATH]
//! ```
//!
//! * `SCALE` — `smoke` (CI-fast) or `paper` (the default when unset or
//!   empty); any other value exits 2.
//! * `--only <substring>` — run only the experiments whose registry name
//!   contains the substring (`--only dominance` runs E9 and E20).
//! * `--threads N` — worker count, a positive integer; default
//!   `available_parallelism()`. `--sequential` is shorthand for 1.
//! * `--json PATH` — also write per-experiment wall-clock and I/Os to
//!   `PATH` (the committed `BENCH_results.json` is
//!   `SCALE=smoke exp_all --sequential --json BENCH_results.json`).
//! * `--trace PATH` — write a Chrome-trace JSON of every phase span across
//!   all experiments (see OBSERVABILITY.md). Purely observational: I/O
//!   counts are identical with or without it.
//!
//! An unknown flag, a flag without its value or an invalid `--threads`
//! prints the usage line and exits 2 before anything runs.

use std::fmt::Write as _;

use bench::parallel::{all_experiments, default_threads, run_experiments, ExpOutcome};
use bench::table::f;
use bench::tracectl::TraceGuard;
use bench::{Scale, Table};
use emsim::Histogram;

fn main() {
    let mut only: Option<String> = None;
    let mut threads = default_threads();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => only = Some(value(&mut args, "--only", "a substring")),
            "--threads" => {
                threads = value(&mut args, "--threads", "a positive integer")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--threads needs a positive integer"));
            }
            "--sequential" => threads = 1,
            "--json" => json_path = Some(value(&mut args, "--json", "a path")),
            "--trace" => trace_path = Some(value(&mut args, "--trace", "a path")),
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let Some(scale) = Scale::from_env() else {
        eprintln!("unknown SCALE; known values: smoke|paper (unset or empty means paper)");
        std::process::exit(2);
    };
    let trace = TraceGuard::arm(trace_path);
    let exps: Vec<_> = all_experiments()
        .iter()
        .filter(|e| only.as_deref().is_none_or(|s| e.name.contains(s)))
        .copied()
        .collect();
    if exps.is_empty() {
        eprintln!(
            "no experiment name contains {:?}; known names:",
            only.as_deref().unwrap_or("")
        );
        for e in all_experiments() {
            eprintln!("  {}", e.name);
        }
        std::process::exit(2);
    }

    eprintln!(
        "running {} experiment(s) at {scale:?} scale on {threads} thread(s)",
        exps.len()
    );
    let start = std::time::Instant::now();
    let outcomes = run_experiments(&exps, scale, threads);
    let total_elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    for o in &outcomes {
        o.table.print();
    }

    let mut summary = Table::new(
        format!("exp_all summary — {scale:?}, {threads} thread(s)"),
        &[
            "experiment",
            "status",
            "wall ms",
            "reads",
            "writes",
            "total I/Os",
        ],
    );
    for o in &outcomes {
        summary.row_strings(vec![
            o.name.to_string(),
            if o.error.is_some() {
                "PANIC".into()
            } else {
                "ok".into()
            },
            f(o.elapsed_ms),
            o.ios.reads.to_string(),
            o.ios.writes.to_string(),
            o.ios.total().to_string(),
        ]);
    }
    summary.row_strings(vec![
        "TOTAL".into(),
        if outcomes.iter().any(|o| o.error.is_some()) {
            "PANIC".into()
        } else {
            "ok".into()
        },
        f(total_elapsed_ms),
        outcomes
            .iter()
            .map(|o| o.ios.reads)
            .sum::<u64>()
            .to_string(),
        outcomes
            .iter()
            .map(|o| o.ios.writes)
            .sum::<u64>()
            .to_string(),
        outcomes
            .iter()
            .map(|o| o.ios.total())
            .sum::<u64>()
            .to_string(),
    ]);
    summary.print();

    if let Some(json_path) = json_path {
        let json = render_json(scale, threads, total_elapsed_ms, &outcomes);
        #[expect(
            clippy::disallowed_methods,
            reason = "benchmark result export, not block storage: \
                      nothing here survives into a recovered store"
        )]
        let written = std::fs::write(&json_path, json);
        match written {
            Ok(()) => eprintln!("wrote {json_path}"),
            Err(e) => {
                eprintln!("failed to write {json_path}: {e}");
                std::process::exit(1);
            }
        }
    }
    trace.finish();

    // Partial results were printed and written above; a panicked experiment
    // must still fail the run.
    let failed: Vec<_> = outcomes.iter().filter(|o| o.error.is_some()).collect();
    if !failed.is_empty() {
        for o in &failed {
            eprintln!(
                "experiment {} panicked: {}",
                o.name,
                o.error.as_deref().unwrap_or("unknown")
            );
        }
        std::process::exit(1);
    }
}

/// The value after `flag`, or a usage error naming what it needs.
fn value(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs {what}")))
}

/// Print `msg` and the usage line, and exit 2 without running anything.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: exp_all [--only <substring>] [--threads N] [--sequential] [--json PATH] [--trace PATH]");
    std::process::exit(2);
}

/// Hand-rolled JSON (the workspace has no serde): experiment name →
/// wall-clock and simulated I/Os, plus run metadata and cross-experiment
/// latency / I/O histograms (nearest-rank percentiles).
fn render_json(
    scale: Scale,
    threads: usize,
    total_elapsed_ms: f64,
    outcomes: &[ExpOutcome],
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(s, "  \"total_elapsed_ms\": {total_elapsed_ms:.1},");
    s.push_str("  \"experiments\": {\n");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = writeln!(
            s,
            "    \"{}\": {{ \"elapsed_ms\": {:.1}, \"reads\": {}, \"writes\": {}, \"total_ios\": {}, \"error\": {} }}{}",
            o.name,
            o.elapsed_ms,
            o.ios.reads,
            o.ios.writes,
            o.ios.total(),
            o.error.as_deref().map_or("null".to_string(), json_str),
            if i + 1 == outcomes.len() { "" } else { "," }
        );
    }
    s.push_str("  },\n");
    let mut elapsed = Histogram::new();
    let mut ios = Histogram::new();
    for o in outcomes {
        elapsed.push(o.elapsed_ms);
        ios.push(o.ios.total() as f64);
    }
    s.push_str("  \"histograms\": {\n");
    s.push_str(&render_histogram("elapsed_ms", &elapsed, ","));
    s.push_str(&render_histogram("total_ios", &ios, ""));
    s.push_str("  }\n}\n");
    s
}

/// One `"name": { p50, p95, p99, max, samples }` histogram entry.
fn render_histogram(name: &str, h: &Histogram, trailer: &str) -> String {
    format!(
        "    \"{name}\": {{ \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \"max\": {:.1}, \"samples\": {} }}{trailer}\n",
        h.p50(),
        h.p95(),
        h.p99(),
        h.max(),
        h.len()
    )
}

/// Quote a panic message as a JSON string literal.
fn json_str(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
