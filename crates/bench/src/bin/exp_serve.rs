//! E25: the serving loop under open-loop traffic (see SERVING.md and
//! DESIGN.md §4).
//!
//! ```text
//! SCALE=smoke cargo run --release -p bench --bin exp_serve -- \
//!     [--json PATH] [--trace PATH]
//! ```
//!
//! Prints the E25 table (closed-loop golden half + open-loop qps×latency
//! half) and, with `--json`, writes the open-loop summary — throughput,
//! p50/p95/p99 latency, shed counts, degraded fractions, and the host
//! core count — for the CI serving job. Latency and qps numbers are
//! wall-clock and machine-dependent; only the closed-loop half is pinned
//! by the golden baselines.

use std::fmt::Write as _;

use bench::experiments::serve::run_detailed;
use bench::tracectl::TraceGuard;
use bench::Scale;

fn main() {
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            "--trace" => trace_path = Some(args.next().expect("--trace needs a path")),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: exp_serve [--json PATH] [--trace PATH]");
                std::process::exit(2);
            }
        }
    }
    let trace = TraceGuard::arm(trace_path);

    let scale = Scale::from_env(Scale::Paper);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    eprintln!("running E25 at {scale:?} scale ({cores} core(s))");
    let (table, summary) = run_detailed(scale);
    table.print();

    if let Some(path) = json_path {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
        let _ = writeln!(s, "  \"cores\": {cores},");
        let _ = writeln!(
            s,
            "  \"paced_offered_qps\": {:.1},",
            summary.paced_offered_qps
        );
        let _ = writeln!(s, "  \"paced_qps\": {:.1},", summary.paced_qps);
        let _ = writeln!(s, "  \"paced_p50_us\": {:.1},", summary.paced_p50_us);
        let _ = writeln!(s, "  \"paced_p95_us\": {:.1},", summary.paced_p95_us);
        let _ = writeln!(s, "  \"paced_p99_us\": {:.1},", summary.paced_p99_us);
        let _ = writeln!(s, "  \"paced_degraded\": {:.4},", summary.paced_degraded);
        let _ = writeln!(s, "  \"burst_qps\": {:.1},", summary.burst_qps);
        let _ = writeln!(s, "  \"burst_shed\": {},", summary.burst_shed);
        let _ = writeln!(s, "  \"burst_degraded\": {:.4},", summary.burst_degraded);
        let _ = writeln!(s, "  \"open_degraded\": {:.4}", summary.open_degraded);
        s.push_str("}\n");
        #[expect(
            clippy::disallowed_methods,
            reason = "benchmark result export, not block storage: \
                      nothing here survives into a recovered store"
        )]
        let written = std::fs::write(&path, s);
        match written {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    trace.finish();
}
