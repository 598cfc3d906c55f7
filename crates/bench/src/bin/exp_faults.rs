//! Experiment binary: E16, the chaos harness (DESIGN.md "Failure model").
//!
//! ```text
//! cargo run --release -p bench --bin exp_faults -- \
//!     [--fault-rate R]... [--retry-budget N]...
//! ```
//!
//! Each flag may repeat to form a sweep grid; without flags the registry
//! defaults run (rates 0/0.005/0.02/0.05 × budgets 0/1/3). The env vars
//! `FAULT_RATE` and `RETRY_BUDGET` seed the grids when the flags are
//! absent; `SCALE` works as for every other experiment binary.

fn main() {
    let mut rates: Vec<f64> = Vec::new();
    let mut budgets: Vec<u32> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fault-rate" => rates.push(
                args.next()
                    .and_then(|s| s.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .expect("--fault-rate needs a number in [0, 1]"),
            ),
            "--retry-budget" => budgets.push(
                args.next()
                    .and_then(|s| s.parse().ok())
                    .expect("--retry-budget needs a non-negative integer"),
            ),
            "--trace" => trace_path = Some(args.next().expect("--trace needs a path")),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: exp_faults [--fault-rate R]... [--retry-budget N]... [--trace PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let trace = bench::tracectl::TraceGuard::arm(trace_path);
    if rates.is_empty() {
        if let Some(r) = std::env::var("FAULT_RATE")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            rates.push(r);
        }
    }
    if budgets.is_empty() {
        if let Some(b) = std::env::var("RETRY_BUDGET")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            budgets.push(b);
        }
    }
    if rates.is_empty() {
        rates = vec![0.0, 0.005, 0.02, 0.05];
    }
    if budgets.is_empty() {
        budgets = vec![0, 1, 3];
    }

    let scale = bench::Scale::from_env(bench::Scale::Paper);
    bench::experiments::faults::run_faults(scale, &rates, &budgets).print();
    trace.finish();
}
