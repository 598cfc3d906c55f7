//! Chaos soak: the full experiment registry must survive an *armed* fault
//! plan — no panics, no missing tables — and, because the infallible
//! metering path never consults the plan, its I/O counts must stay
//! bit-identical to a fault-free run (the zero-drift guarantee of the
//! failure model; see DESIGN.md "Failure model").
//!
//! The chaos experiment (`faults`) installs its own explicit plans, so it
//! too is deterministic under the ambient plan; every other experiment
//! queries through the infallible accessors, which model perfect media.
//!
//! The fault-free baseline is also held to the committed golden logical-I/O
//! counts (`crates/bench/golden_smoke_ios.json`), so drift in any
//! experiment's reads or writes fails the test gate, not only CI.

use bench::parallel::{all_experiments, default_threads, run_experiments};
use bench::Scale;

#[test]
fn registry_soaks_clean_under_injected_faults() {
    let exps = all_experiments();
    let threads = default_threads();

    emsim::clear_global_plan();
    let baseline = run_experiments(exps, Scale::Smoke, threads);
    for o in &baseline {
        assert!(o.error.is_none(), "{} panicked fault-free: {:?}", o.name, o.error);
    }
    let mut measured: Vec<(String, u64, u64)> = baseline
        .iter()
        .map(|o| (o.name.to_string(), o.ios.reads, o.ios.writes))
        .collect();
    measured.sort();
    assert_eq!(
        measured,
        golden(),
        "fault-free (name, reads, writes) drifted from golden_smoke_ios.json"
    );

    for rate in [0.02, 0.2] {
        emsim::install_global_plan(emsim::FaultPlan::chaos(7, rate));
        let soaked = run_experiments(exps, Scale::Smoke, threads);
        emsim::clear_global_plan();

        for (base, soak) in baseline.iter().zip(&soaked) {
            assert!(
                soak.error.is_none(),
                "{} panicked under fault rate {rate}: {:?}",
                soak.name,
                soak.error
            );
            assert!(!soak.table.is_empty(), "{} lost its table at rate {rate}", soak.name);
            assert_eq!(
                (base.ios.reads, base.ios.writes),
                (soak.ios.reads, soak.ios.writes),
                "meter drift in {} under armed (but unconsulted) plan, rate {rate}",
                soak.name
            );
        }
    }
}

/// The committed golden counts as `(name, reads, writes)`, sorted by name.
/// A hand parser for the file's one shape,
/// `{"name": {"reads": R, "writes": W}, ...}`: the workspace has no JSON
/// dependency.
fn golden() -> Vec<(String, u64, u64)> {
    let text = include_str!("../crates/bench/golden_smoke_ios.json");
    let mut tokens = text
        .split(|c: char| c.is_whitespace() || "{}:,\"".contains(c))
        .filter(|t| !t.is_empty());
    let mut rows = Vec::new();
    while let Some(name) = tokens.next() {
        let mut field = |key: &str| {
            assert_eq!(tokens.next(), Some(key), "golden entry {name}");
            let value = tokens.next().unwrap_or_default();
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("golden {name}.{key} = {value:?}"))
        };
        let reads = field("reads");
        let writes = field("writes");
        rows.push((name.to_string(), reads, writes));
    }
    rows.sort();
    rows
}
