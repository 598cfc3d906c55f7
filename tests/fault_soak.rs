//! Chaos soak: the full experiment registry must survive an *armed* fault
//! plan — no panics, no missing tables — and, because the infallible
//! metering path never consults the plan, its I/O counts must stay
//! bit-identical to a fault-free run (the zero-drift guarantee of the
//! failure model; see DESIGN.md "Failure model").
//!
//! The chaos experiment (`faults`) arms its own explicit plans, so it
//! too is deterministic under the default substrate's plan; every other
//! experiment queries through the infallible accessors, which model
//! perfect media.
//!
//! The fault-free run is also held to the committed golden logical-I/O
//! counts (`crates/bench/golden_smoke_ios.json`), on the default device
//! and again on a shared `FileDevice`, so drift in any experiment's reads
//! or writes, or a device that moves them, fails the test gate.

use std::sync::Arc;

use bench::parallel::{all_experiments, default_threads, run_experiments};
use bench::Scale;
use emsim::{BlockDevice, FaultPlan, FileDevice, Substrate};

#[test]
fn registry_soaks_clean_under_injected_faults() {
    let exps = all_experiments();
    let threads = default_threads();
    let fault_free = Substrate {
        faults: FaultPlan::none(),
        ..Substrate::current()
    };

    let baseline = {
        let _default = fault_free.clone().install();
        run_experiments(exps, Scale::Smoke, threads)
    };
    for o in &baseline {
        assert!(
            o.error.is_none(),
            "{} panicked fault-free: {:?}",
            o.name,
            o.error
        );
    }
    assert_eq!(
        sorted_ios(&baseline),
        golden(),
        "fault-free (name, reads, writes) drifted from golden_smoke_ios.json"
    );

    let dir = std::env::temp_dir().join(format!("fault-soak-file-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let file = Arc::new(FileDevice::open(&dir).expect("open a FileDevice in a fresh temp dir"));
    let on_file = {
        let _default = Substrate {
            device: Some(file.clone()),
            ..fault_free.clone()
        }
        .install();
        run_experiments(exps, Scale::Smoke, threads)
    };
    let mirrored = file.len();
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        mirrored > 0,
        "the registry mirrored no block to the FileDevice"
    );
    for o in &on_file {
        assert!(
            o.error.is_none(),
            "{} panicked on a FileDevice: {:?}",
            o.name,
            o.error
        );
    }
    assert_eq!(
        sorted_ios(&on_file),
        golden(),
        "(name, reads, writes) on a FileDevice drifted from golden_smoke_ios.json"
    );

    for rate in [0.02, 0.2] {
        let soaked = {
            let _default = Substrate {
                faults: FaultPlan::chaos(7, rate),
                ..fault_free.clone()
            }
            .install();
            run_experiments(exps, Scale::Smoke, threads)
        };
        for (base, soak) in baseline.iter().zip(&soaked) {
            assert!(
                soak.error.is_none(),
                "{} panicked under fault rate {rate}: {:?}",
                soak.name,
                soak.error
            );
            assert!(
                !soak.table.is_empty(),
                "{} lost its table at rate {rate}",
                soak.name
            );
            assert_eq!(
                (base.ios.reads, base.ios.writes),
                (soak.ios.reads, soak.ios.writes),
                "meter drift in {} under armed (but unconsulted) plan, rate {rate}",
                soak.name
            );
        }
    }
}

/// A run's `(name, reads, writes)`, sorted by name.
fn sorted_ios(outcomes: &[bench::parallel::ExpOutcome]) -> Vec<(String, u64, u64)> {
    let mut rows: Vec<(String, u64, u64)> = outcomes
        .iter()
        .map(|o| (o.name.to_string(), o.ios.reads, o.ios.writes))
        .collect();
    rows.sort();
    rows
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
