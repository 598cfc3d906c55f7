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
//! The fault-free baseline is the committed golden logical-I/O counts
//! (`crates/bench/golden_smoke_ios.json`), which
//! `tests/parallel_harness.rs` holds a fault-free run on the default
//! device to, on one thread and on 4. A run on a shared `FileDevice` and
//! the chaos runs must charge the same I/Os per experiment: drift in any
//! experiment's reads or writes, from a device or an armed plan, fails
//! the test gate.

mod common;

use std::sync::Arc;

use bench::parallel::{all_experiments, default_threads, run_experiments};
use bench::Scale;
use common::{golden, sorted_ios};
use emsim::{BlockDevice, FaultPlan, FileDevice, Substrate};

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the FileDevice run's scratch directory"
)]
fn registry_soaks_clean_under_injected_faults() {
    let exps = all_experiments();
    let threads = default_threads();
    let fault_free = Substrate {
        faults: FaultPlan::none(),
        ..Substrate::current()
    };
    let run_on = |substrate: Substrate| {
        let _default = substrate.install();
        run_experiments(exps, Scale::Smoke, threads)
    };
    let golden = golden();

    let dir = std::env::temp_dir().join(format!("fault-soak-file-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let file = Arc::new(FileDevice::open(&dir).expect("open a FileDevice in a fresh temp dir"));
    let on_file = run_on(Substrate {
        device: Some(file.clone()),
        ..fault_free.clone()
    });
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
        golden,
        "(name, reads, writes) on a FileDevice drifted from golden_smoke_ios.json"
    );

    for rate in [0.02, 0.2] {
        let soaked = run_on(Substrate {
            faults: FaultPlan::chaos(7, rate),
            ..fault_free.clone()
        });
        assert_eq!(soaked.len(), exps.len());
        for soak in &soaked {
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
        }
        assert_eq!(
            sorted_ios(&soaked),
            golden,
            "meter drift under an armed (but unconsulted) plan, rate {rate}"
        );
    }
}
