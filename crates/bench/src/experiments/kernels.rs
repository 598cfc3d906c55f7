//! E22: scalar-vs-kernel wall-clock per phase — the first experiment in
//! the repo's trajectory measuring *time*, not just I/O counts.
//!
//! The RAM-model regime (small `B`, §1.1): the paper's I/O bounds are
//! already met there, so raw CPU throughput of the `select`/`scan` phases
//! is the remaining cost. This experiment runs the same `u64`-key
//! selection and scan-for-threshold workloads once per kernel backend
//! (forced scalar, then the process default — the branch-free unrolled
//! kernels unless `EMSIM_KERNELS=scalar`) and reports per-phase wall-clock
//! from the trace layer's `SpanNanos` events, aggregated with the same
//! [`Histogram`] machinery `exp_all` embeds in `BENCH_results.json`.
//!
//! Two invariants are *asserted*, not just reported:
//!
//! * answers are bit-identical across backends (same `Vec<u64>`);
//! * metered I/O counts are bit-identical across backends (the stable
//!   branch-free partition preserves the quickselect pivot sequence).
//!
//! Wall-clock itself is only reported — CI machines are too noisy for a
//! hard speedup gate. The table reports the ratio; at paper
//! scale on a 2-core x86-64 VM the unrolled kernels run `select` about
//! 2× and `scan` about 5× faster than scalar (EXPERIMENTS.md E22).

use emsim::kernels::{self, Backend};
use emsim::trace::{phase, Histogram};
use emsim::{CostModel, EmConfig, Substrate};

use crate::table::{f, Table};
use crate::Scale;

/// Deterministic pseudo-random `u64` keys (splitmix-style).
fn keys(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// One backend's measurement: per-phase nanosecond histograms plus the
/// answers and I/O counts used for the cross-backend identity asserts.
struct Run {
    select_ns: Histogram,
    scan_ns: Histogram,
    answers: Vec<Vec<u64>>,
    survivors: usize,
    reads: u64,
    writes: u64,
}

fn run_backend(backend: Backend, items: &[u64], k: usize, trials: usize) -> Run {
    // RAM-model instantiation: B = 4 makes the meter charge ~n/4
    // reads per pass while the in-memory work dominates wall-clock.
    let substrate = Substrate {
        kernels: backend,
        ..Substrate::current()
    };
    let model = CostModel::with_substrate(EmConfig::new(4), substrate);
    let mut select_ns = Histogram::new();
    let mut scan_ns = Histogram::new();
    let mut answers = Vec::new();
    let mut survivors = 0usize;
    let threshold = u64::MAX / 2;
    for t in 0..trials {
        let ((), report) = model.explain(|| {
            {
                let _g = model.span(phase::SELECT);
                let out = emsim::select::top_k_by_weight(&model, items, k + t, |&x| x);
                answers.push(out);
            }
            {
                let _g = model.span(phase::SCAN);
                model.charge_scan::<u64>(items.len());
                survivors += kernels::filter_ge_indices(backend, items, threshold).len();
            }
        });
        select_ns.push(report.phase(phase::SELECT).nanos as f64);
        scan_ns.push(report.phase(phase::SCAN).nanos as f64);
    }
    let rep = model.report();
    Run {
        select_ns,
        scan_ns,
        answers,
        survivors,
        reads: rep.reads,
        writes: rep.writes,
    }
}

/// **E22.** Scalar-vs-kernel wall-clock per phase on a RAM-model
/// (`B = 4`) `u64`-key selection + scan workload.
pub fn exp_kernels(scale: Scale) -> Table {
    let n = scale.n(1 << 18);
    let k = 256usize.min(n / 4);
    let trials = scale.trials(30);
    let auto = kernels::active_backend();
    let mut t = Table::new(
        format!(
            "E22 — kernel dispatch ablation (RAM model B = 4, n = {n}, k = {k}, \
             {trials} trials; auto backend = {})",
            auto.name()
        ),
        &["phase", "backend", "p50 us", "p95 us", "speedup vs scalar"],
    );
    let items = keys(n, 0x22E);

    let scalar = run_backend(Backend::Scalar, &items, k, trials);
    let fast = run_backend(auto, &items, k, trials);

    // The point of the whole kernel layer: dispatch changes *time only*.
    assert_eq!(
        scalar.answers, fast.answers,
        "kernel backend changed a selection answer"
    );
    assert_eq!(
        scalar.survivors, fast.survivors,
        "kernel backend changed the scan survivor count"
    );
    assert_eq!(
        (scalar.reads, scalar.writes),
        (fast.reads, fast.writes),
        "kernel backend changed metered I/O counts"
    );

    for (ph, slow_h, fast_h) in [
        ("select", &scalar.select_ns, &fast.select_ns),
        ("scan", &scalar.scan_ns, &fast.scan_ns),
    ] {
        let rows: [(&str, &Histogram); 2] = [("scalar", slow_h), (auto.name(), fast_h)];
        for (name, h) in rows {
            t.row_strings(vec![
                ph.to_string(),
                name.to_string(),
                f(h.p50() / 1_000.0),
                f(h.p95() / 1_000.0),
                f(slow_h.p50() / h.p50().max(1.0)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e22_runs_and_asserts_identity_at_smoke_scale() {
        // The cross-backend identity asserts live inside the experiment;
        // reaching the return value means they all held.
        let _t = exp_kernels(Scale::Smoke);
    }
}
