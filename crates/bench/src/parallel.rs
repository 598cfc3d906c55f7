//! Fan experiments and trial points out across threads.
//!
//! Two levels of parallelism, both built on `std::thread::scope` (no
//! external dependency):
//!
//! * [`run_experiments`] — the registry of independent experiments
//!   ([`all_experiments`]) is drained by a worker pool. Each experiment
//!   runs entirely on one worker and *returns* its [`Table`] instead of
//!   printing, so interleaved workers never garble stdout; the caller
//!   prints the buffered tables in E-order.
//! * [`map_trials`] — fans the independent trial points *inside* one
//!   experiment out across workers. Each trial must derive its RNG from
//!   the trial index (not from a shared sequential stream) so results are
//!   identical at any thread count.
//!
//! Determinism: experiments seed their own RNGs and meter their own
//! [`emsim::CostModel`]s, so I/O counts are bit-identical between
//! sequential (`threads = 1`) and parallel runs — asserted by
//! `tests/fault_soak.rs`. Per-experiment I/O totals are attributed
//! with [`emsim::thread_charged`] deltas; `map_trials` credits its
//! workers' charges back to the spawning thread so the attribution
//! survives nested fan-out.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use emsim::sync::Counter;
use emsim::IoReport;

use crate::experiments;
use crate::{Scale, Table};

/// A named, independently runnable experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Short name (matches the `exp_<name>` binary), used by `--only`.
    pub name: &'static str,
    /// The experiment body: runs at a scale, returns its results table.
    pub run: fn(Scale) -> Table,
}

/// The full registry, in the E-order of DESIGN.md §4.
pub fn all_experiments() -> &'static [Experiment] {
    &[
        Experiment {
            name: "lemma1",
            run: experiments::sampling::exp_lemma1,
        },
        Experiment {
            name: "lemma3",
            run: experiments::sampling::exp_lemma3,
        },
        Experiment {
            name: "coreset",
            run: experiments::sampling::exp_coreset,
        },
        Experiment {
            name: "theorem1",
            run: experiments::reductions::exp_theorem1,
        },
        Experiment {
            name: "theorem2",
            run: experiments::reductions::exp_theorem2,
        },
        Experiment {
            name: "baseline",
            run: experiments::baseline::exp_baseline,
        },
        Experiment {
            name: "interval",
            run: experiments::problems::exp_interval,
        },
        Experiment {
            name: "enclosure",
            run: experiments::problems::exp_enclosure,
        },
        Experiment {
            name: "dominance",
            run: experiments::problems::exp_dominance,
        },
        Experiment {
            name: "halfspace2d",
            run: experiments::problems::exp_halfspace2d,
        },
        Experiment {
            name: "halfspace_hd",
            run: experiments::problems::exp_halfspace_hd,
        },
        Experiment {
            name: "circular",
            run: experiments::problems::exp_circular,
        },
        Experiment {
            name: "updates",
            run: experiments::updates::exp_updates,
        },
        Experiment {
            name: "ablation_inner",
            run: experiments::ablation::exp_ablation_inner,
        },
        Experiment {
            name: "ablation_cascade",
            run: experiments::ablation::exp_ablation_cascade,
        },
        Experiment {
            name: "range2d",
            run: experiments::ablation::exp_range2d,
        },
        Experiment {
            name: "dominance_substrates",
            run: experiments::ablation::exp_dominance_substrates,
        },
        Experiment {
            name: "space",
            run: experiments::space::exp_space,
        },
        Experiment {
            name: "faults",
            run: experiments::faults::exp_faults,
        },
        Experiment {
            name: "batch",
            run: experiments::batch::exp_batch,
        },
        Experiment {
            name: "trace",
            run: experiments::trace::exp_trace,
        },
        Experiment {
            name: "kernels",
            run: experiments::kernels::exp_kernels,
        },
        Experiment {
            name: "persist",
            run: experiments::persist::exp_persist,
        },
        Experiment {
            name: "serve",
            run: experiments::serve::exp_serve,
        },
    ]
}

/// One finished experiment: its buffered table, wall-clock, and the I/Os
/// it charged (attributed via [`emsim::thread_charged`]; only `reads` and
/// `writes` are populated — pool statistics stay on the meters).
pub struct ExpOutcome {
    /// Registry name.
    pub name: &'static str,
    /// The experiment's buffered results table (not yet printed; empty when
    /// the experiment panicked).
    pub table: Table,
    /// Wall-clock of this experiment alone, in milliseconds.
    pub elapsed_ms: f64,
    /// Simulated I/Os charged while it ran.
    pub ios: IoReport,
    /// The panic message, if the experiment panicked instead of returning.
    /// A panicking experiment never takes down the run: the other entries
    /// still complete and report, and `exp_all` exits nonzero.
    pub error: Option<String>,
}

/// Render a `catch_unwind` payload as the panic message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker count: `BENCH_THREADS` env var if set, else
/// `available_parallelism()`.
pub fn default_threads() -> usize {
    match std::env::var("BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    }
}

/// Run `exps` at `scale` on up to `threads` workers and return their
/// outcomes in registry order. Output is fully buffered: nothing is
/// printed here.
pub fn run_experiments(exps: &[Experiment], scale: Scale, threads: usize) -> Vec<ExpOutcome> {
    let workers = threads.clamp(1, exps.len().max(1));
    let next = Counter::new(0);
    let slots: Vec<Mutex<Option<ExpOutcome>>> = exps.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.add(1) as usize;
                if i >= exps.len() {
                    break;
                }
                let exp = &exps[i];
                let io_before = emsim::thread_charged();
                let start = Instant::now();
                let (table, error) = match catch_unwind(AssertUnwindSafe(|| (exp.run)(scale))) {
                    Ok(table) => (table, None),
                    Err(payload) => (
                        Table::new(format!("{} (panicked)", exp.name), &[]),
                        Some(panic_message(payload)),
                    ),
                };
                let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
                let ios = emsim::thread_charged().since(&io_before);
                *slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(ExpOutcome {
                    name: exp.name,
                    table,
                    elapsed_ms,
                    ios,
                    error,
                });
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("worker exited without storing a result")
        })
        .collect()
}

/// Apply `f` to every `(index, input)` pair on up to `threads` workers and
/// return the results in input order.
///
/// `f` must derive any randomness from the index (or the input itself) so
/// the outcome is independent of scheduling. I/Os charged by the workers
/// are credited back to the calling thread's [`emsim::thread_charged`]
/// tally, so per-experiment attribution stays exact under nested fan-out.
pub fn map_trials<T, R, F>(inputs: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if threads <= 1 || inputs.len() <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let n = inputs.len();
    let workers = threads.min(n);
    let queue: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = Counter::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let charged = Mutex::new(IoReport::default());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let io_before = emsim::thread_charged();
                loop {
                    let i = next.add(1) as usize;
                    if i >= n {
                        break;
                    }
                    let input = queue[i]
                        .lock()
                        .expect("trial input poisoned")
                        .take()
                        .expect("trial input taken twice");
                    let out = f(i, input);
                    *slots[i].lock().expect("trial slot poisoned") = Some(out);
                }
                let delta = emsim::thread_charged().since(&io_before);
                let mut total = charged.lock().expect("charge tally poisoned");
                *total = *total + delta;
            });
        }
    });
    emsim::credit_thread(charged.into_inner().expect("charge tally poisoned"));
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("trial slot poisoned")
                .expect("worker exited without storing a trial result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::{CostModel, EmConfig};

    #[test]
    fn map_trials_preserves_order_and_results() {
        let inputs: Vec<u64> = (0..50).collect();
        let seq = map_trials(inputs.clone(), 1, |i, x| x * 2 + i as u64);
        let par = map_trials(inputs, 4, |i, x| x * 2 + i as u64);
        assert_eq!(seq, par);
        assert_eq!(seq[10], 30);
    }

    #[test]
    fn map_trials_credits_worker_ios_to_caller() {
        let before = emsim::thread_charged();
        map_trials((0..8).collect::<Vec<u32>>(), 4, |_, _| {
            let m = CostModel::new(EmConfig::new(64));
            m.charge_reads(5);
            m.charge_writes(1);
        });
        let d = emsim::thread_charged().since(&before);
        assert_eq!(d.reads, 40);
        assert_eq!(d.writes, 8);
    }

    /// Scoped child meters over pooled LRU meters roll up into the parent
    /// with zero drift: the parent's totals equal the sum of the per-trial
    /// reports exactly, and parallel fan-out is bit-identical to
    /// sequential.
    #[test]
    fn map_trials_scoped_pooled_meters_roll_up_without_drift() {
        let run = |threads: usize| {
            let parent = CostModel::new(EmConfig::with_memory(64, 8));
            let reports = map_trials((0..16u64).collect::<Vec<_>>(), threads, |i, x| {
                let trial = parent.scoped();
                for j in 0..(8 + i as u64 % 4) {
                    trial.touch(x, j % 4); // first touch of the block: miss
                    trial.touch(x, j % 4); // immediate re-touch: pool hit
                }
                trial.charge_writes(i as u64);
                trial.report()
            });
            (parent.report(), reports)
        };

        let (seq_total, seq_reports) = run(1);
        let (par_total, par_reports) = run(4);
        assert_eq!(seq_total, par_total, "thread count changed the totals");
        assert_eq!(seq_reports, par_reports, "thread count changed a trial");

        let sum = seq_reports
            .iter()
            .fold(IoReport::default(), |acc, r| acc + *r);
        assert_eq!(seq_total, sum, "parent totals drifted from child sum");
        assert!(sum.pool_hits > 0 && sum.pool_misses > 0);
    }

    #[test]
    fn panicking_experiment_is_captured_not_fatal() {
        fn boom(_: Scale) -> Table {
            panic!("injected failure")
        }
        fn fine(_: Scale) -> Table {
            let mut t = Table::new("ok", &["x"]);
            t.row_strings(vec!["1".into()]);
            t
        }
        let exps = [
            Experiment {
                name: "boom",
                run: boom,
            },
            Experiment {
                name: "fine",
                run: fine,
            },
        ];
        let out = run_experiments(&exps, Scale::Smoke, 2);
        assert_eq!(out.len(), 2);
        assert!(
            out[0]
                .error
                .as_deref()
                .unwrap_or_default()
                .contains("injected failure"),
            "panic message must be captured"
        );
        assert!(out[0].table.is_empty());
        assert!(out[1].error.is_none());
        assert_eq!(out[1].table.len(), 1);
    }

    #[test]
    fn registry_is_complete_and_uniquely_named() {
        let exps = all_experiments();
        assert_eq!(exps.len(), 24);
        let mut names: Vec<&str> = exps.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24, "duplicate experiment names");
    }
}
