//! # bench — the experiment harness
//!
//! The paper is pure theory: it has no tables or figures. The "evaluation"
//! this crate regenerates is therefore the paper's *theorem set* — every
//! theorem, corollary and lemma is one experiment whose measured cost
//! curves must exhibit the shape the theory predicts (see DESIGN.md §4 for
//! the experiment index E1–E15 and EXPERIMENTS.md for recorded results).
//!
//! Each `exp_*` binary prints its tables; `exp_all` runs everything.
//! Costs are measured in the unit the theorems bound — simulated block
//! I/Os from [`emsim::CostModel`] — plus wall-clock in the criterion
//! benches (`benches/`).

pub mod experiments;
pub mod parallel;
pub mod table;
pub mod tracectl;
pub mod traffic;

pub use table::Table;

/// Experiment scale, from the `SCALE` env var: `smoke` (CI-fast, default
/// for tests), `paper` (default for binaries), or `full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: tiny sizes, for CI.
    Smoke,
    /// The default for the `exp_*` binaries: minutes in release mode.
    Paper,
    /// Larger sweeps.
    Full,
}

impl Scale {
    /// Read `SCALE` from the environment with the given default.
    pub fn from_env(default: Scale) -> Scale {
        match std::env::var("SCALE").as_deref() {
            Ok("smoke") => Scale::Smoke,
            Ok("paper") => Scale::Paper,
            Ok("full") => Scale::Full,
            _ => default,
        }
    }

    /// Scale a size by the level (smoke = s/8, full = 4s).
    pub fn n(&self, paper: usize) -> usize {
        match self {
            Scale::Smoke => (paper / 8).max(256),
            Scale::Paper => paper,
            Scale::Full => paper * 4,
        }
    }

    /// Scale a trial count.
    pub fn trials(&self, paper: usize) -> usize {
        match self {
            Scale::Smoke => (paper / 10).max(5),
            Scale::Paper => paper,
            Scale::Full => paper * 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parsing_defaults() {
        // Cannot mutate env safely in parallel tests; just check defaults.
        assert_eq!(Scale::Smoke.n(8_000), 1_000);
        assert_eq!(Scale::Paper.n(8_000), 8_000);
        assert_eq!(Scale::Full.n(8_000), 32_000);
        assert_eq!(Scale::Smoke.trials(100), 10);
    }

    /// Every experiment must run end-to-end at smoke scale, through the
    /// parallel harness (which also buffers their tables).
    #[test]
    fn all_experiments_smoke() {
        let exps = parallel::all_experiments();
        let outcomes = parallel::run_experiments(exps, Scale::Smoke, parallel::default_threads());
        assert_eq!(outcomes.len(), exps.len());
        for o in &outcomes {
            assert!(
                o.error.is_none(),
                "experiment {} panicked: {:?}",
                o.name,
                o.error
            );
            assert!(
                !o.table.is_empty(),
                "experiment {} produced an empty table",
                o.name
            );
        }
    }
}
