//! # bench — the experiment harness
//!
//! The paper is pure theory: it has no tables or figures. The "evaluation"
//! this crate regenerates is therefore the paper's *theorem set* — every
//! theorem, corollary and lemma is one experiment whose measured cost
//! curves must exhibit the shape the theory predicts (see DESIGN.md §4 for
//! the experiment index E1–E23 and E25, and EXPERIMENTS.md for recorded
//! results).
//!
//! The `exp_all` binary runs the registry ([`parallel::all_experiments`]),
//! all of it or the entries `--only <substring>` names, and prints their
//! tables. Costs are measured in the unit the theorems bound — simulated
//! block I/Os from [`emsim::CostModel`] — plus wall-clock in the criterion
//! benches (`benches/`).

pub mod experiments;
pub mod parallel;
pub mod table;
pub mod tracectl;
pub mod traffic;

pub use table::Table;

/// Experiment scale, from the `SCALE` env var: `smoke` (CI-fast, the
/// scale the tests run) or `paper` (the default for `exp_all`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: tiny sizes, for CI.
    Smoke,
    /// The default for `exp_all`: minutes in release mode.
    Paper,
}

impl Scale {
    /// Read `SCALE` from the environment: `smoke` or `paper`, with unset
    /// or empty meaning `paper`. `None` for any other value.
    pub fn from_env() -> Option<Scale> {
        match std::env::var("SCALE").as_deref() {
            Err(std::env::VarError::NotPresent) | Ok("" | "paper") => Some(Scale::Paper),
            Ok("smoke") => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// Scale a size by the level (smoke = s/8).
    pub fn n(&self, paper: usize) -> usize {
        match self {
            Scale::Smoke => (paper / 8).max(256),
            Scale::Paper => paper,
        }
    }

    /// Scale a trial count.
    pub fn trials(&self, paper: usize) -> usize {
        match self {
            Scale::Smoke => (paper / 10).max(5),
            Scale::Paper => paper,
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
        assert_eq!(Scale::Smoke.trials(100), 10);
    }
}
