//! # xtask — the workspace's own tooling
//!
//! `cargo xtask experiments` ([`experiments`]) compares the tables in
//! EXPERIMENTS.md with what `exp_all` prints at paper scale.
//!
//! The workspace invariants that once had a lexer-based checker here are
//! kept by the compiler and clippy instead (see DESIGN.md §9): phase labels
//! are `emsim::trace::Phase` values, atomics are the `Relaxed`-only
//! `emsim::sync` types, lint exceptions are `#[expect(lint, reason = "…")]`,
//! and the root `clippy.toml` confines `std::fs` and sync calls to scoped,
//! reasoned expectations.

pub mod experiments;
