//! # topk-core — the general top-k reductions of Rahul & Tao (PODS 2016)
//!
//! This crate implements the paper's primary contribution: two *black-box*
//! reductions that turn data structures for two easier problems into a data
//! structure for **top-k reporting**, for *any* polynomially-bounded
//! predicate family:
//!
//! * [`WorstCaseTopK`] (**Theorem 1**) — given only a *prioritized
//!   reporting* structure (report everything satisfying `q` with weight
//!   `≥ τ`), produces a top-k structure with the same asymptotic space and a
//!   query-time slowdown of at most `O(log_B n)`. Built from nested
//!   *top-k core-sets* ([`coreset`], Lemma 2) and a doubling ladder.
//! * [`ExpectedTopK`] (**Theorem 2**) — given a prioritized structure *and*
//!   a *max reporting* structure (top-1), produces a top-k structure with
//!   **no performance degradation in expectation**: space, query and update
//!   costs are all `O(·)` of the worse of the two inputs. Built from
//!   geometric `1/K_i` samples ([`sampling`], Lemma 3) and a round-based
//!   query procedure.
//!
//! Baselines from prior work are provided for the experiments:
//! [`BinarySearchTopK`] (the Rahul–Janardan reduction the paper improves,
//! achieving eqs. (1)–(2)), [`CountingTopK`] (their second reduction, §2:
//! top-k from reporting + approximate counting — the machinery behind the
//! "competing results" of §1.4), and [`ScanTopK`] (naive scan +
//! k-selection).
//! The converse reduction of §1.2 (prioritized from top-k) is
//! [`reverse::PrioritizedFromTopK`].
//!
//! Everything is generic over the element type `E` (`O(1)` words, distinct
//! `u64` weights — the paper's standing assumptions, §1.1) and the predicate
//! type `Q`, and charges its I/Os to an [`emsim::CostModel`].
//!
//! ## Robustness note
//!
//! Theorem 1's query algorithm relies on core-set properties that hold with
//! high probability over the build-time sampling. Our implementation
//! *detects* the (rare) failure events at query time — via the same
//! cost-monitored queries the paper uses — and falls back to a full
//! prioritized query, so answers are **always exact**; randomness affects
//! cost only. Theorem 2's round procedure is self-verifying in the paper
//! already (a round succeeds only when the fetched prefix provably contains
//! the top-k), and our implementation follows it literally.
//!
//! Separately, the reductions survive *injected I/O faults* (see
//! [`emsim::fault`]): the `try_query_topk` paths retry transient read
//! errors with a bounded [`Retrier`] and, when a structure stays
//! unreadable, degrade along an explicit ladder — coarser core-set level,
//! exact full prioritized query, partial visitor prefix — returning
//! [`TopKAnswer::Degraded`] rather than panicking or silently dropping
//! results. `Ok`-and-`Exact` answers match the fault-free output
//! bit-for-bit; this is asserted by the chaos experiments in `topk-bench`.

pub mod baseline;
pub mod batch;
pub mod brute;
pub mod coreset;
pub mod counting;
pub mod reverse;
pub mod sampling;
pub mod theorem1;
pub mod theorem2;
pub mod toy;
pub mod traits;

pub use baseline::{BinarySearchTopK, ScanTopK};
pub use batch::{locality_order, BatchKey, BatchTopK};
pub use coreset::{core_set, CoreSetParams};
pub use counting::{CountingTopK, RepCntBuilder, RepCntIndex, SampledCounter};
pub use emsim::{CostModel, EmConfig, EmError, FaultPlan, IoReport, Retrier};
pub use theorem1::{Theorem1Params, WorstCaseTopK};
pub use theorem2::{ExpectedTopK, Theorem2Params};
pub use traits::{
    log_b, DynamicIndex, Element, MaxBuilder, MaxIndex, Monitored, PrioritizedBuilder,
    PrioritizedIndex, TopKAnswer, TopKIndex, Weight,
};
