//! # emsim — an instrumented external-memory (EM) model substrate
//!
//! The paper ("Efficient Top-k Indexing via General Reductions", PODS'16)
//! analyzes every structure in the standard EM model of Aggarwal–Vitter:
//! a machine with `M` words of memory and a disk formatted into blocks of
//! `B` words; cost is the number of block I/Os. This crate *simulates* that
//! model so the reductions built on top can be measured in the exact unit
//! the theorems bound.
//!
//! Components:
//!
//! * [`CostModel`] — the shared I/O meter. Every index in the workspace is
//!   handed a `CostModel` at build time and charges block fetches to it.
//! * [`BlockArray`] — a typed array packed `⌊B / words(T)⌋` items per block;
//!   scans and random accesses charge the meter per *distinct block touched*,
//!   optionally filtered through a buffer pool of `M/B` frames. The pool is
//!   exact LRU ([`LruPool`]): golden I/O baselines depend on its residency.
//! * [`select`] — EM k-selection (`O(n/B)` I/Os expected, or only the
//!   `O(k/B)` output when the k survivors fit in the buffer pool), the
//!   primitive the paper invokes as "k-selection \[8\]" throughout §3–§4.
//! * [`kernels`] — branch-free hot-path kernels (partition,
//!   scan-for-threshold) behind `select`, dispatched on the meter's
//!   [`Backend`]; answers and metered I/Os are bit-identical on every
//!   backend.
//! * [`sort`] — external merge sort with run formation in memory `M` and
//!   `M/B`-way merging.
//! * [`device`] — the physical storage layer under the meter: a
//!   [`BlockDevice`] trait with an in-memory simulator ([`MemDevice`],
//!   default) and a crash-safe file-backed store ([`FileDevice`]:
//!   append-only data file + checksummed, generation-stamped catalog
//!   committed via write-temp/fsync/rename). Metering stays purely
//!   logical — the device never moves a golden baseline — and E23
//!   validates the meter against counted physical I/Os
//!   ([`CostModel::physical`]).
//! * [`fault`] / [`error`] — deterministic fault injection ([`FaultPlan`])
//!   with typed failures ([`EmError`]) and bounded-retry recovery
//!   ([`Retrier`]). Every [`BlockArray`] accessor reads its blocks
//!   through one [`CostModel::read`], in a [`Media`] mode:
//!   [`Media::Perfect`] (the infallible accessors) never consults the plan,
//!   while the `try_*` accessors on [`Media::Retried`] retry transient
//!   faults and surface the rest, corruption included, as errors.
//! * [`trace`] — zero-cost-when-disabled structured tracing: phase-labelled
//!   spans ([`CostModel::span`]), pluggable [`TraceSink`]s, EXPLAIN-style
//!   [`CostReport`]s ([`CostModel::explain`]), and Chrome-trace /
//!   Prometheus exporters. See OBSERVABILITY.md.
//! * [`sync`] — the workspace's only atomics: the `Relaxed`-only
//!   [`sync::Counter`] and [`sync::Flag`].
//! * [`substrate`] — the one value ([`Substrate`]) naming what a meter
//!   runs on: device, kernel backend, fault plan and trace sink. Each
//!   meter owns one and its scoped children inherit it; [`CostModel::new`]
//!   takes the process default, parsed once from `EMSIM_DEVICE`,
//!   `EMSIM_DATA_DIR`, `EMSIM_KERNELS`, `FAULT_RATE` and `FAULT_SEED`.
//!
//! The RAM model is obtained, exactly as in §1.1 of the paper, by setting
//! `B` (and `M`) to small constants.
//!
//! `unsafe` is forbidden in this crate, as in every workspace member
//! (`unsafe_code = "forbid"` in the root manifest).

pub mod block;
pub mod cost;
pub mod device;
pub mod error;
pub mod fault;
pub mod kernels;
pub mod pool;
pub mod select;
pub mod sort;
pub mod substrate;
pub mod sync;
pub mod trace;

pub use block::{BlockArray, Persist};
pub use cost::{
    credit_thread, thread_charged, CostModel, EmConfig, IoReport, Media, PoolPolicy, ScopedMeter,
};
pub use device::{
    BlockDevice, BlockId, CountingDevice, DeviceClass, DeviceCounts, DeviceLedger, FileDevice,
    MemDevice, RecoveryReport,
};
pub use error::EmError;
pub use fault::{FaultPlan, FaultScope, Retrier};
pub use kernels::{active_backend, Backend};
pub use pool::LruPool;
pub use substrate::{Substrate, SubstrateGuard};
pub use trace::{
    phase_scope, ChromeTraceSink, CostReport, Histogram, NoopSink, Phase, PhaseScope, PhaseStats,
    RecordingSink, SpanGuard, TraceEvent, TraceSink,
};
