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
//!   exact LRU by default; [`PoolPolicy::ShardedClock`] swaps in a
//!   [`ShardedPool`] (per-shard locks, CLOCK eviction) for meters shared by
//!   many query threads.
//! * [`BTree`] — an external B-tree (fanout `Θ(B)`) with search, range
//!   reporting, insert and delete, charging one I/O per node visited.
//! * [`select`] — EM k-selection (`O(n/B)` I/Os expected), the primitive the
//!   paper invokes as "k-selection \[8\]" throughout §3–§4.
//! * [`kernels`] — branchless / SIMD hot-path kernels (partition,
//!   scan-for-threshold) behind `select`, runtime-dispatched per CPU and
//!   per key type with a generic fallback; answers and metered I/Os are
//!   bit-identical on every backend.
//! * [`sort`] — external merge sort with run formation in memory `M` and
//!   `M/B`-way merging.
//! * [`device`] — the physical storage layer under the meter: a
//!   [`BlockDevice`] trait with an in-memory simulator ([`MemDevice`],
//!   default) and a crash-safe file-backed store ([`FileDevice`]:
//!   append-only data file + checksummed, generation-stamped catalog
//!   committed via write-temp/fsync/rename). Metering stays purely
//!   logical — `EMSIM_DEVICE=mem|file` never moves a golden baseline —
//!   and E23 validates the meter against counted physical I/Os
//!   ([`CostModel::physical`]).
//! * [`fault`] / [`error`] — deterministic fault injection ([`FaultPlan`])
//!   with typed failures ([`EmError`]) and bounded-retry recovery
//!   ([`Retrier`]); the `try_*` accessors on [`BlockArray`] / [`BTree`]
//!   surface injected faults while the infallible API models perfect media.
//! * [`trace`] — zero-cost-when-disabled structured tracing: phase-labelled
//!   spans ([`CostModel::span`]), pluggable [`TraceSink`]s, EXPLAIN-style
//!   [`CostReport`]s ([`CostModel::explain`]), and Chrome-trace /
//!   Prometheus exporters. See OBSERVABILITY.md.
//!
//! The RAM model is obtained, exactly as in §1.1 of the paper, by setting
//! `B` (and `M`) to small constants.
//!
//! `unsafe` is denied crate-wide; the single exception is [`kernels`],
//! whose AVX2 intrinsics require it (each use is behind a runtime CPU
//! feature check).

pub mod block;
pub mod btree;
pub mod cost;
pub mod device;
pub mod error;
pub mod fault;
pub mod kernels;
pub mod pool;
pub mod select;
pub mod sharded;
pub mod sort;
pub(crate) mod sync;
pub mod trace;

pub use block::{BlockArray, Persist};
pub use btree::BTree;
pub use cost::{
    credit_thread, thread_charged, CostModel, EmConfig, IoReport, PoolPolicy, ScopedMeter,
};
pub use device::{
    BlockDevice, BlockId, CountingDevice, DeviceClass, DeviceCounts, DeviceLedger, FileDevice,
    MemDevice, RecoveryReport,
};
pub use error::EmError;
pub use fault::{
    ambient_plan, clear_global_plan, install_global_plan, FaultPlan, FaultScope, Retrier,
};
pub use kernels::{active_backend, with_backend, Backend, KernelKey, KeyType};
pub use pool::LruPool;
pub use sharded::ShardedPool;
pub use trace::{
    ambient_sink, clear_global_sink, install_global_sink, phase_scope, ChromeTraceSink, CostReport,
    Histogram, NoopSink, PhaseScope, PhaseStats, RecordingSink, SpanGuard, TraceEvent, TraceSink,
};
