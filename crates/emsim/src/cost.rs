//! The I/O cost meter shared by every structure in the workspace.
//!
//! A [`CostModel`] fixes the EM parameters `B` (words per block) and `M`
//! (words of memory), counts block reads and writes, and optionally routes
//! every access through an LRU buffer pool of `M/B` frames so that re-reads
//! of memory-resident blocks are free — exactly the accounting of the
//! Aggarwal–Vitter model the paper works in (§1.1).
//!
//! # Concurrency
//!
//! The meter is `Send + Sync`: counters are atomics, the buffer pool and
//! the trace sit behind mutexes, so one `CostModel` may be hammered from
//! many threads and the totals stay exact. For parallel *measurements*
//! (concurrent experiment trials that must each see a deterministic,
//! isolated buffer pool) use [`CostModel::scoped`], which hands each
//! trial a private child meter whose totals roll up into the parent when
//! the [`ScopedMeter`] drops — no lock contention on the hot `touch`
//! path, and per-meter pool hits stay deterministic regardless of how
//! trials interleave.
//!
//! Every charge is additionally tallied into a plain thread-local
//! ([`thread_charged`]) so a harness can attribute total I/Os to whatever
//! ran on the current thread without threading a meter through every
//! call; [`credit_thread`] folds a worker thread's tally back into its
//! parent's.

use std::cell::Cell;
use std::collections::HashMap;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use crate::sync::{Arc, Mutex, MutexGuard};

use crate::device::{self, BlockDevice, BlockId, DeviceClass};
use crate::error::EmError;
use crate::fault::{FaultPlan, Retrier};
use crate::kernels::Backend;
use crate::pool::LruPool;
use crate::substrate::Substrate;
use crate::trace::{self, CostReport, RecordingSink, SpanGuard, TraceEvent, TraceSink};

/// Lock a mutex, recovering from poisoning: the protected state (counters,
/// LRU recency lists, fault plans) stays internally consistent across a
/// panic, so a worker thread that dies mid-experiment must not cascade the
/// poison into every other experiment sharing the meter.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The array id of the buffer-pool frames that [`CostModel::hold_scratch`]
/// holds as working space. No structure has it, and nothing under it is
/// ever read, written or mirrored to the device.
pub const SCRATCH_ARRAY: u64 = u64::MAX;

/// The buffer-pool policy a [`CostModel`] is built with. The pool is
/// always one exact-LRU pool behind a single mutex: golden I/O baselines
/// (`golden_smoke_ios.json`) and the fault-soak determinism checks are
/// recorded against exact-LRU residency, so its hit/miss outcomes are what
/// those pins mean. The enum has one variant so that callers of
/// [`CostModel::with_device`] that name it keep compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Exact LRU over `M/B` frames.
    #[default]
    Lru,
}

/// Parameters of the external-memory machine.
///
/// The paper assumes `B ≥ 64` for its constants to work out ((10), (11) in
/// §3.2) and `M ≥ 2B`; [`EmConfig::new`] does not enforce the former so that
/// the RAM model (`B = O(1)`, §1.1) can be simulated with the same code, but
/// reduction implementations that rely on `B ≥ 64` assert it themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmConfig {
    /// Words per disk block (the paper's `B`).
    pub b: usize,
    /// Number of block frames the buffer pool may hold (`M/B`).
    /// `0` disables caching entirely: every block touch is one I/O.
    pub mem_blocks: usize,
}

impl EmConfig {
    /// A machine with block size `b` words and no buffer pool.
    pub fn new(b: usize) -> Self {
        assert!(b >= 1, "block size must be positive");
        EmConfig { b, mem_blocks: 0 }
    }

    /// A machine with block size `b` and a buffer pool of `mem_blocks` frames.
    pub fn with_memory(b: usize, mem_blocks: usize) -> Self {
        assert!(b >= 1, "block size must be positive");
        EmConfig { b, mem_blocks }
    }

    /// The RAM model: unit-size blocks, no cache (§1.1: "by setting M and B
    /// to appropriate constants, all our EM results also hold in RAM").
    pub fn ram() -> Self {
        EmConfig { b: 1, mem_blocks: 0 }
    }

    /// How many `T` items fit in one block (at least 1; a word is 8 bytes).
    pub fn items_per_block<T>(&self) -> usize {
        let words = std::mem::size_of::<T>().div_ceil(8).max(1);
        (self.b / words).max(1)
    }
}

thread_local! {
    static THREAD_READS: Cell<u64> = const { Cell::new(0) };
    static THREAD_WRITES: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative I/Os charged *by the current thread* across every meter it
/// has touched since the thread started. Monotone; diff two snapshots to
/// attribute the I/Os of a code region without plumbing a meter into it.
pub fn thread_charged() -> IoReport {
    IoReport {
        reads: THREAD_READS.with(Cell::get),
        writes: THREAD_WRITES.with(Cell::get),
        ..IoReport::default()
    }
}

/// Add externally-measured charges to the current thread's tally — used by
/// fan-out helpers to credit worker threads' I/Os back to the thread that
/// spawned them, so [`thread_charged`] deltas stay exact across nested
/// parallelism.
pub fn credit_thread(r: IoReport) {
    THREAD_READS.with(|c| c.set(c.get() + r.reads));
    THREAD_WRITES.with(|c| c.set(c.get() + r.writes));
}

fn tally_reads(n: u64) {
    THREAD_READS.with(|c| c.set(c.get() + n));
}

fn tally_writes(n: u64) {
    THREAD_WRITES.with(|c| c.set(c.get() + n));
}

/// Allocator of per-meter device namespaces ([`BlockId::ns`]): deliberately
/// a plain `std` atomic even under loom (like `OnceLock` in `sync.rs`) —
/// it is an id fountain with no interleaving to explore, and making it a
/// loom atomic would burn model state on every meter construction.
static NEXT_NS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[derive(Debug)]
struct Inner {
    config: EmConfig,
    reads: AtomicU64,
    writes: AtomicU64,
    pool: Mutex<LruPool>,
    next_array_id: AtomicU64,
    /// The physical storage under this meter (see [`crate::device`]),
    /// always behind a [`device::CountingDevice`] so physical operations
    /// and payload bytes land on one shared ledger. The meter itself never
    /// charges device traffic — metering stays purely logical, which is
    /// what keeps golden baselines device-independent.
    device: Arc<device::CountingDevice>,
    /// This meter's namespace on the (possibly shared) device: array ids
    /// restart at 0 per meter, so the namespace is what keeps two meters'
    /// arrays from colliding on one `FileDevice`.
    ns: u64,
    /// The kernel backend this meter's selections run on.
    kernels: Backend,
    /// Fast path: `try_fetch` reads nothing back from the device unless
    /// the device wants read-back verification (file-backed class, or
    /// armed device fault kinds).
    device_checked: AtomicBool,
    /// Fast path: skip the trace mutex entirely unless tracing is on.
    tracing: AtomicBool,
    /// Per-array read counts, populated only while tracing is on.
    trace: Mutex<Option<HashMap<u64, u64>>>,
    /// Injected faults observed so far (failed reads + detected corruption).
    faults: AtomicU64,
    /// Fast path: skip the fault-plan mutex unless a plan is armed, so the
    /// fault-free configuration charges exactly as before the fault layer
    /// existed (no meter drift).
    faults_active: AtomicBool,
    /// The fault plan consulted by [`CostModel::try_fetch`] and the
    /// sentinel check of [`CostModel::read`].
    fault: Mutex<FaultPlan>,
    /// Fast path: skip the sink mutex entirely unless a structured trace
    /// sink is armed ([`CostModel::set_trace_sink`]) — the disabled-path
    /// cost of the whole `emsim::trace` subsystem is this one load.
    sink_active: AtomicBool,
    /// The structured trace sink, if armed. Sinks are observational only:
    /// they never affect counters, pool residency or fault decisions, so
    /// I/O totals are identical with or without one.
    sink: Mutex<Option<Arc<dyn TraceSink>>>,
}

/// A cheaply-cloneable handle to the shared I/O meter.
///
/// All structures built against the same `CostModel` charge the same
/// counters, so a composite structure (e.g. a Theorem 1 reduction wrapping a
/// hierarchy of prioritized structures) is measured end to end. The handle
/// is `Send + Sync`; see the module docs for the concurrency model.
#[derive(Clone, Debug)]
pub struct CostModel {
    inner: Arc<Inner>,
}

/// How a structure reads its blocks: the read mode of [`CostModel::read`].
/// Every `BlockArray` accessor has one body that takes a `Media`;
/// the infallible accessors pass [`Media::Perfect`].
#[derive(Clone, Copy, Debug)]
pub enum Media<'a> {
    /// Perfect media: never an `Err`, and the meter's fault plan and device
    /// are never consulted.
    Perfect,
    /// The meter's fault plan and device, retrying transient faults with
    /// this retrier.
    Retried(&'a Retrier),
}

/// A snapshot of the meter, as returned by [`CostModel::report`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoReport {
    /// Block reads charged so far.
    pub reads: u64,
    /// Block writes charged so far.
    pub writes: u64,
    /// Buffer-pool hits (free re-reads) observed so far.
    pub pool_hits: u64,
    /// Buffer-pool misses (reads that cost an I/O) observed so far.
    pub pool_misses: u64,
    /// Injected faults observed so far: failed `try_fetch` reads plus
    /// sentinel mismatches detected by [`CostModel::read`]. Each faulted read
    /// still counts in `reads` (the I/O was spent), so `faults` measures
    /// how much of the read traffic was wasted on failures.
    pub faults: u64,
}

impl IoReport {
    /// Total I/Os (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of pool-routed accesses that hit (free): `hits / (hits +
    /// misses)`, or `0.0` when nothing went through the pool.
    pub fn hit_rate(&self) -> f64 {
        let accesses = self.pool_hits + self.pool_misses;
        if accesses == 0 {
            0.0
        } else {
            self.pool_hits as f64 / accesses as f64
        }
    }

    /// Component-wise difference (`self` must be a later snapshot of the
    /// same meter than `earlier`).
    pub fn since(&self, earlier: &IoReport) -> IoReport {
        IoReport {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            faults: self.faults - earlier.faults,
        }
    }
}

impl std::ops::Add for IoReport {
    type Output = IoReport;
    fn add(self, rhs: IoReport) -> IoReport {
        IoReport {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            pool_hits: self.pool_hits + rhs.pool_hits,
            pool_misses: self.pool_misses + rhs.pool_misses,
            faults: self.faults + rhs.faults,
        }
    }
}

impl CostModel {
    /// Create a meter for the given machine on the process-default
    /// [`Substrate`] ([`Substrate::current`]).
    pub fn new(config: EmConfig) -> Self {
        CostModel::with_substrate(config, Substrate::current())
    }

    /// Create a meter on the default substrate whose fallible accessors
    /// are subject to `plan`.
    pub fn with_faults(config: EmConfig, plan: FaultPlan) -> Self {
        CostModel::with_substrate(config, Substrate { faults: plan, ..Substrate::current() })
    }

    /// Create a meter on `substrate`: its shared file store, or a private
    /// [`crate::MemDevice`] armed with its plan when it has none, and its
    /// kernel backend, fault plan and trace sink.
    pub fn with_substrate(config: EmConfig, substrate: Substrate) -> Self {
        let device: Arc<dyn BlockDevice> = match substrate.device {
            Some(file) => file,
            None => Arc::new(device::MemDevice::with_plan(substrate.faults)),
        };
        // One counting wrapper per meter family: physical traffic from this
        // meter and every `scoped` child lands on the same ledger, feeding
        // `physical()` and the EXPLAIN physical-bytes row.
        let device = Arc::new(device::CountingDevice::new(device));
        CostModel::with_counting(config, substrate.faults, substrate.kernels, substrate.trace, device)
    }

    /// Create a meter with fault plan `plan` on an explicit [`BlockDevice`],
    /// taking the kernel backend and trace sink from the default
    /// substrate; the pool is always exact LRU (see [`PoolPolicy`]).
    pub fn with_device(
        config: EmConfig,
        plan: FaultPlan,
        _policy: PoolPolicy,
        device: Arc<dyn BlockDevice>,
    ) -> Self {
        let substrate = Substrate::current();
        let device = Arc::new(device::CountingDevice::new(device));
        CostModel::with_counting(config, plan, substrate.kernels, substrate.trace, device)
    }

    /// Shared-ledger constructor: `scoped` children re-use the parent's
    /// [`device::CountingDevice`] rather than stacking a second wrapper.
    /// The plan is scope-filtered to the device's class
    /// ([`FaultPlan::for_class`]), so a file-scoped plan is inert on an
    /// in-memory meter and vice versa.
    fn with_counting(
        config: EmConfig,
        plan: FaultPlan,
        kernels: Backend,
        sink: Option<Arc<dyn TraceSink>>,
        device: Arc<device::CountingDevice>,
    ) -> Self {
        let plan = plan.for_class(device.class());
        let sink = sink.filter(|s| s.is_enabled());
        let device_checked = device.class() == DeviceClass::File || plan.has_device_faults();
        CostModel {
            inner: Arc::new(Inner {
                config,
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                pool: Mutex::new(LruPool::new(config.mem_blocks)),
                next_array_id: AtomicU64::new(0),
                device,
                ns: NEXT_NS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                kernels,
                device_checked: AtomicBool::new(device_checked),
                tracing: AtomicBool::new(false),
                trace: Mutex::new(None),
                faults: AtomicU64::new(0),
                faults_active: AtomicBool::new(plan.is_active()),
                fault: Mutex::new(plan),
                sink_active: AtomicBool::new(sink.is_some()),
                sink: Mutex::new(sink),
            }),
        }
    }

    /// Convenience: a meter for the RAM model.
    pub fn ram() -> Self {
        CostModel::new(EmConfig::ram())
    }

    /// The kernel backend this meter's selections run on.
    pub fn kernels(&self) -> Backend {
        self.inner.kernels
    }

    /// The fault plan governing this meter's `try_*` accesses.
    pub fn fault_plan(&self) -> FaultPlan {
        *lock_recover(&self.inner.fault)
    }

    /// Replace the fault plan (e.g. to arm faults mid-experiment or to
    /// disarm the substrate's plan with [`FaultPlan::none`]). The plan is
    /// scope-filtered to this meter's device class, exactly as at
    /// construction.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let plan = plan.for_class(self.inner.device.class());
        *lock_recover(&self.inner.fault) = plan;
        self.inner.faults_active.store(plan.is_active(), Relaxed);
        self.inner.device_checked.store(
            self.inner.device.class() == DeviceClass::File || plan.has_device_faults(),
            Relaxed,
        );
    }

    /// The physical device under this meter (the per-meter counting
    /// wrapper; pass it on so derived traffic stays on this ledger).
    pub fn device(&self) -> Arc<dyn BlockDevice> {
        self.inner.device.clone()
    }

    /// Physical traffic under this meter since construction: `pread` /
    /// `pwrite` / `sync` counts and payload bytes, from the shared
    /// [`device::DeviceLedger`]. Purely observational — nothing here feeds
    /// back into the logical meter, which is what keeps golden baselines
    /// device-independent.
    pub fn physical(&self) -> device::DeviceCounts {
        self.inner.device.counts()
    }

    /// This meter's namespace on the device (the [`BlockId::ns`] of every
    /// block its structures mirror).
    pub fn ns(&self) -> u64 {
        self.inner.ns
    }

    /// Mirror a block header image to the device, best-effort: mirroring
    /// is an unmetered shadow of the logical write (golden baselines must
    /// not move), so failures surface later — through
    /// [`CostModel::try_fetch`] read-back verification — rather than here.
    /// Durable persistence goes through [`CostModel::device`] directly and
    /// handles errors.
    ///
    /// The mirror is written only when the device
    /// [`can_damage`](BlockDevice::can_damage) a block: a fault-free
    /// [`crate::MemDevice`] would hand every image back intact, and an
    /// absent image verifies exactly like an intact one, so there the
    /// write (and the `image` encoding) is skipped and no `try_*` outcome
    /// changes.
    pub(crate) fn device_write(&self, array_id: u64, block: u64, image: impl FnOnce() -> Vec<u8>) {
        if !self.inner.device.can_damage() {
            return;
        }
        let id = BlockId { ns: self.inner.ns, array: array_id, block };
        let _ = self.inner.device.write(id, &image());
    }

    /// Record a fault detected *above* the disk read (a sentinel mismatch
    /// found by [`CostModel::read`]).
    pub fn record_fault(&self) {
        self.inner.faults.fetch_add(1, Relaxed);
        self.emit(TraceEvent::Fault);
    }

    /// Arm a structured trace sink: every subsequent metered event (block
    /// read, pool hit/miss, fault, retry) is attributed to the innermost
    /// open [`CostModel::span`] and forwarded to `sink`. Installing a
    /// [`trace::NoopSink`] (or any sink whose
    /// [`is_enabled`](TraceSink::is_enabled) is `false`) is equivalent to
    /// [`CostModel::clear_trace_sink`]. Sinks observe and never influence
    /// accounting, so I/O totals are identical with or without one.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) {
        if sink.is_enabled() {
            self.install_sink(Some(sink));
        } else {
            self.install_sink(None);
        }
    }

    /// Disarm the structured trace sink (back to the free no-op default).
    pub fn clear_trace_sink(&self) {
        self.install_sink(None);
    }

    /// The armed trace sink, if any.
    pub fn trace_sink(&self) -> Option<Arc<dyn TraceSink>> {
        if !self.inner.sink_active.load(Relaxed) {
            return None;
        }
        lock_recover(&self.inner.sink).clone()
    }

    fn install_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        // Order matters under concurrency: arm the flag only after the
        // sink is in place, and disarm it before removing the sink.
        match sink {
            Some(s) => {
                *lock_recover(&self.inner.sink) = Some(s);
                self.inner.sink_active.store(true, Relaxed);
            }
            None => {
                self.inner.sink_active.store(false, Relaxed);
                *lock_recover(&self.inner.sink) = None;
            }
        }
    }

    /// Forward one metered event to the sink, attributed to the innermost
    /// phase open on this thread. The disabled path is one relaxed load.
    #[inline]
    fn emit(&self, event: TraceEvent) {
        if self.inner.sink_active.load(Relaxed) {
            let sink = lock_recover(&self.inner.sink).clone();
            if let Some(sink) = sink {
                sink.event(trace::current_phase(), event);
            }
        }
    }

    /// Open a phase-labelled span: until the returned guard drops, every
    /// event this thread charges (to *any* meter) is attributed to `phase`
    /// — spans nest, and the innermost wins. With no sink armed this is
    /// free and the guard is inert. Labels should come from the
    /// [`trace::phase`] registry.
    ///
    /// ```
    /// use emsim::{CostModel, EmConfig};
    /// use emsim::trace::phase;
    ///
    /// let m = CostModel::new(EmConfig::new(64));
    /// let ((), report) = m.explain(|| {
    ///     let _g = m.span(phase::SCAN);
    ///     m.charge_reads(2);
    /// });
    /// assert_eq!(report.phase(phase::SCAN).reads, 2);
    /// ```
    pub fn span(&self, phase: &'static str) -> SpanGuard {
        if !self.inner.sink_active.load(Relaxed) {
            return SpanGuard { sink: None, phase, start: None };
        }
        let sink = lock_recover(&self.inner.sink).clone();
        let start = if let Some(s) = &sink {
            trace::push_phase(phase);
            s.span_begin(phase);
            Some(std::time::Instant::now())
        } else {
            None
        };
        SpanGuard { sink, phase, start }
    }

    /// Run `f` under a fresh [`RecordingSink`] and return its result with
    /// the EXPLAIN-style [`CostReport`] of everything it charged to this
    /// meter. The previously armed sink (if any) is restored afterwards;
    /// it does not see `f`'s events. Intended for one-query audits; see
    /// OBSERVABILITY.md for a worked walkthrough.
    pub fn explain<R>(&self, f: impl FnOnce() -> R) -> (R, CostReport) {
        let prev = self.trace_sink();
        let sink = Arc::new(RecordingSink::new());
        self.set_trace_sink(sink.clone());
        let before = self.physical();
        let out = f();
        let physical = self.physical().since(&before);
        self.install_sink(prev);
        let mut report = sink.report();
        report.physical = physical;
        (out, report)
    }

    /// The machine parameters.
    pub fn config(&self) -> EmConfig {
        self.inner.config
    }

    /// Words per block (`B`).
    pub fn b(&self) -> usize {
        self.inner.config.b
    }

    /// Allocate a fresh identifier for a block-addressed structure (a
    /// [`crate::BlockArray`], a tree's node arena, …) — used as the high
    /// bits of buffer-pool keys so distinct structures never collide.
    /// Ids count up from 0, so [`SCRATCH_ARRAY`] is never handed out.
    pub fn new_array_id(&self) -> u64 {
        self.inner.next_array_id.fetch_add(1, Relaxed)
    }

    /// Hold a working set of `items` items of type `T` in the buffer pool,
    /// if it fits: returns `true` when the meter has a pool and the set's
    /// `⌈items/B'⌉` blocks (`B'` items of `T` per block) are at most its
    /// frames. The blocks then become the pool's most recently used
    /// frames under [`SCRATCH_ARRAY`], displacing LRU residents like any
    /// admitted block, but they charge no read, count no pool hit or miss
    /// and emit no trace event: they are memory in use, not blocks read.
    /// Without a pool (`mem_blocks = 0`) there is no memory to hold
    /// anything, so this returns `false` and changes nothing.
    pub fn hold_scratch<T>(&self, items: usize) -> bool {
        let frames = self.inner.config.mem_blocks;
        if frames == 0 {
            return false;
        }
        let blocks = items.div_ceil(self.inner.config.items_per_block::<T>());
        if blocks > frames {
            return false;
        }
        lock_recover(&self.inner.pool).hold(SCRATCH_ARRAY, blocks as u64);
        true
    }

    /// An isolated child meter (same machine parameters, fresh counters and
    /// buffer pool) whose totals are added to `self` when the returned
    /// [`ScopedMeter`] is dropped. The idiom for concurrent trials: each
    /// trial charges its own child without contending on the parent's pool
    /// lock, and the parent's totals end up identical to a sequential run.
    pub fn scoped(&self) -> ScopedMeter {
        // The child inherits this meter's substrate as it stands now (not
        // the default): its fault plan, so a trial fanned out under an
        // explicitly-armed meter sees the same fault universe; its device,
        // so trials against a file-backed or counting store hit the same
        // store (the child still gets a private namespace on it); its
        // kernel backend; and its trace sink. (Rollup on drop absorbs raw
        // counters without re-emitting events, so the sink sees each
        // charge exactly once.)
        let child = CostModel::with_counting(
            self.inner.config,
            self.fault_plan(),
            self.inner.kernels,
            self.trace_sink(),
            self.inner.device.clone(),
        );
        ScopedMeter {
            child,
            parent: self.clone(),
        }
    }

    /// Add a finished sub-measurement to this meter's counters. (The
    /// buffer pool is unaffected; pool statistics are folded in.)
    pub fn absorb(&self, r: IoReport) {
        self.inner.reads.fetch_add(r.reads, Relaxed);
        self.inner.writes.fetch_add(r.writes, Relaxed);
        self.inner.faults.fetch_add(r.faults, Relaxed);
        lock_recover(&self.inner.pool).absorb_stats(r.pool_hits, r.pool_misses);
    }

    /// Charge the read of one specific block, going through the buffer pool:
    /// a pool hit is free, a miss costs one read I/O.
    ///
    /// This path models fault-free media — it never consults the fault plan
    /// and never fails. Use [`CostModel::try_fetch`] for fallible reads.
    pub fn touch(&self, array_id: u64, block_idx: u64) {
        let pooled = self.inner.config.mem_blocks != 0;
        if pooled && lock_recover(&self.inner.pool).access(array_id, block_idx) {
            self.emit(TraceEvent::PoolHit);
            return; // pool hit: free
        }
        self.inner.reads.fetch_add(1, Relaxed);
        tally_reads(1);
        self.trace_read(array_id);
        if pooled {
            self.emit(TraceEvent::PoolMiss);
        }
        self.emit(TraceEvent::Reads(1));
    }

    /// Fallible read of one specific block: disk-read `attempt` (0-based;
    /// a [`Retrier`] increments it) is submitted to the fault plan and, on a
    /// charged miss, the mirrored block image is read back from the device
    /// and its CRC verified, so torn writes and short reads injected *below*
    /// the meter surface here as [`EmError`]s on the logical address.
    ///
    /// * Pool hit: free and always succeeds — resident blocks are in
    ///   memory, immune to disk and device faults.
    /// * Miss with a successful read: one read I/O, block cached (exactly
    ///   like [`CostModel::touch`]).
    /// * Miss with an injected fault: one read I/O is still charged (the
    ///   failed attempt cost a disk round-trip — this is how retry cost
    ///   shows up in the meter), the block is *not* cached, the `faults`
    ///   counter is bumped, and the error is returned.
    /// * With no plan armed on a device that needs no read-back (the
    ///   default in-memory device) this is exactly [`CostModel::touch`] —
    ///   same charges, zero meter drift (the golden-baseline invariant).
    /// * When the device is read back, exactly one physical `read` is
    ///   issued per charged miss — the 1:1 correspondence E23's
    ///   simulator-validation table counts. A block with no mirror reads
    ///   back as absent, which verifies vacuously: mirroring is
    ///   best-effort, and skipped altogether on a device that cannot damage
    ///   a block (see `CostModel::device_write`).
    pub fn try_fetch(&self, array_id: u64, block_idx: u64, attempt: u32) -> Result<(), EmError> {
        let checked = self.inner.device_checked.load(Relaxed);
        let planned = self.inner.faults_active.load(Relaxed);
        if !checked && !planned {
            self.touch(array_id, block_idx);
            return Ok(());
        }
        let pooled = self.inner.config.mem_blocks != 0;
        if pooled && lock_recover(&self.inner.pool).probe(array_id, block_idx) {
            self.emit(TraceEvent::PoolHit);
            return Ok(());
        }
        let outcome = if planned {
            self.fault_plan().read_outcome(array_id, block_idx, attempt)
        } else {
            Ok(())
        };
        // The disk attempt happened either way: charge the read.
        self.inner.reads.fetch_add(1, Relaxed);
        tally_reads(1);
        self.emit(TraceEvent::Reads(1));
        if attempt > 0 {
            self.emit(TraceEvent::Retry);
        }
        let outcome = if checked {
            outcome.and_then(|()| self.device_verify(array_id, block_idx))
        } else {
            outcome
        };
        if pooled {
            match outcome {
                Ok(()) => lock_recover(&self.inner.pool).admit(array_id, block_idx),
                Err(_) => lock_recover(&self.inner.pool).record_miss(),
            }
            self.emit(TraceEvent::PoolMiss);
        }
        match outcome {
            Ok(()) => {
                self.trace_read(array_id);
                Ok(())
            }
            Err(e) => {
                self.inner.faults.fetch_add(1, Relaxed);
                self.emit(TraceEvent::Fault);
                Err(e)
            }
        }
    }

    /// Read one block of a structure on the given [`Media`] — the one read
    /// every [`crate::BlockArray`] accessor goes through.
    ///
    /// * [`Media::Perfect`] is [`CostModel::touch`]: it never fails and
    ///   never consults the fault plan or the device.
    /// * [`Media::Retried`] runs [`CostModel::try_fetch`] under the retrier,
    ///   then checks the block's sentinel. The sentinel is a checksum
    ///   derived from the block's address, which the simulator never
    ///   scrambles, so it reads back mismatched exactly on the blocks the
    ///   plan corrupted ([`FaultPlan::is_corrupted`]). A mismatch is counted
    ///   as a fault and surfaces as [`EmError::Corrupt`] instead of a wrong
    ///   answer.
    #[inline]
    pub fn read(&self, array_id: u64, block: u64, media: Media) -> Result<(), EmError> {
        match media {
            Media::Perfect => {
                self.touch(array_id, block);
                Ok(())
            }
            Media::Retried(retrier) => {
                retrier.run(|attempt| self.try_fetch(array_id, block, attempt))?;
                if self.inner.faults_active.load(Relaxed)
                    && self.fault_plan().is_corrupted(array_id, block)
                {
                    self.record_fault();
                    return Err(EmError::Corrupt { array_id, block });
                }
                Ok(())
            }
        }
    }

    /// One physical read of the mirrored image, with device failures mapped
    /// onto the logical `(array_id, block)` address (the device reports its
    /// own [`BlockId`] coordinates, which callers upstream don't know).
    fn device_verify(&self, array_id: u64, block: u64) -> Result<(), EmError> {
        let id = BlockId { ns: self.inner.ns, array: array_id, block };
        match self.inner.device.read(id) {
            Ok(_) => Ok(()),
            Err(EmError::Transient { .. }) => Err(EmError::Transient { array_id, block }),
            Err(EmError::Corrupt { .. }) => Err(EmError::Corrupt { array_id, block }),
            Err(e) => Err(e),
        }
    }

    /// Attribute one charged read to `array_id` if tracing is on.
    fn trace_read(&self, array_id: u64) {
        if self.inner.tracing.load(Relaxed) {
            if let Some(trace) = lock_recover(&self.inner.trace).as_mut() {
                *trace.entry(array_id).or_insert(0) += 1;
            }
        }
    }

    /// Start recording per-structure read counts (keyed by the array id each
    /// structure drew from [`CostModel::new_array_id`]). Resets any previous
    /// trace. Only `touch`-based reads are attributed; bulk `charge_*` calls
    /// have no structure identity.
    pub fn start_trace(&self) {
        *lock_recover(&self.inner.trace) = Some(HashMap::new());
        self.inner.tracing.store(true, Relaxed);
    }

    /// Stop tracing and return `(array_id, reads)` pairs, heaviest first.
    pub fn stop_trace(&self) -> Vec<(u64, u64)> {
        self.inner.tracing.store(false, Relaxed);
        let map = lock_recover(&self.inner.trace).take().unwrap_or_default();
        let mut v: Vec<(u64, u64)> = map.into_iter().collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    /// Charge `n` read I/Os unconditionally (for sequential scans, whose
    /// blocks would evict each other anyway).
    pub fn charge_reads(&self, n: u64) {
        self.inner.reads.fetch_add(n, Relaxed);
        tally_reads(n);
        if n > 0 {
            self.emit(TraceEvent::Reads(n));
        }
    }

    /// Charge `n` write I/Os.
    pub fn charge_writes(&self, n: u64) {
        self.inner.writes.fetch_add(n, Relaxed);
        tally_writes(n);
        if n > 0 {
            self.emit(TraceEvent::Writes(n));
        }
    }

    /// Charge the cost of sequentially scanning `items` items of type `T`:
    /// `⌈items / (B/words(T))⌉` reads.
    pub fn charge_scan<T>(&self, items: usize) {
        if items == 0 {
            return;
        }
        let per = self.inner.config.items_per_block::<T>();
        self.charge_reads(items.div_ceil(per) as u64);
    }

    /// Read the counters.
    pub fn report(&self) -> IoReport {
        let (pool_hits, pool_misses) = lock_recover(&self.inner.pool).stats();
        IoReport {
            reads: self.inner.reads.load(Relaxed),
            writes: self.inner.writes.load(Relaxed),
            pool_hits,
            pool_misses,
            faults: self.inner.faults.load(Relaxed),
        }
    }

    /// Buffer-pool hit rate over everything charged so far (see
    /// [`IoReport::hit_rate`]).
    pub fn hit_rate(&self) -> f64 {
        self.report().hit_rate()
    }

    /// Zero the counters, including pool hit/miss statistics (the buffer
    /// pool *contents* are kept; use [`CostModel::clear_pool`] for a
    /// cold-cache measurement).
    pub fn reset(&self) {
        self.inner.reads.store(0, Relaxed);
        self.inner.writes.store(0, Relaxed);
        self.inner.faults.store(0, Relaxed);
        lock_recover(&self.inner.pool).reset_stats();
    }

    /// Empty the buffer pool, so the next measurement starts cold. Hit/miss
    /// statistics are kept; [`CostModel::reset`] zeroes those.
    pub fn clear_pool(&self) {
        lock_recover(&self.inner.pool).clear();
    }

    /// Run `f` and return its result together with the I/Os it charged.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, IoReport) {
        let before = self.report();
        let out = f();
        let after = self.report();
        (out, after.since(&before))
    }
}

/// An isolated child meter that rolls its totals up into the parent on
/// drop — see [`CostModel::scoped`]. Dereferences to the child
/// [`CostModel`], so it can be handed to anything expecting a meter.
#[derive(Debug)]
pub struct ScopedMeter {
    child: CostModel,
    parent: CostModel,
}

impl ScopedMeter {
    /// The child meter itself (also available via deref).
    pub fn meter(&self) -> &CostModel {
        &self.child
    }
}

impl std::ops::Deref for ScopedMeter {
    type Target = CostModel;
    fn deref(&self) -> &CostModel {
        &self.child
    }
}

impl Drop for ScopedMeter {
    fn drop(&mut self) {
        // The child's charges were already tallied on whatever thread made
        // them, so absorb only the meter counters (no thread re-tally).
        self.parent.absorb(self.child.report());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_per_block_rounds_down_but_is_positive() {
        let c = EmConfig::new(64);
        assert_eq!(c.items_per_block::<u64>(), 64);
        assert_eq!(c.items_per_block::<[u64; 4]>(), 16);
        // An item larger than a block still "fits" one per block.
        assert_eq!(c.items_per_block::<[u64; 100]>(), 1);
        // Sub-word items round up to one word.
        assert_eq!(c.items_per_block::<u8>(), 64);
    }

    #[test]
    fn charge_scan_matches_ceiling() {
        let m = CostModel::new(EmConfig::new(64));
        m.charge_scan::<u64>(0);
        assert_eq!(m.report().reads, 0);
        m.charge_scan::<u64>(1);
        assert_eq!(m.report().reads, 1);
        m.reset();
        m.charge_scan::<u64>(64);
        assert_eq!(m.report().reads, 1);
        m.reset();
        m.charge_scan::<u64>(65);
        assert_eq!(m.report().reads, 2);
    }

    #[test]
    fn pool_hits_are_free() {
        let m = CostModel::new(EmConfig::with_memory(64, 2));
        m.touch(0, 0);
        m.touch(0, 0);
        m.touch(0, 0);
        assert_eq!(m.report().reads, 1);
        m.touch(0, 1);
        m.touch(0, 2); // evicts block 0
        m.touch(0, 0); // miss again
        assert_eq!(m.report().reads, 4);
    }

    #[test]
    fn no_pool_means_every_touch_pays() {
        let m = CostModel::new(EmConfig::new(64));
        m.touch(0, 0);
        m.touch(0, 0);
        assert_eq!(m.report().reads, 2);
    }

    #[test]
    fn measure_is_differential() {
        let m = CostModel::ram();
        m.charge_reads(5);
        let ((), d) = m.measure(|| m.charge_reads(3));
        assert_eq!(d.reads, 3);
        assert_eq!(m.report().reads, 8);
    }

    #[test]
    fn ram_model_has_unit_blocks() {
        assert_eq!(EmConfig::ram().items_per_block::<u64>(), 1);
    }

    #[test]
    fn trace_attributes_touches_per_array() {
        let m = CostModel::new(EmConfig::new(64));
        let a = m.new_array_id();
        let b = m.new_array_id();
        m.start_trace();
        m.touch(a, 0);
        m.touch(a, 1);
        m.touch(b, 0);
        m.charge_reads(10); // untraced bulk charge
        let t = m.stop_trace();
        assert_eq!(t, vec![(a, 2), (b, 1)]);
        // Trace off: nothing recorded, nothing returned.
        m.touch(a, 2);
        assert!(m.stop_trace().is_empty());
    }

    #[test]
    fn trace_skips_pool_hits() {
        let m = CostModel::new(EmConfig::with_memory(64, 4));
        let a = m.new_array_id();
        m.start_trace();
        m.touch(a, 0);
        m.touch(a, 0); // hit — free, untraced
        assert_eq!(m.stop_trace(), vec![(a, 1)]);
    }

    #[test]
    fn hit_rate_tracks_pool_effectiveness() {
        let m = CostModel::new(EmConfig::with_memory(64, 4));
        assert_eq!(m.hit_rate(), 0.0);
        m.touch(0, 0); // miss
        m.touch(0, 0); // hit
        m.touch(0, 0); // hit
        m.touch(0, 1); // miss
        let r = m.report();
        assert_eq!(r.pool_hits, 2);
        assert_eq!(r.pool_misses, 2);
        assert_eq!(r.hit_rate(), 0.5);
        m.reset();
        assert_eq!(m.report().pool_hits, 0);
        // Charges that bypass the pool never count as accesses.
        let m2 = CostModel::new(EmConfig::new(64));
        m2.touch(0, 0);
        m2.charge_reads(5);
        assert_eq!(m2.hit_rate(), 0.0);
    }

    #[test]
    fn scoped_meter_rolls_up_on_drop() {
        let parent = CostModel::new(EmConfig::with_memory(64, 4));
        parent.charge_reads(2);
        {
            let trial = parent.scoped();
            trial.touch(0, 0); // child miss
            trial.touch(0, 0); // child hit
            trial.charge_writes(3);
            // Parent unchanged until the scope ends.
            assert_eq!(parent.report().reads, 2);
            assert_eq!(parent.report().writes, 0);
        }
        let r = parent.report();
        assert_eq!(r.reads, 3);
        assert_eq!(r.writes, 3);
        assert_eq!(r.pool_hits, 1);
        assert_eq!(r.pool_misses, 1);
    }

    #[test]
    fn scoped_meters_have_isolated_pools() {
        let parent = CostModel::new(EmConfig::with_memory(64, 2));
        parent.touch(7, 0); // resident in the parent pool
        let trial = parent.scoped();
        trial.touch(7, 0); // cold in the child pool: a miss, one read
        assert_eq!(trial.meter().report().reads, 1);
    }

    #[test]
    fn thread_tally_accumulates_charges() {
        let before = thread_charged();
        let m = CostModel::new(EmConfig::new(64));
        m.charge_reads(4);
        m.charge_writes(2);
        m.touch(0, 0);
        let d = thread_charged().since(&before);
        assert_eq!(d.reads, 5);
        assert_eq!(d.writes, 2);
        credit_thread(IoReport {
            reads: 10,
            ..IoReport::default()
        });
        assert_eq!(thread_charged().since(&before).reads, 15);
    }

    #[test]
    fn try_touch_with_inert_plan_charges_like_touch() {
        // Explicit none-plan meters, immune to any default plan a
        // concurrently-running test may have installed.
        let a = CostModel::with_faults(EmConfig::with_memory(64, 2), FaultPlan::none());
        let b = CostModel::with_faults(EmConfig::with_memory(64, 2), FaultPlan::none());
        for blk in [0u64, 0, 1, 2, 0, 1] {
            a.touch(0, blk);
            b.try_fetch(0, blk, 0).expect("inert plan never fails");
        }
        assert_eq!(a.report(), b.report(), "no meter drift from the fallible path");
        assert_eq!(a.report().faults, 0);
    }

    #[test]
    fn failed_reads_are_charged_counted_and_never_cached() {
        // Every block is permanently bad: each attempt costs one read,
        // bumps `faults`, counts a pool miss, and caches nothing.
        let plan = FaultPlan::new(5).with_permanent(1.0);
        let m = CostModel::with_faults(EmConfig::with_memory(64, 4), plan);
        for attempt in 0..3 {
            assert!(m.try_fetch(0, 7, attempt).is_err());
        }
        let r = m.report();
        assert_eq!(r.reads, 3, "each failed attempt is a real disk read");
        assert_eq!(r.faults, 3);
        assert_eq!(r.pool_misses, 3);
        assert_eq!(r.pool_hits, 0, "failed reads never cache the block");
        assert_eq!(r.hit_rate(), 0.0);
    }

    #[test]
    fn resident_blocks_are_immune_to_faults() {
        // Load the block under an inert plan, then arm total failure: the
        // pool hit must still succeed for free.
        let m = CostModel::with_faults(EmConfig::with_memory(64, 4), FaultPlan::none());
        m.touch(3, 0);
        m.set_fault_plan(FaultPlan::new(5).with_permanent(1.0));
        assert!(m.try_fetch(3, 0, 0).is_ok());
        let r = m.report();
        assert_eq!(r.reads, 1, "the hit was free");
        assert_eq!(r.pool_hits, 1);
        assert_eq!(r.faults, 0);
    }

    #[test]
    fn record_fault_feeds_the_fault_counter() {
        let m = CostModel::with_faults(EmConfig::new(64), FaultPlan::none());
        m.record_fault();
        m.record_fault();
        assert_eq!(m.report().faults, 2);
        m.reset();
        assert_eq!(m.report().faults, 0, "reset zeroes faults");
    }

    #[test]
    fn scoped_meter_rolls_up_faults_and_retried_reads() {
        // Satellite: retried reads must count as distinct I/Os in BOTH the
        // child and the parent meter, and fault counts must roll up too.
        let plan = FaultPlan::new(1).with_transient(1.0); // every attempt fails
        let parent = CostModel::with_faults(EmConfig::with_memory(64, 4), plan);
        {
            let trial = parent.scoped();
            assert!(
                trial.fault_plan().is_active(),
                "child inherits the parent's plan"
            );
            // A fail-fast sequence of 4 attempts (what Retrier::new(3) does).
            for attempt in 0..4 {
                assert!(trial.try_fetch(0, 0, attempt).is_err());
            }
            let c = trial.meter().report();
            assert_eq!(c.reads, 4, "child: one I/O per attempt");
            assert_eq!(c.faults, 4);
            assert_eq!(parent.report().reads, 0, "parent untouched until drop");
        }
        let p = parent.report();
        assert_eq!(p.reads, 4, "parent: retried reads preserved on rollup");
        assert_eq!(p.faults, 4);
        assert_eq!(p.pool_misses, 4);
        assert_eq!(p.hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_reflects_fault_wasted_misses() {
        // One good block re-read twice (1 miss + 2 hits), plus 2 failed
        // attempts on a bad block (2 misses): hit_rate = 2/5.
        let plan = FaultPlan::new(5).with_permanent(1.0);
        let m = CostModel::with_faults(EmConfig::with_memory(64, 4), FaultPlan::none());
        m.touch(0, 0);
        m.touch(0, 0);
        m.touch(0, 0);
        m.set_fault_plan(plan);
        assert!(m.try_fetch(0, 9, 0).is_err());
        assert!(m.try_fetch(0, 9, 1).is_err());
        let r = m.report();
        assert_eq!((r.pool_hits, r.pool_misses), (2, 3));
        assert!((r.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn meter_survives_a_panicking_worker_thread() {
        // A thread that dies while holding the meter's internal locks must
        // not poison them for every other experiment sharing the meter
        // (the poisoned-lock cascade this PR fixes).
        let m = CostModel::new(EmConfig::with_memory(64, 4));
        m.start_trace();
        for mutex in ["pool", "trace", "fault"] {
            let m2 = m.clone();
            let joined = std::thread::spawn(move || {
                let _pool;
                let _trace;
                let _fault;
                match mutex {
                    // lock_recover (not lock().unwrap()) here too: a helper
                    // that unwraps would itself panic on a lock poisoned by
                    // an *earlier* iteration, defeating what this verifies.
                    "pool" => _pool = lock_recover(&m2.inner.pool),
                    "trace" => _trace = lock_recover(&m2.inner.trace),
                    _ => _fault = lock_recover(&m2.inner.fault),
                }
                panic!("worker dies holding the {mutex} lock");
            })
            .join();
            assert!(joined.is_err());
        }
        m.touch(0, 1); // poisoned pool + trace locks must be recovered
        assert_eq!(m.stop_trace(), vec![(0, 1)]);
        let _ = m.fault_plan();
        m.set_fault_plan(FaultPlan::none());
        m.absorb(IoReport::default());
        m.reset();
        m.clear_pool();
        assert_eq!(m.report().reads, 0);
    }

    #[test]
    fn scoped_child_gets_a_private_lru_pool_and_rolls_up() {
        let parent = CostModel::new(EmConfig::with_memory(64, 8));
        {
            let trial = parent.scoped();
            trial.touch(0, 0);
            trial.touch(0, 0); // resident in the child's pool: free
        }
        let r = parent.report();
        assert_eq!(r.reads, 1);
        assert_eq!((r.pool_hits, r.pool_misses), (1, 1));
        parent.touch(0, 0); // the child's residency never reached the parent
        assert_eq!(parent.report().reads, 2);
    }

    #[test]
    fn cost_model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CostModel>();
        assert_send_sync::<IoReport>();
        assert_send_sync::<ScopedMeter>();
    }
}
