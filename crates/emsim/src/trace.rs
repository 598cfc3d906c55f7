//! Structured tracing and metrics for the I/O meter.
//!
//! The aggregate counters of [`CostModel`](crate::CostModel) answer *how
//! many* block I/Os a query cost; this module answers *where they went*.
//! Query code opens phase-labelled spans ([`CostModel::span`](crate::CostModel::span)) around its
//! stages — sampling pass, prioritized probe, τ-selection, degradation
//! retry — and every metered event (block read, pool hit/miss, injected
//! fault, retry attempt) is attributed to the innermost span open on the
//! charging thread and forwarded to the meter's [`TraceSink`].
//!
//! # Zero cost when disabled
//!
//! No sink is installed by default (equivalently: the [`NoopSink`] is in
//! effect), and every hook in the hot path is a single relaxed atomic-flag
//! load. Crucially, sinks are **purely observational**: they never touch
//! the pool, the counters, or the fault plan, so golden I/O baselines and
//! fault-soak determinism hold bit-for-bit even with a sink armed — the
//! property the CI trace-smoke job asserts.
//!
//! # Sinks
//!
//! * [`RecordingSink`] — accumulates a [`CostReport`] (phase →
//!   [`PhaseStats`]); the backend of
//!   [`CostModel::explain`](crate::CostModel::explain).
//! * [`ChromeTraceSink`] — records spans with wall-clock timestamps and
//!   renders Chrome-trace JSON (`chrome://tracing`, <https://ui.perfetto.dev>).
//! * [`NoopSink`] — discards everything; installing it is equivalent to
//!   having no sink.
//!
//! A meter starts with its [`Substrate`](crate::Substrate)'s sink, so a
//! harness can trace every meter it builds by installing a default
//! substrate with a sink ([`Substrate::install`](crate::Substrate::install))
//! — this is what `exp_all --trace` does.
//!
//! ```
//! use emsim::{CostModel, EmConfig};
//! use emsim::trace::phase;
//!
//! let m = CostModel::new(EmConfig::new(64));
//! let ((), report) = m.explain(|| {
//!     let _g = m.span(phase::PROBE);
//!     m.charge_reads(3);
//! });
//! assert_eq!(report.phase(phase::PROBE).reads, 3);
//! assert_eq!(report.total().reads, m.report().reads);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::cost::lock_recover;
use crate::sync::Counter;

/// A registered phase label. Its field is private, so the consts in
/// [`phase`] are the only values: every span opened anywhere carries one
/// of them, and sinks, tables and docs agree on the taxonomy (see
/// OBSERVABILITY.md). Extending the taxonomy means adding a const here
/// (and updating every exporter golden); no other crate can mint a label.
///
/// ```compile_fail
/// use emsim::trace::Phase;
/// use emsim::{CostModel, EmConfig};
///
/// const MINE: &Phase = &Phase("mine");
/// let m = CostModel::new(EmConfig::new(64));
/// let _g = m.span(MINE);
/// ```
///
/// A `Phase` dereferences to its label, and a `&str` compares equal to it,
/// so code that reads labels back from a [`TraceSink`] (which receives
/// plain `&'static str`s) matches them against the consts directly:
///
/// ```
/// use emsim::trace::phase;
///
/// let label: &'static str = phase::SELECT.label();
/// assert!(label == phase::SELECT);
/// assert_eq!(phase::SELECT.len(), "select".len());
/// ```
#[derive(Debug)]
pub struct Phase(&'static str);

impl Phase {
    /// The label sinks receive for this phase.
    pub const fn label(&self) -> &'static str {
        self.0
    }
}

impl std::ops::Deref for Phase {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl PartialEq<&Phase> for &str {
    fn eq(&self, other: &&Phase) -> bool {
        *self == other.0
    }
}

/// The phase registry: the only [`Phase`] values.
pub mod phase {
    use super::Phase;

    /// Structure construction: laying out arrays, building trees.
    pub const BUILD: &Phase = &Phase("build");
    /// Drawing or consulting a random sample (Theorem 2's sample ladder).
    pub const SAMPLE: &Phase = &Phase("sample");
    /// A monitored probe of an inner prioritized/max structure.
    pub const PROBE: &Phase = &Phase("probe");
    /// Threshold selection: k-selection / τ-computation over candidates.
    pub const SELECT: &Phase = &Phase("select");
    /// Sequential scan of a block array (the scan baseline, 2k ≥ n paths).
    pub const SCAN: &Phase = &Phase("scan");
    /// Verified exact fallback after the fast path failed or overflowed.
    pub const FALLBACK: &Phase = &Phase("fallback");
    /// A degradation-ladder rung taken after an unrecoverable fault.
    pub const DEGRADE: &Phase = &Phase("degrade");
    /// Rebuilding a structure (Theorem 2's drift-triggered rebuild).
    pub const REBUILD: &Phase = &Phase("rebuild");
    /// Batched execution machinery (locality ordering, shared scans).
    pub const BATCH: &Phase = &Phase("batch");
    /// Serving-loop queueing: group-commit window collection and the
    /// locality reorder before a batch executes (see SERVING.md).
    pub const QUEUE: &Phase = &Phase("queue");
    /// Serving-loop admission control: per-tenant budget verdicts taken at
    /// batch formation.
    pub const ADMIT: &Phase = &Phase("admit");
    /// Serving-loop load shedding: a request answered `Degraded` without
    /// touching the index (over-budget tenant or saturated queue).
    pub const SHED: &Phase = &Phase("shed");
    /// The catch-all phase for charges made outside any open span. Keeping
    /// it explicit is what makes per-phase totals sum *exactly* to the
    /// aggregate meter.
    pub const OTHER: &Phase = &Phase("other");
}

/// One metered event, forwarded to the [`TraceSink`] already attributed to
/// a phase. Counts mirror the aggregate [`IoReport`](crate::IoReport)
/// fields one-for-one, which is what makes per-phase sums reconcile with
/// the meter total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// `n` read I/Os were charged.
    Reads(u64),
    /// `n` write I/Os were charged.
    Writes(u64),
    /// A buffer-pool hit (a free re-read).
    PoolHit,
    /// A buffer-pool miss (a read that cost an I/O).
    PoolMiss,
    /// An injected fault was observed (failed read or detected corruption).
    Fault,
    /// A retried read attempt (disk attempt number > 0).
    Retry,
    /// A span closed after this many wall-clock nanoseconds (inclusive of
    /// nested spans). Emitted once per [`SpanGuard`] drop; the only
    /// non-deterministic field, and it never feeds back into I/O counts.
    SpanNanos(u64),
}

/// A consumer of trace events and span boundaries.
///
/// Implementations must be cheap and must never call back into the meter:
/// sinks are observational by contract (golden I/O baselines are asserted
/// bit-identical with a sink armed). All methods are invoked on whatever
/// thread charged the I/O.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// A metered event, attributed to the innermost span open on the
    /// charging thread (or [`phase::OTHER`] outside any span).
    fn event(&self, phase: &'static str, event: TraceEvent);

    /// A span labelled `phase` opened on the current thread.
    fn span_begin(&self, _phase: &'static str) {}

    /// The matching span closed (spans nest LIFO per thread).
    fn span_end(&self, _phase: &'static str) {}

    /// Whether installing this sink should arm the meter's trace hooks.
    /// [`NoopSink`] returns `false`, making it literally free.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The do-nothing sink: discards every event. Installing it is equivalent
/// to clearing the sink — [`TraceSink::is_enabled`] returns `false`, so the
/// meter's fast path stays a single atomic load.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn event(&self, _phase: &'static str, _event: TraceEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Per-phase event totals — one row of a [`CostReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Read I/Os charged in this phase.
    pub reads: u64,
    /// Write I/Os charged in this phase.
    pub writes: u64,
    /// Buffer-pool hits observed in this phase.
    pub pool_hits: u64,
    /// Buffer-pool misses observed in this phase.
    pub pool_misses: u64,
    /// Injected faults observed in this phase.
    pub faults: u64,
    /// Retried read attempts made in this phase.
    pub retries: u64,
    /// Wall-clock nanoseconds spent in spans labelled with this phase
    /// (inclusive: a nested span's time also counts toward its ancestors).
    /// Zero when the phase was only ever attributed via
    /// [`phase_scope`] (no span boundary, so no timing).
    pub nanos: u64,
}

impl PhaseStats {
    /// Total I/Os (reads + writes) in this phase.
    pub fn ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fold one event into the totals.
    pub fn absorb(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Reads(n) => self.reads += n,
            TraceEvent::Writes(n) => self.writes += n,
            TraceEvent::PoolHit => self.pool_hits += 1,
            TraceEvent::PoolMiss => self.pool_misses += 1,
            TraceEvent::Fault => self.faults += 1,
            TraceEvent::Retry => self.retries += 1,
            TraceEvent::SpanNanos(n) => self.nanos += n,
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: &PhaseStats) -> PhaseStats {
        PhaseStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            pool_hits: self.pool_hits + other.pool_hits,
            pool_misses: self.pool_misses + other.pool_misses,
            faults: self.faults + other.faults,
            retries: self.retries + other.retries,
            nanos: self.nanos + other.nanos,
        }
    }
}

/// An EXPLAIN-style cost attribution: phase label → [`PhaseStats`].
///
/// Phases are kept in a `BTreeMap` so rendering order (and therefore every
/// exported artifact) is deterministic regardless of thread interleaving.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Per-phase totals, keyed by phase label.
    pub phases: BTreeMap<&'static str, PhaseStats>,
    /// Physical device traffic over the report's window (filled in by
    /// [`CostModel::explain`](crate::CostModel::explain); zero for reports
    /// assembled straight from a [`RecordingSink`]). Physical counters are
    /// not attributed to phases — mirroring is asynchronous to spans — so
    /// they ride alongside the logical table rather than inside it.
    pub physical: crate::device::DeviceCounts,
}

impl CostReport {
    /// The totals for one phase (zero if the phase never appeared).
    pub fn phase(&self, name: &str) -> PhaseStats {
        self.phases.get(name).copied().unwrap_or_default()
    }

    /// Sum over all phases. When the report covers everything a meter
    /// charged, this equals the meter's aggregate
    /// [`report`](crate::CostModel::report) delta — the reconciliation the
    /// trace property test asserts.
    pub fn total(&self) -> PhaseStats {
        self.phases
            .values()
            .fold(PhaseStats::default(), |acc, p| acc.add(p))
    }

    /// Render as an EXPLAIN-style text table.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("EXPLAIN {title}\n");
        out.push_str(
            "  phase      reads  writes  pool_hit  pool_miss  faults  retries   time_us\n",
        );
        for (name, p) in &self.phases {
            let _ = writeln!(
                out,
                "  {name:<9} {:>6}  {:>6}  {:>8}  {:>9}  {:>6}  {:>7}  {:>8}",
                p.reads,
                p.writes,
                p.pool_hits,
                p.pool_misses,
                p.faults,
                p.retries,
                p.nanos / 1_000
            );
        }
        let t = self.total();
        let _ = writeln!(
            out,
            "  {:<9} {:>6}  {:>6}  {:>8}  {:>9}  {:>6}  {:>7}  {:>8}",
            "TOTAL",
            t.reads,
            t.writes,
            t.pool_hits,
            t.pool_misses,
            t.faults,
            t.retries,
            t.nanos / 1_000
        );
        let ph = &self.physical;
        if *ph != crate::device::DeviceCounts::default() {
            let _ = writeln!(
                out,
                "  physical: {} preads / {} pwrites / {} syncs, {} bytes read / {} bytes written",
                ph.preads, ph.pwrites, ph.syncs, ph.bytes_read, ph.bytes_written
            );
        }
        out
    }

    /// Render as a Prometheus-style text exposition (counter families
    /// `emsim_phase_{reads,writes,pool_hits,pool_misses,faults,retries,nanos}`
    /// with a `phase` label).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        type Field = fn(&PhaseStats) -> u64;
        let families: [(&str, Field); 7] = [
            ("emsim_phase_reads", |p| p.reads),
            ("emsim_phase_writes", |p| p.writes),
            ("emsim_phase_pool_hits", |p| p.pool_hits),
            ("emsim_phase_pool_misses", |p| p.pool_misses),
            ("emsim_phase_faults", |p| p.faults),
            ("emsim_phase_retries", |p| p.retries),
            ("emsim_phase_nanos", |p| p.nanos),
        ];
        for (family, get) in families {
            let _ = writeln!(out, "# TYPE {family} counter");
            for (name, p) in &self.phases {
                let _ = writeln!(out, "{family}{{phase=\"{name}\"}} {}", get(p));
            }
        }
        // Physical-traffic families (no `phase` label: the device below the
        // meter is not span-attributed).
        let ph = &self.physical;
        let physical: [(&str, u64); 5] = [
            ("emsim_physical_preads", ph.preads),
            ("emsim_physical_pwrites", ph.pwrites),
            ("emsim_physical_syncs", ph.syncs),
            ("emsim_physical_bytes_read", ph.bytes_read),
            ("emsim_physical_bytes_written", ph.bytes_written),
        ];
        for (family, value) in physical {
            let _ = writeln!(out, "# TYPE {family} counter");
            let _ = writeln!(out, "{family} {value}");
        }
        out
    }
}

/// A sink that accumulates a [`CostReport`] — the backend of
/// [`CostModel::explain`](crate::CostModel::explain).
///
/// ```
/// use std::sync::Arc;
/// use emsim::{CostModel, EmConfig};
/// use emsim::trace::{phase, RecordingSink};
///
/// let sink = Arc::new(RecordingSink::new());
/// let m = CostModel::new(EmConfig::new(64));
/// m.set_trace_sink(sink.clone());
/// {
///     let _g = m.span(phase::SCAN);
///     m.charge_reads(7);
/// }
/// m.charge_writes(1); // outside any span → phase "other"
/// let report = sink.report();
/// assert_eq!(report.phase(phase::SCAN).reads, 7);
/// assert_eq!(report.phase(phase::OTHER).writes, 1);
/// ```
#[derive(Debug, Default)]
pub struct RecordingSink {
    phases: Mutex<BTreeMap<&'static str, PhaseStats>>,
}

impl RecordingSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// Snapshot the accumulated report.
    pub fn report(&self) -> CostReport {
        CostReport {
            phases: lock_recover(&self.phases).clone(),
            ..CostReport::default()
        }
    }

    /// Clear the accumulated report.
    pub fn reset(&self) {
        lock_recover(&self.phases).clear();
    }
}

impl TraceSink for RecordingSink {
    fn event(&self, phase: &'static str, event: TraceEvent) {
        lock_recover(&self.phases)
            .entry(phase)
            .or_default()
            .absorb(event);
    }
}

/// One completed span as exported by [`ChromeTraceSink`].
#[derive(Clone, Copy, Debug)]
struct ChromeSpan {
    phase: &'static str,
    tid: u64,
    ts_us: u64,
    dur_us: u64,
    stats: PhaseStats,
}

/// A sink that records spans with wall-clock timestamps and renders the
/// Chrome trace-event JSON format (open in `chrome://tracing` or
/// <https://ui.perfetto.dev>). Each completed span becomes one `"ph": "X"`
/// complete event whose `args` carry the I/O stats attributed while the
/// span was the innermost one on its thread (exclusive, not inclusive).
///
/// Wall-clock timestamps never feed back into I/O accounting, so traced
/// runs stay I/O-deterministic even though the JSON differs run to run.
#[derive(Debug)]
pub struct ChromeTraceSink {
    epoch: Instant,
    /// Per-thread stacks of open spans (spans nest LIFO per thread).
    open: Mutex<HashMap<u64, Vec<ChromeSpan>>>,
    done: Mutex<Vec<ChromeSpan>>,
}

impl ChromeTraceSink {
    /// A sink whose timestamps are relative to "now".
    pub fn new() -> Self {
        ChromeTraceSink {
            epoch: Instant::now(),
            open: Mutex::new(HashMap::new()),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Number of completed spans recorded so far.
    pub fn len(&self) -> usize {
        lock_recover(&self.done).len()
    }

    /// Whether no span has completed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the Chrome trace-event JSON document.
    pub fn to_json(&self) -> String {
        let done = lock_recover(&self.done);
        let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
        for (i, s) in done.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"emsim\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"reads\": {}, \
                 \"writes\": {}, \"pool_hits\": {}, \"pool_misses\": {}, \"faults\": {}, \
                 \"retries\": {}}}}}{}",
                s.phase,
                s.tid,
                s.ts_us,
                s.dur_us,
                s.stats.reads,
                s.stats.writes,
                s.stats.pool_hits,
                s.stats.pool_misses,
                s.stats.faults,
                s.stats.retries,
                if i + 1 == done.len() { "" } else { "," }
            );
        }
        out.push_str("]\n}\n");
        out
    }
}

impl Default for ChromeTraceSink {
    fn default() -> Self {
        ChromeTraceSink::new()
    }
}

impl TraceSink for ChromeTraceSink {
    fn event(&self, _phase: &'static str, event: TraceEvent) {
        let tid = thread_tag();
        if let Some(open) = lock_recover(&self.open).get_mut(&tid) {
            if let Some(top) = open.last_mut() {
                top.stats.absorb(event);
            }
        }
    }

    fn span_begin(&self, phase: &'static str) {
        let span = ChromeSpan {
            phase,
            tid: thread_tag(),
            ts_us: self.now_us(),
            dur_us: 0,
            stats: PhaseStats::default(),
        };
        lock_recover(&self.open)
            .entry(span.tid)
            .or_default()
            .push(span);
    }

    fn span_end(&self, phase: &'static str) {
        let tid = thread_tag();
        let popped = lock_recover(&self.open)
            .get_mut(&tid)
            .and_then(std::vec::Vec::pop);
        if let Some(mut span) = popped {
            debug_assert_eq!(span.phase, phase, "spans nest LIFO per thread");
            span.dur_us = self.now_us().saturating_sub(span.ts_us);
            lock_recover(&self.done).push(span);
        }
    }
}

thread_local! {
    /// The stack of phases opened on this thread (innermost last). Shared
    /// by every meter the thread charges — phases are ambient per thread.
    static PHASE_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// A small stable per-thread tag for trace exporters.
    static THREAD_TAG: u64 = NEXT_THREAD_TAG.add(1);
}

static NEXT_THREAD_TAG: Counter = Counter::new(1);

/// A small stable identifier for the current thread, used as the `tid` of
/// exported trace events (allocated in first-use order, starting at 1).
pub fn thread_tag() -> u64 {
    THREAD_TAG.with(|t| *t)
}

/// The innermost phase open on this thread, or [`phase::OTHER`].
pub fn current_phase() -> &'static str {
    PHASE_STACK.with(|s| s.borrow().last().copied().unwrap_or(phase::OTHER.label()))
}

pub(crate) fn push_phase(phase: &'static str) {
    PHASE_STACK.with(|s| s.borrow_mut().push(phase));
}

pub(crate) fn pop_phase(phase: &'static str) {
    PHASE_STACK.with(|s| {
        let popped = s.borrow_mut().pop();
        debug_assert_eq!(popped, Some(phase), "spans must close LIFO");
        let _ = popped;
    });
}

/// RAII guard returned by [`CostModel::span`](crate::CostModel::span): the phase stays the
/// thread's innermost attribution target until the guard drops. With no
/// sink armed the guard is inert (nothing was pushed, nothing is timed).
///
/// On drop the guard emits one [`TraceEvent::SpanNanos`] carrying the
/// span's inclusive wall-clock duration, so `CostReport`s show time next
/// to I/O counts. The timestamp never influences what gets charged —
/// traced runs stay I/O-deterministic.
#[derive(Debug)]
#[must_use = "a span attributes nothing unless it is held open"]
pub struct SpanGuard {
    pub(crate) sink: Option<Arc<dyn TraceSink>>,
    pub(crate) phase: &'static str,
    pub(crate) start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            if let Some(start) = self.start.take() {
                let nanos = start.elapsed().as_nanos() as u64;
                sink.event(self.phase, TraceEvent::SpanNanos(nanos));
            }
            pop_phase(self.phase);
            sink.span_end(self.phase);
        }
    }
}

/// RAII guard returned by [`phase_scope`]: labels the current thread's
/// work without notifying any sink.
#[derive(Debug)]
#[must_use = "a phase scope attributes nothing unless it is held open"]
pub struct PhaseScope {
    phase: &'static str,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        pop_phase(self.phase);
    }
}

/// Label the current thread's work with `phase` until the guard drops —
/// for call sites with no [`CostModel`](crate::CostModel) in scope (the
/// generic batch drivers). Any meter charging on this thread attributes to
/// `phase` unless a nested [`CostModel::span`](crate::CostModel::span)
/// overrides it; unlike a span, no `span_begin`/`span_end` is emitted, so
/// exporters see only the attribution, not a span boundary.
pub fn phase_scope(phase: &'static Phase) -> PhaseScope {
    push_phase(phase.label());
    PhaseScope {
        phase: phase.label(),
    }
}

/// A set of scalar samples with percentile queries — the latency / I/O
/// histograms `exp_all` embeds in `BENCH_results.json`.
///
/// ```
/// use emsim::trace::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100 {
///     h.push(v as f64);
/// }
/// assert_eq!(h.p50(), 50.0);
/// assert_eq!(h.p95(), 95.0);
/// assert_eq!(h.p99(), 99.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample (NaN samples are ignored).
    pub fn push(&mut self, v: f64) {
        if !v.is_nan() {
            self.samples.push(v);
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The nearest-rank percentile (`p` in `[0, 100]`), or 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs are rejected at push"));
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// The median (50th percentile).
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The 95th percentile.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// The largest sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, EmConfig};
    use crate::fault::FaultPlan;

    #[test]
    fn noop_sink_is_disabled_and_silent() {
        let s = NoopSink;
        assert!(!s.is_enabled());
        s.event(phase::PROBE, TraceEvent::Reads(3)); // must not panic
        let m = CostModel::new(EmConfig::new(64));
        m.set_trace_sink(Arc::new(NoopSink));
        assert!(m.trace_sink().is_none(), "installing NoopSink arms nothing");
    }

    #[test]
    fn recording_sink_attributes_by_innermost_phase() {
        let sink = Arc::new(RecordingSink::new());
        let m = CostModel::new(EmConfig::new(64));
        m.set_trace_sink(sink.clone());
        {
            let _outer = m.span(phase::PROBE);
            m.charge_reads(2);
            {
                let _inner = m.span(phase::SELECT);
                m.charge_reads(5);
            }
            m.charge_writes(1);
        }
        m.charge_reads(10); // no span open → "other"
        let r = sink.report();
        assert_eq!(r.phase(phase::PROBE).reads, 2);
        assert_eq!(r.phase(phase::PROBE).writes, 1);
        assert_eq!(r.phase(phase::SELECT).reads, 5);
        assert_eq!(r.phase(phase::OTHER).reads, 10);
        let agg = m.report();
        assert_eq!(r.total().reads, agg.reads);
        assert_eq!(r.total().writes, agg.writes);
    }

    #[test]
    fn pool_and_fault_events_reconcile_with_the_meter() {
        let plan = FaultPlan::new(5).with_permanent(1.0);
        let sink = Arc::new(RecordingSink::new());
        let m = CostModel::with_faults(EmConfig::with_memory(64, 4), FaultPlan::none());
        m.set_trace_sink(sink.clone());
        let _g = m.span(phase::SCAN);
        m.touch(0, 0); // miss
        m.touch(0, 0); // hit
        m.set_fault_plan(plan);
        assert!(m.try_fetch(0, 9, 0).is_err());
        assert!(m.try_fetch(0, 9, 1).is_err()); // a retry attempt
        m.record_fault(); // checksum detection above the read path
        let r = sink.report();
        let p = r.phase(phase::SCAN);
        let agg = m.report();
        assert_eq!(p.reads, agg.reads);
        assert_eq!(p.pool_hits, agg.pool_hits);
        assert_eq!(p.pool_misses, agg.pool_misses);
        assert_eq!(p.faults, agg.faults);
        assert_eq!(p.retries, 1);
    }

    #[test]
    fn explain_restores_the_previous_sink() {
        let outer = Arc::new(RecordingSink::new());
        let m = CostModel::new(EmConfig::new(64));
        m.set_trace_sink(outer.clone());
        let ((), report) = m.explain(|| {
            let _g = m.span(phase::FALLBACK);
            m.charge_reads(4);
        });
        assert_eq!(report.phase(phase::FALLBACK).reads, 4);
        assert_eq!(
            outer.report().total(),
            PhaseStats::default(),
            "the inner explain sink captured the charges"
        );
        m.charge_reads(1);
        assert_eq!(outer.report().total().reads, 1, "outer sink restored");
    }

    #[test]
    fn spans_without_a_sink_are_inert() {
        let m = CostModel::new(EmConfig::new(64));
        let g = m.span(phase::PROBE);
        assert_eq!(current_phase(), phase::OTHER, "no sink: nothing pushed");
        drop(g);
        m.charge_reads(1);
        assert_eq!(m.report().reads, 1);
    }

    #[test]
    fn scoped_children_inherit_the_sink() {
        let sink = Arc::new(RecordingSink::new());
        let m = CostModel::new(EmConfig::with_memory(64, 4));
        m.set_trace_sink(sink.clone());
        {
            let trial = m.scoped();
            let _g = trial.span(phase::BATCH);
            trial.touch(0, 0);
        }
        assert_eq!(sink.report().phase(phase::BATCH).reads, 1);
        // Rollup absorbs counters without re-emitting events: the sink saw
        // the read exactly once, and it still reconciles with the parent.
        assert_eq!(sink.report().total().reads, m.report().reads);
    }

    #[test]
    fn phase_scope_labels_without_a_model() {
        let sink = Arc::new(RecordingSink::new());
        let m = CostModel::new(EmConfig::new(64));
        m.set_trace_sink(sink.clone());
        {
            let _b = phase_scope(phase::BATCH);
            m.charge_reads(3);
            {
                let _g = m.span(phase::SCAN); // nested span still wins
                m.charge_reads(1);
            }
        }
        assert_eq!(current_phase(), phase::OTHER);
        assert_eq!(sink.report().phase(phase::BATCH).reads, 3);
        assert_eq!(sink.report().phase(phase::SCAN).reads, 1);
    }

    #[test]
    fn chrome_sink_produces_complete_events() {
        let sink = Arc::new(ChromeTraceSink::new());
        let m = CostModel::new(EmConfig::new(64));
        m.set_trace_sink(sink.clone());
        {
            let _g = m.span(phase::PROBE);
            m.charge_reads(3);
        }
        {
            let _g = m.span(phase::SELECT);
            m.charge_writes(2);
        }
        assert_eq!(sink.len(), 2);
        let json = sink.to_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"probe\""));
        assert!(json.contains("\"reads\": 3"));
        assert!(json.contains("\"writes\": 2"));
    }

    #[test]
    fn global_sink_arms_new_meters() {
        // Meters other tests build while this one runs record into the
        // sink too, but never under this test's own phase.
        const OWN: &Phase = &Phase("global-sink-test");
        let _serial = crate::substrate::install_lock();
        let before = crate::Substrate::current();
        let sink = Arc::new(RecordingSink::new());
        let guard = crate::Substrate {
            trace: Some(sink.clone()),
            ..before.clone()
        }
        .install();
        let m = CostModel::new(EmConfig::new(64));
        assert!(m.trace_sink().is_some());
        {
            let _g = m.span(OWN);
            m.charge_reads(2);
        }
        assert_eq!(sink.report().phase(OWN).reads, 2);
        drop(guard);
        let m2 = CostModel::new(EmConfig::new(64));
        assert_eq!(m2.trace_sink().is_some(), before.trace.is_some());
        assert!(crate::Substrate::current().trace.is_none());
    }

    #[test]
    fn report_renders_explain_and_prometheus() {
        let mut phases = BTreeMap::new();
        phases.insert(
            phase::PROBE.label(),
            PhaseStats {
                reads: 12,
                pool_hits: 3,
                ..PhaseStats::default()
            },
        );
        phases.insert(
            phase::SCAN.label(),
            PhaseStats {
                reads: 40,
                writes: 2,
                ..PhaseStats::default()
            },
        );
        let mut r = CostReport {
            phases,
            ..CostReport::default()
        };
        let text = r.render("theorem1 query");
        assert!(text.contains("EXPLAIN theorem1 query"));
        assert!(text.contains("probe"));
        assert!(text.contains("TOTAL"));
        assert!(
            !text.contains("physical:"),
            "all-zero physical row is elided"
        );
        let prom = r.prometheus();
        assert!(prom.contains("# TYPE emsim_phase_reads counter"));
        assert!(prom.contains("emsim_phase_reads{phase=\"scan\"} 40"));
        assert!(prom.contains("# TYPE emsim_physical_bytes_read counter"));
        assert!(prom.contains("emsim_physical_bytes_read 0"));
        assert_eq!(r.total().reads, 52);

        r.physical = crate::device::DeviceCounts {
            preads: 4,
            bytes_read: 160,
            ..crate::device::DeviceCounts::default()
        };
        let text = r.render("with physical");
        assert!(text.contains("physical: 4 preads"));
        assert!(text.contains("160 bytes read"));
        let prom = r.prometheus();
        assert!(prom.contains("emsim_physical_bytes_read 160"));
        assert!(prom.contains("emsim_physical_preads 4"));
    }

    #[test]
    fn histogram_percentiles_use_nearest_rank() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0.0);
        h.push(10.0);
        assert_eq!((h.p50(), h.p95(), h.p99()), (10.0, 10.0, 10.0));
        for v in [20.0, 30.0, 40.0] {
            h.push(v);
        }
        assert_eq!(h.p50(), 20.0);
        assert_eq!(h.max(), 40.0);
        h.push(f64::NAN);
        assert_eq!(h.len(), 4, "NaN samples are dropped");
    }
}
