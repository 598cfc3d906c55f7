//! Per-layer timing taken from outside the program: timing decorators for
//! the inner builders and their indexes, a span recorder, and a
//! [`TraceSink`] that turns the program's existing `select` spans and
//! phase-attributed I/O events into records of the same recorder.
//!
//! The recorder holds its state under one `Mutex` and uses no atomics.
//! Spans stay in memory until the run ends; [`Recorder::write_tsv`] writes
//! them out.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use emsim::trace::{phase, TraceEvent, TraceSink};
use emsim::{CostModel, EmError, Retrier};
use interval::Interval;
use topk_core::{
    DynamicIndex, MaxBuilder, MaxIndex, Monitored, PrioritizedBuilder, PrioritizedIndex, Weight,
};

/// A layer a span is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One benchmark operation (query or update), timed by the op wrapper.
    Op,
    /// A query on the prioritized structure (`interval::prioritized` or
    /// the prioritized side of `interval::dynamic`).
    Pri,
    /// A query on a max structure (`interval::max` or the max side of
    /// `interval::dynamic`).
    Max,
    /// A span the program labels `select` (`emsim::select` + kernels).
    Select,
    /// An insert or delete on the prioritized structure.
    PriUpdate,
    /// An insert or delete on a max structure.
    MaxUpdate,
    /// Building a prioritized structure.
    PriBuild,
    /// Building a max structure.
    MaxBuild,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Pri => "pri",
            Layer::Max => "max",
            Layer::Select => "select",
            Layer::PriUpdate => "pri_update",
            Layer::MaxUpdate => "max_update",
            Layer::PriBuild => "pri_build",
            Layer::MaxBuild => "max_build",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder's epoch;
/// `parent` indexes the enclosing span, if any.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct State {
    /// Id of the current (or last) op; spans opened inside it carry it.
    op: u64,
    /// Open spans, innermost last (indices into `spans`).
    open: Vec<usize>,
    spans: Vec<Span>,
    /// Items the prioritized structures reported to their callers.
    reported: u64,
    /// `(reads, writes)` per phase label, from the meter's trace events.
    phase_io: BTreeMap<&'static str, [u64; 2]>,
}

/// The in-memory span store shared by decorators, op wrappers and sink.
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

/// Self time (duration minus the time covered by direct children) and call
/// count per layer, summed over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a thread panicked while holding the span recorder")
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span of `layer` inside whatever span is open now.
    pub fn begin(&self, layer: Layer) -> usize {
        let start = self.now();
        let mut s = self.lock();
        if layer == Layer::Op {
            s.op += 1;
        }
        let span = Span {
            op: s.op,
            layer,
            start,
            end: start,
            parent: s.open.last().copied(),
        };
        s.spans.push(span);
        let id = s.spans.len() - 1;
        s.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&self, id: usize) {
        let end = self.now();
        let mut s = self.lock();
        assert_eq!(s.open.pop(), Some(id), "spans close innermost first");
        s.spans[id].end = end;
    }

    /// Time `f` as one span of `layer`.
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer);
        let out = f();
        self.end(id);
        out
    }

    fn add_reported(&self, n: usize) {
        self.lock().reported += n as u64;
    }

    /// Forget everything recorded so far (used after warm-up), keeping only
    /// the top-level build spans of set-up (they have no parent, so no kept
    /// span points at a dropped one).
    pub fn clear_ops(&self) {
        let mut s = self.lock();
        assert!(s.open.is_empty(), "no span may be open across a reset");
        s.spans.retain(|sp| {
            sp.parent.is_none() && matches!(sp.layer, Layer::PriBuild | Layer::MaxBuild)
        });
        s.reported = 0;
        s.phase_io.clear();
    }

    /// Per-layer totals with self time, over every recorded span.
    pub fn totals(&self) -> BTreeMap<Layer, LayerTotals> {
        let s = self.lock();
        let mut child_ns = vec![0u64; s.spans.len()];
        for sp in &s.spans {
            if let Some(p) = sp.parent {
                child_ns[p] += sp.ns();
            }
        }
        let mut out: BTreeMap<Layer, LayerTotals> = BTreeMap::new();
        for (sp, child) in s.spans.iter().zip(child_ns) {
            let t = out.entry(sp.layer).or_default();
            t.calls += 1;
            t.total_ns += sp.ns();
            t.self_ns += sp.ns() - child.min(sp.ns());
        }
        out
    }

    /// Items the prioritized structures reported since the last reset.
    pub fn reported(&self) -> u64 {
        self.lock().reported
    }

    /// `(reads, writes)` attributed to `phase` since the last reset.
    pub fn phase_io(&self, phase: &str) -> [u64; 2] {
        self.lock().phase_io.get(phase).copied().unwrap_or_default()
    }

    /// Write every span as tab-separated `op layer start_ns end_ns parent`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let s = self.lock();
        // allow_invariant(device-hygiene): benchmark span export, not block
        // storage — nothing here survives into a recovered store.
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        // allow_invariant(device-hygiene): the span file, as above.
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tlayer\tstart_ns\tend_ns\tparent")?;
        for sp in &s.spans {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{parent}",
                sp.op,
                sp.layer.name(),
                sp.start,
                sp.end
            )?;
        }
        w.flush()
    }
}

/// The benchmark's [`TraceSink`]: records the program's `select` spans as
/// [`Layer::Select`] spans and counts read/write I/Os per phase label.
#[derive(Clone)]
pub struct Sink(pub Arc<Recorder>);

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("perf::Sink")
    }
}

impl TraceSink for Sink {
    fn event(&self, phase: &'static str, event: TraceEvent) {
        let slot = match event {
            TraceEvent::Reads(n) => Some((0, n)),
            TraceEvent::Writes(n) => Some((1, n)),
            _ => None,
        };
        if let Some((i, n)) = slot {
            self.0.lock().phase_io.entry(phase).or_default()[i] += n;
        }
    }

    fn span_begin(&self, phase: &'static str) {
        if phase == phase::SELECT {
            self.0.begin(Layer::Select);
        }
    }

    fn span_end(&self, phase: &'static str) {
        if phase == phase::SELECT {
            let top = *self.0.lock().open.last().expect("a select span is open");
            self.0.end(top);
        }
    }
}

/// Which side of a reduction a decorated structure serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Pri,
    Max,
}

/// A timing decorator for a [`PrioritizedBuilder`] or [`MaxBuilder`]: it
/// times every build and wraps every built index in a [`TimedIndex`].
pub struct Timed<B> {
    inner: B,
    rec: Arc<Recorder>,
}

impl<B> Timed<B> {
    pub fn new(inner: B, rec: &Arc<Recorder>) -> Self {
        Timed {
            inner,
            rec: Arc::clone(rec),
        }
    }
}

impl<B: PrioritizedBuilder<Interval, f64>> PrioritizedBuilder<Interval, f64> for Timed<B> {
    type Index = TimedIndex<B::Index>;

    fn build(&self, model: &CostModel, items: Vec<Interval>) -> Self::Index {
        let inner = self
            .rec
            .time(Layer::PriBuild, || self.inner.build(model, items));
        TimedIndex {
            inner,
            rec: Arc::clone(&self.rec),
            role: Role::Pri,
        }
    }

    fn query_cost(&self, n: usize, b: usize) -> f64 {
        self.inner.query_cost(n, b)
    }
}

impl<B: MaxBuilder<Interval, f64>> MaxBuilder<Interval, f64> for Timed<B> {
    type Index = TimedIndex<B::Index>;

    fn build(&self, model: &CostModel, items: Vec<Interval>) -> Self::Index {
        let inner = self
            .rec
            .time(Layer::MaxBuild, || self.inner.build(model, items));
        TimedIndex {
            inner,
            rec: Arc::clone(&self.rec),
            role: Role::Max,
        }
    }

    fn query_cost(&self, n: usize, b: usize) -> f64 {
        self.inner.query_cost(n, b)
    }
}

/// An index built by a [`Timed`] builder. Every trait method forwards to
/// the inner index, so answers and metered I/O are unchanged; queries and
/// updates are timed as spans.
pub struct TimedIndex<I> {
    inner: I,
    rec: Arc<Recorder>,
    role: Role,
}

impl<I> TimedIndex<I> {
    fn update_layer(&self) -> Layer {
        match self.role {
            Role::Pri => Layer::PriUpdate,
            Role::Max => Layer::MaxUpdate,
        }
    }

    /// Time a call that appends reported items to `out`.
    fn collect<R>(&self, out: &mut Vec<Interval>, f: impl FnOnce(&mut Vec<Interval>) -> R) -> R {
        let before = out.len();
        let r = self.rec.time(Layer::Pri, || f(out));
        self.rec.add_reported(out.len() - before);
        r
    }
}

impl<I: PrioritizedIndex<Interval, f64>> PrioritizedIndex<Interval, f64> for TimedIndex<I> {
    fn for_each_at_least(&self, q: &f64, tau: Weight, visit: &mut dyn FnMut(&Interval) -> bool) {
        let mut n = 0;
        self.rec.time(Layer::Pri, || {
            self.inner.for_each_at_least(q, tau, &mut |e| {
                n += 1;
                visit(e)
            });
        });
        self.rec.add_reported(n);
    }

    fn space_blocks(&self) -> u64 {
        PrioritizedIndex::space_blocks(&self.inner)
    }

    fn len(&self) -> usize {
        PrioritizedIndex::len(&self.inner)
    }

    fn is_empty(&self) -> bool {
        PrioritizedIndex::is_empty(&self.inner)
    }

    fn query(&self, q: &f64, tau: Weight, out: &mut Vec<Interval>) {
        self.collect(out, |out| self.inner.query(q, tau, out));
    }

    fn query_monitored(
        &self,
        q: &f64,
        tau: Weight,
        limit: usize,
        out: &mut Vec<Interval>,
    ) -> Monitored {
        self.collect(out, |out| self.inner.query_monitored(q, tau, limit, out))
    }

    fn try_for_each_at_least(
        &self,
        q: &f64,
        tau: Weight,
        retrier: &Retrier,
        visit: &mut dyn FnMut(&Interval) -> bool,
    ) -> Result<(), EmError> {
        let mut n = 0;
        let r = self.rec.time(Layer::Pri, || {
            self.inner.try_for_each_at_least(q, tau, retrier, &mut |e| {
                n += 1;
                visit(e)
            })
        });
        self.rec.add_reported(n);
        r
    }

    fn try_query(
        &self,
        q: &f64,
        tau: Weight,
        retrier: &Retrier,
        out: &mut Vec<Interval>,
    ) -> Result<(), EmError> {
        self.collect(out, |out| self.inner.try_query(q, tau, retrier, out))
    }

    fn try_query_monitored(
        &self,
        q: &f64,
        tau: Weight,
        limit: usize,
        retrier: &Retrier,
        out: &mut Vec<Interval>,
    ) -> Result<Monitored, EmError> {
        self.collect(out, |out| {
            self.inner.try_query_monitored(q, tau, limit, retrier, out)
        })
    }
}

impl<I: MaxIndex<Interval, f64>> MaxIndex<Interval, f64> for TimedIndex<I> {
    fn query_max(&self, q: &f64) -> Option<Interval> {
        self.rec.time(Layer::Max, || self.inner.query_max(q))
    }

    fn try_query_max(&self, q: &f64, retrier: &Retrier) -> Result<Option<Interval>, EmError> {
        self.rec
            .time(Layer::Max, || self.inner.try_query_max(q, retrier))
    }

    fn space_blocks(&self) -> u64 {
        MaxIndex::space_blocks(&self.inner)
    }

    fn len(&self) -> usize {
        MaxIndex::len(&self.inner)
    }

    fn is_empty(&self) -> bool {
        MaxIndex::is_empty(&self.inner)
    }
}

impl<I: DynamicIndex<Interval>> DynamicIndex<Interval> for TimedIndex<I> {
    fn insert(&mut self, e: Interval) {
        let layer = self.update_layer();
        let rec = Arc::clone(&self.rec);
        rec.time(layer, || self.inner.insert(e));
    }

    fn delete(&mut self, weight: Weight) -> bool {
        let layer = self.update_layer();
        let rec = Arc::clone(&self.rec);
        rec.time(layer, || self.inner.delete(weight))
    }
}
