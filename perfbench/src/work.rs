//! The closed-loop workloads, the pieces every workload shares (meters,
//! index builds, answer checks, end-to-end metrics), and the per-layer
//! report of a traced pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emsim::{CostModel, EmConfig, FaultPlan, IoReport, MemDevice, PoolPolicy};
use interval::{
    DynStabbingBuilder, DynStabbingMaxBuilder, DynTopKStabbing, Interval, PstStabBuilder,
    SegStabBuilder, StabMaxBuilder, TopKStabbing, TopKStabbingWorstCase, LAMBDA,
};
use topk_core::{
    brute, DynamicIndex, ExpectedTopK, Theorem1Params, Theorem2Params, TopKIndex, WorstCaseTopK,
};

use crate::gen::{self, SplitMix64};
use crate::layers::{Layer, Recorder, Sink, Timed};
use crate::spec::Workload;
use crate::stats::percentile;

/// Block size `B` in words, for every meter.
pub const B: usize = 64;
/// Intervals in the `thm1_select` and `serve_zipf` indexes (before
/// `shrink`).
pub const N_STATIC: usize = 1 << 16;
/// Intervals in the `thm2_pooled` index: at 2^16 k-selection would take
/// more than a fifth of its query time.
pub const N_POOLED: usize = 1 << 17;
/// Intervals in the dynamic index at the start of `thm2_churn`. Kept away
/// from powers of two, where `DynStabbing`'s slab grid doubles, so that the
/// live set (held within `N_CHURN ± N_CHURN / 64`) never crosses one. Twice
/// as many intervals made update latency twice as sensitive to the host's
/// slow spells.
pub const N_CHURN: usize = 25_000;

/// One run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Measured seconds (the untraced pass of a traced run gets half).
    pub seconds: f64,
    /// Divides every input size, warm-up and probe (1 = paper scale).
    pub shrink: usize,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<std::path::PathBuf>,
}

impl Config {
    pub fn n(&self, full: usize) -> usize {
        (full / self.shrink).max(64)
    }

    pub fn ops(&self, full: u64) -> u64 {
        (full / self.shrink as u64).max(1)
    }
}

/// How a closed-loop workload is sized and measured.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Intervals in the index (`thm2_churn`: at the start).
    pub n: usize,
    /// Frames of the LRU pool (0: no pool).
    pub frames: usize,
    /// Index builds per run, each with its own index seed (see
    /// [`instances`]).
    pub builds: usize,
    /// Unmeasured ops after each build.
    pub warmup: u64,
    /// Measured ops after each warm-up whose I/O the end-to-end metrics
    /// count. A fixed number, so those metrics are exact for a seed.
    pub io_ops: u64,
    /// Every this-many-th query is checked against brute force.
    pub check_every: u64,
}

/// The plan of a closed-loop workload, shrunk by `cfg`.
///
/// `thm2_pooled` builds twelve times because one Theorem 2 sample holds
/// only ≈ 120 intervals at its first level, and which ones moves I/O per
/// query by 7–8 % from sample to sample; the mean over twelve samples
/// spread by 2.7–3.7 % over ten seeds, over sixteen by 2.9–4.9 %. Its pool
/// of 1 024 frames is full after a few queries, so a short warm-up does.
/// `thm1_select` and `thm2_churn` build in 20–60 ms, so they build more
/// often for a median that repeats.
/// `thm2_churn` warms up for two live sets' worth of ops, which include a
/// grid rebuild, so that its space is that of an index that has churned,
/// read at the same op on every run.
pub fn plan(w: Workload, cfg: &Config) -> Plan {
    let (n, frames, builds, warmup, io_ops, check_every) = match w {
        Workload::Thm2Pooled => (N_POOLED, 1024, 12, 250, 1_000, 64),
        Workload::Thm1Select => (N_STATIC, 0, 31, 20, 128, 64),
        Workload::Thm2Churn => (N_CHURN, 0, 7, 2 * N_CHURN as u64, 4_000, 16),
        Workload::ServeZipf => unreachable!("serve_zipf is open loop"),
    };
    Plan {
        n: cfg.n(n),
        frames,
        builds,
        warmup: cfg.ops(warmup),
        io_ops: cfg.ops(io_ops),
        check_every,
    }
}

/// What a run reports on its last line of output.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Every meter the benchmark uses: block size `B`, an LRU pool of
/// `frames` frames (0 = none), no faults, a private in-memory device.
/// Built explicitly so that no environment variable can change it.
pub fn meter(frames: usize) -> CostModel {
    CostModel::with_device(
        EmConfig::with_memory(B, frames),
        FaultPlan::none(),
        PoolPolicy::Lru,
        Arc::new(MemDevice::new()),
    )
}

/// The seed of build `b` of a run with seed `seed`: it seeds the index's
/// own sampling (Theorems 1 and 2) and the build's stream of ops.
pub fn build_seed(seed: u64, b: usize) -> u64 {
    let mut rng = SplitMix64::new(seed, 6);
    for _ in 0..b {
        rng.next_u64();
    }
    rng.next_u64()
}

/// What [`instances`] measured of the builds themselves.
pub struct Builds {
    /// Median build time, seconds.
    pub setup_s: f64,
    /// Meter I/Os of a build per item built, averaged over the builds.
    pub ios_per_item: f64,
}

/// Build the index `builds` times, each on a fresh meter with its own
/// [`build_seed`], timing each build, and hand each index to `run` (outside
/// the timed build) before the next one is built.
pub fn instances<I>(
    items: &[Interval],
    frames: usize,
    builds: usize,
    seed: u64,
    build: impl Fn(&CostModel, Vec<Interval>, u64) -> I,
    mut run: impl FnMut(usize, &CostModel, I),
) -> Builds {
    let mut times = Vec::with_capacity(builds);
    let mut ios = 0;
    for b in 0..builds {
        let input = items.to_vec();
        let model = meter(frames);
        let t = Instant::now();
        let index = build(&model, input, build_seed(seed, b));
        times.push(t.elapsed().as_secs_f64());
        ios += model.report().total();
        run(b, &model, index);
    }
    Builds {
        setup_s: percentile(&mut times, 50.0),
        ios_per_item: ios as f64 / (builds * items.len()) as f64,
    }
}

/// The end-to-end metrics of a run, and its op counts.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ios_per_query: f64,
    /// Per insert or delete where the workload updates; for a static
    /// index, whose only update is its bulk build, per item built.
    pub ios_per_update: f64,
    pub blocks_per_item: f64,
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Checked answers that were wrong.
    pub wrong: u64,
}

impl EndToEnd {
    pub fn outcome(&self) -> Outcome {
        Outcome {
            correct: self.wrong == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                ("setup_s", self.setup_s),
                ("ios_per_query", self.ios_per_query),
                ("ios_per_update", self.ios_per_update),
                ("space_blocks_per_item", self.blocks_per_item),
                ("peak_rss_mb", self.peak_rss_mib),
                (
                    "ok_frac",
                    1.0 - self.failed as f64 / self.attempted.max(1) as f64,
                ),
            ],
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    // allow_invariant(device-hygiene): reads the kernel's process status,
    // not block storage.
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

/// Whether `got` is the exact top-`k` of `reference` stabbed by `q`.
pub fn is_exact(reference: &[Interval], q: f64, k: usize, got: &[Interval]) -> bool {
    let want = brute::top_k(reference, |iv| iv.stabs(q), k);
    want.iter()
        .map(|iv| iv.weight)
        .eq(got.iter().map(|iv| iv.weight))
}

/// One benchmark operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Query { q: f64, k: usize },
    Insert(Interval),
    Delete(u64),
}

/// The seeded operation stream of a closed-loop workload, with the
/// benchmark's own copy of the items the answers are checked against.
pub struct Ops {
    workload: Workload,
    rng: SplitMix64,
    /// The indexed items; for `thm2_churn`, the live set.
    pub items: Vec<Interval>,
    next_weight: u64,
    /// `thm2_churn` keeps its live set within this range: an unbounded
    /// random walk would make space and memory depend on the seed and on
    /// how many operations a run got through.
    live: std::ops::RangeInclusive<usize>,
}

impl Ops {
    pub fn new(workload: Workload, seed: u64, items: Vec<Interval>) -> Self {
        let n = items.len();
        Ops {
            workload,
            rng: SplitMix64::new(seed, 2),
            next_weight: n as u64 + 1,
            live: n - n / 64..=n + n / 64,
            items,
        }
    }

    fn uniform_point(&mut self) -> f64 {
        self.rng.unit() * gen::LO_SPAN
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::Thm1Select => {
                let k = self.rng.log_uniform(1.0, 4097.0) as usize;
                Op::Query {
                    q: self.uniform_point(),
                    k: k.clamp(1, 4096),
                }
            }
            Workload::Thm2Churn => {
                let u = self.rng.unit();
                let live = self.items.len();
                if u >= 0.9 {
                    Op::Query {
                        q: self.uniform_point(),
                        k: 10,
                    }
                } else if live <= *self.live.start() || (u < 0.45 && live < *self.live.end()) {
                    let iv = gen::interval(&mut self.rng, self.next_weight);
                    self.next_weight += 1;
                    self.items.push(iv);
                    Op::Insert(iv)
                } else {
                    let i = self.rng.below(live as u64) as usize;
                    Op::Delete(self.items.swap_remove(i).weight)
                }
            }
            Workload::Thm2Pooled | Workload::ServeZipf => Op::Query {
                q: self.uniform_point(),
                k: 10,
            },
        }
    }
}

/// When a pass stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this much time spent inside operations.
    Busy(Duration),
    /// After exactly this many measured operations.
    Ops(u64),
}

/// What one closed-loop pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of every measured op in µs (+inf for a failed op).
    pub latency_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub update_us: Vec<f64>,
    /// Time inside every measured op, failed or not.
    pub op_ns: Vec<u64>,
    pub busy: Duration,
    pub ops: u64,
    pub failed: u64,
    /// Checked answers that were wrong.
    pub wrong: u64,
    /// Items returned by all queries.
    pub returned: u64,
    /// Meter traffic of the measured ops.
    pub io: IoReport,
    /// `[ops, I/Os]` of the queries and of the updates among the first
    /// `io_ops` measured ops.
    pub query_io: [u64; 2],
    pub update_io: [u64; 2],
    /// The meter's cumulative report at the end of the pass.
    pub io_end: IoReport,
}

/// An executor of benchmark ops: runs one op, appending a query's answer
/// to the vector; returns whether the op succeeded.
pub type Exec<'a> = dyn FnMut(&Op, &mut Vec<Interval>) -> bool + 'a;

/// Run `n` unmeasured, unchecked ops.
pub fn warm_up(ops: &mut Ops, exec: &mut Exec, n: u64) {
    let mut out = Vec::new();
    for _ in 0..n {
        let op = ops.next_op();
        out.clear();
        exec(&op, &mut out);
    }
}

/// Run measured ops until `stop`, and at least `io_ops` of them. Each op is
/// timed alone; the meter traffic of each of the first `io_ops` ops, and the
/// answer of every `check_every`-th query, are read outside the timed
/// interval.
pub fn closed_loop(
    ops: &mut Ops,
    model: &CostModel,
    exec: &mut Exec,
    stop: Stop,
    rec: Option<&Recorder>,
    check_every: u64,
    io_ops: u64,
) -> Pass {
    let mut out = Vec::new();
    if let Some(r) = rec {
        r.clear_ops();
    }
    let io_start = model.report();
    let mut pass = Pass::default();
    let mut queries = 0u64;
    loop {
        let done = pass.ops >= io_ops
            && match stop {
                Stop::Busy(d) => pass.busy >= d,
                Stop::Ops(n) => pass.ops >= n,
            };
        if done {
            break;
        }
        let op = ops.next_op();
        out.clear();
        let io_before = (pass.ops < io_ops).then(|| model.report());
        let t = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| match rec {
            Some(r) => r.time(Layer::Op, || exec(&op, &mut out)),
            None => exec(&op, &mut out),
        }));
        let elapsed = t.elapsed();
        if let Some(before) = io_before {
            let kind = match op {
                Op::Query { .. } => &mut pass.query_io,
                Op::Insert(_) | Op::Delete(_) => &mut pass.update_io,
            };
            kind[0] += 1;
            kind[1] += model.report().since(&before).total();
        }
        pass.busy += elapsed;
        pass.op_ns.push(elapsed.as_nanos() as u64);
        pass.ops += 1;
        let mut ok = ran.unwrap_or(false);
        if let Op::Query { q, k } = op {
            queries += 1;
            pass.returned += out.len() as u64;
            if ok && queries.is_multiple_of(check_every) && !is_exact(&ops.items, q, k, &out) {
                ok = false;
                pass.wrong += 1;
            }
        }
        let us = if ok {
            elapsed.as_secs_f64() * 1e6
        } else {
            pass.failed += 1;
            f64::INFINITY
        };
        pass.latency_us.push(us);
        match op {
            Op::Query { .. } => pass.query_us.push(us),
            Op::Insert(_) | Op::Delete(_) => pass.update_us.push(us),
        }
    }
    pass.io_end = model.report();
    pass.io = pass.io_end.since(&io_start);
    pass
}

/// Slices per run for [`Pass::best_slice_p50`].
pub const SLICES: usize = 20;

impl Pass {
    /// The lowest of the median latencies of `SLICES` consecutive slices of
    /// equal busy time. On a shared host the machine itself slows down for
    /// seconds at a time; a slower program slows every slice, a slow spell
    /// of the machine only some, so the quietest slice measures the program.
    pub fn best_slice_p50(&self) -> f64 {
        let slice_ns = self.busy.as_nanos() as f64 / SLICES as f64;
        let mut best = f64::INFINITY;
        let (mut start, mut done_ns, mut slice) = (0, 0u64, 1);
        for (i, &ns) in self.op_ns.iter().enumerate() {
            done_ns += ns;
            if done_ns as f64 >= slice_ns * slice as f64 || i + 1 == self.op_ns.len() {
                best = best.min(percentile(&mut self.latency_us[start..=i].to_vec(), 50.0));
                (start, slice) = (i + 1, slice + 1);
            }
        }
        best
    }
}

/// Answer queries (and only queries) with a static index.
fn query_only<I: TopKIndex<Interval, f64>>(
    index: &I,
) -> impl FnMut(&Op, &mut Vec<Interval>) -> bool + '_ {
    |op, out| match *op {
        Op::Query { q, k } => {
            index.query_topk(&q, k, out);
            true
        }
        Op::Insert(_) | Op::Delete(_) => unreachable!("static workloads only query"),
    }
}

/// Run ops of `thm2_churn` against a dynamic index.
fn churn<I: TopKIndex<Interval, f64>>(
    index: &mut I,
    insert: fn(&mut I, Interval),
    delete: fn(&mut I, u64) -> bool,
) -> impl FnMut(&Op, &mut Vec<Interval>) -> bool + '_ {
    move |op, out| match *op {
        Op::Query { q, k } => {
            index.query_topk(&q, k, out);
            true
        }
        Op::Insert(iv) => {
            insert(index, iv);
            true
        }
        Op::Delete(w) => delete(index, w),
    }
}

/// [`query_only`] as a boxed executor.
fn query_exec<I: TopKIndex<Interval, f64>>(index: &mut I) -> Box<Exec<'_>> {
    Box::new(query_only(index))
}

/// [`churn`] on the public dynamic index as a boxed executor.
fn churn_exec(index: &mut DynTopKStabbing) -> Box<Exec<'_>> {
    Box::new(churn(
        index,
        DynTopKStabbing::insert,
        DynTopKStabbing::delete,
    ))
}

/// `[ops, I/Os]` as I/Os per op.
fn per_op([ops, ios]: [u64; 2]) -> f64 {
    ios as f64 / ops.max(1) as f64
}

/// Run a closed-loop workload untraced on `builds` instances of its index
/// (see [`instances`]). Each instance is warmed up and then runs measured
/// ops for its share of `seconds`, at least the plan's `io_ops`, whose I/O
/// the end-to-end metrics count; the last instance's pass is returned. The
/// builds are thus spread over the whole run, so that a slow spell of the
/// host shorter than the run slows only some of those `setup_s` takes the
/// median of. Space is read after each warm-up. Peak memory is read after
/// the first one: later it would count the heap left fragmented by earlier
/// builds, which moved it by up to 5 % from run to run, and the benchmark's
/// per-op samples, which grow with how many ops a run gets through.
fn instance_loop<I: TopKIndex<Interval, f64>>(
    w: Workload,
    cfg: &Config,
    items: &[Interval],
    builds: usize,
    seconds: f64,
    build: impl Fn(&CostModel, Vec<Interval>, u64) -> I,
    exec: fn(&mut I) -> Box<Exec<'_>>,
) -> (Pass, EndToEnd) {
    let plan = plan(w, cfg);
    let stop = Stop::Busy(Duration::from_secs_f64(seconds / builds as f64));
    let mut e2e = EndToEnd::default();
    let (mut query_io, mut update_io) = ([0; 2], [0; 2]);
    let mut last = None;
    let built = instances(
        items,
        plan.frames,
        builds,
        cfg.seed,
        build,
        |b, model, mut index| {
            let mut ops = Ops::new(w, build_seed(cfg.seed, b), items.to_vec());
            warm_up(&mut ops, &mut *exec(&mut index), plan.warmup);
            e2e.blocks_per_item +=
                index.space_blocks() as f64 / ops.items.len() as f64 / builds as f64;
            if b == 0 {
                e2e.peak_rss_mib = peak_rss_mib();
            }
            let pass = closed_loop(
                &mut ops,
                model,
                &mut *exec(&mut index),
                stop,
                None,
                plan.check_every,
                plan.io_ops,
            );
            e2e.attempted += pass.ops;
            e2e.failed += pass.failed;
            e2e.wrong += pass.wrong;
            for i in 0..2 {
                query_io[i] += pass.query_io[i];
                update_io[i] += pass.update_io[i];
            }
            last = Some(pass);
        },
    );
    e2e.setup_s = built.setup_s;
    e2e.ios_per_query = per_op(query_io);
    e2e.ios_per_update = match w {
        Workload::Thm2Churn => per_op(update_io),
        _ => built.ios_per_item,
    };
    (last.expect("at least one build"), e2e)
}

/// The untraced run of a closed-loop workload on the public index types.
fn untraced(
    w: Workload,
    cfg: &Config,
    items: &[Interval],
    builds: usize,
    seconds: f64,
) -> (Pass, EndToEnd) {
    match w {
        Workload::Thm2Pooled => instance_loop(
            w,
            cfg,
            items,
            builds,
            seconds,
            TopKStabbing::build,
            query_exec,
        ),
        Workload::Thm1Select => instance_loop(
            w,
            cfg,
            items,
            builds,
            seconds,
            TopKStabbingWorstCase::build,
            query_exec,
        ),
        Workload::Thm2Churn => instance_loop(
            w,
            cfg,
            items,
            builds,
            seconds,
            DynTopKStabbing::build,
            churn_exec,
        ),
        Workload::ServeZipf => unreachable!("serve_zipf is open loop"),
    }
}

/// The traced pass over the index of build 0: the same reductions built
/// through the public `ExpectedTopK` / `WorstCaseTopK` constructors with
/// timing decorators around the inner builders, exactly as the `interval`
/// types build them.
fn traced(
    w: Workload,
    cfg: &Config,
    items: &[Interval],
    n_ops: u64,
    rec: &Arc<Recorder>,
) -> (Pass, emsim::DeviceCounts) {
    let plan = plan(w, cfg);
    let seed = build_seed(cfg.seed, 0);
    let mut ops = Ops::new(w, seed, items.to_vec());
    let model = meter(plan.frames);
    let t2 = Theorem2Params {
        seed,
        ..Theorem2Params::default()
    };
    let sink = Arc::new(Sink(Arc::clone(rec)));
    let mut measure = |exec: &mut Exec<'_>| {
        warm_up(&mut ops, exec, plan.warmup);
        closed_loop(
            &mut ops,
            &model,
            exec,
            Stop::Ops(n_ops),
            Some(rec),
            plan.check_every,
            plan.io_ops,
        )
    };
    match w {
        Workload::Thm2Pooled => {
            let index = ExpectedTopK::build(
                &model,
                Timed::new(SegStabBuilder, rec),
                Timed::new(StabMaxBuilder, rec),
                items.to_vec(),
                t2,
            );
            let built = model.physical();
            model.set_trace_sink(sink);
            let pass = measure(&mut query_only(&index));
            (pass, built)
        }
        Workload::Thm1Select => {
            let index = WorstCaseTopK::build(
                &model,
                &Timed::new(PstStabBuilder, rec),
                items.to_vec(),
                Theorem1Params::new(LAMBDA).with_seed(seed),
            );
            let built = model.physical();
            model.set_trace_sink(sink);
            let pass = measure(&mut query_only(&index));
            (pass, built)
        }
        Workload::Thm2Churn => {
            let mut index = ExpectedTopK::build(
                &model,
                Timed::new(DynStabbingBuilder, rec),
                Timed::new(DynStabbingMaxBuilder, rec),
                items.to_vec(),
                t2,
            );
            let built = model.physical();
            model.set_trace_sink(sink);
            let mut exec = churn(&mut index, DynamicIndex::insert, DynamicIndex::delete);
            (measure(&mut exec), built)
        }
        Workload::ServeZipf => unreachable!("serve_zipf is open loop"),
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(&mut v.to_vec(), 50.0)
    }
}

/// Run one closed-loop workload: end-to-end metrics untraced, or, with
/// `cfg.trace`, an untraced pass on one build for half the time and a
/// traced pass over the same ops, reporting per-layer metrics.
pub fn run_closed(w: Workload, cfg: &Config) -> Outcome {
    let plan = plan(w, cfg);
    let items = gen::items(cfg.seed, plan.n);
    if !cfg.trace {
        return untraced(w, cfg, &items, plan.builds, cfg.seconds)
            .1
            .outcome();
    }

    let (mut plain, _) = untraced(w, cfg, &items, 1, cfg.seconds / 2.0);
    let rec = Recorder::new();
    let (pass, built) = traced(w, cfg, &items, plain.ops, &rec);
    if let Some(path) = &cfg.spans {
        if let Err(e) = rec.write_tsv(path) {
            eprintln!("perf: could not write spans to {}: {e}", path.display());
        }
    }
    // The decorators must be transparent: same meter state after the same
    // ops, build included.
    let io_match = plain.io_end == pass.io_end;
    if !io_match {
        eprintln!(
            "perf: traced I/O {:?} differs from untraced {:?} after {} ops",
            pass.io_end, plain.io_end, plain.ops
        );
    }
    let mut metrics = vec![
        ("p50_us", plain.best_slice_p50()),
        ("ops_per_s", plain.ops as f64 / plain.busy.as_secs_f64()),
        ("p99_us", percentile(&mut plain.latency_us, 99.0)),
        ("query.p50_us", median(&plain.query_us)),
        ("update.p50_us", median(&plain.update_us)),
    ];
    metrics.extend(layer_metrics(&rec, &pass, built, items.len()));
    metrics.extend(serve_zeros());
    metrics.push((
        "trace.overhead_frac",
        pass.busy.as_secs_f64() / plain.busy.as_secs_f64() - 1.0,
    ));
    Outcome {
        correct: plain.wrong == 0 && pass.wrong == 0 && io_match,
        attempted: plain.ops + pass.ops,
        failed: plain.failed + pass.failed,
        metrics,
    }
}

/// The serve metrics, which closed-loop workloads report as 0.
fn serve_zeros() -> Vec<(&'static str, f64)> {
    crate::spec::PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("serve."))
        .map(|m| (m.name, 0.0))
        .collect()
}

/// Per-layer metrics of a traced pass over an index of `n` items whose
/// build caused `built` device traffic.
pub fn layer_metrics(
    rec: &Recorder,
    pass: &Pass,
    built: emsim::DeviceCounts,
    n: usize,
) -> Vec<(&'static str, f64)> {
    let updates = pass.update_us.len();
    let totals = rec.totals();
    let get = |l: Layer| totals.get(&l).copied().unwrap_or_default();
    let ops = pass.ops.max(1) as f64;
    let per_op_us = |ns: u64| ns as f64 / 1e3 / ops;
    let per_update_us = |ns: u64| {
        if updates == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / updates as f64
        }
    };
    let reads = |phase: &str| rec.phase_io(phase)[0] as f64 / ops;
    let op = get(Layer::Op);
    let reported = rec.reported();
    vec![
        ("op.us", per_op_us(op.total_ns)),
        ("reduction.self_us", per_op_us(op.self_ns)),
        ("pri.calls", get(Layer::Pri).calls as f64 / ops),
        ("pri.us", per_op_us(get(Layer::Pri).self_ns)),
        ("pri.reported", reported as f64 / ops),
        (
            "pri.useful_frac",
            if reported == 0 {
                0.0
            } else {
                pass.returned as f64 / reported as f64
            },
        ),
        (
            "pri.us_per_update",
            per_update_us(get(Layer::PriUpdate).self_ns),
        ),
        ("pri.build_s", get(Layer::PriBuild).total_ns as f64 / 1e9),
        ("max.calls", get(Layer::Max).calls as f64 / ops),
        ("max.us", per_op_us(get(Layer::Max).self_ns)),
        (
            "max.us_per_update",
            per_update_us(get(Layer::MaxUpdate).self_ns),
        ),
        ("max.build_s", get(Layer::MaxBuild).total_ns as f64 / 1e9),
        ("select.calls", get(Layer::Select).calls as f64 / ops),
        ("select.us", per_op_us(get(Layer::Select).self_ns)),
        (
            "select.share",
            get(Layer::Select).self_ns as f64 / op.total_ns.max(1) as f64,
        ),
        ("probe.reads", reads(emsim::trace::phase::PROBE)),
        ("sample.reads", reads(emsim::trace::phase::SAMPLE)),
        ("select.reads", reads(emsim::trace::phase::SELECT)),
        ("scan.reads", reads(emsim::trace::phase::SCAN)),
        (
            "other.writes",
            rec.phase_io(emsim::trace::phase::OTHER)[1] as f64 / ops,
        ),
        ("meter.reads", pass.io.reads as f64 / ops),
        ("meter.writes", pass.io.writes as f64 / ops),
        (
            "pool.touches",
            (pass.io.pool_hits + pass.io.pool_misses) as f64 / ops,
        ),
        ("pool.hit_rate", pass.io.hit_rate()),
        ("device.pwrites_per_item", built.pwrites as f64 / n as f64),
        (
            "device.bytes_written_per_item",
            built.bytes_written as f64 / n as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers and per-query meter traffic of `b` equal those of `a`, on
    /// both query paths.
    fn assert_same(
        a: &impl TopKIndex<Interval, f64>,
        ma: &CostModel,
        b: &impl TopKIndex<Interval, f64>,
        mb: &CostModel,
    ) {
        assert_eq!(ma.report(), mb.report(), "build traffic");
        let mut rng = SplitMix64::new(11, 5);
        let retrier = emsim::Retrier::default();
        for _ in 0..200 {
            let q = rng.unit() * gen::LO_SPAN;
            let k = [1, 10, 100, 1_000][rng.below(4) as usize];
            let run = |i: &dyn Fn(&mut Vec<Interval>), m: &CostModel| {
                m.measure(|| {
                    let mut out = Vec::new();
                    i(&mut out);
                    out.iter().map(|iv| iv.weight).collect::<Vec<_>>()
                })
            };
            let plain = run(&|out| a.query_topk(&q, k, out), ma);
            let timed = run(&|out| b.query_topk(&q, k, out), mb);
            assert_eq!(plain, timed, "query_topk q={q} k={k}");
            let fallible = |i: &dyn TopKIndex<Interval, f64>, m: &CostModel| {
                m.measure(|| i.try_query_topk(&q, k, &retrier).expect("no faults armed"))
            };
            assert_eq!(
                fallible(a, ma),
                fallible(b, mb),
                "try_query_topk q={q} k={k}"
            );
        }
    }

    #[test]
    fn decorators_are_transparent() {
        let seed = 9;
        let items = gen::items(seed, 3_000);
        let rec = Recorder::new();
        let t2 = Theorem2Params {
            seed,
            ..Theorem2Params::default()
        };

        let (ma, mb) = (meter(64), meter(64));
        let plain = TopKStabbing::build(&ma, items.clone(), seed);
        let timed = ExpectedTopK::build(
            &mb,
            Timed::new(SegStabBuilder, &rec),
            Timed::new(StabMaxBuilder, &rec),
            items.clone(),
            t2,
        );
        assert_same(&plain, &ma, &timed, &mb);

        let (ma, mb) = (meter(0), meter(0));
        let plain = TopKStabbingWorstCase::build(&ma, items.clone(), seed);
        let timed = WorstCaseTopK::build(
            &mb,
            &Timed::new(PstStabBuilder, &rec),
            items.clone(),
            Theorem1Params::new(LAMBDA).with_seed(seed),
        );
        assert_same(&plain, &ma, &timed, &mb);

        let (ma, mb) = (meter(0), meter(0));
        let mut plain = DynTopKStabbing::build(&ma, items.clone(), seed);
        let mut timed = ExpectedTopK::build(
            &mb,
            Timed::new(DynStabbingBuilder, &rec),
            Timed::new(DynStabbingMaxBuilder, &rec),
            items.clone(),
            t2,
        );
        let mut ops = Ops::new(Workload::Thm2Churn, seed, items);
        for _ in 0..2_000 {
            match ops.next_op() {
                Op::Insert(iv) => {
                    plain.insert(iv);
                    timed.insert(iv);
                }
                Op::Delete(w) => assert_eq!(plain.delete(w), timed.delete(w)),
                Op::Query { .. } => {}
            }
        }
        assert_same(&plain, &ma, &timed, &mb);
        assert!(
            rec.totals()[&Layer::PriUpdate].calls > 0,
            "updates were timed"
        );
    }

    #[test]
    fn checker_counts_wrong_answers() {
        let items = gen::items(3, 512);
        let model = meter(0);
        let index = TopKStabbing::build(&model, items.clone(), 3);
        let mut ops = Ops::new(Workload::Thm2Pooled, 3, items);
        // An index that loses the heaviest item of every answer.
        let mut exec = |op: &Op, out: &mut Vec<Interval>| {
            let ok = query_only(&index)(op, out);
            if !out.is_empty() {
                out.remove(0);
            }
            ok
        };
        let pass = closed_loop(&mut ops, &model, &mut exec, Stop::Ops(640), None, 64, 0);
        assert_eq!(pass.wrong, 10, "every 64th answer is checked");
        assert_eq!(pass.failed, 10);
        let failed = pass.latency_us.iter().filter(|us| us.is_infinite()).count();
        assert_eq!(failed, 10, "a failed op misses every latency limit");
    }
}
