//! The open-loop `serve_zipf` workload: Poisson arrivals at two fixed
//! rates, then a zero-gap flood, through `serve::Server` into a Theorem 2
//! stabbing index.

use std::sync::Arc;
use std::time::{Duration, Instant};

use emsim::{EmError, Retrier};
use interval::{Interval, SegStabBuilder, StabMaxBuilder, TopKStabbing};
use serve::{QueryRequest, Rung, ServeConfig, Server, TopKService};
use topk_core::{BatchKey, ExpectedTopK, Theorem2Params, TopKAnswer, TopKIndex};

use crate::gen::{self, SplitMix64};
use crate::layers::{Layer, Recorder, Sink, Timed};
use crate::stats::percentile;
use crate::work::{self, Config, EndToEnd, Outcome, Pass};

/// Pool frames: the hot set of log-uniform stabs fits.
const FRAMES: usize = 65_536;
/// The two paced rates, requests per second.
const RATES: [f64; 2] = [4_000.0, 8_000.0];
/// Share of the run each paced phase lasts.
const PHASE_SHARE: f64 = 0.3;
/// Flood requests per second of run time.
const FLOOD_PER_S: f64 = 5_000.0;
/// Index builds per run; `setup_s` is their median.
const BUILDS: usize = 5;
/// Unmeasured direct queries that fill the pool before serving starts.
const WARMUP: u64 = 20_000;
/// Every this-many-th reply is checked against brute force.
const CHECK_EVERY: usize = 64;

/// A stabbing point as a serve query: `f64` has no [`BatchKey`], and the
/// orphan rule forbids adding one here.
#[derive(Clone, Copy, Debug)]
pub struct Point(pub f64);

impl BatchKey for Point {
    fn batch_key(&self) -> u64 {
        // Stabbing points are non-negative, where the bit pattern orders
        // like the value.
        self.0.to_bits()
    }
}

/// Forwards every [`TopKIndex`] method of a stabbing index to `Point`
/// queries, timing each index query as one op when traced.
pub struct ServeIndex<I> {
    inner: I,
    rec: Option<Arc<Recorder>>,
}

impl<I> ServeIndex<I> {
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.rec {
            Some(r) => r.time(Layer::Op, f),
            None => f(),
        }
    }
}

impl<I: TopKIndex<Interval, f64>> TopKIndex<Interval, Point> for ServeIndex<I> {
    fn query_topk(&self, q: &Point, k: usize, out: &mut Vec<Interval>) {
        self.timed(|| self.inner.query_topk(&q.0, k, out));
    }

    fn space_blocks(&self) -> u64 {
        self.inner.space_blocks()
    }

    fn try_query_topk(
        &self,
        q: &Point,
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<Interval>, EmError> {
        self.timed(|| self.inner.try_query_topk(&q.0, k, retrier))
    }
}

/// One generated request; `due` is its offset from the start of its phase.
#[derive(Clone, Copy, Debug)]
struct Req {
    due: Duration,
    tenant: u32,
    q: f64,
    k: usize,
}

fn request(rng: &mut SplitMix64, due: Duration) -> Req {
    let u = rng.unit();
    let tenant = if u < 0.6 {
        0
    } else if u < 0.73 {
        1
    } else if u < 0.86 {
        2
    } else {
        3
    };
    Req {
        due,
        tenant,
        q: rng.log_uniform(1.0, gen::LO_SPAN),
        k: [1, 4, 16][rng.below(3) as usize],
    }
}

/// Rounds per run: each round paces both rates and then floods, so that a
/// slow spell of the machine spoils only some rounds (see
/// `Pass::best_slice_p50` for the same idea in the closed loop).
fn rounds(seconds: f64) -> usize {
    (seconds.round() as usize).clamp(1, 10)
}

/// The request schedule, per round: one Poisson phase per rate, then the
/// flood.
fn schedule(seed: u64, seconds: f64) -> Vec<Vec<Vec<Req>>> {
    let mut rng = SplitMix64::new(seed, 3);
    let rounds = rounds(seconds);
    let phase_s = seconds * PHASE_SHARE / rounds as f64;
    let flood = ((FLOOD_PER_S * seconds / rounds as f64).ceil() as usize).max(100);
    (0..rounds)
        .map(|_| {
            let mut phases: Vec<Vec<Req>> = RATES
                .iter()
                .map(|&rate| {
                    let mut t = 0.0;
                    let mut reqs = Vec::new();
                    loop {
                        t += -(1.0 - rng.unit()).ln() / rate;
                        if t >= phase_s {
                            break reqs;
                        }
                        reqs.push(request(&mut rng, Duration::from_secs_f64(t)));
                    }
                })
                .collect();
            phases.push(
                (0..flood)
                    .map(|_| request(&mut rng, Duration::ZERO))
                    .collect(),
            );
            phases
        })
        .collect()
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left.saturating_sub(Duration::from_millis(1)));
        } else {
            // Yield rather than spin: on two cores the batcher thread
            // must not lose its core to the generator.
            std::thread::yield_now();
        }
    }
}

/// What one serving run measured.
#[derive(Default)]
struct ServeRun {
    /// Per paced rate: latency from due time to reply, µs (+inf if failed),
    /// all rounds.
    from_due_us: [Vec<f64>; 2],
    /// Per round: median latency from due time over both paced phases, and
    /// per paced rate.
    round_p50: Vec<f64>,
    round_p50_at: [Vec<f64>; 2],
    /// Per round: replies per second while the flood drained, the first
    /// 10 % of its replies excluded while the pipeline fills.
    round_capacity: Vec<f64>,
    /// Paced requests: latency from submission to reply, µs (finite only).
    from_submit_us: Vec<f64>,
    /// How late the generator submitted paced requests, µs.
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
    requests: u64,
    batches: u64,
    failed: u64,
    wrong: u64,
    returned: u64,
    io: emsim::IoReport,
}

/// Serve the schedule through a fresh server over `index`.
fn serve<I>(
    index: ServeIndex<I>,
    model: &emsim::CostModel,
    items: &[Interval],
    seed: u64,
    seconds: f64,
) -> ServeRun
where
    I: TopKIndex<Interval, f64> + Send + Sync + 'static,
{
    // Shedding and coarsening thresholds sit above the whole schedule, so
    // every request is answered at full fidelity.
    let schedule = schedule(seed, seconds);
    let total: usize = schedule.iter().flatten().map(Vec::len).sum();
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_batch_max(32)
        .with_window(Duration::from_micros(200))
        .with_shed_depth(total + 1)
        .with_queue_max(total + 1);
    let server = Server::spawn(Arc::new(TopKService::new(index, model.clone(), cfg)));
    let handle = server.handle();
    let io_start = model.report();

    // Collect every reply before checking any, so that brute-force checks
    // never compete with the server for the machine.
    let mut replies = Vec::with_capacity(total);
    for (round, phases) in schedule.iter().enumerate() {
        let mut sent = Vec::new();
        for (phase, reqs) in phases.iter().enumerate() {
            let start = Instant::now();
            for r in reqs {
                let due = start + r.due;
                wait_until(due);
                let before = Instant::now();
                let ticket = handle.submit(QueryRequest {
                    tenant: r.tenant,
                    query: Point(r.q),
                    k: r.k,
                });
                let after = Instant::now();
                sent.push((phase, *r, due, before, after, ticket));
            }
        }
        // The flood drains before the next round paces again.
        replies.extend(
            sent.into_iter()
                .map(|(phase, r, due, before, after, ticket)| {
                    (round, phase, r, due, before, after, ticket.wait())
                }),
        );
    }
    drop(handle);
    let report = server.shutdown();

    let mut run = ServeRun::default();
    let rounds = schedule.len();
    let mut due_us = vec![[Vec::new(), Vec::new()]; rounds];
    let mut flood_done = vec![Vec::new(); rounds];
    for (i, (round, phase, r, due, before, after, (reply, latency))) in
        replies.into_iter().enumerate()
    {
        let mut ok = reply.rung == Rung::Full && reply.answer.is_exact();
        run.returned += reply.answer.items().len() as u64;
        if ok && i % CHECK_EVERY == 0 && !work::is_exact(items, r.q, r.k, reply.answer.items()) {
            ok = false;
            run.wrong += 1;
        }
        if !ok {
            run.failed += 1;
        }
        run.submit_us.push((after - before).as_secs_f64() * 1e6);
        if phase < RATES.len() {
            let late = before.saturating_duration_since(due);
            run.late_us.push(late.as_secs_f64() * 1e6);
            let from_due = if ok {
                run.from_submit_us.push(latency.as_secs_f64() * 1e6);
                (late + latency).as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            };
            due_us[round][phase].push(from_due);
        } else {
            flood_done[round].push(before + latency);
        }
    }
    for ([at4k, at8k], mut done) in due_us.into_iter().zip(flood_done) {
        run.round_p50
            .push(percentile(&mut [at4k.clone(), at8k.clone()].concat(), 50.0));
        for (rate, mut v) in [at4k, at8k].into_iter().enumerate() {
            run.round_p50_at[rate].push(percentile(&mut v, 50.0));
            run.from_due_us[rate].extend(v);
        }
        done.sort_unstable();
        let skip = done.len() / 10;
        let span = done[done.len() - 1] - done[skip];
        run.round_capacity
            .push((done.len() - 1 - skip) as f64 / span.as_secs_f64());
    }
    run.io = model.report().since(&io_start);
    run.requests = report.requests;
    run.batches = report.batches;
    run
}

fn warm(index: &impl TopKIndex<Interval, f64>, seed: u64, n: u64) {
    let mut rng = SplitMix64::new(seed, 4);
    let mut out = Vec::new();
    for _ in 0..n {
        let r = request(&mut rng, Duration::ZERO);
        out.clear();
        index.query_topk(&r.q, r.k, &mut out);
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Build `builds` times on the public `TopKStabbing`, then warm and serve
/// the last build.
fn untraced(cfg: &Config, items: &[Interval], builds: usize, seconds: f64) -> (ServeRun, EndToEnd) {
    let mut e2e = EndToEnd::default();
    let mut served = None;
    let built = work::instances(
        items,
        FRAMES,
        builds,
        cfg.seed,
        TopKStabbing::build,
        |b, model, index| {
            e2e.blocks_per_item += index.space_blocks() as f64 / items.len() as f64 / builds as f64;
            if b + 1 < builds {
                return;
            }
            warm(&index, cfg.seed, cfg.ops(WARMUP));
            e2e.peak_rss_mib = work::peak_rss_mib();
            let index = ServeIndex {
                inner: index,
                rec: None,
            };
            served = Some(serve(index, model, items, cfg.seed, seconds));
        },
    );
    let run = served.expect("at least one build");
    e2e.setup_s = built.setup_s;
    e2e.ios_per_query = run.io.total() as f64 / run.requests as f64;
    e2e.ios_per_update = built.ios_per_item;
    e2e.attempted = run.requests;
    e2e.failed = run.failed;
    e2e.wrong = run.wrong;
    (run, e2e)
}

/// Run `serve_zipf`: end-to-end metrics untraced, or with `cfg.trace` an
/// untraced and a traced run of half the length each.
pub fn run(cfg: &Config) -> Outcome {
    let items = gen::items(cfg.seed, cfg.n(work::N_STATIC));
    if !cfg.trace {
        return untraced(cfg, &items, BUILDS, cfg.seconds).1.outcome();
    }

    let seconds = cfg.seconds / 2.0;
    let (mut plain, _) = untraced(cfg, &items, 1, seconds);

    let rec = Recorder::new();
    let model = work::meter(FRAMES);
    let params = Theorem2Params {
        seed: work::build_seed(cfg.seed, 0),
        ..Theorem2Params::default()
    };
    let index = ExpectedTopK::build(
        &model,
        Timed::new(SegStabBuilder, &rec),
        Timed::new(StabMaxBuilder, &rec),
        items.clone(),
        params,
    );
    let built = model.physical();
    warm(&index, cfg.seed, cfg.ops(WARMUP));
    model.set_trace_sink(Arc::new(Sink(Arc::clone(&rec))));
    rec.clear_ops();
    let mut traced = serve(
        ServeIndex {
            inner: index,
            rec: Some(Arc::clone(&rec)),
        },
        &model,
        &items,
        cfg.seed,
        seconds,
    );
    if let Some(path) = &cfg.spans {
        if let Err(e) = rec.write_tsv(path) {
            eprintln!("perf: could not write spans to {}: {e}", path.display());
        }
    }

    let queries = rec.totals().get(&Layer::Op).copied().unwrap_or_default();
    let pass = Pass {
        ops: queries.calls,
        returned: traced.returned,
        io: traced.io,
        ..Pass::default()
    };
    let index_us = queries.total_ns as f64 / 1e3 / traced.requests as f64;
    let [mut at4k, mut at8k] = std::mem::take(&mut plain.from_due_us);
    let best_p50 = plain
        .round_p50
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let mut metrics = vec![
        ("p50_us", best_p50),
        ("ops_per_s", percentile(&mut plain.round_capacity, 50.0)),
        (
            "p99_us",
            percentile(&mut [at4k.clone(), at8k.clone()].concat(), 99.0),
        ),
        ("query.p50_us", 0.0),
        ("update.p50_us", 0.0),
    ];
    metrics.extend(work::layer_metrics(&rec, &pass, built, items.len()));
    metrics.extend([
        ("serve.submit_us", mean(&plain.submit_us)),
        (
            "serve.batch_size",
            plain.requests as f64 / plain.batches as f64,
        ),
        ("serve.index_us", index_us),
        ("serve.wait_us", mean(&traced.from_submit_us) - index_us),
        (
            "serve.gen_late_p99_us",
            percentile(&mut plain.late_us, 99.0),
        ),
        (
            "serve.p50_us_4k",
            percentile(&mut plain.round_p50_at[0], 50.0),
        ),
        (
            "serve.p50_us_8k",
            percentile(&mut plain.round_p50_at[1], 50.0),
        ),
        ("serve.p99_us_4k", percentile(&mut at4k, 99.0)),
        ("serve.p99_us_8k", percentile(&mut at8k, 99.0)),
        (
            "trace.overhead_frac",
            percentile(&mut plain.round_capacity, 50.0)
                / percentile(&mut traced.round_capacity, 50.0)
                - 1.0,
        ),
    ]);
    Outcome {
        correct: plain.wrong == 0 && traced.wrong == 0,
        attempted: plain.requests + traced.requests,
        failed: plain.failed + traced.failed,
        metrics,
    }
}
