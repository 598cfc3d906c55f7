//! E25: the serving loop under traffic (DESIGN.md §4, SERVING.md) — the
//! "millions of users" claim as a qps×latency curve instead of a bare
//! I/O count.
//!
//! Two halves share one Zipf/whale-mix request stream from
//! [`crate::traffic`]:
//!
//! * **Closed-loop (golden-pinned).** The stream is replayed through
//!   [`TopKService::serve_closed`] on the experiment thread under three
//!   configs — `uncapped` (no pressure: every answer must be `Exact` and
//!   equal brute force), `backlog` (the whole stream presented as
//!   standing backlog: early batches coarsen to `degraded_k`,
//!   deterministically), and `budget` (the whale tenant's per-epoch I/O
//!   budget set to half its uncapped appetite: the whale sheds, the
//!   light tenants don't). All I/O here is bit-deterministic and pinned
//!   by `golden_smoke_ios.json`.
//! * **Open-loop (wall-clock, unpinned).** A [`Server`] is spawned over
//!   a second identical index and offered the same stream at a rate
//!   calibrated from the closed-loop half (paced phase, ~25% load), then
//!   flooded with a zero-gap burst of `4 × queue_max` requests (burst
//!   phase). Reported: offered/achieved qps, p50/p95/p99 submit-to-reply
//!   latency, degraded fraction. Under the burst the service *must* shed
//!   (the queue is bounded at the front door) and must still answer
//!   every ticket — overload degrades answers, it never queues without
//!   bound.
//!
//! Every `Exact` answer in both halves is asserted equal to
//! [`brute::top_k`]. The open half runs on service threads whose I/O is
//! never credited back to the experiment thread, so the golden baselines
//! see only the deterministic half.

use std::sync::Arc;
use std::time::{Duration, Instant};

use emsim::{CostModel, EmConfig, FaultPlan, Histogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{QueryRequest, Rung, ServeConfig, ServeReply, Server, TopKService};
use topk_core::toy::{PrefixBuilder, PrefixQuery, ToyElem};
use topk_core::{brute, Theorem1Params, TopKAnswer, WorstCaseTopK};

use crate::table::{f, Table};
use crate::traffic::{generate, TrafficConfig};
use crate::Scale;

/// Distinct-weight random items, same generator as E17.
fn mk_items(n: usize, seed: u64) -> Vec<ToyElem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights: Vec<u64> = (1..=n as u64).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        weights.swap(i, j);
    }
    (0..n)
        .map(|i| ToyElem {
            x: i as u64,
            w: weights[i],
        })
        .collect()
}

type ServeIndex = WorstCaseTopK<ToyElem, PrefixQuery, PrefixBuilder>;

/// Build the Theorem 1 index on its own fault-free meter (explicit
/// `FaultPlan::none()` so the chaos soak can't perturb the goldens).
fn build_index(items: &[ToyElem], b: usize, frames: usize, seed: u64) -> (CostModel, ServeIndex) {
    let model = CostModel::with_faults(EmConfig::with_memory(b, frames), FaultPlan::none());
    let index = WorstCaseTopK::build(
        &model,
        &PrefixBuilder,
        items.to_vec(),
        Theorem1Params::new(1.0).with_seed(seed),
    );
    (model, index)
}

/// Machine-readable open-loop results for `exp_serve --json` / CI.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Paced phase: offered load (from generated arrival offsets).
    pub paced_offered_qps: f64,
    /// Paced phase: achieved throughput.
    pub paced_qps: f64,
    /// Paced phase: p50 submit-to-reply latency, microseconds.
    pub paced_p50_us: f64,
    /// Paced phase: p95 latency, microseconds.
    pub paced_p95_us: f64,
    /// Paced phase: p99 latency, microseconds.
    pub paced_p99_us: f64,
    /// Paced phase: degraded-answer fraction.
    pub paced_degraded: f64,
    /// Burst phase: achieved throughput (replies/sec of wall time).
    pub burst_qps: f64,
    /// Burst phase: shed replies.
    pub burst_shed: u64,
    /// Burst phase: degraded-answer fraction.
    pub burst_degraded: f64,
    /// Both open-loop phases combined: degraded fraction.
    pub open_degraded: f64,
}

/// The registry entry point (table only).
pub fn exp_serve(scale: Scale) -> Table {
    run_detailed(scale).0
}

/// Run E25 and also return the open-loop summary (for `exp_serve --json`).
pub fn run_detailed(scale: Scale) -> (Table, ServeSummary) {
    let n = scale.n(4096);
    let m = scale.trials(320);
    let b = 64;
    let frames = (4 * n / b).max(32);
    let items = mk_items(n, 0xE25);
    let stream = TrafficConfig::whale_mix(0xE25, m, n as u64);
    let requests: Vec<QueryRequest<PrefixQuery>> =
        generate(&stream).into_iter().map(|a| a.req).collect();

    let mut t = Table::new(
        format!("E25: serving loop under Zipf/whale traffic — n={n}, m={m}, B={b}"),
        &[
            "half", "config", "reqs", "full", "coarse", "shed", "degr %", "ios", "ios/req",
            "p50 µs", "p95 µs", "p99 µs", "qps",
        ],
    );

    // ---- closed-loop half (deterministic, golden-pinned) ----

    // (a) uncapped: no pressure anywhere; every answer exact.
    let (model_a, index_a) = build_index(&items, b, frames, 0xE251);
    let cfg_a = ServeConfig::default()
        .with_batch_max(32)
        .with_shed_depth(m + 1)
        .with_queue_max(2 * m + 2);
    let service_a = TopKService::new(index_a, model_a.clone(), cfg_a);
    let before_a = model_a.report();
    let start_a = Instant::now();
    let replies_a = service_a.serve_closed(&requests);
    let wall_a = start_a.elapsed();
    let ios_a = model_a.report().since(&before_a).total();
    for (req, reply) in requests.iter().zip(&replies_a) {
        assert_eq!(reply.rung, Rung::Full, "uncapped config must admit all");
        let expect = brute::top_k(&items, |e| e.x <= req.query.x_max, req.k);
        assert_eq!(
            reply.answer,
            TopKAnswer::Exact(expect),
            "uncapped answer must match brute force"
        );
    }
    let report_a = service_a.report();
    assert_eq!(report_a.degraded, 0);
    push_closed_row(&mut t, "uncapped", &service_a.report(), ios_a, m);

    // (b) backlog: the whole stream as standing backlog — the depth rung.
    let (model_b2, index_b2) = build_index(&items, b, frames, 0xE251);
    let cfg_b = ServeConfig::default()
        .with_batch_max(16)
        .with_shed_depth((m / 2).max(1))
        .with_queue_max(2 * m + 2)
        .with_degraded_k(4);
    let service_b = TopKService::new(index_b2, model_b2.clone(), cfg_b);
    let before_b = model_b2.report();
    let replies_b = service_b.serve_closed(&requests);
    let ios_b = model_b2.report().since(&before_b).total();
    for (req, reply) in requests.iter().zip(&replies_b) {
        match (&reply.rung, &reply.answer) {
            (Rung::Full, TopKAnswer::Exact(got)) => {
                let expect = brute::top_k(&items, |e| e.x <= req.query.x_max, req.k);
                assert_eq!(got, &expect);
            }
            (Rung::Coarse, TopKAnswer::Degraded { items: got, .. }) => {
                // The coarse rung reports exactly the true top-degraded_k.
                let expect = brute::top_k(&items, |e| e.x <= req.query.x_max, 4.min(req.k));
                assert_eq!(got, &expect, "coarse rung must be a true-top-k prefix");
            }
            other => panic!("backlog config produced unexpected reply shape: {other:?}"),
        }
    }
    let report_b = service_b.report();
    assert!(report_b.coarse > 0, "backlog must coarsen early batches");
    assert!(report_b.full > 0, "backlog must drain to full fidelity");
    assert_eq!(report_b.shed, 0, "backlog config never sheds");
    push_closed_row(&mut t, "backlog", &report_b, ios_b, m);

    // (c) budget: the whale tenant capped at half its uncapped per-epoch
    // appetite (derived from (a)'s pinned ledger, so still deterministic).
    // The stream is cut into 8 batches / 2 epochs at every scale so the
    // budget has epochs to trip in.
    let epoch_batches = 4u64;
    let batch_max_c = (m / 8).max(1);
    let batches_c = (m as u64).div_ceil(batch_max_c as u64);
    let epochs_c = batches_c.div_ceil(epoch_batches).max(1);
    let whale_ios_a = report_a
        .tenants
        .iter()
        .find(|ts| ts.tenant == 0)
        .map_or(0, |ts| ts.ios);
    let budget = (whale_ios_a / epochs_c / 2).max(1);
    let (model_c, index_c) = build_index(&items, b, frames, 0xE251);
    let cfg_c = ServeConfig::default()
        .with_batch_max(batch_max_c)
        .with_shed_depth(m + 1)
        .with_queue_max(2 * m + 2)
        .with_epoch_batches(epoch_batches)
        .with_tenant_budget(budget);
    let service_c = TopKService::new(index_c, model_c.clone(), cfg_c);
    let before_c = model_c.report();
    let replies_c = service_c.serve_closed(&requests);
    let ios_c = model_c.report().since(&before_c).total();
    for (req, reply) in requests.iter().zip(&replies_c) {
        if let TopKAnswer::Exact(got) = &reply.answer {
            let expect = brute::top_k(&items, |e| e.x <= req.query.x_max, req.k);
            assert_eq!(got, &expect);
        }
    }
    let report_c = service_c.report();
    assert!(report_c.shed > 0, "half-budget whale must shed");
    assert!(report_c.full > 0, "budget config must still serve");
    let frac_c = report_c.degraded_fraction();
    assert!(
        frac_c > 0.0 && frac_c < 1.0,
        "degraded fraction {frac_c} not in (0,1)"
    );
    for ts in &report_c.tenants {
        let completed: u64 = ts.epochs.iter().sum();
        let partial = ts.ios - completed;
        for spend in ts.epochs.iter().copied().chain([partial]) {
            assert!(
                spend <= budget + ts.max_batch_ios,
                "tenant {} epoch spend {spend} > budget {budget} + one batch",
                ts.tenant
            );
        }
        if ts.tenant != 0 {
            assert_eq!(
                ts.shed, 0,
                "light tenant {} shed under whale budget",
                ts.tenant
            );
        }
    }
    push_closed_row(&mut t, "budget", &report_c, ios_c, m);

    // ---- open-loop half (wall-clock, never golden-pinned) ----

    // Calibrate pacing off the closed uncapped run: offer ~25% load.
    let mean_service = wall_a
        .checked_div(m as u32)
        .unwrap_or(Duration::from_micros(50));
    let mean_gap = (mean_service * 4).max(Duration::from_micros(50));

    let (model_o, index_o) = build_index(&items, b, frames, 0xE251);
    let queue_max = 128;
    let cfg_o = ServeConfig::default()
        .with_batch_max(32)
        .with_window(Duration::from_micros(200))
        .with_shed_depth(64)
        .with_queue_max(queue_max)
        .with_degraded_k(4);
    let service_o = Arc::new(TopKService::new(index_o, model_o, cfg_o));
    let server = Server::spawn(Arc::clone(&service_o));
    let handle = server.handle();

    // Paced phase: the generated bursty arrival schedule, rescaled to the
    // calibrated mean gap.
    let mut paced_stream = stream.clone();
    paced_stream.mean_gap = mean_gap;
    let arrivals = generate(&paced_stream);
    let offered_span = arrivals.last().map_or(Duration::ZERO, |a| a.at);
    let start = Instant::now();
    let tickets: Vec<_> = arrivals
        .iter()
        .map(|a| {
            let due = start + a.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            handle.submit(a.req.clone())
        })
        .collect();
    let paced: Vec<(ServeReply<ToyElem>, Duration)> =
        tickets.into_iter().map(serve::Ticket::wait).collect();
    let paced_wall = start.elapsed();

    // Burst phase: a zero-gap flood of 4×queue_max requests — the queue
    // must bound at the front door and shed the overflow.
    let burst_n = 4 * queue_max;
    let burst_reqs: Vec<QueryRequest<PrefixQuery>> =
        generate(&TrafficConfig::whale_mix(0xE25B, burst_n, n as u64))
            .into_iter()
            .map(|a| a.req)
            .collect();
    let burst_start = Instant::now();
    let burst_tickets: Vec<_> = burst_reqs
        .iter()
        .map(|r| handle.submit(r.clone()))
        .collect();
    let burst: Vec<(ServeReply<ToyElem>, Duration)> =
        burst_tickets.into_iter().map(serve::Ticket::wait).collect();
    let burst_wall = burst_start.elapsed();

    drop(handle);
    let open_report = server.shutdown();

    // Exactness holds in the open loop too.
    for (req, (reply, _)) in arrivals.iter().map(|a| &a.req).zip(&paced) {
        if let TopKAnswer::Exact(got) = &reply.answer {
            let expect = brute::top_k(&items, |e| e.x <= req.query.x_max, req.k);
            assert_eq!(got, &expect, "open-loop Exact must match brute force");
        }
    }
    for (req, (reply, _)) in burst_reqs.iter().zip(&burst) {
        if let TopKAnswer::Exact(got) = &reply.answer {
            let expect = brute::top_k(&items, |e| e.x <= req.query.x_max, req.k);
            assert_eq!(got, &expect, "burst Exact must match brute force");
        }
    }
    assert_eq!(
        open_report.requests as usize,
        m + burst_n,
        "every submitted request must be answered"
    );
    let burst_shed = burst.iter().filter(|(r, _)| r.rung == Rung::Shed).count() as u64;
    assert!(
        burst_shed > 0,
        "a {burst_n}-deep zero-gap burst into a {queue_max}-slot queue must shed"
    );
    assert!(
        open_report.full > 0,
        "open loop must answer something at full fidelity"
    );
    let open_degraded = open_report.degraded_fraction();
    assert!(open_degraded < 1.0, "open loop fully degraded");

    let summary = ServeSummary {
        paced_offered_qps: if offered_span.is_zero() {
            0.0
        } else {
            m as f64 / offered_span.as_secs_f64()
        },
        paced_qps: m as f64 / paced_wall.as_secs_f64().max(1e-9),
        paced_p50_us: percentile_us(&paced, Histogram::p50),
        paced_p95_us: percentile_us(&paced, Histogram::p95),
        paced_p99_us: percentile_us(&paced, Histogram::p99),
        paced_degraded: degraded_fraction(&paced),
        burst_qps: burst_n as f64 / burst_wall.as_secs_f64().max(1e-9),
        burst_shed,
        burst_degraded: degraded_fraction(&burst),
        open_degraded,
    };

    push_open_row(
        &mut t,
        "paced",
        &paced,
        summary.paced_offered_qps,
        summary.paced_qps,
    );
    push_open_row(&mut t, "burst", &burst, f64::NAN, summary.burst_qps);
    (t, summary)
}

fn degraded_fraction(replies: &[(ServeReply<ToyElem>, Duration)]) -> f64 {
    if replies.is_empty() {
        return 0.0;
    }
    replies.iter().filter(|(r, _)| r.is_degraded()).count() as f64 / replies.len() as f64
}

fn percentile_us(
    replies: &[(ServeReply<ToyElem>, Duration)],
    pick: impl Fn(&Histogram) -> f64,
) -> f64 {
    let mut h = Histogram::new();
    for (_, lat) in replies {
        h.push(lat.as_secs_f64() * 1e6);
    }
    pick(&h)
}

fn push_closed_row(t: &mut Table, config: &str, report: &serve::ServeReport, ios: u64, m: usize) {
    t.row_strings(vec![
        "closed".into(),
        config.into(),
        report.requests.to_string(),
        report.full.to_string(),
        report.coarse.to_string(),
        report.shed.to_string(),
        f(100.0 * report.degraded_fraction()),
        ios.to_string(),
        f(ios as f64 / m as f64),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
}

fn push_open_row(
    t: &mut Table,
    phase: &str,
    replies: &[(ServeReply<ToyElem>, Duration)],
    offered_qps: f64,
    qps: f64,
) {
    let full = replies.iter().filter(|(r, _)| r.rung == Rung::Full).count();
    let coarse = replies
        .iter()
        .filter(|(r, _)| r.rung == Rung::Coarse)
        .count();
    let shed = replies.iter().filter(|(r, _)| r.rung == Rung::Shed).count();
    let offered = if offered_qps.is_nan() {
        "flood".to_string()
    } else {
        f(offered_qps)
    };
    t.row_strings(vec![
        "open".into(),
        format!("{phase} (offered {offered}/s)"),
        replies.len().to_string(),
        full.to_string(),
        coarse.to_string(),
        shed.to_string(),
        f(100.0 * degraded_fraction(replies)),
        "-".into(),
        "-".into(),
        f(percentile_us(replies, Histogram::p50)),
        f(percentile_us(replies, Histogram::p95)),
        f(percentile_us(replies, Histogram::p99)),
        f(qps),
    ]);
}
