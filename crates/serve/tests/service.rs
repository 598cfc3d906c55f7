//! Integration tests for the serving loop: exactness against brute force,
//! deterministic coarsening under backlog, budget shedding, worker-count
//! determinism, front-door queue bounding, and chaos survival.

use std::sync::Arc;
use std::time::Duration;

use emsim::{CostModel, EmConfig, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{QueryRequest, Rung, ServeConfig, Server, TopKService};
use topk_core::toy::{PrefixBuilder, PrefixQuery, ToyElem};
use topk_core::{brute, ScanTopK, Theorem1Params, TopKAnswer, WorstCaseTopK};

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

fn mk_requests(n: usize, m: usize, tenants: u32, seed: u64) -> Vec<QueryRequest<PrefixQuery>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| QueryRequest {
            tenant: rng.gen_range(0..tenants),
            query: PrefixQuery {
                x_max: rng.gen_range(0..n as u64),
            },
            k: [1, 4, 8][rng.gen_range(0..3usize)],
        })
        .collect()
}

type PrefixScan = ScanTopK<ToyElem, PrefixQuery, fn(&PrefixQuery, &ToyElem) -> bool>;

fn scan_service(
    items: &[ToyElem],
    cfg: ServeConfig,
    pooled: bool,
) -> TopKService<ToyElem, PrefixQuery, PrefixScan> {
    let em = if pooled {
        EmConfig::with_memory(64, 32)
    } else {
        EmConfig::new(64)
    };
    let model = CostModel::with_faults(em, FaultPlan::none());
    let index: ScanTopK<_, _, fn(&PrefixQuery, &ToyElem) -> bool> =
        ScanTopK::build(&model, items.to_vec(), |q, e| e.x <= q.x_max);
    TopKService::new(index, model, cfg)
}

#[test]
fn closed_loop_uncapped_is_exact_and_matches_brute_force() {
    let n = 512;
    let items = mk_items(n, 0x5E21);
    let model = CostModel::with_faults(EmConfig::with_memory(64, 64), FaultPlan::none());
    let index = WorstCaseTopK::build(
        &model,
        &PrefixBuilder,
        items.clone(),
        Theorem1Params::new(1.0).with_seed(0x5E21),
    );
    let service = TopKService::new(index, model, ServeConfig::default());
    let requests = mk_requests(n, 96, 3, 0x5E22);

    let replies = service.serve_closed(&requests);
    assert_eq!(replies.len(), requests.len());
    for (req, reply) in requests.iter().zip(&replies) {
        assert_eq!(reply.rung, Rung::Full);
        let expect = brute::top_k(&items, |e| e.x <= req.query.x_max, req.k);
        assert_eq!(reply.answer, TopKAnswer::Exact(expect));
    }
    let report = service.report();
    assert_eq!(report.full, 96);
    assert_eq!(report.degraded, 0);
    assert_eq!(report.degraded_fraction(), 0.0);
    // Every tenant that sent traffic has a ledger with real spend.
    assert_eq!(report.tenants.len(), 3);
    assert!(report.tenants.iter().all(|t| t.ios > 0));
}

#[test]
fn backlog_coarsens_early_batches_deterministically() {
    let n = 256;
    let items = mk_items(n, 0x5E31);
    let cfg = ServeConfig::default()
        .with_batch_max(16)
        .with_shed_depth(32)
        .with_queue_max(1 << 20)
        .with_degraded_k(2);
    let service = scan_service(&items, cfg, true);
    let requests: Vec<_> = (0..64)
        .map(|i| QueryRequest {
            tenant: 0,
            query: PrefixQuery {
                x_max: (i * 4) % n as u64,
            },
            k: 8,
        })
        .collect();

    // Closed-loop queue depth = remaining backlog: 64, 48, 32, 16. The
    // first three batches sit at/above shed_depth=32 → coarse rung.
    let replies = service.serve_closed(&requests);
    for (i, (req, reply)) in requests.iter().zip(&replies).enumerate() {
        if i < 48 {
            assert_eq!(reply.rung, Rung::Coarse, "request {i}");
            let expect = brute::top_k(&items, |e| e.x <= req.query.x_max, 2);
            match &reply.answer {
                TopKAnswer::Degraded { items: got, .. } => assert_eq!(got, &expect),
                TopKAnswer::Exact(_) => panic!("coarse rung must flag Degraded"),
            }
        } else {
            assert_eq!(reply.rung, Rung::Full, "request {i}");
            let expect = brute::top_k(&items, |e| e.x <= req.query.x_max, 8);
            assert_eq!(reply.answer, TopKAnswer::Exact(expect));
        }
    }
    let report = service.report();
    assert_eq!((report.coarse, report.full), (48, 16));
    assert_eq!(report.degraded, 48);
}

#[test]
fn budget_sheds_and_epoch_rollover_readmits() {
    let n = 256;
    let items = mk_items(n, 0x5E41);
    // Small budget, pool-less meter: every query charges real I/O, so the
    // budget trips within an epoch and resets at the epoch boundary.
    let cfg = ServeConfig::default()
        .with_batch_max(4)
        .with_epoch_batches(2)
        .with_tenant_budget(8);
    let service = scan_service(&items, cfg, false);
    let requests: Vec<_> = (0..40)
        .map(|i| QueryRequest {
            tenant: 0,
            query: PrefixQuery {
                x_max: n as u64 - 1,
            },
            k: 1 + (i % 3),
        })
        .collect();

    let replies = service.serve_closed(&requests);
    let report = service.report();
    let t = &report.tenants[0];
    assert!(report.shed > 0, "budget 8 must shed: {report:?}");
    assert!(report.full > 0, "epoch rollover must readmit: {report:?}");
    // The overshoot bound: no epoch (completed or partial) exceeds the
    // budget by more than one batch of this tenant's I/O.
    let partial = t.ios - t.epochs.iter().sum::<u64>();
    for spend in t.epochs.iter().copied().chain([partial]) {
        assert!(
            spend <= 8 + t.max_batch_ios,
            "epoch spend {spend} > budget 8 + max batch {}",
            t.max_batch_ios
        );
    }
    // Shed replies are empty degraded answers, full replies exact.
    for reply in &replies {
        match reply.rung {
            Rung::Shed => match &reply.answer {
                TopKAnswer::Degraded { items, .. } => assert!(items.is_empty()),
                TopKAnswer::Exact(_) => panic!("shed must degrade"),
            },
            Rung::Full => assert!(reply.answer.is_exact()),
            Rung::Coarse => panic!("no depth pressure in this test"),
        }
    }
}

#[test]
fn closed_loop_is_bit_identical_across_worker_counts() {
    let n = 384;
    let items = mk_items(n, 0x5E51);
    let requests = mk_requests(n, 80, 4, 0x5E52);
    let base = ServeConfig::default()
        .with_batch_max(16)
        .with_shed_depth(48)
        .with_degraded_k(2)
        .with_tenant_budget(200)
        .with_epoch_batches(2);

    // Pool-less meters: residency can't depend on executor interleaving,
    // so any worker count must produce identical answers *and* counts.
    let mut baseline = None;
    for workers in [1usize, 2, 4] {
        let service = scan_service(&items, base.clone().with_workers(workers), false);
        let replies = service.serve_closed(&requests);
        let io = service.model().report();
        let report = service.report();
        let fingerprint: Vec<(Rung, TopKAnswer<ToyElem>)> =
            replies.into_iter().map(|r| (r.rung, r.answer)).collect();
        let tenant_ios: Vec<(u32, u64, u64)> = report
            .tenants
            .iter()
            .map(|t| (t.tenant, t.ios, t.max_batch_ios))
            .collect();
        match &baseline {
            None => baseline = Some((fingerprint, io, tenant_ios)),
            Some((f0, io0, t0)) => {
                assert_eq!(&fingerprint, f0, "answers drifted at workers={workers}");
                assert_eq!(&io, io0, "meter drifted at workers={workers}");
                assert_eq!(&tenant_ios, t0, "ledgers drifted at workers={workers}");
            }
        }
    }
}

#[test]
fn front_door_shed_bounds_the_queue() {
    let n = 128;
    let items = mk_items(n, 0x5E61);
    // Long window + big batch: the batcher is still collecting while we
    // flood, so depth hits queue_max and the rest shed at the front door.
    let cfg = ServeConfig::default()
        .with_queue_max(4)
        .with_shed_depth(1 << 20)
        .with_batch_max(64)
        .with_window(Duration::from_millis(100));
    let service = Arc::new(scan_service(&items, cfg, true));
    let server = Server::spawn(Arc::clone(&service));
    let handle = server.handle();

    let tickets: Vec<_> = (0..20)
        .map(|i| {
            handle.submit(QueryRequest {
                tenant: 0,
                query: PrefixQuery { x_max: i as u64 },
                k: 2,
            })
        })
        .collect();
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait().0).collect();
    drop(handle);
    let report = server.shutdown();

    let shed = replies.iter().filter(|r| r.rung == Rung::Shed).count();
    let served = replies.iter().filter(|r| r.rung != Rung::Shed).count();
    assert!(served >= 1, "something must execute");
    assert!(served <= 4, "queue bound violated: {served} served");
    assert_eq!(shed + served, 20);
    assert_eq!(report.requests, 20);
    assert_eq!(report.shed as usize, shed);
}

#[test]
fn chaos_plan_never_panics_and_exact_answers_stay_exact() {
    let n = 256;
    let items = mk_items(n, 0x5E71);
    let model = CostModel::with_faults(
        EmConfig::with_memory(64, 32),
        FaultPlan::chaos(0x5E72, 0.05),
    );
    let index = WorstCaseTopK::build(
        &model,
        &PrefixBuilder,
        items.clone(),
        Theorem1Params::new(1.0).with_seed(0x5E73),
    );
    let service = TopKService::new(index, model, ServeConfig::default().with_retry_budget(1));
    let requests = mk_requests(n, 120, 2, 0x5E74);

    let replies = service.serve_closed(&requests);
    for (req, reply) in requests.iter().zip(&replies) {
        if let TopKAnswer::Exact(got) = &reply.answer {
            let expect = brute::top_k(&items, |e| e.x <= req.query.x_max, req.k);
            assert_eq!(got, &expect, "Exact under chaos must equal brute force");
        }
    }
    let report = service.report();
    assert_eq!(report.requests, 120);
}
