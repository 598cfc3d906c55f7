//! The serving engine: per-tenant ledgers, batch execution, and the
//! closed-loop driver ([`TopKService`]); the threaded open-loop frontend
//! lives in [`crate::server`].

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Mutex;

use emsim::trace::phase;
use emsim::{thread_charged, CostModel, IoReport, Retrier, ScopedMeter};
use topk_core::{locality_order, BatchKey, Element, TopKAnswer, TopKIndex};

use crate::config::ServeConfig;
use crate::shed::{Shedder, Verdict};

/// Tenant identifier — the unit of admission control and I/O accounting.
pub type TenantId = u32;

/// One top-k query submitted to the service.
#[derive(Clone, Debug)]
pub struct QueryRequest<Q> {
    /// The tenant this request bills to.
    pub tenant: TenantId,
    /// The query predicate.
    pub query: Q,
    /// How many items the caller wants (the coarse rung may cap this).
    pub k: usize,
}

/// Which rung of the serving ladder answered a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Answered at requested fidelity.
    Full,
    /// Admitted under backlog pressure with `k` capped to
    /// [`ServeConfig::degraded_k`] (only reported when the cap actually
    /// reduced `k`; a capped request whose `k` was already small is
    /// `Full`).
    Coarse,
    /// Not executed: over-budget tenant, saturated queue, or an
    /// unrecoverable fault — answered with an empty `Degraded`.
    Shed,
}

/// The service's answer to one [`QueryRequest`].
///
/// The service always answers: an unrecoverable fault (`Err` from the
/// index's degradation ladder) is converted into an empty
/// [`TopKAnswer::Degraded`] at rung [`Rung::Shed`] and counted in
/// [`ServeReport::faults`], so callers handle exactly one shape.
#[derive(Clone, Debug)]
pub struct ServeReply<E> {
    /// The tenant the request billed to.
    pub tenant: TenantId,
    /// The ladder rung that produced the answer.
    pub rung: Rung,
    /// The answer; `Exact` is bit-identical to the fault-free, full-`k`
    /// answer, `Degraded` is explicitly flagged.
    pub answer: TopKAnswer<E>,
}

impl<E> ServeReply<E> {
    /// Whether the answer is anything less than the exact requested top-k.
    pub fn is_degraded(&self) -> bool {
        !self.answer.is_exact()
    }
}

/// Per-tenant accounting snapshot (see [`ServeReport::tenants`]).
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Total metered I/O (reads + writes) billed to this tenant.
    pub ios: u64,
    /// I/O per *completed* epoch, oldest first (the current partial epoch
    /// is `ios - epochs.sum()`).
    pub epochs: Vec<u64>,
    /// The largest I/O this tenant charged in a single batch — the bound
    /// on budget overshoot (verdicts are snapshotted per batch).
    pub max_batch_ios: u64,
    /// Requests answered at rung `Full`.
    pub full: u64,
    /// Requests answered at rung `Coarse`.
    pub coarse: u64,
    /// Requests answered at rung `Shed`.
    pub shed: u64,
}

/// Aggregate service counters, snapshotted by [`TopKService::report`].
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Batches executed.
    pub batches: u64,
    /// Requests answered (all rungs).
    pub requests: u64,
    /// Requests answered at rung `Full`.
    pub full: u64,
    /// Requests answered at rung `Coarse`.
    pub coarse: u64,
    /// Requests answered at rung `Shed` (budget, depth, front-door, or
    /// fault).
    pub shed: u64,
    /// Replies whose answer was `Degraded` (shed replies plus coarse
    /// replies whose cap bit; a coarse reply with `k ≤ degraded_k` stays
    /// exact and is not counted here).
    pub degraded: u64,
    /// Requests whose index query returned `Err` (unrecoverable fault),
    /// answered as empty `Degraded` at rung `Shed`.
    pub faults: u64,
    /// Per-tenant accounting, ascending tenant id.
    pub tenants: Vec<TenantStats>,
}

impl ServeReport {
    /// Fraction of answered requests that were degraded (0 when nothing
    /// was answered).
    pub fn degraded_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.degraded as f64 / self.requests as f64
        }
    }
}

/// A tenant's ledger: an isolated [`ScopedMeter`] child of the accounting
/// root, plus epoch bookkeeping. The ledger meter never touches blocks
/// itself — query I/O charges the *index* meter and is [`absorbed`]
/// (`CostModel::absorb`) here after the fact, so budgets see exactly the
/// I/O the query cost without double-charging the index meter.
///
/// [`absorbed`]: CostModel::absorb
struct TenantLedger {
    meter: ScopedMeter,
    epoch_start: u64,
    epochs: Vec<u64>,
    max_batch_ios: u64,
    full: u64,
    coarse: u64,
    shed: u64,
}

impl TenantLedger {
    fn total(&self) -> u64 {
        self.meter.report().total()
    }

    fn epoch_spend(&self) -> u64 {
        self.total() - self.epoch_start
    }
}

/// Mutable service state, serialized under one mutex: tenant ledgers and
/// the aggregate counters. Batch execution holds the lock only around
/// admission and ledger updates, not around index queries.
struct ServeState {
    tenants: BTreeMap<TenantId, TenantLedger>,
    batches: u64,
    requests: u64,
    full: u64,
    coarse: u64,
    shed: u64,
    degraded: u64,
    faults: u64,
}

/// The serving engine: an index plus admission control, batching, and
/// per-tenant accounting. Drive it synchronously with
/// [`TopKService::serve_closed`] (deterministic — the E25 golden half and
/// the property tests) or hand it to [`Server::spawn`](crate::Server) for
/// the threaded open-loop frontend.
pub struct TopKService<E, Q, I> {
    index: I,
    cfg: ServeConfig,
    shedder: Shedder,
    model: CostModel,
    ledger_root: CostModel,
    retrier: Retrier,
    state: Mutex<ServeState>,
    _marker: PhantomData<fn(Q) -> E>,
}

impl<E, Q, I> TopKService<E, Q, I>
where
    E: Element + Send,
    Q: BatchKey + Sync,
    I: TopKIndex<E, Q> + Sync,
{
    /// Wrap an index for serving. `model` must be the meter the index
    /// charges its I/O to — the service opens its `queue`/`admit`/`shed`
    /// trace spans on it and attributes per-request I/O deltas to tenant
    /// ledgers from it.
    pub fn new(index: I, model: CostModel, cfg: ServeConfig) -> Self {
        let shedder = Shedder::new(&cfg);
        let retrier = Retrier::new(cfg.retry_budget);
        // The accounting root inherits nothing from the index meter: it is
        // a pure ledger (no pool, no faults, never touched directly), so
        // tenant rollups cannot perturb index-side I/O counts.
        let ledger_root = CostModel::with_faults(emsim::EmConfig::new(1), emsim::FaultPlan::none());
        TopKService {
            index,
            cfg,
            shedder,
            model,
            ledger_root,
            retrier,
            state: Mutex::new(ServeState {
                tenants: BTreeMap::new(),
                batches: 0,
                requests: 0,
                full: 0,
                coarse: 0,
                shed: 0,
                degraded: 0,
                faults: 0,
            }),
            _marker: PhantomData,
        }
    }

    /// The config this service was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The index meter (spans and query charges land here).
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Serve a request sequence synchronously on the calling thread:
    /// requests are cut into batches of [`ServeConfig::batch_max`] in
    /// submission order, and the backlog still awaiting execution plays
    /// the role of queue depth. Replies come back in submission order.
    ///
    /// This path is bit-deterministic: same requests, same config, same
    /// index → identical replies and identical meter counts, at any
    /// `workers` setting on a pool-less meter (and at `workers = 1` on
    /// any meter) — the property the E25 golden baseline and the
    /// determinism test pin.
    pub fn serve_closed(&self, requests: &[QueryRequest<Q>]) -> Vec<ServeReply<E>>
    where
        Q: Clone,
    {
        let mut replies = Vec::with_capacity(requests.len());
        let mut remaining = requests.len();
        for chunk in requests.chunks(self.cfg.batch_max) {
            replies.extend(self.execute_batch(chunk.to_vec(), remaining));
            remaining -= chunk.len();
        }
        replies
    }

    /// Execute one formed batch against the index. `queue_depth` is the
    /// pending-request count observed at batch formation (including this
    /// batch); verdicts are snapshotted from it once per tenant, so a
    /// tenant's budget overshoot is bounded by one batch. Replies are
    /// returned in batch order.
    pub fn execute_batch(
        &self,
        batch: Vec<QueryRequest<Q>>,
        queue_depth: usize,
    ) -> Vec<ServeReply<E>> {
        if batch.is_empty() {
            return Vec::new();
        }

        // Admission: one verdict per tenant, from the ledger spend at
        // batch formation.
        let verdicts: BTreeMap<TenantId, Verdict> = {
            let _admit = self.model.span(phase::ADMIT);
            let state = self.state.lock().expect("serve state poisoned");
            let mut v = BTreeMap::new();
            for req in &batch {
                let spend = state
                    .tenants
                    .get(&req.tenant)
                    .map_or(0, TenantLedger::epoch_spend);
                v.entry(req.tenant)
                    .or_insert_with(|| self.shedder.verdict(spend, queue_depth));
            }
            v
        };

        // Schedule the admitted requests in locality order; shed the rest
        // without touching the index.
        let mut slots: Vec<Option<(ServeReply<E>, IoReport)>> = Vec::new();
        slots.resize_with(batch.len(), || None);
        let scheduled: Vec<usize> = {
            let _queue = self.model.span(phase::QUEUE);
            let runnable: Vec<usize> = (0..batch.len())
                .filter(|&i| verdicts[&batch[i].tenant] != Verdict::Shed)
                .collect();
            let keys: Vec<&Q> = runnable.iter().map(|&i| &batch[i].query).collect();
            locality_order(&keys)
                .into_iter()
                .map(|j| runnable[j])
                .collect()
        };
        {
            let _shed = self.model.span(phase::SHED);
            for (i, req) in batch.iter().enumerate() {
                if verdicts[&req.tenant] == Verdict::Shed {
                    slots[i] = Some((front_shed_reply(req.tenant), IoReport::default()));
                }
            }
        }

        // Execute. `workers = 1` runs inline in locality order; more
        // workers split the locality-ordered schedule into contiguous
        // chunks, each worker's I/O tallied and credited back to this
        // thread so `thread_charged` attribution stays exact.
        let run_one = |i: usize| -> (ServeReply<E>, IoReport) {
            let req = &batch[i];
            let coarse = verdicts[&req.tenant] == Verdict::Coarsen;
            let k = if coarse {
                req.k.min(self.cfg.degraded_k)
            } else {
                req.k
            };
            let before = thread_charged();
            let outcome = self.index.try_query_topk(&req.query, k, &self.retrier);
            let delta = thread_charged().since(&before);
            let reply = match outcome {
                Ok(answer) if coarse && k < req.k => {
                    // The cap bit: whatever the fault ladder produced is at
                    // most the top-`degraded_k`, a prefix of the requested
                    // answer — flag it.
                    let (items, extra_ios) = match answer {
                        TopKAnswer::Exact(items) => (items, 0),
                        TopKAnswer::Degraded { items, extra_ios } => (items, extra_ios),
                    };
                    ServeReply {
                        tenant: req.tenant,
                        rung: Rung::Coarse,
                        answer: TopKAnswer::Degraded { items, extra_ios },
                    }
                }
                Ok(answer) => ServeReply {
                    tenant: req.tenant,
                    rung: Rung::Full,
                    answer,
                },
                Err(_) => ServeReply {
                    tenant: req.tenant,
                    rung: Rung::Shed,
                    answer: TopKAnswer::Degraded {
                        items: Vec::new(),
                        extra_ios: delta.total(),
                    },
                },
            };
            (reply, delta)
        };

        if self.cfg.workers <= 1 || scheduled.len() <= 1 {
            for &i in &scheduled {
                slots[i] = Some(run_one(i));
            }
        } else {
            let workers = self.cfg.workers.min(scheduled.len());
            let chunk = scheduled.len().div_ceil(workers);
            let results: Vec<Vec<(usize, ServeReply<E>, IoReport)>> = std::thread::scope(|s| {
                let handles: Vec<_> = scheduled
                    .chunks(chunk)
                    .map(|part| {
                        s.spawn(|| {
                            part.iter()
                                .map(|&i| {
                                    let (reply, delta) = run_one(i);
                                    (i, reply, delta)
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("serve executor worker panicked"))
                    .collect()
            });
            for part in results {
                for (i, reply, delta) in part {
                    emsim::credit_thread(delta);
                    slots[i] = Some((reply, delta));
                }
            }
        }

        // Ledger and counter updates, in batch order on this thread — the
        // only mutation point, so counts are independent of executor
        // interleaving.
        let mut state = self.state.lock().expect("serve state poisoned");
        let mut batch_spend: BTreeMap<TenantId, u64> = BTreeMap::new();
        let mut replies = Vec::with_capacity(batch.len());
        for (req, slot) in batch.iter().zip(slots) {
            let (reply, delta) = slot.expect("every batch slot filled");
            let ledger = ledger_entry(&mut state.tenants, &self.ledger_root, req.tenant);
            ledger.meter.absorb(delta);
            *batch_spend.entry(req.tenant).or_insert(0) += delta.total();
            match reply.rung {
                Rung::Full => ledger.full += 1,
                Rung::Coarse => ledger.coarse += 1,
                Rung::Shed => ledger.shed += 1,
            }
            state.requests += 1;
            match reply.rung {
                Rung::Full => state.full += 1,
                Rung::Coarse => state.coarse += 1,
                Rung::Shed => state.shed += 1,
            }
            if reply.is_degraded() {
                state.degraded += 1;
            }
            if reply.rung == Rung::Shed && verdicts[&req.tenant] != Verdict::Shed {
                state.faults += 1;
            }
            replies.push(reply);
        }
        for (tenant, spend) in batch_spend {
            let ledger = ledger_entry(&mut state.tenants, &self.ledger_root, tenant);
            ledger.max_batch_ios = ledger.max_batch_ios.max(spend);
        }
        state.batches += 1;
        if state.batches.is_multiple_of(self.cfg.epoch_batches) {
            for ledger in state.tenants.values_mut() {
                let spend = ledger.epoch_spend();
                ledger.epochs.push(spend);
                ledger.epoch_start = ledger.total();
            }
        }
        replies
    }

    /// Record a front-door shed: the frontend refused to enqueue a request
    /// because the queue was at [`ServeConfig::queue_max`]. Counts it at
    /// rung `Shed` for the tenant without executing anything.
    pub fn note_front_shed(&self, tenant: TenantId) {
        let _shed = self.model.span(phase::SHED);
        let mut state = self.state.lock().expect("serve state poisoned");
        let ledger = ledger_entry(&mut state.tenants, &self.ledger_root, tenant);
        ledger.shed += 1;
        state.requests += 1;
        state.shed += 1;
        state.degraded += 1;
    }

    /// Snapshot the aggregate and per-tenant counters.
    pub fn report(&self) -> ServeReport {
        let state = self.state.lock().expect("serve state poisoned");
        ServeReport {
            batches: state.batches,
            requests: state.requests,
            full: state.full,
            coarse: state.coarse,
            shed: state.shed,
            degraded: state.degraded,
            faults: state.faults,
            tenants: state
                .tenants
                .iter()
                .map(|(&tenant, l)| TenantStats {
                    tenant,
                    ios: l.total(),
                    epochs: l.epochs.clone(),
                    max_batch_ios: l.max_batch_ios,
                    full: l.full,
                    coarse: l.coarse,
                    shed: l.shed,
                })
                .collect(),
        }
    }
}

/// An empty degraded answer — the shed rung's reply (also what the
/// frontend resolves front-door-shed tickets with).
pub(crate) fn front_shed_reply<E>(tenant: TenantId) -> ServeReply<E> {
    ServeReply {
        tenant,
        rung: Rung::Shed,
        answer: TopKAnswer::Degraded {
            items: Vec::new(),
            extra_ios: 0,
        },
    }
}

/// Get-or-create a tenant's ledger (a fresh scoped child of the
/// accounting root).
fn ledger_entry<'a>(
    tenants: &'a mut BTreeMap<TenantId, TenantLedger>,
    root: &CostModel,
    tenant: TenantId,
) -> &'a mut TenantLedger {
    tenants.entry(tenant).or_insert_with(|| TenantLedger {
        meter: root.scoped(),
        epoch_start: 0,
        epochs: Vec::new(),
        max_batch_ios: 0,
        full: 0,
        coarse: 0,
        shed: 0,
    })
}
