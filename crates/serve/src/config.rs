//! Serving knobs: [`ServeConfig`] and its `with_*` builders (every knob
//! is documented in SERVING.md).

use std::time::Duration;

/// Tuning knobs for the serving loop. Every field has a `with_*` builder;
/// defaults are chosen for the toy workloads and documented per-field.
///
/// The thresholds interact as a ladder (see SERVING.md "The degradation
/// ladder"): a request executes at full fidelity below `shed_depth`, is
/// coarsened to `degraded_k` between `shed_depth` and `queue_max`, and is
/// shed outright at `queue_max` or once its tenant exhausts
/// `tenant_budget` for the current epoch.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Group-commit batch size cap: the batcher closes a batch as soon as
    /// it holds this many requests, window or no window.
    /// Default 32.
    pub batch_max: usize,
    /// Group-commit time window: after the first request of a batch
    /// arrives, the batcher keeps collecting until the window elapses (or
    /// `batch_max` is hit). Default 200 µs.
    pub window: Duration,
    /// Queue depth (requests pending at batch formation) at and above
    /// which admitted requests are *coarsened*: their `k` is capped to
    /// `degraded_k` and the answer is flagged `Degraded`.
    /// Default 128.
    pub shed_depth: usize,
    /// Queue depth at and above which requests are *shed*: answered with
    /// an empty `Degraded` immediately, zero index I/O. The frontend also
    /// refuses to enqueue past this depth (front-door shedding), so the
    /// queue is bounded by construction.
    /// Default 512.
    pub queue_max: usize,
    /// The coarse rung's `k`: under backlog pressure an admitted request
    /// is answered with at most this many items.
    /// Default 4.
    pub degraded_k: usize,
    /// Per-tenant I/O budget (block reads + writes) per epoch. A tenant
    /// at or over budget is shed until the epoch rolls over. `u64::MAX`
    /// disables budgeting. Default `u64::MAX`.
    pub tenant_budget: u64,
    /// Epoch length in *batches*: every `epoch_batches` executed batches,
    /// each tenant's budget ledger resets.
    /// Default 8.
    pub epoch_batches: u64,
    /// Retry budget handed to [`emsim::Retrier`] for every query — the
    /// fault ladder below the serving ladder.
    /// Default 2.
    pub retry_budget: u32,
    /// Executor threads per batch. 1 (the default) executes inline on the
    /// batch driver in locality order — fully deterministic even with a
    /// buffer pool. More workers split the locality-ordered batch into
    /// contiguous chunks; I/O counts then stay deterministic only on
    /// pool-less meters (`mem_blocks = 0`), because pool residency
    /// becomes interleaving-dependent.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_max: 32,
            window: Duration::from_micros(200),
            shed_depth: 128,
            queue_max: 512,
            degraded_k: 4,
            tenant_budget: u64::MAX,
            epoch_batches: 8,
            retry_budget: 2,
            workers: 1,
        }
    }
}

impl ServeConfig {
    /// Set the batch size cap.
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Set the group-commit window.
    pub fn with_window(mut self, window: Duration) -> Self {
        self.window = window;
        self
    }

    /// Set the coarsening depth threshold.
    pub fn with_shed_depth(mut self, shed_depth: usize) -> Self {
        self.shed_depth = shed_depth;
        self
    }

    /// Set the hard queue bound.
    pub fn with_queue_max(mut self, queue_max: usize) -> Self {
        self.queue_max = queue_max;
        self
    }

    /// Set the coarse rung's `k`.
    pub fn with_degraded_k(mut self, degraded_k: usize) -> Self {
        self.degraded_k = degraded_k.max(1);
        self
    }

    /// Set the per-tenant per-epoch I/O budget.
    pub fn with_tenant_budget(mut self, tenant_budget: u64) -> Self {
        self.tenant_budget = tenant_budget;
        self
    }

    /// Set the epoch length in batches.
    pub fn with_epoch_batches(mut self, epoch_batches: u64) -> Self {
        self.epoch_batches = epoch_batches.max(1);
        self
    }

    /// Set the per-query retry budget.
    pub fn with_retry_budget(mut self, retry_budget: u32) -> Self {
        self.retry_budget = retry_budget;
        self
    }

    /// Set the executor thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.batch_max >= 1);
        assert!(c.shed_depth < c.queue_max);
        assert_eq!(c.tenant_budget, u64::MAX);
        assert_eq!(c.workers, 1);
    }

    #[test]
    fn builders_clamp_to_positive() {
        let c = ServeConfig::default()
            .with_batch_max(0)
            .with_degraded_k(0)
            .with_epoch_batches(0)
            .with_workers(0);
        assert_eq!(c.batch_max, 1);
        assert_eq!(c.degraded_k, 1);
        assert_eq!(c.epoch_batches, 1);
        assert_eq!(c.workers, 1);
    }
}
