//! The shedder: pure admission/degradation decisions, taken once per
//! tenant per batch (see SERVING.md "The degradation ladder").
//!
//! Keeping the verdict a pure function of `(epoch spend, queue depth)`
//! is what makes the closed-loop serving path bit-deterministic: the
//! shedder consults no clock and no randomness, so the same request
//! sequence always degrades the same requests.

use crate::config::ServeConfig;

/// The admission verdict for one tenant's requests in one batch.
///
/// Verdicts are snapshotted at *batch formation*: every request a tenant
/// has in the batch shares one verdict, so a tenant's budget can be
/// exceeded by at most the I/O of a single batch (the property test in
/// `tests/budget_property.rs` pins exactly this bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Execute at requested fidelity (rung [`Rung::Full`](crate::Rung)).
    Admit,
    /// Execute with `k` capped to [`ServeConfig::degraded_k`]; the answer
    /// is flagged [`Degraded`](topk_core::TopKAnswer::Degraded) whenever
    /// the cap actually bites.
    Coarsen,
    /// Do not touch the index: answer an empty `Degraded` immediately.
    Shed,
}

/// The decision logic, parameterized by the three [`ServeConfig`]
/// thresholds it reads (`tenant_budget`, `queue_max`, `shed_depth`).
#[derive(Clone, Copy, Debug)]
pub struct Shedder {
    tenant_budget: u64,
    queue_max: usize,
    shed_depth: usize,
}

impl Shedder {
    /// Capture the thresholds from a config.
    pub fn new(cfg: &ServeConfig) -> Self {
        Shedder {
            tenant_budget: cfg.tenant_budget,
            queue_max: cfg.queue_max,
            shed_depth: cfg.shed_depth,
        }
    }

    /// The ladder, top rung first:
    ///
    /// 1. tenant at/over its epoch budget → [`Verdict::Shed`];
    /// 2. queue *strictly beyond* `queue_max` → [`Verdict::Shed`];
    /// 3. queue at/over `shed_depth` → [`Verdict::Coarsen`];
    /// 4. otherwise → [`Verdict::Admit`].
    ///
    /// `epoch_spend` is the tenant's metered I/O (reads + writes) so far
    /// this epoch; `queue_depth` is the number of requests pending at
    /// batch formation (including the batch being formed). Rung 2 is
    /// strict because the open-loop frontend already refuses to enqueue
    /// *at* `queue_max` — a queue sitting exactly at the bound is full
    /// but legal, and re-shedding it would starve the admitted requests;
    /// the rung exists for closed-loop drivers that present a backlog
    /// larger than the bound.
    pub fn verdict(&self, epoch_spend: u64, queue_depth: usize) -> Verdict {
        if epoch_spend >= self.tenant_budget || queue_depth > self.queue_max {
            Verdict::Shed
        } else if queue_depth >= self.shed_depth {
            Verdict::Coarsen
        } else {
            Verdict::Admit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shedder(budget: u64, queue_max: usize, shed_depth: usize) -> Shedder {
        Shedder::new(
            &ServeConfig::default()
                .with_tenant_budget(budget)
                .with_queue_max(queue_max)
                .with_shed_depth(shed_depth),
        )
    }

    #[test]
    fn ladder_rungs_in_priority_order() {
        let s = shedder(100, 50, 10);
        // Under every threshold: admit.
        assert_eq!(s.verdict(0, 0), Verdict::Admit);
        assert_eq!(s.verdict(99, 9), Verdict::Admit);
        // Depth pressure coarsens...
        assert_eq!(s.verdict(0, 10), Verdict::Coarsen);
        assert_eq!(s.verdict(99, 50), Verdict::Coarsen); // full-but-legal queue
                                                         // ...until the backlog passes the hard bound and sheds.
        assert_eq!(s.verdict(0, 51), Verdict::Shed);
        // Budget exhaustion sheds regardless of depth.
        assert_eq!(s.verdict(100, 0), Verdict::Shed);
        assert_eq!(s.verdict(u64::MAX, 0), Verdict::Shed);
    }

    #[test]
    fn zero_budget_always_sheds() {
        let s = shedder(0, 50, 10);
        assert_eq!(s.verdict(0, 0), Verdict::Shed);
    }

    #[test]
    fn unlimited_budget_never_budget_sheds() {
        let s = shedder(u64::MAX, 50, 10);
        assert_eq!(s.verdict(u64::MAX - 1, 0), Verdict::Admit);
    }
}
