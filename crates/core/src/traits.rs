//! The framework traits tying the reductions to concrete problems.
//!
//! The paper's setting (§1): a domain `𝔻` of elements, a family `ℚ` of
//! predicates, a set `D ⊆ 𝔻` of `n` weighted elements. Three query types
//! are related by the reductions:
//!
//! * **prioritized reporting** — given `(q, τ)`, report `{e ∈ q(D) : w(e) ≥ τ}`;
//! * **max reporting** — given `q`, report `arg max_{e ∈ q(D)} w(e)`;
//! * **top-k reporting** — given `(q, k)`, report the `k` heaviest of `q(D)`.
//!
//! A problem plugs into the reductions by providing builders
//! ([`PrioritizedBuilder`], [`MaxBuilder`]) that can construct its
//! structures *on arbitrary subsets* of the input — the reductions build
//! them on core-sets and random samples.

use emsim::select::Selector;
use emsim::{CostModel, EmError, Media, Retrier};

/// Weights are unsigned 64-bit and pairwise distinct (paper §1.1). Because
/// they are distinct, a weight doubles as a unique element identifier, which
/// the dynamic bookkeeping of Theorem 2 exploits.
pub type Weight = u64;

/// An element of the data set: `O(1)` words, cheaply clonable, with a
/// distinct weight.
pub trait Element: Clone {
    /// This element's weight.
    fn weight(&self) -> Weight;
}

/// The reductions' streaming k-selection: the `k` heaviest of the elements
/// offered, by [`Element::weight`], heaviest first. Each element a
/// prioritized query reports goes straight into an
/// `emsim::select::Selector`, so for `k ≤ B'` nothing is read back and
/// only the output is charged, and for larger `k` without a pool only the
/// candidates above a running threshold are written (DESIGN.md
/// substitution 10).
///
/// Weights are `u64`, so every selection dispatches to emsim's specialized
/// selection kernels (branch-free stable partition, vectorized
/// scan-for-threshold — see `emsim::kernels`) on the meter's backend
/// (`emsim::Substrate`; `EMSIM_KERNELS` sets the default). Answers and
/// metered I/Os are bit-identical on every backend, which is what lets the
/// theorem structures above stay oblivious to the dispatch.
pub(crate) type Selection<E> = Selector<E, fn(&E) -> Weight>;

/// An empty [`Selection`] of the `k` heaviest on `model`.
pub(crate) fn selection<E: Element>(model: &CostModel, k: usize) -> Selection<E> {
    Selector::new(model, k, E::weight)
}

/// Outcome of a cost-monitored query (§3.2): the query either ran to
/// completion, or was cut off after reporting `limit + 1` elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Monitored {
    /// The query terminated by itself; the output is the full answer.
    Complete,
    /// The query was terminated manually after `limit + 1` reports; the
    /// output is a *subset* of the answer and certifies `|answer| > limit`.
    Truncated,
}

/// The answer to a fallible top-k query ([`TopKIndex::try_query_topk`]).
///
/// Under injected faults a reduction may lose access to part of its
/// structure mid-query. Rather than panic or silently return wrong results,
/// it either proves its answer exact (retries succeeded, or an exact
/// fallback path completed) or *degrades*: it reports the best subset it
/// could still assemble — elements from a coarser core-set level, a partial
/// visitor prefix — and says so. `Ok` answers are therefore **never
/// silently wrong**: `Exact` is bit-identical to the fault-free answer,
/// `Degraded` is explicitly flagged, and total unreadability is an `Err`.
#[derive(Clone, Debug, PartialEq)]
pub enum TopKAnswer<E> {
    /// The exact top-k, heaviest first — identical to what the infallible
    /// query would report.
    Exact(Vec<E>),
    /// A best-effort answer assembled after a structure stayed unreadable:
    /// a subset of the true top-k answer's universe (every item genuinely
    /// satisfies the query), but possibly missing or mis-ranking elements.
    Degraded {
        /// The elements recovered, heaviest first.
        items: Vec<E>,
        /// Block I/Os spent from the first unrecoverable fault to the end
        /// of the query — the recovery cost of the degradation ladder,
        /// which the chaos experiments plot against fault rate.
        extra_ios: u64,
    },
}

impl<E> TopKAnswer<E> {
    /// The reported elements, exact or degraded.
    pub fn items(&self) -> &[E] {
        match self {
            TopKAnswer::Exact(items) | TopKAnswer::Degraded { items, .. } => items,
        }
    }

    /// Consume into the reported elements.
    pub fn into_items(self) -> Vec<E> {
        match self {
            TopKAnswer::Exact(items) | TopKAnswer::Degraded { items, .. } => items,
        }
    }

    /// Whether the answer is provably exact.
    pub fn is_exact(&self) -> bool {
        matches!(self, TopKAnswer::Exact(_))
    }
}

/// Records the meter reading at the first unrecoverable fault of a query so
/// degraded answers can report the I/O spent on recovery (the `extra_ios`
/// field of [`TopKAnswer::Degraded`]). `note` is idempotent: only the
/// first fault sets the mark.
#[derive(Default)]
pub(crate) struct FaultMark {
    at: Option<u64>,
}

impl FaultMark {
    /// Record the current meter total, unless a fault was already noted.
    pub(crate) fn note(&mut self, model: &CostModel) {
        if self.at.is_none() {
            self.at = Some(model.report().total());
        }
    }

    /// Block I/Os since the first noted fault (0 if none was noted).
    pub(crate) fn extra(&self, model: &CostModel) -> u64 {
        self.at
            .map_or(0, |m| model.report().total().saturating_sub(m))
    }

    /// Turn a query body's `(items, exact)` into a [`TopKAnswer`], charging
    /// a degraded answer with the I/Os spent since the first noted fault.
    pub(crate) fn answer<E>(
        &self,
        model: &CostModel,
        body: Result<(Vec<E>, bool), EmError>,
    ) -> Result<TopKAnswer<E>, EmError> {
        body.map(|(items, exact)| {
            if exact {
                TopKAnswer::Exact(items)
            } else {
                TopKAnswer::Degraded {
                    items,
                    extra_ios: self.extra(model),
                }
            }
        })
    }
}

/// [`PrioritizedIndex::query_monitored`] on `media`, with every reported
/// element offered to `sel` instead of pushed to a `Vec`. `sel` must be
/// fresh: its `seen()` counts the reports, and the visit stops once
/// `limit + 1` elements have been reported. On `Err`, `sel` holds the
/// elements visited before the failure.
///
/// Each reduction has one query body; `query_topk` runs it on
/// [`Media::Perfect`] and `try_query_topk` on [`Media::Retried`]. This
/// function, [`query`] and [`query_max`] are the only core code that picks
/// between a structure's infallible queries and their fallible `try_*`
/// twins, so the fault plan is consulted exactly when the caller asked for
/// the fallible path.
pub(crate) fn query_monitored<E: Element, Q>(
    media: Media,
    idx: &impl PrioritizedIndex<E, Q>,
    q: &Q,
    tau: Weight,
    limit: usize,
    sel: &mut Selection<E>,
) -> Result<Monitored, EmError> {
    let mut visit = |e: &E| {
        sel.offer(e);
        sel.seen() <= limit
    };
    match media {
        Media::Perfect => idx.for_each_at_least(q, tau, &mut visit),
        Media::Retried(r) => idx.try_for_each_at_least(q, tau, r, &mut visit)?,
    }
    Ok(if sel.seen() > limit {
        Monitored::Truncated
    } else {
        Monitored::Complete
    })
}

/// [`PrioritizedIndex::query`] on `media`, offered to `sel` (see
/// [`query_monitored`]).
pub(crate) fn query<E: Element, Q>(
    media: Media,
    idx: &impl PrioritizedIndex<E, Q>,
    q: &Q,
    tau: Weight,
    sel: &mut Selection<E>,
) -> Result<(), EmError> {
    query_monitored(media, idx, q, tau, usize::MAX, sel).map(|_| ())
}

/// [`MaxIndex::query_max`] on `media` (see [`query_monitored`]).
pub(crate) fn query_max<E: Element, Q>(
    media: Media,
    idx: &impl MaxIndex<E, Q>,
    q: &Q,
) -> Result<Option<E>, EmError> {
    match media {
        Media::Perfect => Ok(idx.query_max(q)),
        Media::Retried(r) => idx.try_query_max(q, r),
    }
}

/// A structure answering prioritized-reporting queries.
///
/// Implementors provide [`PrioritizedIndex::for_each_at_least`] — an
/// early-terminating visitor — plus the space/size accessors; `query` and
/// `query_monitored` are derived. Visit order is unconstrained.
pub trait PrioritizedIndex<E: Element, Q> {
    /// Visit every element satisfying `q` with weight `≥ tau` until `visit`
    /// returns `false`. (`tau = 0` means no weight constraint, i.e. `τ = -∞`
    /// in the paper, since all weights are unsigned.)
    fn for_each_at_least(&self, q: &Q, tau: Weight, visit: &mut dyn FnMut(&E) -> bool);

    /// Space occupied, in blocks of the underlying [`CostModel`].
    fn space_blocks(&self) -> u64;

    /// Number of elements indexed.
    fn len(&self) -> usize;

    /// Whether the structure indexes no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Report all elements satisfying `q` with weight `≥ tau` into `out`.
    fn query(&self, q: &Q, tau: Weight, out: &mut Vec<E>) {
        self.for_each_at_least(q, tau, &mut |e| {
            out.push(e.clone());
            true
        });
    }

    /// Cost-monitored query (§3.2): stop as soon as `limit + 1` elements
    /// have been reported. On [`Monitored::Complete`], `out` is the entire
    /// answer; on [`Monitored::Truncated`], `out` holds `limit + 1` of its
    /// elements and certifies the answer is larger than `limit`.
    fn query_monitored(&self, q: &Q, tau: Weight, limit: usize, out: &mut Vec<E>) -> Monitored {
        let mut truncated = false;
        self.for_each_at_least(q, tau, &mut |e| {
            out.push(e.clone());
            if out.len() > limit {
                truncated = true;
                false
            } else {
                true
            }
        });
        if truncated {
            Monitored::Truncated
        } else {
            Monitored::Complete
        }
    }

    /// Fallible [`PrioritizedIndex::for_each_at_least`]: visit under the
    /// meter's fault plan, retrying transient faults with `retrier`.
    ///
    /// The default delegates to the infallible visitor — correct for any
    /// structure whose reads go through the infallible accessors (which
    /// model perfect media and never fail). Structures that read through
    /// the fallible `try_*` substrate accessors override this; on `Err`,
    /// elements already delivered to `visit` remain valid (a partial
    /// prefix callers may degrade to).
    fn try_for_each_at_least(
        &self,
        q: &Q,
        tau: Weight,
        retrier: &Retrier,
        visit: &mut dyn FnMut(&E) -> bool,
    ) -> Result<(), EmError> {
        let _ = retrier;
        self.for_each_at_least(q, tau, visit);
        Ok(())
    }

    /// Fallible [`PrioritizedIndex::query`]. On `Err`, `out` holds the
    /// elements visited before the failure.
    fn try_query(
        &self,
        q: &Q,
        tau: Weight,
        retrier: &Retrier,
        out: &mut Vec<E>,
    ) -> Result<(), EmError> {
        self.try_for_each_at_least(q, tau, retrier, &mut |e| {
            out.push(e.clone());
            true
        })
    }

    /// Fallible [`PrioritizedIndex::query_monitored`]. On `Err`, `out`
    /// holds the elements visited before the failure.
    fn try_query_monitored(
        &self,
        q: &Q,
        tau: Weight,
        limit: usize,
        retrier: &Retrier,
        out: &mut Vec<E>,
    ) -> Result<Monitored, EmError> {
        let mut truncated = false;
        self.try_for_each_at_least(q, tau, retrier, &mut |e| {
            out.push(e.clone());
            if out.len() > limit {
                truncated = true;
                false
            } else {
                true
            }
        })?;
        Ok(if truncated {
            Monitored::Truncated
        } else {
            Monitored::Complete
        })
    }
}

/// A structure answering max-reporting (top-1) queries.
pub trait MaxIndex<E: Element, Q> {
    /// The heaviest element satisfying `q`, or `None` if `q(D) = ∅`.
    fn query_max(&self, q: &Q) -> Option<E>;

    /// Fallible [`MaxIndex::query_max`] under the meter's fault plan. The
    /// default delegates to the infallible path (see
    /// [`PrioritizedIndex::try_for_each_at_least`] for the rationale).
    fn try_query_max(&self, q: &Q, retrier: &Retrier) -> Result<Option<E>, EmError> {
        let _ = retrier;
        Ok(self.query_max(q))
    }

    /// Space occupied, in blocks.
    fn space_blocks(&self) -> u64;

    /// Number of elements indexed.
    fn len(&self) -> usize;

    /// Whether the structure indexes no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A structure answering top-k queries — the target of the reductions.
pub trait TopKIndex<E: Element, Q> {
    /// Report the `k` heaviest elements of `q(D)` into `out`, heaviest
    /// first. If `|q(D)| < k`, the entire `q(D)` is reported (paper §1).
    fn query_topk(&self, q: &Q, k: usize, out: &mut Vec<E>);

    /// Space occupied, in blocks.
    fn space_blocks(&self) -> u64;

    /// Fallible top-k under the meter's fault plan: retry transient faults
    /// with `retrier`, degrade when a structure stays unreadable (see
    /// [`TopKAnswer`]), and return `Err` only when *nothing* could be
    /// recovered. The default delegates to the infallible query and is
    /// always `Exact` — correct for structures reading through infallible
    /// accessors; the reductions override it with their degradation
    /// ladders.
    fn try_query_topk(&self, q: &Q, k: usize, retrier: &Retrier) -> Result<TopKAnswer<E>, EmError> {
        let _ = retrier;
        let mut out = Vec::new();
        self.query_topk(q, k, &mut out);
        Ok(TopKAnswer::Exact(out))
    }
}

/// Support for insertions and deletions (Theorem 2's dynamic variant).
/// Elements are identified by their (distinct) weight.
pub trait DynamicIndex<E: Element> {
    /// Insert an element. Panics if an element with the same weight exists.
    fn insert(&mut self, e: E);
    /// Delete the element with this weight; returns whether it was present.
    fn delete(&mut self, weight: Weight) -> bool;
}

/// Constructs prioritized structures on arbitrary subsets of the input, and
/// states their query-cost function `Q_pri(n)` — the reductions size their
/// core-sets and sample rates from it (e.g. `f = 12λB·Q_pri(n)`, eq. (9)).
pub trait PrioritizedBuilder<E: Element, Q> {
    /// The structure this builder produces.
    type Index: PrioritizedIndex<E, Q>;

    /// Build on the given elements (need not be sorted).
    fn build(&self, model: &CostModel, items: Vec<E>) -> Self::Index;

    /// `Q_pri(n)`: the query cost in block I/Os, *excluding* the `O(t/B)`
    /// output term, on an input of `n` elements with block size `b`.
    /// Theorem 1 requires `Q_pri(n) ≥ log_B n`; implementations should
    /// return at least that.
    fn query_cost(&self, n: usize, b: usize) -> f64;
}

/// Constructs max structures on arbitrary subsets of the input, stating
/// their query cost `Q_max(n)` (Theorem 2 sets `K_1 = B·Q_max(n)` from it).
pub trait MaxBuilder<E: Element, Q> {
    /// The structure this builder produces.
    type Index: MaxIndex<E, Q>;

    /// Build on the given elements (need not be sorted).
    fn build(&self, model: &CostModel, items: Vec<E>) -> Self::Index;

    /// `Q_max(n)`: the query cost in block I/Os on `n` elements.
    fn query_cost(&self, n: usize, b: usize) -> f64;
}

/// `log_B n`, clamped below by 1 — the unit in which the paper states
/// query-cost preconditions (`Q_pri(n) ≥ log_B n`).
pub fn log_b(n: usize, b: usize) -> f64 {
    let n = n.max(2) as f64;
    let b = (b.max(2)) as f64;
    (n.ln() / b.ln()).max(1.0)
}

/// Path parity: a query answered by `query_topk` on one meter and by
/// `try_query_topk` under an inert plan on an identical second meter must
/// give the same answer, the same meter deltas and the same per-phase
/// EXPLAIN table.
#[cfg(test)]
pub(crate) mod parity {
    use std::collections::BTreeMap;
    use std::fmt::Debug;

    use emsim::{CostModel, CostReport, EmError, Retrier};

    use super::{Element, TopKAnswer, TopKIndex};

    type Counts = (u64, u64, u64, u64);

    fn totals(model: &CostModel) -> Counts {
        let r = model.report();
        (r.reads, r.writes, r.pool_hits, r.pool_misses)
    }

    fn phases(report: &CostReport) -> BTreeMap<&'static str, Counts> {
        report
            .phases
            .iter()
            .map(|(&name, p)| (name, (p.reads, p.writes, p.pool_hits, p.pool_misses)))
            .collect()
    }

    fn explained<R>(
        model: &CostModel,
        run: impl FnOnce() -> R,
    ) -> (R, Counts, BTreeMap<&'static str, Counts>) {
        let before = totals(model);
        let (out, report) = model.explain(run);
        let after = totals(model);
        let delta = (
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2,
            after.3 - before.3,
        );
        (out, delta, phases(&report))
    }

    /// Run the infallible `perfect` and the fallible `retried` form of the
    /// same queries, each on its own meter, and assert they agree.
    pub(crate) fn assert_runs_agree<E: PartialEq + Debug>(
        what: &str,
        perfect: (&CostModel, impl FnOnce() -> Vec<Vec<E>>),
        retried: (
            &CostModel,
            impl FnOnce() -> Vec<Result<TopKAnswer<E>, EmError>>,
        ),
    ) {
        let (want, want_totals, want_phases) = explained(perfect.0, perfect.1);
        let (got, got_totals, got_phases) = explained(retried.0, retried.1);
        let got: Vec<Vec<E>> = got
            .into_iter()
            .map(|a| match a {
                Ok(TopKAnswer::Exact(items)) => items,
                other => panic!("{what}: inert plan gave {other:?}"),
            })
            .collect();
        assert_eq!(got, want, "{what}: answers");
        assert_eq!(
            got_totals, want_totals,
            "{what}: (reads, writes, pool_hits, pool_misses)"
        );
        assert_eq!(got_phases, want_phases, "{what}: per-phase EXPLAIN");
    }

    /// [`assert_runs_agree`] for one solo query: `query_topk` on `perfect`,
    /// `try_query_topk` on `retried`.
    pub(crate) fn assert_query_agrees<E: Element + PartialEq + Debug, Q>(
        what: &str,
        perfect: (&CostModel, &impl TopKIndex<E, Q>),
        retried: (&CostModel, &impl TopKIndex<E, Q>),
        q: &Q,
        k: usize,
    ) {
        assert_runs_agree(
            what,
            (perfect.0, || {
                let mut out = Vec::new();
                perfect.1.query_topk(q, k, &mut out);
                vec![out]
            }),
            (retried.0, || {
                vec![retried.1.try_query_topk(q, k, &Retrier::default())]
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct W(u64);
    impl Element for W {
        fn weight(&self) -> Weight {
            self.0
        }
    }

    /// Minimal in-memory prioritized index over the trivial predicate.
    struct All(Vec<W>);
    impl PrioritizedIndex<W, ()> for All {
        fn for_each_at_least(&self, _q: &(), tau: Weight, visit: &mut dyn FnMut(&W) -> bool) {
            for e in &self.0 {
                if e.0 >= tau && !visit(e) {
                    return;
                }
            }
        }
        fn space_blocks(&self) -> u64 {
            1
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn derived_query_collects_all() {
        let idx = All(vec![W(5), W(1), W(9), W(3)]);
        let mut out = Vec::new();
        idx.query(&(), 3, &mut out);
        assert_eq!(out, vec![W(5), W(9), W(3)]);
    }

    #[test]
    fn monitored_complete_when_answer_small() {
        let idx = All(vec![W(5), W(1), W(9)]);
        let mut out = Vec::new();
        let m = idx.query_monitored(&(), 0, 10, &mut out);
        assert_eq!(m, Monitored::Complete);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn monitored_truncates_at_limit_plus_one() {
        let idx = All((0..100).map(W).collect());
        let mut out = Vec::new();
        let m = idx.query_monitored(&(), 0, 4, &mut out);
        assert_eq!(m, Monitored::Truncated);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn monitored_exact_boundary_is_complete() {
        // Exactly limit elements → Complete, not Truncated.
        let idx = All((0..5).map(W).collect());
        let mut out = Vec::new();
        let m = idx.query_monitored(&(), 0, 5, &mut out);
        assert_eq!(m, Monitored::Complete);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn log_b_is_clamped() {
        assert_eq!(log_b(2, 64), 1.0);
        assert!((log_b(64 * 64, 64) - 2.0).abs() < 1e-9);
        assert_eq!(log_b(0, 0), 1.0);
    }
}
