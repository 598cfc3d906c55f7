//! **Theorem 1** — the worst-case reduction from top-k to prioritized
//! reporting (§3 of the paper).
//!
//! Given a prioritized structure with geometrically-converging space
//! `S_pri(n)` and query cost `Q_pri(n) + O(t/B)` with `Q_pri(n) ≥ log_B n`,
//! on a `λ`-polynomially-bounded problem, [`WorstCaseTopK`] is a top-k
//! structure with
//!
//! * space `S_top(n) = O(S_pri(n))`, and
//! * query cost `O(Q_pri(n) · log n / (log B + log(Q_pri(n)/log_B n))) + O(k/B)`
//!   — i.e. at most an `O(log_B n)` slowdown.
//!
//! ## Construction (§3.2)
//!
//! Let `f = 12λB·Q_pri(n)` (eq. (9)).
//!
//! * **Queries with `k ≤ f`** are served by a *hierarchy* of nested
//!   core-sets `D = R₀ ⊇ R₁ ⊇ …  ⊇ R_h` (each a Lemma 2 core-set of its
//!   predecessor with `K = f`, stopping when `|R_h| ≤ 4f`), with a
//!   prioritized structure on each level. A top-f query descends: if the
//!   monitored query says `|q(Rᵢ)| ≤ 4f`, k-selection finishes; otherwise
//!   the recursion on `Rᵢ₊₁` yields a pivot element `e` whose weight-rank in
//!   `q(Rᵢ)` is (w.h.p.) in `[f, 4f]`, and one prioritized query with
//!   `τ = w(e)` fetches a superset of the top-f.
//! * **Queries with `k > f`** use a *doubling ladder* of core-sets `R[i]`
//!   of `D` with `K = 2^{i-1}·f`, each carrying its own top-f hierarchy.
//!   The ladder supplies a pivot at rank `≈ Θ(k)` of `q(D)`; one prioritized
//!   query on `D` plus k-selection finishes.
//!
//! ## Correctness under sampling failures
//!
//! The pivot ranks are guaranteed only with high probability. Every fast
//! path below *verifies* what it fetched (via the monitored-query outcomes
//! and result sizes) and falls back to an exact full prioritized query when
//! verification fails, so the structure is always exact; the sampling
//! affects only the (expected, rare) cost of the fallback.

use emsim::trace::{phase, Phase};
use emsim::{BlockArray, CostModel, EmError, Media, Retrier};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::coreset::{core_set, CoreSetParams};
use crate::traits::{
    query, query_monitored, selection, Element, FaultMark, Monitored, PrioritizedBuilder,
    PrioritizedIndex, TopKAnswer, TopKIndex,
};

/// Tunables of the Theorem 1 construction.
#[derive(Clone, Copy, Debug)]
pub struct Theorem1Params {
    /// The problem's polynomial-boundedness constant `λ`.
    pub lambda: f64,
    /// The constant in `f = c·λ·B·Q_pri(n)`; the paper uses `c = 12`
    /// (eq. (9)). Exposed for the ablation experiment E14.
    pub f_constant: f64,
    /// Seed for the build-time core-set sampling.
    pub seed: u64,
}

impl Theorem1Params {
    /// Paper defaults: `λ` per problem, `c = 12`.
    pub fn new(lambda: f64) -> Self {
        Theorem1Params {
            lambda,
            f_constant: 12.0,
            seed: 0x70_6170_6572, // "paper"
        }
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A hierarchy of nested core-sets with a prioritized structure per level;
/// answers top-f queries per §3.2.
struct Hierarchy<I> {
    /// `levels[0]` is built on the ground set itself.
    levels: Vec<I>,
    /// `pivot_rank[i]`: the distinguished weight-rank in `q(R_{i+1})` whose
    /// element has rank `[f, 4f]` in `q(Rᵢ)` w.h.p. (`⌈8λ·ln|Rᵢ|⌉`).
    pivot_rank: Vec<usize>,
    f: usize,
}

impl<I> Hierarchy<I> {
    fn build<E, Q, PB>(
        model: &CostModel,
        builder: &PB,
        items: Vec<E>,
        f: usize,
        lambda: f64,
        rng: &mut StdRng,
    ) -> Self
    where
        E: Element,
        PB: PrioritizedBuilder<E, Q, Index = I>,
    {
        let params = CoreSetParams { lambda, k: f };
        let mut sets: Vec<Vec<E>> = vec![items];
        let mut pivot_rank = Vec::new();
        while sets.last().unwrap().len() > 4 * f {
            let prev = sets.last().unwrap();
            let cs = core_set(rng, prev, &params);
            if cs.len() >= prev.len() {
                // Sampling cannot shrink (p saturated) — stop; queries on
                // this level will use the verified fallback.
                break;
            }
            pivot_rank.push(params.sample_rank(prev.len()));
            sets.push(cs);
        }
        let levels = sets.into_iter().map(|s| builder.build(model, s)).collect();
        Hierarchy {
            levels,
            pivot_rank,
            f,
        }
    }

    /// Top-f query on level `i` (per the induction of §3.2), selecting only
    /// the `want` its caller reads: returns the `min(want, |q(Rᵢ)|)`
    /// heaviest elements of `q(Rᵢ)`, heaviest first, and whether they are
    /// exact; `exact = false` means a fault forced a degraded answer
    /// (coarser-level result or partial prefix).
    ///
    /// The level still fetches a superset of its top f: a τ-query is
    /// accepted only when it reported at least f elements. Only the
    /// k-selection that finishes the level shrinks, to `want` survivors
    /// (`k` at level 0, the pivot rank at a level that supplies a pivot).
    ///
    /// Degradation ladder when level `i` stays unreadable: (1) the coarser
    /// core-set `Rᵢ₊₁` — its top-`want` is genuine but may miss elements of
    /// `q(Rᵢ)`; (2) the partial visitor prefix collected before the fault.
    /// `Err` only when both are empty. The plan is deterministic per
    /// (block, attempt), so re-reading a level that already exhausted its
    /// retries would fail identically — the ladder never retries a level.
    fn top_f<E, Q>(
        &self,
        model: &CostModel,
        q: &Q,
        i: usize,
        want: usize,
        media: Media,
        mark: &mut FaultMark,
    ) -> Result<(Vec<E>, bool), EmError>
    where
        E: Element,
        I: PrioritizedIndex<E, Q>,
    {
        // Trace taxonomy: level-0 queries probe the ground structure
        // ("probe"); deeper levels query core-set samples ("sample").
        let ph = if i == 0 { phase::PROBE } else { phase::SAMPLE };
        let idx = &self.levels[i];
        let mut out = selection(model, want);
        let first = {
            let _g = model.span(ph);
            query_monitored(media, idx, q, 0, 4 * self.f, &mut out)
        };
        match first {
            Ok(Monitored::Complete) => {
                // |q(Rᵢ)| ≤ 4f: k-selection finishes.
                let _g = model.span(phase::SELECT);
                Ok((out.finish(model), true))
            }
            Ok(Monitored::Truncated) => {
                // |q(Rᵢ)| > 4f: consult the next core-set for a pivot. A
                // degraded pivot is still sound: whatever τ we obtain, a
                // Complete τ-query with ≥ f results is exactly
                // {e ∈ q(Rᵢ) : w(e) ≥ τ} ⊇ top-f.
                if i + 1 < self.levels.len() {
                    let r = self.pivot_rank[i];
                    if let Ok((rec, _)) = self.top_f(model, q, i + 1, r, media, mark) {
                        if rec.len() >= r {
                            let tau = rec[r - 1].weight();
                            let mut s = selection(model, want);
                            let tau_query = {
                                let _g = model.span(ph);
                                query_monitored(media, idx, q, tau, 4 * self.f, &mut s)
                            };
                            match tau_query {
                                Ok(Monitored::Complete) if s.seen() >= self.f => {
                                    let _g = model.span(phase::SELECT);
                                    return Ok((s.finish(model), true));
                                }
                                // Pivot rank fell outside [f, 4f] — Lemma 2
                                // failure; exact fallback below.
                                Ok(_) => {}
                                Err(_) => {
                                    // Level i went unreadable mid-query; the
                                    // full fallback reads a superset of the
                                    // same blocks, so degrade to the larger
                                    // of the two prefixes we hold.
                                    let _g = model.span(phase::DEGRADE);
                                    mark.note(model);
                                    let best = if s.seen() > out.seen() { s } else { out };
                                    return Ok((best.finish(model), false));
                                }
                            }
                        }
                    }
                }
                // Verified fallback: exact full prioritized query on Rᵢ.
                let fallback = model.span(phase::FALLBACK);
                let mut all = selection(model, want);
                match query(media, idx, q, 0, &mut all) {
                    Ok(()) => Ok((all.finish(model), true)),
                    Err(e) => {
                        drop(fallback);
                        let _g = model.span(phase::DEGRADE);
                        mark.note(model);
                        let best = if all.seen() > out.seen() { all } else { out };
                        if best.seen() == 0 {
                            Err(e)
                        } else {
                            Ok((best.finish(model), false))
                        }
                    }
                }
            }
            Err(e) => {
                // Level i is unreadable from τ = 0: fall back to the coarser
                // core-set, then to the partial prefix.
                let _g = model.span(phase::DEGRADE);
                mark.note(model);
                if i + 1 < self.levels.len() {
                    if let Ok((rec, _)) = self.top_f(model, q, i + 1, want, media, mark) {
                        return Ok((rec, false));
                    }
                }
                if out.seen() == 0 {
                    Err(e)
                } else {
                    Ok((out.finish(model), false))
                }
            }
        }
    }

    fn space_blocks<E, Q>(&self) -> u64
    where
        E: Element,
        I: PrioritizedIndex<E, Q>,
    {
        self.levels
            .iter()
            .map(super::traits::PrioritizedIndex::space_blocks)
            .sum()
    }
}

/// One rung of the doubling ladder for `k > f`: a core-set of `D` with
/// `K = 2^{i-1}·f`, its own top-f hierarchy, and its pivot rank in `q(D)`.
struct Rung<I> {
    hierarchy: Hierarchy<I>,
    /// `K = 2^{i-1}·f` for this rung.
    k_cap: usize,
    /// `⌈8λ·ln n⌉`: rank in `q(R[i])` of the pivot for `q(D)`.
    pivot_rank: usize,
}

/// The Theorem 1 top-k structure. See the module docs.
///
/// ```
/// use topk_core::{CostModel, EmConfig, Theorem1Params, TopKIndex, WorstCaseTopK};
/// use topk_core::toy::{PrefixBuilder, PrefixQuery, ToyElem};
///
/// let model = CostModel::new(EmConfig::new(64));
/// let items: Vec<ToyElem> = (0..500).map(|i| ToyElem { x: i, w: (i * 7 + 1) % 501 + i }).collect();
/// # let mut seen = std::collections::HashSet::new();
/// # let items: Vec<ToyElem> = items.into_iter().filter(|e| seen.insert(e.w)).collect();
/// let topk = WorstCaseTopK::build(&model, &PrefixBuilder, items, Theorem1Params::new(1.0));
/// let mut out = Vec::new();
/// topk.query_topk(&PrefixQuery { x_max: 250 }, 5, &mut out);
/// assert_eq!(out.len(), 5);
/// assert!(out.windows(2).all(|w| w[0].w > w[1].w));
/// ```
pub struct WorstCaseTopK<E, Q, PB>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
{
    model: CostModel,
    /// `f = ⌈c·λ·B·Q_pri(n)⌉`, the small/large-k boundary.
    f: usize,
    /// D itself, blocked, for `k ≥ n/2` scans and final fallbacks.
    data: BlockArray<E>,
    /// Top-f hierarchy on D; its level 0 doubles as "the prioritized
    /// structure on D" used by large-k queries.
    base: Hierarchy<PB::Index>,
    /// The doubling ladder for `f < k < n/2`.
    ladder: Vec<Rung<PB::Index>>,
    _q: std::marker::PhantomData<Q>,
}

impl<E, Q, PB> WorstCaseTopK<E, Q, PB>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
{
    /// Build the structure on `items` (distinct weights required).
    pub fn build(model: &CostModel, builder: &PB, items: Vec<E>, params: Theorem1Params) -> Self {
        let _build = model.span(phase::BUILD);
        let n = items.len();
        let b = model.b();
        let q_pri = builder.query_cost(n.max(2), b);
        let f = ((params.f_constant * params.lambda * b as f64 * q_pri).ceil() as usize).max(1);
        let mut rng = StdRng::seed_from_u64(params.seed);

        let data = BlockArray::new(model, items.clone());
        let base = Hierarchy::build(model, builder, items.clone(), f, params.lambda, &mut rng);

        // Ladder: K = 2^{i-1}·f for i = 1, 2, … while 2^{i-1}·f ≤ n.
        let mut ladder = Vec::new();
        let mut k_cap = f;
        while k_cap <= n {
            let cs_params = CoreSetParams {
                lambda: params.lambda,
                k: k_cap,
            };
            let r = core_set(&mut rng, &items, &cs_params);
            let pivot_rank = cs_params.sample_rank(n.max(2));
            let hierarchy = Hierarchy::build(model, builder, r, f, params.lambda, &mut rng);
            ladder.push(Rung {
                hierarchy,
                k_cap,
                pivot_rank,
            });
            match k_cap.checked_mul(2) {
                Some(next) => k_cap = next,
                None => break,
            }
        }

        WorstCaseTopK {
            model: model.clone(),
            f,
            data,
            base,
            ladder,
            _q: std::marker::PhantomData,
        }
    }

    /// The boundary `f` between the hierarchy regime and the ladder regime.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Number of hierarchy levels built on `D` (`h` in §3.2).
    pub fn hierarchy_depth(&self) -> usize {
        self.base.levels.len()
    }

    /// Number of ladder rungs (`h` of the `k > f` construction).
    pub fn ladder_rungs(&self) -> usize {
        self.ladder.len()
    }

    /// The prioritized structure on `D` (level 0 of the base hierarchy).
    fn d_structure(&self) -> &PB::Index {
        &self.base.levels[0]
    }

    /// The query body behind both [`TopKIndex`] entry points: the `k` (at
    /// most) heaviest of `q(D)` and whether they are exact.
    fn top_k(
        &self,
        q: &Q,
        k: usize,
        media: Media,
        mark: &mut FaultMark,
    ) -> Result<(Vec<E>, bool), EmError> {
        if k == 0 || self.data.is_empty() {
            return Ok((Vec::new(), true));
        }
        if k <= self.f {
            // Treat as top-f, k-selecting only the k read (§3.2).
            return self.base.top_f(&self.model, q, 0, k, media, mark);
        }
        // k ≥ n/2: the paper scans D in O(n/B) = O(k/B). A black-box
        // reduction cannot evaluate the predicate on raw elements, so the
        // "scan" is a full prioritized query with τ = -∞ — same asymptotic
        // cost (Q_pri(n) + O(n/B) = O(k/B) given Q_pri(n) = O(n/B)). The
        // top rung has K > n/2, so every smaller k finds its rung.
        let rung = if 2 * k >= self.data.len() {
            None
        } else {
            // Smallest rung with K ≥ k.
            self.ladder.iter().find(|r| r.k_cap >= k)
        };
        let Some(rung) = rung else {
            return self.full_query(q, k, phase::SCAN, media, mark);
        };
        let cap = rung.k_cap;
        let d = self.d_structure();

        // |q(D)| ≤ 4K ⇒ cost-monitored query finishes it.
        let mut s1 = selection(&self.model, k);
        let first = {
            let _g = self.model.span(phase::PROBE);
            query_monitored(media, d, q, 0, 4 * cap, &mut s1)
        };
        match first {
            Ok(Monitored::Complete) => {
                let _g = self.model.span(phase::SELECT);
                Ok((s1.finish(&self.model), true))
            }
            Ok(Monitored::Truncated) => {
                // |q(D)| > 4K: pivot from the rung's top-f hierarchy; a
                // degraded pivot is sound (see `Hierarchy::top_f`).
                let r = rung.pivot_rank;
                if let Ok((rec, _)) = rung.hierarchy.top_f(&self.model, q, 0, r, media, mark) {
                    if rec.len() >= r {
                        let tau = rec[r - 1].weight();
                        let mut s = selection(&self.model, k);
                        let tau_query = {
                            let _g = self.model.span(phase::PROBE);
                            query_monitored(media, d, q, tau, 4 * cap, &mut s)
                        };
                        match tau_query {
                            Ok(Monitored::Complete) if s.seen() >= k => {
                                let _g = self.model.span(phase::SELECT);
                                return Ok((s.finish(&self.model), true));
                            }
                            Ok(_) => {}
                            Err(_) => {
                                let _g = self.model.span(phase::DEGRADE);
                                mark.note(&self.model);
                                let best = if s.seen() > s1.seen() { s } else { s1 };
                                return Ok((best.finish(&self.model), false));
                            }
                        }
                    }
                }
                // Verified fallback (Lemma 2 failed for this q): exact full
                // query, degrading to the τ = 0 prefix if D stays unreadable.
                match self.full_query(q, k, phase::FALLBACK, media, mark) {
                    Err(_) if s1.seen() > 0 => {
                        let _g = self.model.span(phase::DEGRADE);
                        Ok((s1.finish(&self.model), false))
                    }
                    other => other,
                }
            }
            Err(e) => {
                // D unreadable from τ = 0: degrade to the rung's hierarchy
                // (at most f ≤ k elements, but genuine), then to the prefix.
                let _g = self.model.span(phase::DEGRADE);
                mark.note(&self.model);
                if let Ok((rec, _)) = rung.hierarchy.top_f(&self.model, q, 0, self.f, media, mark) {
                    if !rec.is_empty() {
                        return Ok((rec, false));
                    }
                }
                if s1.seen() == 0 {
                    Err(e)
                } else {
                    Ok((s1.finish(&self.model), false))
                }
            }
        }
    }

    /// Exact full prioritized query on `D` + k-selection under span `ph`,
    /// degrading to the partial prefix when `D` stays unreadable.
    fn full_query(
        &self,
        q: &Q,
        k: usize,
        ph: &'static Phase,
        media: Media,
        mark: &mut FaultMark,
    ) -> Result<(Vec<E>, bool), EmError> {
        let span = self.model.span(ph);
        let mut s = selection(&self.model, k);
        match query(media, self.d_structure(), q, 0, &mut s) {
            Ok(()) => Ok((s.finish(&self.model), true)),
            Err(e) => {
                drop(span);
                let _g = self.model.span(phase::DEGRADE);
                mark.note(&self.model);
                if s.seen() == 0 {
                    Err(e)
                } else {
                    Ok((s.finish(&self.model), false))
                }
            }
        }
    }
}

impl<E, Q, PB> TopKIndex<E, Q> for WorstCaseTopK<E, Q, PB>
where
    E: Element,
    PB: PrioritizedBuilder<E, Q>,
{
    fn query_topk(&self, q: &Q, k: usize, out: &mut Vec<E>) {
        let (items, _) = self
            .top_k(q, k, Media::Perfect, &mut FaultMark::default())
            .expect("perfect media cannot fail");
        out.extend(items);
    }

    fn space_blocks(&self) -> u64 {
        self.data.blocks()
            + self.base.space_blocks::<E, Q>()
            + self
                .ladder
                .iter()
                .map(|r| r.hierarchy.space_blocks::<E, Q>())
                .sum::<u64>()
    }

    fn try_query_topk(&self, q: &Q, k: usize, retrier: &Retrier) -> Result<TopKAnswer<E>, EmError> {
        let mut mark = FaultMark::default();
        let body = self.top_k(q, k, Media::Retried(retrier), &mut mark);
        mark.answer(&self.model, body)
    }
}

/// Batched queries via locality-ordered execution: adjacent queries reuse
/// the hierarchy's upper-level and ladder-rung blocks through the buffer
/// pool (the structure shares its levels across all queries, so a batch
/// pays for each shared block once). Answers stay bit-identical to
/// one-at-a-time queries — only the pool hit pattern changes.
impl<E, Q, PB> crate::batch::BatchTopK<E, Q> for WorstCaseTopK<E, Q, PB>
where
    E: Element,
    Q: crate::batch::BatchKey,
    PB: PrioritizedBuilder<E, Q>,
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::toy::{PrefixBuilder, PrefixQuery, ToyElem};
    use rand::Rng;

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

    fn check_against_brute(n: usize, b: usize, ks: &[usize], queries: &[u64]) {
        let model = CostModel::new(emsim::EmConfig::new(b));
        let items = mk_items(n, 99);
        let builder = PrefixBuilder;
        let t1 = WorstCaseTopK::build(
            &model,
            &builder,
            items.clone(),
            Theorem1Params::new(1.0).with_seed(7),
        );
        for &qx in queries {
            let q = PrefixQuery { x_max: qx };
            for &k in ks {
                let mut got = Vec::new();
                t1.query_topk(&q, k, &mut got);
                let want = brute::top_k(&items, |e| e.x <= qx, k);
                assert_eq!(
                    got.iter().map(|e| e.w).collect::<Vec<_>>(),
                    want.iter().map(|e| e.w).collect::<Vec<_>>(),
                    "n={n} b={b} q={qx} k={k}"
                );
            }
        }
    }

    #[test]
    fn exact_small() {
        check_against_brute(
            200,
            64,
            &[1, 2, 5, 50, 100, 199, 200, 300],
            &[0, 10, 150, 199],
        );
    }

    #[test]
    fn exact_medium() {
        check_against_brute(
            5_000,
            64,
            &[1, 7, 64, 500, 2_500, 4_999],
            &[0, 100, 2_500, 4_999],
        );
    }

    #[test]
    fn exact_in_ram_model() {
        check_against_brute(1_000, 4, &[1, 3, 10, 500, 999], &[5, 500, 999]);
    }

    #[test]
    fn k_zero_and_empty_input() {
        let model = CostModel::ram();
        let t1 = WorstCaseTopK::build(
            &model,
            &PrefixBuilder,
            Vec::<ToyElem>::new(),
            Theorem1Params::new(1.0),
        );
        let mut out = Vec::new();
        t1.query_topk(&PrefixQuery { x_max: 10 }, 5, &mut out);
        assert!(out.is_empty());

        let items = mk_items(10, 3);
        let t1 = WorstCaseTopK::build(&model, &PrefixBuilder, items, Theorem1Params::new(1.0));
        t1.query_topk(&PrefixQuery { x_max: 10 }, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn space_is_linear_in_n() {
        // S_top(n) = O(S_pri(n)); with the toy's linear-space prioritized
        // structure the whole thing must stay within a small multiple of n/B.
        let b = 64;
        let model = CostModel::new(emsim::EmConfig::new(b));
        let n = 60_000;
        let items = mk_items(n, 1);
        let t1 = WorstCaseTopK::build(&model, &PrefixBuilder, items, Theorem1Params::new(1.0));
        let n_blocks = (n as u64).div_ceil((b / 2) as u64); // 2 words per ToyElem
        assert!(
            t1.space_blocks() <= 8 * n_blocks,
            "space {} vs n-blocks {}",
            t1.space_blocks(),
            n_blocks
        );
    }

    #[test]
    fn try_query_topk_is_exact_under_inert_plan() {
        // Two identical pooled meters: `query_topk` runs on one,
        // `try_query_topk` on the other. With B = 16, f ≈ 530, so the ks
        // cover the top-f hierarchy, the doubling ladder and the k ≥ n/2
        // scan.
        let items = mk_items(2_000, 13);
        let build = || {
            let model = CostModel::with_faults(
                emsim::EmConfig::with_memory(16, 32),
                emsim::FaultPlan::none(),
            );
            let t1 = WorstCaseTopK::build(
                &model,
                &PrefixBuilder,
                items.clone(),
                Theorem1Params::new(1.0).with_seed(7),
            );
            (model, t1)
        };
        let (ma, a) = build();
        let (mb, b) = build();
        assert!(a.f() < 700 && a.ladder_rungs() > 0);
        for &qx in &[0u64, 700, 1_999] {
            for &k in &[1usize, 9, 130, 700, 1_500] {
                let q = PrefixQuery { x_max: qx };
                crate::traits::parity::assert_query_agrees(
                    &format!("q={qx} k={k}"),
                    (&ma, &a),
                    (&mb, &b),
                    &q,
                    k,
                );
                let mut got = Vec::new();
                a.query_topk(&q, k, &mut got);
                let want = brute::top_k(&items, |e| e.x <= qx, k);
                assert_eq!(got, want, "q={qx} k={k}");
            }
        }
    }

    #[test]
    fn chaos_answers_are_exact_or_flagged() {
        let model = CostModel::new(emsim::EmConfig::new(16));
        let items = mk_items(3_000, 11);
        let t1 = WorstCaseTopK::build(
            &model,
            &PrefixBuilder,
            items.clone(),
            Theorem1Params::new(1.0).with_seed(5),
        );
        let retrier = Retrier::new(2);
        let (mut exact, mut degraded, mut errors) = (0u32, 0u32, 0u32);
        for seed in 0..10u64 {
            model.set_fault_plan(emsim::FaultPlan::chaos(seed, 0.01));
            for &qx in &[50u64, 1_500, 2_999] {
                for &k in &[1usize, 8, 64, 1_000, 2_000] {
                    let q = PrefixQuery { x_max: qx };
                    match t1.try_query_topk(&q, k, &retrier) {
                        Ok(crate::traits::TopKAnswer::Exact(got)) => {
                            exact += 1;
                            let want = brute::top_k(&items, |e| e.x <= qx, k);
                            assert_eq!(
                                got.iter().map(|e| e.w).collect::<Vec<_>>(),
                                want.iter().map(|e| e.w).collect::<Vec<_>>(),
                                "seed={seed} q={qx} k={k}"
                            );
                        }
                        Ok(crate::traits::TopKAnswer::Degraded { items: got, .. }) => {
                            degraded += 1;
                            assert!(
                                got.windows(2).all(|w| w[0].w > w[1].w),
                                "degraded answer must stay sorted (seed={seed} q={qx} k={k})"
                            );
                            assert!(got.len() <= k);
                            for e in &got {
                                assert!(e.x <= qx, "degraded item must satisfy q");
                                assert!(
                                    items.iter().any(|i| i.w == e.w && i.x == e.x),
                                    "degraded item must be genuine"
                                );
                            }
                        }
                        Err(_) => errors += 1,
                    }
                }
            }
        }
        assert!(exact > 0, "some queries should survive the chaos plan");
        assert!(
            degraded + errors > 0,
            "chaos should surface at least one fault (exact={exact})"
        );
    }

    #[test]
    fn selection_charges_only_the_k_read() {
        // At B = 64, 4f exceeds n, so every k ≤ f query completes at
        // level 0 and finishes with one selection. A k ≤ B' query selects
        // only its k in the visitor and charges one output block; a larger
        // k spills, and its writes stay in `select` too.
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk_items(5_000, 3);
        let t1 = WorstCaseTopK::build(&model, &PrefixBuilder, items, Theorem1Params::new(1.0));
        assert!(t1.f() >= 1_000 && t1.hierarchy_depth() == 1);
        let per = model.config().items_per_block::<ToyElem>();
        let q = PrefixQuery { x_max: 4_000 };
        for k in [1, per, per + 1, 1_000] {
            let (out, rep) = model.explain(|| {
                let mut out = Vec::new();
                t1.query_topk(&q, k, &mut out);
                out
            });
            assert_eq!(out.len(), k);
            let select = rep.phase(phase::SELECT);
            if k <= per {
                assert_eq!((select.reads, select.writes), (1, 0), "k={k}");
            } else {
                assert!(select.writes > 0, "k={k}");
            }
            assert_eq!(rep.total().writes, select.writes, "k={k}");
        }
    }

    #[test]
    fn hierarchy_shrinks_geometrically() {
        let b = 64;
        let model = CostModel::new(emsim::EmConfig::new(b));
        let n = 120_000;
        let items = mk_items(n, 2);
        let t1 = WorstCaseTopK::build(&model, &PrefixBuilder, items, Theorem1Params::new(1.0));
        // f = 12·B·Q_pri ≈ 12·64·log_B n; hierarchy should be shallow.
        assert!(t1.hierarchy_depth() <= 6, "depth {}", t1.hierarchy_depth());
        assert!(t1.ladder_rungs() >= 1);
    }
}
