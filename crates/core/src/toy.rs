//! Two minimal reference problems used to test and benchmark the reductions
//! in isolation, with zero geometric machinery in the way.
//!
//! * **Global top-k** ([`AllQuery`], `λ = 0`-ish, we use `λ = 1`): the
//!   predicate matches everything. The prioritized structure is a
//!   weight-descending [`BlockArray`] whose queries are perfectly
//!   output-sensitive (`O(1 + t/B)` I/Os), and the max structure is `O(1)`.
//!   This isolates the reductions' own overhead exactly.
//! * **Prefix top-k** ([`PrefixQuery`], `λ = 1`: `n+1` distinct outcomes):
//!   the predicate is `x ≤ x_max`. The prioritized structure scans the
//!   weight-descending array down to `τ` and filters — *not*
//!   output-sensitive, which is fine for correctness tests (and is honestly
//!   reflected in its `query_cost`).

use emsim::{BlockArray, CostModel, EmError, Media, Retrier};

use crate::traits::{
    log_b, Element, MaxBuilder, MaxIndex, PrioritizedBuilder, PrioritizedIndex, Weight,
};

/// A toy element: a 1D position and a weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ToyElem {
    /// Position on the line.
    pub x: u64,
    /// Distinct weight.
    pub w: Weight,
}

impl Element for ToyElem {
    fn weight(&self) -> Weight {
        self.w
    }
}

/// 16-byte `(x, w)` little-endian encoding, so toy datasets can live on a
/// persistent device via [`BlockArray::new_named`] — the element type E23's
/// crash-recovery torture persists and recovers.
impl emsim::Persist for ToyElem {
    const SIZE: usize = 16;
    fn to_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.x.to_le_bytes());
        out.extend_from_slice(&self.w.to_le_bytes());
    }
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::SIZE {
            return None;
        }
        let x = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let w = u64::from_le_bytes(bytes[8..].try_into().ok()?);
        Some(ToyElem { x, w })
    }
}

/// The trivial predicate: every element matches.
#[derive(Clone, Copy, Debug)]
pub struct AllQuery;

/// The prefix predicate `x ≤ x_max`.
#[derive(Clone, Copy, Debug)]
pub struct PrefixQuery {
    /// Inclusive upper bound on `x`.
    pub x_max: u64,
}

/// All-queries are indistinguishable; any constant key batches them.
impl crate::batch::BatchKey for AllQuery {
    fn batch_key(&self) -> u64 {
        0
    }
}

/// Prefix queries with nearby `x_max` read near-identical prefixes of the
/// weight-descending array, so `x_max` itself is the locality key.
impl crate::batch::BatchKey for PrefixQuery {
    fn batch_key(&self) -> u64 {
        self.x_max
    }
}

/// Elements sorted descending by weight, in blocks. The shared
/// representation of both toy problems' structures.
pub struct WeightSortedArray {
    arr: BlockArray<ToyElem>,
}

impl WeightSortedArray {
    /// Build, charging the blocking writes (sorting is charged as one scan —
    /// these toys exist for query-cost isolation, not build-cost realism).
    pub fn build(model: &CostModel, mut items: Vec<ToyElem>) -> Self {
        model.charge_scan::<ToyElem>(items.len());
        items.sort_by_key(|e| std::cmp::Reverse(e.w));
        for w in items.windows(2) {
            assert!(w[0].w != w[1].w, "weights must be distinct");
        }
        WeightSortedArray {
            arr: BlockArray::new(model, items),
        }
    }

    /// Visit the weight-descending prefix down to `tau` on `media` until
    /// `f` returns `false`. On `Err`, `f` has received the
    /// (weight-descending, hence correct) prefix up to the failing block.
    fn for_each_desc_while(
        &self,
        tau: Weight,
        media: Media,
        mut f: impl FnMut(&ToyElem) -> bool,
    ) -> Result<(), EmError> {
        self.arr
            .try_scan_while(0, self.arr.len(), media, |e| e.w >= tau && f(e))
            .map(|_| ())
            .map_err(|(_, e)| e)
    }

    /// The heaviest element on `media`, if any.
    fn first(&self, media: Media) -> Result<Option<ToyElem>, EmError> {
        if self.arr.is_empty() {
            Ok(None)
        } else {
            self.arr.try_get(0, media).map(|e| Some(*e))
        }
    }
}

/// Prioritized index for the trivial predicate: report the weight-descending
/// prefix down to `τ`. Output-sensitive: `O(1 + t/B)` I/Os.
pub struct AllIndex(WeightSortedArray);

impl PrioritizedIndex<ToyElem, AllQuery> for AllIndex {
    fn for_each_at_least(
        &self,
        _q: &AllQuery,
        tau: Weight,
        visit: &mut dyn FnMut(&ToyElem) -> bool,
    ) {
        self.0
            .for_each_desc_while(tau, Media::Perfect, visit)
            .expect("perfect media never fails");
    }
    fn try_for_each_at_least(
        &self,
        _q: &AllQuery,
        tau: Weight,
        retrier: &Retrier,
        visit: &mut dyn FnMut(&ToyElem) -> bool,
    ) -> Result<(), EmError> {
        self.0
            .for_each_desc_while(tau, Media::Retried(retrier), visit)
    }
    fn space_blocks(&self) -> u64 {
        self.0.arr.blocks()
    }
    fn len(&self) -> usize {
        self.0.arr.len()
    }
}

impl MaxIndex<ToyElem, AllQuery> for AllIndex {
    fn query_max(&self, _q: &AllQuery) -> Option<ToyElem> {
        self.0
            .first(Media::Perfect)
            .expect("perfect media never fails")
    }
    fn try_query_max(&self, _q: &AllQuery, retrier: &Retrier) -> Result<Option<ToyElem>, EmError> {
        self.0.first(Media::Retried(retrier))
    }
    fn space_blocks(&self) -> u64 {
        self.0.arr.blocks()
    }
    fn len(&self) -> usize {
        self.0.arr.len()
    }
}

/// Builder for [`AllIndex`] as a prioritized structure.
#[derive(Clone, Copy, Debug)]
pub struct AllBuilder;

impl PrioritizedBuilder<ToyElem, AllQuery> for AllBuilder {
    type Index = AllIndex;
    fn build(&self, model: &CostModel, items: Vec<ToyElem>) -> AllIndex {
        AllIndex(WeightSortedArray::build(model, items))
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        // O(1) + output; clamp to the Theorem 1 precondition Q_pri ≥ log_B n.
        log_b(n, b)
    }
}

/// Builder for [`AllIndex`] as a max structure (`O(1)` query).
#[derive(Clone, Copy, Debug)]
pub struct AllMaxBuilder;

impl MaxBuilder<ToyElem, AllQuery> for AllMaxBuilder {
    type Index = AllIndex;
    fn build(&self, model: &CostModel, items: Vec<ToyElem>) -> AllIndex {
        AllIndex(WeightSortedArray::build(model, items))
    }
    fn query_cost(&self, _n: usize, _b: usize) -> f64 {
        1.0
    }
}

/// Prioritized index for the prefix predicate: scan weight-descending down
/// to `τ`, filtering by `x ≤ x_max`. Cost `O(|{w ≥ τ}|/B)` — deliberately
/// simple, not output-sensitive.
pub struct PrefixIndex(WeightSortedArray);

impl PrefixIndex {
    /// Visit the matches of `q` with weight `≥ tau`, heaviest first, on
    /// `media` until `visit` returns `false`.
    fn matches_while(
        &self,
        q: &PrefixQuery,
        tau: Weight,
        media: Media,
        mut visit: impl FnMut(&ToyElem) -> bool,
    ) -> Result<(), EmError> {
        self.0
            .for_each_desc_while(tau, media, |e| e.x > q.x_max || visit(e))
    }

    /// The heaviest match of `q` on `media`, if any.
    fn first_match(&self, q: &PrefixQuery, media: Media) -> Result<Option<ToyElem>, EmError> {
        let mut found = None;
        self.matches_while(q, 0, media, |e| {
            found = Some(*e);
            false
        })?;
        Ok(found)
    }
}

impl PrioritizedIndex<ToyElem, PrefixQuery> for PrefixIndex {
    fn for_each_at_least(
        &self,
        q: &PrefixQuery,
        tau: Weight,
        visit: &mut dyn FnMut(&ToyElem) -> bool,
    ) {
        self.matches_while(q, tau, Media::Perfect, visit)
            .expect("perfect media never fails");
    }
    fn try_for_each_at_least(
        &self,
        q: &PrefixQuery,
        tau: Weight,
        retrier: &Retrier,
        visit: &mut dyn FnMut(&ToyElem) -> bool,
    ) -> Result<(), EmError> {
        self.matches_while(q, tau, Media::Retried(retrier), visit)
    }
    fn space_blocks(&self) -> u64 {
        self.0.arr.blocks()
    }
    fn len(&self) -> usize {
        self.0.arr.len()
    }
}

impl MaxIndex<ToyElem, PrefixQuery> for PrefixIndex {
    fn query_max(&self, q: &PrefixQuery) -> Option<ToyElem> {
        self.first_match(q, Media::Perfect)
            .expect("perfect media never fails")
    }
    fn try_query_max(
        &self,
        q: &PrefixQuery,
        retrier: &Retrier,
    ) -> Result<Option<ToyElem>, EmError> {
        self.first_match(q, Media::Retried(retrier))
    }
    fn space_blocks(&self) -> u64 {
        self.0.arr.blocks()
    }
    fn len(&self) -> usize {
        self.0.arr.len()
    }
}

/// Builder for [`PrefixIndex`] as a prioritized structure.
#[derive(Clone, Copy, Debug)]
pub struct PrefixBuilder;

impl PrioritizedBuilder<ToyElem, PrefixQuery> for PrefixBuilder {
    type Index = PrefixIndex;
    fn build(&self, model: &CostModel, items: Vec<ToyElem>) -> PrefixIndex {
        PrefixIndex(WeightSortedArray::build(model, items))
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        log_b(n, b)
    }
}

/// Builder for [`PrefixIndex`] as a max structure (scan until first match —
/// `O(n/B)` worst case; honest in its `query_cost`).
#[derive(Clone, Copy, Debug)]
pub struct PrefixMaxBuilder;

impl MaxBuilder<ToyElem, PrefixQuery> for PrefixMaxBuilder {
    type Index = PrefixIndex;
    fn build(&self, model: &CostModel, items: Vec<ToyElem>) -> PrefixIndex {
        PrefixIndex(WeightSortedArray::build(model, items))
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        log_b(n, b)
    }
}

/// A *dynamic* prioritized + max structure for the prefix predicate: a
/// weight-descending vector maintained under insert/delete (linear-time
/// updates — this exists to exercise the reductions' dynamic paths in
/// isolation, not to be fast).
pub struct DynPrefixIndex {
    /// Sorted by weight descending.
    items: Vec<ToyElem>,
    model: CostModel,
}

impl DynPrefixIndex {
    fn charge_probe(&self) {
        self.model
            .charge_reads((self.items.len().max(2) as f64).log2().ceil() as u64);
    }
}

impl PrioritizedIndex<ToyElem, PrefixQuery> for DynPrefixIndex {
    fn for_each_at_least(
        &self,
        q: &PrefixQuery,
        tau: Weight,
        visit: &mut dyn FnMut(&ToyElem) -> bool,
    ) {
        self.charge_probe();
        let per = self.model.config().items_per_block::<ToyElem>().max(1);
        for (i, e) in self.items.iter().enumerate() {
            if i % per == 0 {
                self.model.charge_reads(1);
            }
            if e.w < tau {
                break;
            }
            if e.x <= q.x_max && !visit(e) {
                return;
            }
        }
    }
    fn space_blocks(&self) -> u64 {
        let per = self.model.config().items_per_block::<ToyElem>().max(1) as u64;
        (self.items.len() as u64).div_ceil(per).max(1)
    }
    fn len(&self) -> usize {
        self.items.len()
    }
}

impl MaxIndex<ToyElem, PrefixQuery> for DynPrefixIndex {
    fn query_max(&self, q: &PrefixQuery) -> Option<ToyElem> {
        self.charge_probe();
        self.items.iter().find(|e| e.x <= q.x_max).copied()
    }
    fn space_blocks(&self) -> u64 {
        PrioritizedIndex::space_blocks(self)
    }
    fn len(&self) -> usize {
        self.items.len()
    }
}

impl crate::traits::DynamicIndex<ToyElem> for DynPrefixIndex {
    fn insert(&mut self, e: ToyElem) {
        let pos = self.items.partition_point(|x| x.w > e.w);
        assert!(
            self.items.get(pos).is_none_or(|x| x.w != e.w),
            "duplicate weight {}",
            e.w
        );
        self.items.insert(pos, e);
        self.charge_probe();
    }
    fn delete(&mut self, weight: Weight) -> bool {
        self.charge_probe();
        match self.items.binary_search_by(|x| weight.cmp(&x.w)) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

/// Builder for [`DynPrefixIndex`] as a dynamic prioritized structure.
#[derive(Clone, Copy, Debug)]
pub struct DynPrefixBuilder;

impl PrioritizedBuilder<ToyElem, PrefixQuery> for DynPrefixBuilder {
    type Index = DynPrefixIndex;
    fn build(&self, model: &CostModel, mut items: Vec<ToyElem>) -> DynPrefixIndex {
        items.sort_by_key(|e| std::cmp::Reverse(e.w));
        DynPrefixIndex {
            items,
            model: model.clone(),
        }
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        log_b(n, b)
    }
}

/// Builder for [`DynPrefixIndex`] as a dynamic max structure.
#[derive(Clone, Copy, Debug)]
pub struct DynPrefixMaxBuilder;

impl MaxBuilder<ToyElem, PrefixQuery> for DynPrefixMaxBuilder {
    type Index = DynPrefixIndex;
    fn build(&self, model: &CostModel, items: Vec<ToyElem>) -> DynPrefixIndex {
        PrioritizedBuilder::build(&DynPrefixBuilder, model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        log_b(n, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::traits::Monitored;

    fn items(n: u64) -> Vec<ToyElem> {
        (0..n)
            .map(|i| ToyElem {
                x: i,
                w: (i * 7919) % (n * 8) + 1,
            })
            .collect()
    }

    #[test]
    fn all_index_reports_prefix_down_to_tau() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let data = items(500);
        let idx = AllBuilder.build(&model, data.clone());
        let mut out = Vec::new();
        idx.query(&AllQuery, 1_000, &mut out);
        let want = brute::prioritized(&data, |_| true, 1_000);
        assert_eq!(
            out.iter().map(|e| e.w).collect::<Vec<_>>(),
            want.iter().map(|e| e.w).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_index_query_is_output_sensitive() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let data = items(100_000);
        let idx = AllBuilder.build(&model, data);
        model.reset();
        let mut out = Vec::new();
        idx.query_monitored(&AllQuery, 0, 63, &mut out);
        // 64 reported elements at 32 per block (2 words each): ≤ 3 blocks.
        assert!(model.report().reads <= 3, "reads {}", model.report().reads);
    }

    #[test]
    fn prefix_index_matches_brute() {
        let model = CostModel::ram();
        let data = items(300);
        let idx = PrefixBuilder.build(&model, data.clone());
        for qx in [0u64, 5, 100, 299] {
            for tau in [0u64, 50, 1_000] {
                let mut out = Vec::new();
                idx.query(&PrefixQuery { x_max: qx }, tau, &mut out);
                let want = brute::prioritized(&data, |e| e.x <= qx, tau);
                assert_eq!(
                    out.iter().map(|e| e.w).collect::<Vec<_>>(),
                    want.iter().map(|e| e.w).collect::<Vec<_>>(),
                    "q={qx} tau={tau}"
                );
            }
        }
    }

    #[test]
    fn prefix_max_matches_brute() {
        let model = CostModel::ram();
        let data = items(300);
        let idx = PrefixMaxBuilder.build(&model, data.clone());
        for qx in [0u64, 17, 250, 299] {
            assert_eq!(
                idx.query_max(&PrefixQuery { x_max: qx }).map(|e| e.w),
                brute::max(&data, |e| e.x <= qx).map(|e| e.w),
                "q={qx}"
            );
        }
    }

    #[test]
    fn monitored_truncation_on_toy() {
        let model = CostModel::ram();
        let data = items(100);
        let idx = AllBuilder.build(&model, data);
        let mut out = Vec::new();
        assert_eq!(
            idx.query_monitored(&AllQuery, 0, 9, &mut out),
            Monitored::Truncated
        );
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn duplicate_weights_rejected() {
        let model = CostModel::ram();
        let bad = vec![ToyElem { x: 0, w: 5 }, ToyElem { x: 1, w: 5 }];
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            AllBuilder.build(&model, bad);
        }))
        .is_err());
    }
}
