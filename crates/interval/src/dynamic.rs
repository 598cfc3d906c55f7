//! A dynamic interval-stabbing structure answering both prioritized and
//! max queries.
//!
//! Stands in for the dynamic structures Theorem 4 cites (Tao `SoCG`'12 for
//! prioritized, Agarwal et al. for stabbing-max) — DESIGN.md
//! substitution 2. Design:
//!
//! * A segment tree over the endpoint grid captured at the last rebuild.
//!   Each canonical node keeps its intervals as a run sorted by ascending
//!   (distinct) weight. A stab locates `q` with a static B-tree over the
//!   grid ([`EndpointSearch`], one read per level), then walks one
//!   leaf-to-root path: the max query reads each run's last item, the
//!   prioritized query scans each run from the top down to `τ`.
//!   `O(log² n)` (+ output) either way. Node records are stored in
//!   subtree blocks ([`RecordGroups`]), so the walk reads `⌈depth/h⌉`
//!   record blocks, `h` levels to a block.
//! * Intervals inserted later whose endpoints fall *between* grid points
//!   are fully assigned where possible; the at-most-two fringe slabs keep
//!   them in per-leaf *partial* runs that queries check explicitly. Each
//!   partial run is a block of its own, read by every query in its slab.
//! * Runs live in one sparse [`NodeArena`]: a node gets a run the first
//!   time an interval lands on it, and most nodes never do. A run holds
//!   `u32` slots into one slab that stores each live interval once, so an
//!   interval in a dozen runs costs a dozen 4-byte slots, not a dozen
//!   copies. A delete frees its slot and an insert reuses a freed one.
//!   Inserting into or deleting from a run of `s` items moves up to `s`
//!   slots, which is cheap while runs stay short (see DESIGN.md
//!   substitution 2). The slots are the in-memory layout only: the
//!   modeled blocks, and what queries and updates are charged, count the
//!   run members as before.
//! * A global rebuild (re-gridding on the current endpoints) runs every
//!   `max(64, n/2)` inserts, keeping the partial sets small — `O(log² n)`
//!   amortized updates for endpoint distributions that do not concentrate
//!   adversarially between grid points (the worst case degrades toward the
//!   rebuild cost; see DESIGN.md). It places the live slots in weight
//!   order, so every run it fills is appended to, and leaves the slab and
//!   the weight-to-slot registry as they are.

use std::collections::HashMap;

use emsim::CostModel;
use structures::segtree::{canonical, stab_index, EndpointSearch, NodeArena, RecordGroups};
use topk_core::{
    log_b, DynamicIndex, MaxBuilder, MaxIndex, PrioritizedBuilder, PrioritizedIndex, Weight,
};

use crate::Interval;

/// A canonical or partial set: the slots of its intervals in the
/// structure's slab, in ascending weight order.
#[derive(Default)]
struct SlotRun(Vec<u32>);

impl SlotRun {
    /// Add `slot`, whose interval's weight the run must not hold yet.
    fn insert(&mut self, slab: &[Interval], slot: u32) {
        let w = slab[slot as usize].weight;
        let at = self.0.partition_point(|&s| slab[s as usize].weight < w);
        debug_assert!(self.0.get(at).is_none_or(|&s| slab[s as usize].weight != w));
        self.0.insert(at, slot);
    }

    /// Remove the slot of weight `w`; `false` if there is none.
    fn remove(&mut self, slab: &[Interval], w: Weight) -> bool {
        match self
            .0
            .binary_search_by_key(&w, |&s| slab[s as usize].weight)
        {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// The members of weight at least `tau`, heaviest first. A scan from
    /// the top reads one member past the last it yields, where a binary
    /// search for `tau` would read `log s` slab entries before the first.
    fn at_least<'a>(
        &'a self,
        slab: &'a [Interval],
        tau: Weight,
    ) -> impl Iterator<Item = &'a Interval> {
        self.0
            .iter()
            .rev()
            .map(|&s| &slab[s as usize])
            .take_while(move |iv| iv.weight >= tau)
    }

    /// The heaviest member.
    fn max<'a>(&self, slab: &'a [Interval]) -> Option<&'a Interval> {
        self.0.last().map(|&s| &slab[s as usize])
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The endpoint grid captured at the last rebuild, and the arena ids of
/// the sets it defines. Arena ids double as block ids under the
/// structure's array id.
struct Grid {
    /// Sorted, distinct endpoints.
    xs: Vec<f64>,
    /// The segment tree's leaf count: `2·xs.len()+1` elementary slabs
    /// padded to a power of two. Arena ids `1..2·cap` are the heap-shaped
    /// canonical sets (1 is the root); the partial set of slab `s` (the
    /// intervals only partially covering it) is `2·cap + s`.
    cap: usize,
    /// The B-tree levels above `xs` that locate a query point, with block
    /// ids from `3·cap` up.
    search: EndpointSearch,
}

impl Grid {
    fn new(xs: Vec<f64>, keys_per_block: usize) -> Self {
        let cap = (2 * xs.len() + 1).next_power_of_two().max(2);
        let search = EndpointSearch::build(&xs, keys_per_block, 3 * cap);
        Grid { xs, cap, search }
    }

    /// The elementary slab holding `q` (see [`stab_index`]).
    fn slab(&self, q: f64) -> usize {
        stab_index(&self.xs, q)
    }

    /// [`Grid::slab`], found by walking the search levels and calling
    /// `read(block)` once per level.
    fn locate(&self, q: f64, read: impl FnMut(u64)) -> usize {
        self.search.stab_index(&self.xs, q, read)
    }

    /// Arena id of slab `slab`'s partial set.
    fn partial(&self, slab: usize) -> usize {
        2 * self.cap + slab
    }

    /// The canonical nodes from slab `slab`'s leaf up to the root.
    fn path(&self, slab: usize) -> impl Iterator<Item = usize> {
        std::iter::successors(Some(self.cap + slab), |&u| (u > 1).then_some(u / 2))
    }

    /// Call `f` with the arena id of every set `iv` belongs to: the
    /// partial set of each gap slab holding one of its endpoints, then the
    /// canonical nodes of the slabs it fully covers.
    fn for_each_set(&self, iv: &Interval, mut f: impl FnMut(usize)) {
        let a = self.slab(iv.lo);
        let b = self.slab(iv.hi);
        // On-grid endpoints land on odd (point) slabs and are fully
        // covered; off-grid endpoints land on even (gap) slabs, covered
        // partially.
        if a.is_multiple_of(2) {
            f(self.partial(a));
        }
        if b.is_multiple_of(2) && b != a {
            f(self.partial(b));
        }
        // Fully covered: from `a`, or the point after an off-grid start,
        // up to `b`, or the point before an off-grid end.
        let first = a | 1;
        let end = if b % 2 == 1 { b + 1 } else { b };
        if first < end {
            canonical(self.cap, first, end - 1, f);
        }
    }
}

/// Dynamic prioritized + max interval stabbing. See the module docs.
pub struct DynStabbing {
    grid: Grid,
    /// The canonical and partial runs, by [`Grid`] arena id.
    sets: NodeArena<SlotRun>,
    /// The record blocks of the canonical nodes, one `SlotRun` header
    /// per node.
    groups: RecordGroups,
    /// Every live interval once, at its slot; a freed slot keeps its stale
    /// interval until an insert reuses it.
    slab: Vec<Interval>,
    /// The slots deletes freed, reused before the slab grows.
    free: Vec<u32>,
    /// The slot of every live interval, by weight.
    registry: HashMap<Weight, u32>,
    inserts_since_build: usize,
    array_id: u64,
    model: CostModel,
}

impl DynStabbing {
    /// Build over the given intervals.
    pub fn build(model: &CostModel, items: Vec<Interval>) -> Self {
        let mut s = DynStabbing {
            grid: Grid::new(Vec::new(), 1),
            sets: NodeArena::new(0),
            groups: RecordGroups::of::<SlotRun>(model.config()),
            slab: Vec::with_capacity(items.len()),
            free: Vec::new(),
            registry: HashMap::with_capacity(items.len()),
            inserts_since_build: 0,
            array_id: model.new_array_id(),
            model: model.clone(),
        };
        for iv in items {
            s.register(iv);
        }
        s.rebuild();
        s
    }

    /// Store `iv` in a free slot (or a new one) and register it under its
    /// weight, which must not be live yet.
    fn register(&mut self, iv: Interval) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = iv;
                slot
            }
            None => {
                self.slab.push(iv);
                u32::try_from(self.slab.len() - 1).expect("live interval count fits u32")
            }
        };
        let prev = self.registry.insert(iv.weight, slot);
        assert!(prev.is_none(), "duplicate weight {}", iv.weight);
        slot
    }

    fn rebuild(&mut self) {
        let slab = &self.slab;
        let mut slots: Vec<u32> = self.registry.values().copied().collect();
        slots.sort_unstable_by_key(|&s| slab[s as usize].weight);
        let mut xs: Vec<f64> = slots
            .iter()
            .flat_map(|&s| [slab[s as usize].lo, slab[s as usize].hi])
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();
        self.grid = Grid::new(xs, self.model.config().items_per_block::<f64>());
        self.sets = NodeArena::new(3 * self.grid.cap);
        self.inserts_since_build = 0;
        // Ascending weights: every run insert below is an append.
        for slot in slots {
            self.place(slot);
        }
        // Charge a rebuild as one full write pass over the structure, plus
        // the search levels.
        self.model.charge_writes(
            (self.registry.len().max(1) as u64).div_ceil(8) + self.grid.search.internal_blocks(),
        );
    }

    /// Add the interval at `slot` to its sets (registry already updated).
    fn place(&mut self, slot: u32) {
        let slab = &self.slab;
        let sets = &mut self.sets;
        self.grid.for_each_set(&slab[slot as usize], |u| {
            sets.get_or_default_mut(u).insert(slab, slot);
        });
    }

    /// Total partial-set size (diagnostics for the rebuild policy).
    pub fn partial_population(&self) -> usize {
        (0..self.grid.cap)
            .filter_map(|slab| self.sets.get(self.grid.partial(slab)))
            .map(SlotRun::len)
            .sum()
    }
}

impl PrioritizedIndex<Interval, f64> for DynStabbing {
    fn for_each_at_least(&self, q: &f64, tau: Weight, visit: &mut dyn FnMut(&Interval) -> bool) {
        let q = *q;
        if self.registry.is_empty() {
            return;
        }
        let read = |block| self.model.touch(self.array_id, block);
        let leaf = self.grid.locate(q, read);
        // Partial set at the leaf: explicit stabbing check.
        let partial = self.grid.partial(leaf);
        read(partial as u64);
        if let Some(run) = self.sets.get(partial) {
            for iv in run.at_least(&self.slab, tau) {
                if iv.stabs(q) && !visit(iv) {
                    return;
                }
            }
        }
        // Full sets along the path: every member covers the leaf's slab
        // entirely.
        let mut walk = self.groups.walk();
        for u in self.grid.path(leaf) {
            walk.visit(u, read);
            if let Some(run) = self.sets.get(u) {
                for iv in run.at_least(&self.slab, tau) {
                    debug_assert!(iv.stabs(q));
                    if !visit(iv) {
                        return;
                    }
                }
            }
        }
    }

    fn space_blocks(&self) -> u64 {
        let per = self.model.config().items_per_block::<Interval>().max(1) as u64;
        let copies: u64 = self.sets.values().iter().map(|run| run.len() as u64).sum();
        let grid = (self.grid.xs.len() as u64).div_ceil(per) + self.grid.search.internal_blocks();
        copies.div_ceil(per) + grid + 1
    }

    fn len(&self) -> usize {
        self.registry.len()
    }
}

impl MaxIndex<Interval, f64> for DynStabbing {
    fn query_max(&self, q: &f64) -> Option<Interval> {
        let q = *q;
        if self.registry.is_empty() {
            return None;
        }
        let read = |block| self.model.touch(self.array_id, block);
        let leaf = self.grid.locate(q, read);
        let partial = self.grid.partial(leaf);
        read(partial as u64);
        // Heaviest first: the first partial member that stabs is its max.
        let mut best = self
            .sets
            .get(partial)
            .and_then(|run| run.at_least(&self.slab, 0).find(|iv| iv.stabs(q)));
        let mut walk = self.groups.walk();
        for u in self.grid.path(leaf) {
            walk.visit(u, read);
            if let Some(iv) = self.sets.get(u).and_then(|run| run.max(&self.slab)) {
                if best.is_none_or(|b| iv.weight > b.weight) {
                    best = Some(iv);
                }
            }
        }
        best.copied()
    }

    fn space_blocks(&self) -> u64 {
        PrioritizedIndex::<Interval, f64>::space_blocks(self)
    }

    fn len(&self) -> usize {
        self.registry.len()
    }
}

impl DynamicIndex<Interval> for DynStabbing {
    fn insert(&mut self, iv: Interval) {
        let slot = self.register(iv);
        self.place(slot);
        self.inserts_since_build += 1;
        // Charge the canonical assignment.
        self.model
            .charge_writes((self.grid.xs.len().max(2) as f64).log2() as u64 + 1);
        if self.inserts_since_build > 64.max(self.registry.len() / 2) {
            self.rebuild();
        }
    }

    fn delete(&mut self, weight: Weight) -> bool {
        let Some(slot) = self.registry.remove(&weight) else {
            return false;
        };
        let slab = &self.slab;
        let sets = &mut self.sets;
        self.grid.for_each_set(&slab[slot as usize], |u| {
            let removed = sets.get_mut(u).is_some_and(|run| run.remove(slab, weight));
            debug_assert!(removed, "weight {weight} missing from set {u}");
        });
        self.free.push(slot);
        self.model
            .charge_writes((self.grid.xs.len().max(2) as f64).log2() as u64 + 1);
        true
    }
}

/// [`PrioritizedBuilder`] for [`DynStabbing`].
#[derive(Clone, Copy, Debug)]
pub struct DynStabbingBuilder;

impl PrioritizedBuilder<Interval, f64> for DynStabbingBuilder {
    type Index = DynStabbing;
    fn build(&self, model: &CostModel, items: Vec<Interval>) -> DynStabbing {
        DynStabbing::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let lg = (n.max(2) as f64).log2();
        (lg * lg).max(log_b(n, b))
    }
}

/// [`MaxBuilder`] for [`DynStabbing`].
#[derive(Clone, Copy, Debug)]
pub struct DynStabbingMaxBuilder;

impl MaxBuilder<Interval, f64> for DynStabbingMaxBuilder {
    type Index = DynStabbing;
    fn build(&self, model: &CostModel, items: Vec<Interval>) -> DynStabbing {
        DynStabbing::build(model, items)
    }
    fn query_cost(&self, n: usize, b: usize) -> f64 {
        let lg = (n.max(2) as f64).log2();
        (lg * lg).max(log_b(n, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;
    use topk_core::brute;

    fn mk(n: usize, seed: u64) -> Vec<Interval> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let a: f64 = rng.gen_range(0.0..100.0);
                let len: f64 = rng.gen_range(0.0..25.0);
                Interval::new(a, a + len, i as u64 + 1)
            })
            .collect()
    }

    fn check_all(idx: &DynStabbing, reference: &[Interval], queries: &[f64]) {
        for &q in queries {
            // Prioritized.
            for tau in [0u64, 1, 200, 100_000] {
                let mut got = Vec::new();
                idx.query(&q, tau, &mut got);
                let mut got_w: Vec<u64> = got.iter().map(|iv| iv.weight).collect();
                got_w.sort_unstable();
                let want = brute::prioritized(reference, |iv| iv.stabs(q), tau);
                let mut want_w: Vec<u64> = want.iter().map(|iv| iv.weight).collect();
                want_w.sort_unstable();
                assert_eq!(got_w, want_w, "q={q} tau={tau}");
            }
            // Max.
            let want = brute::max(reference, |iv| iv.stabs(q));
            assert_eq!(
                idx.query_max(&q).map(|iv| iv.weight),
                want.map(|iv| iv.weight),
                "max q={q}"
            );
        }
    }

    /// Store an interval of weight `w` at a fresh slot of `slab`.
    fn push_slot(slab: &mut Vec<Interval>, w: Weight) -> u32 {
        slab.push(Interval::new(0.0, 1.0, w));
        (slab.len() - 1) as u32
    }

    #[test]
    fn sorted_run_matches_btreemap_model() {
        let mut rng = StdRng::seed_from_u64(57);
        for _ in 0..40 {
            let mut run = SlotRun::default();
            // Slots are handed out in insertion order, so slot order and
            // weight order differ.
            let mut slab = Vec::new();
            let mut model: BTreeMap<Weight, u32> = BTreeMap::new();
            let universe = rng.gen_range(1..80u64);
            for _ in 0..300 {
                let w = rng.gen_range(0..universe);
                if rng.gen_bool(0.5) {
                    if let Entry::Vacant(entry) = model.entry(w) {
                        let slot = push_slot(&mut slab, w);
                        entry.insert(slot);
                        run.insert(&slab, slot);
                    }
                } else {
                    assert_eq!(
                        run.remove(&slab, w),
                        model.remove(&w).is_some(),
                        "remove {w}"
                    );
                }
                let tau = rng.gen_range(0..universe + 2);
                let got: Vec<Weight> = run.at_least(&slab, tau).map(|iv| iv.weight).collect();
                let want: Vec<Weight> = model.range(tau..).rev().map(|(&w, _)| w).collect();
                assert_eq!(got, want, "at_least({tau})");
                assert_eq!(
                    run.max(&slab).map(|iv| iv.weight),
                    model.keys().next_back().copied()
                );
                assert_eq!(run.len(), model.len());
            }
        }
    }

    #[test]
    fn sorted_run_edge_cases() {
        let mut run = SlotRun::default();
        let mut slab = Vec::new();
        assert_eq!(run.at_least(&slab, 0).count(), 0);
        assert!(run.max(&slab).is_none());
        assert!(!run.remove(&slab, 5), "remove from an empty run");
        for w in [30, 10, 20] {
            let slot = push_slot(&mut slab, w);
            run.insert(&slab, slot);
        }
        let weights = |run: &SlotRun, tau| {
            run.at_least(&slab, tau)
                .map(|iv| iv.weight)
                .collect::<Vec<_>>()
        };
        assert_eq!(weights(&run, 0), vec![30, 20, 10]);
        assert_eq!(weights(&run, 20), vec![30, 20]);
        assert_eq!(
            weights(&run, 31),
            Vec::<Weight>::new(),
            "τ above every weight"
        );
        assert!(!run.remove(&slab, 15), "remove an absent weight");
        assert_eq!(run.len(), 3);
        assert!(run.remove(&slab, 30));
        assert_eq!(run.max(&slab).map(|iv| iv.weight), Some(20));
    }

    #[test]
    fn churn_reuses_slots_and_keeps_one_copy_per_live_interval() {
        let model = CostModel::ram();
        let mut reference = mk(300, 60);
        let mut idx = DynStabbing::build(&model, reference.clone());
        let mut rng = StdRng::seed_from_u64(61);
        let mut peak = reference.len();
        let mut next_w = 1_000_000u64;
        let mut rebuilds = 0;
        for step in 0..3_000 {
            // Balanced churn: insert while at or below the start size,
            // else flip a coin.
            if reference.len() <= 300 || rng.gen_bool(0.5) {
                let a: f64 = rng.gen_range(0.0..100.0);
                let iv = Interval::new(a, a + rng.gen_range(0.0..25.0), next_w);
                next_w += 1;
                let before = idx.inserts_since_build;
                idx.insert(iv);
                rebuilds += usize::from(idx.inserts_since_build < before);
                reference.push(iv);
            } else {
                let iv = reference.swap_remove(rng.gen_range(0..reference.len()));
                assert!(idx.delete(iv.weight), "step {step}");
            }
            peak = peak.max(reference.len());
            assert!(
                idx.slab.len() <= peak,
                "step {step}: {} slots, peak live {peak}",
                idx.slab.len()
            );
            assert_eq!(idx.slab.len(), idx.registry.len() + idx.free.len());
            if step % 97 == 0 {
                check_all(&idx, &reference, &[rng.gen_range(-5.0..130.0)]);
            }
        }
        assert!(rebuilds >= 1, "the churn passed no rebuild");
        // Each live weight maps to one slot holding its interval, and no
        // two weights share a slot.
        assert_eq!(idx.registry.len(), reference.len());
        let mut slots = std::collections::HashSet::new();
        for iv in &reference {
            let slot = idx.registry[&iv.weight];
            assert_eq!(idx.slab[slot as usize], *iv);
            assert!(slots.insert(slot), "slot {slot} shared");
        }
        check_all(&idx, &reference, &[0.0, 33.0, 66.6, 99.9]);
    }

    #[test]
    fn static_build_matches_brute() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let items = mk(600, 51);
        let idx = DynStabbing::build(&model, items.clone());
        check_all(&idx, &items, &[0.0, 10.0, 55.5, 99.0, 130.0, -1.0]);
    }

    #[test]
    fn inserts_with_fresh_endpoints() {
        let model = CostModel::ram();
        let mut idx = DynStabbing::build(&model, mk(50, 52));
        let mut reference = mk(50, 52);
        let mut rng = StdRng::seed_from_u64(53);
        for i in 0..300u64 {
            let a: f64 = rng.gen_range(0.0..100.0);
            let len: f64 = rng.gen_range(0.0..25.0);
            let iv = Interval::new(a, a + len, 10_000 + i);
            idx.insert(iv);
            reference.push(iv);
            if i % 37 == 0 {
                let q: f64 = rng.gen_range(-5.0..130.0);
                check_all(&idx, &reference, &[q]);
            }
        }
        check_all(&idx, &reference, &[0.0, 33.0, 66.6, 99.9]);
    }

    #[test]
    fn interleaved_insert_delete_query() {
        let model = CostModel::ram();
        let mut idx = DynStabbing::build(&model, vec![]);
        let mut reference: Vec<Interval> = Vec::new();
        let mut rng = StdRng::seed_from_u64(54);
        let mut next_w = 1u64;
        for step in 0..1_500 {
            if rng.gen_bool(0.6) || reference.is_empty() {
                let a: f64 = rng.gen_range(0.0..50.0);
                let iv = Interval::new(a, a + rng.gen_range(0.0..10.0), next_w);
                next_w += 1;
                idx.insert(iv);
                reference.push(iv);
            } else {
                let i = rng.gen_range(0..reference.len());
                let iv = reference.swap_remove(i);
                assert!(idx.delete(iv.weight), "step {step}");
                assert!(!idx.delete(iv.weight), "double delete step {step}");
            }
            if step % 101 == 0 {
                let q: f64 = rng.gen_range(-2.0..62.0);
                check_all(&idx, &reference, &[q]);
            }
        }
        check_all(&idx, &reference, &[0.0, 25.0, 50.0]);
    }

    #[test]
    fn rebuild_keeps_partial_sets_small() {
        let model = CostModel::ram();
        let mut idx = DynStabbing::build(&model, mk(200, 55));
        let mut rng = StdRng::seed_from_u64(56);
        for i in 0..2_000u64 {
            let a: f64 = rng.gen_range(0.0..100.0);
            idx.insert(Interval::new(a, a + 5.0, 50_000 + i));
        }
        // After many rebuild cycles the partial population must stay well
        // below the live count.
        assert!(
            idx.partial_population() <= idx.registry.len(),
            "partials {} of {}",
            idx.partial_population(),
            idx.registry.len()
        );
    }

    /// `⌈log_fanout m⌉`, at least 1: the levels of an endpoint B-tree.
    fn search_levels(m: usize, fanout: usize) -> u64 {
        let (mut levels, mut reach) = (1, fanout);
        while reach < m {
            levels += 1;
            reach *= fanout;
        }
        levels
    }

    #[test]
    fn stab_reads_search_levels_one_partial_and_one_block_per_record_group() {
        let items = mk(3_000, 58);
        let unpooled = CostModel::new(emsim::EmConfig::new(64));
        let pooled = CostModel::new(emsim::EmConfig::with_memory(64, 4096));
        for model in [unpooled, pooled] {
            let mut idx = DynStabbing::build(&model, items.clone());
            // A fresh endpoint between grid points, so some partial sets
            // hold an interval.
            idx.insert(Interval::new(50.0001, 60.0001, 1_000_000));
            let m = idx.grid.xs.len();
            assert!(m > 64 * 64 && m <= 64 * 64 * 64);
            let levels = search_levels(m, 64);
            assert_eq!(levels, 3);
            // A 3-word run header: 21 to a block, 4 levels to a group. The
            // path has log₂(cap) + 1 levels.
            assert_eq!(idx.groups.levels(), 4);
            let depth = idx.grid.cap.ilog2() + 1;
            let want = levels + 1 + u64::from(depth.div_ceil(4));
            // Distinct queries, so no pooled block is read twice unless
            // two of them share it.
            for (i, q) in [-1.0, 0.0, 12.5, 50.00005, 60.00005, 99.9, 200.0]
                .into_iter()
                .enumerate()
            {
                model.reset();
                let mut out = Vec::new();
                idx.query(&q, (i * 400) as Weight, &mut out);
                let r = model.report();
                assert_eq!(r.reads + r.pool_hits, want, "pri q={q}");
                model.reset();
                idx.query_max(&q);
                let r = model.report();
                assert_eq!(r.reads + r.pool_hits, want, "max q={q}");
                if model.config().mem_blocks > 0 {
                    // The second walk of the same path hits on every block.
                    assert_eq!(r.pool_hits, want, "max q={q}");
                }
            }
        }
    }

    #[test]
    fn partial_sets_have_block_ids_of_their_own() {
        // A cold pooled query misses on every block it reads, so none of
        // them is read twice: the partial set does not share the leaf's
        // block, even where the leaf is a group root (always at h = 1).
        let items = mk(600, 59);
        for b in [1, 16, 64] {
            for q in [3.0, 47.5, 88.25] {
                let model = CostModel::new(emsim::EmConfig::with_memory(b, 1 << 16));
                let idx = DynStabbing::build(&model, items.clone());
                let levels = search_levels(idx.grid.xs.len(), b.max(2));
                let depth = idx.grid.cap.ilog2() + 1;
                let groups = depth.div_ceil(idx.groups.levels());
                model.reset();
                idx.query(&q, 0, &mut Vec::new());
                let r = model.report();
                assert_eq!(r.pool_hits, 0, "b={b} q={q}");
                assert_eq!(r.reads, levels + 1 + u64::from(groups), "b={b} q={q}");
            }
        }
    }

    #[test]
    fn empty_structure() {
        let model = CostModel::ram();
        let mut idx = DynStabbing::build(&model, vec![]);
        assert_eq!(idx.query_max(&1.0), None);
        let mut out = Vec::new();
        idx.query(&1.0, 0, &mut out);
        assert!(out.is_empty());
        assert!(!idx.delete(5));
        idx.insert(Interval::new(1.0, 2.0, 5));
        assert_eq!(idx.query_max(&1.5).map(|i| i.weight), Some(5));
    }
}
