//! External-memory k-selection.
//!
//! The paper repeatedly invokes "k-selection \[8\]" (§3.2, §4) to turn a
//! superset of candidates into the exact top-k result in `O(n/B)` I/Os.
//! We implement expected-linear quickselect with a seeded deterministic
//! pivot sequence.
//!
//! Every entry point charges by one of two rules (DESIGN.md substitution
//! 10). The working set of a selection is its `min(k, m)` survivors over
//! `m` candidates: candidates stream through memory, and keeping the
//! heaviest `k` of them needs room for `k` items only.
//!
//! * **Resident.** When the meter has a buffer pool and the working set's
//!   `⌈min(k, m)/B'⌉` blocks fit in its frames (`B'` is the per-block
//!   item capacity), the set is held in the pool
//!   ([`CostModel::hold_scratch`]) and the selection charges only its
//!   output, `⌈|out|/B'⌉` reads.
//! * **External.** Otherwise — the working set is larger than the pool,
//!   or there is no pool — every pass is charged as in EM quickselect: an
//!   extraction scan of the `m` candidates, `⌈m'/B'⌉` per partitioning
//!   pass over `m'` survivors, a filter scan and the output.
//!
//! Both rules run the same kernels, so answers do not depend on the rule.
//!
//! The in-memory work of each pass runs on the [`kernels`]
//! layer: a stable branch-free three-way partition and a vectorized
//! scan-for-threshold, on the meter's kernel backend
//! ([`CostModel::kernels`]). Keys are embedded into `u64` bits through
//! [`KernelKey`], so `u32` / `u64` / `i64` / `f64` keys all hit the
//! specialized kernels via [`dispatch_kernel!`](crate::dispatch_kernel),
//! while every other `Ord` key type takes the generic fallback
//! ([`top_k_by_ord`]). All paths make
//! the same pivot draws and charge the same scans: answers and metered
//! I/Os are bit-identical across backends and key representations.

use std::any::Any;

use crate::cost::CostModel;
use crate::dispatch_kernel;
use crate::kernels::{self, Backend, KernelKey};

/// Where a selection's pass charges go: to the meter under the external
/// rule, nowhere under the resident one (see the module docs).
#[derive(Clone, Copy)]
struct Passes<'a>(Option<&'a CostModel>);

impl<'a> Passes<'a> {
    /// Hold the `min(k, m)`-item working set resident if it fits, and
    /// charge the passes only if it does not.
    fn for_selection<T>(model: &'a CostModel, k: usize, m: usize) -> Self {
        Passes((!model.hold_scratch::<T>(k.min(m))).then_some(model))
    }

    fn scan<T>(self, items: usize) {
        if let Some(model) = self.0 {
            model.charge_scan::<T>(items);
        }
    }
}

/// Return the `k` largest items by `key` (descending by key), charging the
/// selection to `model` by the resident or the external rule (module docs):
/// `⌈k/B'⌉` I/Os when the `k` survivors fit in the buffer pool, else
/// `O(m/B)` expected I/Os plus `O(k/B)` to emit the output.
///
/// If `items.len() <= k` the whole input is returned (sorted descending),
/// mirroring the paper's convention that a top-k query on fewer than `k`
/// qualifying elements reports all of them.
///
/// Duplicate-heavy inputs are safe: the filter pass gathers exactly the
/// first `k` qualifying items (all strictly above the threshold plus as
/// many threshold-equal items, in input order, as still fit), so an
/// all-equal input costs `O(n/B + k log k)` work instead of an `O(n log n)`
/// sort of every tied candidate.
pub fn top_k_by_weight<T: Clone>(
    model: &CostModel,
    items: &[T],
    k: usize,
    key: impl Fn(&T) -> u64,
) -> Vec<T> {
    top_k_by_key(model, items, k, key)
}

/// [`top_k_by_weight`] generalized to any kernel-embeddable key type:
/// `u64` / `u32` / `i64` / `f64` keys dispatch to the monomorphized
/// kernels; anything else would not compile here — use [`top_k_by_ord`].
///
/// Under the external rule the charges are an extraction scan of the `m`
/// candidates, `⌈m'/B'⌉` for each partitioning pass over `m'` surviving
/// keys, a filter scan of the candidates and the output scan. Under the
/// resident rule only the output scan is charged.
pub fn top_k_by_key<T: Clone, K: KernelKey + 'static>(
    model: &CostModel,
    items: &[T],
    k: usize,
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    let passes = Passes::for_selection::<T>(model, k, items.len());
    if items.len() <= k {
        passes.scan::<T>(items.len());
        let mut out = items.to_vec();
        out.sort_by_key(|e| std::cmp::Reverse(key(e).to_bits()));
        out.truncate(k);
        model.charge_scan::<T>(out.len());
        return out;
    }
    // One metered extraction pass materializes the bit-embedded keys; the
    // dispatch macro picks the monomorphized conversion for K's tag (the
    // tag is always `Some` here because K: KernelKey, but the macro keeps
    // the generic path as its fallback arm by construction).
    passes.scan::<T>(items.len());
    let raw: Vec<K> = items.iter().map(&key).collect();
    let bits: Vec<u64> = dispatch_kernel!(
        kernels::key_type_of::<K>(),
        KK => bits_of_any::<KK>(Box::new(raw)),
        _ => unreachable!("K: KernelKey always has a KeyType tag")
    );
    let threshold = kth_largest_bits(model.kernels(), passes, bits.clone(), k);
    // The filter pass re-reads the candidate array (one metered scan).
    passes.scan::<T>(items.len());
    let picked = gather_top_k(model.kernels(), &bits, threshold, k);
    let mut out: Vec<(u64, &T)> = picked.into_iter().map(|i| (bits[i], &items[i])).collect();
    // Stable sort on the embedded bits == stable sort on the original key.
    out.sort_by_key(|&(b, _)| std::cmp::Reverse(b));
    out.truncate(k);
    let out: Vec<T> = out.into_iter().map(|(_, t)| t.clone()).collect();
    model.charge_scan::<T>(out.len());
    out
}

/// The generic `Ord`-bound fallback: same algorithm, same metered charges,
/// one comparison-based code path for key types with no specialized
/// kernel. (The kernel paths are proptest-pinned to agree with this.)
pub fn top_k_by_ord<T: Clone, K: Ord + Copy>(
    model: &CostModel,
    items: &[T],
    k: usize,
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    let passes = Passes::for_selection::<T>(model, k, items.len());
    if items.len() <= k {
        passes.scan::<T>(items.len());
        let mut out = items.to_vec();
        out.sort_by_key(|e| std::cmp::Reverse(key(e)));
        out.truncate(k);
        model.charge_scan::<T>(out.len());
        return out;
    }
    passes.scan::<T>(items.len());
    let keys: Vec<K> = items.iter().map(&key).collect();
    let threshold = kth_largest_ord(passes, keys.clone(), k);
    passes.scan::<T>(items.len());
    let mut gt = Vec::new();
    let mut eq = Vec::new();
    for (i, x) in keys.iter().enumerate() {
        match x.cmp(&threshold) {
            std::cmp::Ordering::Greater => gt.push(i),
            std::cmp::Ordering::Equal => eq.push(i),
            std::cmp::Ordering::Less => {}
        }
    }
    let need = k - gt.len();
    gt.extend(eq.into_iter().take(need));
    let mut out: Vec<(K, &T)> = gt.into_iter().map(|i| (keys[i], &items[i])).collect();
    out.sort_by_key(|&(b, _)| std::cmp::Reverse(b));
    out.truncate(k);
    let out: Vec<T> = out.into_iter().map(|(_, t)| t.clone()).collect();
    model.charge_scan::<T>(out.len());
    out
}

/// Monomorphized bit-embedding pass: the target of the dispatch macro.
/// Takes the key vector type-erased (the macro arm binds the concrete
/// type) and returns the order-embedded `u64` keys.
fn bits_of_any<K: KernelKey>(raw: Box<dyn Any>) -> Vec<u64> {
    let raw = *raw
        .downcast::<Vec<K>>()
        .expect("dispatch_kernel tag matches the key type");
    raw.into_iter().map(KernelKey::to_bits).collect()
}

/// Indices (input order) of the top-k survivors: every key strictly above
/// `threshold` plus the first `k - |above|` keys equal to it. Bounding the
/// equal-key gather is the duplicate-heavy worst-case fix — an all-equal
/// input yields `k` survivors, not `n`.
fn gather_top_k(backend: Backend, bits: &[u64], threshold: u64, k: usize) -> Vec<usize> {
    let ge = kernels::filter_ge_indices(backend, bits, threshold);
    let gt_count = ge.iter().filter(|&&i| bits[i] > threshold).count();
    let need = k.saturating_sub(gt_count);
    let mut kept_eq = 0usize;
    let mut out = ge;
    out.retain(|&i| {
        if bits[i] == threshold {
            kept_eq += 1;
            kept_eq <= need
        } else {
            true
        }
    });
    out
}

/// The `k`-th largest key among `items` (1-based: `k = 1` is the maximum).
/// Expected `O(n/B)` I/Os; none when the `k` heaviest items fit in the
/// buffer pool, since a key has no output scan to charge (module docs).
/// Panics if `k == 0` or `k > items.len()`.
pub fn kth_largest<T>(
    model: &CostModel,
    items: &[T],
    k: usize,
    key: &impl Fn(&T) -> u64,
) -> u64 {
    assert!(k >= 1 && k <= items.len(), "k out of range");
    let passes = Passes::for_selection::<T>(model, k, items.len());
    let mut keys: Vec<u64> = Vec::with_capacity(items.len());
    passes.scan::<T>(items.len());
    keys.extend(items.iter().map(key));
    kth_largest_bits(model.kernels(), passes, keys, k)
}

/// Quickselect over pre-extracted `u64` keys. The pivot sequence is a
/// deterministic LCG seeded by the *initial* length, drawing indices into
/// the surviving partition — which is why [`kernels::partition3`] must be
/// stable: every backend sees the same key order, draws the same pivots,
/// and charges the same `⌈m/B'⌉` scan per pass.
fn kth_largest_bits(backend: Backend, passes: Passes, mut keys: Vec<u64>, mut k: usize) -> u64 {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15 ^ (keys.len() as u64);
    loop {
        if keys.len() <= 32 {
            passes.scan::<u64>(keys.len());
            keys.sort_unstable_by(|a, b| b.cmp(a));
            return keys[k - 1];
        }
        // Median-of-three pivot: one extra in-memory comparison per pass
        // buys a much tighter pass-count distribution than a single random
        // pivot (the partition costs I/Os; the pivot draw does not).
        let draw = |state: &mut u64| {
            *state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            keys[(*state % keys.len() as u64) as usize]
        };
        let (a, b, c) = (draw(&mut state), draw(&mut state), draw(&mut state));
        let pivot = a.max(b).min(a.min(b).max(c)); // median of a, b, c
        passes.scan::<u64>(keys.len());
        let (greater, less, equal) = kernels::partition3(backend, &keys, pivot);
        if k <= greater.len() {
            keys = greater;
        } else if k <= greater.len() + equal {
            return pivot;
        } else {
            k -= greater.len() + equal;
            keys = less;
        }
    }
}

/// Generic quickselect twin of [`kth_largest_bits`] for arbitrary `Ord`
/// keys — the comparison-based fallback path. Identical pivot-draw
/// sequence and metered charges.
fn kth_largest_ord<K: Ord + Copy>(passes: Passes, mut keys: Vec<K>, mut k: usize) -> K {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15 ^ (keys.len() as u64);
    loop {
        if keys.len() <= 32 {
            passes.scan::<u64>(keys.len());
            keys.sort_unstable_by(|a, b| b.cmp(a));
            return keys[k - 1];
        }
        let draw = |state: &mut u64| {
            *state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            keys[(*state % keys.len() as u64) as usize]
        };
        let (a, b, c) = (draw(&mut state), draw(&mut state), draw(&mut state));
        let pivot = a.max(b).min(a.min(b).max(c));
        passes.scan::<u64>(keys.len());
        let mut greater = Vec::new();
        let mut less = Vec::new();
        let mut equal = 0usize;
        for &x in &keys {
            match x.cmp(&pivot) {
                std::cmp::Ordering::Greater => greater.push(x),
                std::cmp::Ordering::Less => less.push(x),
                std::cmp::Ordering::Equal => equal += 1,
            }
        }
        if k <= greater.len() {
            keys = greater;
        } else if k <= greater.len() + equal {
            return pivot;
        } else {
            k -= greater.len() + equal;
            keys = less;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EmConfig;
    use crate::kernels::avx2_available;
    use crate::Substrate;

    fn model() -> CostModel {
        CostModel::new(EmConfig::new(64))
    }

    /// An unpooled meter whose selections run on `backend`.
    fn model_on(backend: Backend) -> CostModel {
        CostModel::with_substrate(
            EmConfig::new(64),
            Substrate { kernels: backend, ..Substrate::current() },
        )
    }

    fn brute_top_k(items: &[u64], k: usize) -> Vec<u64> {
        let mut v = items.to_vec();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v.truncate(k);
        v
    }

    fn all_backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar, Backend::Unrolled];
        if avx2_available() {
            v.push(Backend::Avx2);
        }
        v
    }

    #[test]
    fn kth_largest_matches_sorting() {
        let m = model();
        let items: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 10_007).collect();
        let mut sorted = items.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for k in [1, 2, 10, 500, 999, 1000] {
            assert_eq!(kth_largest(&m, &items, k, &|&x| x), sorted[k - 1], "k={k}");
        }
    }

    #[test]
    fn top_k_matches_brute_force() {
        let m = model();
        let items: Vec<u64> = (0..777u64).map(|i| (i * 2_654_435_761) % 1_000_003).collect();
        for k in [0, 1, 5, 100, 776, 777, 800] {
            assert_eq!(
                top_k_by_weight(&m, &items, k, |&x| x),
                brute_top_k(&items, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn top_k_output_is_descending() {
        let m = model();
        let items: Vec<u64> = (0..100).map(|i| (i * 37) % 101).collect();
        let out = top_k_by_weight(&m, &items, 10, |&x| x);
        assert!(out.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn selection_cost_is_linear_in_n_over_b() {
        let m = model();
        let items: Vec<u64> = (0..100_000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        m.reset();
        kth_largest(&m, &items, 50_000, &|&x| x);
        let reads = m.report().reads;
        // Expected passes sum to ~2n scans; allow generous slack (6n/B).
        let n_over_b = 100_000u64.div_ceil(64);
        assert!(
            reads <= 6 * n_over_b,
            "reads {reads} not O(n/B) = {n_over_b}"
        );
    }

    #[test]
    fn k_zero_is_empty_and_kth_panics_on_zero() {
        let m = model();
        assert!(top_k_by_weight(&m, &[1u64, 2, 3], 0, |&x| x).is_empty());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kth_largest(&m, &[1u64], 0, &|&x| x))).is_err());
    }

    #[test]
    fn ties_are_handled() {
        // Not the paper's regime (weights are distinct) but the primitive
        // should still be exact under ties.
        let m = model();
        let items = vec![5u64, 5, 5, 3, 3, 1];
        assert_eq!(kth_largest(&m, &items, 2, &|&x| x), 5);
        assert_eq!(kth_largest(&m, &items, 4, &|&x| x), 3);
        assert_eq!(top_k_by_weight(&m, &items, 4, |&x| x), vec![5, 5, 5, 3]);
    }

    #[test]
    fn all_equal_keys_cost_linear_io_and_bounded_output_work() {
        // The duplicate-heavy worst case (satellite): before the bounded
        // gather, an all-equal input collected *all* n candidates and
        // sorted them. Now exactly k survive the filter on every backend.
        let n = 50_000usize;
        let items = vec![7u64; n];
        for b in all_backends() {
            let m = model_on(b);
            let out = top_k_by_weight(&m, &items, 25, |&x| x);
            assert_eq!(out, vec![7u64; 25], "backend={b:?}");
            let reads = m.report().reads;
            let n_over_b = (n as u64).div_ceil(64);
            // Extraction + one partition pass + filter + output: well under
            // 6 · n/B even with the ≤32-element base-case sort.
            assert!(
                reads <= 6 * n_over_b,
                "all-equal reads {reads} not O(n/B) = {n_over_b} (backend={b:?})"
            );
        }
    }

    #[test]
    fn duplicate_heavy_inputs_match_brute_force_on_all_backends() {
        // 90% of keys drawn from 4 distinct values.
        let items: Vec<u64> = (0..9973u64)
            .map(|i| if i % 10 == 0 { i } else { [3, 7, 7, 9][(i % 4) as usize] })
            .collect();
        let want: Vec<Vec<u64>> = [1, 17, 500, 5000]
            .iter()
            .map(|&k| brute_top_k(&items, k))
            .collect();
        for b in all_backends() {
            for (wi, &k) in [1usize, 17, 500, 5000].iter().enumerate() {
                let m = model_on(b);
                let out = top_k_by_weight(&m, &items, k, |&x| x);
                assert_eq!(out, want[wi], "k={k} backend={b:?}");
            }
        }
    }

    #[test]
    fn sorted_inputs_stay_linear() {
        // Already-sorted (ascending and descending) inputs: the random
        // pivot sequence keeps the expected pass count geometric, and the
        // result must match brute force exactly.
        let n = 20_000u64;
        let asc: Vec<u64> = (0..n).collect();
        let desc: Vec<u64> = (0..n).rev().collect();
        for items in [&asc, &desc] {
            for b in all_backends() {
                let m = model_on(b);
                let out = top_k_by_weight(&m, items, 100, |&x| x);
                assert_eq!(out, brute_top_k(items, 100), "backend={b:?}");
                let reads = m.report().reads;
                let n_over_b = n.div_ceil(64);
                assert!(
                    reads <= 8 * n_over_b,
                    "sorted-input reads {reads} not O(n/B) = {n_over_b} (backend={b:?})"
                );
            }
        }
    }

    #[test]
    fn backends_agree_bit_identically_on_answers_and_ios() {
        let items: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E37_79B9) % 2048).collect();
        for k in [1usize, 32, 1000, 4095] {
            let mut reference: Option<(Vec<u64>, u64, u64)> = None;
            for b in all_backends() {
                let m = model_on(b);
                let out = top_k_by_weight(&m, &items, k, |&x| x);
                let rep = m.report();
                let got = (out, rep.reads, rep.writes);
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(&got, want, "k={k} backend={b:?}"),
                }
            }
        }
    }

    #[test]
    fn typed_keys_dispatch_and_agree_with_ord_fallback() {
        let m = model();
        let xs: Vec<i64> = (0..2000i64).map(|i| (i * 37 % 501) - 250).collect();
        let kernel = top_k_by_key(&m, &xs, 40, |&x| x);
        let generic = top_k_by_ord(&m, &xs, 40, |&x| x);
        assert_eq!(kernel, generic);
        let fs: Vec<f64> = (0..2000)
            .map(|i| ((i * 37 % 501) as f64 - 250.0) * 1.5)
            .collect();
        let kernel = top_k_by_key(&m, &fs, 40, |&x| x);
        let mut brute = fs.clone();
        brute.sort_by(|a, b| b.partial_cmp(a).unwrap());
        brute.truncate(40);
        assert_eq!(kernel, brute);
        let us: Vec<u32> = (0..2000u32).map(|i| i.wrapping_mul(2_654_435_761) % 997).collect();
        let kernel = top_k_by_key(&m, &us, 40, |&x| x);
        let generic = top_k_by_ord(&m, &us, 40, |&x| x);
        assert_eq!(kernel, generic);
    }

    /// A fixed, scrambled input for the charging-rule tests.
    fn scrambled(n: u64) -> Vec<u64> {
        (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7).collect()
    }

    #[test]
    fn resident_selection_charges_only_its_output() {
        // 4 frames of 64 u64s: 10 survivors take one frame, even though
        // the 100 000 candidates span 1 563 blocks (the working set is
        // sized by k, not m).
        let m = CostModel::new(EmConfig::with_memory(64, 4));
        let items = scrambled(100_000);
        m.touch(0, 0);
        let before = m.report();
        let out = top_k_by_weight(&m, &items, 10, |&x| x);
        assert_eq!(out, brute_top_k(&items, 10));
        let spent = m.report().since(&before);
        assert_eq!(spent.reads, 1, "⌈|out|/B'⌉ = ⌈10/64⌉");
        assert_eq!((spent.pool_hits, spent.pool_misses), (0, 0));
        assert_eq!(kth_largest(&m, &items, 10, &|&x| x), out[9]);
        assert_eq!(m.report().since(&before).reads, 1, "a key has no output scan");
        // k ≥ m: the whole input is the working set.
        let few = scrambled(100);
        let before = m.report();
        assert_eq!(top_k_by_ord(&m, &few, 500, |&x| x), brute_top_k(&few, 500));
        assert_eq!(m.report().since(&before).reads, 2, "⌈100/64⌉");
    }

    #[test]
    fn unpooled_selection_charges_are_pinned() {
        // No pool, no memory: the external rule, whose charges on this
        // input are pinned (extraction, partition passes, filter, output).
        let m = model();
        let items = scrambled(10_000);
        assert_eq!(top_k_by_weight(&m, &items, 10, |&x| x), brute_top_k(&items, 10));
        assert_eq!(m.report().reads, UNPOOLED_READS);
        let m = model();
        assert_eq!(top_k_by_ord(&m, &items, 10, |&x| x), brute_top_k(&items, 10));
        assert_eq!(m.report().reads, UNPOOLED_READS);
    }

    /// Reads of `unpooled_selection_charges_are_pinned`'s selection.
    const UNPOOLED_READS: u64 = 533;

    #[test]
    fn oversized_working_set_keeps_external_charges() {
        // ⌈300/64⌉ = 5 blocks exceed the 4 frames: the pooled meter charges
        // exactly what the unpooled one does, and holds nothing.
        let items = scrambled(10_000);
        let pooled = CostModel::new(EmConfig::with_memory(64, 4));
        let bare = model();
        for k in [257, 300, 9_999] {
            let before = pooled.report();
            let out = top_k_by_weight(&pooled, &items, k, |&x| x);
            let spent = pooled.report().since(&before);
            bare.reset();
            assert_eq!(out, top_k_by_weight(&bare, &items, k, |&x| x), "k={k}");
            assert_eq!(spent.reads, bare.report().reads, "k={k}");
            assert_eq!((spent.pool_hits, spent.pool_misses), (0, 0), "k={k}");
        }
        assert_eq!(pooled.report().pool_misses, 0);
    }

    #[test]
    fn resident_selection_evicts_exactly_its_working_set() {
        // Fill all 8 frames with blocks 0..8 of one array (0 is LRU), then
        // select k = 130 from 1 000: ⌈130/64⌉ = 3 scratch frames evict
        // blocks 0, 1 and 2 and nothing else.
        let m = CostModel::new(EmConfig::with_memory(64, 8));
        for b in 0..8 {
            m.touch(0, b);
        }
        let items = scrambled(1_000);
        top_k_by_weight(&m, &items, 130, |&x| x);
        let before = m.report();
        for b in 3..8 {
            m.touch(0, b);
        }
        assert_eq!(m.report().since(&before).reads, 0, "blocks 3..8 stayed resident");
        m.touch(0, 0);
        assert_eq!(m.report().since(&before).reads, 1, "the old LRU block was evicted");
        for b in 1..3 {
            m.touch(0, b);
        }
        assert_eq!(m.report().since(&before).reads, 3, "so were the next two");
    }

    #[test]
    fn ord_fallback_handles_non_kernel_key_types() {
        let m = model();
        let items: Vec<(u8, u8)> = (0..300u16).map(|i| ((i % 17) as u8, (i % 11) as u8)).collect();
        let out = top_k_by_ord(&m, &items, 5, |t| *t);
        let mut brute = items.clone();
        brute.sort_by_key(|t| std::cmp::Reverse(*t));
        brute.truncate(5);
        assert_eq!(out, brute);
    }
}
