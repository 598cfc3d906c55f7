//! External merge sort.
//!
//! Classic Aggarwal–Vitter sorting: form runs of `M` items in memory, then
//! merge `M/B`-way until one run remains, charging `O((n/B)·log_{M/B}(n/B))`
//! I/Os. Build-time code throughout the workspace uses this to account for
//! preprocessing passes honestly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cost::CostModel;

/// Sort `items` ascending by `key`, charging external-merge-sort I/Os.
///
/// The in-memory capacity is taken as `mem_blocks · items_per_block`, with a
/// floor of `4` blocks so the simulation still works for cache-less configs.
pub fn external_sort_by<T, K: Ord>(model: &CostModel, items: &mut Vec<T>, key: impl Fn(&T) -> K) {
    let per_block = model.config().items_per_block::<T>();
    let mem_blocks = model.config().mem_blocks.max(4);
    let run_len = (mem_blocks * per_block).max(1);
    let fan_in = mem_blocks.saturating_sub(1).max(2);

    let n = items.len();
    if n <= 1 {
        return;
    }

    // Run formation: one read + one write pass.
    model.charge_scan::<T>(n);
    model.charge_writes(n.div_ceil(per_block) as u64);
    let mut runs: Vec<Vec<T>> = Vec::new();
    {
        let mut rest = std::mem::take(items);
        while !rest.is_empty() {
            let tail = rest.split_off(rest.len().min(run_len));
            let mut run = rest;
            run.sort_by_key(|a| key(a));
            runs.push(run);
            rest = tail;
        }
    }

    // Multiway merge passes.
    while runs.len() > 1 {
        let mut next: Vec<Vec<T>> = Vec::new();
        for group in runs.chunks_mut(fan_in) {
            let total: usize = group.iter().map(Vec::len).sum();
            model.charge_scan::<T>(total);
            model.charge_writes(total.div_ceil(per_block) as u64);
            let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::new();
            let mut iters: Vec<std::vec::IntoIter<T>> = group
                .iter_mut()
                .map(|r| std::mem::take(r).into_iter())
                .collect();
            let mut heads: Vec<Option<T>> = Vec::with_capacity(iters.len());
            for (i, it) in iters.iter_mut().enumerate() {
                let head = it.next();
                if let Some(h) = &head {
                    heap.push(Reverse((key(h), i)));
                }
                heads.push(head);
            }
            let mut merged = Vec::with_capacity(total);
            while let Some(Reverse((_, i))) = heap.pop() {
                let item = heads[i].take().expect("head present");
                merged.push(item);
                if let Some(nxt) = iters[i].next() {
                    heap.push(Reverse((key(&nxt), i)));
                    heads[i] = Some(nxt);
                }
            }
            next.push(merged);
        }
        runs = next;
    }
    *items = runs.pop().unwrap_or_default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, EmConfig};

    #[test]
    fn sorts_correctly() {
        let m = CostModel::new(EmConfig::with_memory(64, 8));
        let mut v: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        external_sort_by(&m, &mut v, |&x| x);
        assert_eq!(v, expected);
    }

    #[test]
    fn stable_under_custom_key() {
        let m = CostModel::new(EmConfig::with_memory(64, 8));
        let mut v: Vec<(u64, u64)> = (0..1000).map(|i| (1000 - i, i)).collect();
        external_sort_by(&m, &mut v, |&(a, _)| a);
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn empty_and_single() {
        let m = CostModel::ram();
        let mut v: Vec<u64> = vec![];
        external_sort_by(&m, &mut v, |&x| x);
        assert!(v.is_empty());
        let mut v = vec![42u64];
        external_sort_by(&m, &mut v, |&x| x);
        assert_eq!(v, vec![42]);
    }

    #[test]
    fn io_cost_has_merge_sort_shape() {
        // With M/B = 8 frames and n = 64·8·8 items of u64, there should be
        // roughly log_{7}(n/run) + 1 ≈ 2 passes; cost well under 10·n/B.
        let b = 64;
        let m = CostModel::new(EmConfig::with_memory(b, 8));
        let n = b * 8 * 8 * 4;
        let mut v: Vec<u64> = (0..n as u64).rev().collect();
        m.reset();
        external_sort_by(&m, &mut v, |&x| x);
        let total = m.report().total();
        let n_over_b = (n as u64).div_ceil(b as u64);
        assert!(total <= 10 * n_over_b, "total {total} vs n/B {n_over_b}");
        assert!(
            total >= 2 * n_over_b,
            "sorting can't be cheaper than a read+write pass"
        );
    }
}
