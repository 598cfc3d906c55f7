//! An external B-tree with fanout `Θ(B)`.
//!
//! Each node occupies one disk block; visiting a node charges one I/O to the
//! [`CostModel`]. Searches therefore cost `O(log_B n)` I/Os and a range
//! report of `t` items costs `O(log_B n + t/B)` — the textbook bounds the
//! paper's instantiations lean on (e.g. the weight B-tree of §5.5 and the
//! `Q_pri ≥ log_B n` precondition of Theorem 1).
//!
//! Supports bulk build from sorted data, point lookup, predecessor search,
//! in-order range reporting, insert, and delete with rebalancing.

use crate::cost::CostModel;
use crate::error::EmError;
use crate::fault::{self, Retrier};

/// The sentinel checksum of node `node` of tree `array_id` — the same
/// address-derived scheme as [`crate::BlockArray`] (see
/// `block::block_checksum`), recomputed on demand rather than stored:
/// corruption injected by the fault plan XORs a nonzero mask into the
/// value read back, so verification fails exactly on the nodes the plan
/// corrupted.
fn node_checksum(array_id: u64, node: u64) -> u64 {
    fault::mix(fault::mix(array_id ^ 0xB7EE_B7EE) ^ fault::mix(node))
}

#[derive(Debug)]
struct Node<K, V> {
    keys: Vec<K>,
    /// Leaf payloads (empty for internal nodes).
    vals: Vec<V>,
    /// Child node ids (empty for leaves). `children.len() == keys.len() + 1`
    /// for internal nodes, where `keys` are separators: subtree `i` holds
    /// keys `< keys[i]`, subtree `i+1` holds keys `≥ keys[i]`.
    children: Vec<usize>,
}

impl<K, V> Node<K, V> {
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An external-memory B-tree mapping `K` to `V`.
///
/// Keys must be unique (mirroring the paper's distinct-weight assumption).
#[derive(Debug)]
pub struct BTree<K, V> {
    nodes: Vec<Node<K, V>>,
    root: usize,
    len: usize,
    /// Max keys per leaf / max children per internal node.
    fanout: usize,
    array_id: u64,
    model: CostModel,
    free: Vec<usize>,
}

impl<K: Ord + Clone, V: Clone> BTree<K, V> {
    /// Minimum occupancy (keys in a leaf, children in an internal node).
    /// Quarter occupancy (rather than half) leaves slack for the ~2/3-full
    /// bulk build and its rebalanced tail groups.
    fn min_fill(&self) -> usize {
        (self.fanout / 4).max(2)
    }

    /// An empty tree on the given machine. The fanout is `⌊B / words(K,V)⌋`,
    /// clamped to at least 4 so the tree degenerates gracefully in RAM mode.
    pub fn new(model: &CostModel) -> Self {
        let fanout = model.config().items_per_block::<(K, V)>().max(4);
        let nodes = vec![Node {
            keys: Vec::new(),
            vals: Vec::new(),
            children: Vec::new(),
        }];
        let array_id = model.new_array_id();
        let tree = BTree {
            nodes,
            root: 0,
            len: 0,
            fanout,
            array_id,
            model: model.clone(),
            free: Vec::new(),
        };
        tree.mirror_node(0);
        tree
    }

    /// Bulk-build from key-sorted `(K, V)` pairs in `O(n/B)` write I/Os.
    ///
    /// Panics if the input is not strictly increasing in `K`.
    pub fn from_sorted(model: &CostModel, pairs: Vec<(K, V)>) -> Self {
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0, "BTree::from_sorted requires strictly increasing keys");
        }
        let mut tree = BTree::new(model);
        if pairs.is_empty() {
            return tree;
        }
        tree.len = pairs.len();
        tree.nodes.clear();

        // Build leaves with ~2/3 fill so that subsequent inserts don't split
        // immediately and deletes don't merge immediately.
        let target = (tree.fanout * 2 / 3).max(2);
        let mut level: Vec<(usize, K)> = Vec::new(); // (node id, min key)
        let mut it = pairs.into_iter().peekable();
        while it.peek().is_some() {
            let mut keys = Vec::with_capacity(target);
            let mut vals = Vec::with_capacity(target);
            for _ in 0..target {
                match it.next() {
                    Some((k, v)) => {
                        keys.push(k);
                        vals.push(v);
                    }
                    None => break,
                }
            }
            let min = keys[0].clone();
            let id = tree.alloc(Node {
                keys,
                vals,
                children: Vec::new(),
            });
            level.push((id, min));
        }
        // Avoid an undersized final leaf: merge it into its left sibling if
        // the union fits in one block, else split the union evenly (both
        // halves then exceed min_fill because the union exceeds the fanout).
        if level.len() >= 2 {
            let last = level.len() - 1;
            let need = tree.min_fill();
            if tree.nodes[level[last].0].keys.len() < need {
                let (lid, rid) = (level[last - 1].0, level[last].0);
                let total = tree.nodes[lid].keys.len() + tree.nodes[rid].keys.len();
                if total <= tree.fanout {
                    let mut keys = std::mem::take(&mut tree.nodes[rid].keys);
                    let mut vals = std::mem::take(&mut tree.nodes[rid].vals);
                    tree.nodes[lid].keys.append(&mut keys);
                    tree.nodes[lid].vals.append(&mut vals);
                    tree.free.push(rid);
                    level.pop();
                } else {
                    let keep = total / 2;
                    while tree.nodes[lid].keys.len() > keep {
                        // Invariant: keep = total/2 ≥ 1 (total > fanout ≥ 4
                        // here), so the left leaf never drains below one key
                        // and both pops see a non-empty, keys/vals-aligned
                        // leaf.
                        let k = tree.nodes[lid]
                            .keys
                            .pop()
                            .expect("left leaf keeps ≥ keep ≥ 1 keys during tail split");
                        let v = tree.nodes[lid]
                            .vals
                            .pop()
                            .expect("leaf vals stay aligned with keys");
                        tree.nodes[rid].keys.insert(0, k);
                        tree.nodes[rid].vals.insert(0, v);
                    }
                    level[last].1 = tree.nodes[rid].keys[0].clone();
                }
            }
        }

        // Build internal levels. Greedy chunks of `target` children, never
        // leaving a lone trailing child: if exactly one would remain we either
        // absorb it into the current group (group ≤ target+1 ≤ fanout) or, if
        // the remainder is small, take everything.
        while level.len() > 1 {
            let mut next: Vec<(usize, K)> = Vec::new();
            let mut chunk_start = 0;
            while chunk_start < level.len() {
                let remaining = level.len() - chunk_start;
                let min = tree.min_fill();
                // Never leave a remainder in (0, min): either absorb a small
                // tail into the final group (stays ≤ target+min ≤ fanout) or
                // split the remainder evenly (both halves ≥ min).
                let take = if remaining <= target + 1 {
                    remaining
                } else if remaining < target + min {
                    remaining / 2
                } else {
                    target
                };
                let group = &level[chunk_start..chunk_start + take];
                let children: Vec<usize> = group.iter().map(|&(id, _)| id).collect();
                let keys: Vec<K> = group[1..].iter().map(|(_, k)| k.clone()).collect();
                let min = group[0].1.clone();
                let id = tree.alloc(Node {
                    keys,
                    vals: Vec::new(),
                    children,
                });
                next.push((id, min));
                chunk_start += take;
            }
            level = next;
        }
        tree.root = level[0].0;
        tree.model.charge_writes(tree.nodes.len() as u64);
        tree
    }

    fn alloc(&mut self, node: Node<K, V>) -> usize {
        let id = if let Some(id) = self.free.pop() {
            self.nodes[id] = node;
            id
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.mirror_node(id);
        id
    }

    /// Mirror node `id`'s header image to the device (best-effort and
    /// unmetered, like [`crate::BlockArray`]'s block headers, and likewise
    /// skipped on a device that cannot damage a block — see
    /// [`CostModel::device_write`]). The sentinel is a pure function of the
    /// node's address, so in-place key mutation never invalidates the
    /// mirror — one write per allocation suffices.
    fn mirror_node(&self, id: usize) {
        self.model.device_write(self.array_id, id as u64, || {
            crate::block::encode_header(
                crate::block::KIND_HEADER,
                self.array_id,
                id as u64,
                0,
                self.fanout as u32,
                node_checksum(self.array_id, id as u64),
            )
        });
    }

    fn touch(&self, node: usize) {
        self.model.touch(self.array_id, node as u64);
    }

    /// Number of key-value pairs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Space in blocks (one block per live node).
    pub fn blocks(&self) -> u64 {
        (self.nodes.len() - self.free.len()) as u64
    }

    /// Tree height (number of levels), for diagnostics.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut u = self.root;
        while !self.nodes[u].is_leaf() {
            u = self.nodes[u].children[0];
            h += 1;
        }
        h
    }

    /// Point lookup, `O(log_B n)` I/Os.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut u = self.root;
        loop {
            self.touch(u);
            let node = &self.nodes[u];
            if node.is_leaf() {
                return match node.keys.binary_search(key) {
                    Ok(i) => Some(&node.vals[i]),
                    Err(_) => None,
                };
            }
            let i = node.keys.partition_point(|k| k <= key);
            u = node.children[i];
        }
    }

    /// Report all pairs with `lo ≤ key ≤ hi`, in key order.
    /// Costs `O(log_B n + t/B)` I/Os.
    pub fn range(&self, lo: &K, hi: &K, out: &mut Vec<(K, V)>) {
        self.range_while(lo, hi, |k, v| {
            out.push((k.clone(), v.clone()));
            true
        });
    }

    /// Like [`BTree::range`] but stops as soon as `f` returns `false`
    /// (cost-monitored reporting in the sense of §3.2).
    pub fn range_while(&self, lo: &K, hi: &K, mut f: impl FnMut(&K, &V) -> bool) {
        if self.len == 0 || lo > hi {
            return;
        }
        self.range_rec(self.root, lo, hi, &mut f);
    }

    fn range_rec(&self, u: usize, lo: &K, hi: &K, f: &mut impl FnMut(&K, &V) -> bool) -> bool {
        self.touch(u);
        let node = &self.nodes[u];
        if node.is_leaf() {
            let start = node.keys.partition_point(|k| k < lo);
            for i in start..node.keys.len() {
                if node.keys[i] > *hi {
                    return false;
                }
                if !f(&node.keys[i], &node.vals[i]) {
                    return false;
                }
            }
            return true;
        }
        let first = node.keys.partition_point(|k| k <= lo);
        let last = node.keys.partition_point(|k| k <= hi);
        for i in first..=last {
            if !self.range_rec(node.children[i], lo, hi, f) {
                return false;
            }
        }
        true
    }

    /// Insert; returns the previous value if the key was present.
    /// `O(log_B n)` I/Os (plus splits).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let root = self.root;
        match self.insert_rec(root, key, value) {
            InsertResult::Replaced(v) => Some(v),
            InsertResult::Done => {
                self.len += 1;
                None
            }
            InsertResult::Split(sep, right) => {
                let new_root = self.alloc(Node {
                    keys: vec![sep],
                    vals: Vec::new(),
                    children: vec![root, right],
                });
                self.model.charge_writes(1);
                self.root = new_root;
                self.len += 1;
                None
            }
        }
    }

    fn insert_rec(&mut self, u: usize, key: K, value: V) -> InsertResult<K, V> {
        self.touch(u);
        if self.nodes[u].is_leaf() {
            match self.nodes[u].keys.binary_search(&key) {
                Ok(i) => {
                    let old = std::mem::replace(&mut self.nodes[u].vals[i], value);
                    return InsertResult::Replaced(old);
                }
                Err(i) => {
                    self.nodes[u].keys.insert(i, key);
                    self.nodes[u].vals.insert(i, value);
                    self.model.charge_writes(1);
                }
            }
            if self.nodes[u].keys.len() > self.fanout {
                let mid = self.nodes[u].keys.len() / 2;
                let rkeys = self.nodes[u].keys.split_off(mid);
                let rvals = self.nodes[u].vals.split_off(mid);
                let sep = rkeys[0].clone();
                let right = self.alloc(Node {
                    keys: rkeys,
                    vals: rvals,
                    children: Vec::new(),
                });
                self.model.charge_writes(2);
                return InsertResult::Split(sep, right);
            }
            return InsertResult::Done;
        }
        let i = self.nodes[u].keys.partition_point(|k| k <= &key);
        let child = self.nodes[u].children[i];
        match self.insert_rec(child, key, value) {
            InsertResult::Split(sep, right) => {
                self.nodes[u].keys.insert(i, sep);
                self.nodes[u].children.insert(i + 1, right);
                self.model.charge_writes(1);
                if self.nodes[u].children.len() > self.fanout {
                    let midc = self.nodes[u].children.len() / 2;
                    let rchildren = self.nodes[u].children.split_off(midc);
                    let rkeys = self.nodes[u].keys.split_off(midc);
                    // keys now has midc-1 separators; the last one moves up.
                    let sep = self.nodes[u].keys.pop().expect("separator");
                    let right = self.alloc(Node {
                        keys: rkeys,
                        vals: Vec::new(),
                        children: rchildren,
                    });
                    self.model.charge_writes(2);
                    return InsertResult::Split(sep, right);
                }
                InsertResult::Done
            }
            other => other,
        }
    }

    /// Delete; returns the removed value. `O(log_B n)` I/Os (plus merges).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let root = self.root;
        let removed = self.remove_rec(root, key);
        if removed.is_some() {
            self.len -= 1;
            // Shrink the root if it became a trivial internal node.
            if !self.nodes[self.root].is_leaf() && self.nodes[self.root].children.len() == 1 {
                let only = self.nodes[self.root].children[0];
                self.free.push(self.root);
                self.root = only;
            }
        }
        removed
    }

    fn remove_rec(&mut self, u: usize, key: &K) -> Option<V> {
        self.touch(u);
        if self.nodes[u].is_leaf() {
            return match self.nodes[u].keys.binary_search(key) {
                Ok(i) => {
                    self.nodes[u].keys.remove(i);
                    self.model.charge_writes(1);
                    Some(self.nodes[u].vals.remove(i))
                }
                Err(_) => None,
            };
        }
        let i = self.nodes[u].keys.partition_point(|k| k <= key);
        let child = self.nodes[u].children[i];
        let removed = self.remove_rec(child, key)?;
        self.rebalance_child(u, i);
        Some(removed)
    }

    /// Fix up child `i` of internal node `u` if it fell below minimum fill.
    fn rebalance_child(&mut self, u: usize, i: usize) {
        let child = self.nodes[u].children[i];
        let min = self.min_fill();
        let size = if self.nodes[child].is_leaf() {
            self.nodes[child].keys.len()
        } else {
            self.nodes[child].children.len()
        };
        if size >= min {
            return;
        }
        // Try borrowing from a sibling, else merge.
        if i > 0 {
            let left = self.nodes[u].children[i - 1];
            self.touch(left);
            let lsize = if self.nodes[left].is_leaf() {
                self.nodes[left].keys.len()
            } else {
                self.nodes[left].children.len()
            };
            if lsize > min {
                self.borrow_from_left(u, i);
                return;
            }
            self.merge_children(u, i - 1);
            return;
        }
        let right = self.nodes[u].children[i + 1];
        self.touch(right);
        let rsize = if self.nodes[right].is_leaf() {
            self.nodes[right].keys.len()
        } else {
            self.nodes[right].children.len()
        };
        if rsize > min {
            self.borrow_from_right(u, i);
            return;
        }
        self.merge_children(u, i);
    }

    fn borrow_from_left(&mut self, u: usize, i: usize) {
        let left = self.nodes[u].children[i - 1];
        let child = self.nodes[u].children[i];
        self.model.charge_writes(3);
        if self.nodes[child].is_leaf() {
            // Invariant: rebalance_child only borrows when the left sibling
            // holds > min_fill ≥ 2 keys, so the donor leaf cannot be empty.
            let k = self.nodes[left]
                .keys
                .pop()
                .expect("donor leaf has > min_fill keys");
            let v = self.nodes[left]
                .vals
                .pop()
                .expect("leaf vals stay aligned with keys");
            self.nodes[u].keys[i - 1] = k.clone();
            self.nodes[child].keys.insert(0, k);
            self.nodes[child].vals.insert(0, v);
        } else {
            // Invariant: an internal donor with > min_fill ≥ 2 children has
            // ≥ 3 children and children.len()-1 ≥ 2 separator keys.
            let c = self.nodes[left]
                .children
                .pop()
                .expect("donor internal node has > min_fill children");
            let k = self.nodes[left]
                .keys
                .pop()
                .expect("internal node keeps children.len()-1 separators");
            let sep = std::mem::replace(&mut self.nodes[u].keys[i - 1], k);
            self.nodes[child].keys.insert(0, sep);
            self.nodes[child].children.insert(0, c);
        }
    }

    fn borrow_from_right(&mut self, u: usize, i: usize) {
        let right = self.nodes[u].children[i + 1];
        let child = self.nodes[u].children[i];
        self.model.charge_writes(3);
        if self.nodes[child].is_leaf() {
            let k = self.nodes[right].keys.remove(0);
            let v = self.nodes[right].vals.remove(0);
            self.nodes[child].keys.push(k);
            self.nodes[child].vals.push(v);
            self.nodes[u].keys[i] = self.nodes[right].keys[0].clone();
        } else {
            let c = self.nodes[right].children.remove(0);
            let k = self.nodes[right].keys.remove(0);
            let sep = std::mem::replace(&mut self.nodes[u].keys[i], k);
            self.nodes[child].keys.push(sep);
            self.nodes[child].children.push(c);
        }
    }

    /// Merge children `i` and `i+1` of node `u`.
    fn merge_children(&mut self, u: usize, i: usize) {
        let left = self.nodes[u].children[i];
        let right = self.nodes[u].children[i + 1];
        self.model.charge_writes(2);
        let sep = self.nodes[u].keys.remove(i);
        self.nodes[u].children.remove(i + 1);
        let mut rnode = std::mem::replace(
            &mut self.nodes[right],
            Node {
                keys: Vec::new(),
                vals: Vec::new(),
                children: Vec::new(),
            },
        );
        self.free.push(right);
        if self.nodes[left].is_leaf() {
            self.nodes[left].keys.append(&mut rnode.keys);
            self.nodes[left].vals.append(&mut rnode.vals);
        } else {
            self.nodes[left].keys.push(sep);
            self.nodes[left].keys.append(&mut rnode.keys);
            self.nodes[left].children.append(&mut rnode.children);
        }
    }

    /// Verify node `node`'s checksum against what the device reads back.
    /// A mismatch (silent corruption injected by the meter's fault plan) is
    /// recorded on the meter and surfaced as [`EmError::Corrupt`].
    pub fn verify(&self, node: u64) -> Result<(), EmError> {
        assert!(
            (node as usize) < self.nodes.len(),
            "node {node} out of range"
        );
        let stored = node_checksum(self.array_id, node);
        let plan = self.model.fault_plan();
        let read_back = if plan.is_corrupted(self.array_id, node) {
            stored ^ plan.corruption_mask(self.array_id, node)
        } else {
            stored
        };
        if read_back != stored {
            self.model.record_fault();
            return Err(EmError::Corrupt {
                array_id: self.array_id,
                block: node,
            });
        }
        Ok(())
    }

    /// Read one node fallibly: retry transient faults under `retrier`, then
    /// verify the node checksum.
    fn try_touch_node(&self, node: usize, retrier: &Retrier) -> Result<(), EmError> {
        retrier.run(|attempt| self.model.try_fetch(self.array_id, node as u64, attempt))?;
        self.verify(node as u64)
    }

    /// Fallible [`BTree::get`]: point lookup under the meter's fault plan,
    /// retrying transient faults with `retrier`. A root-to-leaf path that
    /// stays unreadable after retries surfaces as `Err`.
    pub fn try_search(&self, key: &K, retrier: &Retrier) -> Result<Option<&V>, EmError> {
        let mut u = self.root;
        loop {
            self.try_touch_node(u, retrier)?;
            let node = &self.nodes[u];
            if node.is_leaf() {
                return Ok(match node.keys.binary_search(key) {
                    Ok(i) => Some(&node.vals[i]),
                    Err(_) => None,
                });
            }
            let i = node.keys.partition_point(|k| k <= key);
            u = node.children[i];
        }
    }

    /// Fallible [`BTree::range_while`]: in-order reporting that stops at
    /// the first subtree whose root stays unreadable after retries. Pairs
    /// already delivered to `f` remain valid — callers can degrade to the
    /// partial prefix.
    pub fn try_range_while(
        &self,
        lo: &K,
        hi: &K,
        retrier: &Retrier,
        mut f: impl FnMut(&K, &V) -> bool,
    ) -> Result<(), EmError> {
        if self.len == 0 || lo > hi {
            return Ok(());
        }
        self.try_range_rec(self.root, lo, hi, retrier, &mut f)
            .map(|_| ())
    }

    /// `Ok(true)` to keep reporting, `Ok(false)` when `f` stopped the scan.
    fn try_range_rec(
        &self,
        u: usize,
        lo: &K,
        hi: &K,
        retrier: &Retrier,
        f: &mut impl FnMut(&K, &V) -> bool,
    ) -> Result<bool, EmError> {
        self.try_touch_node(u, retrier)?;
        let node = &self.nodes[u];
        if node.is_leaf() {
            let start = node.keys.partition_point(|k| k < lo);
            for i in start..node.keys.len() {
                if node.keys[i] > *hi || !f(&node.keys[i], &node.vals[i]) {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        let first = node.keys.partition_point(|k| k <= lo);
        let last = node.keys.partition_point(|k| k <= hi);
        for i in first..=last {
            if !self.try_range_rec(node.children[i], lo, hi, retrier, f)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Check structural invariants (fill factors, key ordering, child counts).
    /// Used by tests; O(n), charges nothing.
    pub fn check_invariants(&self) {
        let mut count = 0;
        self.check_rec(self.root, None, None, true, &mut count);
        assert_eq!(count, self.len, "len mismatch");
    }

    fn check_rec(
        &self,
        u: usize,
        lo: Option<&K>,
        hi: Option<&K>,
        is_root: bool,
        count: &mut usize,
    ) {
        let node = &self.nodes[u];
        for w in node.keys.windows(2) {
            assert!(w[0] < w[1], "keys out of order");
        }
        if let Some(lo) = lo {
            if let Some(first) = node.keys.first() {
                assert!(first >= lo, "key below subtree lower bound");
            }
        }
        if let Some(hi) = hi {
            if let Some(last) = node.keys.last() {
                assert!(last < hi, "key at/above subtree upper bound");
            }
        }
        if node.is_leaf() {
            assert_eq!(node.keys.len(), node.vals.len());
            if !is_root {
                assert!(node.keys.len() >= self.min_fill().min(1), "underfull leaf");
            }
            assert!(node.keys.len() <= self.fanout + 1, "overfull leaf");
            *count += node.keys.len();
        } else {
            assert_eq!(node.children.len(), node.keys.len() + 1);
            if is_root {
                assert!(node.children.len() >= 2, "trivial root");
            } else {
                assert!(node.children.len() >= self.min_fill(), "underfull internal");
            }
            assert!(node.children.len() <= self.fanout + 1, "overfull internal");
            for (i, &c) in node.children.iter().enumerate() {
                let clo = if i == 0 { lo } else { Some(&node.keys[i - 1]) };
                let chi = if i == node.keys.len() {
                    hi
                } else {
                    Some(&node.keys[i])
                };
                self.check_rec(c, clo, chi, false, count);
            }
        }
    }
}

enum InsertResult<K, V> {
    Done,
    Replaced(V),
    Split(K, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EmConfig;

    fn model(b: usize) -> CostModel {
        CostModel::new(EmConfig::new(b))
    }

    #[test]
    fn bulk_build_and_get() {
        let m = model(64);
        let pairs: Vec<(u64, u64)> = (0..10_000).map(|i| (i * 2, i)).collect();
        let t = BTree::from_sorted(&m, pairs);
        t.check_invariants();
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.get(&0), Some(&0));
        assert_eq!(t.get(&19_998), Some(&9_999));
        assert_eq!(t.get(&3), None);
    }

    #[test]
    fn search_cost_is_logarithmic_in_b() {
        let m = model(64);
        let pairs: Vec<(u64, u64)> = (0..100_000u64).map(|i| (i, i)).collect();
        let t = BTree::from_sorted(&m, pairs);
        m.reset();
        t.get(&54_321);
        // fanout ≈ 32 for (u64,u64) at B=64 words; height should be ≤ 4.
        assert!(m.report().reads <= 5, "reads = {}", m.report().reads);
    }

    #[test]
    fn range_reports_in_order() {
        let m = model(64);
        let pairs: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i * 3, i)).collect();
        let t = BTree::from_sorted(&m, pairs);
        let mut out = Vec::new();
        t.range(&100, &200, &mut out);
        let expected: Vec<(u64, u64)> = (0..5_000u64)
            .map(|i| (i * 3, i))
            .filter(|&(k, _)| (100..=200).contains(&k))
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn range_while_stops_early() {
        let m = model(64);
        let pairs: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i, i)).collect();
        let t = BTree::from_sorted(&m, pairs);
        let mut seen = 0;
        t.range_while(&0, &4_999, |_, _| {
            seen += 1;
            seen < 10
        });
        assert_eq!(seen, 10);
    }

    #[test]
    fn insert_then_get_everything() {
        let m = model(64);
        let mut t: BTree<u64, u64> = BTree::new(&m);
        // Insert in a scrambled order.
        let mut keys: Vec<u64> = (0..3_000).collect();
        let mut x = 9u64;
        for i in (1..keys.len()).rev() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            keys.swap(i, (x % (i as u64 + 1)) as usize);
        }
        for &k in &keys {
            assert_eq!(t.insert(k, k * 10), None);
        }
        t.check_invariants();
        assert_eq!(t.len(), 3_000);
        for k in 0..3_000u64 {
            assert_eq!(t.get(&k), Some(&(k * 10)));
        }
        // Replacement returns old value.
        assert_eq!(t.insert(5, 999), Some(50));
        assert_eq!(t.len(), 3_000);
    }

    #[test]
    fn delete_everything_in_random_order() {
        let m = model(64);
        let pairs: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i, i)).collect();
        let mut t = BTree::from_sorted(&m, pairs);
        let mut keys: Vec<u64> = (0..2_000).collect();
        let mut x = 77u64;
        for i in (1..keys.len()).rev() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            keys.swap(i, (x % (i as u64 + 1)) as usize);
        }
        for (step, &k) in keys.iter().enumerate() {
            assert_eq!(t.remove(&k), Some(k), "step {step}");
            if step % 97 == 0 {
                t.check_invariants();
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.remove(&5), None);
    }

    #[test]
    fn mixed_workload_matches_std_btreemap() {
        use std::collections::BTreeMap;
        let m = model(16);
        let mut t: BTree<u32, u32> = BTree::new(&m);
        let mut reference = BTreeMap::new();
        let mut x = 42u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let key = ((x >> 32) % 500) as u32;
            match x % 3 {
                0 => {
                    assert_eq!(t.insert(key, key), reference.insert(key, key));
                }
                1 => {
                    assert_eq!(t.remove(&key), reference.remove(&key));
                }
                _ => {
                    assert_eq!(t.get(&key), reference.get(&key));
                }
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), reference.len());
        let mut out = Vec::new();
        t.range(&0, &500, &mut out);
        let expected: Vec<(u32, u32)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_tree_operations() {
        let m = model(64);
        let mut t: BTree<u64, u64> = BTree::new(&m);
        assert_eq!(t.get(&1), None);
        assert_eq!(t.remove(&1), None);
        let mut out = Vec::new();
        t.range(&0, &100, &mut out);
        assert!(out.is_empty());
        t.check_invariants();
    }

    #[test]
    fn from_sorted_rejects_duplicates() {
        let m = model(64);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BTree::from_sorted(&m, vec![(1u64, 1u64), (1, 2)]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn single_item_tree() {
        let m = model(64);
        let t = BTree::from_sorted(&m, vec![(7u64, 70u64)]);
        t.check_invariants();
        assert_eq!(t.get(&7), Some(&70));
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn randomized_interleaving_at_minimum_fanout() {
        // Fanout is clamped to its minimum of 4 (B=1 word), so every insert
        // splits early and every delete immediately exercises the
        // borrow-from-left / borrow-from-right / merge paths the documented
        // expects guard. Checked against std::BTreeMap at every step.
        use std::collections::BTreeMap;
        let m = model(1);
        let mut t: BTree<u32, u32> = BTree::new(&m);
        assert_eq!(t.fanout, 4, "B=1 word clamps fanout to the minimum");
        let mut reference = BTreeMap::new();
        let mut x = 0xDE_C0DEu64;
        for round in 0..50_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let key = ((x >> 33) % 120) as u32;
            // Bias phases: mostly inserts early, mostly deletes late, so the
            // tree repeatedly grows through splits and drains through
            // borrows/merges all the way back to a root leaf.
            let grow = (round / 5_000) % 2 == 0;
            let op = x % 10;
            if (grow && op < 6) || (!grow && op < 2) {
                assert_eq!(t.insert(key, key ^ 1), reference.insert(key, key ^ 1));
            } else if op < 8 {
                assert_eq!(t.remove(&key), reference.remove(&key), "round {round}");
            } else {
                assert_eq!(t.get(&key), reference.get(&key));
            }
            if round % 1_000 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), reference.len());
        // Drain completely: the deepest rebalance cascades happen here.
        let keys: Vec<u32> = reference.keys().copied().collect();
        for k in keys {
            assert_eq!(t.remove(&k), reference.remove(&k));
            t.check_invariants();
        }
        assert!(t.is_empty());
    }

    use crate::fault::{FaultPlan, Retrier};

    #[test]
    fn try_search_matches_get_under_inert_plan() {
        let m = CostModel::with_faults(EmConfig::new(64), FaultPlan::none());
        let pairs: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i * 2, i)).collect();
        let t = BTree::from_sorted(&m, pairs);
        let r = Retrier::default();
        for probe in [0u64, 2, 3, 4_444, 9_998, 10_000] {
            assert_eq!(t.try_search(&probe, &r).unwrap(), t.get(&probe));
        }
        assert_eq!(m.report().faults, 0);
    }

    #[test]
    fn try_search_survives_transient_faults() {
        let m = CostModel::with_faults(
            EmConfig::new(64),
            FaultPlan::new(13).with_transient(0.4),
        );
        let pairs: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i, i)).collect();
        let t = BTree::from_sorted(&m, pairs);
        m.reset();
        let r = Retrier::new(20); // residual failure ~ 0.4^21 per node
        for probe in (0..5_000u64).step_by(97) {
            assert_eq!(t.try_search(&probe, &r).unwrap(), Some(&probe));
        }
        let rep = m.report();
        assert!(rep.faults > 0, "rate 0.4 across many probes must fault");
        assert!(rep.reads > rep.faults, "successful reads outnumber none");
    }

    #[test]
    fn try_search_reports_bad_nodes() {
        // Every node permanently unreadable: the very first root touch
        // fails with a non-transient error, never a panic or wrong answer.
        let m = CostModel::with_faults(
            EmConfig::new(64),
            FaultPlan::new(2).with_permanent(1.0),
        );
        let pairs: Vec<(u64, u64)> = (0..1_000u64).map(|i| (i, i)).collect();
        let t = BTree::from_sorted(&m, pairs);
        let e = t.try_search(&5, &Retrier::new(3)).unwrap_err();
        assert!(matches!(e, EmError::BadBlock { .. }));
    }

    #[test]
    fn try_range_while_degrades_to_prefix_on_corruption() {
        // Corrupt everything: the root itself is detected as corrupt, so
        // the report delivers nothing but errors out cleanly; under an
        // inert plan the same call reproduces range_while exactly.
        let m = CostModel::with_faults(EmConfig::new(64), FaultPlan::new(4).with_corrupt(1.0));
        let pairs: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i, i)).collect();
        let t = BTree::from_sorted(&m, pairs);
        let r = Retrier::default();
        let mut seen = Vec::new();
        let e = t
            .try_range_while(&0, &1_999, &r, |&k, _| {
                seen.push(k);
                true
            })
            .unwrap_err();
        assert!(matches!(e, EmError::Corrupt { .. }));
        m.set_fault_plan(FaultPlan::none());
        let mut clean = Vec::new();
        t.try_range_while(&100, &200, &r, |&k, _| {
            clean.push(k);
            true
        })
        .unwrap();
        assert_eq!(clean, (100..=200).collect::<Vec<u64>>());
    }
}
