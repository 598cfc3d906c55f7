//! # structures — classic index substrates used by the concrete problems
//!
//! The paper's instantiations (§5) assemble well-known building blocks
//! around the reductions. This crate implements those blocks, instrumented
//! against the [`emsim`] cost model:
//!
//! * [`PrioritySearchTree`] — static PST answering 3-sided queries
//!   (`x ∈ [x₁, x₂]`, `w ≥ τ`) in `O(log₂(n/B) + t/B)` I/Os: one block
//!   per node, holding its subtree's heaviest elements, and each child's
//!   key bounds and top weight in its parent's block, so pruned children
//!   cost nothing.
//! * [`segtree`] — a generic segment tree over intervals with a caller
//!   -supplied per-canonical-node summary structure; instantiating the
//!   summary as a weight-descending block run yields the `O(n log n)`-space,
//!   `O(log n + t)`-query prioritized interval-stabbing structure.
//! * [`KdTree`] — a kd-tree over `ℝ^D` with bounding-box pruning, subtree
//!   max-weight augmentation, and `O(n^{1−1/D} + t)` halfspace/dominance
//!   reporting — our stand-in for the optimal structures of Afshani–Chan
//!   and Agarwal et al. (DESIGN.md substitutions 3 and 5).
//! * [`RangeTree2D`] — a classic 2D range tree with PST secondaries:
//!   `O(log² n + t)` prioritized box reporting in `O(n log n)` space, the
//!   polylog alternative to the kd substrate (ablated in experiment E19).
//! * [`weight_tree`] — the `CanonicalWeightTree` adapter of §5.4/§5.5: a
//!   weight-ordered tree (binary in RAM, fanout `f` in EM) with an
//!   *unweighted* reporting structure per node, turning any reporting
//!   structure into a prioritized one at an `O(log)`/`O(f)` factor.

pub mod kdtree;
pub mod pst;
pub mod rangetree;
pub mod segtree;
pub mod weight_tree;

pub use kdtree::KdTree;
pub use pst::PrioritySearchTree;
pub use rangetree::RangeTree2D;
pub use weight_tree::{CanonicalWeightTree, ReportingBuilder, ReportingIndex};
