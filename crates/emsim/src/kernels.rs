//! Branchless, cache-conscious hot-path kernels for selection and scanning.
//!
//! The E21 trace layer showed the cycles of every RAM-model experiment
//! (Theorems 3–6 with small `B`) going to the `select`/`scan`/`probe`
//! phases, all of which ran scalar, fully generic code. This module closes
//! that gap with two specializations over `u64` keys, the paper's weight
//! domain:
//!
//! * `partition3` — the quickselect partitioning pass: a stable,
//!   branch-free two-pointer loop (unconditional store, conditional
//!   pointer advance) into pre-sized buffers. Stability matters: the
//!   pivot sequence indexes into the live key vector, so preserving
//!   relative order keeps the pivot draws — and therefore the metered
//!   pass count — bit-identical to the scalar path.
//! * [`filter_ge_indices`] — block scan-for-threshold, a branch-free
//!   gather (unconditional index store, conditional advance).
//!
//! `partition3` is crate-private: selection is its only caller, so code
//! outside emsim reaches it only through [`select`](crate::select)'s
//! quickselect plan.
//!
//! ```compile_fail,E0603
//! use emsim::kernels::{partition3, Backend};
//!
//! let _ = partition3(Backend::Scalar, &[3, 1, 2], 2);
//! ```
//!
//! The same call shape through the public [`filter_ge_indices`]
//! compiles, so only `partition3`'s visibility makes the one above fail:
//!
//! ```
//! use emsim::kernels::{filter_ge_indices, Backend};
//!
//! let _ = filter_ge_indices(Backend::Scalar, &[3, 1, 2], 2);
//! ```
//!
//! Each kernel takes the [`Backend`] to run on; selection passes its
//! meter's ([`CostModel::kernels`](crate::CostModel::kernels)), which comes
//! from the meter's [`Substrate`](crate::Substrate) (`EMSIM_KERNELS` for the
//! process default). Tests and benchmarks compare backends in-process by
//! building meters on substrates that differ only in `kernels`.
//!
//! Every kernel returns *bit-identical* results on every backend — same
//! outputs, same stability, same multiset splits — which is what lets the
//! golden I/O baselines pin one number for all dispatch paths.

/// Which implementation family the kernels run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Branch-free scalar loops (unconditional store, conditional
    /// advance) — the default on every host.
    Unrolled,
    /// The original one-element-at-a-time code, kept as the reference
    /// implementation and forced via `EMSIM_KERNELS=scalar`.
    Scalar,
}

impl Backend {
    /// Stable lowercase name (matches the `EMSIM_KERNELS` values).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Unrolled => "unrolled",
            Backend::Scalar => "scalar",
        }
    }
}

/// The kernel backend of the process-default [`Substrate`](crate::Substrate)
/// (see [`Substrate::from_env`](crate::Substrate::from_env)).
pub fn active_backend() -> Backend {
    crate::Substrate::current().kernels
}

// ---------------------------------------------------------------------------
// partition3: the quickselect partitioning pass.
// ---------------------------------------------------------------------------

/// Three-way partition of `keys` around `pivot`: `(greater, less, equal)`
/// where `greater` holds every key `> pivot` and `less` every key
/// `< pivot`, both **in input order** (stable), and `equal` is the count of
/// keys `== pivot`. Stability is load-bearing: the quickselect pivot
/// sequence indexes into the surviving partition, so a reordering backend
/// would change the pivot draws and the metered pass count.
pub(crate) fn partition3(
    backend: Backend,
    keys: &[u64],
    pivot: u64,
) -> (Vec<u64>, Vec<u64>, usize) {
    match backend {
        Backend::Scalar => partition3_scalar(keys, pivot),
        Backend::Unrolled => partition3_branchfree(keys, pivot),
    }
}

fn partition3_scalar(keys: &[u64], pivot: u64) -> (Vec<u64>, Vec<u64>, usize) {
    let mut greater = Vec::new();
    let mut less = Vec::new();
    let mut equal = 0usize;
    for &x in keys {
        match x.cmp(&pivot) {
            std::cmp::Ordering::Greater => greater.push(x),
            std::cmp::Ordering::Less => less.push(x),
            std::cmp::Ordering::Equal => equal += 1,
        }
    }
    (greater, less, equal)
}

fn partition3_branchfree(keys: &[u64], pivot: u64) -> (Vec<u64>, Vec<u64>, usize) {
    // Unconditional store + conditional pointer advance: no data-dependent
    // branches in the loop body, so random key streams cost no
    // mispredictions. Both buffers are pre-sized to `n` and truncated.
    let n = keys.len();
    let mut greater = vec![0u64; n];
    let mut less = vec![0u64; n];
    let (mut gi, mut li) = (0usize, 0usize);
    for &x in keys {
        greater[gi] = x;
        gi += (x > pivot) as usize;
        less[li] = x;
        li += (x < pivot) as usize;
    }
    greater.truncate(gi);
    less.truncate(li);
    (greater, less, n - gi - li)
}

// ---------------------------------------------------------------------------
// filter_ge_indices: block scan-for-threshold, gathering survivors.
// ---------------------------------------------------------------------------

/// Indices (in input order) of every key `>= threshold`.
pub fn filter_ge_indices(backend: Backend, keys: &[u64], threshold: u64) -> Vec<usize> {
    match backend {
        Backend::Unrolled => filter_ge_unrolled(keys, threshold),
        Backend::Scalar => keys
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x >= threshold)
            .map(|(i, _)| i)
            .collect(),
    }
}

fn filter_ge_unrolled(keys: &[u64], threshold: u64) -> Vec<usize> {
    // Branch-free gather: unconditional index store, conditional advance.
    let mut out = vec![0usize; keys.len()];
    let mut oi = 0usize;
    for (i, &x) in keys.iter().enumerate() {
        out[oi] = i;
        oi += (x >= threshold) as usize;
    }
    out.truncate(oi);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Unrolled];

    fn keys(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 977)
            .collect()
    }

    #[test]
    fn backends_agree_on_partition3_and_are_stable() {
        for n in [0u64, 1, 7, 100, 1003] {
            let ks = keys(n);
            let pivot = 488;
            let want = partition3_scalar(&ks, pivot);
            for b in BACKENDS {
                let got = partition3(b, &ks, pivot);
                assert_eq!(got, want, "n={n} backend={b:?}");
            }
            // Stability: survivors appear in input order.
            let (g, l, e) = want;
            assert_eq!(g.len() + l.len() + e, ks.len());
            let expect_g: Vec<u64> = ks.iter().copied().filter(|&x| x > pivot).collect();
            let expect_l: Vec<u64> = ks.iter().copied().filter(|&x| x < pivot).collect();
            assert_eq!(g, expect_g);
            assert_eq!(l, expect_l);
        }
    }

    #[test]
    fn backends_agree_on_filter_ge_indices() {
        for n in [0u64, 1, 4, 9, 257] {
            let ks = keys(n);
            for t in [0u64, 300, 976, u64::MAX] {
                let want: Vec<usize> = ks
                    .iter()
                    .enumerate()
                    .filter(|&(_, &x)| x >= t)
                    .map(|(i, _)| i)
                    .collect();
                for b in BACKENDS {
                    let got = filter_ge_indices(b, &ks, t);
                    assert_eq!(got, want, "n={n} t={t} backend={b:?}");
                }
            }
        }
    }
}
