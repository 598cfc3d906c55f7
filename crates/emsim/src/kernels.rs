//! Branchless, cache-conscious hot-path kernels for selection and scanning.
//!
//! The E21 trace layer showed the cycles of every RAM-model experiment
//! (Theorems 3–6 with small `B`) going to the `select`/`scan`/`probe`
//! phases, all of which ran scalar, fully generic code. This module closes
//! that gap with three specializations, all operating on an order-embedded
//! `u64` bit domain (see [`KernelKey`]):
//!
//! * [`partition3`] — the quickselect partitioning pass: a stable,
//!   branch-free two-pointer loop (unconditional store, conditional
//!   pointer advance) into pre-sized buffers. Stability matters: the
//!   pivot sequence indexes into the live key vector, so preserving
//!   relative order keeps the pivot draws — and therefore the metered
//!   pass count — bit-identical to the scalar path.
//! * [`count_ge`] / [`filter_ge_indices`] — block scan-for-threshold,
//!   vectorized with AVX2 intrinsics where the CPU supports them
//!   (runtime-detected once) and with 4-lane unrolled branchless scalar
//!   code everywhere else.
//! * [`dispatch_kernel!`](crate::dispatch_kernel) — monomorphized kernels
//!   per key type (`u32`, `u64`, `i64`, `f64`-as-ordered-bits) selected at
//!   runtime from a [`KeyType`] tag, with the caller's generic `Ord`-bound
//!   path surviving as the fallback arm for every other type.
//!
//! Backend selection happens once per process ([`active_backend`]): the
//! `EMSIM_KERNELS` environment variable (`scalar` / `unrolled` / `avx2`)
//! overrides auto-detection via `is_x86_feature_detected!("avx2")`. Tests
//! and benchmarks compare backends in-process with [`with_backend`].
//!
//! Every kernel returns *bit-identical* results on every backend — same
//! outputs, same stability, same multiset splits — which is what lets the
//! golden I/O baselines pin one number for all dispatch paths.
//!
//! This is the one module in the crate allowed to use `unsafe`: the AVX2
//! intrinsics require it. Every `unsafe` block is behind a runtime CPU
//! feature check and a `#[target_feature]` function boundary.

#![allow(unsafe_code)]

use std::any::TypeId;
use std::cell::Cell;
use std::sync::OnceLock;

/// Which implementation family the kernels run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// AVX2 intrinsics (4 × 64-bit lanes) for the scan kernels, branch-free
    /// stores for partitioning. Requires runtime CPU support.
    Avx2,
    /// Chunked 4-lane scalar unrolling with branchless accumulators — the
    /// portable fast path.
    Unrolled,
    /// The original one-element-at-a-time code, kept as the reference
    /// implementation and forced via `EMSIM_KERNELS=scalar`.
    Scalar,
}

impl Backend {
    /// Stable lowercase name (matches the `EMSIM_KERNELS` values).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Unrolled => "unrolled",
            Backend::Scalar => "scalar",
        }
    }
}

/// Whether AVX2 kernels can actually run on this machine.
///
/// Always `false` under Miri: the interpreter has no implementation of
/// the AVX2 intrinsics, so the CI Miri lane must dispatch to the scalar /
/// unrolled kernels. Routing the clamp through this one function covers
/// every dispatch path, including explicit [`with_backend`]`(Avx2)`
/// overrides in the equivalence proptests.
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(any(not(target_arch = "x86_64"), miri))]
    {
        false
    }
}

static CHOSEN: OnceLock<Backend> = OnceLock::new();

thread_local! {
    /// Per-thread override installed by [`with_backend`] (tests / benches).
    static OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };
}

fn detect() -> Backend {
    let requested = std::env::var("EMSIM_KERNELS").ok();
    let b = match requested.as_deref() {
        Some("scalar") => Backend::Scalar,
        Some("unrolled") => Backend::Unrolled,
        Some("avx2") => Backend::Avx2,
        _ => {
            if avx2_available() {
                Backend::Avx2
            } else {
                Backend::Unrolled
            }
        }
    };
    // Never dispatch into intrinsics the CPU cannot run, even if asked to.
    if b == Backend::Avx2 && !avx2_available() {
        Backend::Unrolled
    } else {
        b
    }
}

/// The backend the kernels will use on this thread right now: the
/// [`with_backend`] override if one is installed, else the process-wide
/// choice (computed once from `EMSIM_KERNELS` / CPU detection).
pub fn active_backend() -> Backend {
    if let Some(b) = OVERRIDE.with(Cell::get) {
        // The override obeys the same safety clamp as detection.
        if b == Backend::Avx2 && !avx2_available() {
            return Backend::Unrolled;
        }
        return b;
    }
    *CHOSEN.get_or_init(detect)
}

/// Run `f` with the kernel backend forced to `backend` on this thread —
/// how the equivalence proptests and the E22 bench compare dispatch paths
/// in one process. Restores the previous override even if `f` panics.
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(backend))));
    f()
}

/// A key type with a total order embedded into `u64` bits: `a <= b` iff
/// `a.to_bits() <= b.to_bits()`, and `from_bits(to_bits(x)) == x`. This is
/// what lets one family of `u64` kernels serve every supported key type
/// after a monomorphized conversion pass.
pub trait KernelKey: Copy + Send + Sync + 'static {
    /// The runtime tag [`dispatch_kernel!`](crate::dispatch_kernel)
    /// matches on.
    const KIND: KeyType;
    /// Order-preserving embedding into `u64`.
    fn to_bits(self) -> u64;
    /// Inverse of [`KernelKey::to_bits`].
    fn from_bits(bits: u64) -> Self;
}

impl KernelKey for u64 {
    const KIND: KeyType = KeyType::U64;
    #[inline(always)]
    fn to_bits(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl KernelKey for u32 {
    const KIND: KeyType = KeyType::U32;
    #[inline(always)]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        bits as u32
    }
}

impl KernelKey for i64 {
    const KIND: KeyType = KeyType::I64;
    #[inline(always)]
    fn to_bits(self) -> u64 {
        // Flip the sign bit: i64::MIN maps to 0, i64::MAX to u64::MAX.
        (self as u64) ^ (1 << 63)
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        (bits ^ (1 << 63)) as i64
    }
}

impl KernelKey for f64 {
    const KIND: KeyType = KeyType::F64;
    #[inline(always)]
    fn to_bits(self) -> u64 {
        // The classic total-order trick: non-negative floats get the sign
        // bit set, negative floats are bitwise complemented. Orders every
        // non-NaN float correctly (and NaNs above +inf, deterministically).
        let b = self.to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b | (1 << 63)
        }
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        let b = if bits >> 63 == 1 { bits & !(1 << 63) } else { !bits };
        f64::from_bits(b)
    }
}

/// Runtime tag for the key types with monomorphized kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyType {
    /// 32-bit unsigned keys.
    U32,
    /// 64-bit unsigned keys (the paper's weight domain).
    U64,
    /// 64-bit signed keys.
    I64,
    /// IEEE-754 doubles via the ordered-bits embedding.
    F64,
}

/// The [`KeyType`] tag for `K`, or `None` when `K` has no specialized
/// kernel (the `Ord`-bound generic path handles it).
pub fn key_type_of<K: 'static>() -> Option<KeyType> {
    let id = TypeId::of::<K>();
    if id == TypeId::of::<u64>() {
        Some(KeyType::U64)
    } else if id == TypeId::of::<u32>() {
        Some(KeyType::U32)
    } else if id == TypeId::of::<i64>() {
        Some(KeyType::I64)
    } else if id == TypeId::of::<f64>() {
        Some(KeyType::F64)
    } else {
        None
    }
}

/// Select a monomorphized kernel call by a runtime [`KeyType`] tag
/// (the shape of hodu's `call_topk` dispatch over `DType`): `$fun::<K>` is
/// invoked with `K` bound to the concrete key type for each tag, and the
/// `_` arm — the generic `Ord`-bound path — survives as the fallback for
/// `None` (no specialized kernel for the type).
///
/// ```
/// use emsim::kernels::{key_type_of, KernelKey};
///
/// fn max_bits<K: KernelKey>(keys: &[u64]) -> u64 {
///     keys.iter().copied().max().unwrap_or(0)
/// }
///
/// let keys = [3u64, 9, 4];
/// let m = emsim::dispatch_kernel!(key_type_of::<u64>(), K => max_bits::<K>(&keys), _ => 0);
/// assert_eq!(m, 9);
/// let f = emsim::dispatch_kernel!(key_type_of::<String>(), K => max_bits::<K>(&keys), _ => 0);
/// assert_eq!(f, 0, "unsupported key types take the fallback arm");
/// ```
#[macro_export]
macro_rules! dispatch_kernel {
    ($kind:expr, $K:ident => $call:expr, _ => $fallback:expr) => {
        match $kind {
            Some($crate::kernels::KeyType::U32) => {
                type $K = u32;
                $call
            }
            Some($crate::kernels::KeyType::U64) => {
                type $K = u64;
                $call
            }
            Some($crate::kernels::KeyType::I64) => {
                type $K = i64;
                $call
            }
            Some($crate::kernels::KeyType::F64) => {
                type $K = f64;
                $call
            }
            None => $fallback,
        }
    };
}

// ---------------------------------------------------------------------------
// count_ge: how many keys are >= pivot (block scan-for-threshold, counting).
// ---------------------------------------------------------------------------

/// Number of `keys` that are `>= pivot`, dispatched to the active backend.
pub fn count_ge(keys: &[u64], pivot: u64) -> usize {
    match active_backend() {
        // SAFETY: `active_backend` only returns `Avx2` after
        // `is_x86_feature_detected!("avx2")` confirmed CPU support (both
        // the detection path and the `with_backend` override clamp), which
        // is the sole precondition of `count_ge_avx2`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { count_ge_avx2(keys, pivot) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => count_ge_unrolled(keys, pivot),
        Backend::Unrolled => count_ge_unrolled(keys, pivot),
        Backend::Scalar => count_ge_scalar(keys, pivot),
    }
}

fn count_ge_scalar(keys: &[u64], pivot: u64) -> usize {
    keys.iter().filter(|&&x| x >= pivot).count()
}

fn count_ge_unrolled(keys: &[u64], pivot: u64) -> usize {
    // Four independent branchless accumulators hide the compare latency.
    let mut c = [0usize; 4];
    let chunks = keys.chunks_exact(4);
    let rem = chunks.remainder();
    for ch in chunks {
        c[0] += (ch[0] >= pivot) as usize;
        c[1] += (ch[1] >= pivot) as usize;
        c[2] += (ch[2] >= pivot) as usize;
        c[3] += (ch[3] >= pivot) as usize;
    }
    let mut total = c[0] + c[1] + c[2] + c[3];
    for &x in rem {
        total += (x >= pivot) as usize;
    }
    total
}

/// # Safety
/// Caller must ensure the CPU supports AVX2 (`is_x86_feature_detected!`
/// before dispatching here). No alignment precondition: the only wide
/// load is `_mm256_loadu_si256`, which permits unaligned addresses; no
/// length precondition beyond the slice's own bounds: `chunks_exact(4)`
/// guarantees each 32-byte load covers exactly four in-bounds `u64`
/// lanes, and the `remainder()` elements are read scalar.
// SAFETY: see the `# Safety` section above — the `#[target_feature]`
// boundary is the one unsafe obligation, discharged by runtime detection.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// `loadu` is the unaligned load; the 8→32-byte pointer cast is its calling
// convention, not an alignment claim.
#[allow(clippy::cast_ptr_alignment)]
unsafe fn count_ge_avx2(keys: &[u64], pivot: u64) -> usize {
    use std::arch::x86_64::{_mm256_set1_epi64x, _mm256_xor_si256, _mm256_loadu_si256, __m256i, _mm256_cmpgt_epi64, _mm256_movemask_pd, _mm256_castsi256_pd};
    // AVX2 has only *signed* 64-bit compares; XOR-ing the sign bit maps
    // the unsigned order onto the signed one.
    let sign = _mm256_set1_epi64x(i64::MIN);
    let pv = _mm256_xor_si256(_mm256_set1_epi64x(pivot as i64), sign);
    let chunks = keys.chunks_exact(4);
    let rem = chunks.remainder();
    let mut lt = 0usize;
    for ch in chunks {
        let v = _mm256_loadu_si256(ch.as_ptr().cast::<__m256i>());
        let vf = _mm256_xor_si256(v, sign);
        // pivot > x  ⇔  x < pivot; count_ge = len - count_lt.
        let m = _mm256_cmpgt_epi64(pv, vf);
        let mask = _mm256_movemask_pd(_mm256_castsi256_pd(m)) as u32;
        lt += mask.count_ones() as usize;
    }
    for &x in rem {
        lt += (x < pivot) as usize;
    }
    keys.len() - lt
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
pub fn partition3(keys: &[u64], pivot: u64) -> (Vec<u64>, Vec<u64>, usize) {
    match active_backend() {
        Backend::Scalar => partition3_scalar(keys, pivot),
        Backend::Avx2 | Backend::Unrolled => partition3_branchfree(keys, pivot),
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
pub fn filter_ge_indices(keys: &[u64], threshold: u64) -> Vec<usize> {
    match active_backend() {
        // SAFETY: `active_backend` only returns `Avx2` after
        // `is_x86_feature_detected!("avx2")` confirmed CPU support (see
        // `count_ge` above) — the sole precondition of `filter_ge_avx2`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { filter_ge_avx2(keys, threshold) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => filter_ge_unrolled(keys, threshold),
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

/// # Safety
/// Caller must ensure the CPU supports AVX2 (`is_x86_feature_detected!`
/// before dispatching here). As in [`count_ge_avx2`]: unaligned loads via
/// `_mm256_loadu_si256` only, and `chunks_exact(4)` keeps every 32-byte
/// load over exactly four in-bounds `u64` lanes (remainder read scalar),
/// so there is no alignment or length precondition beyond the slice.
// SAFETY: see the `# Safety` section above — the `#[target_feature]`
// boundary is the one unsafe obligation, discharged by runtime detection.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// `loadu` is the unaligned load; the 8→32-byte pointer cast is its calling
// convention, not an alignment claim.
#[allow(clippy::cast_ptr_alignment)]
unsafe fn filter_ge_avx2(keys: &[u64], threshold: u64) -> Vec<usize> {
    use std::arch::x86_64::{_mm256_set1_epi64x, _mm256_xor_si256, _mm256_loadu_si256, __m256i, _mm256_movemask_pd, _mm256_castsi256_pd, _mm256_cmpgt_epi64};
    let mut out = Vec::with_capacity(keys.len());
    let sign = _mm256_set1_epi64x(i64::MIN);
    let tv = _mm256_xor_si256(_mm256_set1_epi64x(threshold as i64), sign);
    let chunks = keys.chunks_exact(4);
    let rem_base = keys.len() - chunks.remainder().len();
    let rem = chunks.remainder();
    for (c, ch) in chunks.enumerate() {
        let v = _mm256_loadu_si256(ch.as_ptr().cast::<__m256i>());
        let vf = _mm256_xor_si256(v, sign);
        // x >= t  ⇔  !(t > x): invert the 4-bit lane mask.
        let lt = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(tv, vf))) as u32;
        let mut ge = !lt & 0xF;
        let base = c * 4;
        while ge != 0 {
            let lane = ge.trailing_zeros() as usize;
            out.push(base + lane);
            ge &= ge - 1;
        }
    }
    for (i, &x) in rem.iter().enumerate() {
        if x >= threshold {
            out.push(rem_base + i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar, Backend::Unrolled];
        if avx2_available() {
            v.push(Backend::Avx2);
        }
        v
    }

    fn keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 977).collect()
    }

    #[test]
    fn backends_agree_on_count_ge() {
        for n in [0u64, 1, 3, 4, 5, 31, 64, 1000] {
            let ks = keys(n);
            for pivot in [0u64, 1, 488, 976, u64::MAX] {
                let want = count_ge_scalar(&ks, pivot);
                for b in backends() {
                    let got = with_backend(b, || count_ge(&ks, pivot));
                    assert_eq!(got, want, "n={n} pivot={pivot} backend={b:?}");
                }
            }
        }
    }

    #[test]
    fn backends_agree_on_partition3_and_are_stable() {
        for n in [0u64, 1, 7, 100, 1003] {
            let ks = keys(n);
            let pivot = 488;
            let want = partition3_scalar(&ks, pivot);
            for b in backends() {
                let got = with_backend(b, || partition3(&ks, pivot));
                assert_eq!(got, want, "n={n} backend={b:?}");
            }
            // Stability: survivors appear in input order.
            let (g, l, e) = want;
            assert!(g.windows(1).count() == g.len());
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
                for b in backends() {
                    let got = with_backend(b, || filter_ge_indices(&ks, t));
                    assert_eq!(got, want, "n={n} t={t} backend={b:?}");
                }
            }
        }
    }

    #[test]
    fn key_embeddings_preserve_order_and_roundtrip() {
        let i64s = [i64::MIN, -5, -1, 0, 1, 5, i64::MAX];
        for w in i64s.windows(2) {
            assert!(KernelKey::to_bits(w[0]) < KernelKey::to_bits(w[1]));
        }
        for &x in &i64s {
            assert_eq!(i64::from_bits(KernelKey::to_bits(x)), x);
        }
        let f64s = [f64::NEG_INFINITY, -1e300, -1.5, -0.0, 0.0, 1.5, 1e300, f64::INFINITY];
        for w in f64s.windows(2) {
            assert!(
                KernelKey::to_bits(w[0]) <= KernelKey::to_bits(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        for &x in &f64s {
            // Fully-qualified: the inherent `f64::from_bits` (raw IEEE
            // bits) would otherwise shadow the trait's ordered embedding.
            let rt = <f64 as KernelKey>::from_bits(KernelKey::to_bits(x));
            assert_eq!(rt.to_bits(), x.to_bits());
        }
        for x in [0u32, 1, u32::MAX] {
            assert_eq!(u32::from_bits(KernelKey::to_bits(x)), x);
        }
    }

    #[test]
    fn dispatch_macro_selects_and_falls_back() {
        fn kind_name<K: KernelKey>() -> &'static str {
            match K::KIND {
                KeyType::U32 => "u32",
                KeyType::U64 => "u64",
                KeyType::I64 => "i64",
                KeyType::F64 => "f64",
            }
        }
        let got = dispatch_kernel!(key_type_of::<f64>(), K => kind_name::<K>(), _ => "generic");
        assert_eq!(got, "f64");
        let got = dispatch_kernel!(key_type_of::<u32>(), K => kind_name::<K>(), _ => "generic");
        assert_eq!(got, "u32");
        let got = dispatch_kernel!(key_type_of::<&str>(), K => kind_name::<K>(), _ => "generic");
        assert_eq!(got, "generic");
    }

    #[test]
    fn env_forced_scalar_wins_and_override_restores_on_panic() {
        // The process-wide choice is cached; we only check the override
        // mechanics here.
        let before = active_backend();
        let r = std::panic::catch_unwind(|| {
            with_backend(Backend::Scalar, || {
                assert_eq!(active_backend(), Backend::Scalar);
                panic!("boom");
            });
        });
        assert!(r.is_err());
        assert_eq!(active_backend(), before, "override restored after panic");
    }
}
