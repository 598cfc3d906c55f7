//! Offline stand-in for the `proptest` crate.
//!
//! Provides the subset of the proptest 1.x surface the workspace's
//! property tests use: the `proptest!` macro (with `#![proptest_config]`),
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!`, range/tuple/array
//! strategies, `prop::collection::vec`, and `.prop_map`. Cases are
//! generated from a per-test deterministic seed; there is **no shrinking**
//! — a failure reports the case number and seed instead of a minimal
//! counterexample, which is enough to reproduce it.

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng, Standard};

/// Runner configuration (`proptest::test_runner::Config` stand-in).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; try another case.
    Reject,
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    /// A failure with the given reason (upstream's `fail` constructor).
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }
}

/// A value generator (`proptest::strategy::Strategy` stand-in, minus
/// shrinking: `new_value` produces the value directly).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn new_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn new_value(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.new_value(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

/// Full-range values of `T` (`proptest::arbitrary::any` stand-in for the
/// primitive types the `rand` shim can sample uniformly).
pub fn any<T: Standard>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// The result of [`any`].
#[derive(Clone, Copy, Debug)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Standard> Strategy for AnyStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen()
    }
}

/// A weighted choice over strategies with one value type (the result of
/// [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
}

impl<V> Union<V> {
    /// A union of pre-boxed `(weight, strategy)` arms.
    pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        assert!(arms.iter().any(|(w, _)| *w > 0), "all arm weights are zero");
        Union { arms }
    }
}

/// Box one `prop_oneof!` arm (a macro helper; not part of the upstream
/// surface, hence hidden).
#[doc(hidden)]
pub fn __oneof_arm<S>(weight: u32, strategy: S) -> (u32, Box<dyn Strategy<Value = S::Value>>)
where
    S: Strategy + 'static,
{
    (weight, Box::new(strategy))
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn new_value(&self, rng: &mut StdRng) -> V {
        let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut pick = rng.gen_range(0..total);
        for (w, strategy) in &self.arms {
            if pick < u64::from(*w) {
                return strategy.new_value(rng);
            }
            pick -= u64::from(*w);
        }
        unreachable!("weighted pick exceeded total weight")
    }
}

/// Choose among strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![
            $($crate::__oneof_arm($weight as u32, $strat)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

impl<S: Strategy, const N: usize> Strategy for [S; N] {
    type Value = [S::Value; N];
    fn new_value(&self, rng: &mut StdRng) -> Self::Value {
        std::array::from_fn(|i| self[i].new_value(rng))
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident : $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// Collection strategies (`proptest::collection` stand-in).
pub mod collection {
    use super::{SizeRange, Strategy, VecStrategy};

    /// A `Vec` of values from `element`, with a length drawn from `size`
    /// (a `usize` for an exact length, or a `Range<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Length specification for [`collection::vec`].
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

/// The result of [`collection::vec`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn new_value(&self, rng: &mut StdRng) -> Self::Value {
        let len = rng.gen_range(self.size.lo..self.size.hi);
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

/// Namespace mirror so `prop::collection::vec(...)` works as upstream.
pub mod prop {
    pub use crate::collection;
}

/// Everything a test file needs (`proptest::prelude` stand-in).
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Run one case's body (a closure, so that `?` and `prop_assert!` can
/// return early from it).
#[doc(hidden)]
pub fn run_case(body: impl FnOnce() -> Result<(), TestCaseError>) -> Result<(), TestCaseError> {
    body()
}

/// Drive one property test: `cases` deterministic cases, each calling
/// `run` with a per-case RNG. Rejections (from `prop_assume!`) retry with
/// fresh inputs, up to a budget; failures panic with the case seed.
pub fn run_cases<F>(config: ProptestConfig, test_name: &str, mut run: F)
where
    F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
{
    // FNV-1a over the test name, so each test gets its own stream.
    let mut name_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        name_hash ^= b as u64;
        name_hash = name_hash.wrapping_mul(0x1000_0000_01b3);
    }
    let cases = config.cases;
    let mut passed: u32 = 0;
    let mut attempts: u64 = 0;
    let max_attempts = cases as u64 * 10 + 100;
    while passed < cases {
        let seed = name_hash ^ (attempts.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        attempts += 1;
        let mut rng = StdRng::seed_from_u64(seed);
        match run(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                assert!(
                    attempts < max_attempts,
                    "{test_name}: too many prop_assume! rejections \
                     ({attempts} attempts for {passed} accepted cases)"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("{test_name}: case #{passed} (seed {seed:#x}) failed: {msg}")
            }
        }
    }
}

/// Define property tests (the `proptest!` macro).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { cfg = <$crate::ProptestConfig as ::std::default::Default>::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategies = ($($strat,)+);
            $crate::run_cases(config, stringify!($name), |rng| {
                let ($($pat,)+) = $crate::Strategy::new_value(&strategies, rng);
                $crate::run_case(|| {
                    $body
                    Ok(())
                })
            });
        }
    )*};
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// `assert_ne!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Discard the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn tuples_and_vecs_generate(v in prop::collection::vec((0u32..10, 0.0f64..1.0), 0..20), k in 1usize..5) {
            prop_assert!(v.len() < 20);
            prop_assert!((1..5).contains(&k));
            for (a, b) in v {
                prop_assert!(a < 10);
                prop_assert!((0.0..1.0).contains(&b));
            }
        }

        #[test]
        fn maps_and_arrays_compose(xs in prop::collection::vec(([0.0f64..2.0, 0.0f64..2.0],), 3).prop_map(|v| v.len())) {
            prop_assert_eq!(xs, 3);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }

        #[test]
        fn inclusive_ranges_hit_both_ends(n in 0u8..=1, x in 0.5f64..=1.0) {
            prop_assert!(n <= 1);
            prop_assert!((0.5..=1.0).contains(&x));
        }

        #[test]
        fn oneof_respects_arms(v in prop::collection::vec(
            prop_oneof![
                3 => (0u32..10).prop_map(|n| n as u64),
                1 => Just(99u64),
            ],
            1..30,
        )) {
            for n in v {
                prop_assert!(n < 10 || n == 99);
            }
        }

        #[test]
        fn any_draws_full_range(seed in any::<u64>(), flag in any::<bool>()) {
            // Nothing to pin beyond "it generates" — the draw itself is
            // the property (full-range, no panic).
            let _ = (seed, flag);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        let mut second = Vec::new();
        for out in [&mut first, &mut second] {
            crate::run_cases(ProptestConfig::with_cases(10), "det", |rng| {
                out.push((0u64..1_000_000).new_value(rng));
                Ok(())
            });
        }
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failures_panic() {
        crate::run_cases(ProptestConfig::with_cases(5), "boom", |_rng| {
            Err(TestCaseError::Fail("nope".into()))
        });
    }
}
