//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate provides the (small) subset of the `rand 0.8` API the repo uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and the [`Rng`]
//! methods `gen`, `gen_bool` and `gen_range` over integer and float
//! ranges. The generator is xoshiro256++ seeded through `SplitMix64`, so
//! streams are deterministic per seed (they are *not* bit-identical to
//! upstream `rand`'s `StdRng`, which the workspace never relies on).

use std::ops::{Range, RangeInclusive};

/// A deterministic seedable generator, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build from a full seed (32 bytes, like upstream `StdRng`).
    fn from_seed(seed: [u8; 32]) -> Self;

    /// Build from a `u64`, expanded with `SplitMix64` (deterministic).
    fn seed_from_u64(state: u64) -> Self {
        let mut s = state;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut s).to_le_bytes());
        }
        Self::from_seed(seed)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The core source of randomness, mirroring `rand::RngCore`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// A uniform value of a [`Standard`]-samplable type (`f64` in `[0,1)`,
    /// `bool` fair coin, full-range unsigned integers).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        self.gen::<f64>() < p
    }

    /// A uniform value in `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        T: SampleUniform,
        R: SampleRange<T>,
    {
        let (lo, hi, inclusive) = range.bounds();
        T::sample_range(self, lo, hi, inclusive)
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types with a canonical "uniform" distribution (`rand`'s `Standard`).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

macro_rules! impl_standard_narrow {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                // Truncation of uniform bits stays uniform.
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_narrow!(u8, u16, usize, i8, i16, i32, i64, isize);

/// Types uniformly samplable from a range (`rand`'s `SampleUniform`).
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform in `[lo, hi)` (or `[lo, hi]` when `inclusive`).
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let span = if inclusive {
                    assert!(lo <= hi, "cannot sample empty range");
                    (hi as i128 - lo as i128 + 1) as u128
                } else {
                    assert!(lo < hi, "cannot sample empty range");
                    (hi as i128 - lo as i128) as u128
                };
                // Multiply-shift keeps the draw unbiased enough for
                // simulation workloads without a rejection loop.
                let r = rng.next_u64() as u128;
                let offset = (r * span) >> 64;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self {
        let _ = inclusive; // [lo, hi] and [lo, hi) coincide up to measure zero
        assert!(
            lo < hi || (inclusive && lo <= hi),
            "cannot sample empty range"
        );
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * unit
    }
}

/// Range forms accepted by [`Rng::gen_range`] (`rand`'s `SampleRange`).
pub trait SampleRange<T> {
    /// `(low, high, inclusive)`.
    fn bounds(self) -> (T, T, bool);
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        let (lo, hi) = self.into_inner();
        (lo, hi, true)
    }
}

/// The concrete generators (`rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator standing in for `rand`'s
    /// `StdRng`. Same role (seedable, fast, high quality); different —
    /// but fixed — streams.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            // All-zero state is the one forbidden xoshiro state.
            if s.iter().all(|&x| x == 0) {
                s = [0xDEAD_BEEF, 0xCAFE_F00D, 0x1234_5678, 0x9ABC_DEF0];
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.gen_range(0u64..1_000_000)).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen_range(0u64..1_000_000)).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.gen_range(0u64..1_000_000)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(0usize..=4);
            assert!(w <= 4);
            let f = rng.gen_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&f));
            let x = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&x));
        }
    }

    #[test]
    fn unit_float_and_bool_are_plausible() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut heads = 0usize;
        let mut sum = 0.0f64;
        let n = 20_000;
        for _ in 0..n {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            sum += f;
            if rng.gen_bool(0.5) {
                heads += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
        let frac = heads as f64 / n as f64;
        assert!((0.45..0.55).contains(&frac), "heads {frac}");
    }

    #[test]
    fn inclusive_range_hits_both_ends() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 3];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..=2)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
