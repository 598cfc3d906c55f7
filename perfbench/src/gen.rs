//! Seeded input generation. The benchmark owns its generator (`SplitMix64`)
//! so that no edit to the repository's own workload crates can change what
//! is measured.

use interval::Interval;

/// `SplitMix64` (Steele, Lea & Flood), one stream per `(seed, stream)` pair.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream derived from the run seed and a per-purpose stream id, so
    /// items, queries and updates never share random numbers.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix64(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BBE1));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform on `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        // The modulo bias is below 2^-40 for every n this benchmark uses.
        self.next_u64() % n
    }

    /// Log-uniform on `[lo, hi)`, `0 < lo < hi`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }
}

/// Left endpoints are uniform on `[0, LO_SPAN)`.
pub const LO_SPAN: f64 = 1000.0;
/// Lengths are uniform on `[0, LEN_SPAN)`: a stab in the middle of the
/// range matches `LEN_SPAN / 2 / LO_SPAN = 6 %` of the intervals.
pub const LEN_SPAN: f64 = 120.0;

/// One interval with the given weight, endpoints drawn from `rng`.
pub fn interval(rng: &mut SplitMix64, weight: u64) -> Interval {
    let lo = rng.unit() * LO_SPAN;
    Interval::new(lo, lo + rng.unit() * LEN_SPAN, weight)
}

/// `n` intervals whose weights are a seeded permutation of `1..=n`.
pub fn items(seed: u64, n: usize) -> Vec<Interval> {
    let mut rng = SplitMix64::new(seed, 1);
    let mut weights: Vec<u64> = (1..=n as u64).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        weights.swap(i, j);
    }
    weights.into_iter().map(|w| interval(&mut rng, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a = items(7, 2_000);
        assert_eq!(a, items(7, 2_000));
        assert_ne!(a, items(8, 2_000));
        let mut w: Vec<u64> = a.iter().map(|iv| iv.weight).collect();
        w.sort_unstable();
        assert_eq!(
            w,
            (1..=2_000).collect::<Vec<_>>(),
            "weights are a permutation"
        );
        assert!(a
            .iter()
            .all(|iv| (0.0..LO_SPAN).contains(&iv.lo) && iv.hi - iv.lo < LEN_SPAN));

        let (mut r1, mut r2) = (SplitMix64::new(3, 9), SplitMix64::new(3, 9));
        for _ in 0..100 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
        let mut r3 = SplitMix64::new(3, 10);
        assert_ne!(SplitMix64::new(3, 9).next_u64(), r3.next_u64());
    }
}
