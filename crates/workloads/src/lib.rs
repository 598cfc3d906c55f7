//! # workloads — seeded data and query generators for the experiments
//!
//! Every generator takes an explicit seed and produces *distinct weights*
//! (the paper's standing assumption, §1.1). Weight distributions:
//! uniform-random permutations by default, with optional position
//! correlation for adversarial-ish cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random permutation of `1..=n` — distinct weights.
pub fn distinct_weights(n: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut w: Vec<u64> = (1..=n as u64).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        w.swap(i, j);
    }
    w
}

/// Zipf-like skewed distinct weights: heavy ranks concentrated on a few
/// elements (ranks permuted, magnitudes exponentially spread). Still
/// distinct.
pub fn skewed_weights(n: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut w: Vec<u64> = (0..n as u64)
        .map(|i| {
            // Exponentially decaying magnitudes, made distinct by rank.
            let tier = i.min(62);
            (1u64 << (62 - tier.min(40))) / (i + 1) + (n as u64 - i)
        })
        .collect();
    // Ensure distinctness defensively.
    w.sort_unstable();
    w.dedup();
    while w.len() < n {
        let next = w.last().copied().unwrap_or(0) + 1;
        w.push(next);
    }
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        w.swap(i, j);
    }
    w.truncate(n);
    w
}

/// Interval workloads for Theorem 4.
pub mod intervals {
    use super::{distinct_weights, Rng, SeedableRng, StdRng};
    use interval::Interval;

    /// Uniform starts in `[0, span)`, lengths in `[0, max_len)`.
    pub fn uniform(n: usize, span: f64, max_len: f64, seed: u64) -> Vec<Interval> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| {
                let a: f64 = rng.gen_range(0.0..span);
                Interval::new(a, a + rng.gen_range(0.0..max_len), ws[i])
            })
            .collect()
    }

    /// Fully nested intervals (worst case for interval trees).
    pub fn nested(n: usize, seed: u64) -> Vec<Interval> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| {
                let r = (n - i) as f64;
                Interval::new(-r, r, ws[i])
            })
            .collect()
    }

    /// A mix of many short and a few very long intervals.
    pub fn mixed(n: usize, span: f64, seed: u64) -> Vec<Interval> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| {
                let a: f64 = rng.gen_range(0.0..span);
                let len = if rng.gen_bool(0.05) {
                    rng.gen_range(0.0..span / 2.0)
                } else {
                    rng.gen_range(0.0..span / 100.0)
                };
                Interval::new(a, (a + len).min(span), ws[i])
            })
            .collect()
    }

    /// Stabbing query points covering `[−margin, span + margin]`.
    pub fn stab_queries(n: usize, span: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| rng.gen_range(-span * 0.05..span * 1.05))
            .collect()
    }
}

/// Rectangle workloads for Theorem 5.
pub mod rects {
    use super::{distinct_weights, Rng, SeedableRng, StdRng};
    use enclosure::Rect;
    use geom::Point2;

    /// Uniform rectangles in `[0, span)²` with extents up to `max_side`.
    pub fn uniform(n: usize, span: f64, max_side: f64, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| {
                let x1: f64 = rng.gen_range(0.0..span);
                let y1: f64 = rng.gen_range(0.0..span);
                Rect::new(
                    x1,
                    x1 + rng.gen_range(0.0..max_side),
                    y1,
                    y1 + rng.gen_range(0.0..max_side),
                    ws[i],
                )
            })
            .collect()
    }

    /// The dating-site workload of §1.4: (age × height) preference boxes
    /// weighted by salary.
    pub fn dating(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| {
                let age_lo: f64 = rng.gen_range(18.0..60.0);
                let h_lo: f64 = rng.gen_range(140.0..190.0);
                Rect::new(
                    age_lo,
                    age_lo + rng.gen_range(2.0..20.0),
                    h_lo,
                    h_lo + rng.gen_range(5.0..40.0),
                    30_000 + ws[i], // salaries
                )
            })
            .collect()
    }

    /// Query points in `[0, span)²` (with a small out-of-range margin).
    pub fn point_queries(n: usize, span: f64, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point2::new(
                    rng.gen_range(-span * 0.05..span * 1.05),
                    rng.gen_range(-span * 0.05..span * 1.05),
                )
            })
            .collect()
    }
}

/// 3D dominance workloads for Theorem 6.
pub mod hotels {
    use super::{distinct_weights, Rng, SeedableRng, StdRng};
    use dominance::Hotel;

    /// Uniform hotels in `[0, 100)³` (price, distance, 100 − security).
    pub fn uniform(n: usize, seed: u64) -> Vec<Hotel> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| {
                Hotel::new(
                    [
                        rng.gen_range(0.0..100.0),
                        rng.gen_range(0.0..100.0),
                        rng.gen_range(0.0..100.0),
                    ],
                    ws[i],
                )
            })
            .collect()
    }

    /// Correlated hotels: better-rated (heavier) hotels tend to be pricier
    /// — the realistic anti-correlated case for dominance queries.
    pub fn correlated(n: usize, seed: u64) -> Vec<Hotel> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| {
                let quality = ws[i] as f64 / n as f64;
                Hotel::new(
                    [
                        40.0 * quality + rng.gen_range(0.0..60.0),
                        rng.gen_range(0.0..100.0),
                        (1.0 - quality) * 50.0 + rng.gen_range(0.0..50.0),
                    ],
                    ws[i],
                )
            })
            .collect()
    }

    /// Dominance query corners.
    pub fn queries(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(20.0..110.0),
                    rng.gen_range(20.0..110.0),
                    rng.gen_range(20.0..110.0),
                ]
            })
            .collect()
    }
}

/// Point-cloud workloads for Theorem 3 / Corollary 1.
pub mod points {
    use super::{distinct_weights, Rng, SeedableRng, StdRng};
    use halfspace::{WPoint2, WPointD};

    /// Uniform 2D cloud in `[−span, span)²`.
    pub fn uniform2(n: usize, span: f64, seed: u64) -> Vec<WPoint2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| {
                WPoint2::new(
                    rng.gen_range(-span..span),
                    rng.gen_range(-span..span),
                    ws[i],
                )
            })
            .collect()
    }

    /// Gaussian-ish 2D cloud (sum of uniforms).
    pub fn gaussian2(n: usize, span: f64, seed: u64) -> Vec<WPoint2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        let g = move |rng: &mut StdRng| {
            let s: f64 = (0..6).map(|_| rng.gen_range(-1.0..1.0)).sum();
            s / 3.0
        };
        (0..n)
            .map(|i| {
                let x = g(&mut rng) * span;
                let y = g(&mut rng) * span;
                WPoint2::new(x, y, ws[i])
            })
            .collect()
    }

    /// Uniform D-dimensional cloud in `[−span, span)^D`.
    pub fn uniform_d<const D: usize>(n: usize, span: f64, seed: u64) -> Vec<WPointD<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| {
                let mut coords = [0.0; D];
                for c in &mut coords {
                    *c = rng.gen_range(-span..span);
                }
                WPointD::new(coords, ws[i])
            })
            .collect()
    }

    /// Random halfplane queries with roughly uniform headings; `c` picked
    /// so selectivity varies from grazing to covering.
    pub fn halfplanes(n: usize, span: f64, seed: u64) -> Vec<geom::Halfplane> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                geom::Halfplane::new(
                    theta.cos(),
                    theta.sin(),
                    rng.gen_range(-span * 1.2..span * 1.2),
                )
            })
            .collect()
    }

    /// Random D-dimensional halfspace queries.
    pub fn halfspaces_d<const D: usize>(
        n: usize,
        span: f64,
        seed: u64,
    ) -> Vec<geom::point::HalfspaceD<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut normal = [0.0; D];
                for c in &mut normal {
                    *c = rng.gen_range(-1.0..1.0);
                }
                if normal.iter().all(|&c| c == 0.0) {
                    normal[0] = 1.0;
                }
                geom::point::HalfspaceD::new(normal, rng.gen_range(-span..span))
            })
            .collect()
    }

    /// Random disk queries over a `[−span, span)²` cloud.
    pub fn disks(n: usize, span: f64, seed: u64) -> Vec<halfspace::circular::Disk> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                halfspace::circular::Disk::new(
                    (rng.gen_range(-span..span), rng.gen_range(-span..span)),
                    rng.gen_range(span * 0.05..span),
                )
            })
            .collect()
    }
}

/// Adversarial input families: shapes designed to stress specific
/// structural weaknesses (interval-tree centers, kd splits, weight-order
/// correlation). Used by the soak tests and available to the harness.
pub mod adversarial {
    use super::{distinct_weights, Rng, SeedableRng, StdRng};
    use interval::Interval;

    /// Intervals whose weights are perfectly correlated with their spans
    /// (longest = heaviest): top-k answers are dominated by the intervals
    /// every query stabs, stressing the reductions' monitored fetches.
    pub fn weight_span_correlated(n: usize, span: f64, seed: u64) -> Vec<Interval> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ivs: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let a: f64 = rng.gen_range(0.0..span);
                let len: f64 = rng.gen_range(0.0..span / 4.0);
                (a, (a + len).min(span))
            })
            .collect();
        ivs.sort_by(|x, y| (x.1 - x.0).partial_cmp(&(y.1 - y.0)).unwrap());
        ivs.into_iter()
            .enumerate()
            .map(|(i, (lo, hi))| Interval::new(lo, hi, i as u64 + 1))
            .collect()
    }

    /// All intervals share one endpoint (a "fan"): every interval lands at
    /// the same interval-tree center node, degenerating tree balance.
    pub fn fan(n: usize, seed: u64) -> Vec<Interval> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| Interval::new(0.0, rng.gen_range(0.0..1000.0) + 0.001, ws[i]))
            .collect()
    }

    /// 2D points on a line (degenerate hulls — one convex layer per pair).
    pub fn collinear_points(n: usize, seed: u64) -> Vec<halfspace::WPoint2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| {
                let t = i as f64;
                halfspace::WPoint2::new(t, 2.0 * t + 1.0, ws[i])
            })
            .collect()
    }

    /// Clustered 2D points (tight gaussian blobs): kd boxes overlap heavily.
    pub fn clustered_points(n: usize, clusters: usize, seed: u64) -> Vec<halfspace::WPoint2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        let centers: Vec<(f64, f64)> = (0..clusters.max(1))
            .map(|_| (rng.gen_range(-80.0..80.0), rng.gen_range(-80.0..80.0)))
            .collect();
        (0..n)
            .map(|i| {
                let (cx, cy) = centers[i % centers.len()];
                halfspace::WPoint2::new(
                    cx + rng.gen_range(-2.0..2.0),
                    cy + rng.gen_range(-2.0..2.0),
                    ws[i],
                )
            })
            .collect()
    }
}

/// 1D workloads for the range1d showcase and the E6 baseline duel.
pub mod line {
    use super::{distinct_weights, Rng, SeedableRng, StdRng};
    use range1d::{Range, WPoint1};

    /// Uniform points on `[0, span)`.
    pub fn uniform(n: usize, span: f64, seed: u64) -> Vec<WPoint1> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = distinct_weights(n, &mut rng);
        (0..n)
            .map(|i| WPoint1::new(rng.gen_range(0.0..span), ws[i]))
            .collect()
    }

    /// Random query ranges with mean selectivity `sel` (fraction of span).
    pub fn ranges(n: usize, span: f64, sel: f64, seed: u64) -> Vec<Range> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a: f64 = rng.gen_range(0.0..span);
                Range::new(a, (a + rng.gen_range(0.0..2.0 * sel * span)).min(span))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_distinct_permutations() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = distinct_weights(1_000, &mut rng);
        let mut s = w.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 1_000);
        assert_eq!(*s.first().unwrap(), 1);
        assert_eq!(*s.last().unwrap(), 1_000);
    }

    #[test]
    fn skewed_weights_are_distinct() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = skewed_weights(5_000, &mut rng);
        let mut s = w.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 5_000);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = intervals::uniform(100, 1000.0, 50.0, 7);
        let b = intervals::uniform(100, 1000.0, 50.0, 7);
        assert_eq!(a, b);
        let c = intervals::uniform(100, 1000.0, 50.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn interval_generators_produce_valid_intervals() {
        for iv in intervals::mixed(500, 1000.0, 3) {
            assert!(iv.lo <= iv.hi);
        }
        for iv in intervals::nested(100, 4) {
            assert!(iv.lo <= iv.hi);
        }
    }

    #[test]
    fn hotel_weights_distinct() {
        let hs = hotels::correlated(2_000, 5);
        let mut w: Vec<u64> = hs.iter().map(|h| h.weight).collect();
        w.sort_unstable();
        w.dedup();
        assert_eq!(w.len(), 2_000);
    }

    #[test]
    fn adversarial_families_are_wellformed() {
        let ivs = adversarial::weight_span_correlated(500, 100.0, 1);
        // Heaviest interval is among the longest.
        let heaviest = ivs.iter().max_by_key(|iv| iv.weight).unwrap();
        let max_len = ivs.iter().map(|iv| iv.hi - iv.lo).fold(0.0f64, f64::max);
        assert!((heaviest.hi - heaviest.lo) >= 0.9 * max_len);

        let fan = adversarial::fan(200, 2);
        assert!(fan.iter().all(|iv| iv.lo == 0.0 && iv.hi > 0.0));

        let col = adversarial::collinear_points(100, 3);
        for w in col.windows(3) {
            let cross =
                (w[1].x - w[0].x) * (w[2].y - w[0].y) - (w[1].y - w[0].y) * (w[2].x - w[0].x);
            assert!(cross.abs() < 1e-9);
        }

        let cl = adversarial::clustered_points(300, 5, 4);
        let mut ws: Vec<u64> = cl.iter().map(|p| p.weight).collect();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), 300);
    }

    #[test]
    fn point_clouds_have_finite_coords() {
        for p in points::gaussian2(1_000, 100.0, 6) {
            assert!(p.x.is_finite() && p.y.is_finite());
        }
        for p in points::uniform_d::<4>(500, 100.0, 7) {
            assert!(p.coords.iter().all(|c| c.is_finite()));
        }
    }
}
