//! Percentiles of latency samples and quartiles of run sets.

/// Nearest-rank percentile (`p` in `(0, 100]`) of `samples`, which this
/// sorts in place; `NaN` when there are no samples. Infinite samples (failed
/// requests) sort last, so they count as missing every latency limit.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The three quartile cut points of `values` by the method Python's
/// `statistics.quantiles(values, n=4)` uses (the default "exclusive"
/// method), so spreads read the same here and in any Python tooling.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_unstable_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let n = 4;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut v, 0.1), 1.0);
        let mut one = [7.0];
        assert_eq!(percentile(&mut one, 99.0), 7.0);
        assert!(percentile(&mut [], 50.0).is_nan());
        // A failed request is +inf and lands in the tail.
        let mut with_fail = [1.0, 2.0, 3.0, f64::INFINITY];
        assert_eq!(percentile(&mut with_fail, 100.0), f64::INFINITY);
        assert_eq!(percentile(&mut with_fail, 50.0), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
