//! The experiments E1–E23 and E25 (see DESIGN.md §4 for the index).

pub mod ablation;
pub mod baseline;
pub mod batch;
pub mod faults;
pub mod kernels;
pub mod persist;
pub mod problems;
pub mod reductions;
pub mod sampling;
pub mod serve;
pub mod space;
pub mod trace;
pub mod updates;

use emsim::{CostModel, CostReport};

/// Average read-I/Os per call of `run` over `queries` inputs.
pub fn avg_ios<Q>(model: &CostModel, queries: &[Q], mut run: impl FnMut(&Q)) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    model.reset();
    for q in queries {
        run(q);
    }
    model.report().reads as f64 / queries.len() as f64
}

/// Like [`avg_ios`], but also attribute the reads by phase: returns the
/// average total plus a [`CostReport`] whose per-phase counts cover the
/// whole query loop (divide by `queries.len()` for per-query figures).
pub fn avg_ios_explained<Q>(
    model: &CostModel,
    queries: &[Q],
    mut run: impl FnMut(&Q),
) -> (f64, CostReport) {
    if queries.is_empty() {
        return (0.0, CostReport::default());
    }
    model.reset();
    let ((), report) = model.explain(|| {
        for q in queries {
            run(q);
        }
    });
    (model.report().reads as f64 / queries.len() as f64, report)
}

/// Geometric sequence of problem sizes `start, start·2, …, ≤ end`.
pub fn sizes(start: usize, end: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut n = start;
    while n <= end {
        v.push(n);
        n *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_doubles() {
        assert_eq!(sizes(1_000, 8_000), vec![1_000, 2_000, 4_000, 8_000]);
        assert_eq!(sizes(10, 9), Vec::<usize>::new());
    }

    #[test]
    fn avg_ios_averages() {
        let model = CostModel::new(emsim::EmConfig::new(64));
        let queries = vec![1u32, 2, 3, 4];
        let avg = avg_ios(&model, &queries, |_| model.charge_reads(10));
        assert_eq!(avg, 10.0);
        assert_eq!(avg_ios(&model, &Vec::<u32>::new(), |_| {}), 0.0);
    }
}
