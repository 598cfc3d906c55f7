//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this provides the
//! API shape the workspace's benches use — `criterion_group!` /
//! `criterion_main!`, benchmark groups, `bench_function`,
//! `bench_with_input`, `Bencher::iter` — backed by a simple
//! median-of-samples timer instead of criterion's statistics engine.
//!
//! As upstream, the first command-line argument that is not a flag is a
//! filter: `cargo bench --bench build -- interval/` runs only the
//! benchmarks whose `group/id` label contains `interval/`.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver (`criterion::Criterion` stand-in).
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            filter: None,
        }
    }
}

impl Criterion {
    /// Take the filter from the process arguments (see the crate docs);
    /// `criterion_group!` calls this.
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.filter = filter_from_args(std::env::args().skip(1));
        self
    }

    fn wants(&self, label: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| label.contains(f))
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n## {name}");
        BenchmarkGroup {
            parent: self,
            name,
            sample_size: 10,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, mut f: F) {
        let label = id.to_string();
        if self.wants(&label) {
            run_one(&label, self.sample_size, &mut f);
        }
    }
}

/// The first argument that is not a flag (cargo passes `--bench`).
fn filter_from_args(mut args: impl Iterator<Item = String>) -> Option<String> {
    args.find(|a| !a.starts_with('-'))
}

/// A named set of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Time `f`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, mut f: F) {
        self.run(id, &mut f);
    }

    /// Time `f` applied to `input`.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id, &mut |b| f(b, input));
    }

    fn run(&self, id: impl Display, f: &mut dyn FnMut(&mut Bencher)) {
        let label = format!("{}/{id}", self.name);
        if self.parent.wants(&label) {
            run_one(&label, self.sample_size, f);
        }
    }

    /// Finish the group (upstream flushes reports here; we need nothing).
    pub fn finish(self) {}
}

/// A benchmark identifier with a parameter (`criterion::BenchmarkId`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `name/parameter`, as upstream renders it.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            text: format!("{name}/{parameter}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Hands the routine under test to the timing loop.
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u32,
}

impl Bencher {
    /// Time `routine`, recording one sample per call batch.
    #[expect(
        clippy::iter_not_returning_iterator,
        reason = "upstream criterion's method name; it times, it doesn't iterate"
    )]
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            black_box(routine());
        }
        self.samples
            .push(start.elapsed() / self.iters_per_sample.max(1));
    }
}

fn run_one(label: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        samples: Vec::with_capacity(samples),
        iters_per_sample: 1,
    };
    for _ in 0..samples {
        f(&mut b);
    }
    if b.samples.is_empty() {
        println!("{label:<40} (no samples)");
        return;
    }
    b.samples.sort_unstable();
    let median = b.samples[b.samples.len() / 2];
    println!(
        "{label:<40} median {median:?} over {} samples",
        b.samples.len()
    );
}

/// Group benchmark functions under one callable name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        /// Run every benchmark of this group on one configured `Criterion`.
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("demo");
        g.sample_size(3);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>());
        });
        g.finish();
    }

    #[test]
    fn harness_runs() {
        let mut c = Criterion::default();
        sample_bench(&mut c);
        c.bench_function("top-level", |b| b.iter(|| black_box(2) * 2));
    }

    #[test]
    fn filter_skips_non_matching_labels() {
        let mut c = Criterion {
            filter: Some("demo/sum".into()),
            ..Criterion::default()
        };
        let mut ran = Vec::new();
        let mut g = c.benchmark_group("demo");
        g.sample_size(1);
        g.bench_function("noop", |b| {
            ran.push("noop");
            b.iter(|| 1 + 1);
        });
        g.bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
            ran.push("sum");
            b.iter(|| (0..n).sum::<u64>());
        });
        g.finish();
        c.bench_function("top-level", |b| {
            ran.push("top-level");
            b.iter(|| 2 * 2);
        });
        assert_eq!(ran, ["sum"]);
    }

    #[test]
    fn flags_are_not_filters() {
        let args = |xs: &[&str]| filter_from_args(xs.iter().map(ToString::to_string));
        assert_eq!(
            args(&["--bench", "interval/"]).as_deref(),
            Some("interval/")
        );
        assert_eq!(args(&["--bench"]), None);
    }

    #[test]
    fn benchmark_id_formats_like_upstream() {
        assert_eq!(BenchmarkId::new("thm2", 10).to_string(), "thm2/10");
    }
}
