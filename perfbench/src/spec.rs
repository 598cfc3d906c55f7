//! The benchmark's single source of truth: workloads, metrics, bounds, and
//! the `BENCHMARK.json` manifest generated from them (`perf --manifest`).

/// How long one run measures by default, in seconds.
pub const RUN_SECONDS: u64 = 8;

/// The benchmark's workloads. Each stresses a different layer; see
/// `why` and README.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Thm2Pooled,
    Thm1Select,
    Thm2Churn,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Thm2Pooled,
        Workload::Thm1Select,
        Workload::Thm2Churn,
        Workload::ServeZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm2Pooled => "thm2_pooled",
            Workload::Thm1Select => "thm1_select",
            Workload::Thm2Churn => "thm2_churn",
            Workload::ServeZipf => "serve_zipf",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::Thm2Pooled => {
                "Thm 2 small-k queries with sampling rounds on 2^17 intervals, index far larger than \
                 its 1024-frame LRU pool: prioritized probes and pool misses do the work"
            }
            Workload::Thm1Select => {
                "Thm 1 over PstStab, no pool: each query is one full prioritized probe plus a \
                 k-selection over ~3.9k matches, so select dominates and the pool is bypassed"
            }
            Workload::Thm2Churn => {
                "Dynamic Thm 2 over DynStabbing, 45% inserts, 45% deletes, 10% k=10 queries: \
                 update bookkeeping and periodic grid rebuilds show next to reads"
            }
            Workload::ServeZipf => {
                "Open-loop Poisson traffic at 4k and 8k req/s, then a flood, through serve's \
                 batcher into a Thm 2 index whose hot set fits its 65536-frame pool"
            }
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. `bound` (end-to-end metrics only) is the share of
/// the parent's median by which the metric may worsen before a change
/// counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off, reported by every
/// workload. The I/O counts are exact for a seed; across seeds they, and
/// space, move with each index's random sample, which `work::plan`
/// averages over several builds. Each bound is at least three times the
/// widest spread over ten seeds (README.md has the runs). Wall-clock
/// latency and throughput are per-layer metrics: on a shared 2-core VM they
/// moved by 20–36 % between runs with the host's own slow spells; compare
/// them with `perf compare` over alternating runs. `setup_s` moves the same
/// way, by 7–36 % over ten seeds, so it has the largest bound allowed.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ios_per_query", "count", Lower, 0.10),
    e2e("ios_per_update", "count", Lower, 0.025),
    e2e("space_blocks_per_item", "blocks/item", Lower, 0.025),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("ok_frac", "ratio", Higher, 0.001),
];

/// Per-layer metrics, from the separate traced run. Per op unless the
/// name says otherwise; 0 where the workload does not use the layer.
pub const PER_LAYER: [Metric; 41] = [
    layer("p50_us", "us", Lower),
    layer("ops_per_s", "1/s", Higher),
    layer("p99_us", "us", Lower),
    layer("query.p50_us", "us", Lower),
    layer("update.p50_us", "us", Lower),
    layer("op.us", "us", Lower),
    layer("reduction.self_us", "us", Lower),
    layer("pri.calls", "count", Lower),
    layer("pri.us", "us", Lower),
    layer("pri.reported", "count", Lower),
    layer("pri.useful_frac", "ratio", Higher),
    layer("pri.us_per_update", "us", Lower),
    layer("pri.build_s", "s", Lower),
    layer("max.calls", "count", Lower),
    layer("max.us", "us", Lower),
    layer("max.us_per_update", "us", Lower),
    layer("max.build_s", "s", Lower),
    layer("select.calls", "count", Lower),
    layer("select.us", "us", Lower),
    layer("select.share", "ratio", Lower),
    layer("probe.reads", "count", Lower),
    layer("sample.reads", "count", Lower),
    layer("select.reads", "count", Lower),
    layer("scan.reads", "count", Lower),
    layer("other.writes", "count", Lower),
    layer("meter.reads", "count", Lower),
    layer("meter.writes", "count", Lower),
    layer("pool.touches", "count", Lower),
    layer("pool.hit_rate", "ratio", Higher),
    layer("device.pwrites_per_item", "count", Lower),
    layer("device.bytes_written_per_item", "B", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.batch_size", "count", Higher),
    layer("serve.index_us", "us", Lower),
    layer("serve.wait_us", "us", Lower),
    layer("serve.gen_late_p99_us", "us", Lower),
    layer("serve.p50_us_4k", "us", Lower),
    layer("serve.p50_us_8k", "us", Lower),
    layer("serve.p99_us_4k", "us", Lower),
    layer("serve.p99_us_8k", "us", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Look a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The directory holding the benchmark, relative to the repository root.
pub const PATH: &str = "perfbench";

/// The command the benchmark runs under, relative to the repository root.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perf",
    "--",
];

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, as checked in at the repository root.
pub fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.name())
        )
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        json_str(PATH),
        list(workloads),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let checked_in = include_str!("../../BENCHMARK.json");
        assert_eq!(
            checked_in,
            manifest(),
            "regenerate with `perf --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_bounds_are_within_the_manifest_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25);
            assert!(
                b <= END_TO_END[0].bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        for w in Workload::ALL {
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
