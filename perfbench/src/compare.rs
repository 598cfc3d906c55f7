//! `perf compare <set A files> -- <set B files>`: for each (workload,
//! metric), each set's median and quartiles and whether B's median is
//! within the metric's bound of A's. A file is the standard output of one
//! `perf --workload ...` run.

use std::collections::BTreeMap;

use crate::spec::{self, Better};
use crate::stats::quartiles;

/// One run read back from its output.
#[derive(Debug, Default)]
pub struct RunFile {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Read a run's standard output: its `# name value unit` metric lines and
/// its `# run key=value ...` context line.
pub fn read_run(text: &str) -> Result<RunFile, String> {
    let mut run = RunFile::default();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("# ") else {
            continue;
        };
        match rest.split_whitespace().collect::<Vec<_>>()[..] {
            ["run", ref fields @ ..] => {
                for (key, value) in fields.iter().filter_map(|f| f.split_once('=')) {
                    let count = || value.parse().map_err(|e| format!("{key}={value}: {e}"));
                    match key {
                        "workload" => run.workload = value.to_string(),
                        "attempted" => run.attempted = count()?,
                        "failed" => run.failed = count()?,
                        _ => {}
                    }
                }
            }
            [name, value, _unit] => {
                let v = value.parse().map_err(|e| format!("{name} {value}: {e}"))?;
                run.metrics.insert(name.to_string(), v);
            }
            _ => {}
        }
    }
    if run.workload.is_empty() {
        return Err("no `# run` line naming the workload".into());
    }
    Ok(run)
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's own quartile spread exceeds the bound, and B does not beat
    /// A in every run: the pair cannot be decided.
    Unresolved,
    /// A per-layer metric: no bound to judge against.
    NoBound,
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// `[q1, median, q3]` of each set.
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// How much worse B's median is than A's, as a share of A's (negative:
    /// better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

fn spread(q: &[f64; 3]) -> f64 {
    (q[2] - q[0]) / q[1].abs()
}

/// Compare the values of one metric in two sets of runs.
pub fn judge(metric: &str, a: &[f64], b: &[f64]) -> ([f64; 3], [f64; 3], f64, Verdict) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let m = spec::metric(metric);
    let sign = match m.map(|m| m.better) {
        Some(Better::Higher) => -1.0,
        _ => 1.0,
    };
    let worse_by = sign * (qb[1] - qa[1]) / qa[1].abs();
    let verdict = match m.and_then(|m| m.bound) {
        None => Verdict::NoBound,
        Some(bound) => {
            let b_always_better = match m.map(|m| m.better) {
                Some(Better::Higher) => b.iter().all(|x| a.iter().all(|y| x > y)),
                _ => b.iter().all(|x| a.iter().all(|y| x < y)),
            };
            if (spread(&qa) > bound || spread(&qb) > bound) && !b_always_better {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Within
            }
        }
    };
    (qa, qb, worse_by, verdict)
}

/// Group the runs of both sets by (workload, metric) and judge each pair
/// that has at least two runs on each side.
pub fn compare(a: &[RunFile], b: &[RunFile]) -> Vec<Row> {
    type Groups = BTreeMap<(String, String), Vec<f64>>;
    let group = |runs: &[RunFile]| {
        let mut g: Groups = BTreeMap::new();
        for r in runs {
            for (m, v) in &r.metrics {
                g.entry((r.workload.clone(), m.clone()))
                    .or_default()
                    .push(*v);
            }
        }
        g
    };
    let (ga, gb) = (group(a), group(b));
    let mut rows = Vec::new();
    for ((workload, metric), va) in &ga {
        let Some(vb) = gb.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        if va.len() < 2 || vb.len() < 2 {
            continue;
        }
        let (qa, qb, worse_by, verdict) = judge(metric, va, vb);
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            a: qa,
            b: qb,
            worse_by,
            verdict,
        });
    }
    rows
}

/// Print the comparison table; returns whether every bounded pair is
/// within its bound.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<12} {:<24} {:>12} {:>9} {:>12} {:>9} {:>8}  verdict",
        "workload", "metric", "A median", "A spread", "B median", "B spread", "B worse"
    );
    let mut ok = true;
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE than bound",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        };
        ok &= matches!(r.verdict, Verdict::Within | Verdict::NoBound);
        println!(
            "{:<12} {:<24} {:>12.4} {:>8.2}% {:>12.4} {:>8.2}% {:>7.2}%  {verdict}",
            r.workload,
            r.metric,
            r.a[1],
            100.0 * spread(&r.a),
            r.b[1],
            100.0 * spread(&r.b),
            100.0 * r.worse_by
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_run_file() {
        let text = "# setup_s 0.5 s\n\
            # ok_frac 1 ratio\n\
            # run workload=thm2_pooled seed=3 trace=0 attempted=10 failed=1\n\
            {\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {}}\n";
        let run = read_run(text).unwrap();
        assert_eq!(run.workload, "thm2_pooled");
        assert_eq!((run.attempted, run.failed), (10, 1));
        assert_eq!(run.metrics.len(), 2);
        assert_eq!(run.metrics["setup_s"], 0.5);
        assert_eq!(run.metrics["ok_frac"], 1.0);
        assert!(read_run("# setup_s 0.5 s\n").is_err(), "no workload named");
        assert!(read_run("# setup_s fast s\n# run workload=w\n").is_err());
    }

    #[test]
    fn verdicts_follow_bounds_and_direction() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let bound = spec::metric("setup_s").unwrap().bound.unwrap();
        // Slower set-up by half the bound: within; by twice the bound: worse.
        let b: Vec<f64> = a.iter().map(|x| x * (1.0 + bound / 2.0)).collect();
        assert_eq!(judge("setup_s", &a, &b).3, Verdict::Within);
        let b: Vec<f64> = a.iter().map(|x| x * (1.0 + 2.0 * bound)).collect();
        assert_eq!(judge("setup_s", &a, &b).3, Verdict::Worse);
        // Higher is better for throughput: more of it is a negative worsening.
        assert!(judge("ok_frac", &a, &b).2 < 0.0);
        // A set spreading wider than the bound is unresolved.
        let noisy = [50.0, 100.0, 150.0, 200.0, 400.0];
        assert_eq!(judge("setup_s", &a, &noisy).3, Verdict::Unresolved);
        assert_eq!(judge("pri.us", &a, &b).3, Verdict::NoBound);
    }
}
