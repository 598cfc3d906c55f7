//! `perf`: the paper-scale wall-clock benchmark. See README.md.
//!
//! ```text
//! perf --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--smoke]
//! perf --seed <n> [...]          every workload, each in a child process
//! perf --manifest                print BENCHMARK.json
//! perf compare <A runs> -- <B runs>
//! ```

mod compare;
mod gen;
mod layers;
mod serve;
mod spec;
mod stats;
mod work;

use std::process::{Command, ExitCode, Stdio};

use spec::{Metric, Workload, END_TO_END, PER_LAYER};
use work::{Config, Outcome};

/// Environment variables that would change the substrate under the
/// benchmark without saying so; a run refuses to start if one is set.
const FORBIDDEN_ENV: [&str; 7] = [
    "EMSIM_DEVICE",
    "EMSIM_CODEC",
    "EMSIM_KERNELS",
    "FAULT_RATE",
    "FAULT_SEED",
    "TRACE_SINK",
    "SCALE",
];

fn forbidden_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| FORBIDDEN_ENV.contains(&k.as_str()) || k.starts_with("EMSIM_SERVE_"))
        .collect()
}

struct Args {
    workload: Option<Workload>,
    config: Config,
    smoke: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perf: {msg}");
    eprintln!(
        "usage: perf [--workload <{}>] --seed <n> [--seconds <s>] [--trace 0|1] [--smoke]\n       \
         perf --manifest\n       perf compare <A runs...> -- <B runs...>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let (shrink, seconds) = if smoke {
        (16, seconds / 50.0)
    } else {
        (1, seconds)
    };
    Ok(Args {
        workload,
        config: Config {
            seed,
            seconds,
            shrink,
            trace,
            spans: None,
        },
        smoke,
    })
}

/// Run one workload in this process.
pub fn run_workload(w: Workload, cfg: &Config) -> Outcome {
    let outcome = match w {
        Workload::ServeZipf => serve::run(cfg),
        _ => work::run_closed(w, cfg),
    };
    let expected: &[Metric] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut got: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    let mut want: Vec<&str> = expected.iter().map(|m| m.name).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{} reports exactly the listed metrics", w.name());
    outcome
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn unit(name: &str) -> &'static str {
    spec::metric(name).map_or("", |m| m.unit)
}

fn single(w: Workload, args: &Args) -> ExitCode {
    let mut cfg = args.config.clone();
    if cfg.trace {
        // Next to the binary, in the build directory.
        cfg.spans = std::env::current_exe().ok().and_then(|exe| {
            let dir = exe.parent()?.join("perf-spans");
            Some(dir.join(format!("spans-{}.tsv", w.name())))
        });
    }
    let o = run_workload(w, &cfg);
    for (name, v) in &o.metrics {
        println!("# {name} {v} {}", unit(name));
    }
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!(
        "# run workload={} seed={} trace={} seconds={} smoke={} backend={} cores={cores} \
         attempted={} failed={}",
        w.name(),
        cfg.seed,
        u8::from(cfg.trace),
        cfg.seconds,
        args.smoke,
        emsim::active_backend().name(),
        o.attempted,
        o.failed,
    );
    let metrics: Vec<(String, f64, &str)> = o
        .metrics
        .iter()
        .map(|(n, v)| (n.to_string(), *v, unit(n)))
        .collect();
    println!(
        "{}",
        result_line(o.correct, o.attempted, o.failed, &metrics)
    );
    if !o.correct {
        eprintln!("perf: {} gave wrong answers", w.name());
    }
    ExitCode::from(exit_status(&o))
}

/// The process exit status for a run: non-zero on any wrong answer.
fn exit_status(o: &Outcome) -> u8 {
    u8::from(!o.correct)
}

/// Every workload, each in a child process of this binary so that peak
/// memory is measured per workload.
fn all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return usage(&format!("cannot find own executable: {e}")),
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(raw)
            .args(["--workload", w.name()])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => return usage(&format!("cannot run {}: {e}", w.name())),
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        correct &= out.status.success();
        let Ok(run) = compare::read_run(&text) else {
            correct = false;
            continue;
        };
        attempted += run.attempted;
        failed += run.failed;
        for (name, v) in run.metrics {
            metrics.push((format!("{}.{name}", w.name()), v, unit(&name)));
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_cmd(files: &[String]) -> ExitCode {
    let Some(split) = files.iter().position(|a| a == "--") else {
        return usage("compare needs `--` between the two sets");
    };
    let read = |paths: &[String]| -> Result<Vec<compare::RunFile>, String> {
        paths
            .iter()
            .map(|p| {
                // allow_invariant(device-hygiene): reads saved benchmark
                // output, not block storage.
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                compare::read_run(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (a, b) = match (read(&files[..split]), read(&files[split + 1..])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    if compare::print(&compare::compare(&a, &b)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", spec::manifest());
            return ExitCode::SUCCESS;
        }
        Some("compare") => return compare_cmd(&raw[1..]),
        _ => {}
    }
    let set = forbidden_env();
    if !set.is_empty() {
        return usage(&format!(
            "refusing to run with substrate variables set: {}",
            set.join(", ")
        ));
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match args.workload {
        Some(w) => single(w, &args),
        None => all(&raw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, trace: bool) -> Config {
        Config {
            seed,
            seconds: 0.05,
            shrink: 64,
            trace,
            spans: None,
        }
    }

    #[test]
    fn smoke_run_of_every_workload_passes() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let o = run_workload(w, &tiny(5, trace));
                assert!(o.correct, "{} trace={trace}: {o:?}", w.name());
                assert_eq!(o.failed, 0, "{}", w.name());
                assert!(o.attempted > 0);
                if !trace {
                    for (name, v) in &o.metrics {
                        assert!(v.is_finite() && *v > 0.0, "{} {name} = {v}", w.name());
                    }
                }
            }
        }
    }

    #[test]
    fn a_wrong_answer_exits_non_zero() {
        let o = |correct| Outcome {
            correct,
            attempted: 10,
            failed: 1,
            metrics: Vec::new(),
        };
        assert_eq!(exit_status(&o(false)), 1);
        assert_eq!(exit_status(&o(true)), 0);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload thm1_select --seed 3 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Thm1Select));
        assert_eq!(
            (a.config.seed, a.config.seconds, a.config.trace),
            (3, 2.0, true)
        );
        let s = parse_args(&argv("--seed 1 --smoke")).unwrap();
        assert_eq!(s.config.shrink, 16);
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--trace 2 --seed 1")).is_err());
        assert!(
            parse_args(&argv("--workload thm2_churn")).is_err(),
            "seed required"
        );
    }
}
