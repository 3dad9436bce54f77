//! `b3-bench`: the pinned benchmark of the B3 sweep pipeline.
//!
//! ```text
//! b3-bench --workload W --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json command)
//! b3-bench run       [--seed N] [--reps R] [--seconds S]   every workload, R runs each, medians
//! b3-bench trace     [--seed N] [--seconds S]              every workload's per-layer metrics
//! b3-bench stability [--seed N] [--reps R] [--seconds S]   two interleaved sets must agree
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

mod bench;
mod fanout;
mod json;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use fanout::Workers;
use json::Json;
use metrics::Values;
use workloads::{Scale, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: the default `--seconds` of the
/// sub-commands, so their runs are the runs the driver makes.
const RUN_SECONDS: f64 = 20.0;
/// Default `--reps` of `run` and `stability`.
const DEFAULT_REPS: usize = 3;
/// The fifth end-to-end number of `run`: failed / attempted operations.
/// Expected 0 and any increase is a regression, so it has no relative
/// bound and travels as the result line's `attempted` and `failed`.
const FAILED_SHARE: &str = "failed_share";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    smoke: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
        reps: DEFAULT_REPS,
        smoke: false,
        trace_out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |text: &String| {
            text.parse::<f64>()
                .map_err(|e| format!("{flag} {text}: {e}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                let text = value()?;
                parsed.seed = text.parse().map_err(|e| format!("--seed {text}: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = number(value()?)?;
                if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--reps" => {
                let text = value()?;
                parsed.reps = text.parse().map_err(|e| format!("--reps {text}: {e}"))?;
                if parsed.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--smoke" => parsed.smoke = true,
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(values: &Values, attempted: u64, failed: u64) -> Json {
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::obj(values.iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })),
        ),
    ])
}

/// One run of one workload: the command `BENCHMARK.json` names.
fn single(workload: &Workload, args: &Args, process_start: Instant) -> Result<(), String> {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Pinned
    };
    println!("# {}: {}", workload.name, workload.why);
    let (values, attempted, failed) = if args.trace {
        let trace_out = args.trace_out.clone().unwrap_or_else(|| {
            fanout::build_dir()
                .join("b3-bench-trace")
                .join(format!("{}-seed{}.json", workload.name, args.seed))
        });
        let traced = layers::trace(
            workload,
            scale,
            args.seed,
            args.seconds,
            Workers::Processes,
            &trace_out,
        )?;
        println!("# trace written to {}", trace_out.display());
        (traced.values, traced.attempted, traced.failed)
    } else {
        let measured = bench::measure(
            workload,
            scale,
            args.seed,
            args.seconds,
            Workers::Processes,
            process_start,
        )?;
        let o = &measured.outputs;
        println!(
            "# {}: {} passes of {} candidates ({} tested, {} skipped, {} pruned), \
             {} raw reports in {} groups, groups_digest {:032x}",
            workload.name,
            measured.passes,
            o.candidates,
            o.tested,
            o.skipped,
            o.pruned,
            o.raw_reports,
            o.bug_groups,
            o.groups_digest
        );
        (measured.values, measured.attempted, measured.failed)
    };
    for (name, value, unit) in values.iter() {
        println!("{} {name} {value} {unit}", workload.name);
    }
    println!("{}", result_line(&values, attempted, failed));
    Ok(())
}

/// Runs one workload in a fresh child process (so peak RSS and set-up are
/// its own) and returns its metrics, in the order printed, followed by
/// `failed_share`: failed over attempted operations of the run.
fn child(
    workload: &Workload,
    args: &Args,
    trace: bool,
) -> Result<Vec<(String, f64, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{}: child exited {}", workload.name, output.status));
    }
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(line)?;
    let count = |key: &str| result.get(key).and_then(Json::as_f64);
    let (Some(true), Some(attempted), Some(failed)) = (
        result.get("correct").and_then(Json::as_bool),
        count("attempted"),
        count("failed"),
    ) else {
        return Err(format!("{}: child reported {line}", workload.name));
    };
    let metrics = result.get("metrics").ok_or("result line has no metrics")?;
    let mut values = Vec::new();
    for (name, metric) in metrics.entries() {
        match (
            metric.get("value").and_then(Json::as_f64),
            metric.get("unit"),
        ) {
            (Some(value), Some(Json::Str(unit))) => {
                values.push((name.clone(), value, unit.clone()))
            }
            _ => return Err(format!("metric {name} is malformed in {line}")),
        }
    }
    values.push((
        FAILED_SHARE.to_string(),
        failed / attempted,
        "ratio".to_string(),
    ));
    Ok(values)
}

/// `(workload, metric) -> values`, one per run, in first-seen order.
type Samples = Vec<((&'static str, String, String), Vec<f64>)>;

fn add_samples(samples: &mut Samples, workload: &'static str, metrics: Vec<(String, f64, String)>) {
    for (name, value, unit) in metrics {
        match samples
            .iter_mut()
            .find(|((w, n, _), _)| *w == workload && *n == name)
        {
            Some((_, values)) => values.push(value),
            None => samples.push(((workload, name, unit), vec![value])),
        }
    }
}

/// Every workload `reps` times, each run in its own process, interleaved
/// round-robin across reps so machine drift spreads over all workloads.
fn run_set(args: &Args, label: &str, samples: &mut Samples) -> Result<(), String> {
    for workload in &WORKLOADS {
        eprintln!("{label}: {}", workload.name);
        add_samples(samples, workload.name, child(workload, args, false)?);
    }
    Ok(())
}

fn print_samples(samples: &Samples) {
    for ((workload, metric, unit), values) in samples {
        let [q1, q2, q3] = stats::quartiles(values);
        println!(
            "{workload} {metric} {q2} {unit}  (q1 {q1}, q3 {q3}, n {})",
            values.len()
        );
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut samples = Samples::new();
    for rep in 0..args.reps {
        run_set(
            args,
            &format!("rep {}/{}", rep + 1, args.reps),
            &mut samples,
        )?;
    }
    print_samples(&samples);
    Ok(())
}

fn trace_all(args: &Args) -> Result<(), String> {
    for workload in &WORKLOADS {
        for (name, value, unit) in child(workload, args, true)? {
            println!("{} {name} {value} {unit}", workload.name);
        }
    }
    Ok(())
}

/// Two sets of runs of the same code, interleaved A B A B by rep, must
/// agree: for every end-to-end metric the two medians may differ by no more
/// than the metric's bound. Prints each observed spread beside its bound.
fn stability(args: &Args) -> Result<(), String> {
    let (mut a, mut b) = (Samples::new(), Samples::new());
    for rep in 0..args.reps {
        run_set(args, &format!("A {}/{}", rep + 1, args.reps), &mut a)?;
        run_set(args, &format!("B {}/{}", rep + 1, args.reps), &mut b)?;
    }
    let mut disagreements = 0;
    for (((workload, metric, unit), a), (_, b)) in a.iter().zip(&b) {
        let (median_a, median_b) = (stats::median(a), stats::median(b));
        if metric == FAILED_SHARE {
            let verdict = if median_a == median_b {
                "ok"
            } else {
                "DISAGREE"
            };
            println!("{workload} {metric} A {median_a} B {median_b} {unit}  {verdict}");
            disagreements += usize::from(median_a != median_b);
            continue;
        }
        let bound = metrics::bound(metric);
        let drift = metrics::worse_by(metric, median_a, median_b)
            .max(metrics::worse_by(metric, median_b, median_a));
        let both: Vec<f64> = a.iter().chain(b).copied().collect();
        let verdict = if drift <= bound { "ok" } else { "DISAGREE" };
        println!(
            "{workload} {metric} A {median_a} B {median_b} {unit}  drift {:.2}% spread {:.2}% \
             bound {:.0}%  {verdict}",
            drift * 100.0,
            stats::spread(&both) * 100.0,
            bound * 100.0
        );
        disagreements += usize::from(drift > bound);
    }
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} metric(s) differ between two sets of runs by more than their bound"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|arg| arg == "--worker") {
        return ExitCode::from(fanout::worker_main(&argv) as u8);
    }
    let (command, flags) = match argv.first().map(String::as_str) {
        Some(command @ ("run" | "trace" | "stability")) => (Some(command), &argv[1..]),
        _ => (None, &argv[..]),
    };
    let outcome = parse_args(flags).and_then(|args| match (command, &args.workload) {
        (Some("run"), None) => run(&args),
        (Some("trace"), None) => trace_all(&args),
        (Some("stability"), None) => stability(&args),
        (Some(_), Some(_)) => Err("sub-commands run every workload; drop --workload".into()),
        (_, Some(name)) => match workloads::find(name) {
            Some(workload) => single(workload, &args, process_start),
            None => Err(format!(
                "unknown workload {name:?}; the workloads are {}",
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        },
        (_, None) => Err(
            "usage: b3-bench --workload W --seed N --seconds S --trace 0|1 \
                          | run | trace | stability (see README.md)"
                .into(),
        ),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("b3-bench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seconds_matches_benchmark_json() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let strings = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let args = parse_args(&strings(&[
            "--workload",
            "app_walkv",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("app_walkv"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 2.5, true));
        assert_eq!(parse_args(&[]).unwrap().seconds, RUN_SECONDS);
        for bad in [
            &["--trace", "2"][..],
            &["--seed"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--reps", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// All five workloads end to end on their `tiny` spaces, untraced and
    /// traced, with the fan-out's workers as in-process threads (the test
    /// executable cannot be re-exec'd as a worker).
    #[test]
    fn smoke_pass_of_every_workload() {
        for workload in &WORKLOADS {
            for seed in [0, 1] {
                let measured = bench::measure(
                    workload,
                    Scale::Smoke,
                    seed,
                    0.05,
                    Workers::Threads,
                    Instant::now(),
                )
                .unwrap_or_else(|e| panic!("{e}"));
                assert!(measured.passes >= 1 && measured.attempted >= 1);
                assert_eq!(measured.failed, 0);
                for (name, value, _) in measured.values.iter() {
                    // A `tiny` sweep can finish inside one 10 ms CPU tick.
                    let floor = if name == "cpu_us_per_candidate" {
                        -1.0
                    } else {
                        0.0
                    };
                    assert!(
                        value > floor && value.is_finite(),
                        "{} {name} = {value}",
                        workload.name
                    );
                }
                let line = result_line(&measured.values, measured.attempted, measured.failed);
                let keys: Vec<_> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(Json::parse(&line.to_string()).unwrap(), line);
            }

            let trace_out = fanout::fresh_dir("smoke").join("trace.json");
            let traced = layers::trace(
                workload,
                Scale::Smoke,
                0,
                0.05,
                Workers::Threads,
                &trace_out,
            )
            .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(traced.failed, 0);
            assert_eq!(traced.values.iter().count(), metrics::PER_LAYER.len());
            let fanout_only = traced.values.get("distrib.link.frames_rx") > 0.0;
            assert_eq!(fanout_only, workload.name == "seq2_fanout_tcp");
            let app_only = traced.values.get("app.harness.test_workload_s") > 0.0;
            assert_eq!(app_only, workload.name == "app_walkv");
            assert_eq!(
                traced.values.get("ace.generator.candidates") > 0.0,
                !app_only
            );
            assert!(traced.values.get("crashmonkey.crash_states_covered") > 0.0);
            let written = Json::parse(&std::fs::read_to_string(&trace_out).unwrap()).unwrap();
            assert!(!written.get("aggregates").unwrap().entries().is_empty());
            std::fs::remove_dir_all(trace_out.parent().unwrap()).unwrap();
        }
    }
}
