//! The repo benchmark. See `perfbench/README.md` for the metric glossary,
//! the workloads and the call surface it freezes, and `BENCHMARK.json` for
//! the declared names and bounds.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! perf all    [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perf repeat [--sets 2] [--runs 5] [--seed N] [--seconds S]
//! perf digests                                            regenerate digests.json
//! ```

mod digest;
mod harness;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use harness::{drive, found_golden, Outcome, RunConfig, Workload};
use json::Json;
use spec::{Metric, Spec};
use workloads::condition::ConditionAssert;
use workloads::hard::HardConfidence;
use workloads::sensor::SensorIngestServe;
use workloads::tpch::{ConfCold, ServeWarm};

#[global_allocator]
static ALLOCATOR: trace::CountingAllocator = trace::CountingAllocator;

/// Set-up runs this many times per run and the median is reported.
const SETUPS: usize = 3;
/// `--smoke`: same code paths, about a twentieth of the window, one set-up.
const SMOKE_SECONDS: f64 = 0.5;

struct Cli {
    mode: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    samples: bool,
    sets: usize,
    runs: usize,
    trace_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: "run".to_string(),
        workload: None,
        seed: digest::PINNED_SEEDS[0],
        seconds: None,
        trace: false,
        smoke: false,
        samples: false,
        sets: 2,
        runs: 5,
        // Inside the benchmark's own directory, and named in .gitignore.
        trace_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces"),
    };
    let mut args = args.iter().peekable();
    if let Some(first) = args.peek() {
        if !first.starts_with("--") {
            cli.mode = args.next().cloned().unwrap_or_default();
        }
    }
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: `{text}` is not a valid value"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = number(flag, value()?)?,
            "--seconds" => {
                let seconds: f64 = number(flag, value()?)?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--trace-dir" => cli.trace_dir = PathBuf::from(value()?),
            "--sets" => cli.sets = number(flag, value()?)?,
            "--runs" => cli.runs = number(flag, value()?)?,
            "--smoke" => cli.smoke = true,
            "--samples" => cli.samples = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Evaluates `$body` with `$W` bound to the workload type called `$name`:
/// the one place a declared name meets its implementation.
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {
        match $name {
            "tpch_conf_cold" => {
                type $W = ConfCold;
                Ok($body)
            }
            "tpch_serve_warm" => {
                type $W = ServeWarm;
                Ok($body)
            }
            "hard_confidence" => {
                type $W = HardConfidence;
                Ok($body)
            }
            "condition_assert" => {
                type $W = ConditionAssert;
                Ok($body)
            }
            "sensor_ingest_serve" => {
                type $W = SensorIngestServe;
                Ok($body)
            }
            other => Err(format!("unknown workload `{other}`")),
        }
    };
}

fn run_workload(name: &str, config: &RunConfig) -> Result<Outcome, String> {
    with_workload!(name, W => drive::<W>(config))?
}

/// The sample count behind a metric, for `perf all`.
fn sample_count(metric: &str, outcome: &Outcome) -> u64 {
    match metric {
        "setup_s" => outcome.setups,
        "ops_s" => outcome.reads + outcome.writes,
        "read_p50_ms" | "read_p90_ms" => outcome.reads,
        _ => 1,
    }
}

/// The result line of one run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every declared metric of the run's mode
/// (`n` is added only for `perf all`, which asks with `--samples`).
fn result_json(declared: &[Metric], outcome: &Outcome, with_samples: bool) -> Json {
    let metrics = declared.iter().map(|metric| {
        let value = outcome.metrics.get(&metric.name).copied().unwrap_or(0.0);
        let mut fields = vec![
            ("value".to_string(), Json::Num(value)),
            ("unit".to_string(), Json::Str(metric.unit.clone())),
        ];
        if with_samples {
            let n = sample_count(&metric.name, outcome);
            fields.push(("n".to_string(), Json::Num(n as f64)));
        }
        (metric.name.clone(), Json::Obj(fields))
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics.collect())),
    ])
}

fn single_run(cli: &Cli, spec: &Spec) -> Result<(), String> {
    let workload = cli
        .workload
        .clone()
        .ok_or("--workload is required (or use `perf all`)")?;
    if !spec.workloads.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}`; BENCHMARK.json declares {:?}",
            spec.workloads
        ));
    }
    let seconds = match (cli.smoke, cli.seconds) {
        (_, Some(seconds)) => seconds,
        (true, None) => SMOKE_SECONDS,
        (false, None) => spec.run_seconds,
    };
    let config = RunConfig {
        workload: workload.clone(),
        seed: cli.seed,
        window: Duration::from_secs_f64(seconds),
        trace: cli.trace,
        setups: if cli.smoke { 1 } else { SETUPS },
        trace_dir: cli.trace_dir.clone(),
    };
    let outcome = run_workload(&workload, &config)?;
    println!(
        "{}",
        result_json(spec.metrics(cli.trace), &outcome, cli.samples)
    );
    Ok(())
}

/// Runs one workload in a fresh child process, so `peak_rss_mb` is the
/// workload's own, and returns its result line.
fn child_run(cli: &Cli, workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--samples"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&cli.trace_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(seconds) = cli.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload}: child run failed with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: child printed nothing"))?;
    Json::parse(last)
}

fn all(cli: &Cli, spec: &Spec) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut clean = true;
    for workload in &spec.workloads {
        let result = child_run(cli, workload, cli.seed)?;
        clean &= result.get("correct").and_then(Json::as_bool) == Some(true);
        let mut entry = result
            .get("metrics")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .unwrap_or_default();
        for key in ["attempted", "failed"] {
            let value = result.get(key).cloned().unwrap_or(Json::Null);
            entry.push((key.to_string(), value));
        }
        workloads.push((workload.clone(), Json::Obj(entry)));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{}",
        Json::obj([
            ("workloads", Json::Obj(workloads)),
            ("seed", Json::Num(cli.seed as f64)),
            ("trace", Json::Bool(cli.trace)),
            ("smoke", Json::Bool(cli.smoke)),
            ("cores", Json::Num(cores as f64)),
            // This benchmark is the baseline later claims are measured
            // against; it makes none itself.
            ("claim", Json::Null),
        ])
    );
    Ok(clean)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(metric: &Metric, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if metric.lower_is_better {
        change
    } else {
        -change
    }
}

/// The driver's acceptance test, run locally: `sets` sets of `runs` runs per
/// workload, each run with another seed; per gated metric the spread within
/// each set and the worsening of the later set's median must stay within
/// the metric's bound (`setup_s` is exempt from the spread test).
fn repeat(cli: &Cli, spec: &Spec) -> Result<bool, String> {
    if cli.sets == 0 || cli.runs < 2 {
        return Err("repeat needs --sets >= 1 and --runs >= 2".to_string());
    }
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<(String, String), Vec<Vec<f64>>> = BTreeMap::new();
    let mut clean = true;
    for set in 0..cli.sets {
        for workload in &spec.workloads {
            for run in 0..cli.runs {
                let result = child_run(cli, workload, cli.seed + run as u64)?;
                clean &= result.get("correct").and_then(Json::as_bool) == Some(true);
                for metric in &spec.end_to_end {
                    let value = result
                        .get("metrics")
                        .and_then(|m| m.get(&metric.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{workload}: no `{}` in result", metric.name))?;
                    let sets = values
                        .entry((workload.clone(), metric.name.clone()))
                        .or_insert_with(|| vec![Vec::new(); cli.sets]);
                    sets[set].push(value);
                }
            }
        }
    }
    let mut report = Vec::new();
    for workload in &spec.workloads {
        let mut entry = Vec::new();
        for metric in &spec.end_to_end {
            let sets = &values[&(workload.clone(), metric.name.clone())];
            let bound = metric.bound.unwrap_or(0.0);
            let medians: Vec<f64> = sets.iter().map(|runs| stats::median(runs)).collect();
            let spreads: Vec<f64> = sets
                .iter()
                .map(|runs| stats::spread(runs).unwrap_or(0.0))
                .collect();
            let between = medians
                .windows(2)
                .map(|pair| worsening(metric, pair[0], pair[1]))
                .fold(0.0, f64::max);
            let steady = metric.name == "setup_s" || spreads.iter().all(|s| *s <= bound);
            let ok = steady && between <= bound;
            clean &= ok;
            let quartiles = sets.iter().map(|runs| {
                let [q1, _, q3] = stats::quartiles(runs).unwrap_or_default();
                Json::Arr(vec![Json::Num(q1), Json::Num(q3)])
            });
            entry.push((
                metric.name.clone(),
                Json::obj([
                    ("unit", Json::Str(metric.unit.clone())),
                    (
                        "medians",
                        Json::Arr(medians.into_iter().map(Json::Num).collect()),
                    ),
                    ("quartiles", Json::Arr(quartiles.collect())),
                    (
                        "spreads",
                        Json::Arr(spreads.into_iter().map(Json::Num).collect()),
                    ),
                    (
                        "values",
                        Json::Arr(
                            sets.iter()
                                .map(|runs| {
                                    Json::Arr(runs.iter().copied().map(Json::Num).collect())
                                })
                                .collect(),
                        ),
                    ),
                    ("between_sets", Json::Num(between)),
                    ("bound", Json::Num(bound)),
                    ("ok", Json::Bool(ok)),
                ]),
            ));
        }
        report.push((workload.clone(), Json::Obj(entry)));
    }
    println!(
        "{}",
        Json::obj([
            ("workloads", Json::Obj(report)),
            ("sets", Json::Num(cli.sets as f64)),
            ("runs", Json::Num(cli.runs as f64)),
            ("first_seed", Json::Num(cli.seed as f64)),
            ("ok", Json::Bool(clean)),
            ("claim", Json::Null),
        ])
    );
    Ok(clean)
}

/// Prints the content of `digests.json` for the pinned seeds.
fn digests(spec: &Spec) -> Result<(), String> {
    let mut root = Vec::new();
    for workload in &spec.workloads {
        let mut entries = Vec::new();
        for seed in digest::PINNED_SEEDS {
            let golden = with_workload!(workload.as_str(), W => found_golden(&W::setup(seed)))?;
            entries.push((seed.to_string(), golden.to_json()));
        }
        root.push((workload.clone(), Json::Obj(entries)));
    }
    // One workload per line keeps the file reviewable.
    println!("{{");
    for (i, (workload, entry)) in root.iter().enumerate() {
        let comma = if i + 1 == root.len() { "" } else { "," };
        println!("  {}: {entry}{comma}", Json::Str(workload.clone()));
    }
    println!("}}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Spec::load().and_then(|spec| {
        let cli = parse_cli(&args)?;
        match cli.mode.as_str() {
            "run" => single_run(&cli, &spec).map(|()| true),
            "all" => all(&cli, &spec),
            "repeat" => repeat(&cli, &spec),
            "digests" => digests(&spec).map(|()| true),
            other => Err(format!("unknown mode `{other}`")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name.as_str()).collect()
    }

    /// A short real run of the cheapest workload, traced and untraced: the
    /// printed JSON must hold exactly the declared names, and every declared
    /// workload must dispatch.
    #[test]
    fn emitted_json_has_exactly_the_declared_names() {
        let spec = Spec::load().unwrap();
        assert_eq!(
            spec.workloads,
            [
                "tpch_conf_cold",
                "tpch_serve_warm",
                "hard_confidence",
                "condition_assert",
                "sensor_ingest_serve"
            ]
        );
        for trace in [false, true] {
            let config = RunConfig {
                workload: "condition_assert".to_string(),
                seed: 11,
                window: Duration::from_millis(50),
                trace,
                setups: 1,
                // Inside the benchmark's directory and named in .gitignore.
                trace_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces/test"),
            };
            let outcome = run_workload(&config.workload, &config).unwrap();
            assert!(
                outcome.correct,
                "failed {} of {}",
                outcome.failed, outcome.attempted
            );
            let declared = spec.metrics(trace);
            let printed = result_json(declared, &outcome, false);
            assert_eq!(
                printed
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect::<Vec<_>>(),
                ["correct", "attempted", "failed", "metrics"]
            );
            let metrics = printed.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(
                metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                names(declared)
            );
            for (name, fields) in metrics {
                let keys: Vec<&str> = fields
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["value", "unit"], "{name}");
            }
            // Nothing the run computes is missing from the declaration: a
            // metric that is computed but not declared would be dropped
            // silently.
            for computed in outcome.metrics.keys() {
                let known = names(&spec.end_to_end).contains(&computed.as_str())
                    || names(&spec.per_layer).contains(&computed.as_str())
                    || INTERNAL.contains(&computed.as_str());
                assert!(known, "`{computed}` is computed but not in BENCHMARK.json");
            }
        }
        assert!(run_workload(
            "no_such_workload",
            &RunConfig {
                workload: String::new(),
                seed: 0,
                window: Duration::ZERO,
                trace: false,
                setups: 1,
                trace_dir: PathBuf::new(),
            }
        )
        .is_err());
    }

    /// Span names and helper counters that feed declared metrics without
    /// being metrics themselves.
    const INTERNAL: [&str; 7] = [
        "read_ms",
        "write_ms",
        "alloc.count",
        "alloc.bytes",
        "alloc.ops",
        "core.parallel.fold_1w_ms",
        "probe.warm_answer_ms",
    ];

    #[test]
    fn declared_metrics_meet_the_contract() {
        let spec = Spec::load().unwrap();
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        for metric in &spec.end_to_end {
            let bound = metric.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!(spec.per_layer.len() <= 128);
        let mut all: Vec<&str> = names(&spec.end_to_end);
        all.extend(names(&spec.per_layer));
        all.extend(spec.workloads.iter().map(String::as_str));
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used once");
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = Metric {
            name: "read_p50_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(0.1),
        };
        let higher = Metric {
            lower_is_better: false,
            ..lower.clone()
        };
        assert!((worsening(&lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 8.0) - 0.2).abs() < 1e-12);
        assert_eq!(worsening(&lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn cli_accepts_the_driver_form_and_rejects_nonsense() {
        let args = |text: &str| {
            text.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
        };
        let cli = parse_cli(&args(
            "--workload hard_confidence --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.mode, "run");
        assert_eq!(cli.workload.as_deref(), Some("hard_confidence"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (3, Some(10.0), true));
        let cli = parse_cli(&args("repeat --sets 3 --runs 10")).unwrap();
        assert_eq!((cli.mode.as_str(), cli.sets, cli.runs), ("repeat", 3, 10));
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("--seconds -1")).is_err());
        assert!(parse_cli(&args("--bogus")).is_err());
    }
}
