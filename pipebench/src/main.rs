//! End-to-end benchmark of `trace-tools`: a trace file in, an output file
//! out, each operation an in-process `parse_args` + `run` call.
//!
//! ```text
//! pipebench --workload NAME --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--work-dir DIR]
//! ```
//!
//! `--trace 0` times the untraced operation and prints the end-to-end
//! metrics; `--trace 1` alternates untraced operations with traced ones
//! (see `traced.rs`) and prints the per-layer metrics.  The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.  See README.md for the metrics and workloads.

mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use stats::{beyond, median, quantile};
use traced::{Tracer, METRICS};
use workload::{run_op, set_up, Kind, Setup, Size};

/// Untraced operations a `--trace 0` run makes at least, so that the
/// 90th percentile has at least ten samples beyond it.
const MIN_SAMPLES: usize = 100;
/// Traced (and as many untraced) operations a `--trace 1` run makes at least.
const MIN_TRACED: usize = 10;
/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Child processes per run that each perform one operation for `peak_rss_mb`.
const RSS_CHILDREN: usize = 5;
/// However slow the machine, a run stops measuring this long after start.
const MEASURE_CAP: Duration = Duration::from_secs(120);

/// The end-to-end metrics, with units, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_ms_p50", "ms"),
    ("wall_ms_p90", "ms"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
    ("output_bytes", "bytes"),
    ("setup_s", "s"),
];

struct Options {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    work_dir: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found {flag:?}"))?;
        let value = iter
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        if values.insert(name, value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    let take = |name: &str| values.get(name).copied();
    let require = |name: &str| take(name).ok_or_else(|| format!("--{name} is required"));
    for name in values.keys() {
        if !["workload", "seed", "seconds", "trace", "size", "work-dir"].contains(name) {
            return Err(format!("unknown option --{name}"));
        }
    }
    let workload = require("workload")?;
    let kind = Kind::by_name(workload).ok_or_else(|| {
        let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {workload:?}; known: {}", known.join(", "))
    })?;
    let number = |name: &str| -> Result<u64, String> {
        let raw = require(name)?;
        raw.parse()
            .map_err(|_| format!("--{name} expects a whole number, got {raw:?}"))
    };
    let trace = match require("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let size = match take("size") {
        None => Size::Full,
        Some(name) => Size::by_name(name).ok_or(format!("unknown --size {name:?}"))?,
    };
    Ok(Options {
        kind,
        seed: number("seed")?,
        seconds: number("seconds")?.max(1),
        trace,
        size,
        work_dir: PathBuf::from(take("work-dir").unwrap_or(".pipebench_work")),
    })
}

/// Tally of operations attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, result: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("operation failed: {e}");
        }
    }
}

/// Times one untraced operation and checks its output outside the timing.
fn timed_op(setup: &Setup, tally: &mut Tally) -> (f64, Option<Vec<u8>>) {
    let args = setup.args(&setup.output);
    let start = Instant::now();
    let result = run_op(&args);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let checked = result.and_then(|_| setup.check_output(&setup.output));
    tally.record(&checked);
    (ms, checked.ok())
}

/// Keeps measuring while under `seconds` or `min` rounds, up to the cap.
fn keep_going(start: Instant, seconds: u64, rounds: usize, min: usize) -> bool {
    let elapsed = start.elapsed();
    (elapsed < Duration::from_secs(seconds) || rounds < min) && elapsed < MEASURE_CAP
}

/// Peak resident memory of one operation in a fresh child process, in MB.
fn child_peak_rss_mb(setup: &Setup, dir: &Path, tally: &mut Tally) -> Option<f64> {
    let out = dir.join("child-output.trc");
    let result = (|| {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let output = Command::new(exe)
            .arg("child")
            .args(setup.args(&out))
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!(
                "child failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        setup.check_output(&out)?;
        stdout
            .lines()
            .last()
            .and_then(|line| line.strip_prefix("vmhwm_kb "))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("child printed no peak: {stdout}"))
    })();
    tally.record(&result);
    result.ok()
}

/// The `child` mode: one CLI operation, then the process's `VmHWM`.
fn child_main(args: &[String]) -> ExitCode {
    if let Err(e) = run_op(args) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(kb) = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
    else {
        eprintln!("no VmHWM in /proc/self/status");
        return ExitCode::FAILURE;
    };
    println!("vmhwm_kb {kb}");
    ExitCode::SUCCESS
}

fn print_facts(setup: &Setup) {
    let mut line = format!(
        "workload {} seed {} events {} ranks {} input_bytes {}",
        setup.kind.name(),
        setup.seed,
        setup.events,
        setup.ranks,
        setup.input_bytes
    );
    match setup.reduction_facts() {
        Some((stored, execs, degree)) => line.push_str(&format!(
            " stored_segments {stored} executions {execs} degree_of_matching {degree:.6}"
        )),
        None => line.push_str(" stored_segments n/a executions n/a degree_of_matching n/a"),
    }
    println!("{line}");
}

/// Formats a metric value as a JSON number.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn print_result(tally: &Tally, metrics: &[(&str, &str, f64)]) {
    for (name, unit, value) in metrics {
        println!("{name} {} {unit}", json_number(*value));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

/// Sets up the workload and warms up with one checked operation, whose
/// outcome counts like any other.
fn set_up_and_warm(options: &Options, dir: &Path, tally: &mut Tally) -> Result<Setup, String> {
    let setup = set_up(options.kind, options.size, options.seed, dir)?;
    timed_op(&setup, tally);
    Ok(setup)
}

/// `--trace 0`: set-up time, the untraced operation's timing, peak memory
/// and output size.
fn end_to_end(options: &Options, dir: &Path, tally: &mut Tally) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        setup = Some(set_up_and_warm(options, dir, tally)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let setup = setup.expect("SETUPS is positive");
    print_facts(&setup);

    let mut wall_ms = Vec::new();
    let mut output_bytes = 0usize;
    let start = Instant::now();
    while keep_going(start, options.seconds, wall_ms.len(), MIN_SAMPLES) {
        let (ms, output) = timed_op(&setup, tally);
        wall_ms.push(ms);
        if let Some(bytes) = output {
            output_bytes = bytes.len();
        }
    }
    let rss: Vec<f64> = (0..RSS_CHILDREN)
        .filter_map(|_| child_peak_rss_mb(&setup, dir, tally))
        .collect();

    let p50 = median(&wall_ms);
    println!("setups_s {setup_s:?}");
    println!("child_peak_rss_mb {rss:?}");
    println!(
        "samples {} beyond_p90 {} failed_frac {} ratio",
        wall_ms.len(),
        beyond(&wall_ms, 0.9),
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let values = [
        p50,
        quantile(&wall_ms, 0.9),
        setup.events as f64 / (p50 / 1e3),
        median(&rss),
        output_bytes as f64,
        median(&setup_s),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();
    print_result(tally, &metrics);
    Ok(())
}

/// `--trace 1`: untraced and traced operations alternate; the per-layer
/// metrics are medians over the traced ones.
fn per_layer(options: &Options, dir: &Path, tally: &mut Tally) -> Result<(), String> {
    let setup = set_up_and_warm(options, dir, tally)?;
    print_facts(&setup);
    let chain_out = dir.join("chain-output.trc");
    let mut tracer = Tracer::default();
    let mut untraced_ms = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while keep_going(start, options.seconds, traced.len(), MIN_TRACED) {
        let (ms, expected) = timed_op(&setup, tally);
        untraced_ms.push(ms);
        let op = untraced_ms.len() as u32;
        let result = traced::run_chain(&setup, &mut tracer, op, &chain_out).and_then(
            |(bytes, traced_op)| match &expected {
                Some(expected) if *expected == bytes => Ok(traced_op),
                Some(_) => Err("the traced chain's output differs from the CLI's".to_string()),
                None => Err("no checked CLI output to compare the chain with".to_string()),
            },
        );
        tally.record(&result);
        if let Ok(traced_op) = result {
            traced.push(traced_op);
        }
    }
    let chrome = options.work_dir.join(format!(
        "trace-{}-seed{}.json",
        options.kind.name(),
        options.seed
    ));
    tracer.write_chrome(&chrome)?;
    println!("chrome trace {}", chrome.display());

    let per_op: Vec<BTreeMap<&str, f64>> = traced.iter().map(|t| t.metrics(&tracer)).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|t| t.wall_ms(&tracer)).collect();
    let untraced = median(&untraced_ms);
    let metrics: Vec<(&str, &str, f64)> = METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_pct" {
                100.0 * (median(&traced_ms) - untraced) / untraced
            } else {
                let values: Vec<f64> = per_op.iter().map(|m| m[name]).collect();
                median(&values)
            };
            (name, unit, value)
        })
        .collect();
    println!(
        "traced {} untraced {} untraced_wall_ms_p50 {untraced}",
        traced.len(),
        untraced_ms.len()
    );
    print_result(tally, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        return child_main(&args[1..]);
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!(
                "usage: pipebench --workload NAME --seed N --seconds S --trace 0|1 \
                 [--size full|tiny] [--work-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let dir = options
        .work_dir
        .join(format!("{}-{}", options.kind.name(), std::process::id()));
    let mut tally = Tally::default();
    let result = fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| {
            if options.trace {
                per_layer(&options, &dir, &mut tally)
            } else {
                end_to_end(&options, &dir, &mut tally)
            }
        });
    let _ = fs::remove_dir_all(&dir);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::FAILURE
        }
    }
}
