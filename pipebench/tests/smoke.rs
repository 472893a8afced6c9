//! Tiny-size smoke test of the benchmark binary: every metric named in
//! `BENCHMARK.json` is printed with its unit, work counts repeat exactly
//! across two runs, and no operation fails.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["ingest_sweep3d", "match_dynload", "text_convert"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| -> String {
        let tail = &line[line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
        tail[..tail.find('"').expect("closing quote")].to_string()
    };
    let start = text.find(&format!("\"{section}\"")).expect(section);
    text[start..]
        .lines()
        .skip(1)
        .take_while(|line| line.trim_start().starts_with('{'))
        .map(|line| (field(line, "name"), field(line, "unit")))
        .collect()
}

/// Runs the benchmark and returns its standard output.
fn run(workload: &str, trace: u8) -> String {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pipebench-smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_pipebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// The value of metric `name` in a run's final JSON line, checking that it
/// is reported with `unit`.
fn metric(stdout: &str, name: &str, unit: &str) -> f64 {
    let json = stdout.lines().last().expect("a result line");
    let key = format!("\"{name}\": {{\"value\": ");
    let tail = &json[json
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing: {json}"))
        + key.len()..];
    let (value, rest) = tail.split_once(',').expect("value then unit");
    assert!(
        rest.trim_start()
            .starts_with(&format!("\"unit\": \"{unit}\"}}")),
        "{name} should be in {unit}: {json}"
    );
    assert!(
        stdout.lines().any(
            |line| line.starts_with(&format!("{name} ")) && line.ends_with(&format!(" {unit}"))
        ),
        "{name} is not printed by name with its unit"
    );
    value.trim().parse().expect("a number")
}

fn assert_no_failures(workload: &str, stdout: &str) {
    let json = stdout.lines().last().expect("a result line");
    assert!(
        json.starts_with("{\"correct\": true,") && json.contains("\"failed\": 0,"),
        "{workload}: {json}"
    );
}

#[test]
fn every_metric_is_printed_counts_repeat_and_nothing_fails() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end
        .iter()
        .any(|(name, unit)| name == "setup_s" && unit == "s"));
    for workload in WORKLOADS {
        let mut counts: Vec<Vec<f64>> = Vec::new();
        for _ in 0..2 {
            let plain = run(workload, 0);
            let traced = run(workload, 1);
            assert_no_failures(workload, &plain);
            assert_no_failures(workload, &traced);
            assert!(plain.contains("failed_frac 0 ratio"), "{workload}: {plain}");
            for (name, unit) in &end_to_end {
                metric(&plain, name, unit);
            }
            for (name, unit) in &per_layer {
                metric(&traced, name, unit);
            }
            counts.push(vec![
                metric(&plain, "output_bytes", "bytes"),
                metric(&traced, "reduce.comparisons", "count"),
                metric(&traced, "reduce.stored", "count"),
                metric(&traced, "container.chunks", "count"),
            ]);
        }
        assert_eq!(
            counts[0], counts[1],
            "{workload}: counts differ between runs"
        );
        assert!(counts[0][0] > 0.0, "{workload}: empty output");
    }
}
