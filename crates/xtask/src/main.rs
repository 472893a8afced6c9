#![forbid(unsafe_code)]
//! `cargo run -p xtask -- lint [--json]` — run the in-house static-analysis
//! pass over the workspace.  Exits 0 when clean, 1 when any rule fires.
//!
//! `cargo run -p xtask -- loc` — print the non-test source lines of each
//! crate and their total.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut command = None;
    for arg in &args {
        match arg.as_str() {
            "--json" => json = true,
            "lint" | "loc" if command.is_none() => command = Some(arg.as_str()),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    let root = xtask::workspace_root();
    match command {
        Some("lint") => {}
        Some("loc") if !json => return loc(&root),
        _ => {
            usage();
            return ExitCode::from(2);
        }
    }
    let report = match xtask::lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("xtask lint: failed to scan workspace: {err}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the non-test source lines per crate and in total.
fn loc(root: &std::path::Path) -> ExitCode {
    let per_crate = match xtask::count_loc(root) {
        Ok(per_crate) => per_crate,
        Err(err) => {
            eprintln!("xtask loc: failed to scan workspace: {err}");
            return ExitCode::from(2);
        }
    };
    println!("non-test source lines (src/, benches/, examples/; test-gated items excluded)");
    for (name, lines) in &per_crate {
        println!("  {name:<18} {lines:>7}");
    }
    println!("  {:<18} {:>7}", "total", per_crate.values().sum::<usize>());
    ExitCode::SUCCESS
}

fn usage() {
    eprintln!("usage: cargo run -p xtask -- lint [--json]");
    eprintln!("       cargo run -p xtask -- loc");
    eprintln!();
    eprintln!("Rules enforced (see docs/static-analysis.md):");
    for rule in xtask::rules::RULE_NAMES {
        eprintln!("  {rule}");
    }
}
