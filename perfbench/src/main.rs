//! The FBF workspace's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig8-sweep|disk-rebuild|file-repair|daemon-mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: run artefacts (the file-backed array,
//! the daemon's socket, traced runs' span files) go under
//! `perfbench/out/`. Each workload prints a human-readable report on
//! stderr and, as the last line of stdout, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. The process
//! exits non-zero when an output check fails. `--workload all` runs every workload in its own
//! process (peak RSS is per process) and fails if any of them does.
//! README.md documents the workloads, the metrics and their clocks.

mod daemon;
mod fig8;
mod file_repair;
mod rebuild;
mod report;
mod stats;
mod timed;
mod trace;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["fig8-sweep", "disk-rebuild", "file-repair", "daemon-mixed"];

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics.
    pub trace: bool,
}

/// Where runs write, relative to the repository root.
pub const OUT_DIR: &str = "perfbench/out";

impl RunCfg {
    /// The span file of a traced run of `workload`.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        Path::new(OUT_DIR).join(format!("trace-{workload}-{}.jsonl", self.seed))
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value `{value}` for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{}", usage()));
    }
    Ok((workload, cfg))
}

fn run_one(workload: &str, cfg: &RunCfg) -> Outcome {
    match workload {
        "fig8-sweep" => fig8::run(cfg),
        "disk-rebuild" => rebuild::run(cfg),
        "file-repair" => file_repair::run(cfg),
        "daemon-mixed" => daemon::run(cfg),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

/// Run every workload in a child process of this executable.
fn run_all(cfg: &RunCfg) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(&cfg);
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let mut outcome = run_one(&workload, &cfg);
    outcome.check(outcome.tally.attempted > 0, || "no operation ran".into());
    let line = outcome.result_line(cfg.trace);
    eprint!("{}", outcome.render(&workload, cfg.trace));
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_flags() {
        let (w, cfg) = parse_args(&args(
            "--workload file-repair --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, "file-repair");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 3.0, true));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload all --seed x",
            "--workload all --trace 2",
            "--workload all --seconds 0",
            "--workload all --seconds",
            "--workload all --verbose 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
