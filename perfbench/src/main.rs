//! The boxagg benchmark: one command per workload, printing every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) as the last line of standard output, after checking
//! every answer it measured against a brute-force oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest-spill|query-warm|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root: scratch files and span dumps go to
//! `.bench_work/` there. The workloads, their store and serving
//! settings, and the layers each one loads or bypasses are described in
//! `perfbench/workloads.json`.

mod common;
mod ingest;
mod serve;
mod stats;
mod trace;
mod warm;

use std::path::PathBuf;
use std::process::ExitCode;

use common::RunArgs;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload ingest-spill|query-warm|serve-mixed \
                     --seed N --seconds S --trace 0|1";

const WORKLOADS: [&str; 3] = ["ingest-spill", "query-warm", "serve-mixed"];

fn parse(argv: &[String]) -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&"unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", workload, std::process::id()));
    Ok((
        workload,
        RunArgs {
            seed,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            work_dir,
        },
    ))
}

/// Writes the traced run's spans to `.bench_work/trace-<workload>-<seed>.csv`.
fn write_trace(args: &RunArgs, workload: &str, tracer: &Tracer) {
    let path = PathBuf::from(".bench_work").join(format!("trace-{workload}-{}.csv", args.seed));
    if let Err(e) = std::fs::create_dir_all(".bench_work").and_then(|()| tracer.write_csv(&path)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = match parse(&argv) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let mut report = match workload.as_str() {
        "ingest-spill" => ingest::run(&args),
        "query-warm" => warm::run(&args),
        _ => serve::run(&args),
    };
    if let Err(e) = std::fs::remove_dir_all(&args.work_dir) {
        eprintln!("cannot remove {}: {e}", args.work_dir.display());
    }
    if !args.trace {
        let attempted = report.attempted.max(1);
        report.metrics.put(
            "ok_frac",
            (attempted - report.failed) as f64 / attempted as f64,
            "ratio",
        );
        report
            .metrics
            .put("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    }
    for m in &report.metrics.0 {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("FAILED CHECK: {p}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
