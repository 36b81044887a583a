//! The thrubarrier benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <guard_stream|eval_sweep|calibrate> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --summarize
//! ```
//!
//! Run from the repository root. Prints the provenance, a table of the
//! workload's figures, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! Exits 1 when any correctness check failed. Every result is also
//! appended to `perfbench/out/results.jsonl`; `--summarize` prints the
//! median, quartiles and spread of each metric over that file.

mod host;
mod pipeline;
mod speed;
mod stats;
mod summary;
mod trace;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

/// A seed no tuning run used: a claimed gain must also hold on it.
const HELDOUT_SEED: u64 = 7919;

const RESULTS: &str = "perfbench/out/results.jsonl";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--summarize") {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

fn result_json(outcome: &workloads::Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return summary::print(RESULTS),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "guard_stream" => workloads::guard_stream,
        "eval_sweep" => workloads::eval_sweep,
        "calibrate" => workloads::calibrate,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(args.seed, args.seconds, args.trace);
    let provenance = host::provenance_json(
        &args.workload,
        args.seed,
        args.trace,
        host::fnv1a(outcome.config.as_bytes(), host::FNV_BASIS),
        HELDOUT_SEED,
    );
    let correct = outcome.problems.is_empty() && outcome.tally.failed == 0;
    let result = result_json(&outcome, correct);

    println!("{provenance}");
    println!("{:<40} {:>16}  unit", args.workload, "value");
    for (name, value, unit) in &outcome.report {
        println!("  {name:<38} {value:>16.6}  {unit}");
    }
    println!(
        "  {:<38} {:>16.6}  fraction",
        "failed_frac",
        outcome.tally.failed_frac()
    );
    let record = format!(
        "{{\"record\":{provenance},\"config\":\"{}\",\"result\":{result}}}",
        outcome.config
    );
    let saved = std::fs::create_dir_all("perfbench/out").and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(RESULTS)?;
        writeln!(f, "{record}")
    });
    if let Err(e) = saved {
        eprintln!("perfbench: could not append to {RESULTS}: {e}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
