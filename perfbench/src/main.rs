//! `perfbench` — the repository benchmark of the `vlite-serve` runtime.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload retrieval_open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one named workload against the real runtime, checks every
//! response, and prints one JSON object as the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. The exit code is 0 only when every check passed. See
//! `perfbench/README.md` for the workloads, the metric definitions and
//! which layer each per-layer metric belongs to.

mod check;
mod layers;
mod loadgen;
mod metrics;
mod procfs;
mod spans;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

/// Parsed command line.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated input: the queries.
    pub seed: u64,
    /// Seconds of measured load (warm-up and set-up come on top).
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <retrieval_open|rag_cosched|drift_migrate|http_closed> \
                     --seed <u64> --seconds <positive number> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Ok(n) = std::thread::available_parallelism() {
        eprintln!("perfbench: {n} hardware threads available");
    }
    let outcome = workloads::run(&args);
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", outcome.to_json(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
