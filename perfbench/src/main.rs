//! End-to-end and per-layer benchmark of the MINDFUL implant system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload motor-1024 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Four single-threaded workloads, one per process:
//!
//! * `motor-1024` — closed loop: recorded 1024-channel codes through
//!   spike → bin(4) → Kalman → packetize ([`motor`]).
//! * `hostile-link` — closed loop: the same codes through packetize →
//!   authenticated selective-repeat ARQ over a faulty, attacked
//!   channel → firewall → conceal ([`hostile`]).
//! * `speech-fleet` — closed rounds: MLP-128 decoder sessions (f32 and
//!   int8, realtime and best-effort) served by one fleet ([`speech`]).
//! * `design-space` — batch: in-memory regeneration of the paper's
//!   design-space figures ([`design`]).
//!
//! Every run checks the program's outputs before it prints anything;
//! a failed check exits non-zero without a result. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics (from a run that interleaves traced and
//! untraced slices) with `--trace 1`.

mod design;
mod gen;
mod host;
mod hostile;
mod motor;
mod report;
mod speech;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use mindful_core::pool::{default_threads, SWEEP_THREADS_ENV};

use crate::report::Report;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub measure: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 || s > 600 {
                    return Err("--seconds must be in 1..=600".into());
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
        measure: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
    })
}

/// Pins every scheduler and sweep in the process to one worker, and
/// refuses to run when the environment asks for more.
fn pin_single_worker() -> Result<(), String> {
    match std::env::var(SWEEP_THREADS_ENV) {
        Ok(v) if v.trim() != "1" => {
            return Err(format!(
            "{SWEEP_THREADS_ENV}={v}: the benchmark measures one worker; unset it or set it to 1"
        ))
        }
        Ok(_) => {}
        // Single-threaded at this point, so setting the variable races
        // with nothing.
        Err(_) => std::env::set_var(SWEEP_THREADS_ENV, "1"),
    }
    let workers = default_threads().get();
    if workers != 1 {
        return Err(format!(
            "resolved {workers} workers; the benchmark needs exactly 1"
        ));
    }
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "motor-1024" => motor::run(args),
        "hostile-link" => hostile::run(args),
        "speech-fleet" => speech::run(args),
        "design-space" => design::run(args),
        other => Err(format!(
            "unknown workload {other:?} (motor-1024, hostile-link, speech-fleet, design-space)"
        )),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        pin_single_worker()?;
        let report = run(&args)?;
        report.print(&args)
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
