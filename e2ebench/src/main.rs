//! End-to-end and per-layer benchmark of the ScalaPart pipeline and
//! sp-serve.
//!
//! ```text
//! e2ebench --workload grid-k8|kkt-k2|serve-mix --seed N --seconds S --trace 0|1
//!          [--trace-out FILE]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation
//! installed; `--trace 1` runs the traced variant and reports the
//! per-layer metrics, writing its spans as a Chrome trace to
//! `--trace-out`. The last line of standard output is the result object;
//! the exit code is non-zero when any output failed its check.

mod batch;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload grid-k8|kkt-k2|serve-mix --seed N --seconds S --trace 0|1 [--trace-out FILE]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let trace_out = args.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(format!("{}-seed{}.trace.json", args.workload, args.seed))
    });
    let mut report = Report::new(trace_out);
    println!(
        "# workload {} seed {} seconds {} trace {} host threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match args.workload.as_str() {
        "grid-k8" => batch::run(
            batch::Batch::GridK8,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "kkt-k2" => batch::run(
            batch::Batch::KktK2,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "serve-mix" => serve::run(args.seed, args.seconds, args.trace, &mut report),
        other => {
            eprintln!("e2ebench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    report.complete(args.trace);
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
