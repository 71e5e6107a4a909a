//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Prints a table of every measured value, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). The run record and the traced spans go to `.perfbench/records/`
//! under the working directory. `--smoke` shrinks every dataset for tests.

use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{Budget, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (rep, tracers) = perfbench::run(
        &args.workload,
        args.seed,
        Budget::Seconds(args.seconds),
        args.trace,
        args.smoke,
    )
    .expect("workload name was validated");

    let dir = Path::new(".perfbench").join("records");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let record = rep.record(&args.workload, args.seed, args.trace);
    if let Err(e) = report::write_out(&dir, &format!("{stem}.json"), &record) {
        eprintln!("perfbench: cannot write the run record: {e}");
    }
    if !tracers.is_empty() {
        let refs: Vec<&Tracer> = tracers.iter().collect();
        if let Err(e) = Tracer::write_spans(&refs, &dir.join(format!("{stem}.spans.tsv"))) {
            eprintln!("perfbench: cannot write the spans: {e}");
        }
    }
    print!("{}", rep.table(&args.workload));
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", rep.result_line(wanted));
    ExitCode::SUCCESS
}
