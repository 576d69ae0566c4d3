//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <paper-sweep|bandwidth-2000|churn-400> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a stamp line and one line per metric, then — as the last line
//! of standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`).

use std::process::ExitCode;

use perfbench::bandwidth::Bandwidth2000;
use perfbench::churn::Churn400;
use perfbench::paper::PaperSweep;
use perfbench::{
    e2e_metrics, layer_metrics, reference, run_e2e, run_tail, run_traced, sys, Metric, Workload,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload and returns `(attempted, failed, metrics)`.
fn run<W: Workload>(args: &Args) -> (usize, usize, Vec<Metric>) {
    let shape = W::shape(args.seconds);
    if args.trace {
        let traced = run_traced::<W>(args.seed, shape);
        (traced.ops(), traced.failed, layer_metrics::<W>(&traced))
    } else {
        let run = run_e2e::<W>(args.seed, shape);
        println!(
            "fail_share {} share ({} rounds of {} ops, {} timed passes; op_ms.tail = p{:.2})",
            run.fail_share(),
            shape.rounds,
            shape.round_ops,
            W::PASSES,
            100.0 * run_tail::<W>(run.attempted())
        );
        println!(
            "reference {} ms per sample (median of the round passes; nominal {} ms): \
             timings scaled by {}",
            reference::NOMINAL_MS / run.scale,
            reference::NOMINAL_MS,
            run.scale
        );
        (run.attempted(), run.failed, e2e_metrics::<W>(&run))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <paper-sweep|bandwidth-2000|churn-400> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} commit={} nproc={} host={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::commit(),
        threads,
        sys::hostname()
    );
    let (attempted, failed, metrics) = match args.workload.as_str() {
        PaperSweep::NAME => run::<PaperSweep>(&args),
        Bandwidth2000::NAME => run::<Bandwidth2000>(&args),
        Churn400::NAME => run::<Churn400>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("{name} {value} {unit}");
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
