//! `spbench --workload sliced|pin_serial|fleet [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints the host context and one line per metric, then, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones.

use spbench::metrics::host_context;
use spbench::{run, RunArgs, Size, Workload, DEFAULT_SEED, HELD_OUT_SEED};

fn usage(why: &str) -> ! {
    eprintln!("spbench: {why}");
    eprintln!(
        "usage: spbench --workload sliced|pin_serial|fleet [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> RunArgs {
    let mut args = RunArgs {
        workload: Workload::Sliced,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::FULL,
    };
    let mut workload = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value `{value}` for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| bad())),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|secs: &f64| *secs > 0.0)
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    args
}

fn main() {
    let args = parse_args();
    println!(
        "spbench: {:?} seed={} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) \
         seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        host_context()
    );
    let outcome = run(&args);
    for name in outcome.metrics.names() {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        println!("{name} = {value}");
    }
    println!(
        "{}",
        outcome
            .metrics
            .result_line(outcome.tally.attempted, outcome.tally.failed)
    );
}
