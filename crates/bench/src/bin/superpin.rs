//! A Pin-style command line for the reproduction, mirroring the paper's
//! invocation and switches (§2.2, §5):
//!
//! ```text
//! superpin [-sp 0|1] [-spmsec MSEC] [-spmp N] [-spsysrecs N] [-threads N]
//!          -t icount1|icount2|dcache|itrace|branch|mem|sampler
//!          -- <benchmark> [tiny|small|medium|large]
//! ```
//!
//! Examples:
//!
//! ```text
//! superpin -t icount2 -- gzip small
//! superpin -sp 1 -spmsec 500 -spmp 16 -t icount1 -- gcc medium
//! superpin -sp 0 -t dcache -- mcf small        # traditional Pin mode
//! superpin -threads 4 -t icount1 -- gcc medium # 4 host worker threads
//! ```
//!
//! `-threads N` fans slice execution out over N host worker threads; the
//! report is bit-identical to `-threads 1` (see the parallel-runner
//! section in DESIGN.md).
//!
//! Chaos testing (DESIGN.md §4.8): `--chaos-seed N` arms the seeded
//! failpoint registry and slice supervisor; `--chaos-rate F` sets the
//! per-site firing probability (default 0.01); `--watchdog-factor K`
//! condemns a slice whose signature has not fired within K× the
//! scheduler's predicted completion. The report stays bit-identical to
//! the fault-free run except the `slice_retries` / `slices_degraded`
//! counters:
//!
//! ```text
//! superpin --chaos-seed 1 --chaos-rate 0.05 -threads 4 -t icount1 -- gcc tiny
//! ```

use superpin::baseline::run_pin;
use superpin::{FailPlan, SharedMem, SuperPinConfig, SuperPinRunner, SuperTool};
use superpin_bench::runs::time_scale_for;
use superpin_tools::{
    BranchProfile, DCache, DCacheConfig, ICount1, ICount2, ITrace, MemProfile, Sampler,
};
use superpin_vm::process::Process;
use superpin_workloads::{find, Scale};

#[derive(Debug, PartialEq)]
struct Options {
    sp: bool,
    gantt: bool,
    spmsec: u64,
    spmp: usize,
    spsysrecs: usize,
    threads: usize,
    chaos_seed: Option<u64>,
    chaos_rate: Option<f64>,
    watchdog_factor: u64,
    mem_budget: Option<u64>,
    tool: String,
    benchmark: String,
    scale: Scale,
}

/// Typed command-line rejection. Each variant renders a specific
/// message; `main` prints it with a usage hint and exits 2.
#[derive(Clone, Debug, PartialEq)]
enum ArgError {
    /// A flag was given without its required value.
    MissingValue(&'static str),
    /// A flag's value failed to parse as the expected shape.
    InvalidValue {
        flag: &'static str,
        value: String,
        expected: &'static str,
    },
    /// `--watchdog-factor` must exceed 1: a factor of 1 condemns every
    /// slice whose completion prediction is off by a single quantum.
    WatchdogFactorTooSmall(u64),
    /// `--chaos-rate` is a probability and must lie in [0, 1].
    ChaosRateOutOfRange(f64),
    /// `--threads 0` has no meaning; the minimum is 1 (serial).
    ZeroThreads,
    /// An unrecognized flag.
    UnknownFlag(String),
    /// No benchmark after `--`, or no `-t TOOL`.
    MissingBenchmarkOrTool,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "`{flag}` requires a value"),
            ArgError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "`{flag}` got `{value}`; expected {expected}"),
            ArgError::WatchdogFactorTooSmall(value) => write!(
                f,
                "`--watchdog-factor` must be greater than 1 (got {value}): a factor of 1 \
                 condemns any slice one quantum behind its predicted completion"
            ),
            ArgError::ChaosRateOutOfRange(value) => write!(
                f,
                "`--chaos-rate` is a probability and must be within [0, 1] (got {value})"
            ),
            ArgError::ZeroThreads => {
                write!(f, "`--threads` must be at least 1 (1 = serial execution)")
            }
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::MissingBenchmarkOrTool => {
                write!(f, "a `-t TOOL` and a benchmark after `--` are required")
            }
        }
    }
}

impl std::error::Error for ArgError {}

fn usage() -> ! {
    eprintln!(
        "usage: superpin [-sp 0|1] [-spmsec MSEC] [-spmp N] [-spsysrecs N] [-threads N] [-gantt] \
         [--chaos-seed N] [--chaos-rate F] [--watchdog-factor K] [--mem-budget BYTES[k|m|g]] \
         -t TOOL -- BENCHMARK [tiny|small|medium|large]\n\
         tools: icount1 icount2 dcache dcache-assoc icache bblcount insmix itrace branch mem sampler"
    );
    std::process::exit(2);
}

/// Parses a byte count with an optional binary `k`/`m`/`g` suffix
/// (case-insensitive): `64m` → 64 MiB.
fn parse_bytes(text: &str) -> Option<u64> {
    let lower = text.trim().to_ascii_lowercase();
    let (digits, mult) = if let Some(digits) = lower.strip_suffix('k') {
        (digits, 1u64 << 10)
    } else if let Some(digits) = lower.strip_suffix('m') {
        (digits, 1u64 << 20)
    } else if let Some(digits) = lower.strip_suffix('g') {
        (digits, 1u64 << 30)
    } else {
        (lower.as_str(), 1u64)
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_options(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("superpin: {err}");
            usage();
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, ArgError> {
    let mut options = Options {
        sp: true,
        gantt: false,
        spmsec: 1000,
        spmp: 8,
        spsysrecs: 1000,
        threads: 1,
        chaos_seed: None,
        chaos_rate: None,
        watchdog_factor: 8,
        mem_budget: None,
        tool: String::new(),
        benchmark: String::new(),
        scale: Scale::Small,
    };
    let mut iter = args.iter();
    let mut after_dashes = Vec::new();
    // `flag value` with a typed error for missing/unparseable values.
    fn value<'a, I: Iterator<Item = &'a String>, V: std::str::FromStr>(
        iter: &mut I,
        flag: &'static str,
        expected: &'static str,
    ) -> Result<V, ArgError> {
        let text = iter.next().ok_or(ArgError::MissingValue(flag))?;
        text.parse().map_err(|_| ArgError::InvalidValue {
            flag,
            value: text.clone(),
            expected,
        })
    }
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-sp" => {
                let v = iter.next().ok_or(ArgError::MissingValue("-sp"))?;
                options.sp = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => {
                        return Err(ArgError::InvalidValue {
                            flag: "-sp",
                            value: v.clone(),
                            expected: "0 or 1",
                        })
                    }
                };
            }
            "-spmsec" => options.spmsec = value(&mut iter, "-spmsec", "milliseconds")?,
            "-spmp" => options.spmp = value(&mut iter, "-spmp", "a slice count")?,
            "-spsysrecs" => options.spsysrecs = value(&mut iter, "-spsysrecs", "a record count")?,
            "-gantt" => options.gantt = true,
            "-threads" | "--threads" => {
                let threads: usize = value(&mut iter, "--threads", "a thread count")?;
                if threads == 0 {
                    return Err(ArgError::ZeroThreads);
                }
                options.threads = threads;
            }
            "--chaos-seed" => {
                options.chaos_seed = Some(value(&mut iter, "--chaos-seed", "a seed integer")?)
            }
            "--chaos-rate" => {
                let rate: f64 = value(&mut iter, "--chaos-rate", "a probability in [0, 1]")?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(ArgError::ChaosRateOutOfRange(rate));
                }
                options.chaos_rate = Some(rate);
            }
            "--watchdog-factor" => {
                let factor: u64 = value(&mut iter, "--watchdog-factor", "an integer multiplier")?;
                if factor <= 1 {
                    return Err(ArgError::WatchdogFactorTooSmall(factor));
                }
                options.watchdog_factor = factor;
            }
            "--mem-budget" => {
                let text = iter.next().ok_or(ArgError::MissingValue("--mem-budget"))?;
                let bytes = parse_bytes(text).ok_or_else(|| ArgError::InvalidValue {
                    flag: "--mem-budget",
                    value: text.clone(),
                    expected: "a byte count with optional k/m/g suffix (e.g. 64m)",
                })?;
                options.mem_budget = Some(bytes);
            }
            "-t" => {
                options.tool = iter.next().ok_or(ArgError::MissingValue("-t"))?.clone();
            }
            "--" => {
                after_dashes.extend(iter.by_ref().cloned());
            }
            other => return Err(ArgError::UnknownFlag(other.to_owned())),
        }
    }
    if after_dashes.is_empty() || options.tool.is_empty() {
        return Err(ArgError::MissingBenchmarkOrTool);
    }
    options.benchmark = after_dashes[0].clone();
    if let Some(scale) = after_dashes.get(1) {
        options.scale = parse_scale(scale)?;
    }
    Ok(options)
}

fn parse_scale(text: &str) -> Result<Scale, ArgError> {
    match text {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        "large" => Ok(Scale::Large),
        other => Err(ArgError::InvalidValue {
            flag: "scale",
            value: other.to_owned(),
            expected: "tiny|small|medium|large",
        }),
    }
}

/// The SuperPin configuration an invocation's switches describe, chaos
/// plan included (`--chaos-rate` without `--chaos-seed` defaults the
/// seed to 1, and vice versa the rate to 0.01).
fn superpin_config(options: &Options) -> SuperPinConfig {
    let mut cfg = SuperPinConfig::scaled(options.spmsec, time_scale_for(options.scale))
        .with_max_slices(options.spmp)
        .with_max_sysrecs(options.spsysrecs)
        .with_threads(options.threads)
        .with_watchdog_factor(options.watchdog_factor);
    if let Some(budget) = options.mem_budget {
        cfg = cfg.with_mem_budget(budget);
    }
    if options.chaos_seed.is_some() || options.chaos_rate.is_some() {
        cfg = cfg.with_chaos(FailPlan::new(
            options.chaos_seed.unwrap_or(1),
            options.chaos_rate.unwrap_or(0.01),
        ));
    }
    cfg
}

fn run_super<T: SuperTool>(
    program: &superpin_isa::Program,
    tool: T,
    shared: &SharedMem,
    options: &Options,
) -> superpin::SuperPinReport {
    let cfg = superpin_config(options);
    let present = cfg.clone();
    let report = SuperPinRunner::new(
        Process::load(1, program).expect("load"),
        tool,
        shared.clone(),
        cfg,
    )
    .expect("setup")
    .run()
    .expect("run");
    println!(
        "superpin: {} slices ({} timer, {} syscall), {} stalls",
        report.slice_count(),
        report.forks_on_timeout,
        report.forks_on_syscall,
        report.stall_events
    );
    println!(
        "runtime {:.2}s presented ({} cycles); breakdown: native {:.2}s, fork&others {:.2}s, sleep {:.2}s, pipeline {:.2}s",
        present.present_secs(report.total_cycles),
        report.total_cycles,
        present.present_secs(report.breakdown.native_cycles),
        present.present_secs(report.breakdown.fork_other_cycles),
        present.present_secs(report.breakdown.sleep_cycles),
        present.present_secs(report.breakdown.pipeline_cycles),
    );
    if present.chaos.is_some() {
        println!(
            "chaos: {} slice retries, {} slices degraded",
            report.slice_retries, report.slices_degraded
        );
    }
    if present.mem_budget.is_some() {
        println!(
            "memory: peak {} bytes resident, {} slices deferred, {} checkpoints dropped, {} caches evicted",
            report.peak_resident_bytes,
            report.slices_deferred,
            report.checkpoints_dropped,
            report.caches_evicted
        );
    }
    if options.gantt {
        print!("{}", superpin_bench::render::render_gantt(&report, 100));
    }
    report
}

fn main() {
    let options = parse_args();
    let Some(spec) = find(&options.benchmark) else {
        eprintln!("unknown benchmark `{}`", options.benchmark);
        std::process::exit(2);
    };
    let program = spec.build(options.scale);
    println!(
        "{} @ {:?}: {} static instructions",
        spec.name,
        options.scale,
        program.static_inst_count()
    );

    // The tool zoo. Each arm constructs, runs (SuperPin or plain Pin per
    // -sp), and prints its result.
    match options.tool.as_str() {
        "icount1" => {
            let shared = SharedMem::new();
            let tool = ICount1::new(&shared);
            if options.sp {
                let cfg = superpin_config(&options);
                SuperPinRunner::new(
                    Process::load(1, &program).expect("load"),
                    tool.clone(),
                    shared.clone(),
                    cfg,
                )
                .expect("setup")
                .run()
                .expect("run");
                println!("Total Count: {}", tool.total(&shared));
            } else {
                let pin = run_pin(Process::load(1, &program).expect("load"), tool).expect("pin");
                println!("Total Count: {}", pin.tool.local_count());
            }
        }
        "icount2" => {
            let shared = SharedMem::new();
            let tool = ICount2::new(&shared);
            if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                println!("Total Count: {}", tool.total(&shared));
            } else {
                let pin = run_pin(Process::load(1, &program).expect("load"), tool).expect("pin");
                println!("Total Count: {}", pin.tool.local_count());
            }
        }
        "dcache" => {
            let shared = SharedMem::new();
            let tool = DCache::new(&shared, DCacheConfig::small());
            let result = if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_result(&shared)
            } else {
                run_pin(Process::load(1, &program).expect("load"), tool)
                    .expect("pin")
                    .tool
                    .local_result()
            };
            println!(
                "dcache: {} hits, {} misses (miss ratio {:.2}%)",
                result.hits,
                result.misses,
                100.0 * result.miss_ratio()
            );
        }
        "dcache-assoc" => {
            use superpin_tools::{AssocDCache, AssocDCacheConfig};
            let shared = SharedMem::new();
            let tool = AssocDCache::new(&shared, AssocDCacheConfig::small());
            let result = if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_result(&shared)
            } else {
                run_pin(Process::load(1, &program).expect("load"), tool)
                    .expect("pin")
                    .tool
                    .local_result()
            };
            println!(
                "dcache-assoc (2-way LRU): {} hits, {} misses (miss ratio {:.2}%)",
                result.hits,
                result.misses,
                100.0 * result.miss_ratio()
            );
        }
        "icache" => {
            use superpin_tools::ICache;
            let shared = SharedMem::new();
            let tool = ICache::new(&shared, DCacheConfig::small());
            let result = if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_result(&shared)
            } else {
                run_pin(Process::load(1, &program).expect("load"), tool)
                    .expect("pin")
                    .tool
                    .local_result()
            };
            println!(
                "icache: {} hits, {} misses (miss ratio {:.2}%)",
                result.hits,
                result.misses,
                100.0 * result.miss_ratio()
            );
        }
        "bblcount" => {
            use superpin_tools::BblCount;
            let tool = BblCount::new();
            let hottest = if options.sp {
                let shared = SharedMem::new();
                run_super(&program, tool.clone(), &shared, &options);
                tool.hottest(5)
            } else {
                let pin = run_pin(Process::load(1, &program).expect("load"), tool).expect("pin");
                let mut blocks: Vec<(u64, u64)> = pin
                    .tool
                    .local_blocks()
                    .iter()
                    .map(|(&a, &c)| (a, c))
                    .collect();
                blocks.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
                blocks.truncate(5);
                blocks
            };
            println!("bblcount: hottest blocks:");
            for (addr, count) in hottest {
                let name = program
                    .symbol_for_addr(addr)
                    .map(|sym| sym.name.as_str())
                    .unwrap_or("?");
                println!("  {addr:#08x} [{name:<10}] {count:>8} executions");
            }
        }
        "insmix" => {
            use superpin_tools::{InsMix, MixCategory};
            let shared = SharedMem::new();
            let tool = InsMix::new(&shared);
            let counts = if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_counts(&shared)
            } else {
                run_pin(Process::load(1, &program).expect("load"), tool)
                    .expect("pin")
                    .tool
                    .local_counts()
            };
            println!("insmix ({} instructions):", counts.total());
            for category in MixCategory::ALL {
                println!(
                    "  {:<8} {:>12} ({:>5.1}%)",
                    category.label(),
                    counts.get(category),
                    100.0 * counts.fraction(category)
                );
            }
        }
        "itrace" => {
            let shared = SharedMem::new();
            let tool = ITrace::new();
            let trace = if options.sp {
                run_super(&program, tool, &shared, &options);
                ITrace::merged_trace(&shared)
            } else {
                let pin = run_pin(Process::load(1, &program).expect("load"), tool).expect("pin");
                ITrace::decode(pin.tool.local_buffer())
            };
            println!("itrace: {} instructions traced", trace.len());
        }
        "branch" => {
            let tool = BranchProfile::new();
            let sites = if options.sp {
                let shared = SharedMem::new();
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_sites()
            } else {
                run_pin(Process::load(1, &program).expect("load"), tool)
                    .expect("pin")
                    .tool
                    .local_sites()
                    .clone()
            };
            println!("branch: {} sites profiled", sites.len());
        }
        "mem" => {
            let shared = SharedMem::new();
            let tool = MemProfile::new(&shared);
            let totals = if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_totals(&shared)
            } else {
                run_pin(Process::load(1, &program).expect("load"), tool)
                    .expect("pin")
                    .tool
                    .local_totals()
            };
            println!(
                "mem: {} loads ({} B), {} stores ({} B)",
                totals.loads, totals.bytes_read, totals.stores, totals.bytes_written
            );
        }
        "sampler" => {
            let tool = Sampler::new(500);
            if options.sp {
                let shared = SharedMem::new();
                run_super(&program, tool.clone(), &shared, &options);
                println!("sampler: {} samples", tool.merged_samples());
            } else {
                eprintln!("sampler requires -sp 1 (it is a SuperPin tool)");
                std::process::exit(2);
            }
        }
        other => {
            eprintln!("unknown tool `{other}`");
            usage();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &[&str]) -> Vec<String> {
        text.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn valid_command_line_parses() {
        let options = parse_options(&args(&[
            "-t",
            "icount2",
            "--threads",
            "4",
            "--",
            "gcc",
            "tiny",
        ]))
        .expect("parse");
        assert_eq!(options.tool, "icount2");
        assert_eq!(options.threads, 4);
        assert_eq!(options.benchmark, "gcc");
        assert_eq!(options.scale, Scale::Tiny);
        assert_eq!(options.mem_budget, None);
    }

    #[test]
    fn watchdog_factor_must_exceed_one() {
        for bad in ["0", "1"] {
            let err = parse_options(&args(&[
                "--watchdog-factor",
                bad,
                "-t",
                "icount2",
                "--",
                "gcc",
            ]))
            .expect_err("factor <= 1 must be rejected");
            assert_eq!(err, ArgError::WatchdogFactorTooSmall(bad.parse().unwrap()));
            assert!(err.to_string().contains("--watchdog-factor"));
        }
        assert!(parse_options(&args(&[
            "--watchdog-factor",
            "2",
            "-t",
            "icount2",
            "--",
            "gcc"
        ]))
        .is_ok());
    }

    #[test]
    fn chaos_rate_must_be_a_probability() {
        for bad in ["-0.1", "1.5", "nan"] {
            let err = parse_options(&args(&["--chaos-rate", bad, "-t", "icount2", "--", "gcc"]))
                .expect_err("rate outside [0, 1] must be rejected");
            assert!(err.to_string().contains("--chaos-rate"), "{err}");
        }
        let options = parse_options(&args(&[
            "--chaos-rate",
            "1.0",
            "-t",
            "icount2",
            "--",
            "gcc",
        ]))
        .expect("boundary is inclusive");
        assert_eq!(options.chaos_rate, Some(1.0));
    }

    #[test]
    fn zero_threads_is_rejected() {
        let err = parse_options(&args(&["--threads", "0", "-t", "icount2", "--", "gcc"]))
            .expect_err("zero threads must be rejected");
        assert_eq!(err, ArgError::ZeroThreads);
    }

    #[test]
    fn mem_budget_accepts_binary_suffixes() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("8k"), Some(8 << 10));
        assert_eq!(parse_bytes("64M"), Some(64 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes("banana"), None);
        assert_eq!(parse_bytes(""), None);
        let options = parse_options(&args(&["--mem-budget", "1m", "-t", "icount2", "--", "gcc"]))
            .expect("parse");
        assert_eq!(options.mem_budget, Some(1 << 20));
        let err = parse_options(&args(&[
            "--mem-budget",
            "lots",
            "-t",
            "icount2",
            "--",
            "gcc",
        ]))
        .expect_err("non-numeric budget must be rejected");
        assert!(err.to_string().contains("--mem-budget"), "{err}");
    }

    #[test]
    fn retired_flags_are_unknown() {
        for (flag, rest) in [
            ("--plan", &["on"][..]),
            ("--emit-json", &[]),
            ("--perf-guard", &["fresh.json", "base.json"]),
            ("--tag", &["x"]),
            ("--scale", &["small"]),
        ] {
            let mut line = vec![flag];
            line.extend(rest);
            line.extend(["-t", "icount2", "--", "gcc"]);
            assert_eq!(
                parse_options(&args(&line)),
                Err(ArgError::UnknownFlag(flag.to_owned())),
                "{flag}"
            );
        }
    }

    #[test]
    fn missing_values_and_unknown_flags_are_typed() {
        assert_eq!(
            parse_options(&args(&["--threads"])),
            Err(ArgError::MissingValue("--threads"))
        );
        assert_eq!(
            parse_options(&args(&["--frobnicate"])),
            Err(ArgError::UnknownFlag("--frobnicate".to_owned()))
        );
        assert_eq!(
            parse_options(&args(&["-t", "icount2"])),
            Err(ArgError::MissingBenchmarkOrTool)
        );
        assert_eq!(
            parse_options(&args(&["-sp", "banana", "-t", "icount1", "--", "gcc"])),
            Err(ArgError::InvalidValue {
                flag: "-sp",
                value: "banana".to_owned(),
                expected: "0 or 1",
            })
        );
    }
}
