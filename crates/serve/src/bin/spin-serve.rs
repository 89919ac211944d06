//! `spin-serve` — the multi-tenant service front end.
//!
//! Reads a job file (tenants + jobs + arrival schedule), runs the
//! whole mix over one governed fleet, and prints the deterministic
//! summary. `--emit-reports` streams per-job outcome JSON lines.
//!
//! `--wal PATH` journals every settled round to a crash-durable
//! write-ahead log; after a crash, `--resume PATH` salvages the
//! committed prefix, re-executes it with verification, and continues
//! the run live — the final output is byte-identical to an
//! uninterrupted run. Resuming a *complete* WAL re-verifies every
//! round and reseals the file byte for byte, at any `--threads`: that
//! is how a recorded fleet is replayed. WAL and recovery status lines
//! go to stderr so stdout stays deterministic.

use std::io::Read;

use superpin_replay::fleet::{recover_fleet_wal, FleetRecipe};
use superpin_replay::wal::{atomic_write, FrameDamage, FsyncPolicy, WalCause, WalIoError, WalOp};
use superpin_serve::durable::{Durability, FleetWal};
use superpin_serve::spec::parse_bytes;
use superpin_serve::{parse_jobs, run_service_durable, FleetConfig, SpecError};

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
    /// `--threads 0` has no meaning; the minimum is 1 (serial).
    ZeroThreads,
    /// `--fleet-slots 0` would select no jobs and the fleet could
    /// never advance.
    ZeroSlots,
    /// `--chaos-rate` is a probability and must lie in [0, 1].
    ChaosRateOutOfRange(f64),
    /// An unrecognized flag.
    UnknownFlag(String),
    /// Neither `--jobs FILE` nor `--resume WAL` was given.
    MissingJobs,
    /// `--resume` rebuilds every fleet knob from the WAL header; the
    /// named flag would contradict the journalled run.
    ResumeConflict(&'static str),
    /// The job file itself was rejected (weights, duplicates, budgets…).
    Spec(SpecError),
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
            ArgError::ZeroThreads => {
                write!(f, "`--threads` must be at least 1 (1 = serial execution)")
            }
            ArgError::ZeroSlots => write!(
                f,
                "`--fleet-slots` must be at least 1 — a zero-wide round can never \
                 advance any job"
            ),
            ArgError::ChaosRateOutOfRange(value) => write!(
                f,
                "`--chaos-rate` is a probability and must be within [0, 1] (got {value})"
            ),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::MissingJobs => write!(
                f,
                "a job file is required: `--jobs FILE` (or `-` for stdin), or `--resume WAL`"
            ),
            ArgError::ResumeConflict(flag) => write!(
                f,
                "`{flag}` cannot accompany `--resume`: the WAL header already \
                 fixes that knob (only `--threads`, `--emit-reports`, and \
                 `--wal-fsync` may vary on resume)"
            ),
            ArgError::Spec(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for ArgError {}

#[derive(Debug, PartialEq)]
struct Options {
    jobs: Option<String>,
    threads: usize,
    slots: usize,
    fleet_budget: Option<u64>,
    chaos_seed: Option<u64>,
    chaos_rate: Option<f64>,
    spmsec: u64,
    emit_reports: Option<String>,
    wal: Option<String>,
    resume: Option<String>,
    wal_fsync: FsyncPolicy,
    /// Flags seen that `--resume` refuses (the WAL header fixes them).
    resume_conflicts: Vec<&'static str>,
}

fn usage() -> ! {
    eprintln!(
        "usage: spin-serve --jobs FILE|- [--threads N] [--fleet-slots N] \
         [--fleet-budget BYTES[k|m|g]] [--chaos-seed N] [--chaos-rate F] [--spmsec MSEC] \
         [--emit-reports PATH] [--wal PATH] [--wal-fsync commit|off|every=N]\n\
         \x20      spin-serve --resume WAL [--threads N] [--emit-reports PATH] \
         [--wal-fsync commit|off|every=N]\n\
         job file lines: `tenant NAME weight=N [budget=BYTES]` and\n\
         `job tenant=NAME workload=NAME [scale=S] [tool=T] [arrive=CYCLES] \
         [mem-budget=BYTES] [chaos-rate=F]`"
    );
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Result<Options, ArgError> {
    let mut options = Options {
        jobs: None,
        threads: 1,
        slots: 4,
        fleet_budget: None,
        chaos_seed: None,
        chaos_rate: None,
        spmsec: 1000,
        emit_reports: None,
        wal: None,
        resume: None,
        wal_fsync: FsyncPolicy::EveryCommit,
        resume_conflicts: Vec::new(),
    };
    let mut iter = args.iter();
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
    // Flags the WAL header fixes; `--resume` rejects them on sight.
    const FIXED_BY_WAL_HEADER: &[&str] = &[
        "--jobs",
        "--fleet-slots",
        "--fleet-budget",
        "--chaos-seed",
        "--chaos-rate",
        "--spmsec",
        "--wal",
    ];
    while let Some(arg) = iter.next() {
        if let Some(&flag) = FIXED_BY_WAL_HEADER.iter().find(|&&flag| flag == arg) {
            options.resume_conflicts.push(flag);
        }
        match arg.as_str() {
            "--jobs" => {
                options.jobs = Some(iter.next().ok_or(ArgError::MissingValue("--jobs"))?.clone());
            }
            "--threads" => {
                let threads: usize = value(&mut iter, "--threads", "a thread count")?;
                if threads == 0 {
                    return Err(ArgError::ZeroThreads);
                }
                options.threads = threads;
            }
            "--fleet-slots" => {
                let slots: usize = value(&mut iter, "--fleet-slots", "a round width")?;
                if slots == 0 {
                    return Err(ArgError::ZeroSlots);
                }
                options.slots = slots;
            }
            "--fleet-budget" => {
                let text = iter
                    .next()
                    .ok_or(ArgError::MissingValue("--fleet-budget"))?;
                let bytes = parse_bytes(text).ok_or_else(|| ArgError::InvalidValue {
                    flag: "--fleet-budget",
                    value: text.clone(),
                    expected: "a byte count with optional k/m/g suffix (e.g. 64m)",
                })?;
                options.fleet_budget = Some(bytes);
            }
            "--chaos-seed" => {
                options.chaos_seed = Some(value(&mut iter, "--chaos-seed", "a seed integer")?);
            }
            "--chaos-rate" => {
                let rate: f64 = value(&mut iter, "--chaos-rate", "a probability in [0, 1]")?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(ArgError::ChaosRateOutOfRange(rate));
                }
                options.chaos_rate = Some(rate);
            }
            "--spmsec" => options.spmsec = value(&mut iter, "--spmsec", "milliseconds")?,
            "--emit-reports" => {
                options.emit_reports = Some(
                    iter.next()
                        .ok_or(ArgError::MissingValue("--emit-reports"))?
                        .clone(),
                );
            }
            "--wal" => {
                options.wal = Some(iter.next().ok_or(ArgError::MissingValue("--wal"))?.clone());
            }
            "--resume" => {
                options.resume = Some(
                    iter.next()
                        .ok_or(ArgError::MissingValue("--resume"))?
                        .clone(),
                );
            }
            "--wal-fsync" => {
                let text = iter.next().ok_or(ArgError::MissingValue("--wal-fsync"))?;
                options.wal_fsync =
                    FsyncPolicy::parse(text).ok_or_else(|| ArgError::InvalidValue {
                        flag: "--wal-fsync",
                        value: text.clone(),
                        expected: "`commit`, `off`, or `every=N`",
                    })?;
            }
            other => return Err(ArgError::UnknownFlag(other.to_owned())),
        }
    }
    if options.resume.is_some() {
        if let Some(flag) = options.resume_conflicts.first() {
            return Err(ArgError::ResumeConflict(flag));
        }
    }
    if options.jobs.is_none() && options.resume.is_none() {
        return Err(ArgError::MissingJobs);
    }
    Ok(options)
}

/// The fleet chaos plan the CLI knobs describe (`--chaos-rate` without
/// `--chaos-seed` defaults the seed to 1, and vice versa the rate to
/// 0.01 — matching the `superpin` CLI).
fn chaos_plan(options: &Options) -> Option<superpin::FailPlan> {
    if options.chaos_seed.is_none() && options.chaos_rate.is_none() {
        return None;
    }
    Some(superpin::FailPlan::new(
        options.chaos_seed.unwrap_or(1),
        options.chaos_rate.unwrap_or(0.01),
    ))
}

fn read_jobs(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin().read_to_string(&mut text)?;
        Ok(text)
    } else {
        std::fs::read_to_string(path)
    }
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("spin-serve: {message}");
    std::process::exit(1);
}

/// Post-run WAL status, on stderr: stdout must stay byte-identical
/// between an uninterrupted run and a kill-then-resume run, and the
/// two commit different round counts.
fn report_wal_status(dur: &Durability) {
    let Some(status) = dur.status() else {
        return;
    };
    if status.degraded {
        eprintln!(
            "spin-serve: warning: wal degraded to non-durable after {} append / {} fsync \
             failure(s) ({}); {} round(s) were committed before that",
            status.append_failures,
            status.fsync_failures,
            status.last_error.as_deref().unwrap_or("no error recorded"),
            status.rounds_committed,
        );
    } else {
        eprintln!(
            "spin-serve: wal: {} round(s) committed",
            status.rounds_committed
        );
    }
}

/// Streams per-job outcome JSON lines to `path`, atomically: a crash
/// mid-write leaves either the old file or the new one, never a torn
/// half.
fn emit_reports(path: &str, report: &superpin_serve::ServiceReport) {
    atomic_write(path, report.jsonl().as_bytes())
        .unwrap_or_else(|err| fail(format_args!("writing {path}: {err}")));
    println!("reports: {} job lines -> {path}", report.outcomes.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("spin-serve: {err}");
            usage();
        }
    };

    if let Some(wal_path) = &options.resume {
        let bytes = std::fs::read(wal_path)
            .unwrap_or_else(|err| fail(format_args!("reading {wal_path}: {err}")));
        let recovery = recover_fleet_wal(&bytes)
            .unwrap_or_else(|err| fail(format_args!("recovering {wal_path}: {err}")));
        match &recovery.damage {
            Some(FrameDamage::Torn { offset }) => eprintln!(
                "spin-serve: recovery: {wal_path}: truncated (salvageable, last committed \
                 round {}); torn frame at byte {offset}",
                recovery.rounds.len()
            ),
            Some(FrameDamage::Corrupt { offset, detail }) => eprintln!(
                "spin-serve: recovery: {wal_path}: corrupt at offset {offset} ({detail}); \
                 salvaging {} committed round(s)",
                recovery.rounds.len()
            ),
            None if recovery.clean_end => eprintln!(
                "spin-serve: recovery: {wal_path}: clean end frame; re-verifying {} \
                 committed round(s)",
                recovery.rounds.len()
            ),
            None => eprintln!(
                "spin-serve: recovery: {wal_path}: in-progress log (no end frame), last \
                 committed round {}",
                recovery.rounds.len()
            ),
        }
        if recovery.committed_len < bytes.len() {
            eprintln!(
                "spin-serve: recovery: discarding {} uncommitted frame(s), truncating \
                 {} -> {} bytes",
                recovery.discarded,
                bytes.len(),
                recovery.committed_len
            );
        }
        let file = parse_jobs(&recovery.recipe.spec_text)
            .unwrap_or_else(|err| fail(format_args!("journalled spec: {err}")));
        let cfg = FleetConfig {
            threads: options.threads,
            slots: recovery.recipe.slots as usize,
            fleet_budget: recovery.recipe.fleet_budget,
            chaos: recovery.recipe.chaos,
            spmsec: recovery.recipe.spmsec,
        };
        // Truncate the file to the durable prefix, then reopen it for
        // appending: frames past the last commit marker are
        // unterminated transactions and must not survive.
        let rounds = recovery.rounds.len() as u64;
        let sink = std::fs::OpenOptions::new()
            .write(true)
            .open(wal_path)
            .and_then(|file| {
                file.set_len(recovery.committed_len as u64)?;
                file.sync_data()?;
                std::fs::OpenOptions::new().append(true).open(wal_path)
            })
            .unwrap_or_else(|err| fail(format_args!("truncating {wal_path}: {err}")));
        // Frame/commit counters resume where the durable prefix ends
        // (header + record/commit pair per round), so rate-mode I/O
        // chaos keyed on them continues the interrupted schedule.
        let wal = FleetWal::resume(
            Box::new(sink),
            options.wal_fsync,
            cfg.chaos,
            1 + 2 * rounds,
            rounds,
        );
        let mut dur = Durability {
            wal: Some(wal),
            resume: recovery.rounds.into(),
        };
        let report = run_service_durable(&file, &cfg, &mut dur).unwrap_or_else(|err| fail(err));
        print!("{}", report.render_text());
        report_wal_status(&dur);
        if let Some(path) = &options.emit_reports {
            emit_reports(path, &report);
        }
        return;
    }

    let jobs_path = options.jobs.as_deref().expect("checked by parse_options");
    let spec_text =
        read_jobs(jobs_path).unwrap_or_else(|err| fail(format_args!("reading {jobs_path}: {err}")));
    let file = match parse_jobs(&spec_text) {
        Ok(file) => file,
        Err(err) => {
            eprintln!("spin-serve: {}", ArgError::Spec(err));
            usage();
        }
    };
    if let Some(budget) = options.fleet_budget {
        if let Err(err) = file.check_fleet_budget(budget) {
            eprintln!("spin-serve: {}", ArgError::Spec(err));
            usage();
        }
    }

    let cfg = FleetConfig {
        threads: options.threads,
        slots: options.slots,
        fleet_budget: options.fleet_budget,
        chaos: chaos_plan(&options),
        spmsec: options.spmsec,
    };
    let recipe = FleetRecipe {
        spec_text,
        threads: cfg.threads as u32,
        slots: cfg.slots as u32,
        fleet_budget: cfg.fleet_budget,
        chaos: cfg.chaos,
        spmsec: cfg.spmsec,
    };
    let mut dur = match &options.wal {
        Some(path) => {
            // A WAL that cannot even open degrades the run to
            // non-durable with a counted warning — durability is
            // best-effort, jobs are not.
            let wal = match std::fs::File::create(path) {
                Ok(sink) => FleetWal::create(Box::new(sink), &recipe, options.wal_fsync, cfg.chaos)
                    .unwrap_or_else(FleetWal::degraded_from),
                Err(err) => FleetWal::degraded_from(WalIoError {
                    op: WalOp::Append,
                    at: 0,
                    cause: WalCause::Io(err),
                }),
            };
            Durability {
                wal: Some(wal),
                resume: Default::default(),
            }
        }
        None => Durability::none(),
    };
    let report = run_service_durable(&file, &cfg, &mut dur).unwrap_or_else(|err| fail(err));
    print!("{}", report.render_text());
    report_wal_status(&dur);

    if let Some(path) = &options.emit_reports {
        emit_reports(path, &report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, ArgError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_options(&owned)
    }

    #[test]
    fn parses_the_full_surface() {
        let options = parse(&[
            "--jobs",
            "fleet.jobs",
            "--threads",
            "4",
            "--fleet-slots",
            "3",
            "--fleet-budget",
            "2m",
            "--chaos-seed",
            "3",
            "--chaos-rate",
            "0.05",
            "--spmsec",
            "500",
            "--emit-reports",
            "out.jsonl",
        ])
        .expect("parses");
        assert_eq!(options.jobs.as_deref(), Some("fleet.jobs"));
        assert_eq!(options.threads, 4);
        assert_eq!(options.slots, 3);
        assert_eq!(options.fleet_budget, Some(2 << 20));
        assert_eq!(options.chaos_seed, Some(3));
        assert_eq!(options.chaos_rate, Some(0.05));
        assert_eq!(options.spmsec, 500);
        assert_eq!(options.emit_reports.as_deref(), Some("out.jsonl"));
    }

    #[test]
    fn defaults_are_serial_four_slots() {
        let options = parse(&["--jobs", "-"]).expect("parses");
        assert_eq!(options.threads, 1);
        assert_eq!(options.slots, 4);
        assert_eq!(options.fleet_budget, None);
        assert_eq!(options.wal, None);
    }

    #[test]
    fn rejects_zero_threads_and_slots() {
        assert_eq!(
            parse(&["--jobs", "f", "--threads", "0"]),
            Err(ArgError::ZeroThreads)
        );
        assert_eq!(
            parse(&["--jobs", "f", "--fleet-slots", "0"]),
            Err(ArgError::ZeroSlots)
        );
    }

    #[test]
    fn rejects_bad_values_with_typed_errors() {
        assert_eq!(
            parse(&["--jobs", "f", "--chaos-rate", "1.5"]),
            Err(ArgError::ChaosRateOutOfRange(1.5))
        );
        assert_eq!(
            parse(&["--jobs", "f", "--fleet-budget", "banana"]),
            Err(ArgError::InvalidValue {
                flag: "--fleet-budget",
                value: "banana".to_owned(),
                expected: "a byte count with optional k/m/g suffix (e.g. 64m)",
            })
        );
        assert_eq!(
            parse(&["--jobs", "f", "--threads"]),
            Err(ArgError::MissingValue("--threads"))
        );
        assert_eq!(
            parse(&["--frobnicate"]),
            Err(ArgError::UnknownFlag("--frobnicate".to_owned()))
        );
    }

    #[test]
    fn rejects_contradictory_modes() {
        assert_eq!(parse(&["--threads", "2"]), Err(ArgError::MissingJobs));
        // The retired fleet-log flags are unknown, alone or together.
        assert_eq!(
            parse(&["--jobs", "f", "--record", "a", "--replay", "b"]),
            Err(ArgError::UnknownFlag("--record".to_owned()))
        );
        assert_eq!(
            parse(&["--replay", "b"]),
            Err(ArgError::UnknownFlag("--replay".to_owned()))
        );
    }

    #[test]
    fn parses_the_durability_surface() {
        let options = parse(&[
            "--jobs",
            "fleet.jobs",
            "--wal",
            "fleet.spwal",
            "--wal-fsync",
            "every=8",
        ])
        .expect("parses");
        assert_eq!(options.wal.as_deref(), Some("fleet.spwal"));
        assert_eq!(options.wal_fsync, FsyncPolicy::EveryN(8));
        // The default policy is the safe one.
        let defaults = parse(&["--jobs", "f"]).expect("parses");
        assert_eq!(defaults.wal_fsync, FsyncPolicy::EveryCommit);
        assert_eq!(
            parse(&["--jobs", "f", "--wal-fsync", "sometimes"]),
            Err(ArgError::InvalidValue {
                flag: "--wal-fsync",
                value: "sometimes".to_owned(),
                expected: "`commit`, `off`, or `every=N`",
            })
        );
    }

    #[test]
    fn resume_stands_alone() {
        // Resume satisfies the job-file requirement by itself...
        let options = parse(&["--resume", "cut.spwal", "--threads", "4"]).expect("parses");
        assert_eq!(options.resume.as_deref(), Some("cut.spwal"));
        // ...and refuses every knob the WAL header already fixes.
        for (flag, value) in [
            ("--jobs", "f"),
            ("--fleet-slots", "2"),
            ("--fleet-budget", "1m"),
            ("--chaos-seed", "3"),
            ("--chaos-rate", "0.1"),
            ("--spmsec", "500"),
            ("--wal", "w"),
        ] {
            assert_eq!(
                parse(&["--resume", "cut.spwal", flag, value]),
                Err(ArgError::ResumeConflict(flag)),
                "{flag} must conflict with --resume"
            );
        }
        // A resume of a complete WAL *is* the fleet replay: the retired
        // `--record`/`--replay` flags are unknown here too.
        for flag in ["--record", "--replay"] {
            assert_eq!(
                parse(&["--resume", "cut.spwal", flag, "a"]),
                Err(ArgError::UnknownFlag(flag.to_owned())),
                "{flag} must be unknown"
            );
        }
    }

    #[test]
    fn spec_rejections_surface_as_arg_errors() {
        // The satellite contract: weight 0, duplicate tenants, and
        // tenant-budget-over-fleet all reject with typed errors.
        let workload = superpin_workloads::catalog()[0].name;
        let zero = format!("tenant a weight=0\njob tenant=a workload={workload}\n");
        assert!(matches!(
            parse_jobs(&zero).map_err(ArgError::Spec),
            Err(ArgError::Spec(SpecError::ZeroWeight { .. }))
        ));
        let dup =
            format!("tenant a weight=1\ntenant a weight=2\njob tenant=a workload={workload}\n");
        assert!(matches!(
            parse_jobs(&dup).map_err(ArgError::Spec),
            Err(ArgError::Spec(SpecError::DuplicateTenant { .. }))
        ));
        let capped = format!("tenant a weight=1 budget=4m\njob tenant=a workload={workload}\n");
        let file = parse_jobs(&capped).expect("parses");
        assert!(matches!(
            file.check_fleet_budget(1 << 20).map_err(ArgError::Spec),
            Err(ArgError::Spec(SpecError::TenantBudgetExceedsFleet { .. }))
        ));
    }
}
