//! The `sliced` and `pin_serial` workloads: the catalog's programs run
//! one after another under SuperPin or serial Pin with `icount1`.

use std::time::Instant;

use superpin::baseline::{run_native, run_pin, PinReport};
use superpin::{HostProfile, SharedMem, SuperPinConfig, SuperPinReport, SuperPinRunner};
use superpin_isa::Program;
use superpin_serve::{build_job, time_scale_for};
use superpin_tools::ICount1;
use superpin_vm::process::Process;
use superpin_workloads::{catalog, Scale};

use crate::metrics::{fastest, percentile, ratio, Metrics};
use crate::{
    fastest_setup, guarded, timed, Passes, Rng, RunArgs, SetupTimes, Size, Tally, Workload,
};

/// Worker threads of the `sliced` workload.
pub const SLICED_THREADS: usize = 2;

/// The programs of one run, in the order they execute.
pub struct ProgramSet {
    /// Catalog names.
    pub names: Vec<&'static str>,
    /// Generated programs.
    pub programs: Vec<Program>,
}

/// Builds `size.programs` catalog programs in seed-shuffled order,
/// each with a seed-chosen input.
pub fn build_set(seed: u64, size: Size) -> ProgramSet {
    let mut rng = Rng::new(seed);
    let mut specs: Vec<_> = catalog().iter().collect();
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    specs.truncate(size.programs);
    ProgramSet {
        names: specs.iter().map(|spec| spec.name).collect(),
        programs: specs
            .iter()
            .map(|spec| spec.build_with_input(size.program_scale, rng.next_u64()))
            .collect(),
    }
}

fn load(program: &Program) -> Result<Process, String> {
    Process::load(1, program).map_err(|err| format!("load: {err}"))
}

/// The dynamic instruction count of a native run: the reference every
/// instruction count is checked against.
pub fn native_insts(program: &Program) -> Result<u64, String> {
    guarded(|| {
        run_native(load(program)?)
            .map(|report| report.insts)
            .map_err(|err| format!("native run: {err}"))
    })
}

/// The `superpin` CLI's default configuration (`-spmsec 1000 -spmp 8
/// -spsysrecs 1000`, plan off) at `threads` host worker threads.
pub fn sliced_config(scale: Scale, threads: usize) -> SuperPinConfig {
    SuperPinConfig::scaled(1000, time_scale_for(scale))
        .with_max_slices(8)
        .with_max_sysrecs(1000)
        .with_threads(threads)
        .with_watchdog_factor(8)
}

/// One SuperPin run with `icount1`; returns the report, the host
/// profile and the merged instruction count.
pub fn run_sliced(
    program: &Program,
    scale: Scale,
    threads: usize,
) -> Result<(SuperPinReport, HostProfile, u64), String> {
    guarded(|| {
        let shared = SharedMem::new();
        let tool = ICount1::new(&shared);
        let runner = SuperPinRunner::new(
            load(program)?,
            tool.clone(),
            shared.clone(),
            sliced_config(scale, threads),
        )
        .map_err(|err| format!("superpin setup: {err}"))?;
        let (report, profile) = runner
            .run_profiled()
            .map_err(|err| format!("superpin run: {err}"))?;
        Ok((report, profile, tool.total(&shared)))
    })
}

/// One serial Pin run with `icount1`.
pub fn run_pin_icount(program: &Program) -> Result<PinReport<ICount1>, String> {
    guarded(|| {
        let shared = SharedMem::new();
        run_pin(load(program)?, ICount1::new(&shared)).map_err(|err| format!("pin run: {err}"))
    })
}

/// Checks a count against its reference.
pub fn check_count(what: &str, got: u64, reference: &Result<u64, String>) -> Result<(), String> {
    match reference {
        Ok(want) if *want == got => Ok(()),
        Ok(want) => Err(format!(
            "{what}: counted {got} instructions, native ran {want}"
        )),
        Err(why) => Err(format!("{what}: no reference count ({why})")),
    }
}

/// The `sliced` or `pin_serial` workload.
pub fn run(args: &RunArgs, tally: &mut Tally) -> Metrics {
    let mut setup_times = SetupTimes::default();
    let set = setup_times.window(|| build_set(args.seed, args.size));
    let (refs, native_s): (Vec<_>, Vec<_>) = set
        .programs
        .iter()
        .map(|program| {
            let (insts, took) = timed(|| native_insts(program));
            (insts, took.as_secs_f64())
        })
        .unzip();
    if args.trace {
        let (_, build_s) = fastest_setup(|| build_set(args.seed, args.size));
        return traced(args, &set, &refs, build_s, &native_s, tally);
    }

    let scale = args.size.program_scale;
    let workload = args.workload;
    let op = |program: &Program| match workload {
        Workload::Sliced => run_sliced(program, scale, SLICED_THREADS).map(|(_, _, count)| count),
        _ => run_pin_icount(program).map(|pin| pin.tool.local_count()),
    };
    // Whole passes over the set while another one fits in the time;
    // each program's time is its fastest over the passes.
    let mut times = vec![Vec::new(); set.programs.len()];
    let mut passes = Passes::new(args.seconds);
    while passes.another() {
        for (i, program) in set.programs.iter().enumerate() {
            let (count, took) = timed(|| op(program));
            let checked = count.and_then(|count| check_count(set.names[i], count, &refs[i]));
            if tally.check(checked).is_some() {
                times[i].push(took.as_secs_f64());
            }
        }
        setup_times.window(|| build_set(args.seed, args.size));
    }
    let (mut insts, mut secs, mut done) = (0u64, 0.0, 0usize);
    for (i, program_times) in times.iter().enumerate() {
        if let (false, Ok(reference)) = (program_times.is_empty(), &refs[i]) {
            insts += reference;
            secs += fastest(program_times);
            done += 1;
        }
    }
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_times.fastest(), "s");
    metrics.set("peak_rss_mib", passes.peak_rss_mib(), "MiB");
    metrics.set("minst_per_s", ratio(insts as f64 / 1e6, secs), "Minst/s");
    metrics.set("jobs_per_s", ratio(done as f64, secs), "1/s");
    metrics
}

/// Code-cache hits and lookups, summed before the ratio is taken.
#[derive(Default)]
pub struct CacheTally {
    hits: u64,
    lookups: u64,
}

impl CacheTally {
    /// Writes `dbi.cache_hit_ratio`.
    pub fn finish(&self, metrics: &mut Metrics) {
        let hit_ratio = ratio(self.hits as f64, self.lookups as f64);
        metrics.set("dbi.cache_hit_ratio", hit_ratio, "ratio");
    }
}

/// Adds one SuperPin report's deterministic counters.
pub fn add_report(metrics: &mut Metrics, cache: &mut CacheTally, report: &SuperPinReport) {
    let mut cow = report.master_cow_copies;
    for slice in &report.slices {
        cow += slice.cow_copies;
        metrics.add("dbi.traces_compiled", slice.cache.traces_compiled as f64);
        metrics.add("dbi.insts_compiled", slice.cache.insts_compiled as f64);
        metrics.add("dbi.analysis_calls", slice.engine.analysis_calls as f64);
        metrics.add(
            "dbi.shared_cache_adoptions",
            slice.engine.shared_cache_adoptions as f64,
        );
        metrics.add("core.records_played", slice.records_played as f64);
        cache.hits += slice.cache.hits;
        cache.lookups += slice.cache.lookups;
    }
    metrics.add("vm.cow_copies", cow as f64);
    metrics.add("core.epochs", report.epochs as f64);
    metrics.add("core.slices", report.slice_count() as f64);
    metrics.add("core.forks_on_timeout", report.forks_on_timeout as f64);
    metrics.add("core.forks_on_syscall", report.forks_on_syscall as f64);
    metrics.add("core.stall_events", report.stall_events as f64);
    let sig = report.sig_stats;
    metrics.add("core.signature.quick_checks", sig.quick_checks as f64);
    metrics.add("core.signature.full_checks", sig.full_checks as f64);
    metrics.add("core.signature.detections", sig.detections as f64);
    metrics.add("core.governor.caches_evicted", report.caches_evicted as f64);
    metrics.add(
        "core.governor.slices_deferred",
        report.slices_deferred as f64,
    );
    let peak = metrics
        .get("core.governor.peak_resident_bytes")
        .unwrap_or(0.0);
    let peak = peak.max(report.peak_resident_bytes as f64);
    metrics.set("core.governor.peak_resident_bytes", peak, "bytes");
    let time = report.breakdown;
    metrics.add("sched.simulated_cycles", report.total_cycles as f64);
    metrics.add("sched.native_cycles", time.native_cycles as f64);
    metrics.add("sched.fork_other_cycles", time.fork_other_cycles as f64);
    metrics.add("sched.sleep_cycles", time.sleep_cycles as f64);
    metrics.add("sched.pipeline_cycles", time.pipeline_cycles as f64);
}

/// One program for [`epoch_pass`]: a name, the program, its
/// configuration, its tool and its reference count.
pub struct EpochJob<'a> {
    /// Name for failure messages.
    pub name: &'a str,
    /// The program.
    pub program: &'a Program,
    /// Runner configuration (threads = 1).
    pub cfg: SuperPinConfig,
    /// Tool name from the serve registry.
    pub tool: &'a str,
    /// Native instruction count.
    pub reference: &'a Result<u64, String>,
}

/// Drives each job one `step_serial` epoch at a time, as the fleet
/// does, twice: once untraced, timed only as a whole, and once traced,
/// with runner construction, every epoch and `finish` timed apart. The
/// two runs alternate which goes first. Writes `core.new_ms`,
/// `core.finish_ms`, the epoch percentiles, and, as
/// `spbench.trace_overhead`, how far the traced runs' total time
/// differs from the untraced runs' (traced / untraced - 1).
pub fn epoch_pass(jobs: &[EpochJob<'_>], metrics: &mut Metrics, tally: &mut Tally) {
    let (mut new_s, mut finish_s, mut epochs_us) = (0.0, 0.0, Vec::new());
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for (k, job) in jobs.iter().enumerate() {
        for traced in [k % 2 == 1, k % 2 == 0] {
            let start = Instant::now();
            let outcome = guarded(|| {
                let build = || {
                    build_job(job.program, job.cfg.clone(), job.tool)
                        .map_err(|err| format!("{}: setup: {err}", job.name))?
                        .ok_or_else(|| format!("{}: unknown tool {}", job.name, job.tool))
                };
                let epoch_failed = |err| format!("{}: epoch: {err}", job.name);
                let report = if traced {
                    let (driver, took) = timed(build);
                    new_s += took.as_secs_f64();
                    let mut driver = driver?;
                    loop {
                        let (more, took) = timed(|| driver.step());
                        epochs_us.push(took.as_secs_f64() * 1e6);
                        if !more.map_err(epoch_failed)? {
                            break;
                        }
                    }
                    let (report, took) = timed(|| driver.finish());
                    finish_s += took.as_secs_f64();
                    report
                } else {
                    let mut driver = build()?;
                    while driver.step().map_err(epoch_failed)? {}
                    driver.finish()
                };
                let report = report.map_err(|err| format!("{}: finish: {err}", job.name))?;
                check_count(job.name, report.master_insts, job.reference)?;
                check_count(job.name, report.slice_inst_total(), job.reference)
            });
            let took = start.elapsed().as_secs_f64();
            if traced {
                traced_s += took;
            } else {
                untraced_s += took;
            }
            tally.check(outcome);
        }
    }
    metrics.set("core.new_ms", new_s * 1e3, "ms");
    metrics.set("core.finish_ms", finish_s * 1e3, "ms");
    metrics.set("core.epoch_us_p50", percentile(&epochs_us, 50.0), "us");
    metrics.set("core.epoch_us_p99", percentile(&epochs_us, 99.0), "us");
    let overhead = ratio(traced_s, untraced_s) - 1.0;
    metrics.set("spbench.trace_overhead", overhead, "ratio");
}

/// The traced run: each program runs once with its counters read,
/// plus the layers the workload is built on (native runs, serial Pin,
/// and for `sliced` an epoch-by-epoch pass).
fn traced(
    args: &RunArgs,
    set: &ProgramSet,
    refs: &[Result<u64, String>],
    build_s: f64,
    native_s: &[f64],
    tally: &mut Tally,
) -> Metrics {
    let scale = args.size.program_scale;
    let mut metrics = Metrics::per_layer();
    let mut cache = CacheTally::default();
    metrics.set("workloads.build_ms", build_s * 1e3, "ms");
    let native_total: f64 = native_s.iter().sum();
    let native_insts: u64 = refs.iter().flatten().sum();
    metrics.set("vm.native_ms", native_total * 1e3, "ms");
    let native_rate = ratio(native_insts as f64 / 1e6, native_total);
    metrics.set("vm.native_minst_per_s", native_rate, "Minst/s");

    let (mut pin_s, mut supervisor_s, mut slice_s) = (0.0, 0.0, 0.0);
    for (i, program) in set.programs.iter().enumerate() {
        let (name, reference) = (set.names[i], &refs[i]);
        if args.workload == Workload::Sliced {
            let run = run_sliced(program, scale, SLICED_THREADS);
            tally.check(run.and_then(|(report, profile, count)| {
                supervisor_s += profile.supervisor_ns as f64 / 1e9;
                slice_s += profile.slice_ns as f64 / 1e9;
                add_report(&mut metrics, &mut cache, &report);
                check_count(name, count, reference)
            }));
        }
        let (pin, took) = timed(|| run_pin_icount(program));
        pin_s += took.as_secs_f64();
        tally.check(pin.and_then(|pin| {
            if args.workload == Workload::PinSerial {
                metrics.add("dbi.traces_compiled", pin.cache.traces_compiled as f64);
                metrics.add("dbi.insts_compiled", pin.cache.insts_compiled as f64);
                metrics.add("dbi.analysis_calls", pin.stats.analysis_calls as f64);
                let adoptions = pin.stats.shared_cache_adoptions as f64;
                metrics.add("dbi.shared_cache_adoptions", adoptions);
                metrics.add("sched.simulated_cycles", pin.cycles as f64);
                cache.hits += pin.cache.hits;
                cache.lookups += pin.cache.lookups;
            }
            check_count(name, pin.tool.local_count(), reference)
        }));
    }
    metrics.set("dbi.pin_ms", pin_s * 1e3, "ms");

    if args.workload == Workload::Sliced {
        metrics.set("core.supervisor_ms", supervisor_s * 1e3, "ms");
        metrics.set("core.slice_ms", slice_s * 1e3, "ms");
        let jobs: Vec<EpochJob<'_>> = set
            .programs
            .iter()
            .enumerate()
            .map(|(i, program)| EpochJob {
                name: set.names[i],
                program,
                cfg: sliced_config(scale, 1),
                tool: "icount1",
                reference: &refs[i],
            })
            .collect();
        epoch_pass(&jobs, &mut metrics, tally);
    }
    cache.finish(&mut metrics);
    metrics
}
