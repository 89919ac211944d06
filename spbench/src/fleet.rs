//! The `fleet` workload: an in-process `spin-serve` fleet over a seeded
//! job file, journalled to a write-ahead log, then resumed from a copy
//! of that log cut just before its end frame.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use superpin::SuperPinConfig;
use superpin_isa::Program;
use superpin_replay::fleet::{recover_fleet_wal, FleetRecipe};
use superpin_replay::wal::{
    salvage, FsyncPolicy, WalSink, WalWriter, WAL_FRAME_END, WAL_FRAME_OVERHEAD, WAL_FRAME_RECORD,
};
use superpin_serve::durable::{Durability, FleetWal};
use superpin_serve::{
    build_job, parse_jobs, run_service_durable, time_scale_for, FleetConfig, JobFile, ServiceReport,
};
use superpin_workloads::{catalog, find};

use crate::metrics::{fastest, percentile, ratio, Metrics};
use crate::programs::{
    add_report, check_count, epoch_pass, native_insts, run_pin_icount, CacheTally, EpochJob,
};
use crate::{fastest_setup, guarded, timed, Passes, Rng, RunArgs, SetupTimes, Size, Tally};

/// Tenants and their fair-share weights.
pub const TENANTS: [(&str, u64); 3] = [("gold", 4), ("silver", 2), ("bronze", 1)];

/// Tools the job file draws from.
pub const TOOLS: [&str; 6] = ["icount1", "icount2", "bblcount", "insmix", "branch", "mem"];

/// Fleet resident budget: tight enough that admission evicts code
/// caches (`--fleet-budget 2m`).
pub const FLEET_BUDGET: u64 = 2 << 20;

/// Arrivals are spaced by a uniform draw below this many cycles.
pub const ARRIVAL_GAP_CYCLES: u64 = 1_000_000;

/// The fleet knobs: `spin-serve --threads 2` with the default 4 slots
/// and 1000 ms timeslice, under [`FLEET_BUDGET`].
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        threads: 2,
        slots: 4,
        fleet_budget: Some(FLEET_BUDGET),
        chaos: None,
        spmsec: 1000,
    }
}

/// The seeded job file. Job `k` of `size.fleet_jobs` runs catalog
/// program `k mod 26` under tool `k mod 6`, so every seed runs the same
/// work; the seed shuffles the jobs, which fixes their arrival order,
/// and draws the gaps between arrivals. Tenants take the shuffled jobs
/// in turn.
pub fn job_text(seed: u64, size: Size) -> String {
    let mut rng = Rng::new(seed);
    let mut jobs: Vec<(&str, &str)> = (0..size.fleet_jobs)
        .map(|k| (catalog()[k % catalog().len()].name, TOOLS[k % TOOLS.len()]))
        .collect();
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut text = String::new();
    for (name, weight) in TENANTS {
        text.push_str(&format!("tenant {name} weight={weight}\n"));
    }
    let scale = superpin_serve::spec::scale_name(size.fleet_scale);
    let mut arrive = 0;
    for (k, (workload, tool)) in jobs.into_iter().enumerate() {
        let tenant = TENANTS[k % TENANTS.len()].0;
        text.push_str(&format!(
            "job tenant={tenant} workload={workload} scale={scale} tool={tool} arrive={arrive}\n"
        ));
        arrive += rng.below(ARRIVAL_GAP_CYCLES);
    }
    text
}

/// A parsed job file with each job's program.
pub struct Fleet {
    /// The job file as written (the WAL header journals it).
    pub text: String,
    /// The parsed job file.
    pub file: JobFile,
    /// Each job's program, in job order.
    pub programs: Vec<Program>,
}

fn job_config(fleet: &Fleet, job: usize) -> SuperPinConfig {
    let scale = fleet.file.jobs[job].scale;
    SuperPinConfig::scaled(fleet_config().spmsec, time_scale_for(scale)).with_threads(1)
}

/// Set-up: writes and parses the job file, generates every job's
/// program and builds every job's runner (then drops it).
fn set_up(seed: u64, size: Size) -> Result<Fleet, String> {
    let text = job_text(seed, size);
    let file = parse_jobs(&text).map_err(|err| format!("job file: {err}"))?;
    let programs = file
        .jobs
        .iter()
        .map(|job| {
            find(&job.workload)
                .expect("parse_jobs validates workload names")
                .build(job.scale)
        })
        .collect();
    let fleet = Fleet {
        text,
        file,
        programs,
    };
    for (id, job) in fleet.file.jobs.iter().enumerate() {
        build_job(&fleet.programs[id], job_config(&fleet, id), &job.tool)
            .map_err(|err| format!("job {id}: setup: {err}"))?
            .ok_or_else(|| format!("job {id}: unknown tool {}", job.tool))?;
    }
    Ok(fleet)
}

/// A WAL file sink that counts its fsyncs.
struct CountingSink {
    file: File,
    syncs: Arc<AtomicU64>,
}

impl WalSink for CountingSink {
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        std::io::Write::write_all(&mut self.file, bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        // Relaxed: a statistic, read after the run on the same thread.
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.file.sync_data()
    }
}

/// A scratch directory under the working directory, removed on drop.
pub struct WalDir(PathBuf);

impl WalDir {
    /// Creates `.bench_run/spbench-<pid>-<n>` under the working
    /// directory, `n` counting the directories this process made.
    pub fn create() -> Result<WalDir, String> {
        static MADE: AtomicU64 = AtomicU64::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(".bench_run").join(format!("spbench-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|err| format!("creating {dir:?}: {err}"))?;
        Ok(WalDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// What one fleet run with a WAL produced.
pub struct WalRun {
    /// The fleet's report.
    pub report: ServiceReport,
    /// Host seconds of `run_service_durable`.
    pub secs: f64,
    /// fsyncs the WAL issued.
    pub syncs: u64,
}

/// Runs the fleet with a WAL at `<dir>/run.wal`, fsync at every commit.
pub fn run_with_wal(fleet: &Fleet, dir: &WalDir) -> Result<WalRun, String> {
    let cfg = fleet_config();
    let path = dir.path("run.wal");
    let file = File::create(&path).map_err(|err| format!("creating {path:?}: {err}"))?;
    let syncs = Arc::new(AtomicU64::new(0));
    let sink = CountingSink {
        file,
        syncs: Arc::clone(&syncs),
    };
    let recipe = FleetRecipe {
        spec_text: fleet.text.clone(),
        threads: cfg.threads as u32,
        slots: cfg.slots as u32,
        fleet_budget: cfg.fleet_budget,
        chaos: cfg.chaos,
        spmsec: cfg.spmsec,
    };
    let wal = FleetWal::create(Box::new(sink), &recipe, FsyncPolicy::EveryCommit, cfg.chaos)
        .map_err(|err| format!("wal create: {err}"))?;
    let mut dur = Durability {
        wal: Some(wal),
        resume: Default::default(),
    };
    let (report, took) = timed(|| {
        guarded(|| run_service_durable(&fleet.file, &cfg, &mut dur).map_err(|e| e.to_string()))
    });
    let report = report.map_err(|err| format!("fleet run: {err}"))?;
    if let Some(status) = dur.status().filter(|status| status.degraded) {
        return Err(format!("wal degraded: {:?}", status.last_error));
    }
    Ok(WalRun {
        report,
        secs: took.as_secs_f64(),
        syncs: syncs.load(Ordering::Relaxed),
    })
}

/// Copies `<dir>/run.wal` to `<dir>/cut.wal` without its end frame, the
/// log a crash just before the run's last write leaves.
pub fn cut_wal(dir: &WalDir) -> Result<(), String> {
    let whole = std::fs::read(dir.path("run.wal")).map_err(|err| format!("reading wal: {err}"))?;
    let salvaged = salvage(&whole).map_err(|err| format!("salvaging wal: {err}"))?;
    let ends_cleanly =
        salvaged.clean_end && salvaged.frames.last().map(|frame| frame.kind) == Some(WAL_FRAME_END);
    if !ends_cleanly {
        return Err("the WAL of a completed run has no clean end frame".to_owned());
    }
    let cut = &whole[..whole.len() - WAL_FRAME_OVERHEAD];
    std::fs::write(dir.path("cut.wal"), cut).map_err(|err| format!("writing cut wal: {err}"))
}

/// Resumes `<dir>/cut.wal` the way `spin-serve --resume` does:
/// recover the committed prefix, truncate to it, re-execute with
/// verification and finish live. Returns the report and host seconds.
///
/// This copies the `--resume` branch of `spin-serve`'s `main`
/// (`crates/serve/src/bin/spin-serve.rs`, from `recover_fleet_wal` to
/// `run_service_durable`), including its `1 + 2 * rounds` frame count.
/// It must track that code until the branch moves into a
/// `superpin_serve::durable` function that both call.
pub fn resume(dir: &WalDir) -> Result<(ServiceReport, f64), String> {
    let start = Instant::now();
    let path = dir.path("cut.wal");
    let bytes = std::fs::read(&path).map_err(|err| format!("reading {path:?}: {err}"))?;
    let recovery = recover_fleet_wal(&bytes).map_err(|err| format!("recovering wal: {err}"))?;
    let file = parse_jobs(&recovery.recipe.spec_text)
        .map_err(|err| format!("journalled job file: {err}"))?;
    let cfg = FleetConfig {
        threads: fleet_config().threads,
        slots: recovery.recipe.slots as usize,
        fleet_budget: recovery.recipe.fleet_budget,
        chaos: recovery.recipe.chaos,
        spmsec: recovery.recipe.spmsec,
    };
    let rounds = recovery.rounds.len() as u64;
    let sink = OpenOptions::new()
        .write(true)
        .open(&path)
        .and_then(|file| {
            file.set_len(recovery.committed_len as u64)?;
            file.sync_data()?;
            OpenOptions::new().append(true).open(&path)
        })
        .map_err(|err| format!("truncating {path:?}: {err}"))?;
    let wal = FleetWal::resume(
        Box::new(sink),
        FsyncPolicy::EveryCommit,
        cfg.chaos,
        1 + 2 * rounds,
        rounds,
    );
    let mut dur = Durability {
        wal: Some(wal),
        resume: recovery.rounds.into(),
    };
    let report = guarded(|| run_service_durable(&file, &cfg, &mut dur).map_err(|e| e.to_string()))
        .map_err(|err| format!("resume: {err}"))?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// The report bytes a resume must reproduce exactly.
fn rendered(report: &ServiceReport) -> String {
    report.render_text() + &report.jsonl()
}

/// Checks every job's instruction counts against the native reference.
fn check_jobs(
    report: &ServiceReport,
    refs: &BTreeMap<&str, Result<u64, String>>,
) -> Result<(), String> {
    for outcome in &report.outcomes {
        let what = format!("job {} ({})", outcome.job, outcome.workload);
        let reference = &refs[outcome.workload.as_str()];
        check_count(&what, outcome.report.master_insts, reference)?;
        check_count(&what, outcome.report.slice_inst_total(), reference)?;
    }
    Ok(())
}

/// One fleet operation: a WAL run, then a resume of its cut WAL. Both
/// count as operations; returns the WAL run and the resume's report
/// and seconds when both succeed.
fn fleet_op(
    fleet: &Fleet,
    refs: &BTreeMap<&str, Result<u64, String>>,
    dir: &WalDir,
    tally: &mut Tally,
) -> Option<(WalRun, f64)> {
    let run = run_with_wal(fleet, dir).and_then(|run| check_jobs(&run.report, refs).map(|()| run));
    let run = tally.check(run)?;
    let resumed = cut_wal(dir)
        .and_then(|()| resume(dir))
        .and_then(|(report, secs)| {
            if rendered(&report) == rendered(&run.report) {
                Ok(secs)
            } else {
                Err("the resumed fleet's report differs from the uninterrupted run's".to_owned())
            }
        });
    let secs = tally.check(resumed)?;
    Some((run, secs))
}

/// The `fleet` workload.
pub fn run(args: &RunArgs, tally: &mut Tally) -> Metrics {
    let mut setup_times = SetupTimes::default();
    let fleet = setup_times.window(|| set_up(args.seed, args.size));
    let Some(fleet) = tally.check(fleet) else {
        return Metrics::default();
    };
    let Some(dir) = tally.check(WalDir::create()) else {
        return Metrics::default();
    };
    let mut native_s = 0.0;
    let mut refs = BTreeMap::new();
    for (id, job) in fleet.file.jobs.iter().enumerate() {
        refs.entry(job.workload.as_str()).or_insert_with(|| {
            let (insts, took) = timed(|| native_insts(&fleet.programs[id]));
            native_s += took.as_secs_f64();
            insts
        });
    }
    let job_insts: u64 = fleet
        .file
        .jobs
        .iter()
        .filter_map(|job| refs[job.workload.as_str()].as_ref().ok())
        .sum();
    if args.trace {
        return traced(&fleet, &refs, native_s, &dir, tally);
    }

    let (mut run_secs, mut resume_secs) = (Vec::new(), Vec::new());
    let mut passes = Passes::new(args.seconds);
    while passes.another() {
        if let Some((run, resume_s)) = fleet_op(&fleet, &refs, &dir, tally) {
            run_secs.push(run.secs);
            resume_secs.push(resume_s);
        }
        let _ = setup_times.window(|| set_up(args.seed, args.size));
    }
    let op_s = fastest(&run_secs) + fastest(&resume_secs);
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_times.fastest(), "s");
    metrics.set("peak_rss_mib", passes.peak_rss_mib(), "MiB");
    metrics.set(
        "minst_per_s",
        ratio(job_insts as f64 / 1e6, op_s),
        "Minst/s",
    );
    let jobs = fleet.file.jobs.len() as f64;
    metrics.set("jobs_per_s", ratio(jobs, op_s), "1/s");
    metrics
}

/// The traced run: one fleet operation with its counters read, its
/// log salvaged and recovered, a run without WAL, the WAL's appends
/// replayed one by one, and every job driven epoch by epoch outside the
/// fleet.
fn traced(
    fleet: &Fleet,
    refs: &BTreeMap<&str, Result<u64, String>>,
    native_s: f64,
    dir: &WalDir,
    tally: &mut Tally,
) -> Metrics {
    let mut metrics = Metrics::per_layer();
    let mut cache = CacheTally::default();
    let (_, parse_s) = fastest_setup(|| parse_jobs(&fleet.text));
    metrics.set("serve.parse_us", parse_s * 1e6, "us");
    let (_, build_s) = fastest_setup(|| {
        fleet
            .file
            .jobs
            .iter()
            .map(|job| find(&job.workload).expect("validated").build(job.scale))
            .collect::<Vec<_>>()
    });
    metrics.set("workloads.build_ms", build_s * 1e3, "ms");
    metrics.set("vm.native_ms", native_s * 1e3, "ms");
    let native_insts: u64 = refs.values().flatten().sum();
    let native_rate = ratio(native_insts as f64 / 1e6, native_s);
    metrics.set("vm.native_minst_per_s", native_rate, "Minst/s");

    let mut pin_s = 0.0;
    for (id, job) in fleet.file.jobs.iter().enumerate() {
        let (pin, took) = timed(|| run_pin_icount(&fleet.programs[id]));
        pin_s += took.as_secs_f64();
        let what = format!("job {id} ({}) under pin", job.workload);
        let reference = &refs[job.workload.as_str()];
        tally.check(pin.and_then(|pin| check_count(&what, pin.tool.local_count(), reference)));
    }
    metrics.set("dbi.pin_ms", pin_s * 1e3, "ms");

    // The fleet operation with its counters read, then salvage and
    // recovery timed apart on its log.
    let traced = fleet_op(fleet, refs, dir, tally).map(|(run, resume_s)| {
        let report = &run.report;
        for outcome in &report.outcomes {
            add_report(&mut metrics, &mut cache, &outcome.report);
        }
        metrics.set("serve.rounds", report.rounds as f64, "count");
        metrics.set("serve.fleet_cycles", report.fleet_cycles as f64, "cycles");
        let p50 = report.turnaround_percentile(50.0) as f64;
        metrics.set("serve.turnaround_p50_cycles", p50, "cycles");
        let max = report.turnaround_percentile(100.0) as f64;
        metrics.set("serve.turnaround_max_cycles", max, "cycles");
        for tenant in &report.tenants {
            let counters = &tenant.counters;
            for (field, value) in [
                ("evictions", counters.evicted),
                ("deferred", counters.deferred),
                ("degraded", counters.degraded),
                ("completed", tenant.completed),
            ] {
                let name = format!("serve.tenant.{}.{field}", tenant.name);
                metrics.set(&name, value as f64, "count");
            }
        }
        metrics.set("replay.wal_syncs", run.syncs as f64, "count");
        metrics.set("replay.resume_ms", resume_s * 1e3, "ms");
        (run, resume_s)
    });
    if let Some((run, _)) = &traced {
        wal_layers(run, dir, &mut metrics, tally);
        let cfg = fleet_config();
        let mut plain = Durability::none();
        let (no_wal, took) = timed(|| {
            guarded(|| {
                run_service_durable(&fleet.file, &cfg, &mut plain).map_err(|e| e.to_string())
            })
        });
        metrics.set("serve.run_ms_no_wal", took.as_secs_f64() * 1e3, "ms");
        let overhead = ratio(run.secs, took.as_secs_f64());
        metrics.set("replay.wal_overhead", overhead, "ratio");
        tally.check(match no_wal {
            Ok(report) if rendered(&report) == rendered(&run.report) => Ok(()),
            Ok(_) => Err("the fleet's report changed without a WAL".to_owned()),
            Err(err) => Err(format!("fleet run without wal: {err}")),
        });
    }

    let jobs: Vec<EpochJob<'_>> = fleet
        .file
        .jobs
        .iter()
        .enumerate()
        .map(|(id, job)| EpochJob {
            name: &job.workload,
            program: &fleet.programs[id],
            cfg: job_config(fleet, id),
            tool: &job.tool,
            reference: &refs[job.workload.as_str()],
        })
        .collect();
    epoch_pass(&jobs, &mut metrics, tally);
    cache.finish(&mut metrics);
    metrics
}

/// WAL sizes, salvage and recovery times on the traced run's log, and
/// the latency of re-appending its records one committed frame at a
/// time.
fn wal_layers(run: &WalRun, dir: &WalDir, metrics: &mut Metrics, tally: &mut Tally) {
    let outcome = (|| {
        let whole = std::fs::read(dir.path("run.wal")).map_err(|err| format!("wal: {err}"))?;
        let cut = &whole[..whole.len() - WAL_FRAME_OVERHEAD];
        metrics.set("replay.wal_bytes", whole.len() as f64, "bytes");
        let (salvaged, took) = timed(|| salvage(cut));
        metrics.set("replay.salvage_ms", took.as_secs_f64() * 1e3, "ms");
        let salvaged = salvaged.map_err(|err| format!("salvage: {err}"))?;
        // The cut log lacks only the end frame.
        metrics.set(
            "replay.wal_frames",
            salvaged.frames.len() as f64 + 1.0,
            "count",
        );
        let (recovery, took) = timed(|| recover_fleet_wal(cut));
        metrics.set("replay.recover_ms", took.as_secs_f64() * 1e3, "ms");
        let rounds = recovery
            .map_err(|err| format!("recover: {err}"))?
            .rounds
            .len() as u64;
        if rounds != run.report.rounds {
            return Err(format!(
                "recovered {rounds} rounds, the run committed {}",
                run.report.rounds
            ));
        }

        let path = dir.path("append.wal");
        let file = File::create(&path).map_err(|err| format!("creating {path:?}: {err}"))?;
        let mut writer = WalWriter::create(Box::new(file), FsyncPolicy::EveryCommit, None)
            .map_err(|err| format!("append wal: {err}"))?;
        let mut append_us = Vec::new();
        let records = salvaged
            .frames
            .iter()
            .filter(|f| f.kind == WAL_FRAME_RECORD);
        for (seq, frame) in records.enumerate() {
            let (appended, took) =
                timed(|| writer.append_committed(frame.kind, &frame.payload, seq as u64 + 1));
            appended.map_err(|err| format!("append: {err}"))?;
            append_us.push(took.as_secs_f64() * 1e6);
        }
        metrics.set(
            "replay.wal_append_us_p50",
            percentile(&append_us, 50.0),
            "us",
        );
        metrics.set(
            "replay.wal_append_us_p99",
            percentile(&append_us, 99.0),
            "us",
        );
        Ok(())
    })();
    tally.check(outcome);
}
