//! Wall-clock benchmark for the parallel runner (`--emit-json`).
//!
//! Every other module in this crate measures *simulated* cycles — host
//! time never appears in a figure. This module is the exception: it
//! exists to track the tentpole claim that fanning slice execution out
//! over host threads makes the reproduction's wall clock behave like the
//! system it models. Each benchmark runs twice over the identical
//! program — `threads = 1` and `threads = 4` — and the row records both
//! wall-clock times, the (identical) simulated cycle count, and whether
//! the two reports were bit-identical, which the parallel runner
//! guarantees by construction. A third `threads = 1` run with the slice
//! supervisor armed (chaos disabled) tracks the recovery machinery's
//! idle cost — checkpoint clones at slice wake plus journaling — as the
//! `supervisor_overhead` ratio, which `--emit-json` asserts stays within
//! noise of the unsupervised baseline.
//!
//! # Hosts with fewer cores than threads
//!
//! A measured 4-thread speedup requires 4 host cores; on a smaller host
//! (CI containers are often 1–2 vCPUs) the workers timeshare and the
//! measured ratio can only show that the parallel path adds no
//! overhead, not that it scales. The tracker therefore also records the
//! run's **measured phase split** from [`superpin::HostProfile`] — how
//! much of the `threads = 1` wall clock was parallelizable slice work
//! versus serial supervisor work — and the Amdahl projection of that
//! split to [`PARALLEL_THREADS`] cores. `host_cpus` in the JSON says
//! which regime produced the numbers; the projection is labeled as a
//! model, never substituted into the measured column.

use crate::runs::{run_superpin_profiled, run_superpin_recorded, time_scale_for};
use std::fmt::Write as _;
use std::time::Instant;
use superpin::{HostProfile, SharedMem, SuperPinConfig, SuperPinReport};
// The hand-rolled JSON readers this module grew for the tracking file's
// history merge now live in `superpin-replay`'s shared `json` module
// (replay verification needs the same parsing); re-exported so existing
// callers (the CI perf guard in `bin/superpin.rs`) keep working.
pub use superpin_replay::json::extract_number;
use superpin_replay::json::{extract_array, split_top_level};
use superpin_tools::ICount1;
use superpin_workloads::{find, Scale};

/// Host thread count the parallel column uses.
pub const PARALLEL_THREADS: usize = 4;

/// The benchmarks the parallel tracker runs: a spread of code
/// footprints, syscall rates, and run lengths, all of which fork well
/// over four slices at the tracker's 2 s timeslice.
pub const DEFAULT_SET: &[&str] = &[
    "gcc", "gzip", "mcf", "crafty", "equake", "parser", "swim", "vortex",
];

/// Host cores available to this process (1 if undeterminable).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One benchmark's wall-clock comparison.
#[derive(Clone, Debug)]
pub struct ParallelRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Slices the run forked (same for both thread counts).
    pub slices: usize,
    /// Scheduling epochs the run executed (same for both thread counts).
    pub epochs: u64,
    /// Simulated total cycles (identical across thread counts).
    pub simulated_cycles: u64,
    /// Wall-clock milliseconds at `threads = 1`.
    pub wall_ms_serial: f64,
    /// Wall-clock milliseconds at [`PARALLEL_THREADS`].
    pub wall_ms_parallel: f64,
    /// Wall-clock milliseconds at `threads = 1` with the slice
    /// supervisor armed (checkpoints + journals) and chaos disabled —
    /// the recovery machinery's idle cost.
    pub wall_ms_supervised: f64,
    /// Wall-clock milliseconds at `threads = 1` with a run recorder
    /// attached streaming the nondeterministic surface into memory —
    /// the cost of always-on record/replay. The simulated report is
    /// bit-identical to the plain run.
    pub wall_ms_recorded: f64,
    /// Fraction of the `threads = 1` wall clock spent in the
    /// parallelizable slice phase (measured, [`HostProfile`]).
    pub slice_fraction: f64,
    /// Amdahl projection of the measured split to [`PARALLEL_THREADS`]
    /// cores (a model, not a measurement — see the module docs).
    pub modeled_speedup: f64,
    /// High-water resident footprint in simulated bytes (0 when the
    /// tracker runs without a `--mem-budget`).
    pub peak_resident_bytes: u64,
    /// Fork-deferral episodes under memory pressure (0 unbudgeted).
    pub slices_deferred: u64,
    /// Retained checkpoints reclaimed by the eviction ladder.
    pub checkpoints_dropped: u64,
    /// Slice code caches flushed by the eviction ladder.
    pub caches_evicted: u64,
    /// Whether the two `SuperPinReport`s compared equal field-for-field.
    pub identical: bool,
}

impl ParallelRow {
    /// Measured wall-clock speedup of the parallel run over the serial
    /// run (bounded by `host_cpus`, not by the thread count).
    pub fn speedup(&self) -> f64 {
        self.wall_ms_serial / self.wall_ms_parallel.max(1e-9)
    }

    /// Supervised-over-plain wall-clock ratio at `threads = 1` — the
    /// bench guard asserting supervision is near-free when no fault
    /// fires (1.0 = free; see `--emit-json`).
    pub fn supervisor_overhead(&self) -> f64 {
        self.wall_ms_supervised / self.wall_ms_serial.max(1e-9)
    }

    /// Interpreter throughput in millions of simulated cycles retired
    /// per wall-clock second at `threads = 1`.
    pub fn throughput_mcps(&self) -> f64 {
        self.simulated_cycles as f64 / 1e3 / self.wall_ms_serial.max(1e-9)
    }

    /// Recorded-over-plain wall-clock ratio at `threads = 1` — the cost
    /// of streaming the nondeterministic surface into a log (1.0 =
    /// free; `--emit-json` guards the geomean at 1.25x).
    pub fn record_overhead(&self) -> f64 {
        self.wall_ms_recorded / self.wall_ms_serial.max(1e-9)
    }
}

/// The tracker's configuration: a 2 s paper timeslice (so each epoch
/// spans many quanta and thread-pool synchronization is well amortized)
/// with the standard 8-slice, 8-CPU figure machine.
pub fn bench_config(scale: Scale) -> SuperPinConfig {
    SuperPinConfig::scaled(2000, time_scale_for(scale))
}

/// Timing repetitions per configuration; the row records the *minimum*
/// wall clock. One-shot timing let a single scheduler hiccup invert the
/// overhead ratios; the min over three runs is the standard estimator
/// for the noise-free cost of deterministic work.
const TIMING_RUNS: usize = 3;

fn timed_run(
    program: &superpin_isa::Program,
    scale: Scale,
    threads: usize,
    supervise: bool,
    mem_budget: Option<u64>,
    record: bool,
    name: &str,
) -> (f64, SuperPinReport, HostProfile) {
    let mut best: Option<(f64, SuperPinReport, HostProfile)> = None;
    for _ in 0..TIMING_RUNS {
        let shared = SharedMem::new();
        let tool = ICount1::new(&shared);
        let mut cfg = bench_config(scale).with_threads(threads);
        if supervise {
            cfg = cfg.with_supervision();
        }
        if let Some(budget) = mem_budget {
            cfg = cfg.with_mem_budget(budget);
        }
        let start = Instant::now();
        let (report, profile) = if record {
            run_superpin_recorded(program, tool, &shared, cfg, name)
        } else {
            run_superpin_profiled(program, tool, &shared, cfg, name)
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some((best_ms, best_report, _)) = &best {
            debug_assert_eq!(
                best_report, &report,
                "simulation must be run-to-run identical"
            );
            if wall_ms < *best_ms {
                best = Some((wall_ms, report, profile));
            }
        } else {
            best = Some((wall_ms, report, profile));
        }
    }
    best.expect("TIMING_RUNS >= 1")
}

/// Runs the serial/parallel wall-clock comparison over `names`. A
/// `mem_budget` applies to every run, so the `identical` column also
/// witnesses that governed admission is thread-count invariant.
///
/// # Panics
///
/// Panics on unknown benchmark names or simulator errors.
pub fn run_parallel_bench(
    scale: Scale,
    names: &[&str],
    mem_budget: Option<u64>,
) -> Vec<ParallelRow> {
    names
        .iter()
        .map(|name| {
            let spec = find(name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
            let program = spec.build(scale);
            let (wall_ms_serial, serial, profile) =
                timed_run(&program, scale, 1, false, mem_budget, false, spec.name);
            let (wall_ms_parallel, parallel, _) = timed_run(
                &program,
                scale,
                PARALLEL_THREADS,
                false,
                mem_budget,
                false,
                spec.name,
            );
            let (wall_ms_supervised, supervised, _) =
                timed_run(&program, scale, 1, true, mem_budget, false, spec.name);
            let (wall_ms_recorded, recorded, _) =
                timed_run(&program, scale, 1, false, mem_budget, true, spec.name);
            ParallelRow {
                name: spec.name,
                slices: serial.slice_count(),
                epochs: serial.epochs,
                simulated_cycles: serial.total_cycles,
                wall_ms_serial,
                wall_ms_parallel,
                wall_ms_supervised,
                wall_ms_recorded,
                slice_fraction: profile.slice_fraction(),
                modeled_speedup: profile.modeled_speedup(PARALLEL_THREADS),
                peak_resident_bytes: serial.peak_resident_bytes,
                slices_deferred: serial.slices_deferred,
                checkpoints_dropped: serial.checkpoints_dropped,
                caches_evicted: serial.caches_evicted,
                // Thread-count invariance must hold budgeted or not; the
                // supervised run only joins the comparison unbudgeted,
                // because retained checkpoints are *charged* bytes and
                // legitimately shift governed admission decisions.
                // Recording is a pure observer, so it must match
                // unconditionally.
                identical: serial == parallel
                    && serial == recorded
                    && (mem_budget.is_some() || serial == supervised),
            }
        })
        .collect()
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (log_sum, n) = values.fold((0.0f64, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        return 1.0;
    }
    (log_sum / n as f64).exp()
}

/// Geometric-mean measured speedup across rows.
pub fn geomean_speedup(rows: &[ParallelRow]) -> f64 {
    geomean(rows.iter().map(ParallelRow::speedup))
}

/// Geometric-mean modeled (Amdahl) speedup across rows.
pub fn geomean_modeled_speedup(rows: &[ParallelRow]) -> f64 {
    geomean(rows.iter().map(|row| row.modeled_speedup))
}

/// Geometric-mean supervisor overhead ratio across rows (1.0 = free).
pub fn geomean_supervisor_overhead(rows: &[ParallelRow]) -> f64 {
    geomean(rows.iter().map(ParallelRow::supervisor_overhead))
}

/// Geometric-mean record overhead ratio across rows (1.0 = free) — the
/// `--emit-json` guard fails above 1.25x.
pub fn geomean_record_overhead(rows: &[ParallelRow]) -> f64 {
    geomean(rows.iter().map(ParallelRow::record_overhead))
}

/// Geometric-mean interpreter throughput in Mcyc/s — the headline
/// number the CI perf guard compares against its baseline.
pub fn geomean_throughput_mcps(rows: &[ParallelRow]) -> f64 {
    geomean(rows.iter().map(ParallelRow::throughput_mcps))
}

/// Serializes the comparison as the `BENCH_parallel.json` tracking
/// format (same hand-rolled emitter policy as [`crate::json`]).
pub fn parallel_to_json(scale: Scale, rows: &[ParallelRow]) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"scale\":\"{scale:?}\",\"threads_serial\":1,\"threads_parallel\":{PARALLEL_THREADS},\
         \"host_cpus\":{},\"benchmarks\":[",
        host_cpus()
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"slices\":{},\"epochs\":{},\"simulated_cycles\":{},\
             \"wall_ms_threads1\":{:.2},\"wall_ms_threads{}\":{:.2},\
             \"wall_ms_supervised\":{:.2},\"supervisor_overhead\":{:.3},\
             \"wall_ms_recorded\":{:.2},\"record_overhead\":{:.3},\
             \"throughput_mcps\":{:.3},\
             \"speedup\":{:.3},\"slice_fraction\":{:.3},\
             \"modeled_speedup_threads{}\":{:.3},\
             \"peak_resident_bytes\":{},\"slices_deferred\":{},\
             \"checkpoints_dropped\":{},\"caches_evicted\":{},\"identical\":{}}}",
            row.name,
            row.slices,
            row.epochs,
            row.simulated_cycles,
            row.wall_ms_serial,
            PARALLEL_THREADS,
            row.wall_ms_parallel,
            row.wall_ms_supervised,
            row.supervisor_overhead(),
            row.wall_ms_recorded,
            row.record_overhead(),
            row.throughput_mcps(),
            row.speedup(),
            row.slice_fraction,
            PARALLEL_THREADS,
            row.modeled_speedup,
            row.peak_resident_bytes,
            row.slices_deferred,
            row.checkpoints_dropped,
            row.caches_evicted,
            row.identical,
        );
    }
    let _ = write!(
        out,
        "],\"geomean_speedup\":{:.3},\"max_speedup\":{:.3},\"geomean_modeled_speedup\":{:.3},\
         \"geomean_supervisor_overhead\":{:.3},\"geomean_record_overhead\":{:.3},\
         \"geomean_throughput_mcps\":{:.3}}}",
        geomean_speedup(rows),
        rows.iter().map(ParallelRow::speedup).fold(0.0, f64::max),
        geomean_modeled_speedup(rows),
        geomean_supervisor_overhead(rows),
        geomean_record_overhead(rows),
        geomean_throughput_mcps(rows),
    );
    out
}

/// [`parallel_to_json`] plus a `history` array: the per-run summary is
/// appended to whatever history the previous file contents carried, so
/// the tracking file accumulates a perf trajectory across PRs instead
/// of clobbering it. Entries are keyed (git SHA or `--tag`); re-running
/// under the same key replaces that entry rather than duplicating it.
/// Old entries are carried over verbatim, including columns this build
/// no longer emits.
pub fn parallel_to_json_with_history(
    scale: Scale,
    rows: &[ParallelRow],
    key: &str,
    previous: Option<&str>,
) -> String {
    let mut out = parallel_to_json(scale, rows);
    let closing = out.pop();
    debug_assert_eq!(closing, Some('}'));
    let entry = format!(
        "{{\"key\":\"{key}\",\"scale\":\"{scale:?}\",\"geomean_speedup\":{:.3},\
         \"geomean_throughput_mcps\":{:.3}}}",
        geomean_speedup(rows),
        geomean_throughput_mcps(rows),
    );
    out.push_str(",\"history\":[");
    let mut first = true;
    if let Some(body) = previous.and_then(|json| extract_array(json, "history")) {
        let same_key = format!("\"key\":\"{key}\"");
        for old in split_top_level(body) {
            let old = old.trim();
            if old.is_empty() || old.contains(same_key.as_str()) {
                continue;
            }
            if !first {
                out.push(',');
            }
            out.push_str(old);
            first = false;
        }
    }
    if !first {
        out.push(',');
    }
    out.push_str(&entry);
    out.push_str("]}");
    out
}

/// Renders the comparison as a text table for the terminal.
pub fn render_parallel(rows: &[ParallelRow]) -> String {
    let cpus = host_cpus();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Parallel runner wall clock (threads=1 vs threads={PARALLEL_THREADS}, host cpus={cpus}):"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>7} {:>16} {:>10} {:>10} {:>8} {:>7} {:>8}  identical",
        "benchmark",
        "slices",
        "epochs",
        "sim cycles",
        "t1 ms",
        "tN ms",
        "speedup",
        "par%",
        "modeled"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>7} {:>16} {:>10.1} {:>10.1} {:>7.2}x {:>6.0}% {:>7.2}x  {}",
            row.name,
            row.slices,
            row.epochs,
            row.simulated_cycles,
            row.wall_ms_serial,
            row.wall_ms_parallel,
            row.speedup(),
            row.slice_fraction * 100.0,
            row.modeled_speedup,
            row.identical,
        );
    }
    let _ = writeln!(
        out,
        "geomean speedup: {:.2}x measured, {:.2}x modeled at {PARALLEL_THREADS} cores",
        geomean_speedup(rows),
        geomean_modeled_speedup(rows)
    );
    let _ = writeln!(
        out,
        "supervisor overhead (chaos off, threads=1): {:.2}x geomean",
        geomean_supervisor_overhead(rows)
    );
    let _ = writeln!(
        out,
        "record overhead (replay log capture, threads=1): {:.2}x geomean",
        geomean_record_overhead(rows)
    );
    let _ = writeln!(
        out,
        "throughput (threads=1): {:.1} Mcyc/s geomean",
        geomean_throughput_mcps(rows),
    );
    if cpus < PARALLEL_THREADS {
        let _ = writeln!(
            out,
            "note: host has {cpus} cpu(s) < {PARALLEL_THREADS} threads; measured speedup is \
             an overhead check, the modeled column is the Amdahl projection of the \
             measured phase split"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<ParallelRow> {
        vec![
            ParallelRow {
                name: "gcc",
                slices: 52,
                epochs: 120,
                simulated_cycles: 3_000_000,
                wall_ms_serial: 400.0,
                wall_ms_parallel: 160.0,
                wall_ms_supervised: 420.0,
                wall_ms_recorded: 440.0,
                slice_fraction: 0.75,
                modeled_speedup: 2.29,
                peak_resident_bytes: 262_144,
                slices_deferred: 3,
                checkpoints_dropped: 2,
                caches_evicted: 1,
                identical: true,
            },
            ParallelRow {
                name: "swim",
                slices: 51,
                epochs: 110,
                simulated_cycles: 4_000_000,
                wall_ms_serial: 300.0,
                wall_ms_parallel: 200.0,
                wall_ms_supervised: 303.0,
                wall_ms_recorded: 306.0,
                slice_fraction: 0.60,
                modeled_speedup: 1.82,
                peak_resident_bytes: 0,
                slices_deferred: 0,
                checkpoints_dropped: 0,
                caches_evicted: 0,
                identical: true,
            },
        ]
    }

    #[test]
    fn json_shape_is_well_formed() {
        let json = parallel_to_json(Scale::Medium, &sample_rows());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"gcc\""));
        assert!(json.contains("\"wall_ms_threads1\":400.00"));
        assert!(json.contains("\"wall_ms_threads4\":160.00"));
        assert!(json.contains("\"host_cpus\":"));
        assert!(json.contains("\"slice_fraction\":0.750"));
        assert!(json.contains("\"throughput_mcps\":"));
        assert!(!json.contains("planned"));
        assert!(!json.contains("plan_speedup"));
        assert!(json.contains("\"modeled_speedup_threads4\":2.290"));
        assert!(json.contains("\"wall_ms_supervised\":420.00"));
        assert!(json.contains("\"supervisor_overhead\":1.050"));
        assert!(json.contains("\"geomean_supervisor_overhead\":"));
        assert!(json.contains("\"wall_ms_recorded\":440.00"));
        assert!(json.contains("\"record_overhead\":1.100"));
        assert!(json.contains("\"geomean_record_overhead\":"));
        assert!(json.contains("\"peak_resident_bytes\":262144"));
        assert!(json.contains("\"slices_deferred\":3"));
        assert!(json.contains("\"checkpoints_dropped\":2"));
        assert!(json.contains("\"caches_evicted\":1"));
        assert!(json.contains("\"identical\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn history_appends_and_replaces_by_key() {
        let rows = sample_rows();
        // First emission: no previous file, history holds one entry.
        let first = parallel_to_json_with_history(Scale::Medium, &rows, "abc1234", None);
        assert!(first.ends_with("]}"), "history must be the last field");
        assert!(first.contains("\"history\":[{\"key\":\"abc1234\""));
        assert_eq!(first.matches("\"key\":").count(), 1);
        assert_eq!(first.matches('{').count(), first.matches('}').count());
        assert_eq!(first.matches('[').count(), first.matches(']').count());

        // Second emission under a new key: the old entry survives.
        let second = parallel_to_json_with_history(Scale::Medium, &rows, "def5678", Some(&first));
        assert!(second.contains("\"key\":\"abc1234\""));
        assert!(second.contains("\"key\":\"def5678\""));
        assert_eq!(second.matches("\"key\":").count(), 2);

        // Re-running the same key replaces its entry, no duplicate.
        let third = parallel_to_json_with_history(Scale::Medium, &rows, "def5678", Some(&second));
        assert_eq!(third.matches("\"key\":\"abc1234\"").count(), 1);
        assert_eq!(third.matches("\"key\":\"def5678\"").count(), 1);
        assert_eq!(third.matches('{').count(), third.matches('}').count());

        // A pre-history tracking file (no history field) starts fresh.
        let legacy = parallel_to_json(Scale::Medium, &rows);
        let upgraded = parallel_to_json_with_history(Scale::Medium, &rows, "tag", Some(&legacy));
        assert_eq!(upgraded.matches("\"key\":").count(), 1);
    }

    #[test]
    fn extract_number_reads_emitted_fields() {
        let rows = sample_rows();
        let json = parallel_to_json(Scale::Medium, &rows);
        let geomean = extract_number(&json, "geomean_throughput_mcps").expect("field present");
        assert!((geomean - geomean_throughput_mcps(&rows)).abs() < 1e-3);
        assert_eq!(extract_number(&json, "no_such_field"), None);
        assert_eq!(extract_number("{\"x\":12.5}", "x"), Some(12.5));
        assert_eq!(extract_number("{\"x\":-3e2,\"y\":1}", "x"), Some(-300.0));
    }

    #[test]
    fn record_overhead_is_the_recorded_ratio() {
        let rows = sample_rows();
        assert!((rows[0].record_overhead() - 1.10).abs() < 1e-9);
        assert!((rows[1].record_overhead() - 1.02).abs() < 1e-9);
        let geo = geomean_record_overhead(&rows);
        assert!(geo > 1.02 && geo < 1.10, "geomean {geo}");
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let rows = sample_rows();
        let speedups: Vec<f64> = rows.iter().map(ParallelRow::speedup).collect();
        let geomean = geomean_speedup(&rows);
        let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        let max = speedups.iter().copied().fold(0.0, f64::max);
        assert!(geomean >= min && geomean <= max, "geomean {geomean}");
        assert!((geomean_speedup(&[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn modeled_speedup_follows_amdahl() {
        // 75% parallelizable at 4 cores: 1 / (0.25 + 0.75/4) ≈ 2.286.
        let profile = HostProfile {
            supervisor_ns: 250,
            slice_ns: 750,
        };
        assert!((profile.modeled_speedup(4) - 1.0 / (0.25 + 0.75 / 4.0)).abs() < 1e-9);
        assert!((profile.modeled_speedup(1) - 1.0).abs() < 1e-9);
        assert!((profile.slice_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn supervisor_overhead_is_the_supervised_ratio() {
        let rows = sample_rows();
        assert!((rows[0].supervisor_overhead() - 1.05).abs() < 1e-9);
        assert!((rows[1].supervisor_overhead() - 1.01).abs() < 1e-9);
        let geo = geomean_supervisor_overhead(&rows);
        assert!(geo > 1.01 && geo < 1.05, "geomean {geo}");
    }

    #[test]
    fn throughput_tracks_serial_wall_clock() {
        let rows = sample_rows();
        // 3e6 simulated cycles over 400 ms = 7.5 Mcyc/s.
        assert!((rows[0].throughput_mcps() - 7.5).abs() < 1e-9);
        let geo = geomean_throughput_mcps(&rows);
        let (lo, hi) = (7.5, 4e6 / 1e3 / 300.0);
        assert!(geo >= lo && geo <= hi, "geomean {geo}");
    }

    /// The checked-in tracking file's history carries columns this
    /// build no longer emits; a fresh emission must still carry every old
    /// entry forward, and the perf guard's field must still parse from
    /// the file and from the baseline snapshot.
    #[test]
    fn checked_in_history_stays_readable() {
        let tracked = include_str!("../../../BENCH_parallel.json");
        let baseline = include_str!("../../../ci/bench_baseline.json");
        let old = split_top_level(extract_array(tracked, "history").expect("history array"))
            .into_iter()
            .filter(|entry| !entry.trim().is_empty())
            .count();
        assert!(old > 0);
        assert!(extract_number(tracked, "geomean_throughput_mcps").is_some());
        assert!(extract_number(baseline, "geomean_throughput_mcps").is_some());

        let rows = sample_rows();
        let json = parallel_to_json_with_history(Scale::Medium, &rows, "fresh", Some(tracked));
        let history = extract_array(&json, "history").expect("history array");
        assert_eq!(split_top_level(history).len(), old + 1);
        assert!(history.contains("\"key\":\"pr10-wal\""));
        let fresh = geomean_throughput_mcps(&rows);
        let parsed = extract_number(&json, "geomean_throughput_mcps").expect("field");
        assert!((parsed - fresh).abs() < 1e-3);
    }

    #[test]
    fn default_set_names_exist_in_catalog() {
        for name in DEFAULT_SET {
            assert!(find(name).is_some(), "`{name}` not in catalog");
        }
    }
}
