//! Host wall-clock benchmark of the SuperPin reproduction.
//!
//! Three closed-loop workloads, each driven by one client that starts
//! the next program (or fleet) when the previous one returns:
//!
//! * [`programs`] — `sliced` (SuperPin, `icount1`, two worker threads)
//!   and `pin_serial` (serial Pin, `icount1`, one thread) over the
//!   26-program catalog at Large scale, in seed-shuffled order with
//!   seed-chosen inputs;
//! * [`fleet`] — an in-process `spin-serve` fleet over a seeded job
//!   file, journalled to a write-ahead log, then resumed from a copy of
//!   that log cut just before its end frame.
//!
//! An untraced run reports the end-to-end metrics; a traced run times
//! the calls into each crate from this crate's own code and reads the
//! counters the program already exposes (see [`metrics::PER_LAYER`]).
//! See `NOTES.md` in this directory for why each workload exists and
//! which layer metric should move which end-to-end metric.

pub mod fleet;
pub mod metrics;
pub mod programs;

use std::time::{Duration, Instant};

use metrics::Metrics;
use superpin_workloads::Scale;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed reserved for confirming a claimed gain: never tune against it.
pub const HELD_OUT_SEED: u64 = 7919;

/// Set-up windows `fastest_setup` takes in a row.
pub const SETUP_WINDOWS: usize = 9;

/// Each set-up window repeats the set-up for this many seconds (at
/// least once).
pub const SETUP_WINDOW_SECS: f64 = 0.1;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SuperPin at `--threads 2` with the CLI defaults.
    Sliced,
    /// Serial Pin on one thread, same programs and inputs.
    PinSerial,
    /// In-process service mode with a WAL, then a resume.
    Fleet,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sliced" => Some(Workload::Sliced),
            "pin_serial" => Some(Workload::PinSerial),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }
}

/// How much work a workload generates. [`Size::FULL`] is the benchmark;
/// [`Size::REDUCED`] keeps the same shape small enough for tests.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Scale of the `sliced` / `pin_serial` programs.
    pub program_scale: Scale,
    /// How many catalog programs the set holds (at most 26).
    pub programs: usize,
    /// Scale of every fleet job.
    pub fleet_scale: Scale,
    /// Jobs in the fleet's job file.
    pub fleet_jobs: usize,
}

impl Size {
    /// The benchmark's size.
    pub const FULL: Size = Size {
        program_scale: Scale::Large,
        programs: 26,
        fleet_scale: Scale::Medium,
        fleet_jobs: 32,
    };

    /// The size the benchmark's own tests use.
    pub const REDUCED: Size = Size {
        program_scale: Scale::Tiny,
        programs: 4,
        fleet_scale: Scale::Tiny,
        fleet_jobs: 6,
    };
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Picks inputs, program order and the fleet job file.
    pub seed: u64,
    /// Length of the measured closed loop.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Work size.
    pub size: Size,
}

/// Operations attempted and failed. A wrong count, an error or a
/// resume divergence is a failure; each one is also printed to stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Programs, fleet runs and resumes attempted.
    pub attempted: u64,
    /// Of those, how many failed a check or returned an error.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and hands back its value; `Err` carries
    /// why it failed.
    pub fn check<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|why| {
                self.failed += 1;
                eprintln!("spbench: failed: {why}");
            })
            .ok()
    }
}

/// The result of one invocation.
pub struct Outcome {
    /// Operation counts.
    pub tally: Tally,
    /// End-to-end or per-layer metrics.
    pub metrics: Metrics,
}

/// Runs one invocation.
pub fn run(args: &RunArgs) -> Outcome {
    let mut tally = Tally::default();
    let metrics = match args.workload {
        Workload::Sliced | Workload::PinSerial => programs::run(args, &mut tally),
        Workload::Fleet => fleet::run(args, &mut tally),
    };
    Outcome { tally, metrics }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The fastest set-up of a run. One set-up takes a millisecond or two,
/// and load from other tenants of the host slows it in bursts of a
/// tenth of a second to many seconds, so a run repeats the set-up in
/// windows spread over its length and keeps the fastest one, as the
/// timed loops do with their operations (see `NOTES.md`).
pub struct SetupTimes {
    fastest: f64,
}

impl Default for SetupTimes {
    fn default() -> SetupTimes {
        SetupTimes {
            fastest: f64::INFINITY,
        }
    }
}

impl SetupTimes {
    /// Repeats `setup` for `SETUP_WINDOW_SECS` (at least once) and
    /// returns the last result.
    pub fn window<R>(&mut self, mut setup: impl FnMut() -> R) -> R {
        let start = Instant::now();
        loop {
            let (out, took) = timed(&mut setup);
            self.fastest = self.fastest.min(took.as_secs_f64());
            if start.elapsed().as_secs_f64() >= SETUP_WINDOW_SECS {
                return out;
            }
        }
    }

    /// The fastest set-up so far, in seconds.
    pub fn fastest(&self) -> f64 {
        self.fastest
    }
}

/// Takes `SETUP_WINDOWS` set-up windows in a row and returns the last
/// result with the fastest set-up in seconds.
pub fn fastest_setup<R>(mut setup: impl FnMut() -> R) -> (R, f64) {
    let mut times = SetupTimes::default();
    for _ in 1..SETUP_WINDOWS {
        times.window(&mut setup);
    }
    let last = times.window(&mut setup);
    (last, times.fastest())
}

/// The closed loop's clock: the first pass always runs, and each later
/// one only if a pass as long as the mean so far still ends within the
/// run's seconds, so a run measures close to `--seconds` and never
/// stops mid-pass. It also samples the process's peak resident memory
/// once the first pass is done: later passes only add allocator
/// fragmentation, and how many of them fit depends on host speed.
pub struct Passes {
    start: Instant,
    seconds: f64,
    done: u32,
    first_peak_mib: Option<f64>,
}

impl Passes {
    /// A clock for a run of `seconds`.
    pub fn new(seconds: f64) -> Passes {
        Passes {
            start: Instant::now(),
            seconds,
            done: 0,
            first_peak_mib: None,
        }
    }

    /// Whether to start another pass.
    pub fn another(&mut self) -> bool {
        if self.done == 0 {
            self.done = 1;
            return true;
        }
        self.first_peak_mib
            .get_or_insert_with(metrics::peak_rss_mib);
        let elapsed = self.start.elapsed().as_secs_f64();
        let fits = elapsed * f64::from(self.done + 1) / f64::from(self.done) <= self.seconds;
        if fits {
            self.done += 1;
        }
        fits
    }

    /// Peak resident memory in MiB after set-up and the first pass.
    pub fn peak_rss_mib(&self) -> f64 {
        self.first_peak_mib.unwrap_or_else(metrics::peak_rss_mib)
    }
}

/// Runs one operation, turning a panic into a counted failure instead
/// of the end of the run.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {why}"))
    })
}
