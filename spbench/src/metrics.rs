//! Metric names, units, collection and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("minst_per_s", "Minst/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Whether a per-layer value must repeat exactly for a repeated seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time or a ratio of host times.
    Host,
    /// A count the program computes deterministically.
    Exact,
}

use Kind::{Exact, Host};

/// Per-layer metrics, reported by every traced run: `(name, unit,
/// kind)`. A layer that a workload does not execute reports 0.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("workloads.build_ms", "ms", Host),
    ("vm.native_ms", "ms", Host),
    ("vm.native_minst_per_s", "Minst/s", Host),
    ("vm.cow_copies", "count", Exact),
    ("dbi.pin_ms", "ms", Host),
    ("dbi.traces_compiled", "count", Exact),
    ("dbi.insts_compiled", "count", Exact),
    ("dbi.cache_hit_ratio", "ratio", Exact),
    ("dbi.analysis_calls", "count", Exact),
    ("dbi.shared_cache_adoptions", "count", Exact),
    ("core.supervisor_ms", "ms", Host),
    ("core.slice_ms", "ms", Host),
    ("core.epoch_us_p50", "us", Host),
    ("core.epoch_us_p99", "us", Host),
    ("core.new_ms", "ms", Host),
    ("core.finish_ms", "ms", Host),
    ("core.epochs", "count", Exact),
    ("core.slices", "count", Exact),
    ("core.forks_on_timeout", "count", Exact),
    ("core.forks_on_syscall", "count", Exact),
    ("core.stall_events", "count", Exact),
    ("core.records_played", "count", Exact),
    ("core.signature.quick_checks", "count", Exact),
    ("core.signature.full_checks", "count", Exact),
    ("core.signature.detections", "count", Exact),
    ("core.governor.caches_evicted", "count", Exact),
    ("core.governor.slices_deferred", "count", Exact),
    ("core.governor.peak_resident_bytes", "bytes", Exact),
    ("sched.simulated_cycles", "cycles", Exact),
    ("sched.native_cycles", "cycles", Exact),
    ("sched.fork_other_cycles", "cycles", Exact),
    ("sched.sleep_cycles", "cycles", Exact),
    ("sched.pipeline_cycles", "cycles", Exact),
    ("serve.parse_us", "us", Host),
    ("serve.rounds", "count", Exact),
    ("serve.fleet_cycles", "cycles", Exact),
    ("serve.turnaround_p50_cycles", "cycles", Exact),
    ("serve.turnaround_max_cycles", "cycles", Exact),
    ("serve.tenant.gold.evictions", "count", Exact),
    ("serve.tenant.gold.deferred", "count", Exact),
    ("serve.tenant.gold.degraded", "count", Exact),
    ("serve.tenant.gold.completed", "count", Exact),
    ("serve.tenant.silver.evictions", "count", Exact),
    ("serve.tenant.silver.deferred", "count", Exact),
    ("serve.tenant.silver.degraded", "count", Exact),
    ("serve.tenant.silver.completed", "count", Exact),
    ("serve.tenant.bronze.evictions", "count", Exact),
    ("serve.tenant.bronze.deferred", "count", Exact),
    ("serve.tenant.bronze.degraded", "count", Exact),
    ("serve.tenant.bronze.completed", "count", Exact),
    ("serve.run_ms_no_wal", "ms", Host),
    ("replay.wal_bytes", "bytes", Exact),
    ("replay.wal_frames", "count", Exact),
    ("replay.wal_syncs", "count", Exact),
    ("replay.wal_overhead", "ratio", Host),
    ("replay.wal_append_us_p50", "us", Host),
    ("replay.wal_append_us_p99", "us", Host),
    ("replay.salvage_ms", "ms", Host),
    ("replay.recover_ms", "ms", Host),
    ("replay.resume_ms", "ms", Host),
    ("spbench.trace_overhead", "ratio", Host),
];

/// Named metric values with their units, in name order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Every per-layer metric, set to 0 until measured.
    pub fn per_layer() -> Metrics {
        let mut metrics = Metrics::default();
        for &(name, unit, _) in PER_LAYER {
            metrics.set(name, 0.0, unit);
        }
        metrics
    }

    /// Sets (or overwrites) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_owned(), (value, unit));
    }

    /// Adds to a metric that [`per_layer`](Metrics::per_layer) created.
    pub fn add(&mut self, name: &str, delta: f64) {
        self.values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .0 += delta;
    }

    /// The value of one metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(value, _)| value)
    }

    /// Metric names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && attempted > 0,
            body.join(", ")
        )
    }
}

/// The smallest of `values` (0 when empty). Timed loops report each
/// operation's fastest run: on a shared host, interference from other
/// tenants only ever slows a run, in phases that last tens of seconds,
/// so the fastest of several runs repeats far better than their median
/// (see `NOTES.md`).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One line of host context: CPUs, CPU model and kernel.
pub fn host_context() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |text| text.trim().to_owned());
    format!("nproc={cpus} cpu=\"{model}\" kernel={kernel}")
}
