//! Service-run results: per-job outcomes, per-tenant scoreboards, and
//! their deterministic renderings.
//!
//! Everything here renders from simulated quantities only — virtual
//! clocks, counters, report fields — so two runs that made the same
//! decisions render byte-identical text and JSON no matter the thread
//! count or host. That property is what the determinism suite and the
//! CI `t1` vs `t4` byte-diff assert.

use superpin::{SuperPinReport, TenantCounters};
use superpin_replay::json::report_to_json;
use superpin_replay::FleetEvent;
use superpin_workloads::Scale;

use crate::spec::scale_name;

/// One completed job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Job index in spec order.
    pub job: u32,
    /// Owning tenant's name.
    pub tenant: String,
    /// Workload name.
    pub workload: String,
    /// Workload scale.
    pub scale: Scale,
    /// Tool name.
    pub tool: String,
    /// Arrival time in fleet virtual cycles.
    pub arrive: u64,
    /// Fleet virtual time at the round barrier observing completion.
    pub complete: u64,
    /// `complete − arrive`, in fleet virtual cycles.
    pub turnaround: u64,
    /// Whether admission was degraded (budget-clamped).
    pub degraded: bool,
    /// The job's full SuperPin report.
    pub report: SuperPinReport,
}

impl JobOutcome {
    /// The outcome as one deterministic JSON line (fixed field order;
    /// the embedded report uses the `.splog` JSON codec).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"job\":{},\"tenant\":\"{}\",\"workload\":\"{}\",\"scale\":\"{}\",\
             \"tool\":\"{}\",\"arrive\":{},\"complete\":{},\"turnaround\":{},\
             \"degraded\":{},\"report\":{}}}",
            self.job,
            self.tenant,
            self.workload,
            scale_name(self.scale),
            self.tool,
            self.arrive,
            self.complete,
            self.turnaround,
            self.degraded,
            report_to_json(&self.report),
        )
    }
}

/// One tenant's scoreboard at the end of the run.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Ledger counters (admitted / deferred / degraded / evicted).
    pub counters: TenantCounters,
    /// Jobs that ran to completion.
    pub completed: u64,
}

/// A complete service run: every job's outcome, every tenant's
/// scoreboard, and the scheduler's decision trace.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Outcomes in job-id order (every job completes — the fleet
    /// admits degraded rather than rejecting).
    pub outcomes: Vec<JobOutcome>,
    /// Per-tenant scoreboards in tenant-id order.
    pub tenants: Vec<TenantSummary>,
    /// Fleet rounds driven.
    pub rounds: u64,
    /// Final fleet virtual time in cycles.
    pub fleet_cycles: u64,
    /// The decision trace (the WAL round frames journal it per round).
    pub events: Vec<FleetEvent>,
}

impl ServiceReport {
    /// All outcome lines, one JSON object per line, job-id order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for outcome in &self.outcomes {
            out.push_str(&outcome.to_json());
            out.push('\n');
        }
        out
    }

    /// Deterministic human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "fleet: {} jobs over {} tenants, {} rounds, {} virtual cycles\n",
            self.outcomes.len(),
            self.tenants.len(),
            self.rounds,
            self.fleet_cycles,
        );
        for tenant in &self.tenants {
            out.push_str(&format!(
                "tenant {}: weight {}, admitted {}, deferred {}, degraded {}, \
                 evictions {}, completed {}\n",
                tenant.name,
                tenant.weight,
                tenant.counters.admitted,
                tenant.counters.deferred,
                tenant.counters.degraded,
                tenant.counters.evicted,
                tenant.completed,
            ));
        }
        for o in &self.outcomes {
            out.push_str(&format!(
                "job {}: tenant={} workload={} scale={} tool={} arrive={} \
                 complete={} turnaround={} degraded={} slices={}\n",
                o.job,
                o.tenant,
                o.workload,
                scale_name(o.scale),
                o.tool,
                o.arrive,
                o.complete,
                o.turnaround,
                o.degraded,
                o.report.slice_count(),
            ));
        }
        out
    }

    /// Nearest-rank percentile of job turnarounds (simulated cycles);
    /// 0 when no jobs completed.
    pub fn turnaround_percentile(&self, pct: f64) -> u64 {
        let mut turnarounds: Vec<u64> = self.outcomes.iter().map(|o| o.turnaround).collect();
        if turnarounds.is_empty() {
            return 0;
        }
        turnarounds.sort_unstable();
        let rank = ((pct / 100.0) * turnarounds.len() as f64).ceil() as usize;
        turnarounds[rank.clamp(1, turnarounds.len()) - 1]
    }
}
