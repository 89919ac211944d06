//! The run recipe: everything needed to *reconstruct* a recorded run's
//! initial state from the log alone — workload identity, tool name, and
//! every config knob that shapes the simulation.
//!
//! The recipe lives in the `.splog` header frame. Replay rebuilds the
//! program from the workload catalog (workloads are deterministic
//! generators, so `name + scale + input` pins the exact binary) and the
//! [`SuperPinConfig`] from the knobs, with two deliberate deviations:
//! the thread count is overridable (the whole point of the design — a
//! `--threads 4` recording replays at `--threads 1`), and chaos is
//! **disarmed** (the recorded [`FaultLedger`](superpin::NondetEvent)
//! substitutes injection's only report-visible effect).

use crate::wire::{put_bool, put_opt_u64, put_str, put_u32, put_u64, put_u8, CodecError, Reader};
use superpin::{FailPlan, SuperPinConfig};
use superpin_dbi::CYCLES_PER_SEC;
use superpin_isa::Program;
use superpin_workloads::{find, Scale, WorkloadSpec};

/// Paper-equivalent seconds represented by one full run at a given
/// scale; the standard figure normalization (bench's
/// `PRESENTED_NATIVE_SECS`).
pub const PRESENTED_NATIVE_SECS: f64 = 100.0;

/// A complete, self-contained description of how to start a run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecipe {
    /// Workload name from the catalog (e.g. `"gcc"`).
    pub name: String,
    /// Workload scale.
    pub scale: Scale,
    /// Workload input seed (`build_with_input`).
    pub input: u64,
    /// Tool name (e.g. `"icount1"`); dispatched by the CLI/harness.
    pub tool: String,
    /// Timeslice in paper milliseconds (`-spmsec`).
    pub spmsec: u64,
    /// Maximum running slices (`-spmp`).
    pub spmp: usize,
    /// Syscall-record budget per slice (`-spsysrecs`).
    pub spsysrecs: usize,
    /// Host threads of the *recorded* run (replay may override).
    pub threads: usize,
    /// The armed chaos plan, if any. Stored whole: a firing is a pure
    /// function of `(plan, site, key)`, so the plan *is* the schedule.
    pub chaos: Option<FailPlan>,
    /// Watchdog multiplier over the predicted completion.
    pub watchdog_factor: u64,
    /// Per-slice retry budget.
    pub max_slice_retries: u32,
    /// Memory budget in bytes (`--mem-budget`).
    pub mem_budget: Option<u64>,
    /// Whether supervision was enabled (explicitly or implied by chaos).
    pub supervise: bool,
    /// Free-form provenance tag (git describe, CI run id, …).
    pub tag: String,
}

impl RunRecipe {
    /// A recipe with the bench harness's standard knobs (2000 ms
    /// timeslice, paper defaults elsewhere) for `name` at `scale`.
    pub fn standard(name: &str, scale: Scale) -> RunRecipe {
        RunRecipe {
            name: name.to_string(),
            scale,
            input: 0,
            tool: "icount1".to_string(),
            spmsec: 2000,
            spmp: 8,
            spsysrecs: 1000,
            threads: 1,
            chaos: None,
            watchdog_factor: 8,
            max_slice_retries: 2,
            mem_budget: None,
            supervise: false,
            tag: String::new(),
        }
    }

    /// The scale's time-scale factor (the figure normalization the bench
    /// harness uses; kept equal to `time_scale_for` there by test).
    pub fn time_scale(&self) -> f64 {
        PRESENTED_NATIVE_SECS * CYCLES_PER_SEC as f64 / self.scale.target_insts() as f64
    }

    /// Resolves the workload in the catalog.
    pub fn spec(&self) -> Option<&'static WorkloadSpec> {
        find(&self.name)
    }

    /// Builds the exact program the recorded run executed.
    pub fn program(&self) -> Option<Program> {
        self.spec()
            .map(|spec| spec.build_with_input(self.scale, self.input))
    }

    /// Builds the run configuration. `threads` overrides the recorded
    /// thread count (report equality across thread counts is the
    /// contract being exercised). With `replaying`, chaos is stripped
    /// but supervision stays on if the recorded run had it — checkpoint
    /// retention is report-visible under a memory budget, so the replay
    /// must supervise identically.
    pub fn base_config(&self, threads: usize, replaying: bool) -> SuperPinConfig {
        let mut cfg = SuperPinConfig::scaled(self.spmsec, self.time_scale())
            .with_max_slices(self.spmp)
            .with_max_sysrecs(self.spsysrecs)
            .with_threads(threads)
            .with_watchdog_factor(self.watchdog_factor)
            .with_max_slice_retries(self.max_slice_retries);
        if let Some(budget) = self.mem_budget {
            cfg = cfg.with_mem_budget(budget);
        }
        // Replay runs injection-free; supervision is preserved below so
        // checkpoint accounting matches the recorded run.
        if let (false, Some(plan)) = (replaying, self.chaos) {
            cfg = cfg.with_chaos(plan);
        }
        if self.supervise || self.chaos.is_some() {
            cfg = cfg.with_supervision();
        }
        cfg
    }

    /// Encodes the recipe.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        put_u8(
            out,
            match self.scale {
                Scale::Tiny => 0,
                Scale::Small => 1,
                Scale::Medium => 2,
                Scale::Large => 3,
            },
        );
        put_u64(out, self.input);
        put_str(out, &self.tool);
        put_u64(out, self.spmsec);
        put_u64(out, self.spmp as u64);
        put_u64(out, self.spsysrecs as u64);
        put_u64(out, self.threads as u64);
        match &self.chaos {
            Some(plan) => {
                put_u8(out, 1);
                plan.encode(out);
            }
            None => put_u8(out, 0),
        }
        put_u64(out, self.watchdog_factor);
        put_u32(out, self.max_slice_retries);
        put_opt_u64(out, self.mem_budget);
        put_bool(out, self.supervise);
        put_str(out, &self.tag);
    }

    /// Decodes a recipe.
    pub fn decode(reader: &mut Reader<'_>) -> Result<RunRecipe, CodecError> {
        let name = reader.str("workload name")?;
        let scale = match reader.u8("scale")? {
            0 => Scale::Tiny,
            1 => Scale::Small,
            2 => Scale::Medium,
            3 => Scale::Large,
            tag => {
                return Err(CodecError::BadTag {
                    what: "scale",
                    tag: tag as u64,
                })
            }
        };
        let input = reader.u64("input")?;
        let tool = reader.str("tool")?;
        let spmsec = reader.u64("spmsec")?;
        let spmp = reader.u64("spmp")? as usize;
        let spsysrecs = reader.u64("spsysrecs")? as usize;
        let threads = reader.u64("threads")? as usize;
        let chaos = match reader.u8("chaos flag")? {
            0 => None,
            1 => {
                // Bridge to the fault crate's cursor-based decoder: it
                // reports consumed bytes via its cursor.
                let mut pos = 0usize;
                let plan = FailPlan::decode(reader.tail(), &mut pos)
                    .ok_or(CodecError::Truncated { what: "chaos plan" })?;
                reader.skip(pos, "chaos plan")?;
                Some(plan)
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "chaos flag",
                    tag: tag as u64,
                })
            }
        };
        let watchdog_factor = reader.u64("watchdog_factor")?;
        let max_slice_retries = reader.u32("max_slice_retries")?;
        let mem_budget = reader.opt_u64("mem_budget")?;
        let supervise = reader.bool("supervise")?;
        let tag = reader.str("tag")?;
        Ok(RunRecipe {
            name,
            scale,
            input,
            tool,
            spmsec,
            spmp,
            spsysrecs,
            threads,
            chaos,
            watchdog_factor,
            max_slice_retries,
            mem_budget,
            supervise,
            tag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipe_round_trips_with_all_options() {
        let mut recipe = RunRecipe::standard("gcc", Scale::Small);
        recipe.input = 42;
        recipe.threads = 4;
        recipe.chaos = Some(FailPlan::new(3, 0.05));
        recipe.mem_budget = Some(64 << 20);
        recipe.supervise = true;
        recipe.tag = "pr8-test".to_string();

        let mut out = Vec::new();
        recipe.encode(&mut out);
        let mut reader = Reader::new(&out);
        assert_eq!(RunRecipe::decode(&mut reader).unwrap(), recipe);
        assert!(reader.is_empty());
    }

    #[test]
    fn minimal_recipe_round_trips() {
        let recipe = RunRecipe::standard("vortex", Scale::Tiny);
        let mut out = Vec::new();
        recipe.encode(&mut out);
        assert_eq!(RunRecipe::decode(&mut Reader::new(&out)).unwrap(), recipe);
    }

    /// A version-1 log (whose recipe still carried a whole-program
    /// analysis flag before the tag) and a version-2 log (CRC-less
    /// frames) are refused at the header with a typed error by both the
    /// strict decoder and the salvage walk.
    #[test]
    fn version_one_log_is_rejected_with_bad_header() {
        let recipe = RunRecipe::standard("gcc", Scale::Tiny);
        let mut current = Vec::new();
        recipe.encode(&mut current);
        let mut tag = Vec::new();
        put_str(&mut tag, &recipe.tag);
        let mut v1_payload = current[..current.len() - tag.len()].to_vec();
        put_u8(&mut v1_payload, 1);
        put_u32(&mut v1_payload, 1);
        put_u64(&mut v1_payload, 96);
        v1_payload.extend_from_slice(&tag);

        for (version, payload) in [(1u16, &v1_payload), (2, &current)] {
            let mut old = crate::log::MAGIC.to_vec();
            old.extend_from_slice(&version.to_le_bytes());
            put_u8(&mut old, 0x01);
            put_u32(&mut old, payload.len() as u32);
            old.extend_from_slice(payload);
            put_u8(&mut old, 0x04);
            put_u32(&mut old, 0);

            for result in [
                crate::log::ReplayLog::decode(&old).map(|_| ()),
                crate::wal::salvage_frames(&old, crate::log::MAGIC, crate::log::VERSION)
                    .map(|_| ()),
            ] {
                match result {
                    Err(CodecError::BadHeader { detail }) => {
                        assert!(detail.contains(&format!("version {version}")), "{detail}")
                    }
                    other => panic!("expected BadHeader, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn replay_config_strips_chaos_but_keeps_supervision() {
        let mut recipe = RunRecipe::standard("gcc", Scale::Tiny);
        recipe.chaos = Some(FailPlan::new(2, 0.02));
        let live = recipe.base_config(4, false);
        assert!(live.chaos.is_some());
        assert!(live.supervision_enabled());
        let replay = recipe.base_config(1, true);
        assert!(replay.chaos.is_none());
        assert!(replay.supervision_enabled());
        assert_eq!(replay.threads, 1);
        assert_eq!(replay.timeslice_cycles, live.timeslice_cycles);
    }

    #[test]
    fn recipe_builds_the_catalog_program() {
        let recipe = RunRecipe::standard("gcc", Scale::Tiny);
        assert!(recipe.spec().is_some());
        assert!(recipe.program().is_some());
        let missing = RunRecipe::standard("not-a-benchmark", Scale::Tiny);
        assert!(missing.program().is_none());
    }
}
