//! End-to-end drivers: build a runner from a recipe, record a run into
//! a [`ReplayLog`], re-execute a log, and verify the replayed report.

use crate::events::{EventSink, EventStream};
use crate::json::{first_report_difference, report_to_json};
use crate::log::ReplayLog;
use crate::recipe::RunRecipe;
use crate::wire::CodecError;
use std::fmt;
use superpin::{SharedMem, SpError, SuperPinReport, SuperPinRunner, SuperTool};
use superpin_vm::process::Process;

/// Errors from driving a recorded or replayed run.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayError {
    /// The recipe names a workload the catalog does not have.
    UnknownWorkload(String),
    /// The simulation failed (a replay that departs from its log
    /// surfaces here as [`SpError::ReplayDivergence`]).
    Sim(SpError),
    /// The log bytes were malformed or truncated.
    Codec(CodecError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownWorkload(name) => {
                write!(f, "workload `{name}` is not in the catalog")
            }
            ReplayError::Sim(err) => write!(f, "{err}"),
            ReplayError::Codec(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Sim(err) => Some(err),
            ReplayError::Codec(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SpError> for ReplayError {
    fn from(err: SpError) -> ReplayError {
        ReplayError::Sim(err)
    }
}

impl From<CodecError> for ReplayError {
    fn from(err: CodecError) -> ReplayError {
        ReplayError::Codec(err)
    }
}

/// Builds a runner from a recipe: catalog program and config knobs.
/// `threads` and `replaying` deviate deliberately from the recipe — see
/// [`RunRecipe::base_config`]. The caller installs record/replay mode.
///
/// # Errors
///
/// Unknown workloads and simulator setup errors.
pub fn build_runner<T: SuperTool>(
    recipe: &RunRecipe,
    threads: usize,
    replaying: bool,
    tool: T,
    shared: &SharedMem,
) -> Result<SuperPinRunner<T>, ReplayError> {
    let program = recipe
        .program()
        .ok_or_else(|| ReplayError::UnknownWorkload(recipe.name.clone()))?;
    let cfg = recipe.base_config(threads, replaying);
    let process = Process::load(1, &program).map_err(SpError::from)?;
    Ok(SuperPinRunner::new(process, tool, shared.clone(), cfg)?)
}

/// Records one run: executes the recipe live at its own thread count
/// with every nondeterministic decision streamed into the log, and
/// packages recipe + events + final report as a [`ReplayLog`].
///
/// # Errors
///
/// [`ReplayError::UnknownWorkload`] and simulator errors.
pub fn record_run<T: SuperTool>(
    recipe: &RunRecipe,
    tool: T,
    shared: &SharedMem,
) -> Result<ReplayLog, ReplayError> {
    let mut runner = build_runner(recipe, recipe.threads, false, tool, shared)?;
    let sink = EventSink::new();
    runner.set_recorder(sink.recorder());
    let report = runner.run()?;
    Ok(ReplayLog {
        recipe: recipe.clone(),
        events: sink.take(),
        report,
    })
}

/// Re-executes a recorded run from the log alone, substituting recorded
/// decisions, at an arbitrary `threads` count. Returns the replayed
/// report; compare with [`verify_replay`].
///
/// # Errors
///
/// [`SpError::ReplayDivergence`] (as [`ReplayError::Sim`]) when the
/// replay departs from the log; setup errors as in [`build_runner`].
pub fn replay_run<T: SuperTool>(
    log: &ReplayLog,
    threads: usize,
    tool: T,
    shared: &SharedMem,
) -> Result<SuperPinReport, ReplayError> {
    let mut runner = build_runner(&log.recipe, threads, true, tool, shared)?;
    runner.set_replay(EventStream::new(log.events.clone()).boxed());
    Ok(runner.run()?)
}

/// Checks a replayed report against the recorded one. `None` means
/// field-for-field equality; otherwise names the first differing field
/// (via the shared JSON helpers, so CLI output and CI byte-diffs agree
/// on what "first" means).
pub fn verify_replay(log: &ReplayLog, replayed: &SuperPinReport) -> Option<String> {
    if &log.report == replayed {
        return None;
    }
    let recorded = report_to_json(&log.report);
    let replayed = report_to_json(replayed);
    Some(
        first_report_difference(&recorded, &replayed)
            .unwrap_or_else(|| "reports differ outside the JSON projection".to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Nop;
    use superpin::NondetEvent;
    use superpin_workloads::Scale;

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let recipe = RunRecipe::standard("no-such-benchmark", Scale::Tiny);
        let err = record_run(&recipe, Nop, &SharedMem::new()).unwrap_err();
        assert!(matches!(err, ReplayError::UnknownWorkload(_)));
        assert!(err.to_string().contains("no-such-benchmark"));
    }

    #[test]
    fn record_then_replay_through_the_wire_format_is_bit_identical() {
        let recipe = RunRecipe::standard("gcc", Scale::Tiny);
        let log = record_run(&recipe, Nop, &SharedMem::new()).expect("record");
        assert!(
            log.events
                .iter()
                .any(|e| matches!(e, NondetEvent::Syscall(_))),
            "gcc makes syscalls; the log must carry them"
        );
        assert!(matches!(
            log.events.last(),
            Some(NondetEvent::FaultLedger { .. })
        ));

        // Round-trip the bytes: replay must work from the decoded log
        // alone, at a different thread count than the recording.
        let decoded = ReplayLog::decode(&log.encode()).expect("decode");
        assert_eq!(decoded, log);
        let replayed = replay_run(&decoded, 4, Nop, &SharedMem::new()).expect("replay");
        assert_eq!(verify_replay(&decoded, &replayed), None);
        assert_eq!(replayed, log.report);
    }

    #[test]
    fn verify_replay_names_the_first_divergent_field() {
        let recipe = RunRecipe::standard("vortex", Scale::Tiny);
        let log = record_run(&recipe, Nop, &SharedMem::new()).expect("record");
        let mut perturbed = log.report.clone();
        perturbed.epochs += 1;
        assert_eq!(verify_replay(&log, &perturbed).as_deref(), Some("epochs"));
    }
}
