//! Liveness-driven save/restore elision and the clobber-safety verifier.
//!
//! With a [`LiveMap`] installed, the compiler skips spills of registers
//! proven dead at each insertion point: modeled analysis cost shrinks,
//! while call *execution* is untouched, so instrumentation results stay
//! bit-identical. The verifier re-checks every planned save set against
//! `saves ⊇ clobbers ∩ live` in debug builds and must catch a
//! deliberately planted bug.

use std::sync::Arc;
use superpin_dbi::{
    analysis_clobbers, discover_trace, CodeCache, CostModel, Engine, IPoint, Inserter, LiveMap,
    Pintool, RegSet, Trace,
};
use superpin_isa::asm::assemble;
use superpin_isa::Reg;
use superpin_vm::process::Process;

/// A countdown loop: at the loop head only `r8` (the counter) and `r0`
/// (the zero register read by `bne`) are live, so three of the four
/// clobbered registers need no save/restore.
const LOOP: &str = "main:\n li r8, 60\nloop:\n subi r8, r8, 1\n bne r8, r0, loop\n exit 0\n";

#[derive(Clone, Default)]
struct ICount {
    count: u64,
}

impl Pintool for ICount {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            inserter.insert_call(iref.addr, IPoint::Before, |t, _, _| t.count += 1, vec![]);
        }
    }
}

fn run(install_liveness: bool) -> Engine<ICount> {
    let program = assemble(LOOP).expect("assemble");
    let process = Process::load(1, &program).expect("load");
    let mut engine = Engine::new(process, ICount::default());
    if install_liveness {
        let live = LiveMap::compute(&program).expect("liveness");
        engine.set_liveness(Arc::new(live));
    }
    engine.run_to_exit().expect("run");
    engine
}

#[test]
fn elision_reduces_modeled_cost_and_preserves_results() {
    let conservative = run(false);
    let elided = run(true);

    // Instrumentation results are identical: same dynamic icount, same
    // number of analysis calls fired.
    assert_eq!(elided.tool().count, conservative.tool().count);
    assert_eq!(
        elided.process().inst_count(),
        conservative.process().inst_count()
    );
    assert_eq!(
        elided.stats().analysis_calls,
        conservative.stats().analysis_calls
    );

    // Modeled analysis overhead shrinks: at the loop head only r0 of the
    // four clobbered registers is live, so most spills are elided.
    let full = conservative.stats().cycles.analysis;
    let thin = elided.stats().cycles.analysis;
    assert!(
        thin < full,
        "elided {thin} must be below conservative {full}"
    );
    // Steady state: 7 cycles per call instead of 10.
    let calls = conservative.stats().analysis_calls;
    assert_eq!(full, calls * conservative.cost().analysis_call);
    assert!(
        thin <= calls * 7 + 16,
        "elided total {thin} should be ≈7 per call for {calls} calls"
    );
    // Non-analysis components are untouched by elision.
    assert_eq!(elided.stats().cycles.app, conservative.stats().cycles.app);
}

#[test]
fn conservative_charge_matches_flat_analysis_call() {
    // Without liveness, the per-register charging must reproduce the
    // legacy flat `analysis_call` rate exactly (zero-arg calls here).
    let engine = run(false);
    let stats = engine.stats();
    assert_eq!(
        stats.cycles.analysis,
        stats.analysis_calls * engine.cost().analysis_call
    );
}

#[test]
fn compile_plans_minimal_save_sets() {
    let program = assemble(LOOP).expect("assemble");
    let live = Arc::new(LiveMap::compute(&program).expect("liveness"));
    let process = Process::load(1, &program).expect("load");
    let trace = discover_trace(&process.mem, program.entry()).expect("trace");

    let mut inserter: Inserter<u64> = Inserter::new();
    for iref in trace.insts() {
        inserter.insert_call(iref.addr, IPoint::Before, |t, _, _| *t += 1, vec![]);
    }
    let mut cache: CodeCache<u64> = CodeCache::new();
    cache.set_liveness(live);
    let (compiled, _) = cache.compile(&trace, inserter, &CostModel::default());

    // Before `subi` (the loop head) live = {r8, r0}: only r0 of the
    // clobber set needs saving.
    let subi = compiled
        .insts
        .iter()
        .find(|slot| slot.addr == program.entry() + 16)
        .expect("loop head in trace");
    assert_eq!(subi.before[0].saves, RegSet::from_regs(&[Reg::R0]));
    // An honest compilation passes the verifier.
    assert!(cache.clobber_violations().is_empty());

    // Without liveness the full clobber set is saved.
    let mut conservative: CodeCache<u64> = CodeCache::new();
    let mut inserter: Inserter<u64> = Inserter::new();
    inserter.insert_call(program.entry(), IPoint::Before, |t, _, _| *t += 1, vec![]);
    let (compiled, _) = conservative.compile(&trace, inserter, &CostModel::default());
    assert_eq!(compiled.insts[0].before[0].saves, analysis_clobbers());
}

#[test]
fn verifier_catches_an_injected_clobber_bug() {
    let program = assemble(LOOP).expect("assemble");
    let process = Process::load(1, &program).expect("load");
    let mut engine = Engine::new(process, ICount::default());
    engine.set_liveness(Arc::new(LiveMap::compute(&program).expect("liveness")));
    // Plant the bug: r0 is live at the loop head (read by `bne`) and in
    // the clobber set, yet the compiler will skip saving it.
    engine.inject_clobber_bug(Reg::R0);
    engine.run_to_exit().expect("run");

    let violations = engine.clobber_violations();
    // The verifier records only under `debug_assertions`; release builds
    // always report an empty list (`CodeCache::clobber_violations`).
    if !cfg!(debug_assertions) {
        assert!(violations.is_empty(), "{violations:?}");
        return;
    }
    assert!(
        !violations.is_empty(),
        "the verifier must catch the planted clobber"
    );
    let v = violations
        .iter()
        .find(|v| v.addr == program.entry() + 16)
        .expect("violation at the loop head");
    assert!(v.missing.contains(Reg::R0), "{v:?}");
    assert!(v.live.contains(Reg::R8), "{v:?}");
    let rendered = v.to_string();
    assert!(rendered.contains("clobbers live register"), "{rendered}");
    assert!(rendered.contains("r0"), "{rendered}");
}

#[test]
fn honest_runs_report_no_violations() {
    assert!(run(true).clobber_violations().is_empty());
    assert!(run(false).clobber_violations().is_empty());
}
