//! Compile-time call lowering.
//!
//! `CodeCache::compile` lowers every analysis call once: its static
//! charge, and its argument values when all of them are known at compile
//! time. The engine evaluates only the dynamic ones per execution. These
//! tests pin both halves to hand-computed values: what each argument
//! descriptor delivers (lowered or evaluated), and what the engine's
//! counters read at every way a trace can end.

use std::sync::Arc;
use superpin_dbi::{
    discover_trace, CodeCache, CostModel, Engine, EngineStop, IArg, IPoint, Inserter, LiveMap,
    Pintool, Trace,
};
use superpin_isa::asm::assemble;
use superpin_isa::{Reg, DATA_BASE};
use superpin_vm::process::Process;
use superpin_vm::VmError;

/// One load, one store, one ALU op and one (taken) branch, with known
/// registers, memory and stack around them.
const ARGS_PROGRAM: &str = r#"
    .data
    buf: .word 7, 9
    .text
    main:
        li   r12, 77
        st   r12, 0(sp)
        la   r10, buf
        li   r11, 5
        stw  r11, 4(r10)
        ld   r10, 8(r10)
        addi r9, r10, 1
        bne  r9, r0, done
    done:
        exit 0
"#;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Store,
    Load,
    Alu,
    Branch,
}

/// Records every argument value its calls receive at one instruction:
/// a plain call, an if-predicate and its then-call, each taking `arg`.
#[derive(Clone)]
struct Probe {
    target: u64,
    point: IPoint,
    arg: IArg,
    seen: Vec<u64>,
}

impl Probe {
    fn instrument(&self, inserter: &mut Inserter<Probe>) {
        inserter.insert_call(
            self.target,
            self.point,
            |t: &mut Probe, ctx, _| t.seen.push(ctx.arg(0)),
            vec![self.arg],
        );
        inserter.insert_if_then_call(
            self.target,
            self.point,
            |t: &mut Probe, ctx| {
                t.seen.push(ctx.arg(0));
                true
            },
            vec![self.arg],
            |t: &mut Probe, ctx, _| t.seen.push(ctx.arg(0)),
            vec![self.arg],
        );
    }
}

impl Pintool for Probe {
    // Calls aimed outside the trace being compiled are dropped.
    fn instrument_trace(&mut self, _: &Trace, inserter: &mut Inserter<Self>) {
        self.instrument(inserter);
    }
}

/// The hand value of `arg` at `point` on the instruction of `kind` at
/// `addr`, and whether the compiler can know it.
fn expected(arg: IArg, point: IPoint, kind: Kind, addr: u64) -> (u64, bool) {
    use Kind::*;
    match arg {
        IArg::InstPtr => (addr, true),
        IArg::UInt(value) => (value, true),
        // Pre-execution effective address, at both points; 0 off memory.
        IArg::MemAddr => match kind {
            Store => (DATA_BASE + 4, false),
            Load => (DATA_BASE + 8, false),
            Alu | Branch => (0, true),
        },
        IArg::MemSize => match kind {
            Store => (4, true),
            Load => (8, true),
            Alu | Branch => (0, true),
        },
        IArg::IsMemWrite => (u64::from(kind == Store), true),
        IArg::BranchTaken => match point {
            IPoint::Before => (0, true),
            IPoint::After => (u64::from(kind == Branch), false),
        },
        // `ld r10, 8(r10)` overwrites its own base with 9.
        IArg::RegValue(Reg::R10) => match (kind, point) {
            (Store, _) | (Load, IPoint::Before) => (DATA_BASE, false),
            _ => (9, false),
        },
        // `addi r9, r10, 1` writes 10.
        IArg::RegValue(Reg::R9) => match (kind, point) {
            (Alu, IPoint::After) | (Branch, _) => (10, false),
            _ => (0, false),
        },
        IArg::StackWord(0) => (77, false),
        IArg::FallthroughAddr => (addr + 8, true),
        other => unreachable!("no hand value for {other:?}"),
    }
}

#[test]
fn argument_values_match_hand_values_lowered_or_evaluated() {
    let program = assemble(ARGS_PROGRAM).expect("assemble");
    let process = Process::load(1, &program).expect("load");
    let trace = discover_trace(&process.mem, program.entry()).expect("trace");
    // `li` takes 16 bytes, everything else 8.
    let entry = program.entry();
    let kinds = [
        (Kind::Store, entry + 56),
        (Kind::Load, entry + 64),
        (Kind::Alu, entry + 72),
        (Kind::Branch, entry + 80),
    ];
    let args = [
        IArg::InstPtr,
        IArg::UInt(42),
        IArg::MemAddr,
        IArg::MemSize,
        IArg::IsMemWrite,
        IArg::BranchTaken,
        IArg::RegValue(Reg::R10),
        IArg::RegValue(Reg::R9),
        IArg::StackWord(0),
        IArg::FallthroughAddr,
    ];

    for arg in args {
        for point in [IPoint::Before, IPoint::After] {
            for (kind, addr) in kinds {
                let (value, is_static) = expected(arg, point, kind, addr);
                let case = format!("{arg:?} {point:?} {kind:?}");
                let probe = Probe {
                    target: addr,
                    point,
                    arg,
                    seen: Vec::new(),
                };

                // Compile time: lowered exactly when the value is static.
                let mut inserter = Inserter::new();
                probe.instrument(&mut inserter);
                let mut cache = CodeCache::new();
                let (compiled, _) = cache.compile(&trace, inserter, &CostModel::default());
                let slot = compiled
                    .insts
                    .iter()
                    .find(|slot| slot.addr == addr)
                    .expect("slot");
                let calls = match point {
                    IPoint::Before => &slot.before,
                    IPoint::After => &slot.after,
                };
                let lowered = is_static.then(|| vec![value].into_boxed_slice());
                assert_eq!(calls[0].args, lowered, "plain args: {case}");
                assert_eq!(calls[1].args, lowered, "predicate args: {case}");
                assert_eq!(calls[1].then_args, lowered, "then args: {case}");

                // Run time: the plain call, the predicate and the
                // then-call each receive the hand value.
                let process = Process::load(1, &program).expect("load");
                let mut engine = Engine::new(process, probe);
                engine.run_to_exit().expect("run");
                assert_eq!(engine.tool().seen, vec![value; 3], "{case}");
            }
        }
    }
}

/// Per instruction: before it, a plain call with a static argument (it
/// requests a stop at `stop_before`), a plain call with a dynamic one
/// and an if/then pair whose then-call takes `MemAddr` (dynamic on a
/// load); after it, a plain call taking `BranchTaken` (dynamic; it
/// requests a stop at `stop_after`).
#[derive(Clone, Default)]
struct Mixed {
    stop_before: Option<u64>,
    stop_after: Option<u64>,
}

impl Pintool for Mixed {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            inserter.insert_call(
                iref.addr,
                IPoint::Before,
                |t: &mut Mixed, ctx, ctl| {
                    if t.stop_before == Some(ctx.arg(0)) {
                        ctl.request_stop();
                    }
                },
                vec![IArg::InstPtr],
            );
            inserter.insert_call(
                iref.addr,
                IPoint::Before,
                |_, _, _| {},
                vec![IArg::RegValue(Reg::R8)],
            );
            inserter.insert_if_then_call(
                iref.addr,
                IPoint::Before,
                |_, ctx| ctx.arg(0) == 1,
                vec![IArg::UInt(1)],
                |_, _, _| {},
                vec![IArg::MemAddr],
            );
            // Never runs on a `syscall`: the engine parks before it.
            inserter.insert_call(
                iref.addr,
                IPoint::After,
                |t: &mut Mixed, ctx, ctl| {
                    if t.stop_after == Some(ctx.pc) {
                        ctl.request_stop();
                    }
                },
                vec![IArg::BranchTaken],
            );
        }
    }
}

// Charges under the default cost model (call base 6, 1 per saved
// register, 1 per argument, if-check 2): a plain or then-call with `s`
// saved registers and one argument costs 7 + s, an if-check 3. Without
// liveness all four clobbered registers (r0-r3) are saved. A retired
// instruction's calls then cost 36 before (11 + 11 + 3 + 11) and 11
// after, 47 in all; with liveness and nothing live, 24 + 7 = 31.
//
// `exit 0` is `li r1, 0; li r0, 0; syscall`, and exit reads r0 and r1:
// with liveness the save counts before / after each instruction of
// `li r8, 1; exit 0` are li r8 0/0, li r1 0/1, li r0 1/2, syscall 2.
const EXIT_LIVE: u64 = (24 + 7) + (24 + 8) + ((8 + 8 + 3 + 8) + 9) + (9 + 9 + 3 + 9);

/// Straight-line code that reads no clobbered register.
const STRAIGHT: &str = "main:\n li r8, 1\n addi r9, r8, 2\n addi r10, r9, 3\n halt\n";

#[test]
fn counters_match_hand_sums_at_every_trace_exit() {
    let all = u64::MAX / 4;
    let branch_out = "main:\n li r8, 1\n beq r8, r8, far\n addi r9, r8, 1\nfar:\n halt\n";
    // (exit, program, stop before / after the instruction at entry +
    // offset, budget, expected stop (None: memory fault), counts as
    // (cycles.analysis without / with liveness, analysis_calls,
    // if_checks = then_calls, insts_executed)).
    #[rustfmt::skip]
    let exits = [
        // The stop request skips the rest of the before-list.
        ("before-call stop", STRAIGHT, Some(24), None, all, Some(EngineStop::ToolStop),
            (47 + 47 + 11, 31 + 31 + 7, 3 + 3 + 1, 2, 2)),
        ("after-call stop", STRAIGHT, None, Some(16), all, Some(EngineStop::ToolStop),
            (47 + 47, 31 + 31, 6, 2, 2)),
        ("syscall", "main:\n li r8, 1\n exit 0\n", None, None, all, Some(EngineStop::SyscallEntry),
            (3 * 47 + 36, EXIT_LIVE, 3 * 3 + 2, 4, 3)),
        ("halt", STRAIGHT, None, None, all, Some(EngineStop::Halted),
            (3 * 47 + 36, 3 * 31 + 24, 3 * 3 + 2, 4, 3)),
        // A one-cycle budget returns right after the first trace.
        ("branch out of the trace", branch_out, None, None, 1, Some(EngineStop::BudgetExhausted),
            (47 + 47, 31 + 31, 6, 2, 2)),
        // r10 is 0: the load faults after its before-calls ran.
        ("memory fault", "main:\n li r8, 1\n ld r9, 0(r10)\n halt\n", None, None, all, None,
            (47 + 36, 31 + 24, 3 + 2, 2, 1)),
    ];
    for (name, src, stop_before, stop_after, budget, expected_stop, counts) in exits {
        let (off, on, calls, checks, insts) = counts;
        for (liveness, analysis) in [(false, off), (true, on)] {
            let program = assemble(src).expect("assemble");
            let entry = program.entry();
            let tool = Mixed {
                stop_before: stop_before.map(|offset| entry + offset),
                stop_after: stop_after.map(|offset| entry + offset),
            };
            let mut engine = Engine::new(Process::load(1, &program).expect("load"), tool);
            if liveness {
                engine.set_liveness(Arc::new(LiveMap::compute(&program).expect("liveness")));
            }
            let stop = engine.run(budget).map(|result| result.stop);
            let case = format!("{name} (liveness {liveness})");
            match expected_stop {
                Some(expected) => assert_eq!(stop.expect("run"), expected, "{case}"),
                None => assert!(matches!(stop, Err(VmError::Mem(_))), "{case}: {stop:?}"),
            }
            let stats = engine.stats();
            let got = (
                stats.cycles.analysis,
                stats.analysis_calls,
                stats.if_checks,
                stats.then_calls,
                stats.insts_executed,
            );
            assert_eq!(got, (analysis, calls, checks, checks, insts), "{case}");
            assert_eq!(
                stats.cycles.app, insts,
                "{case}: one cycle per retired inst"
            );
        }
    }
}
