//! The instrumentation-insertion API, modelled on Pin's
//! `INS_InsertCall` / `INS_InsertIfCall` / `INS_InsertThenCall`.
//!
//! Analysis routines are closures over the tool state. An
//! [`Inserter`] collects them while the tool instruments a freshly
//! discovered [`Trace`](crate::trace::Trace); the engine then compiles
//! the trace + calls into the code cache.

use std::fmt;
use std::sync::Arc;
use superpin_isa::{Inst, Reg};

/// Where an analysis call is attached relative to its instruction
/// (Pin's `IPOINT_BEFORE` / `IPOINT_AFTER`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IPoint {
    /// Runs before the instruction executes.
    Before,
    /// Runs after the instruction executes (not supported on `syscall`,
    /// which hands control to the supervisor — use
    /// [`Pintool::on_syscall`](crate::tool::Pintool::on_syscall) instead).
    After,
}

/// Argument descriptors materialized for analysis calls (Pin's `IARG_*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IArg {
    /// The instrumented instruction's address (`IARG_INST_PTR`).
    InstPtr,
    /// A constant (`IARG_UINT32`/`IARG_UINT64`).
    UInt(u64),
    /// Effective address of the instruction's memory operand
    /// (`IARG_MEMORYOP_EA`); 0 for non-memory instructions. Always
    /// computed from pre-execution register values.
    MemAddr,
    /// Bytes accessed by the memory operand; 0 for non-memory
    /// instructions.
    MemSize,
    /// 1 if the instruction writes memory, else 0.
    IsMemWrite,
    /// 1 if a control transfer was taken by this instruction
    /// (`IARG_BRANCH_TAKEN`; meaningful only at [`IPoint::After`]).
    BranchTaken,
    /// Value of a register when the call runs (`IARG_REG_VALUE`):
    /// pre-execution for a before-call, post-execution for an
    /// after-call.
    RegValue(Reg),
    /// The `i`th 64-bit word above the stack pointer, i.e.
    /// `mem[sp + 8·i]`; 0 if unmapped. SuperPin's full signature check
    /// compares "the top 100 words on the stack" (paper §4.4).
    StackWord(u32),
    /// The address execution continues at if the instruction falls
    /// through (`IARG_FALLTHROUGH_ADDR`).
    FallthroughAddr,
}

impl IArg {
    /// The argument's value for a call at `point` on `inst` (`size`
    /// bytes at `addr`) when it is known at compile time, or `None` when
    /// it depends on execution state: the effective address of a load or
    /// store, an after-call's branch outcome, a register or a stack word.
    /// The compiler lowers static values once per trace; the engine
    /// evaluates the rest on every execution.
    pub(crate) fn static_value(
        self,
        addr: u64,
        inst: Inst,
        size: u64,
        point: IPoint,
    ) -> Option<u64> {
        match self {
            IArg::InstPtr => Some(addr),
            IArg::UInt(value) => Some(value),
            IArg::MemAddr if inst.is_mem_read() || inst.is_mem_write() => None,
            IArg::MemAddr => Some(0),
            IArg::MemSize => match inst {
                Inst::Ld { width, .. } | Inst::St { width, .. } => Some(width.bytes() as u64),
                _ => Some(0),
            },
            IArg::IsMemWrite => Some(u64::from(inst.is_mem_write())),
            // Before-calls always observe `taken = false`.
            IArg::BranchTaken => match point {
                IPoint::Before => Some(0),
                IPoint::After => None,
            },
            IArg::RegValue(_) | IArg::StackWord(_) => None,
            IArg::FallthroughAddr => Some(addr + size),
        }
    }
}

/// Runtime context passed to every analysis routine.
#[derive(Clone, Copy, Debug)]
pub struct CallCtx<'a> {
    /// Address of the instrumented instruction.
    pub pc: u64,
    /// Argument values, in the order the call requested them.
    pub args: &'a [u64],
}

impl CallCtx<'_> {
    /// The `i`th requested argument (0 if fewer were requested —
    /// analysis code stays panic-free on tool bugs).
    pub fn arg(&self, i: usize) -> u64 {
        self.args.get(i).copied().unwrap_or(0)
    }
}

/// Control surface handed to analysis routines.
///
/// Lets a routine charge extra virtual cycles (e.g. SuperPin's full
/// signature comparison walks 100 stack words, paper §4.4) and request
/// that the engine stop at the end of the current instruction (used by
/// `SP_EndSlice` and by signature-detection hits).
#[derive(Debug, Default)]
pub struct EngineCtl {
    stop: bool,
    extra_cycles: u64,
}

impl EngineCtl {
    /// Ask the engine to stop after the current instruction completes.
    pub fn request_stop(&mut self) {
        self.stop = true;
    }

    /// Whether a stop has been requested.
    pub fn stop_requested(&self) -> bool {
        self.stop
    }

    /// Charge additional virtual cycles to the analysis account.
    pub fn charge_cycles(&mut self, cycles: u64) {
        self.extra_cycles += cycles;
    }

    /// Cycles charged so far.
    pub fn extra_cycles(&self) -> u64 {
        self.extra_cycles
    }
}

/// A plain analysis routine over tool state `T`.
pub type AnalysisFn<T> = Arc<dyn Fn(&mut T, &CallCtx<'_>, &mut EngineCtl) + Send + Sync>;

/// A predicate routine (`INS_InsertIfCall`): returns `true` to trigger
/// the paired then-call.
pub type PredicateFn<T> = Arc<dyn Fn(&mut T, &CallCtx<'_>) -> bool + Send + Sync>;

/// One inserted call, plain or if/then guarded.
pub enum Call<T> {
    /// Unconditional analysis call.
    Plain {
        /// The analysis routine.
        func: AnalysisFn<T>,
        /// Arguments materialized at each execution.
        args: Vec<IArg>,
    },
    /// `INS_InsertIfCall` + `INS_InsertThenCall`: a cheap inlined
    /// predicate guarding an expensive call (paper §4.4 uses this pair
    /// for signature detection).
    IfThen {
        /// The inlined quick predicate.
        pred: PredicateFn<T>,
        /// Predicate arguments.
        pred_args: Vec<IArg>,
        /// The expensive guarded routine.
        then: AnalysisFn<T>,
        /// Then-call arguments.
        then_args: Vec<IArg>,
    },
}

impl<T> Clone for Call<T> {
    fn clone(&self) -> Call<T> {
        match self {
            Call::Plain { func, args } => Call::Plain {
                func: Arc::clone(func),
                args: args.clone(),
            },
            Call::IfThen {
                pred,
                pred_args,
                then,
                then_args,
            } => Call::IfThen {
                pred: Arc::clone(pred),
                pred_args: pred_args.clone(),
                then: Arc::clone(then),
                then_args: then_args.clone(),
            },
        }
    }
}

impl<T> fmt::Debug for Call<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Call::Plain { args, .. } => f.debug_struct("Plain").field("args", args).finish(),
            Call::IfThen {
                pred_args,
                then_args,
                ..
            } => f
                .debug_struct("IfThen")
                .field("pred_args", pred_args)
                .field("then_args", then_args)
                .finish(),
        }
    }
}

/// Collects instrumentation for one trace while a tool's
/// `instrument_trace` hook runs.
pub struct Inserter<T> {
    calls: Vec<(u64, IPoint, Call<T>)>,
}

impl<T> Default for Inserter<T> {
    fn default() -> Inserter<T> {
        Inserter { calls: Vec::new() }
    }
}

impl<T> fmt::Debug for Inserter<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inserter")
            .field("calls", &self.calls.len())
            .finish()
    }
}

impl<T: 'static> Inserter<T> {
    /// Creates an empty inserter.
    pub fn new() -> Inserter<T> {
        Inserter::default()
    }

    /// Inserts an unconditional analysis call at `addr`
    /// (`INS_InsertCall`).
    pub fn insert_call(
        &mut self,
        addr: u64,
        point: IPoint,
        func: impl Fn(&mut T, &CallCtx<'_>, &mut EngineCtl) + Send + Sync + 'static,
        args: Vec<IArg>,
    ) {
        self.calls.push((
            addr,
            point,
            Call::Plain {
                func: Arc::new(func),
                args,
            },
        ));
    }

    /// Inserts an if/then guarded pair at `addr`
    /// (`INS_InsertIfCall` + `INS_InsertThenCall`). The predicate is
    /// charged as a cheap inlined check; the then-call is only charged
    /// (and run) when the predicate returns `true`.
    pub fn insert_if_then_call(
        &mut self,
        addr: u64,
        point: IPoint,
        pred: impl Fn(&mut T, &CallCtx<'_>) -> bool + Send + Sync + 'static,
        pred_args: Vec<IArg>,
        then: impl Fn(&mut T, &CallCtx<'_>, &mut EngineCtl) + Send + Sync + 'static,
        then_args: Vec<IArg>,
    ) {
        self.calls.push((
            addr,
            point,
            Call::IfThen {
                pred: Arc::new(pred),
                pred_args,
                then: Arc::new(then),
                then_args,
            },
        ));
    }

    /// Number of calls collected.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether no calls were collected.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Drains the collected calls (used by the compiler).
    pub(crate) fn into_calls(self) -> Vec<(u64, IPoint, Call<T>)> {
        self.calls
    }

    /// Re-homes every call collected for an inner tool type `U` onto this
    /// inserter's tool type `T`, through a projection.
    ///
    /// This is how wrapper tools compose: SuperPin's slice wrapper runs
    /// the user tool's `instrument_trace` into an `Inserter<U>`, then
    /// absorbs it so the user's analysis routines see `&mut U` while the
    /// engine drives `&mut T`.
    pub fn absorb<U: 'static>(&mut self, inner: Inserter<U>, project: fn(&mut T) -> &mut U) {
        for (addr, point, call) in inner.into_calls() {
            let mapped = match call {
                Call::Plain { func, args } => Call::Plain {
                    func: Arc::new(move |t: &mut T, ctx: &CallCtx<'_>, ctl: &mut EngineCtl| {
                        func(project(t), ctx, ctl)
                    }) as AnalysisFn<T>,
                    args,
                },
                Call::IfThen {
                    pred,
                    pred_args,
                    then,
                    then_args,
                } => Call::IfThen {
                    pred: Arc::new(move |t: &mut T, ctx: &CallCtx<'_>| pred(project(t), ctx))
                        as PredicateFn<T>,
                    pred_args,
                    then: Arc::new(move |t: &mut T, ctx: &CallCtx<'_>, ctl: &mut EngineCtl| {
                        then(project(t), ctx, ctl)
                    }) as AnalysisFn<T>,
                    then_args,
                },
            };
            self.calls.push((addr, point, mapped));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        hits: u64,
    }

    #[test]
    fn collects_calls_in_order() {
        let mut inserter: Inserter<Counter> = Inserter::new();
        inserter.insert_call(0x10, IPoint::Before, |t, _, _| t.hits += 1, vec![]);
        inserter.insert_if_then_call(
            0x18,
            IPoint::After,
            |_, _| true,
            vec![IArg::InstPtr],
            |t, _, _| t.hits += 10,
            vec![],
        );
        assert_eq!(inserter.len(), 2);
        let calls = inserter.into_calls();
        assert_eq!(calls[0].0, 0x10);
        assert!(matches!(calls[1].2, Call::IfThen { .. }));
    }

    #[test]
    fn absorb_projects_inner_tool() {
        struct Wrapper {
            inner: Counter,
            own: u64,
        }
        let mut inner: Inserter<Counter> = Inserter::new();
        inner.insert_call(0x10, IPoint::Before, |t, _, _| t.hits += 5, vec![]);

        let mut outer: Inserter<Wrapper> = Inserter::new();
        outer.insert_call(0x10, IPoint::Before, |t, _, _| t.own += 1, vec![]);
        outer.absorb(inner, |w| &mut w.inner);
        assert_eq!(outer.len(), 2);

        let mut wrapper = Wrapper {
            inner: Counter::default(),
            own: 0,
        };
        let ctx = CallCtx {
            pc: 0x10,
            args: &[],
        };
        let mut ctl = EngineCtl::default();
        for (_, _, call) in outer.into_calls() {
            if let Call::Plain { func, .. } = call {
                func(&mut wrapper, &ctx, &mut ctl);
            }
        }
        assert_eq!(wrapper.own, 1);
        assert_eq!(wrapper.inner.hits, 5);
    }

    #[test]
    fn engine_ctl_accumulates() {
        let mut ctl = EngineCtl::default();
        assert!(!ctl.stop_requested());
        ctl.charge_cycles(3);
        ctl.charge_cycles(4);
        ctl.request_stop();
        assert!(ctl.stop_requested());
        assert_eq!(ctl.extra_cycles(), 7);
    }

    #[test]
    fn call_ctx_arg_is_total() {
        let ctx = CallCtx { pc: 0, args: &[9] };
        assert_eq!(ctx.arg(0), 9);
        assert_eq!(ctx.arg(5), 0);
    }
}
