//! The instrumentation engine: dispatcher + JIT loop over a guest process.

use crate::cache::{CodeCache, CompiledInst, CompiledTrace, InsertedCall, DEFAULT_CAPACITY_INSTS};
use crate::cost::CostModel;
use crate::inserter::{Call, CallCtx, EngineCtl, IArg, IPoint, Inserter};
use crate::shared_index::SharedTraceIndex;
use crate::spill::ClobberViolation;
use crate::tool::Pintool;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use superpin_analysis::SoundnessOracle;
use superpin_fault::{FailpointRegistry, Site};
use superpin_isa::Inst;
use superpin_vm::cpu::ExecOutcome;
use superpin_vm::kernel::SyscallRecord;
use superpin_vm::process::Process;
use superpin_vm::VmError;

/// Where the engine's cycles went (paper §6.3's overhead taxonomy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Application instructions executed out of the code cache.
    pub app: u64,
    /// Inserted analysis calls, their arguments, and tool-charged extras.
    pub analysis: u64,
    /// JIT compilation ("compilation slowdown").
    pub jit: u64,
    /// Per-trace dispatch.
    pub dispatch: u64,
    /// Syscall servicing / playback.
    pub syscall: u64,
}

impl CycleBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> u64 {
        self.app + self.analysis + self.jit + self.dispatch + self.syscall
    }
}

/// Execution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Cycle accounting.
    pub cycles: CycleBreakdown,
    /// Instructions executed under instrumentation.
    pub insts_executed: u64,
    /// Trace dispatches.
    pub traces_executed: u64,
    /// Plain analysis calls invoked.
    pub analysis_calls: u64,
    /// Inlined if-checks evaluated.
    pub if_checks: u64,
    /// Then-calls triggered by a true if-check.
    pub then_calls: u64,
    /// Compilations that adopted a shared-cache trace at the cheaper
    /// consistency-check rate (paper §8 extension).
    pub shared_cache_adoptions: u64,
    /// Compilations that probed the shared index and claimed the trace
    /// first (full JIT price while sharing). Zero without a shared cache.
    pub shared_cache_misses: u64,
    /// Shared-index probes that had to block on a contended shard lock.
    /// Structurally zero in epoch-snapshot mode, where engines never
    /// touch the live index mid-run.
    pub shared_cache_contention: u64,
}

/// Why [`Engine::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineStop {
    /// The cycle budget was consumed; call `run` again to continue.
    BudgetExhausted,
    /// Parked at a syscall: service with [`Engine::service_syscall`] or
    /// replay with [`Engine::playback_syscall`].
    SyscallEntry,
    /// The guest exited with this code.
    Exited(i64),
    /// An analysis routine requested a stop (`SP_EndSlice`, signature
    /// detection). The pending instruction has *not* executed if the stop
    /// came from a before-call.
    ToolStop,
    /// The guest executed `halt`.
    Halted,
}

/// Result of one [`Engine::run`] invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Why the engine stopped.
    pub stop: EngineStop,
    /// Cycles consumed during this invocation.
    pub cycles: u64,
}

enum TraceExit {
    Continue,
    Stop(EngineStop),
}

/// How an engine consults the shared-trace index (paper §8).
#[derive(Clone)]
enum SharedTraceMode {
    /// Probe-and-publish against the live sharded index on every compile.
    /// Right for standalone engines and single-threaded supervisors, but
    /// racy across threads: who compiles first depends on host timing.
    Live(Arc<SharedTraceIndex>),
    /// Epoch-snapshot consistency: consult an immutable snapshot taken at
    /// the last epoch barrier, record own fresh compiles locally. The
    /// supervisor drains `fresh` at the barrier and publishes it in slice
    /// order, making the cycle accounting independent of host
    /// interleaving.
    Epoch {
        snapshot: Arc<HashSet<u64>>,
        fresh: HashSet<u64>,
    },
}

/// A Pin-like execution engine: owns the guest [`Process`], the tool, and
/// a (cold) code cache.
///
/// # Example
///
/// ```
/// use superpin_dbi::{Engine, NullTool};
/// use superpin_isa::asm::assemble;
///
/// let program = assemble("main:\n li r1, 3\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n")?;
/// let process = superpin_vm::process::Process::load(1, &program)?;
/// let mut engine = Engine::new(process, NullTool);
/// let (code, cycles) = engine.run_to_exit()?;
/// assert_eq!(code, 0);
/// assert!(cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Engine<T: Pintool> {
    process: Process,
    tool: T,
    cache: CodeCache<T>,
    cost: CostModel,
    stats: EngineStats,
    fini_done: bool,
    /// Trace formation ends just before this address (SuperPin slice
    /// boundaries; see [`crate::trace::discover_trace_split`]).
    split_point: Option<u64>,
    /// Shared index of trace entries some engine has already compiled.
    /// When present, compiling an already-indexed trace charges
    /// [`CostModel::shared_cache_check`] per instruction instead of the
    /// full JIT cost (paper §8's shared code cache).
    shared_traces: Option<SharedTraceMode>,
    /// The guest code version last observed; a mismatch means the guest
    /// wrote into its code region (self-modifying code) and every
    /// translation must be discarded.
    code_version_seen: u64,
    /// Whether the next trace entry goes through the dispatcher. Direct
    /// branches between cached traces are *linked* (as in Pin) and skip
    /// the dispatcher; indirect transfers and re-entries after
    /// syscalls/stops pay [`CostModel::dispatch_per_trace`].
    pending_dispatch: bool,
    /// Armed chaos registry for the [`Site::DbiEngineDispatch`]
    /// failpoint. `None` (the default) costs nothing: the dispatch path
    /// takes one branch on an `Option` it would otherwise not have.
    fault: Option<Arc<FailpointRegistry>>,
    /// Salt mixed into every dispatch failpoint key; the supervisor bumps
    /// it per retry so a re-armed slice does not deterministically re-hit
    /// the fault that killed it.
    fault_salt: u64,
    /// Dispatches evaluated against the failpoint while armed (the
    /// per-engine half of the key, deterministic per execution).
    fault_dispatches: u64,
    /// Static↔dynamic soundness oracle: every taken `jalr` and every
    /// code write is validated against the static analysis (debug builds
    /// assert; release builds record).
    oracle: Option<Arc<SoundnessOracle>>,
    /// Host-side cross-engine template cache (see
    /// [`Engine::set_trace_templates`]). `None` keeps every compile
    /// private to this engine.
    templates: Option<TraceTemplates<T>>,
}

/// Host-side map of compiled-trace templates shared by every engine of a
/// run (SuperPin's slices). Keyed by trace entry address; adoption is
/// guarded by an instruction-for-instruction comparison against the
/// adopter's own freshly discovered trace, so a stale or mismatched
/// template is simply recompiled, never executed.
///
/// A template carries its calls' charges as lowered under the compiling
/// engine's [`CostModel`] (see [`InsertedCall`]), so every engine
/// sharing one map must run the same cost model — as a runner's slices
/// do, all built from one `cfg.cost`.
pub type TraceTemplates<T> = Arc<std::sync::Mutex<HashMap<u64, Arc<CompiledTrace<T>>>>>;

impl<T: Pintool + Clone> Clone for Engine<T> {
    /// Checkpoint clone: compiled traces are shared (immutable `Arc`s),
    /// everything else — process, tool, counters, chaos arming — is
    /// copied.
    fn clone(&self) -> Engine<T> {
        Engine {
            process: self.process.clone(),
            tool: self.tool.clone(),
            cache: self.cache.clone(),
            cost: self.cost,
            stats: self.stats,
            fini_done: self.fini_done,
            split_point: self.split_point,
            shared_traces: self.shared_traces.clone(),
            code_version_seen: self.code_version_seen,
            pending_dispatch: self.pending_dispatch,
            fault: self.fault.clone(),
            fault_salt: self.fault_salt,
            fault_dispatches: self.fault_dispatches,
            oracle: self.oracle.clone(),
            templates: self.templates.clone(),
        }
    }
}

impl<T: Pintool> fmt::Debug for Engine<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("pid", &self.process.pid())
            .field("tool", &self.tool.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<T: Pintool + 'static> Engine<T> {
    /// Creates an engine with the default cost model and cache capacity.
    pub fn new(process: Process, tool: T) -> Engine<T> {
        Engine::with_config(process, tool, CostModel::default(), DEFAULT_CAPACITY_INSTS)
    }

    /// Creates an engine with an explicit cost model and cache capacity.
    pub fn with_config(
        process: Process,
        tool: T,
        cost: CostModel,
        cache_capacity_insts: usize,
    ) -> Engine<T> {
        let code_version_seen = process.mem.code_version();
        Engine {
            process,
            tool,
            cache: CodeCache::with_capacity(cache_capacity_insts),
            cost,
            stats: EngineStats::default(),
            fini_done: false,
            split_point: None,
            shared_traces: None,
            code_version_seen,
            pending_dispatch: true,
            fault: None,
            fault_salt: 0,
            fault_dispatches: 0,
            oracle: None,
            templates: None,
        }
    }

    /// Arms (or with `None` disarms) the [`Site::DbiEngineDispatch`]
    /// failpoint. `salt` is mixed into every key; pass the retry attempt
    /// so a recovered slice sees a fresh schedule (see
    /// [`Engine::run`]'s dispatch path).
    pub fn arm_fault_injection(&mut self, registry: Option<Arc<FailpointRegistry>>, salt: u64) {
        self.fault = registry;
        self.fault_salt = salt;
    }

    /// Sets the trace split point. Must be set before the affected code
    /// compiles (SuperPin sets it when a slice wakes, while the slice's
    /// cache is still cold).
    pub fn set_split_point(&mut self, split: Option<u64>) {
        self.split_point = split;
    }

    /// Installs a shared compiled-trace index (paper §8's shared code
    /// cache) in **live** mode: traces another engine already compiled
    /// are adopted at the consistency-check rate rather than recompiled
    /// from scratch, and fresh compiles are published immediately.
    pub fn set_shared_trace_index(&mut self, index: Arc<SharedTraceIndex>) {
        self.shared_traces = Some(SharedTraceMode::Live(index));
    }

    /// Switches shared-cache consistency to **epoch-snapshot** mode: the
    /// engine consults `snapshot` (plus its own fresh compiles) without
    /// touching the live index, keeping its cycle accounting a pure
    /// function of virtual time. Fresh compiles accumulated in a previous
    /// epoch and not yet drained are carried over.
    ///
    /// The supervisor calls this at every epoch barrier after draining
    /// [`take_fresh_traces`](Engine::take_fresh_traces) and publishing in
    /// slice order.
    pub fn enter_shared_epoch(&mut self, snapshot: Arc<HashSet<u64>>) {
        let fresh = match self.shared_traces.take() {
            Some(SharedTraceMode::Epoch { fresh, .. }) => fresh,
            _ => HashSet::new(),
        };
        self.shared_traces = Some(SharedTraceMode::Epoch { snapshot, fresh });
    }

    /// Drains the trace pcs this engine compiled at full price since the
    /// last drain (epoch-snapshot mode only; empty in live mode). Sorted,
    /// so barrier publication is deterministic.
    pub fn take_fresh_traces(&mut self) -> Vec<u64> {
        match &mut self.shared_traces {
            Some(SharedTraceMode::Epoch { fresh, .. }) => {
                let mut pcs: Vec<u64> = fresh.drain().collect();
                pcs.sort_unstable();
                pcs
            }
            _ => Vec::new(),
        }
    }

    /// Installs static liveness for the guest program (see
    /// [`CodeCache::set_liveness`]): save/restores of registers proven
    /// dead at an insertion point are elided, shrinking each analysis
    /// call's charge from the conservative
    /// [`CostModel::analysis_call`] to
    /// [`CostModel::analysis_call_base`] plus
    /// [`CostModel::save_restore_per_reg`] per live clobbered register.
    /// Call execution itself is unchanged, so instrumentation results
    /// (e.g. icounts) are identical with or without liveness.
    pub fn set_liveness(&mut self, liveness: Arc<superpin_analysis::LiveMap>) {
        self.cache.set_liveness(liveness);
    }

    /// Installs a cross-engine compiled-trace template cache.
    ///
    /// Engines sharing one map reuse each other's compiled traces when
    /// the tool certifies its instrumentation as shareable
    /// ([`Pintool::instrumentation_is_shareable`]) and the adopter's own
    /// trace discovery produced instruction-identical shape. This is
    /// purely a host-side accelerator: the adopting engine's code cache
    /// performs the same bookkeeping and the same JIT cycles are
    /// charged, so simulated reports are unchanged.
    pub fn set_trace_templates(&mut self, templates: TraceTemplates<T>) {
        self.templates = Some(templates);
    }

    /// Installs the static↔dynamic soundness oracle and turns on the
    /// guest's code-write log to feed its SMC checks. Every taken
    /// `jalr` and every code write is validated against the static
    /// analysis; debug builds assert on a violation, release builds
    /// record it (see [`SoundnessOracle::violations`]).
    pub fn set_oracle(&mut self, oracle: Arc<SoundnessOracle>) {
        self.process.mem.log_code_writes(true);
        self.oracle = Some(oracle);
    }

    /// Clobber-safety violations found while compiling instrumentation
    /// (debug/test builds only; see
    /// [`CodeCache::clobber_violations`]).
    pub fn clobber_violations(&self) -> &[ClobberViolation] {
        self.cache.clobber_violations()
    }

    /// Test hook: plant a deliberate save-set bug for the clobber
    /// verifier to catch (see [`CodeCache::inject_clobber_bug`]).
    pub fn inject_clobber_bug(&mut self, reg: superpin_isa::Reg) {
        self.cache.inject_clobber_bug(reg);
    }

    /// The guest process.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// Mutable access to the guest process.
    pub fn process_mut(&mut self) -> &mut Process {
        &mut self.process
    }

    /// The tool.
    pub fn tool(&self) -> &T {
        &self.tool
    }

    /// Mutable access to the tool.
    pub fn tool_mut(&mut self) -> &mut T {
        &mut self.tool
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Execution statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Code-cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Instructions resident in the code cache (the memory governor's
    /// charge basis for this engine).
    pub fn cache_resident_insts(&self) -> usize {
        self.cache.resident_insts()
    }

    /// Evicts the whole code cache under memory pressure, returning the
    /// instructions freed. Subsequent execution recompiles on demand.
    pub fn evict_code_cache(&mut self) -> usize {
        self.cache.evict_for_pressure()
    }

    /// Consumes the engine, returning the process and tool.
    pub fn into_parts(self) -> (Process, T) {
        (self.process, self.tool)
    }

    /// Runs instrumented code for approximately `budget` cycles.
    ///
    /// The budget is a soft target: a trace always completes once
    /// entered, so the engine may overshoot by up to one trace's cost
    /// (bounded by [`crate::trace::MAX_INSTS_PER_TRACE`]).
    ///
    /// # Errors
    ///
    /// Propagates guest execution errors.
    pub fn run(&mut self, budget: u64) -> Result<RunResult, VmError> {
        if let Some(code) = self.process.exited() {
            return Ok(RunResult {
                stop: EngineStop::Exited(code),
                cycles: 0,
            });
        }
        let mut spent = 0u64;
        // Resuming after a stop always re-enters through the dispatcher.
        self.pending_dispatch = true;
        loop {
            // Self-modifying code: any write into the code region since
            // the last dispatch invalidates every translation.
            let code_version = self.process.mem.code_version();
            if code_version != self.code_version_seen {
                self.code_version_seen = code_version;
                self.cache.flush_for_smc();
                self.pending_dispatch = true;
                if let Some(oracle) = &self.oracle {
                    for (addr, len) in self.process.mem.take_code_writes() {
                        let admitted = oracle.check_code_write(addr, len as u64);
                        debug_assert!(
                            admitted,
                            "soundness oracle: code write [{addr:#x}, +{len}) outside every \
                             static SMC region"
                        );
                    }
                }
            }
            let pc = self.process.cpu.pc;
            let trace = self.lookup_or_compile(pc, &mut spent)?;
            if self.pending_dispatch {
                if let Some(registry) = &self.fault {
                    // Key = pid, per-engine dispatch ordinal, retry salt:
                    // pure simulation state, so a given seed fires at the
                    // same dispatch on every run and on no others.
                    self.fault_dispatches += 1;
                    let key = (self.process.pid() << 32)
                        ^ self.fault_dispatches
                        ^ (self.fault_salt << 56);
                    if registry.fire(Site::DbiEngineDispatch, key) {
                        return Err(VmError::FaultInjected {
                            site: Site::DbiEngineDispatch.name(),
                        });
                    }
                }
                self.stats.cycles.dispatch += self.cost.dispatch_per_trace;
                spent += self.cost.dispatch_per_trace;
                self.pending_dispatch = false;
            }
            self.stats.traces_executed += 1;

            // `exec_trace` charges app and analysis cycles into the stats;
            // `spent` takes the same delta, also when the trace ends in a
            // guest fault.
            let charged = self.stats.cycles.app + self.stats.cycles.analysis;
            let exit = self.exec_trace(&trace);
            spent += self.stats.cycles.app + self.stats.cycles.analysis - charged;
            match exit? {
                TraceExit::Stop(stop) => {
                    if let EngineStop::Exited(_) = stop {
                        self.run_fini();
                    }
                    return Ok(RunResult {
                        stop,
                        cycles: spent,
                    });
                }
                TraceExit::Continue => {
                    if spent >= budget {
                        return Ok(RunResult {
                            stop: EngineStop::BudgetExhausted,
                            cycles: spent,
                        });
                    }
                }
            }
        }
    }

    fn lookup_or_compile(
        &mut self,
        pc: u64,
        spent: &mut u64,
    ) -> Result<Arc<CompiledTrace<T>>, VmError> {
        if let Some(compiled) = self.cache.lookup(pc) {
            return Ok(compiled);
        }
        // A miss always routes through the dispatcher into the JIT.
        self.pending_dispatch = true;
        // Trace discovery routes through the process decode cache: a
        // forked slice inherits its master's decoded pages, so
        // re-discovering a trace the master already walked decodes
        // nothing.
        let split = self.split_point;
        let process = &mut self.process;
        let trace = crate::trace::discover_trace_with(
            |pc| {
                let (inst, size) = process.fetch_decoded(pc)?;
                Ok(crate::trace::InstRef {
                    addr: pc,
                    inst,
                    size,
                })
            },
            pc,
            split,
        )?;
        // Template sharing: when a peer engine already compiled this
        // exact trace with certified-pure instrumentation, adopt its
        // compiled form instead of re-instrumenting. Guarded by an
        // instruction-for-instruction comparison against the trace *this*
        // engine just discovered, so SMC divergence or a different slice
        // boundary falls through to a private compile.
        let shareable = self.templates.is_some()
            && !self.cache.has_clobber_bug()
            && self.tool.instrumentation_is_shareable(&trace);
        if shareable {
            let template = self
                .templates
                .as_ref()
                .expect("checked is_some")
                .lock()
                .expect("template lock")
                .get(&pc)
                .cloned();
            if let Some(template) = template {
                if template_matches(&template, &trace) {
                    let count = self.cache.adopt(&template);
                    self.charge_jit(pc, count, spent);
                    return Ok(template);
                }
            }
        }
        let mut inserter = Inserter::new();
        self.tool.instrument_trace(&trace, &mut inserter);
        let (compiled, count) = self.cache.compile(&trace, inserter, &self.cost);
        if shareable {
            self.templates
                .as_ref()
                .expect("checked is_some")
                .lock()
                .expect("template lock")
                .insert(pc, Arc::clone(&compiled));
        }
        self.charge_jit(pc, count, spent);
        Ok(compiled)
    }

    /// Charges the simulated JIT cost for compiling (or adopting) a
    /// trace of `count` instructions entered at `pc`. The charge depends
    /// only on the *simulated* shared-code-cache mode — host-side
    /// template adoption takes this exact same path, so both routes cost
    /// the same simulated cycles.
    fn charge_jit(&mut self, pc: u64, count: usize, spent: &mut u64) {
        let per_inst = match &mut self.shared_traces {
            Some(SharedTraceMode::Live(index)) => {
                let probe = index.probe_insert(pc);
                if probe.contended {
                    self.stats.shared_cache_contention += 1;
                }
                if probe.adopted {
                    // Someone already shared it: consistency check only.
                    self.stats.shared_cache_adoptions += 1;
                    self.cost.shared_cache_check
                } else {
                    // First compiler of this trace pays full price.
                    self.stats.shared_cache_misses += 1;
                    self.cost.compile_per_inst
                }
            }
            Some(SharedTraceMode::Epoch { snapshot, fresh }) => {
                // `!fresh.insert(pc)` covers this engine recompiling its
                // own trace after a cache flush within the epoch.
                if snapshot.contains(&pc) || !fresh.insert(pc) {
                    self.stats.shared_cache_adoptions += 1;
                    self.cost.shared_cache_check
                } else {
                    self.stats.shared_cache_misses += 1;
                    self.cost.compile_per_inst
                }
            }
            None => self.cost.compile_per_inst,
        };
        let jit = count as u64 * per_inst;
        self.stats.cycles.jit += jit;
        *spent += jit;
    }

    fn exec_trace(&mut self, trace: &CompiledTrace<T>) -> Result<TraceExit, VmError> {
        let mut index = 0usize;
        while index < trace.insts.len() {
            let slot = &trace.insts[index];
            debug_assert_eq!(slot.addr, self.process.cpu.pc, "trace desync");

            // The effective address comes from pre-execution registers
            // for both before- and after-calls.
            let mem_ea = mem_effective_address(&self.process, slot.inst);

            // Before-calls.
            if !slot.before.is_empty()
                && self.run_calls(&slot.before, slot, IPoint::Before, mem_ea, false)
            {
                // Stop requested before execution: the instruction is NOT
                // executed; pc stays at the boundary (paper §4.4 — the
                // boundary instruction belongs to the next slice).
                return Ok(TraceExit::Stop(EngineStop::ToolStop));
            }

            // The guest instruction itself.
            let outcome = self.process.exec_decoded(slot.inst, slot.size)?;
            match outcome {
                ExecOutcome::Syscall => {
                    return Ok(TraceExit::Stop(EngineStop::SyscallEntry));
                }
                ExecOutcome::Halt => {
                    return Ok(TraceExit::Stop(EngineStop::Halted));
                }
                ExecOutcome::Next | ExecOutcome::Jumped => {
                    self.stats.cycles.app += self.cost.cached_cpi;
                    self.stats.insts_executed += 1;
                }
            }
            let taken = outcome == ExecOutcome::Jumped;

            // After-calls.
            if !slot.after.is_empty()
                && self.run_calls(&slot.after, slot, IPoint::After, mem_ea, taken)
            {
                return Ok(TraceExit::Stop(EngineStop::ToolStop));
            }

            if taken {
                // Indirect transfers cannot be trace-linked: they pay the
                // dispatcher on re-entry. Direct branches are linked.
                if matches!(slot.inst, Inst::Jalr { .. }) {
                    self.pending_dispatch = true;
                    if let Some(oracle) = &self.oracle {
                        let dest = self.process.cpu.pc;
                        let admitted = oracle.check_transfer(slot.addr, dest);
                        debug_assert!(
                            admitted,
                            "soundness oracle: jalr at {:#x} reached {dest:#x} outside its \
                             static target set",
                            slot.addr
                        );
                    }
                }
                // Control left the straight line unless the target happens
                // to be the next slot (branch to fall-through).
                let next_matches = trace
                    .insts
                    .get(index + 1)
                    .is_some_and(|next| next.addr == self.process.cpu.pc);
                if !next_matches {
                    return Ok(TraceExit::Continue);
                }
            }
            index += 1;
        }
        // The budget is only checked *between* traces (see `run`): a
        // trace always completes once entered. Preempting mid-trace would
        // re-enter the block through a side trace and re-run its
        // block-granularity instrumentation — real Pin never re-instruments
        // on a context switch, and block-counting tools (icount2) rely on
        // block entry firing exactly once per block execution.
        Ok(TraceExit::Continue)
    }

    /// Runs a call list at `point`; returns `true` if a stop was
    /// requested.
    ///
    /// Charges and static argument values were lowered at compile time
    /// (see [`InsertedCall`]); only a call with a dynamic argument has
    /// its list evaluated here.
    ///
    /// A stop request short-circuits the remaining calls in the list:
    /// when SuperPin's signature detector (inserted ahead of the user
    /// tool's calls) fires at a slice boundary, the user tool must not
    /// observe the boundary instruction — it belongs to the next slice.
    fn run_calls(
        &mut self,
        calls: &[InsertedCall<T>],
        slot: &CompiledInst<T>,
        point: IPoint,
        mem_ea: u64,
        taken: bool,
    ) -> bool {
        let mut stop = false;
        for inserted in calls {
            if stop {
                break;
            }
            match &inserted.call {
                Call::Plain { func, args } => {
                    let values = self.arg_values(&inserted.args, args, slot, point, mem_ea, taken);
                    let mut ctl = EngineCtl::default();
                    let ctx = CallCtx {
                        pc: slot.addr,
                        args: &values,
                    };
                    func(&mut self.tool, &ctx, &mut ctl);
                    self.stats.cycles.analysis += inserted.cost + ctl.extra_cycles();
                    self.stats.analysis_calls += 1;
                    stop |= ctl.stop_requested();
                }
                Call::IfThen {
                    pred,
                    pred_args,
                    then,
                    then_args,
                } => {
                    let values =
                        self.arg_values(&inserted.args, pred_args, slot, point, mem_ea, taken);
                    self.stats.cycles.analysis += inserted.cost;
                    self.stats.if_checks += 1;
                    let ctx = CallCtx {
                        pc: slot.addr,
                        args: &values,
                    };
                    if pred(&mut self.tool, &ctx) {
                        let values = self.arg_values(
                            &inserted.then_args,
                            then_args,
                            slot,
                            point,
                            mem_ea,
                            taken,
                        );
                        let mut ctl = EngineCtl::default();
                        let ctx = CallCtx {
                            pc: slot.addr,
                            args: &values,
                        };
                        then(&mut self.tool, &ctx, &mut ctl);
                        self.stats.cycles.analysis += inserted.then_cost + ctl.extra_cycles();
                        self.stats.then_calls += 1;
                        stop |= ctl.stop_requested();
                    }
                }
            }
        }
        stop
    }

    /// A call's argument values: the `lowered` ones when the compiler
    /// could compute them, else `args` evaluated against the current
    /// machine state (static descriptors in the list still take their
    /// compile-time value).
    fn arg_values<'a>(
        &self,
        lowered: &'a Option<Box<[u64]>>,
        args: &[IArg],
        slot: &CompiledInst<T>,
        point: IPoint,
        mem_ea: u64,
        taken: bool,
    ) -> Cow<'a, [u64]> {
        if let Some(values) = lowered {
            return Cow::Borrowed(values);
        }
        let regs = &self.process.cpu.regs;
        args.iter()
            .map(
                |&arg| match arg.static_value(slot.addr, slot.inst, slot.size, point) {
                    Some(value) => value,
                    None => match arg {
                        IArg::MemAddr => mem_ea,
                        IArg::BranchTaken => u64::from(taken),
                        IArg::RegValue(reg) => regs.get(reg),
                        IArg::StackWord(i) => self
                            .process
                            .mem
                            .read_u64(regs.get(superpin_isa::Reg::SP).wrapping_add(8 * i as u64))
                            .unwrap_or(0),
                        _ => unreachable!("{arg:?} is always static"),
                    },
                },
            )
            .collect()
    }

    /// Services the syscall the guest is parked at, charging syscall cost
    /// and notifying the tool. Returns the record plus cycles charged.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn service_syscall(&mut self, now_ns: u64) -> Result<(SyscallRecord, u64), VmError> {
        let record = self.process.do_syscall(now_ns)?;
        self.stats.cycles.syscall += self.cost.syscall;
        self.tool.on_syscall(&record);
        if record.exited.is_some() {
            self.run_fini();
        }
        Ok((record, self.cost.syscall))
    }

    /// Plays back a recorded syscall instead of executing it (SuperPin
    /// slices, paper §4.2), charging syscall cost and notifying the tool.
    /// Returns cycles charged.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from re-applying the record.
    pub fn playback_syscall(&mut self, record: &SyscallRecord) -> Result<u64, VmError> {
        self.process.playback_syscall(record)?;
        self.stats.cycles.syscall += self.cost.syscall;
        self.tool.on_syscall(record);
        if record.exited.is_some() {
            self.run_fini();
        }
        Ok(self.cost.syscall)
    }

    fn run_fini(&mut self) {
        if !self.fini_done {
            self.fini_done = true;
            self.tool.fini();
        }
    }

    /// Runs the guest to completion in standalone "Pin mode", servicing
    /// syscalls inline. The virtual `gettime` clock is derived from the
    /// cycles this engine has consumed. Returns the exit code and total
    /// cycles.
    ///
    /// # Errors
    ///
    /// Propagates guest errors; `halt` surfaces as
    /// [`VmError::UnexpectedHalt`].
    pub fn run_to_exit(&mut self) -> Result<(i64, u64), VmError> {
        let mut total = 0u64;
        loop {
            let result = self.run(u64::MAX / 4)?;
            total += result.cycles;
            match result.stop {
                EngineStop::SyscallEntry => {
                    let now_ns = cycles_to_ns(self.stats.cycles.total());
                    let (record, cycles) = self.service_syscall(now_ns)?;
                    total += cycles;
                    if let Some(code) = record.exited {
                        return Ok((code, total));
                    }
                }
                EngineStop::Exited(code) => return Ok((code, total)),
                EngineStop::Halted => {
                    return Err(VmError::UnexpectedHalt {
                        pc: self.process.cpu.pc,
                    })
                }
                EngineStop::ToolStop => {
                    // Standalone mode has no slice supervisor; a tool stop
                    // simply continues.
                }
                EngineStop::BudgetExhausted => {}
            }
        }
    }
}

// The parallel runner moves engines into scoped worker threads, so
// `Engine<T>: Send` for any `Send` tool is a load-bearing property:
// losing it (say, by caching an `Rc` somewhere) must fail compilation
// here rather than at the runner's distant spawn site.
const _: () = {
    const fn assert_send<S: Send>() {}
    #[allow(dead_code)]
    const fn engine_is_send_for_send_tools<T: Pintool + Send + 'static>() {
        assert_send::<Engine<T>>();
    }
};

/// Converts 2.2 GHz cycles to virtual nanoseconds.
pub fn cycles_to_ns(cycles: u64) -> u64 {
    ((cycles as u128) * 10 / 22) as u64
}

/// Whether a shared template is instruction-for-instruction identical to
/// the trace this engine just discovered. Anything else — self-modified
/// code, a different slice-boundary truncation — fails the comparison
/// and the engine compiles privately.
fn template_matches<T>(template: &CompiledTrace<T>, trace: &crate::trace::Trace) -> bool {
    template.insts.len() == trace.num_insts()
        && template
            .insts
            .iter()
            .zip(trace.insts())
            .all(|(slot, iref)| {
                slot.addr == iref.addr && slot.inst == iref.inst && slot.size == iref.size
            })
}

/// The effective address of a load or store, from the current
/// registers; 0 for any other instruction.
fn mem_effective_address(process: &Process, inst: Inst) -> u64 {
    match inst {
        Inst::Ld { base, offset, .. } | Inst::St { base, offset, .. } => process
            .cpu
            .regs
            .get(base)
            .wrapping_add(offset as i64 as u64),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inserter::IPoint;
    use crate::tool::NullTool;
    use crate::trace::Trace;
    use superpin_isa::asm::assemble;

    fn process_for(src: &str) -> Process {
        Process::load(1, &assemble(src).expect("assemble")).expect("load")
    }

    const LOOP_100: &str =
        "main:\n li r1, 100\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";

    #[derive(Clone, Default)]
    struct ICount1 {
        count: u64,
    }

    impl Pintool for ICount1 {
        fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
            for iref in trace.insts() {
                inserter.insert_call(
                    iref.addr,
                    IPoint::Before,
                    |tool, _, _| tool.count += 1,
                    vec![],
                );
            }
        }
        fn name(&self) -> &'static str {
            "icount1-test"
        }
    }

    #[test]
    fn null_tool_matches_native_count() {
        let mut native = process_for(LOOP_100);
        native.run(u64::MAX, 0).expect("native");
        let truth = native.inst_count();

        let mut engine = Engine::new(process_for(LOOP_100), NullTool);
        let (code, _) = engine.run_to_exit().expect("run");
        assert_eq!(code, 0);
        assert_eq!(engine.process().inst_count(), truth);
    }

    #[test]
    fn icount_tool_counts_every_instruction() {
        let mut engine = Engine::new(process_for(LOOP_100), ICount1::default());
        engine.run_to_exit().expect("run");
        // The tool's before-calls fire for syscall instructions too, so
        // the tool count equals the process's dynamic count.
        assert_eq!(engine.tool().count, engine.process().inst_count());
        assert_eq!(engine.process().inst_count(), 204);
    }

    #[test]
    fn jit_compiles_each_trace_once() {
        let mut engine = Engine::new(process_for(LOOP_100), NullTool);
        engine.run_to_exit().expect("run");
        let cache = engine.cache_stats();
        // Loop body trace compiled once, re-dispatched ~100 times.
        assert!(
            cache.traces_compiled <= 4,
            "traces {}",
            cache.traces_compiled
        );
        assert!(engine.stats().traces_executed >= 99);
        assert!(cache.hits >= 95, "hits {}", cache.hits);
    }

    #[test]
    fn budget_pauses_and_resumes_consistently() {
        let mut engine = Engine::new(process_for(LOOP_100), ICount1::default());
        let mut stops = 0;
        loop {
            let result = engine.run(5_000).expect("run");
            match result.stop {
                EngineStop::BudgetExhausted => stops += 1,
                EngineStop::SyscallEntry => {
                    let (record, _) = engine.service_syscall(0).expect("svc");
                    if record.exited.is_some() {
                        break;
                    }
                }
                EngineStop::Exited(_) => break,
                other => panic!("unexpected stop {other:?}"),
            }
            assert!(stops < 10_000, "no forward progress");
        }
        assert_eq!(engine.tool().count, 204);
    }

    #[test]
    fn cycle_breakdown_components_are_populated() {
        let mut engine = Engine::new(process_for(LOOP_100), ICount1::default());
        engine.run_to_exit().expect("run");
        let cycles = engine.stats().cycles;
        assert!(cycles.app > 0);
        assert!(cycles.analysis > 0);
        assert!(cycles.jit > 0);
        assert!(cycles.dispatch > 0);
        assert!(cycles.syscall > 0);
        assert_eq!(
            cycles.total(),
            cycles.app + cycles.analysis + cycles.jit + cycles.dispatch + cycles.syscall
        );
    }

    #[test]
    fn icount1_slowdown_in_paper_band() {
        // Steady-state slowdown vs native for a long loop must land in
        // the 8–16× band around the paper's 12× average (Fig. 3).
        let src = "main:\n li r1, 200000\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";
        let mut native = process_for(src);
        native.run(u64::MAX, 0).expect("native");
        let native_cycles = native.inst_count(); // native_cpi == 1

        let mut engine = Engine::new(process_for(src), ICount1::default());
        let (_, cycles) = engine.run_to_exit().expect("run");
        let slowdown = cycles as f64 / native_cycles as f64;
        assert!(
            (8.0..=16.0).contains(&slowdown),
            "icount1 slowdown {slowdown:.1} outside paper band"
        );
    }

    #[derive(Clone, Default)]
    struct StopAtThird {
        seen: u64,
    }

    impl Pintool for StopAtThird {
        fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
            for iref in trace.insts() {
                inserter.insert_call(
                    iref.addr,
                    IPoint::Before,
                    |tool, _, ctl| {
                        tool.seen += 1;
                        if tool.seen == 3 {
                            ctl.request_stop();
                        }
                    },
                    vec![],
                );
            }
        }
    }

    #[test]
    fn tool_stop_parks_before_instruction() {
        let mut engine = Engine::new(process_for(LOOP_100), StopAtThird::default());
        let result = engine.run(u64::MAX / 4).expect("run");
        assert_eq!(result.stop, EngineStop::ToolStop);
        // Two instructions executed; the third is pending.
        assert_eq!(engine.process().inst_count(), 2);
        // Resuming re-instruments from the parked pc and continues.
        let result = engine.run(u64::MAX / 4).expect("run");
        // Tool keeps requesting at seen==3 only once; run continues to
        // the exit syscall.
        assert_eq!(result.stop, EngineStop::SyscallEntry);
    }

    #[test]
    fn shared_trace_index_discounts_recompilation() {
        let index = Arc::new(SharedTraceIndex::new());

        let mut first = Engine::new(process_for(LOOP_100), NullTool);
        first.set_shared_trace_index(Arc::clone(&index));
        first.run_to_exit().expect("first");
        assert_eq!(first.stats().shared_cache_adoptions, 0);
        assert!(first.stats().shared_cache_misses > 0, "first claims traces");
        let full_jit = first.stats().cycles.jit;
        assert!(!index.is_empty());

        let mut second = Engine::new(process_for(LOOP_100), NullTool);
        second.set_shared_trace_index(Arc::clone(&index));
        second.run_to_exit().expect("second");
        let stats = second.stats();
        assert!(stats.shared_cache_adoptions > 0, "second engine must adopt");
        assert_eq!(stats.shared_cache_misses, 0, "nothing new to claim");
        assert!(
            stats.cycles.jit * 4 < full_jit,
            "adopted compilation {} should be far below full {}",
            stats.cycles.jit,
            full_jit
        );

        // Without the index, the second engine pays full price again.
        let mut solo = Engine::new(process_for(LOOP_100), NullTool);
        solo.run_to_exit().expect("solo");
        assert_eq!(solo.stats().cycles.jit, full_jit);
    }

    #[test]
    fn epoch_snapshot_mode_matches_live_accounting() {
        // Live mode, serial: first engine pays full, second adopts all.
        let live_index = Arc::new(SharedTraceIndex::new());
        let mut live_first = Engine::new(process_for(LOOP_100), NullTool);
        live_first.set_shared_trace_index(Arc::clone(&live_index));
        live_first.run_to_exit().expect("live first");
        let mut live_second = Engine::new(process_for(LOOP_100), NullTool);
        live_second.set_shared_trace_index(Arc::clone(&live_index));
        live_second.run_to_exit().expect("live second");

        // Epoch mode with a barrier between the two engines must produce
        // the same stats: engine one runs against an empty snapshot, its
        // fresh traces are published, engine two snapshots and adopts.
        let epoch_index = SharedTraceIndex::new();
        let mut epoch_first = Engine::new(process_for(LOOP_100), NullTool);
        epoch_first.enter_shared_epoch(epoch_index.snapshot());
        epoch_first.run_to_exit().expect("epoch first");
        let fresh = epoch_first.take_fresh_traces();
        assert!(!fresh.is_empty());
        epoch_index.publish(fresh);
        let mut epoch_second = Engine::new(process_for(LOOP_100), NullTool);
        epoch_second.enter_shared_epoch(epoch_index.snapshot());
        epoch_second.run_to_exit().expect("epoch second");
        assert!(epoch_second.take_fresh_traces().is_empty());

        assert_eq!(epoch_first.stats(), live_first.stats());
        let live = live_second.stats();
        let epoch = epoch_second.stats();
        assert_eq!(epoch.cycles, live.cycles);
        assert_eq!(epoch.shared_cache_adoptions, live.shared_cache_adoptions);
        assert_eq!(epoch.shared_cache_misses, 0);
        // Epoch mode never touches the live index mid-run.
        assert_eq!(epoch.shared_cache_contention, 0);
    }

    #[test]
    fn branch_taken_arg() {
        #[derive(Clone, Default)]
        struct TakenWatch {
            taken: u64,
            not_taken: u64,
        }
        impl Pintool for TakenWatch {
            fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
                for iref in trace.insts() {
                    if matches!(iref.inst, Inst::Branch { .. }) {
                        inserter.insert_call(
                            iref.addr,
                            IPoint::After,
                            |tool, ctx, _| {
                                if ctx.arg(0) == 1 {
                                    tool.taken += 1;
                                } else {
                                    tool.not_taken += 1;
                                }
                            },
                            vec![IArg::BranchTaken],
                        );
                    }
                }
            }
        }
        let mut engine = Engine::new(process_for(LOOP_100), TakenWatch::default());
        engine.run_to_exit().expect("run");
        assert_eq!(engine.tool().taken, 99);
        assert_eq!(engine.tool().not_taken, 1);
    }
}
