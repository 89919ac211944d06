//! The code cache: compiled, instrumented traces keyed by entry address.

use crate::cost::CostModel;
use crate::inserter::{Call, IArg, IPoint, Inserter};
use crate::spill::{required_saves, ClobberViolation};
use crate::trace::Trace;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use superpin_analysis::{LiveMap, RegSet};
use superpin_isa::{Inst, Reg};

/// Hasher for trace-entry keys. Entries are guest addresses — already
/// well distributed — so the default SipHash's per-lookup cost (it
/// dominates a hot dispatch loop) buys nothing; a single multiply-xor
/// finalizer (splitmix64's) is sufficient and an order of magnitude
/// cheaper.
#[derive(Default)]
struct EntryHasher(u64);

impl Hasher for EntryHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the cache, but required).
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mut v = value.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        v ^= v >> 32;
        self.0 = v;
    }
}

type EntryMap<V> = HashMap<u64, V, BuildHasherDefault<EntryHasher>>;

/// Default cache capacity in cached instructions. Workloads whose hot
/// footprint exceeds this (the paper repeatedly calls out gcc's "large
/// code footprint") take wholesale flushes and recompile, raising their
/// compilation overhead exactly as in the paper.
pub const DEFAULT_CAPACITY_INSTS: usize = 65_536;

/// One analysis call as compiled into the cache: the tool's routine plus
/// the register save/restore plan the compiler chose for it.
pub struct InsertedCall<T> {
    /// The analysis call.
    pub call: Call<T>,
    /// Clobbered registers bracketed with a save/restore around this
    /// call. Without liveness information this is the full clobber set
    /// ([`crate::spill::analysis_clobbers`]); with a
    /// [`LiveMap`] installed, registers dead at the insertion point are
    /// elided.
    pub saves: RegSet,
}

impl<T> fmt::Debug for InsertedCall<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InsertedCall")
            .field("call", &self.call)
            .field("saves", &self.saves)
            .finish()
    }
}

/// One instruction of a compiled trace with its attached analysis calls.
pub struct CompiledInst<T> {
    /// Guest address.
    pub addr: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// Encoded size in bytes.
    pub size: u64,
    /// Calls to run before the instruction.
    pub before: Vec<InsertedCall<T>>,
    /// Calls to run after the instruction.
    pub after: Vec<InsertedCall<T>>,
    /// Whether any attached call takes [`IArg::MemAddr`] or
    /// [`IArg::MemSize`] — precomputed so the executor only derives the
    /// effective address for slots that can observe it.
    pub needs_mem_ea: bool,
}

impl<T> fmt::Debug for CompiledInst<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledInst")
            .field("addr", &format_args!("{:#x}", self.addr))
            .field("inst", &self.inst)
            .field("before", &self.before.len())
            .field("after", &self.after.len())
            .finish()
    }
}

/// A compiled trace ready for execution.
pub struct CompiledTrace<T> {
    /// Entry address (cache key).
    pub entry: u64,
    /// The trace's instructions with instrumentation attached.
    pub insts: Vec<CompiledInst<T>>,
    /// Continuation address if the last instruction falls through.
    pub fallthrough: u64,
    /// Number of basic blocks the source trace had.
    pub num_bbls: usize,
    /// Superinstruction fusion metadata, present only when every
    /// attached call is fusible (see [`FusedMeta`]). Purely a host-side
    /// accelerator: the fused executor charges exactly the cycles the
    /// slow path would.
    pub fused: Option<FusedMeta>,
}

/// One analysis call pre-lowered for the fused executor: its full static
/// charge and its argument values, both computed once at fuse time
/// instead of once per execution.
#[derive(Clone, Debug)]
pub struct FusedCall {
    /// `analysis_call_base + |saves| · save_restore_per_reg +
    /// |args| · analysis_arg` — the slow path's charge for this call
    /// before any tool-requested extra cycles.
    pub static_cost: u64,
    /// Pre-evaluated argument values. Fusion requires every argument to
    /// be static (known at compile time), so this is the exact vector
    /// the slow path's `eval_args` would build.
    pub args: Box<[u64]>,
}

/// One trace instruction's fused call lists (parallel to
/// [`CompiledInst::before`] / [`CompiledInst::after`]).
#[derive(Clone, Debug, Default)]
pub struct FusedSlot {
    /// Pre-lowered before-calls, in insertion order.
    pub before: Box<[FusedCall]>,
    /// Pre-lowered after-calls, in insertion order.
    pub after: Box<[FusedCall]>,
}

/// Superinstruction fusion: per-instruction tool-callback costs and cost
/// accounting batched into pre-computed per-slot constants, so a trace
/// executes as one tight dispatch over pre-lowered slots (cycle charges
/// and argument vectors summed/evaluated at fuse time) instead of
/// re-deriving each call's cost and arguments per execution.
///
/// The engine attempts fusion on every compile. It only succeeds when
/// every call is `Plain` with all-static arguments; anything else
/// (if-then calls, dynamic arguments such as `MemAddr` on a load/store
/// or `BranchTaken` on an after-call) leaves `fused` as `None` and the
/// trace on the slow path. The signature check at dispatch
/// (`slots.len() == insts.len()`) guards the fused executor; any
/// mismatch falls back to the slow path.
#[derive(Clone, Debug)]
pub struct FusedMeta {
    /// Per-instruction fused call lists, parallel to the trace's
    /// `insts` — the length equality is the dispatch signature check.
    pub slots: Box<[FusedSlot]>,
    /// `cached_cpi` at fuse time (per retired instruction).
    pub cached_cpi: u64,
}

/// The value of `arg` when it is statically known at `(addr, inst,
/// size, point)`, mirroring the engine's dynamic `eval_args` exactly.
/// `None` means the argument depends on execution state (registers,
/// effective addresses, branch outcomes) and disqualifies fusion.
fn static_arg_value(arg: &IArg, addr: u64, inst: Inst, size: u64, point: IPoint) -> Option<u64> {
    match *arg {
        IArg::InstPtr => Some(addr),
        IArg::UInt(value) => Some(value),
        // Non-memory instructions evaluate MemAddr/MemSize to 0.
        IArg::MemAddr => {
            if inst.is_mem_read() || inst.is_mem_write() {
                None
            } else {
                Some(0)
            }
        }
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

impl<T> fmt::Debug for CompiledTrace<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledTrace")
            .field("entry", &format_args!("{:#x}", self.entry))
            .field("insts", &self.insts.len())
            .field("num_bbls", &self.num_bbls)
            .finish()
    }
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Trace lookups.
    pub lookups: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Traces compiled (== misses).
    pub traces_compiled: u64,
    /// Instructions compiled across all traces.
    pub insts_compiled: u64,
    /// Wholesale cache flushes due to capacity pressure.
    pub flushes: u64,
    /// Flushes forced by self-modifying code (a guest write into its own
    /// code region invalidates all translations).
    pub smc_flushes: u64,
}

/// The code cache. Starts *cold*: every SuperPin slice gets a fresh one,
/// which is the source of the paper's per-slice "compilation slowdown"
/// (§6.3: "each slice has its own copy of the code cache, and it starts
/// in a clean state").
///
/// `Clone` shares the compiled traces (they are immutable behind `Arc`s)
/// and copies the counters — exactly what a slice checkpoint needs.
#[derive(Clone)]
pub struct CodeCache<T> {
    traces: EntryMap<Arc<CompiledTrace<T>>>,
    /// Memo of the most recent hit: hot loops re-enter the same trace
    /// back to back, so this answers most lookups without touching the
    /// map. Invalidated by every flush/evict/compile. The memoized hit
    /// still counts in [`CacheStats`] exactly like a map hit.
    last: Option<(u64, Arc<CompiledTrace<T>>)>,
    resident_insts: usize,
    capacity_insts: usize,
    stats: CacheStats,
    /// Static liveness used to elide save/restores of dead registers
    /// around analysis calls; `None` saves the full clobber set.
    liveness: Option<Arc<LiveMap>>,
    /// Test hook: a register deliberately omitted from every planned
    /// save set, so the clobber-safety verifier has a bug to catch.
    clobber_bug: Option<Reg>,
    /// Clobber-safety violations found while compiling (populated in
    /// debug/test builds only).
    violations: Vec<ClobberViolation>,
}

impl<T> fmt::Debug for CodeCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeCache")
            .field("traces", &self.traces.len())
            .field("resident_insts", &self.resident_insts)
            .field("capacity_insts", &self.capacity_insts)
            .finish()
    }
}

impl<T> Default for CodeCache<T> {
    fn default() -> CodeCache<T> {
        CodeCache::new()
    }
}

impl<T> CodeCache<T> {
    /// An empty cache with the default capacity.
    pub fn new() -> CodeCache<T> {
        CodeCache::with_capacity(DEFAULT_CAPACITY_INSTS)
    }

    /// An empty cache bounded at `capacity_insts` cached instructions.
    pub fn with_capacity(capacity_insts: usize) -> CodeCache<T> {
        CodeCache {
            traces: EntryMap::default(),
            last: None,
            resident_insts: 0,
            capacity_insts: capacity_insts.max(1),
            stats: CacheStats::default(),
            liveness: None,
            clobber_bug: None,
            violations: Vec::new(),
        }
    }

    /// Installs static liveness for the guest program. Subsequent
    /// compilations elide save/restores of registers proven dead at each
    /// insertion point. Must be installed while the cache is cold (or
    /// after a flush): already-compiled traces keep their conservative
    /// save sets.
    pub fn set_liveness(&mut self, liveness: Arc<LiveMap>) {
        self.liveness = Some(liveness);
    }

    /// Test hook: omit `reg` from every save set the compiler plans, so
    /// the debug-build clobber-safety verifier has a deliberate bug to
    /// catch. Never use outside negative tests.
    pub fn inject_clobber_bug(&mut self, reg: Reg) {
        self.clobber_bug = Some(reg);
    }

    /// Clobber-safety violations found while compiling. Verification
    /// runs in debug/test builds (`debug_assertions`); release builds
    /// always report an empty list.
    pub fn clobber_violations(&self) -> &[ClobberViolation] {
        &self.violations
    }

    /// Whether a deliberate clobber bug is armed
    /// ([`inject_clobber_bug`](CodeCache::inject_clobber_bug)). A bugged
    /// cache compiles differently from its peers, so its traces must not
    /// be shared across engines.
    pub fn has_clobber_bug(&self) -> bool {
        self.clobber_bug.is_some()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Drops every cached trace (self-modifying code detected).
    pub fn flush_for_smc(&mut self) {
        self.traces.clear();
        self.last = None;
        self.resident_insts = 0;
        self.stats.smc_flushes += 1;
    }

    /// Instructions currently resident in compiled traces — the
    /// simulated footprint the memory governor charges for this cache.
    pub fn resident_insts(&self) -> usize {
        self.resident_insts
    }

    /// Drops every cached trace under memory pressure (the governor's
    /// cache-eviction rung), returning the instructions freed. Counted as
    /// a capacity flush in [`CacheStats::flushes`]; an already-empty
    /// cache is left untouched and returns 0.
    pub fn evict_for_pressure(&mut self) -> usize {
        let freed = self.resident_insts;
        if freed == 0 {
            return 0;
        }
        self.traces.clear();
        self.last = None;
        self.resident_insts = 0;
        self.stats.flushes += 1;
        freed
    }

    /// Looks up the compiled trace entered at `entry`.
    #[inline]
    pub fn lookup(&mut self, entry: u64) -> Option<Arc<CompiledTrace<T>>> {
        self.stats.lookups += 1;
        if let Some((memo_entry, memo)) = &self.last {
            if *memo_entry == entry {
                self.stats.hits += 1;
                return Some(Arc::clone(memo));
            }
        }
        let hit = self.traces.get(&entry).cloned();
        if let Some(trace) = &hit {
            self.stats.hits += 1;
            self.last = Some((entry, Arc::clone(trace)));
        }
        hit
    }

    /// Compiles a discovered trace plus the tool's collected
    /// instrumentation and inserts it. Returns the compiled trace and the
    /// number of instructions compiled (for JIT cost accounting).
    ///
    /// With `fuse` set (the engine passes its cost model on every
    /// compile), the compiler additionally tries to
    /// fuse the trace into a superinstruction ([`FusedMeta`]): per-call
    /// charges and static argument vectors are pre-computed here so the
    /// fused executor dispatches the whole trace without re-deriving
    /// them. Ineligible traces (if-then calls, dynamic arguments) simply
    /// get `fused: None`.
    ///
    /// If inserting would exceed capacity, the whole cache is flushed
    /// first (Pin's wholesale-flush policy).
    pub fn compile(
        &mut self,
        trace: &Trace,
        inserter: Inserter<T>,
        fuse: Option<&CostModel>,
    ) -> (Arc<CompiledTrace<T>>, usize)
    where
        T: 'static,
    {
        let mut insts: Vec<CompiledInst<T>> = trace
            .insts()
            .map(|iref| CompiledInst {
                addr: iref.addr,
                inst: iref.inst,
                size: iref.size,
                before: Vec::new(),
                after: Vec::new(),
                needs_mem_ea: false,
            })
            .collect();

        for (addr, point, call) in inserter.into_calls() {
            if let Some(slot) = insts.iter_mut().find(|slot| slot.addr == addr) {
                // Live registers at the insertion point: before-calls see
                // the instruction's own reads as live; after-calls see
                // its live-out set. Unknown liveness saves everything.
                let live = match &self.liveness {
                    None => RegSet::ALL,
                    Some(map) => match point {
                        IPoint::Before => map.live_before(addr),
                        IPoint::After => map.live_after(addr),
                    },
                };
                let mut saves = required_saves(live);
                if let Some(bug) = self.clobber_bug {
                    saves.remove(bug);
                }
                slot.needs_mem_ea |= call_needs_mem_ea(&call);
                let list = match point {
                    IPoint::Before => &mut slot.before,
                    IPoint::After => &mut slot.after,
                };
                if cfg!(debug_assertions) {
                    // Clobber-safety verifier: every planned save set
                    // must cover the live clobbered registers.
                    let missing = required_saves(live).minus(saves);
                    if !missing.is_empty() {
                        self.violations.push(ClobberViolation {
                            addr,
                            point,
                            call_index: list.len(),
                            missing,
                            live,
                        });
                    }
                }
                list.push(InsertedCall { call, saves });
            }
            // Calls aimed at addresses outside the trace are dropped,
            // mirroring Pin: instrumentation only applies to the trace
            // being compiled.
        }

        let fused = fuse.and_then(|cost| {
            let mut slots = Vec::with_capacity(insts.len());
            for slot in &insts {
                slots.push(FusedSlot {
                    before: fuse_calls(&slot.before, slot, IPoint::Before, cost)?,
                    after: fuse_calls(&slot.after, slot, IPoint::After, cost)?,
                });
            }
            Some(FusedMeta {
                slots: slots.into_boxed_slice(),
                cached_cpi: cost.cached_cpi,
            })
        });

        let count = insts.len();
        // Recompiling an entry (e.g. after a mid-trace resume) replaces
        // the old trace; release its accounting first.
        if let Some(old) = self.traces.remove(&trace.entry()) {
            self.resident_insts -= old.insts.len();
        }
        if self.resident_insts + count > self.capacity_insts {
            self.traces.clear();
            self.last = None;
            self.resident_insts = 0;
            self.stats.flushes += 1;
        }

        let compiled = Arc::new(CompiledTrace {
            entry: trace.entry(),
            insts,
            fallthrough: trace.fallthrough(),
            num_bbls: trace.bbls().len(),
            fused,
        });
        self.traces.insert(trace.entry(), Arc::clone(&compiled));
        self.last = Some((trace.entry(), Arc::clone(&compiled)));
        self.resident_insts += count;
        self.stats.traces_compiled += 1;
        self.stats.insts_compiled += count as u64;
        (compiled, count)
    }

    /// Adopts a trace compiled by a peer engine (host-side template
    /// sharing), skipping the instrument+build work but performing the
    /// *same* cache bookkeeping as [`compile`](CodeCache::compile) —
    /// capacity flush, residency, compile statistics — so every
    /// simulated observable is identical to having compiled it here.
    /// Returns the instruction count for JIT cost accounting.
    ///
    /// The caller must have verified that compiling locally would have
    /// produced this exact trace (same instructions, pure shareable
    /// instrumentation, no clobber bug armed).
    pub fn adopt(&mut self, template: &Arc<CompiledTrace<T>>) -> usize {
        let count = template.insts.len();
        if let Some(old) = self.traces.remove(&template.entry) {
            self.resident_insts -= old.insts.len();
        }
        if self.resident_insts + count > self.capacity_insts {
            self.traces.clear();
            self.last = None;
            self.resident_insts = 0;
            self.stats.flushes += 1;
        }
        self.traces.insert(template.entry, Arc::clone(template));
        self.last = Some((template.entry, Arc::clone(template)));
        self.resident_insts += count;
        self.stats.traces_compiled += 1;
        self.stats.insts_compiled += count as u64;
        count
    }
}

/// Whether a call requests the effective address or access size, i.e.
/// whether the executor must derive `mem_ea` for the call's slot.
fn call_needs_mem_ea<T>(call: &Call<T>) -> bool {
    let wants = |args: &[IArg]| {
        args.iter()
            .any(|arg| matches!(arg, IArg::MemAddr | IArg::MemSize))
    };
    match call {
        Call::Plain { args, .. } => wants(args),
        Call::IfThen {
            pred_args,
            then_args,
            ..
        } => wants(pred_args) || wants(then_args),
    }
}

/// Pre-lowers one call list for the fused executor, or `None` if any
/// call is ineligible (non-`Plain`, or any dynamic argument).
fn fuse_calls<T>(
    calls: &[InsertedCall<T>],
    slot: &CompiledInst<T>,
    point: IPoint,
    cost: &CostModel,
) -> Option<Box<[FusedCall]>> {
    let mut out = Vec::with_capacity(calls.len());
    for inserted in calls {
        let Call::Plain { args, .. } = &inserted.call else {
            return None;
        };
        let mut values = Vec::with_capacity(args.len());
        for arg in args {
            values.push(static_arg_value(
                arg, slot.addr, slot.inst, slot.size, point,
            )?);
        }
        let static_cost = cost.analysis_call_base
            + inserted.saves.len() as u64 * cost.save_restore_per_reg
            + args.len() as u64 * cost.analysis_arg;
        out.push(FusedCall {
            static_cost,
            args: values.into_boxed_slice(),
        });
    }
    Some(out.into_boxed_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inserter::IPoint;
    use crate::trace::discover_trace;
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    fn trace_for(src: &str) -> Trace {
        let program = assemble(src).expect("assemble");
        let process = Process::load(1, &program).expect("load");
        discover_trace(&process.mem, program.entry()).expect("trace")
    }

    #[test]
    fn compile_attaches_calls_to_addresses() {
        let trace = trace_for("main:\n nop\n nop\n jmp main\n");
        let mut inserter: Inserter<u64> = Inserter::new();
        let second = trace.entry() + 8;
        inserter.insert_call(second, IPoint::Before, |t, _, _| *t += 1, vec![]);
        inserter.insert_call(second, IPoint::After, |t, _, _| *t += 1, vec![]);
        // Out-of-trace address: dropped.
        inserter.insert_call(0xdead, IPoint::Before, |t, _, _| *t += 1, vec![]);

        let mut cache: CodeCache<u64> = CodeCache::new();
        let (compiled, count) = cache.compile(&trace, inserter, None);
        assert_eq!(count, 3);
        assert_eq!(compiled.insts[1].before.len(), 1);
        assert_eq!(compiled.insts[1].after.len(), 1);
        assert_eq!(compiled.insts[0].before.len(), 0);
    }

    #[test]
    fn lookup_hits_after_compile() {
        let trace = trace_for("main:\n jmp main\n");
        let mut cache: CodeCache<u64> = CodeCache::new();
        assert!(cache.lookup(trace.entry()).is_none());
        cache.compile(&trace, Inserter::new(), None);
        assert!(cache.lookup(trace.entry()).is_some());
        let stats = cache.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.traces_compiled, 1);
    }

    #[test]
    fn capacity_pressure_flushes_wholesale() {
        // Two traces at distinct entries within one program.
        let src = "main:\n nop\n nop\n nop\n jmp second\nsecond:\n nop\n jmp main\n";
        let program = assemble(src).expect("assemble");
        let process = Process::load(1, &program).expect("load");
        let t1 = discover_trace(&process.mem, program.entry()).expect("t1"); // 4 insts
        let t2 = discover_trace(&process.mem, program.entry() + 32).expect("t2"); // 2 insts

        let mut cache: CodeCache<u64> = CodeCache::with_capacity(6);
        cache.compile(&t1, Inserter::new(), None); // 4 resident
        cache.compile(&t2, Inserter::new(), None); // 6 resident
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().flushes, 0);
        // Recompiling t1 releases its 4 first (6-4+4 = 6 fits, no flush)...
        cache.compile(&t1, Inserter::new(), None);
        assert_eq!(cache.stats().flushes, 0);
        assert_eq!(cache.len(), 2);
        // ...but a brand-new 4-inst trace exceeds capacity → flush.
        let t3 = discover_trace(&process.mem, program.entry() + 8).expect("t3");
        assert_eq!(t3.num_insts(), 3);
        cache.compile(&t3, Inserter::new(), None);
        assert_eq!(cache.stats().flushes, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fallthrough_and_bbl_metadata() {
        let trace = trace_for("main:\n beq r1, r2, main\n nop\n jmp main\n");
        let mut cache: CodeCache<u64> = CodeCache::new();
        let (compiled, _) = cache.compile(&trace, Inserter::new(), None);
        assert_eq!(compiled.num_bbls, 2);
        assert_eq!(compiled.fallthrough, trace.fallthrough());
    }
}
