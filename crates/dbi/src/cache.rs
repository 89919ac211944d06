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

/// One analysis call as compiled into the cache: the tool's routine, the
/// register save/restore plan the compiler chose for it, and its static
/// charge and argument values, lowered once at compile time (Pin's
/// `INS_InsertCall` analysis calls are likewise bound when the trace is
/// compiled, not per execution).
pub struct InsertedCall<T> {
    /// The analysis call.
    pub call: Call<T>,
    /// Clobbered registers bracketed with a save/restore around this
    /// call. Without liveness information this is the full clobber set
    /// ([`crate::spill::analysis_clobbers`]); with a
    /// [`LiveMap`] installed, registers dead at the insertion point are
    /// elided.
    pub saves: RegSet,
    /// Static charge. `Plain`: `analysis_call_base + |saves| ·
    /// save_restore_per_reg + |args| · analysis_arg`. `IfThen`: the
    /// inlined check, `inline_if_check + |pred_args| · analysis_arg`.
    /// Tool-requested extra cycles are added per execution.
    pub(crate) cost: u64,
    /// `IfThen` only: the then-call's static charge, paid when the
    /// predicate holds: `analysis_call_base + |saves| ·
    /// save_restore_per_reg + |then_args| · analysis_arg`. 0 for `Plain`.
    pub(crate) then_cost: u64,
    /// The values of `args` (`Plain`) or `pred_args` (`IfThen`) when
    /// every one is known at compile time — instruction pointer,
    /// constant, access size, `MemAddr` off memory, before-call
    /// `BranchTaken`, fall-through address; `None` makes the engine
    /// evaluate the list on every execution.
    pub args: Option<Box<[u64]>>,
    /// `IfThen` only: the values of `then_args` when every one is static.
    pub then_args: Option<Box<[u64]>>,
}

impl<T> fmt::Debug for InsertedCall<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InsertedCall")
            .field("call", &self.call)
            .field("saves", &self.saves)
            .field("cost", &self.cost)
            .field("then_cost", &self.then_cost)
            .field("args", &self.args)
            .field("then_args", &self.then_args)
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
    /// Every call is lowered under `cost` here: its static charge and,
    /// when all its arguments are static, their values (see
    /// [`InsertedCall`]), so executing the trace re-derives neither.
    ///
    /// If inserting would exceed capacity, the whole cache is flushed
    /// first (Pin's wholesale-flush policy).
    pub fn compile(
        &mut self,
        trace: &Trace,
        inserter: Inserter<T>,
        cost: &CostModel,
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
                let inserted = lower(call, saves, slot, point, cost);
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
                list.push(inserted);
            }
            // Calls aimed at addresses outside the trace are dropped,
            // mirroring Pin: instrumentation only applies to the trace
            // being compiled.
        }
        // Compiled traces stay resident (and are shared across slices):
        // drop the spare capacity `push` left behind.
        for slot in &mut insts {
            slot.before.shrink_to_fit();
            slot.after.shrink_to_fit();
        }

        let compiled = Arc::new(CompiledTrace {
            entry: trace.entry(),
            insts,
            fallthrough: trace.fallthrough(),
            num_bbls: trace.bbls().len(),
        });
        let count = self.adopt(&compiled);
        (compiled, count)
    }

    /// Adopts a trace compiled by a peer engine (host-side template
    /// sharing), skipping the instrument+build work but performing the
    /// cache bookkeeping of [`compile`](CodeCache::compile), which ends
    /// here too — capacity flush, residency, compile statistics — so
    /// every simulated observable is identical to having compiled it.
    /// Returns the instruction count for JIT cost accounting.
    ///
    /// The caller must have verified that compiling locally would have
    /// produced this exact trace (same instructions, pure shareable
    /// instrumentation, no clobber bug armed).
    pub fn adopt(&mut self, template: &Arc<CompiledTrace<T>>) -> usize {
        let count = template.insts.len();
        // Recompiling an entry (e.g. after a mid-trace resume) replaces
        // the old trace; release its accounting first.
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

/// Lowers `call`, attached at `point` to `slot` with save set `saves`,
/// into its compiled form under `cost`.
fn lower<T>(
    call: Call<T>,
    saves: RegSet,
    slot: &CompiledInst<T>,
    point: IPoint,
    cost: &CostModel,
) -> InsertedCall<T> {
    let values = |args: &[IArg]| -> Option<Box<[u64]>> {
        args.iter()
            .map(|arg| arg.static_value(slot.addr, slot.inst, slot.size, point))
            .collect()
    };
    let arg_cost = |args: &[IArg]| args.len() as u64 * cost.analysis_arg;
    // Call/return plus one save/restore per clobbered register the
    // compiler preserves; with no liveness installed this is the flat
    // `analysis_call`.
    let invoke = cost.analysis_call_base + saves.len() as u64 * cost.save_restore_per_reg;
    let (own, then_cost, args, then_args) = match &call {
        Call::Plain { args, .. } => (invoke + arg_cost(args), 0, values(args), None),
        Call::IfThen {
            pred_args,
            then_args,
            ..
        } => (
            cost.inline_if_check + arg_cost(pred_args),
            invoke + arg_cost(then_args),
            values(pred_args),
            values(then_args),
        ),
    };
    InsertedCall {
        call,
        saves,
        cost: own,
        then_cost,
        args,
        then_args,
    }
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
        let (compiled, count) = cache.compile(&trace, inserter, &CostModel::default());
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
        cache.compile(&trace, Inserter::new(), &CostModel::default());
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
        cache.compile(&t1, Inserter::new(), &CostModel::default()); // 4 resident
        cache.compile(&t2, Inserter::new(), &CostModel::default()); // 6 resident
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().flushes, 0);
        // Recompiling t1 releases its 4 first (6-4+4 = 6 fits, no flush)...
        cache.compile(&t1, Inserter::new(), &CostModel::default());
        assert_eq!(cache.stats().flushes, 0);
        assert_eq!(cache.len(), 2);
        // ...but a brand-new 4-inst trace exceeds capacity → flush.
        let t3 = discover_trace(&process.mem, program.entry() + 8).expect("t3");
        assert_eq!(t3.num_insts(), 3);
        cache.compile(&t3, Inserter::new(), &CostModel::default());
        assert_eq!(cache.stats().flushes, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fallthrough_and_bbl_metadata() {
        let trace = trace_for("main:\n beq r1, r2, main\n nop\n jmp main\n");
        let mut cache: CodeCache<u64> = CodeCache::new();
        let (compiled, _) = cache.compile(&trace, Inserter::new(), &CostModel::default());
        assert_eq!(compiled.num_bbls, 2);
        assert_eq!(compiled.fallthrough, trace.fallthrough());
    }
}
