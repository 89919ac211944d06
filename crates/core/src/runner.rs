//! The SuperPin runner: co-simulates the native master, the control
//! process, and every instrumented slice on the machine model.
//!
//! This is the top of the system — the analogue of running
//! `pin -sp 1 -t tool -- app` on the paper's 8-way Xeon. Virtual time
//! advances in quanta; the runnable tasks (master + running slices)
//! receive fair shares of the machine (`superpin-sched`), the master
//! runs natively under ptrace-style control, slices execute instrumented
//! code with record playback and signature detection, and completed
//! slices merge **in slice order** (paper §4.5).
//!
//! # Epochs and host parallelism
//!
//! Quanta are batched into **epochs** planned by
//! [`EpochPlanner`](superpin_sched::EpochPlanner): spans of quanta over
//! which the runnable set — and with it every per-quantum budget — is
//! frozen. Each epoch runs in three strictly ordered phases:
//!
//! 1. **Master first, serially.** The master advances quantum by quantum
//!    on the supervisor thread. A master event (forced syscall, exit)
//!    truncates the epoch at that quantum, so the following barrier
//!    lands exactly where the classic per-quantum loop would have
//!    reacted.
//! 2. **Slices, in parallel.** Every running slice receives the whole
//!    (possibly truncated) epoch's budget and advances independently —
//!    inline when `threads == 1`, fanned out over a
//!    `std::thread::scope` worker pool otherwise. Slices never touch
//!    the scheduler, the master, or each other, and shared-cache
//!    consistency uses per-epoch snapshots, so host interleaving cannot
//!    leak into any simulated quantity.
//! 3. **Barrier.** Virtual time jumps to the epoch end; freshly compiled
//!    traces are published into the sharded shared index *in slice
//!    order*; completed slices merge in slice order; forks happen.
//!
//! Because every scheduling decision is fixed before workers start and
//! every cross-slice effect is applied in slice order at the barrier,
//! the report is bit-identical for any `threads` value.

use crate::api::SuperTool;
use crate::bubble::Bubble;
use crate::config::SuperPinConfig;
use crate::error::SpError;
use crate::governor::{
    MemoryGovernor, ResidentLedger, COMPILED_INST_BYTES, FORK_COST_BYTES, SNAPSHOT_ENTRY_BYTES,
};
use crate::master::{MasterEvent, MasterRuntime};
use crate::record::{
    AdmissionDecision as Admission, NondetEvent, RunMode, RunProbe, RunRecorder, RunSource,
    SliceProbe,
};
use crate::report::{SliceReport, SuperPinReport, TimeBreakdown};
use crate::shared::SharedMem;
use crate::signature::{Signature, SignatureStats};
use crate::slice::{Boundary, SliceRuntime, SliceState, SpSliceTool};
use crate::supervisor::{SliceSupervisor, Verdict};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::Instant;
use superpin_dbi::SharedTraceIndex;
use superpin_fault::{FailpointRegistry, Site};
use superpin_sched::{EpochPlanner, QuantumScheduler, SliceEta, Timeline};
use superpin_vm::process::Process;
use superpin_vm::VmError;

/// Why the runner wants to fork while no slot is free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PendingFork {
    Timer,
    Syscall,
}

/// One epoch's worth of work for one **worker**: its whole share of the
/// runnable slices, dispatched by value in a single message. Slices are
/// moved out of the queue, advanced on the worker, and moved back into
/// their original positions at the barrier. Each job's `usize` is the
/// slice's position in the live queue, which both restores queue order
/// and picks the deterministic first error. Batching per worker (rather
/// than per slice) halves-to-quarters the channel traffic per epoch,
/// which is the dominant synchronization cost at fine epoch grain.
struct EpochBatch<T: SuperTool> {
    /// `(queue position, slice, per-quantum budget)` for each slice.
    jobs: Vec<(usize, SliceRuntime<T>, u64)>,
    quanta: u64,
    epoch_start: u64,
    quantum: u64,
    /// Deterministic key the worker feeds its
    /// [`Site::ParallelWorkerChannel`] failpoint before touching the
    /// batch (chaos mode only; a firing worker drops the batch and dies).
    chaos_key: u64,
}

type BatchDone<T> = Vec<(usize, SliceRuntime<T>, Result<(), SpError>)>;

/// Host-side (wall-clock) phase timing of one run, from
/// [`SuperPinRunner::run_profiled`].
///
/// Deliberately **not** part of [`SuperPinReport`]: host nanoseconds
/// vary run to run and machine to machine, while the report is
/// bit-identical across thread counts. The bench harness uses this
/// split to report how much of a run is parallelizable slice work —
/// and, on hosts with fewer cores than requested threads, to model the
/// speedup the epoch structure admits (Amdahl over the measured split).
#[derive(Clone, Copy, Debug, Default)]
pub struct HostProfile {
    /// Wall nanoseconds in the serial supervisor sections: control
    /// steps, planning, master quanta, and epoch barriers.
    pub supervisor_ns: u64,
    /// Wall nanoseconds in the slice phase (inline or fanned out).
    pub slice_ns: u64,
}

impl HostProfile {
    /// Total profiled wall nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.supervisor_ns + self.slice_ns
    }

    /// Fraction of the run spent in the (parallelizable) slice phase.
    pub fn slice_fraction(&self) -> f64 {
        self.slice_ns as f64 / (self.total_ns() as f64).max(1.0)
    }

    /// Amdahl projection from the measured split: the wall-clock speedup
    /// if the slice phase were spread over `threads` cores and the
    /// supervisor sections stayed serial.
    pub fn modeled_speedup(&self, threads: usize) -> f64 {
        let parallel = self.slice_ns as f64 / threads.max(1) as f64;
        self.total_ns() as f64 / (self.supervisor_ns as f64 + parallel).max(1.0)
    }
}

/// One persistent worker's endpoints. Each worker has its **own**
/// result channel: a dead worker then surfaces as a deterministic
/// `Disconnected` on its channel instead of a hang on a shared one, and
/// the supervisor knows exactly whose batch was lost.
struct WorkerLink<T: SuperTool> {
    sender: mpsc::Sender<EpochBatch<T>>,
    results: mpsc::Receiver<BatchDone<T>>,
    /// Cleared when the worker dies (channel failpoint or genuine
    /// panic); dead workers are skipped in all future epochs.
    alive: bool,
}

/// The slice-execution backend for one run. The pool variant holds
/// channels to workers spawned **once** for the whole run (inside
/// `run`'s `thread::scope`); per-epoch cost is one channel round trip
/// per busy worker, not a thread spawn.
enum WorkerPool<T: SuperTool> {
    /// `threads = 1`: advance slices inline on the supervisor thread.
    Inline,
    /// `threads > 1`: persistent scoped workers fed round-robin.
    Pool { workers: Vec<WorkerLink<T>> },
}

/// Drives one complete SuperPin run. See the crate docs for an example.
pub struct SuperPinRunner<T: SuperTool> {
    cfg: SuperPinConfig,
    scheduler: QuantumScheduler,
    planner: EpochPlanner,
    master: MasterRuntime,
    bubble: Bubble,
    tool_template: T,
    shared: SharedMem,
    /// Live slices in fork order (front = oldest unmerged).
    live: VecDeque<SliceRuntime<T>>,
    finished: Vec<SliceReport>,
    sig_stats: SignatureStats,
    now: u64,
    last_fork: u64,
    master_insts_at_last_fork: u64,
    master_debt: u64,
    master_timeline: Timeline,
    master_exit_cycles: Option<u64>,
    next_slice_num: u32,
    forks_on_timeout: u64,
    forks_on_syscall: u64,
    stall_events: u64,
    stalled: Option<PendingFork>,
    /// Shared compiled-trace index across slices (paper §8 extension).
    /// Slices consult per-epoch snapshots of it, never the live index.
    shared_traces: Option<Arc<SharedTraceIndex>>,
    epochs: u64,
    host_profile: HostProfile,
    /// Chaos failpoint registry (`--chaos-seed`); `None` costs nothing.
    fault: Option<Arc<FailpointRegistry>>,
    /// Checkpoint/retry supervisor; present when supervision is enabled
    /// explicitly or implied by an armed chaos plan.
    supervisor: Option<SliceSupervisor<T>>,
    /// Memory-pressure governor (`--mem-budget`); `None` costs nothing
    /// and leaves every report field identical to an ungoverned run.
    governor: Option<MemoryGovernor>,
    /// Entry count of the last shared-index snapshot handed to slices,
    /// charged against the budget at `SNAPSHOT_ENTRY_BYTES` each.
    last_snapshot_entries: u64,
    /// Incremental resident-byte ledger: per-slice footprints and the
    /// checkpoint/snapshot terms are posted where they change, so
    /// reading governed usage is O(1) in live slices instead of a
    /// from-scratch walk per decision point. Debug builds cross-check
    /// it against the full recompute at every read.
    ledger: ResidentLedger,
    /// Host-side compiled-trace templates shared by every slice engine
    /// (see [`superpin_dbi::engine::Engine::set_trace_templates`]).
    /// Purely a wall-clock accelerator — simulated reports are
    /// unchanged. Disabled under chaos: a clobber-bugged or
    /// fault-injected slice must compile exactly as it would alone.
    trace_templates: Option<superpin_dbi::engine::TraceTemplates<SpSliceTool<T>>>,
    /// Record/replay mode for the run's nondeterministic surface (see
    /// the [`record`](crate::record) module). `Live` costs nothing.
    mode: RunMode,
    /// Whether [`start`](SuperPinRunner::start) has forked the first
    /// slice yet (the steppable API is idempotent about it).
    started: bool,
}

impl<T: SuperTool> SuperPinRunner<T> {
    /// Prepares a run: reserves the memory bubble in the master and wires
    /// up the scheduler. The `process` must be freshly loaded (the first
    /// slice forks from its initial state).
    ///
    /// # Errors
    ///
    /// Returns [`SpError::Mem`] if the bubble range is occupied.
    pub fn new(
        process: Process,
        tool: T,
        shared: SharedMem,
        cfg: SuperPinConfig,
    ) -> Result<SuperPinRunner<T>, SpError> {
        let mut master_process = process;
        let bubble = Bubble::reserve(&mut master_process.mem)?;
        // The budget doubles as the guest kernel's per-process allocation
        // limit: brk/mmap past it return ENOMEM to the guest. Slices
        // inherit the limit through fork.
        master_process.mem.set_mem_limit(cfg.mem_budget);
        let governor = cfg.mem_budget.map(MemoryGovernor::new);
        let fault = cfg.chaos.map(|plan| Arc::new(FailpointRegistry::new(plan)));
        master_process.set_fault_registry(fault.clone());
        let supervisor = cfg
            .supervision_enabled()
            .then(|| SliceSupervisor::new(cfg.watchdog_factor, cfg.max_slice_retries));
        let scheduler = QuantumScheduler::new(cfg.machine, cfg.policy);
        let planner = EpochPlanner::new(cfg.epoch_max_quanta);
        let shared_traces = cfg
            .shared_code_cache
            .then(|| Arc::new(SharedTraceIndex::new()));
        Ok(SuperPinRunner {
            cfg,
            scheduler,
            planner,
            master: MasterRuntime::new(master_process),
            bubble,
            tool_template: tool,
            shared,
            live: VecDeque::new(),
            finished: Vec::new(),
            sig_stats: SignatureStats::default(),
            now: 0,
            last_fork: 0,
            master_insts_at_last_fork: 0,
            master_debt: 0,
            master_timeline: Timeline::new(),
            master_exit_cycles: None,
            next_slice_num: 1,
            forks_on_timeout: 0,
            forks_on_syscall: 0,
            stall_events: 0,
            stalled: None,
            shared_traces,
            epochs: 0,
            host_profile: HostProfile::default(),
            trace_templates: fault
                .is_none()
                .then(|| Arc::new(std::sync::Mutex::new(std::collections::HashMap::new()))),
            fault,
            supervisor,
            governor,
            last_snapshot_entries: 0,
            ledger: ResidentLedger::new(),
            mode: RunMode::Live,
            started: false,
        })
    }

    /// Arms record mode: every nondeterministic decision the run makes
    /// is streamed into `recorder`, in decision order.
    pub fn set_recorder(&mut self, recorder: Box<dyn RunRecorder>) {
        self.mode = RunMode::Record(recorder);
    }

    /// Arms replay mode: nondeterministic decisions are substituted from
    /// `source` instead of being made live. The runner must have been
    /// constructed from the recorded run's recipe (same program, tool,
    /// and config knobs); a mismatch surfaces as
    /// [`SpError::ReplayDivergence`].
    pub fn set_replay(&mut self, source: Box<dyn RunSource>) {
        self.mode = RunMode::Replay(source);
    }

    fn running_count(&self) -> usize {
        self.live
            .iter()
            .filter(|slice| slice.state() == SliceState::Running)
            .count()
    }

    /// A fork wakes the previously sleeping slice, so the running count
    /// grows by one; the limit is the `-spmp` maximum of running slices.
    fn can_fork(&self) -> bool {
        self.running_count() < self.cfg.max_slices
    }

    /// The governed resident-byte total: the master's full resident
    /// set, each live slice's private pages and code cache, retained
    /// supervisor checkpoints, the last shared-index snapshot, and the
    /// shared merge segment. Every term is simulated state.
    ///
    /// The slice/checkpoint/snapshot terms come from the incremental
    /// [`ResidentLedger`] (posted where they change), so this read is
    /// O(1) in live slices; master and shared are O(1)-cheap live
    /// reads. Debug builds cross-check the ledger against the
    /// from-scratch recompute, so any missed posting site fails loudly
    /// instead of drifting.
    fn resident_usage(&self) -> u64 {
        let usage = self.ledger.total_with(
            self.master.process().mem.resident_bytes(),
            self.shared.resident_bytes(),
        );
        debug_assert_eq!(
            usage,
            self.resident_usage_full(),
            "resident ledger drifted from the full recompute"
        );
        usage
    }

    /// The from-scratch O(live-slices) recompute of the governed total —
    /// the debug-build cross-check for the incremental ledger.
    fn resident_usage_full(&self) -> u64 {
        let mut usage = self.master.process().mem.resident_bytes();
        for slice in &self.live {
            usage += Self::slice_footprint(slice);
        }
        if let Some(sup) = &self.supervisor {
            usage += sup.retained_checkpoint_bytes();
        }
        usage += self.last_snapshot_entries * SNAPSHOT_ENTRY_BYTES;
        usage += self.shared.resident_bytes();
        usage
    }

    /// One slice's governed footprint: private resident pages plus its
    /// code cache at the flat per-instruction byte cost.
    fn slice_footprint(slice: &SliceRuntime<T>) -> u64 {
        slice.private_resident_bytes() + slice.cache_resident_insts() as u64 * COMPILED_INST_BYTES
    }

    /// Posts one slice's current footprint into the incremental ledger.
    fn post_slice_footprint(&mut self, num: u32) {
        if let Some(slice) = self.live.iter().find(|slice| slice.num() == num) {
            let bytes = Self::slice_footprint(slice);
            self.ledger.post_slice(num, bytes);
        }
    }

    /// Re-posts every live slice's footprint and the checkpoint term —
    /// the once-per-epoch settlement after the slice phase (footprints
    /// grow inside workers, where the ledger cannot be touched).
    fn settle_ledger(&mut self) {
        let postings: Vec<(u32, u64)> = self
            .live
            .iter()
            .map(|slice| (slice.num(), Self::slice_footprint(slice)))
            .collect();
        for (num, bytes) in postings {
            self.ledger.post_slice(num, bytes);
        }
        self.post_checkpoint_bytes();
    }

    /// Posts the supervisor's current retained-checkpoint total.
    fn post_checkpoint_bytes(&mut self) {
        let bytes = self
            .supervisor
            .as_ref()
            .map_or(0, SliceSupervisor::retained_checkpoint_bytes);
        self.ledger.post_checkpoints(bytes);
    }

    /// Samples the ledger into the governor's high-water mark. A no-op
    /// (not even a ledger walk) when no budget is set.
    fn observe_usage(&mut self) {
        if self.governor.is_some() {
            let usage = self.resident_usage();
            if let Some(gov) = self.governor.as_mut() {
                gov.observe(usage);
            }
        }
    }

    /// Bytes the next fork will charge up front: the flat fork cost
    /// plus — under supervision — the materialized checkpoint of the
    /// currently sleeping slice, which `guard` deep-copies the moment
    /// the fork wakes it.
    fn fork_estimate(&self) -> u64 {
        let checkpoint = if self.supervisor.is_some() {
            self.live
                .back()
                .filter(|prev| prev.state() == SliceState::Sleeping)
                .map_or(0, SliceRuntime::full_resident_bytes)
        } else {
            0
        };
        FORK_COST_BYTES + checkpoint
    }

    /// Memory-governed admission check for one fork: dispatches on the
    /// run mode. Without a governor every fork is a plain `Admit` and no
    /// event is recorded (an ungoverned run has no admission
    /// nondeterminism, so record and replay streams stay aligned).
    fn admission_check(&mut self) -> Result<Admission, SpError> {
        if self.governor.is_none() {
            return Ok(Admission::Admit);
        }
        if self.mode.is_replay() {
            return self.admission_replay();
        }
        let (decision, dropped, evicted) = self.admit_fork_live();
        if let RunMode::Record(recorder) = &mut self.mode {
            recorder.record(NondetEvent::Admission {
                decision,
                dropped,
                evicted,
            });
        }
        Ok(decision)
    }

    /// Replay-side admission: substitutes the recorded decision and
    /// re-applies the recorded eviction-ladder actions (checkpoint drops
    /// and cache flushes) with the same bookkeeping the live ladder
    /// performs, instead of re-walking the ladder.
    fn admission_replay(&mut self) -> Result<Admission, SpError> {
        let event = match &mut self.mode {
            RunMode::Replay(source) => source.next_event(),
            _ => unreachable!("checked by caller"),
        };
        let (decision, dropped, evicted) = match event {
            Some(NondetEvent::Admission {
                decision,
                dropped,
                evicted,
            }) => (decision, dropped, evicted),
            Some(other) => {
                return Err(SpError::ReplayDivergence {
                    context: "fork admission",
                    detail: format!(
                        "expected an admission record for slice {}, log has a {} event",
                        self.next_slice_num,
                        other.kind()
                    ),
                })
            }
            None => {
                return Err(SpError::ReplayDivergence {
                    context: "fork admission",
                    detail: format!("log exhausted at slice {} admission", self.next_slice_num),
                })
            }
        };
        let usage = self.resident_usage();
        let gov = self.governor.as_mut().expect("governor present");
        gov.observe(usage);
        for num in dropped {
            let Some(sup) = self.supervisor.as_mut() else {
                break;
            };
            if sup.drop_checkpoint(num) > 0 {
                self.governor
                    .as_mut()
                    .expect("governor present")
                    .note_checkpoint_dropped();
            }
        }
        self.post_checkpoint_bytes();
        for num in evicted {
            let Some(slice) = self.live.iter_mut().find(|slice| slice.num() == num) else {
                continue;
            };
            if slice.evict_code_cache() > 0 {
                if let Some(sup) = &mut self.supervisor {
                    sup.journal_evict(num);
                }
                self.governor
                    .as_mut()
                    .expect("governor present")
                    .note_cache_evicted();
                self.post_slice_footprint(num);
            }
        }
        let gov = self.governor.as_mut().expect("governor present");
        if decision == Admission::Defer {
            gov.note_deferral();
        } else {
            gov.end_deferral();
        }
        Ok(decision)
    }

    /// Live memory-governed admission check for one fork, walking the
    /// eviction ladder under pressure (see the `governor` module docs).
    /// Called only when a slot is free and a governor is armed.
    /// Deterministic: every input is simulated state and the check runs
    /// at control steps on the supervisor thread. Returns the decision
    /// plus the ladder's actions (checkpoints dropped, caches evicted)
    /// so record mode can log them.
    fn admit_fork_live(&mut self) -> (Admission, Vec<u32>, Vec<u32>) {
        let mut dropped_log: Vec<u32> = Vec::new();
        let mut evicted_log: Vec<u32> = Vec::new();
        let est = self.fork_estimate();
        let mut usage = self.resident_usage();
        let gov = self.governor.as_mut().expect("governor present");
        gov.observe(usage);
        if !gov.over_budget(usage, est) {
            gov.end_deferral();
            return (Admission::Admit, dropped_log, evicted_log);
        }
        // Rung 1: drop retained checkpoints of committed slices. A
        // `Done` slice is never condemned, so its checkpoint is pure
        // insurance the run no longer needs.
        let done: Vec<u32> = if self.supervisor.is_some() {
            self.live
                .iter()
                .filter(|slice| slice.state() == SliceState::Done)
                .map(SliceRuntime::num)
                .collect()
        } else {
            Vec::new()
        };
        for num in done {
            if !self
                .governor
                .as_ref()
                .expect("governor present")
                .over_budget(usage, est)
            {
                break;
            }
            let Some(sup) = self.supervisor.as_mut() else {
                break;
            };
            let freed = sup.drop_checkpoint(num);
            if freed > 0 {
                usage = usage.saturating_sub(freed);
                dropped_log.push(num);
                self.governor
                    .as_mut()
                    .expect("governor present")
                    .note_checkpoint_dropped();
                self.post_checkpoint_bytes();
            }
        }
        // Rung 2: flush cold code caches, coldest first (LRU by the
        // slice's last-active virtual time; slice number breaks ties).
        // Journaled so a condemned slice's rebuild replays the eviction
        // at the same point in its schedule.
        let mut cold: Vec<(u64, u32)> = self
            .live
            .iter()
            .filter(|slice| slice.cache_resident_insts() > 0)
            .map(|slice| (slice.last_active_cycles(), slice.num()))
            .collect();
        cold.sort_unstable();
        for (_, num) in cold {
            if !self
                .governor
                .as_ref()
                .expect("governor present")
                .over_budget(usage, est)
            {
                break;
            }
            let slice = self
                .live
                .iter_mut()
                .find(|slice| slice.num() == num)
                .expect("eviction candidate is live");
            let freed_insts = slice.evict_code_cache();
            if freed_insts > 0 {
                usage = usage.saturating_sub(freed_insts as u64 * COMPILED_INST_BYTES);
                evicted_log.push(num);
                if let Some(sup) = &mut self.supervisor {
                    sup.journal_evict(num);
                }
                self.governor
                    .as_mut()
                    .expect("governor present")
                    .note_cache_evicted();
                self.post_slice_footprint(num);
            }
        }
        let gov = self.governor.as_mut().expect("governor present");
        if !gov.over_budget(usage, est) {
            gov.end_deferral();
            return (Admission::Admit, dropped_log, evicted_log);
        }
        // Rung 3: still over budget. Defer while anything non-sleeping
        // can free memory by completing; otherwise deferring deadlocks
        // (the back slice only wakes at the next fork), so admit the
        // fork degraded to inline serial execution.
        let decision = if self
            .live
            .iter()
            .any(|slice| slice.state() != SliceState::Sleeping)
        {
            gov.note_deferral();
            Admission::Defer
        } else {
            gov.end_deferral();
            Admission::AdmitDegraded
        };
        (decision, dropped_log, evicted_log)
    }

    /// Forks a new slice from the master's current state and wakes the
    /// previous slice with `boundary` + the span's records.
    ///
    /// With chaos armed, the fork consults the `vm.fork.cow` failpoint;
    /// an injected failure is retried with a fresh key (the retry budget
    /// from `max_slice_retries`), then bypassed outright — fork faults
    /// are transient by definition, so the degraded path is simply an
    /// unchecked fork. The slice number is reserved before the first
    /// attempt, so retries never perturb slice numbering.
    fn fork_slice(&mut self, boundary: Option<Boundary>) -> Result<(), SpError> {
        let num = self.next_slice_num;
        let mut slice = if self.fault.is_some() {
            let mut attempt: u64 = 0;
            loop {
                if attempt > self.cfg.max_slice_retries as u64 {
                    break SliceRuntime::spawn(
                        num,
                        self.master.process(),
                        &self.tool_template,
                        &self.bubble,
                        &self.cfg,
                        self.now,
                    )?;
                }
                let key = ((num as u64) << 16) | attempt;
                match SliceRuntime::spawn_checked(
                    num,
                    self.master.process(),
                    &self.tool_template,
                    &self.bubble,
                    &self.cfg,
                    self.now,
                    key,
                ) {
                    Ok(slice) => break slice,
                    Err(SpError::Vm(VmError::FaultInjected { .. })) => {
                        if let Some(sup) = &mut self.supervisor {
                            sup.note_transient_retry();
                        }
                        attempt += 1;
                    }
                    Err(err) => return Err(err),
                }
            }
        } else {
            SliceRuntime::spawn(
                num,
                self.master.process(),
                &self.tool_template,
                &self.bubble,
                &self.cfg,
                self.now,
            )?
        };
        self.next_slice_num += 1;
        if let Some(templates) = &self.trace_templates {
            slice.set_trace_templates(Arc::clone(templates));
        }
        // Real fork(2) write-protects the parent too: the master's next
        // write to each currently resident page takes a COW fault.
        self.master.process_mut().mem.mark_cow_shared();
        if let Some(index) = &self.shared_traces {
            slice.enter_shared_epoch(index.snapshot());
        }
        let records = self.master.take_span_records();
        let span = self.master.process().inst_count() - self.master_insts_at_last_fork;
        if let Some(prev) = self.live.back_mut() {
            let boundary = boundary.expect("boundary required when a slice is sleeping");
            prev.wake(boundary, records, self.now);
            prev.set_span_insts(span);
            if let Some(sup) = &mut self.supervisor {
                sup.guard(prev);
                if let Some(registry) = &self.fault {
                    prev.arm_chaos(Some(Arc::clone(registry)), 0);
                }
            }
        }
        self.live.push_back(slice);
        let newest = self
            .live
            .back()
            .map(SliceRuntime::num)
            .expect("just pushed");
        self.post_slice_footprint(newest);
        // Waking the previous slice materializes its supervisor
        // checkpoint; settle the checkpoint term immediately so the
        // admission check that follows this fork sees it.
        self.post_checkpoint_bytes();
        self.last_fork = self.now;
        self.master_insts_at_last_fork = self.master.process().inst_count();
        self.master_debt += self.cfg.cost.fork_base;
        Ok(())
    }

    /// Delivers the final boundary to the last sleeping slice when the
    /// master exits at virtual time `now_cycles`.
    fn deliver_final_boundary(&mut self, now_cycles: u64) {
        let records = self.master.take_span_records();
        let span = self.master.process().inst_count() - self.master_insts_at_last_fork;
        if let Some(last) = self.live.back_mut() {
            if last.state() == SliceState::Sleeping {
                last.wake(Boundary::ProgramExit, records, now_cycles);
                last.set_span_insts(span);
                if let Some(sup) = &mut self.supervisor {
                    sup.guard(last);
                    if let Some(registry) = &self.fault {
                        last.arm_chaos(Some(Arc::clone(registry)), 0);
                    }
                }
            }
        }
        self.post_checkpoint_bytes();
    }

    /// Merges completed slices in slice order, reaping their runtimes.
    fn merge_ready(&mut self) {
        while let Some(front) = self.live.front() {
            if front.state() != SliceState::Done {
                break;
            }
            let mut slice = self.live.pop_front().expect("front exists");
            let num = slice.num();
            self.ledger.retire_slice(num);
            if let Some(sup) = &mut self.supervisor {
                sup.release(num);
            }
            if let Some(gov) = &mut self.governor {
                gov.release(num);
            }
            slice.tool_mut().inner.on_slice_end(num, &self.shared);
            slice.set_merged();
            self.sig_stats.absorb(&slice.tool().sig_stats);
            self.finished.push(SliceReport {
                num,
                insts: slice.engine().process().inst_count(),
                wake_cycles: slice.wake_cycles().unwrap_or(slice.start_cycles()),
                records_played: slice.records_played(),
                end: slice.end_reason().expect("done slice has a reason"),
                start_cycles: slice.start_cycles(),
                end_cycles: slice.end_cycles().expect("done slice has an end"),
                engine: slice.engine().stats(),
                cache: slice.engine().cache_stats(),
                cow_copies: slice.engine().process().mem.stats().cow_copies,
            });
        }
        // `release` lets go of merged slices' guards (checkpoints
        // included), so settle the checkpoint term once per sweep.
        self.post_checkpoint_bytes();
    }

    /// Stalls the master on a fork it cannot take yet (no free slot, or
    /// the memory governor deferred admission), counting one stall
    /// episode per continuous stretch.
    fn stall_fork(&mut self, pending: PendingFork) {
        if self.stalled.is_none() {
            self.stall_events += 1;
        }
        self.stalled = Some(pending);
    }

    /// Marks the slice about to be forked as governor-degraded
    /// (eviction-ladder rung 3): it will run pinned to the supervisor
    /// thread for its whole life, like a supervisor-degraded slice.
    fn pin_next_fork(&mut self) {
        let num = self.next_slice_num;
        if let Some(gov) = self.governor.as_mut() {
            gov.degrade(num);
        }
    }

    /// Handles fork triggers at an epoch barrier: resolves a pending
    /// forced-fork syscall, or performs a timer fork, stalling the master
    /// when no slot is free or the memory governor defers admission.
    fn control_step(&mut self) -> Result<(), SpError> {
        if self.master.exited() {
            self.stalled = None;
            return Ok(());
        }
        if self.master.pending_force() {
            if !self.can_fork() {
                self.stall_fork(PendingFork::Syscall);
                return Ok(());
            }
            match self.admission_check()? {
                Admission::Defer => self.stall_fork(PendingFork::Syscall),
                admission => {
                    self.stalled = None;
                    if admission == Admission::AdmitDegraded {
                        self.pin_next_fork();
                    }
                    let cycles =
                        self.master
                            .resolve_forced_syscall(self.now, &self.cfg, &mut self.mode)?;
                    self.master_debt += cycles;
                    self.forks_on_syscall += 1;
                    self.fork_slice(Some(Boundary::SyscallEnd))?;
                    if self.master.exited() {
                        self.note_master_exit(self.now);
                    }
                }
            }
            return Ok(());
        }
        let timeslice = self.cfg.effective_timeslice(self.now);
        // The timer only creates a slice once the master has made forward
        // progress since the last fork — a zero-length slice would be
        // pure overhead (and its boundary state would equal its start
        // state).
        let progressed = self.master.process().inst_count() > self.master_insts_at_last_fork;
        if progressed && self.now.saturating_sub(self.last_fork) >= timeslice {
            if !self.can_fork() {
                self.stall_fork(PendingFork::Timer);
                return Ok(());
            }
            match self.admission_check()? {
                Admission::Defer => self.stall_fork(PendingFork::Timer),
                admission => {
                    self.stalled = None;
                    if admission == Admission::AdmitDegraded {
                        self.pin_next_fork();
                    }
                    let signature = Signature::capture(self.master.process());
                    self.forks_on_timeout += 1;
                    self.fork_slice(Some(Boundary::Signature(Box::new(signature))))?;
                }
            }
        } else {
            self.stalled = None;
        }
        Ok(())
    }

    /// Records the master's exit during the quantum starting at
    /// `quantum_start` and wakes the final slice.
    fn note_master_exit(&mut self, quantum_start: u64) {
        if self.master_exit_cycles.is_none() {
            self.master_exit_cycles = Some(quantum_start + self.cfg.quantum_cycles.max(1));
            self.deliver_final_boundary(quantum_start);
        }
    }

    /// Quanta until the timer-fork deadline, evaluated against the
    /// (possibly adaptive) timeslice at each candidate barrier time.
    /// `None` when no deadline falls within the epoch cap.
    fn fork_deadline_quanta(&self, quantum: u64) -> Option<u64> {
        (1..=self.planner.max_quanta).find(|&k| {
            let barrier = self.now + k * quantum;
            barrier.saturating_sub(self.last_fork) >= self.cfg.effective_timeslice(barrier)
        })
    }

    /// Advances the master `planned` quanta (serially, on the supervisor
    /// thread), truncating the epoch at the quantum where a master event
    /// fires. Returns `(epoch_len, run_quanta_for_timeline)`.
    fn advance_master_epoch(
        &mut self,
        budget: u64,
        planned: u64,
        quantum: u64,
    ) -> Result<(u64, u64), SpError> {
        for j in 0..planned {
            let quantum_start = self.now + j * quantum;
            // Pay fork/ptrace debt out of this quantum first.
            let pay = self.master_debt.min(budget);
            self.master_debt -= pay;
            let remaining = budget - pay;
            if remaining == 0 {
                continue;
            }
            let (used, event) =
                self.master
                    .advance(remaining, quantum_start, &self.cfg, &mut self.mode)?;
            // Overshoot (a serviced syscall may exceed the budget) is
            // owed to future quanta.
            self.master_debt += used.saturating_sub(remaining);
            match event {
                MasterEvent::Exited => {
                    self.note_master_exit(quantum_start);
                    // The exit quantum is not recorded as master runtime.
                    return Ok((j + 1, j));
                }
                MasterEvent::NeedForkAtSyscall => {
                    // Barrier here so the control step resolves the fork
                    // exactly one quantum after the syscall parked — the
                    // same instant the per-quantum loop would.
                    return Ok((j + 1, j + 1));
                }
                MasterEvent::None => {}
            }
        }
        Ok((planned, planned))
    }

    /// Advances every running slice through the epoch — inline on the
    /// supervisor thread, or fanned out over the persistent worker pool.
    /// Both paths drive the identical per-quantum
    /// [`SliceRuntime::advance_epoch`] loop, so they are bit-equivalent.
    ///
    /// Returns the failed slices (in queue order) when supervision is on
    /// so the barrier can repair them; without supervision the first
    /// failure by queue order — or a dead worker — is a run-fatal typed
    /// error ([`SpError::WorkerLost`], never a panic).
    fn advance_slices_epoch(
        &mut self,
        pool: &mut WorkerPool<T>,
        budgets: &[(u32, u64)],
        quanta: u64,
        epoch_start: u64,
        quantum: u64,
    ) -> Result<Vec<(u32, SpError)>, SpError> {
        let budget_of = |num: u32| budgets.iter().find(|&&(n, _)| n == num).map(|&(_, b)| b);
        let supervising = self.supervisor.is_some();
        // Degraded slices are pinned to the supervisor thread — both the
        // supervisor's retry-exhausted slices and the governor's
        // pressure-degraded admissions.
        let mut pinned = self
            .supervisor
            .as_ref()
            .map(SliceSupervisor::degraded_set)
            .unwrap_or_default();
        if let Some(gov) = &self.governor {
            pinned.extend(gov.degraded_set());
        }
        let poolable = self
            .live
            .iter()
            .filter(|slice| {
                slice.state() == SliceState::Running
                    && budget_of(slice.num()).is_some()
                    && !pinned.contains(&slice.num())
            })
            .count();
        let workers = match pool {
            WorkerPool::Pool { workers }
                if poolable >= 2 && workers.iter().any(|link| link.alive) =>
            {
                workers
            }
            // A single poolable slice gains nothing from a channel round
            // trip; threads = 1 (and a fully dead pool) always land here.
            _ => {
                let mut failures = Vec::new();
                for slice in self.live.iter_mut() {
                    if slice.state() != SliceState::Running {
                        continue;
                    }
                    let Some(budget) = budget_of(slice.num()) else {
                        continue;
                    };
                    if let Err(err) = slice.advance_epoch(budget, quanta, epoch_start, quantum) {
                        if supervising {
                            failures.push((slice.num(), err));
                        } else {
                            return Err(err);
                        }
                    }
                }
                return Ok(failures);
            }
        };
        // Move each poolable slice out of the queue into a per-worker
        // batch (round-robin over the *alive* workers, by value), leave a
        // placeholder, and reassemble the queue in original order at the
        // barrier. One message each way per busy worker.
        let mut failures: Vec<(usize, u32, SpError)> = Vec::new();
        let mut slots: Vec<Option<SliceRuntime<T>>> = self.live.drain(..).map(Some).collect();
        let alive: Vec<usize> = workers
            .iter()
            .enumerate()
            .filter(|(_, link)| link.alive)
            .map(|(idx, _)| idx)
            .collect();
        let mut batches: Vec<Vec<(usize, SliceRuntime<T>, u64)>> =
            alive.iter().map(|_| Vec::new()).collect();
        let mut inline_orders: Vec<(usize, u64)> = Vec::new();
        let mut sent = 0usize;
        for (order, slot) in slots.iter_mut().enumerate() {
            let eligible = slot
                .as_ref()
                .is_some_and(|slice| slice.state() == SliceState::Running);
            if !eligible {
                continue;
            }
            let num = slot.as_ref().map(SliceRuntime::num).expect("slot occupied");
            let Some(budget) = budget_of(num) else {
                continue;
            };
            if pinned.contains(&num) {
                inline_orders.push((order, budget));
                continue;
            }
            let slice = slot.take().expect("eligibility checked");
            batches[sent % alive.len()].push((order, slice, budget));
            sent += 1;
        }
        // Dispatch. A failed send returns the batch in the error — those
        // slices never left this thread, so run them inline and retire
        // the worker.
        let mut busy: Vec<(usize, Vec<(usize, u32)>)> = Vec::new();
        for (&widx, jobs) in alive.iter().zip(batches) {
            if jobs.is_empty() {
                continue;
            }
            let manifest: Vec<(usize, u32)> = jobs
                .iter()
                .map(|(order, slice, _)| (*order, slice.num()))
                .collect();
            let chaos_key = ((widx as u64) << 32) ^ self.epochs;
            let batch = EpochBatch {
                jobs,
                quanta,
                epoch_start,
                quantum,
                chaos_key,
            };
            match workers[widx].sender.send(batch) {
                Ok(()) => busy.push((widx, manifest)),
                Err(mpsc::SendError(returned)) => {
                    workers[widx].alive = false;
                    if !supervising {
                        return Err(SpError::WorkerLost { worker: widx });
                    }
                    for (order, mut slice, budget) in returned.jobs {
                        let outcome = slice.advance_epoch(budget, quanta, epoch_start, quantum);
                        let num = slice.num();
                        slots[order] = Some(slice);
                        if let Err(err) = outcome {
                            failures.push((order, num, err));
                        }
                    }
                }
            }
        }
        // Degraded slices run on this thread while the workers churn.
        for (order, budget) in inline_orders {
            let slice = slots[order].as_mut().expect("pinned slice stays put");
            if let Err(err) = slice.advance_epoch(budget, quanta, epoch_start, quantum) {
                failures.push((order, slice.num(), err));
            }
        }
        // Collect. A disconnected result channel means the worker died
        // *holding* its batch: rebuild every slice in its manifest from
        // checkpoint + journal (the journal already includes this epoch).
        for (widx, manifest) in busy {
            match workers[widx].results.recv() {
                Ok(done) => {
                    for (order, slice, outcome) in done {
                        let num = slice.num();
                        slots[order] = Some(slice);
                        if let Err(err) = outcome {
                            failures.push((order, num, err));
                        }
                    }
                }
                Err(mpsc::RecvError) => {
                    workers[widx].alive = false;
                    if !supervising {
                        return Err(SpError::WorkerLost { worker: widx });
                    }
                    for (order, num) in manifest {
                        let repaired =
                            self.repair_slice(num, SpError::WorkerLost { worker: widx })?;
                        slots[order] = Some(repaired);
                    }
                }
            }
        }
        self.live.extend(
            slots
                .into_iter()
                .map(|slot| slot.expect("all slices returned")),
        );
        failures.sort_by_key(|&(order, _, _)| order);
        if !supervising {
            return match failures.into_iter().next() {
                Some((_, _, err)) => Err(err),
                None => Ok(Vec::new()),
            };
        }
        Ok(failures
            .into_iter()
            .map(|(_, num, err)| (num, err))
            .collect())
    }

    /// Condemns `num`, charges its retry budget, and rebuilds it from
    /// its checkpoint + journal. A retry re-arms injection with a fresh
    /// salt; an exhausted slice comes back injection-free and pinned to
    /// the supervisor thread. Failing *while* degraded — or during the
    /// injection-free replay itself — is a genuine defect.
    fn repair_slice(&mut self, num: u32, cause: SpError) -> Result<SliceRuntime<T>, SpError> {
        let sup = self.supervisor.as_mut().expect("supervision enabled");
        let verdict = sup.condemn(num);
        if verdict == Verdict::Unrecoverable {
            return Err(SpError::Unrecoverable {
                slice: num,
                cause: Box::new(cause),
            });
        }
        let sup = self.supervisor.as_ref().expect("supervision enabled");
        let mut rebuilt = sup.rebuild(num).map_err(|err| SpError::Unrecoverable {
            slice: num,
            cause: Box::new(err),
        })?;
        if let (Verdict::Retry { salt }, Some(registry)) = (verdict, &self.fault) {
            rebuilt.arm_chaos(Some(Arc::clone(registry)), salt);
        }
        Ok(rebuilt)
    }

    /// Swaps a repaired slice into its queue position.
    fn replace_slice(&mut self, repaired: SliceRuntime<T>) {
        let num = repaired.num();
        let slot = self
            .live
            .iter_mut()
            .find(|slice| slice.num() == num)
            .expect("repaired slice is live");
        *slot = repaired;
    }

    /// The supervisor's barrier inspection, run **before** virtual time
    /// advances and slices merge: repair explicit failures from the
    /// slice phase, then sweep every live slice for silent poison (the
    /// detector's injected-fault counter), overshoot past the known
    /// span, and watchdog expiry. Every condemned slice is replaced by
    /// its injection-off replay *this* barrier, so downstream publish
    /// and merge decisions are made from fault-free state — recovery is
    /// invisible to the simulation by construction.
    fn supervise_barrier(&mut self, failures: Vec<(u32, SpError)>) -> Result<(), SpError> {
        if self.supervisor.is_none() {
            debug_assert!(failures.is_empty());
            return Ok(());
        }
        for (num, err) in failures {
            let repaired = self.repair_slice(num, err)?;
            self.replace_slice(repaired);
        }
        let nums: Vec<u32> = self.live.iter().map(SliceRuntime::num).collect();
        for num in nums {
            let Some(slice) = self.live.iter().find(|slice| slice.num() == num) else {
                continue;
            };
            let sup = self.supervisor.as_ref().expect("supervision enabled");
            if sup.is_degraded(num) {
                continue;
            }
            let poisoned = slice.injected_faults() > 0;
            let eta = slice.eta();
            let running = slice.state() == SliceState::Running;
            let overshoot = running && eta.insts_total > 0 && eta.insts_done > eta.insts_total;
            let expired = running && sup.watchdog_expired(num);
            let cause = if poisoned {
                Some(SpError::Vm(VmError::FaultInjected {
                    site: "core.signature",
                }))
            } else if overshoot || expired {
                Some(SpError::Runaway {
                    slice: num,
                    insts: eta.insts_done,
                    span: eta.insts_total,
                })
            } else {
                None
            };
            if let Some(cause) = cause {
                let repaired = self.repair_slice(num, cause)?;
                self.replace_slice(repaired);
            }
        }
        Ok(())
    }

    /// Epoch-barrier shared-cache synchronization: publish every slice's
    /// fresh compilations into the sharded index **in slice order**, then
    /// hand all slices one common snapshot for the next epoch.
    fn sync_shared_cache(&mut self) {
        let Some(index) = &self.shared_traces else {
            return;
        };
        for slice in self.live.iter_mut() {
            let fresh = slice.take_fresh_traces();
            // Failpoint: a publish "fails" and is simply retried — the
            // sharded index is idempotent, so the doubled publish is the
            // whole recovery and the net effect on the report is zero.
            if let (Some(sup), Some(registry)) = (&mut self.supervisor, &self.fault) {
                let key = ((slice.num() as u64) << 16) ^ self.epochs;
                if registry.fire(Site::SharedIndexPublish, key) {
                    sup.note_transient_retry();
                    index.publish(fresh.iter().copied());
                }
            }
            index.publish(fresh);
        }
        let snapshot = index.snapshot();
        self.last_snapshot_entries = snapshot.len() as u64;
        self.ledger
            .post_snapshot(self.last_snapshot_entries * SNAPSHOT_ENTRY_BYTES);
        for slice in self.live.iter_mut() {
            slice.enter_shared_epoch(Arc::clone(&snapshot));
            if let Some(sup) = &mut self.supervisor {
                sup.journal_snapshot(slice.num(), Arc::clone(&snapshot));
            }
        }
    }

    /// Runs the full simulation to completion and produces the report.
    ///
    /// With `threads > 1` this spawns the worker pool **once** (scoped,
    /// std-only) and keeps it alive for the whole run; the epoch loop
    /// itself is identical for every backend.
    ///
    /// # Errors
    ///
    /// Propagates guest errors and slice-divergence detections.
    pub fn run(self) -> Result<SuperPinReport, SpError> {
        self.run_profiled().map(|(report, _)| report)
    }

    /// Like [`run`](SuperPinRunner::run), but also returns the
    /// host-side [`HostProfile`] phase timing.
    ///
    /// # Errors
    ///
    /// Propagates guest errors and slice-divergence detections.
    pub fn run_profiled(mut self) -> Result<(SuperPinReport, HostProfile), SpError> {
        self.start()?;

        // More workers than the `-spmp` cap can never be fed.
        let workers = self.cfg.threads.min(self.cfg.max_slices);
        if workers <= 1 {
            let report = self.run_epochs(&mut WorkerPool::Inline)?;
            return Ok((report, self.host_profile));
        }
        let chaos = self.fault.clone();
        let report = std::thread::scope(|scope| {
            let links = (0..workers)
                .map(|_| {
                    let (tx, rx) = mpsc::channel::<EpochBatch<T>>();
                    let (result_tx, results) = mpsc::channel::<BatchDone<T>>();
                    let chaos = chaos.clone();
                    scope.spawn(move || {
                        while let Ok(batch) = rx.recv() {
                            let EpochBatch {
                                jobs,
                                quanta,
                                epoch_start,
                                quantum,
                                chaos_key,
                            } = batch;
                            // Failpoint: simulated worker death. The batch
                            // is swallowed and both channels drop; the
                            // supervisor sees `Disconnected` and rebuilds
                            // every slice in the manifest.
                            if let Some(registry) = &chaos {
                                if registry.fire(Site::ParallelWorkerChannel, chaos_key) {
                                    break;
                                }
                            }
                            let mut done = Vec::with_capacity(jobs.len());
                            for (order, mut slice, budget) in jobs {
                                let outcome =
                                    slice.advance_epoch(budget, quanta, epoch_start, quantum);
                                done.push((order, slice, outcome));
                            }
                            if result_tx.send(done).is_err() {
                                break;
                            }
                        }
                    });
                    WorkerLink {
                        sender: tx,
                        results,
                        alive: true,
                    }
                })
                .collect();
            let mut pool = WorkerPool::Pool { workers: links };
            self.run_epochs(&mut pool)
            // `pool` drops at the end of this closure, disconnecting the
            // job channels; workers see the hangup and exit before the
            // scope joins them.
        })?;
        Ok((report, self.host_profile))
    }

    /// The epoch loop (see the module docs for the three-phase shape).
    fn run_epochs(&mut self, pool: &mut WorkerPool<T>) -> Result<SuperPinReport, SpError> {
        while self.step_epoch(pool)? {}
        self.finalize()
    }

    /// Begins the run: forks the first slice ("at the start of
    /// execution, the application forks off its first instrumented
    /// timeslice", paper §3). Idempotent — [`run`](SuperPinRunner::run)
    /// and the steppable API both funnel through here.
    ///
    /// # Errors
    ///
    /// Propagates slice-setup errors.
    pub fn start(&mut self) -> Result<(), SpError> {
        if !self.started {
            self.started = true;
            self.fork_slice(None)?;
        }
        Ok(())
    }

    /// Executes exactly one epoch inline on the calling thread (the
    /// `threads = 1` backend), starting the run if needed. Returns
    /// whether the run can make further progress; once it returns
    /// `false`, [`finish`](SuperPinRunner::finish) renders the report.
    ///
    /// This is the lockstep surface the divergence differ drives: after
    /// each step, [`probe`](SuperPinRunner::probe) exposes the
    /// epoch-barrier state for comparison against a twin run.
    ///
    /// # Errors
    ///
    /// Propagates guest errors and replay divergences.
    pub fn step_serial(&mut self) -> Result<bool, SpError> {
        self.start()?;
        self.step_epoch(&mut WorkerPool::Inline)
    }

    /// Renders the final report once [`step_serial`](SuperPinRunner::step_serial)
    /// has returned `false`.
    ///
    /// # Errors
    ///
    /// Propagates replay divergences surfaced at finalization.
    pub fn finish(&mut self) -> Result<SuperPinReport, SpError> {
        self.finalize()
    }

    /// Snapshots the run's observable state at the current epoch
    /// barrier: virtual time, the master's architectural state, every
    /// live slice's progress, and the reports of already-merged slices.
    pub fn probe(&self) -> RunProbe {
        let master = self.master.process();
        RunProbe {
            now: self.now,
            epochs: self.epochs,
            quantum: self.cfg.quantum_cycles.max(1),
            master_exited: self.master.exited(),
            master_insts: master.inst_count(),
            master_pc: master.cpu.pc,
            master_regs: master.cpu.regs.snapshot(),
            master_mem_digest: master.mem.content_digest(),
            slices: self
                .live
                .iter()
                .map(|slice| {
                    let process = slice.engine().process();
                    SliceProbe {
                        num: slice.num(),
                        insts: process.inst_count(),
                        pc: process.cpu.pc,
                        mem_digest: process.mem.content_digest(),
                    }
                })
                .collect(),
            merged: self.finished.clone(),
        }
    }

    /// The run's virtual clock in cycles — how much simulated time this
    /// run has consumed so far. O(1), unlike the full
    /// [`probe`](SuperPinRunner::probe) snapshot, so a fleet scheduler
    /// can charge fair-share virtual time after every epoch.
    pub fn now_cycles(&self) -> u64 {
        self.now
    }

    /// The run's current governed resident-byte total (master, slices,
    /// checkpoints, snapshot, shared areas), valid at epoch barriers —
    /// the sample a fleet scheduler feeds its per-tenant ledger. Works
    /// with or without a per-run governor; O(1) in live slices via the
    /// incremental ledger.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_usage()
    }

    /// Fleet-ladder rung 1, driven from outside: evicts this run's
    /// code caches coldest-first (LRU by last-active virtual time,
    /// slice number on ties) until at least `target_bytes` are freed or
    /// nothing evictable remains. Returns the simulated bytes freed.
    ///
    /// Bookkeeping matches the in-run ladder exactly — evictions are
    /// journaled for supervised rebuilds and counted by the per-run
    /// governor when one is armed — so a fleet-squeezed run stays
    /// bit-replayable. Call only at epoch barriers (between
    /// [`step_serial`](SuperPinRunner::step_serial) calls).
    pub fn fleet_evict_caches(&mut self, target_bytes: u64) -> u64 {
        let mut cold: Vec<(u64, u32)> = self
            .live
            .iter()
            .filter(|slice| slice.cache_resident_insts() > 0)
            .map(|slice| (slice.last_active_cycles(), slice.num()))
            .collect();
        cold.sort_unstable();
        let mut freed = 0u64;
        for (_, num) in cold {
            if freed >= target_bytes {
                break;
            }
            let slice = self
                .live
                .iter_mut()
                .find(|slice| slice.num() == num)
                .expect("eviction candidate is live");
            let freed_insts = slice.evict_code_cache();
            if freed_insts > 0 {
                freed += freed_insts as u64 * COMPILED_INST_BYTES;
                if let Some(sup) = &mut self.supervisor {
                    sup.journal_evict(num);
                }
                if let Some(gov) = &mut self.governor {
                    gov.note_cache_evicted();
                }
                self.post_slice_footprint(num);
            }
        }
        freed
    }

    /// Whether any live slice still holds an evictable code cache —
    /// `true` means [`fleet_evict_caches`](SuperPinRunner::fleet_evict_caches)
    /// can free memory without degrading anyone.
    pub fn has_evictable_cache(&self) -> bool {
        self.live
            .iter()
            .any(|slice| slice.cache_resident_insts() > 0)
    }

    /// One iteration of the epoch loop; `Ok(false)` means the run is
    /// complete.
    fn step_epoch(&mut self, pool: &mut WorkerPool<T>) -> Result<bool, SpError> {
        let quantum = self.cfg.quantum_cycles.max(1);
        {
            // Host timing only — two `Instant` reads per epoch, no
            // effect on any simulated quantity.
            let supervisor_start = Instant::now();
            self.control_step()?;

            // Build the runnable set: master (task 0) + running slices.
            let master_runnable =
                !self.master.exited() && self.stalled.is_none() && !self.master.pending_force();
            let mut runnable: Vec<u64> = Vec::new();
            if master_runnable {
                runnable.push(0);
            }
            let running: Vec<u32> = self
                .live
                .iter()
                .filter(|slice| slice.state() == SliceState::Running)
                .map(SliceRuntime::num)
                .collect();
            runnable.extend(running.iter().map(|&num| num as u64));

            if runnable.is_empty() {
                if self.master.exited() && self.live.is_empty() {
                    return Ok(false);
                }
                // Master stalled with zero running slices would be a
                // logic error (a slot must be free then); a sleeping-only
                // queue after exit likewise.
                return Err(SpError::NoProgress);
            }

            // Budgets for the whole epoch are fixed here: they depend
            // only on the runnable set, which the barrier structure keeps
            // constant until the next control step.
            let shares = self.scheduler.shares(&runnable);
            let master_budget = master_runnable.then(|| shares[0].budget(quantum));
            let slice_budgets: Vec<(u32, u64)> = shares
                .iter()
                .filter(|share| share.task != 0)
                .map(|share| (share.task as u32, share.budget(quantum)))
                .collect();

            // Plan the epoch: next fork deadline and predicted slice
            // completions, all from virtual state only. While the
            // governor is deferring a fork, keep epochs short so
            // admission is re-checked promptly once running slices merge
            // and free their footprint.
            let deadline = if master_runnable {
                self.fork_deadline_quanta(quantum)
            } else if self
                .governor
                .as_ref()
                .is_some_and(MemoryGovernor::is_deferring)
            {
                Some(self.planner.deferral_review_quanta())
            } else {
                None
            };
            let etas: Vec<(SliceEta, u64)> = self
                .live
                .iter()
                .filter(|slice| slice.state() == SliceState::Running)
                .map(|slice| {
                    let budget = slice_budgets
                        .iter()
                        .find(|(num, _)| *num == slice.num())
                        .map(|&(_, budget)| budget)
                        .unwrap_or(1);
                    (slice.eta(), budget)
                })
                .collect();
            let planned = match &mut self.mode {
                RunMode::Live => self.planner.plan(deadline, etas),
                RunMode::Record(recorder) => {
                    let planned = self.planner.plan(deadline, etas);
                    recorder.record(NondetEvent::EpochPlan { planned });
                    planned
                }
                // Substituted verbatim: the planner's live answer would
                // be identical on a faithful log, and taking the log's
                // word is what lets divergence tests perturb it.
                RunMode::Replay(source) => match source.next_event() {
                    Some(NondetEvent::EpochPlan { planned }) => planned.max(1),
                    Some(other) => {
                        return Err(SpError::ReplayDivergence {
                            context: "epoch plan",
                            detail: format!(
                                "expected an epoch-plan record at epoch {}, log has a {} event",
                                self.epochs,
                                other.kind()
                            ),
                        })
                    }
                    None => {
                        return Err(SpError::ReplayDivergence {
                            context: "epoch plan",
                            detail: format!("log exhausted at epoch {}", self.epochs),
                        })
                    }
                },
            };
            self.epochs += 1;

            // Phase 1: master, serially; a master event truncates the
            // epoch so the barrier lands where the event must be handled.
            let exited_before_epoch = self.master_exit_cycles.is_some();
            let (epoch_len, run_quanta) = match master_budget {
                Some(budget) => self.advance_master_epoch(budget, planned, quantum)?,
                None => (planned, planned),
            };

            // Master timeline for the Figure 6 decomposition.
            if !exited_before_epoch && run_quanta > 0 {
                let label = if master_runnable { "run" } else { "sleep" };
                self.master_timeline
                    .push(self.now, self.now + run_quanta * quantum, label);
            }

            // Journal the epoch each running slice is about to receive:
            // the supervisor must be able to replay the exact schedule
            // (and its watchdog clock ticks in these same quanta).
            let dispatched: Vec<(u32, u64, SliceEta)> = if self.supervisor.is_some() {
                self.live
                    .iter()
                    .filter(|slice| slice.state() == SliceState::Running)
                    .filter_map(|slice| {
                        slice_budgets
                            .iter()
                            .find(|(num, _)| *num == slice.num())
                            .map(|&(_, budget)| (slice.num(), budget, slice.eta()))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            if let Some(sup) = self.supervisor.as_mut() {
                for (num, budget, eta) in dispatched {
                    sup.journal_advance(num, budget, epoch_len, self.now, quantum, eta);
                }
            }

            // Phase 2: slices, in parallel across host threads.
            let slice_start = Instant::now();
            self.host_profile.supervisor_ns +=
                slice_start.duration_since(supervisor_start).as_nanos() as u64;
            let failures =
                self.advance_slices_epoch(pool, &slice_budgets, epoch_len, self.now, quantum)?;
            let barrier_start = Instant::now();
            self.host_profile.slice_ns +=
                barrier_start.duration_since(slice_start).as_nanos() as u64;

            // Phase 3: barrier. Repair first — faults are detected and
            // rolled back in the epoch they fired, so publication and
            // merging below only ever see fault-free state.
            self.supervise_barrier(failures)?;
            self.now += epoch_len * quantum;
            self.sync_shared_cache();
            // Footprints grew inside the slice phase (on worker
            // threads, where the ledger cannot be touched) and repairs
            // may have swapped slices: settle every posting once, here
            // at the barrier.
            self.settle_ledger();
            self.observe_usage();
            self.merge_ready();
            self.host_profile.supervisor_ns += barrier_start.elapsed().as_nanos() as u64;
        }
        Ok(true)
    }

    /// Renders the report after the epoch loop completes. The
    /// supervision ledger (`slice_retries`, `slices_degraded`) is
    /// recorded here as the log's final event, and substituted from the
    /// log on replay — chaos recovery is re-*counted* rather than
    /// re-*executed* (see the [`record`](crate::record) module docs).
    fn finalize(&mut self) -> Result<SuperPinReport, SpError> {
        // All slices merged: render the final result.
        //
        // Soundness gate: if an oracle was installed, no engine may have
        // observed a transfer or code write the static analysis does not
        // admit. Engines assert at the offending site in debug builds;
        // this catches violations that were only recorded (and any run
        // driven through a release-built harness under a debug test).
        if let Some(oracle) = &self.cfg.oracle {
            debug_assert!(
                oracle.is_clean(),
                "soundness oracle recorded violations: {:?}",
                oracle.violations()
            );
        }
        let mut fin = self.tool_template.clone();
        fin.fini_shared(&self.shared);

        let mut sup_retries = self.supervisor.as_ref().map_or(0, |sup| sup.slice_retries);
        let mut sup_degraded = self
            .supervisor
            .as_ref()
            .map_or(0, |sup| sup.slices_degraded);
        match &mut self.mode {
            RunMode::Live => {}
            RunMode::Record(recorder) => recorder.record(NondetEvent::FaultLedger {
                slice_retries: sup_retries,
                slices_degraded: sup_degraded,
            }),
            RunMode::Replay(source) => {
                // The ledger is the log's final event; drain to it so a
                // replay that legitimately consumed fewer decision
                // points (injection is disarmed) still finds it.
                while let Some(event) = source.next_event() {
                    if let NondetEvent::FaultLedger {
                        slice_retries,
                        slices_degraded,
                    } = event
                    {
                        sup_retries = slice_retries;
                        sup_degraded = slices_degraded;
                    }
                }
            }
        }

        let master_exit_cycles = self.master_exit_cycles.unwrap_or(self.now);
        let native_cycles = self.master.process().inst_count() * self.cfg.cost.native_cpi;
        let sleep_cycles = self.master_timeline.total("sleep");
        let fork_other_cycles = master_exit_cycles
            .saturating_sub(native_cycles)
            .saturating_sub(sleep_cycles);
        let breakdown = TimeBreakdown {
            native_cycles,
            fork_other_cycles,
            sleep_cycles,
            pipeline_cycles: self.now.saturating_sub(master_exit_cycles),
        };

        Ok(SuperPinReport {
            total_cycles: self.now,
            master_exit_cycles,
            breakdown,
            master_insts: self.master.process().inst_count(),
            master_syscalls: self.master.syscall_count(),
            ptrace: self.master.ptrace_stats(),
            slices: std::mem::take(&mut self.finished),
            sig_stats: self.sig_stats,
            forks_on_timeout: self.forks_on_timeout,
            forks_on_syscall: self.forks_on_syscall,
            stall_events: self.stall_events,
            master_cow_copies: self.master.process().mem.stats().cow_copies,
            epochs: self.epochs,
            slice_retries: sup_retries,
            slices_degraded: sup_degraded
                + self
                    .governor
                    .as_ref()
                    .map_or(0, MemoryGovernor::degraded_total),
            peak_resident_bytes: self
                .governor
                .as_ref()
                .map_or(0, |gov| gov.peak_resident_bytes),
            slices_deferred: self.governor.as_ref().map_or(0, |gov| gov.slices_deferred),
            checkpoints_dropped: self
                .governor
                .as_ref()
                .map_or(0, |gov| gov.checkpoints_dropped),
            caches_evicted: self.governor.as_ref().map_or(0, |gov| gov.caches_evicted),
        })
    }
}

impl<T: SuperTool> std::fmt::Debug for SuperPinRunner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperPinRunner")
            .field("now", &self.now)
            .field("live_slices", &self.live.len())
            .field("finished", &self.finished.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The service front end (`superpin-serve`) moves whole runners —
    /// not just slices — onto shared pool workers between fleet rounds,
    /// so the runner must be `Send` for any `Send` tool. Compile-time
    /// audit in the spirit of `superpin-tools`' send_audit module.
    #[derive(Clone)]
    struct NullTool;

    impl superpin_dbi::Pintool for NullTool {
        fn instrument_trace(
            &mut self,
            _trace: &superpin_dbi::Trace,
            _inserter: &mut superpin_dbi::Inserter<Self>,
        ) {
        }
    }

    impl SuperTool for NullTool {
        fn reset(&mut self, _slice: u32) {}
        fn on_slice_end(&mut self, _slice: u32, _shared: &SharedMem) {}
    }

    #[test]
    fn runner_is_send_for_send_tools() {
        fn assert_send<S: Send>() {}
        assert_send::<SuperPinRunner<NullTool>>();
    }
}
