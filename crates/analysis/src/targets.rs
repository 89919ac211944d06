//! Whole-program value analysis and indirect-target resolution.
//!
//! Resolves the target sets of indirect jumps and calls (`jalr`) by
//! interprocedural constant propagation over an abstract value domain:
//!
//! ```text
//!   Bottom  ⊑  Set{v₀, v₁, …}  ⊑  Range{lo, hi, stride}  ⊑  Top
//! ```
//!
//! `Set` holds up to [`SET_CAP`] exact values and is evaluated with the
//! interpreter's own [`AluOp::apply`], so exact facts can never drift
//! from execution semantics. `Range` is a strided interval
//! `{lo + k·stride | lo + k·stride ≤ hi}` with sound per-operator
//! approximations; everything else widens to `Top` (unresolved).
//!
//! The solver propagates register files over the [`Cfg`] with three
//! non-standard edge kinds:
//!
//! * **Call edges** (`jal`) carry the caller's exit fact into the
//!   callee with the link register set to the return address. There is
//!   *no* skip edge to the fall-through: return sites are reached only
//!   by the callee's `jalr` flowing back (below), so a non-returning
//!   callee correctly leaves its return site unreached.
//! * **Resolved indirect edges**: when a `jalr`'s target value
//!   enumerates, its exit fact is injected exactly into those target
//!   blocks.
//! * **Unresolved indirect edges**: when it does not, the fact is
//!   injected into every *indirect sink* — the address-taken blocks
//!   plus every call fall-through (the only addresses a well-formed
//!   guest can materialize as code pointers: data words, `li`
//!   immediates, and link-register writes).
//!
//! Loads are resolved in two phases. Phase 1 treats every load as
//! `Top` and collects a sound summary of all store targets (including
//! memory-writing syscalls). Phase 2 re-runs the solver, resolving a
//! load from the program's initial image only when its address set
//! lies inside the static image *and* cannot overlap any phase-1
//! store. Phase 1's facts are the coarsest sound facts, so its store
//! summary over-approximates any execution and one re-run suffices.
//!
//! Two documented assumptions keep the analysis decidable (both are
//! cross-validated at runtime by the soundness oracle in
//! [`crate::program`]):
//!
//! 1. **Allocation regions** (classic value-set analysis): a widened
//!    store whose base lands inside a named data/bss symbol stays
//!    within that symbol's extent.
//! 2. **Signal entry**: signal handlers run with arbitrary register
//!    state. If the program may issue a `sigaction` syscall, every
//!    address-taken block is given a `Top` boundary; otherwise
//!    address-taken blocks are reached only through tracked `jalr`
//!    facts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use superpin_isa::{AluOp, Inst, MemWidth, Program, Reg, NUM_REGS};

use crate::cfg::{AnalysisError, BlockId, Cfg, Terminator};

/// Maximum cardinality of an exact [`Value::Set`] before it widens to
/// a strided range.
pub const SET_CAP: usize = 512;
/// Maximum number of addresses enumerated from a range (for load
/// resolution and indirect-edge injection).
pub const ENUM_CAP: u64 = 4096;
/// Cross-product budget for exact `Set × Set` ALU evaluation.
const CROSS_CAP: usize = 4096;
/// Block revisits before interval widening kicks in.
const WIDEN_VISITS: u32 = 8;
/// Block revisits before a still-unstable register is forced to `Top`.
const TOP_VISITS: u32 = 64;

/// SyscallNo::SigAction in the kernel's numbering.
const SYS_SIGACTION: u64 = 11;
/// SyscallNo::Read: writes `[r2, r2 + r3)`.
const SYS_READ: u64 = 2;
/// SyscallNo::GetRandom: writes `[r1, r1 + r2)`.
const SYS_GETRANDOM: u64 = 10;

/// An abstract register value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// No value observed yet (unreached).
    Bottom,
    /// Exactly one of these values (≤ [`SET_CAP`] entries).
    Set(BTreeSet<u64>),
    /// `{lo + k·stride | k ≥ 0, lo + k·stride ≤ hi}`; `lo ≤ hi`,
    /// `stride ≥ 1`, `(hi - lo) % stride == 0`.
    Range { lo: u64, hi: u64, stride: u64 },
    /// Anything.
    Top,
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Value {
    /// A single known constant.
    pub fn constant(v: u64) -> Value {
        Value::Set(BTreeSet::from([v]))
    }

    /// The constant, if this value is a singleton set.
    pub fn as_const(&self) -> Option<u64> {
        match self {
            Value::Set(s) if s.len() == 1 => s.iter().next().copied(),
            _ => None,
        }
    }

    /// Builds a value from an explicit set, widening to a range when
    /// it exceeds [`SET_CAP`].
    pub fn from_set(set: BTreeSet<u64>) -> Value {
        if set.is_empty() {
            return Value::Bottom;
        }
        if set.len() <= SET_CAP {
            return Value::Set(set);
        }
        let lo = *set.iter().next().expect("non-empty");
        let hi = *set.iter().next_back().expect("non-empty");
        let mut stride = 0;
        let mut prev = lo;
        for &v in set.iter().skip(1) {
            stride = gcd(stride, v - prev);
            prev = v;
        }
        Value::Range {
            lo,
            hi,
            stride: stride.max(1),
        }
    }

    /// `(lo, hi, stride)` bounds for any non-`Bottom`, non-`Top`
    /// value. A singleton reports stride 0 — the gcd identity — so
    /// joining a constant into a strided range preserves the range's
    /// stride instead of collapsing it to 1.
    fn bounds(&self) -> Option<(u64, u64, u64)> {
        match self {
            Value::Set(s) => {
                let lo = *s.iter().next()?;
                let hi = *s.iter().next_back()?;
                let mut stride = 0;
                let mut prev = lo;
                for &v in s.iter().skip(1) {
                    stride = gcd(stride, v - prev);
                    prev = v;
                }
                Some((lo, hi, stride))
            }
            Value::Range { lo, hi, stride } => Some((*lo, *hi, *stride)),
            Value::Bottom | Value::Top => None,
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Bottom, v) | (v, Value::Bottom) => v.clone(),
            (Value::Top, _) | (_, Value::Top) => Value::Top,
            (Value::Set(a), Value::Set(b)) if a.len() + b.len() <= SET_CAP => {
                let mut s = a.clone();
                s.extend(b.iter().copied());
                Value::Set(s)
            }
            _ => {
                let (lo1, hi1, s1) = self.bounds().expect("not bottom/top");
                let (lo2, hi2, s2) = other.bounds().expect("not bottom/top");
                let lo = lo1.min(lo2);
                let hi = hi1.max(hi2);
                let stride = gcd(gcd(s1, s2), lo1.abs_diff(lo2)).max(1);
                let hi = lo + ((hi - lo) / stride) * stride;
                Value::Range { lo, hi, stride }
            }
        }
    }

    /// Widening: `new` must already contain `old` (it is
    /// `join(old, incoming)`). Unstable bounds are pushed to the
    /// lattice extremes so ascending chains terminate.
    fn widen(old: &Value, new: &Value) -> Value {
        if old == new {
            return new.clone();
        }
        let (Some((lo_o, hi_o, _)), Some((lo_n, hi_n, s_n))) = (old.bounds(), new.bounds()) else {
            return new.clone(); // Bottom/Top involved: join already final.
        };
        let lo = if lo_n < lo_o { 0 } else { lo_n };
        let stride = s_n.max(1);
        let hi = if hi_n > hi_o {
            lo + ((u64::MAX - lo) / stride) * stride
        } else {
            lo + ((hi_n - lo) / stride) * stride
        };
        Value::Range { lo, hi, stride }
    }

    /// Enumerates the concrete values, if there are at most `cap`.
    pub fn enumerate(&self, cap: u64) -> Option<Vec<u64>> {
        match self {
            Value::Bottom => Some(Vec::new()),
            Value::Set(s) => {
                if s.len() as u64 <= cap {
                    Some(s.iter().copied().collect())
                } else {
                    None
                }
            }
            Value::Range { lo, hi, stride } => {
                // `points + 1` could overflow for a full-width range,
                // so compare before incrementing.
                let points = (hi - lo) / stride;
                if points < cap {
                    Some((0..=points).map(|k| lo + k * stride).collect())
                } else {
                    None
                }
            }
            Value::Top => None,
        }
    }

    /// `self + c` (wrapping constant offset).
    fn add_const(&self, c: u64) -> Value {
        if c == 0 {
            return self.clone();
        }
        match self {
            Value::Bottom => Value::Bottom,
            Value::Top => Value::Top,
            Value::Set(s) => Value::from_set(s.iter().map(|v| v.wrapping_add(c)).collect()),
            Value::Range { lo, hi, stride } => match (lo.checked_add(c), hi.checked_add(c)) {
                (Some(lo), Some(hi)) => Value::Range {
                    lo,
                    hi,
                    stride: *stride,
                },
                // The shifted interval wraps around the address space;
                // a wrapped strided interval is not representable.
                _ => Value::Top,
            },
        }
    }

    /// Applies an ALU operator. `Set × Set` within budget is exact
    /// (via the interpreter's own [`AluOp::apply`]); ranges use sound
    /// per-operator approximations; anything else is `Top`.
    fn alu(op: AluOp, a: &Value, b: &Value) -> Value {
        if matches!(a, Value::Bottom) || matches!(b, Value::Bottom) {
            return Value::Bottom;
        }
        if let (Value::Set(sa), Value::Set(sb)) = (a, b) {
            if sa.len() * sb.len() <= CROSS_CAP {
                let mut out = BTreeSet::new();
                for &x in sa {
                    for &y in sb {
                        out.insert(op.apply(x, y));
                    }
                }
                return Value::from_set(out);
            }
        }
        let ab = a.bounds();
        let bb = b.bounds();
        match op {
            AluOp::Add => match (ab, bb) {
                (Some((lo1, hi1, s1)), Some((lo2, hi2, s2))) => {
                    match (lo1.checked_add(lo2), hi1.checked_add(hi2)) {
                        (Some(lo), Some(hi)) => {
                            let stride = gcd(s1, s2).max(1);
                            Value::Range {
                                lo,
                                hi: lo + ((hi - lo) / stride) * stride,
                                stride,
                            }
                        }
                        _ => Value::Top,
                    }
                }
                _ => Value::Top,
            },
            AluOp::Sub => match (ab, bb) {
                (Some((lo1, hi1, s1)), Some((lo2, hi2, s2))) if lo1 >= hi2 => {
                    let lo = lo1 - hi2;
                    let hi = hi1 - lo2;
                    let stride = gcd(s1, s2).max(1);
                    Value::Range {
                        lo,
                        hi: lo + ((hi - lo) / stride) * stride,
                        stride,
                    }
                }
                _ => Value::Top,
            },
            // x & y ≤ min(x, y) for unsigned values. A constant mask m
            // additionally bounds the result to [0, m].
            AluOp::And => match (a.as_const(), b.as_const(), ab, bb) {
                (Some(m), _, _, _) | (_, Some(m), _, _) => Value::Range {
                    lo: 0,
                    hi: m,
                    stride: 1,
                },
                (_, _, Some((_, hi1, _)), Some((_, hi2, _))) => Value::Range {
                    lo: 0,
                    hi: hi1.min(hi2),
                    stride: 1,
                },
                _ => Value::Top,
            },
            AluOp::Shl => match (ab, b.as_const()) {
                (Some((lo, hi, s)), Some(k)) if k < 64 && (hi << k) >> k == hi => Value::Range {
                    lo: lo << k,
                    hi: hi << k,
                    stride: (s << k).max(1),
                },
                _ => Value::Top,
            },
            AluOp::Shr => match (ab, b.as_const()) {
                (Some((lo, hi, s)), Some(k)) if k < 64 => {
                    let exact = lo.trailing_zeros() as u64 >= k && s.trailing_zeros() as u64 >= k;
                    let lo = lo >> k;
                    let hi = hi >> k;
                    let stride = if exact { (s >> k).max(1) } else { 1 };
                    Value::Range {
                        lo,
                        hi: lo + ((hi - lo) / stride) * stride,
                        stride,
                    }
                }
                _ => Value::Top,
            },
            AluOp::Mul => match (ab, b.as_const(), a.as_const()) {
                (_, Some(c), _) | (_, _, Some(c)) if c == 0 => Value::constant(0),
                (Some((lo, hi, s)), Some(c), _) | (Some((lo, hi, s)), _, Some(c)) => {
                    match (lo.checked_mul(c), hi.checked_mul(c)) {
                        (Some(lo), Some(hi)) => Value::Range {
                            lo,
                            hi,
                            stride: s.saturating_mul(c).max(1),
                        },
                        _ => Value::Top,
                    }
                }
                _ => Value::Top,
            },
            AluOp::Slt | AluOp::Sltu => Value::Range {
                lo: 0,
                hi: 1,
                stride: 1,
            },
            AluOp::Or | AluOp::Xor | AluOp::Divu | AluOp::Remu | AluOp::Sar => Value::Top,
        }
    }
}

/// An abstract register file: one [`Value`] per register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegFile([Value; NUM_REGS]);

impl RegFile {
    /// All registers `Bottom`.
    fn bottom() -> RegFile {
        RegFile(std::array::from_fn(|_| Value::Bottom))
    }

    /// All registers `Top` (unknown entry state).
    fn top() -> RegFile {
        RegFile(std::array::from_fn(|_| Value::Top))
    }

    /// The abstract value of `reg`.
    pub fn get(&self, reg: Reg) -> &Value {
        &self.0[reg.index()]
    }

    fn set(&mut self, reg: Reg, v: Value) {
        self.0[reg.index()] = v;
    }

    /// Joins `other` into `self`; true if anything changed. Applies
    /// widening per register once `visits` exceeds the thresholds.
    fn join_from(&mut self, other: &RegFile, visits: u32) -> bool {
        let mut changed = false;
        for i in 0..NUM_REGS {
            let joined = self.0[i].join(&other.0[i]);
            if joined != self.0[i] {
                self.0[i] = if visits > TOP_VISITS {
                    Value::Top
                } else if visits > WIDEN_VISITS {
                    Value::widen(&self.0[i], &joined)
                } else {
                    joined
                };
                changed = true;
            }
        }
        changed
    }
}

/// The resolution of one indirect site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetSet {
    /// The transfer can only reach these addresses.
    Resolved(BTreeSet<u64>),
    /// The analysis could not bound the target (explicit top).
    Unresolved,
}

impl TargetSet {
    /// True if a dynamic transfer to `addr` is consistent with this
    /// set (`Unresolved` admits anything).
    pub fn admits(&self, addr: u64) -> bool {
        match self {
            TargetSet::Resolved(set) => set.contains(&addr),
            TargetSet::Unresolved => true,
        }
    }
}

/// One abstract store: the byte ranges `[p, p + width)` for every
/// `p ∈ {lo + k·stride ≤ hi}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreRegion {
    /// Lowest store address.
    pub lo: u64,
    /// Highest store address (inclusive).
    pub hi: u64,
    /// Address stride between successive stores.
    pub stride: u64,
    /// Bytes written per store.
    pub width: u64,
}

impl StoreRegion {
    /// True if some store in this region may touch `[a, b)`.
    pub fn may_overlap(&self, a: u64, b: u64) -> bool {
        if a >= b || self.width == 0 {
            return false;
        }
        // A store at p overlaps [a, b) iff p < b and p + width > a,
        // i.e. p ∈ [a - width + 1, b - 1] clamped to [lo, hi].
        let min_p = a.saturating_sub(self.width - 1).max(self.lo);
        let max_p = b.saturating_sub(1).min(self.hi);
        if min_p > max_p {
            return false;
        }
        // Is there a stride point in [min_p, max_p]?
        let k = (min_p - self.lo).div_ceil(self.stride);
        match self.lo.checked_add(k.saturating_mul(self.stride)) {
            Some(p) => p <= max_p,
            None => false,
        }
    }
}

/// Sound over-approximation of every store the program can perform to
/// the static image, including memory-writing syscalls.
#[derive(Clone, Debug, Default)]
pub struct StoreSummary {
    /// Abstract store regions.
    pub regions: Vec<StoreRegion>,
    /// True if some store or syscall buffer could not be bounded; any
    /// address must then be assumed written.
    pub unknown: bool,
}

impl StoreSummary {
    /// True if a store may touch the byte range `[a, b)`.
    pub fn may_write(&self, a: u64, b: u64) -> bool {
        self.unknown || self.regions.iter().any(|r| r.may_overlap(a, b))
    }
}

/// The static image: code, data, and zero-initialized bss, plus the
/// data/bss symbol extents used for the allocation-region assumption.
struct MemImage<'p> {
    program: &'p Program,
    code_lo: u64,
    code_hi: u64, // exclusive
    data_lo: u64,
    data_hi: u64, // exclusive, data bytes only
    bss_hi: u64,  // exclusive, end of zero-initialized storage
    /// Data/bss symbol extents `[start, end)`, sorted by start.
    extents: Vec<(u64, u64)>,
}

impl<'p> MemImage<'p> {
    fn new(program: &'p Program) -> MemImage<'p> {
        let data_lo = program.data_base();
        let data_hi = data_lo + program.data().len() as u64;
        let bss_hi = data_hi + program.bss_len();
        let mut starts: Vec<u64> = program
            .symbols()
            .filter(|s| s.section == superpin_isa::Section::Data)
            .map(|s| s.addr)
            .collect();
        starts.sort_unstable();
        starts.dedup();
        let mut extents = Vec::with_capacity(starts.len());
        for (i, &start) in starts.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(bss_hi);
            if end > start {
                extents.push((start, end));
            }
        }
        MemImage {
            program,
            code_lo: program.code_base(),
            code_hi: program.code_base() + program.code_len(),
            data_lo,
            data_hi,
            bss_hi,
            extents,
        }
    }

    /// True if `[addr, addr + len)` lies inside the static image.
    fn in_image(&self, addr: u64, len: u64) -> bool {
        let end = match addr.checked_add(len) {
            Some(end) => end,
            None => return false,
        };
        (addr >= self.code_lo && end <= self.code_hi)
            || (addr >= self.data_lo && end <= self.bss_hi)
    }

    /// Reads `width` bytes from the initial image (bss reads as 0),
    /// zero-extended. `None` outside the image.
    fn read_init(&self, addr: u64, width: MemWidth) -> Option<u64> {
        let len = width.bytes() as u64;
        if !self.in_image(addr, len) {
            return None;
        }
        let mut bytes = [0u8; 8];
        for (i, byte) in bytes.iter_mut().take(width.bytes()).enumerate() {
            let a = addr + i as u64;
            *byte = if a >= self.code_lo && a < self.code_hi {
                self.program.code()[(a - self.code_lo) as usize]
            } else if a >= self.data_lo && a < self.data_hi {
                self.program.data()[(a - self.data_lo) as usize]
            } else {
                0 // bss
            };
        }
        Some(u64::from_le_bytes(bytes))
    }

    /// Clamps a widened store interval to the extent of the data/bss
    /// symbol containing `lo` — the documented allocation-region
    /// assumption. Returns the clamped inclusive upper bound.
    fn clamp_to_extent(&self, lo: u64, hi: u64, stride: u64) -> u64 {
        let Some(&(_, end)) = self.extents.iter().rev().find(|&&(s, e)| s <= lo && lo < e) else {
            return hi;
        };
        if hi < end {
            return hi;
        }
        let stride = stride.max(1);
        lo + ((end - 1 - lo) / stride) * stride
    }

    /// The allocation-region assumption applied to an abstract value:
    /// a widened `Range` whose `lo` sits inside a data/bss symbol
    /// extent is assumed to stay within that allocation, so its upper
    /// bound is pulled back to the extent end. Applied at every join
    /// so loop-carried pointer increments converge inside their
    /// buffer instead of escalating to the full address space (and
    /// then to `Top` via `+c` overflow). Validated dynamically by the
    /// soundness oracle. `None` means "unchanged".
    fn clamp_value(&self, v: &Value) -> Option<Value> {
        let Value::Range { lo, hi, stride } = *v else {
            return None;
        };
        let clamped = self.clamp_to_extent(lo, hi, stride);
        if clamped == hi {
            return None;
        }
        Some(Value::Range {
            lo,
            hi: clamped,
            stride,
        })
    }
}

/// Results of whole-program value analysis.
#[derive(Clone, Debug)]
pub struct TargetResolution {
    /// Per-`jalr` resolution, keyed by the instruction address.
    pub indirect_targets: BTreeMap<u64, TargetSet>,
    /// Sound summary of every store (phase-1, loads-as-`Top` facts).
    pub stores: StoreSummary,
    /// Blocks (by id) reached by the value solver.
    pub reached: Vec<bool>,
    /// True if the program may install a signal handler, forcing a
    /// `Top` boundary on every address-taken block.
    pub signals_possible: bool,
}

impl TargetResolution {
    /// Runs the two-phase whole-program value analysis.
    pub fn compute(program: &Program, cfg: &Cfg) -> TargetResolution {
        let image = MemImage::new(program);
        let signals_possible = may_install_handler(cfg);
        // Phase 1: loads are Top; collect the store summary.
        let mut solver = Solver::new(cfg, &image, signals_possible, None);
        solver.run();
        let stores = solver.collect_stores();
        // Phase 2: resolve loads against the phase-1 summary.
        let mut solver = Solver::new(cfg, &image, signals_possible, Some(&stores));
        solver.run();
        let indirect_targets = solver.site_targets();
        let reached = solver.reached();
        TargetResolution {
            indirect_targets,
            stores,
            reached,
            signals_possible,
        }
    }

    /// Addresses of `jalr` sites the analysis could not resolve.
    pub fn unresolved_sites(&self) -> Vec<u64> {
        self.indirect_targets
            .iter()
            .filter(|(_, t)| **t == TargetSet::Unresolved)
            .map(|(&a, _)| a)
            .collect()
    }
}

/// True if some syscall's number cannot be pinned to a non-`sigaction`
/// constant by the nearest in-block `r0` definition.
fn may_install_handler(cfg: &Cfg) -> bool {
    for block in cfg.blocks() {
        for (i, &(_, inst)) in block.insts.iter().enumerate() {
            if !matches!(inst, Inst::Syscall) {
                continue;
            }
            let mut number = None;
            for &(_, prev) in block.insts[..i].iter().rev() {
                match prev {
                    Inst::Li { rd: Reg::R0, imm } => {
                        number = Some(imm as u64);
                        break;
                    }
                    _ if prev.dest_reg() == Some(Reg::R0) => break,
                    _ => {}
                }
            }
            match number {
                Some(n) if n != SYS_SIGACTION => {}
                _ => return true,
            }
        }
    }
    false
}

/// One abstract interpretation pass over the whole program.
struct Solver<'a> {
    cfg: &'a Cfg,
    image: &'a MemImage<'a>,
    /// Phase-1 store summary; `Some` enables load resolution.
    prior_stores: Option<&'a StoreSummary>,
    entry_facts: Vec<RegFile>,
    reached: Vec<bool>,
    visits: Vec<u32>,
    /// Address-taken blocks ∪ call fall-through blocks: everywhere an
    /// unresolvable `jalr` must be assumed able to land.
    sinks: Vec<BlockId>,
    /// Per-site joined target values, keyed by the `jalr` address.
    targets: BTreeMap<u64, Value>,
    signals_possible: bool,
}

impl<'a> Solver<'a> {
    fn new(
        cfg: &'a Cfg,
        image: &'a MemImage<'a>,
        signals_possible: bool,
        prior_stores: Option<&'a StoreSummary>,
    ) -> Solver<'a> {
        let mut sinks: BTreeSet<BlockId> = cfg.address_taken().iter().copied().collect();
        for block in cfg.blocks() {
            match block.terminator {
                Terminator::Call { fall, .. } | Terminator::IndirectCall { fall } => {
                    if let Some(id) = cfg.block_at(fall) {
                        sinks.insert(id);
                    }
                }
                _ => {}
            }
        }
        Solver {
            cfg,
            image,
            prior_stores,
            entry_facts: vec![RegFile::bottom(); cfg.len()],
            reached: vec![false; cfg.len()],
            visits: vec![0; cfg.len()],
            sinks: sinks.into_iter().collect(),
            targets: BTreeMap::new(),
            signals_possible,
        }
    }

    fn run(&mut self) {
        let mut queue: VecDeque<BlockId> = VecDeque::new();
        let mut queued = vec![false; self.cfg.len()];
        let push = |queue: &mut VecDeque<BlockId>, queued: &mut Vec<bool>, id: BlockId| {
            if !queued[id] {
                queued[id] = true;
                queue.push_back(id);
            }
        };

        // The loader's register state is not modeled: entry begins Top.
        let entry = self.cfg.entry();
        self.reached[entry] = true;
        self.entry_facts[entry] = RegFile::top();
        push(&mut queue, &mut queued, entry);
        if self.signals_possible {
            for &id in self.cfg.address_taken() {
                self.reached[id] = true;
                self.entry_facts[id] = RegFile::top();
                push(&mut queue, &mut queued, id);
            }
        }

        while let Some(id) = queue.pop_front() {
            queued[id] = false;
            self.visits[id] = self.visits[id].saturating_add(1);
            let (out, flows) = self.flow_out(id);
            for (succ, fact) in flows.iter().map(|&s| (s, &out)) {
                if !self.reached[succ] {
                    self.reached[succ] = true;
                    let mut init = fact.clone();
                    self.clamp_alloc(&mut init);
                    self.entry_facts[succ] = init;
                    push(&mut queue, &mut queued, succ);
                } else {
                    let visits = self.visits[succ];
                    let mut merged = self.entry_facts[succ].clone();
                    merged.join_from(fact, visits);
                    // Clamp before the change test: a widened bound
                    // pulled back to its allocation extent must compare
                    // equal to the already-clamped stored fact, or the
                    // widen-then-clamp cycle would requeue forever.
                    self.clamp_alloc(&mut merged);
                    if merged != self.entry_facts[succ] {
                        self.entry_facts[succ] = merged;
                        push(&mut queue, &mut queued, succ);
                    }
                }
            }
        }
    }

    /// Applies the allocation-region assumption to every register of a
    /// boundary fact (see [`MemImage::clamp_value`]).
    fn clamp_alloc(&self, fact: &mut RegFile) {
        for reg in Reg::all() {
            if let Some(clamped) = self.image.clamp_value(fact.get(reg)) {
                fact.set(reg, clamped);
            }
        }
    }

    /// Transfers `block`'s entry fact to its exit and returns the exit
    /// fact plus the successor blocks it flows to (including resolved
    /// or sink-approximated indirect edges). Also folds the block's
    /// `jalr` target value into the per-site map.
    fn flow_out(&mut self, id: BlockId) -> (RegFile, Vec<BlockId>) {
        let cfg = self.cfg;
        let block = &cfg.blocks()[id];
        let mut fact = self.entry_facts[id].clone();
        let mut jalr_target = Value::Bottom;
        for &(addr, inst) in &block.insts {
            if let Inst::Jalr { rs, offset, .. } = inst {
                // Read the target before the link register is written
                // (`jalr rd, rd` is the ret idiom).
                jalr_target = fact.get(rs).add_const(offset as i64 as u64);
            }
            self.transfer(&mut fact, addr, &inst);
        }

        let mut flows = Vec::new();
        let direct = |flows: &mut Vec<BlockId>, target: u64| {
            if let Some(succ) = cfg.block_at(target) {
                flows.push(succ);
            }
        };
        match block.terminator {
            Terminator::Jump(t) => direct(&mut flows, t),
            Terminator::Branch { taken, fall } => {
                direct(&mut flows, taken);
                direct(&mut flows, fall);
            }
            Terminator::FallThrough(fall) | Terminator::Syscall { fall } => {
                direct(&mut flows, fall)
            }
            // No skip edge for calls: the return site is reached by
            // the callee's ret flowing back through the indirect
            // machinery below.
            Terminator::Call { target, .. } => direct(&mut flows, target),
            Terminator::IndirectCall { .. } | Terminator::IndirectJump => {
                let site = block.insts.last().expect("non-empty block").0;
                let seen = self.targets.entry(site).or_insert(Value::Bottom);
                *seen = seen.join(&jalr_target);
                match jalr_target.enumerate(ENUM_CAP) {
                    Some(addrs) => {
                        for addr in addrs {
                            if let Some(succ) = cfg.block_at(addr) {
                                flows.push(succ);
                            }
                        }
                    }
                    None => flows.extend(self.sinks.iter().copied()),
                }
            }
            Terminator::Exit | Terminator::Halt | Terminator::FallOffEnd => {}
        }
        (fact, flows)
    }

    /// Abstractly executes one instruction.
    fn transfer(&self, fact: &mut RegFile, addr: u64, inst: &Inst) {
        match *inst {
            Inst::Nop | Inst::Jmp { .. } | Inst::Branch { .. } | Inst::Halt | Inst::St { .. } => {}
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = Value::alu(op, fact.get(rs1), fact.get(rs2));
                fact.set(rd, v);
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = Value::alu(op, fact.get(rs1), &Value::constant(imm as i64 as u64));
                fact.set(rd, v);
            }
            Inst::Li { rd, imm } => fact.set(rd, Value::constant(imm as u64)),
            Inst::Mov { rd, rs } => {
                let v = fact.get(rs).clone();
                fact.set(rd, v);
            }
            Inst::Ld {
                rd,
                base,
                offset,
                width,
            } => {
                let addr_val = fact.get(base).add_const(offset as i64 as u64);
                fact.set(rd, self.resolve_load(&addr_val, width));
            }
            Inst::Jal { rd, .. } | Inst::Jalr { rd, .. } => {
                fact.set(rd, Value::constant(addr + inst.size_bytes()));
            }
            // The kernel writes only r0 (the return value); buffer
            // writes go to memory, and signal delivery save/restores
            // the full file transparently.
            Inst::Syscall => fact.set(Reg::R0, Value::Top),
        }
    }

    /// Resolves a load from the initial image when its address set is
    /// enumerable, inside the image, and provably never stored to.
    fn resolve_load(&self, addr_val: &Value, width: MemWidth) -> Value {
        let Some(stores) = self.prior_stores else {
            return Value::Top; // phase 1
        };
        if stores.unknown {
            return Value::Top;
        }
        let Some(addrs) = addr_val.enumerate(ENUM_CAP) else {
            return Value::Top;
        };
        let len = width.bytes() as u64;
        let mut out = BTreeSet::new();
        for a in addrs {
            if !self.image.in_image(a, len) || stores.may_write(a, a + len) {
                return Value::Top;
            }
            match self.image.read_init(a, width) {
                Some(v) => {
                    out.insert(v);
                }
                None => return Value::Top,
            }
        }
        Value::from_set(out)
    }

    /// Walks every reached block's final facts and summarizes all
    /// stores and memory-writing syscalls.
    fn collect_stores(&self) -> StoreSummary {
        let mut summary = StoreSummary::default();
        for (id, block) in self.cfg.blocks().iter().enumerate() {
            if !self.reached[id] {
                continue;
            }
            let mut fact = self.entry_facts[id].clone();
            for &(addr, inst) in &block.insts {
                match inst {
                    Inst::St {
                        base,
                        offset,
                        width,
                        ..
                    } => {
                        let addr_val = fact.get(base).add_const(offset as i64 as u64);
                        self.add_store(&mut summary, &addr_val, width.bytes() as u64);
                    }
                    Inst::Syscall => self.add_syscall_effects(&mut summary, &fact),
                    _ => {}
                }
                self.transfer(&mut fact, addr, &inst);
            }
        }
        summary
    }

    fn add_store(&self, summary: &mut StoreSummary, addr_val: &Value, width: u64) {
        match addr_val.bounds() {
            Some((lo, hi, stride)) => {
                // Allocation-region assumption: clamp a widened store
                // interval to its base symbol's extent.
                let stride = stride.max(1);
                let hi = self.image.clamp_to_extent(lo, hi, stride);
                summary.regions.push(StoreRegion {
                    lo,
                    hi,
                    stride,
                    width,
                });
            }
            None => {
                if !matches!(addr_val, Value::Bottom) {
                    summary.unknown = true;
                }
            }
        }
    }

    /// Adds the guest-memory writes a syscall can perform, based on
    /// the abstract syscall number in `r0`.
    fn add_syscall_effects(&self, summary: &mut StoreSummary, fact: &RegFile) {
        let Some(numbers) = fact.get(Reg::R0).enumerate(64) else {
            summary.unknown = true;
            return;
        };
        for n in numbers {
            let (buf, len) = match n {
                SYS_READ => (Reg::R2, Reg::R3),
                SYS_GETRANDOM => (Reg::R1, Reg::R2),
                _ => continue,
            };
            let buf_val = fact.get(buf);
            let max_len = match fact.get(len).bounds() {
                Some((_, hi, _)) => hi,
                None => {
                    summary.unknown = true;
                    continue;
                }
            };
            if max_len == 0 {
                continue;
            }
            match buf_val.bounds() {
                Some((lo, hi, stride)) => {
                    let stride = stride.max(1);
                    let hi = self.image.clamp_to_extent(lo, hi, stride);
                    summary.regions.push(StoreRegion {
                        lo,
                        hi,
                        stride,
                        width: max_len,
                    });
                }
                None => {
                    if !matches!(buf_val, Value::Bottom) {
                        summary.unknown = true;
                    }
                }
            }
        }
    }

    /// Final per-site target sets.
    fn site_targets(&self) -> BTreeMap<u64, TargetSet> {
        let mut map = BTreeMap::new();
        for (block_id, block) in self.cfg.blocks().iter().enumerate() {
            let is_indirect = matches!(
                block.terminator,
                Terminator::IndirectCall { .. } | Terminator::IndirectJump
            );
            if !is_indirect || !self.reached[block_id] {
                continue;
            }
            let site = block.insts.last().expect("non-empty block").0;
            let resolved = self
                .targets
                .get(&site)
                .and_then(|v| v.enumerate(ENUM_CAP))
                .map(|addrs| TargetSet::Resolved(addrs.into_iter().collect()))
                .unwrap_or(TargetSet::Unresolved);
            map.insert(site, resolved);
        }
        map
    }

    fn reached(&self) -> Vec<bool> {
        self.reached.clone()
    }
}

/// Convenience: builds the CFG and resolves the whole program.
pub fn resolve_targets(program: &Program) -> Result<TargetResolution, AnalysisError> {
    let cfg = Cfg::build(program)?;
    Ok(TargetResolution::compute(program, &cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vals: &[u64]) -> Value {
        Value::from_set(vals.iter().copied().collect())
    }

    #[test]
    fn join_sets_stays_exact() {
        let j = set(&[1, 5]).join(&set(&[9]));
        assert_eq!(j, set(&[1, 5, 9]));
    }

    #[test]
    fn join_overflow_widens_with_gcd_stride() {
        let a: BTreeSet<u64> = (0..SET_CAP as u64 + 1).map(|k| 100 + 8 * k).collect();
        let v = Value::from_set(a);
        match v {
            Value::Range { lo, hi, stride } => {
                assert_eq!(lo, 100);
                assert_eq!(stride, 8);
                assert_eq!(hi, 100 + 8 * SET_CAP as u64);
            }
            other => panic!("expected range, got {other:?}"),
        }
    }

    #[test]
    fn widen_pushes_unstable_upper_bound() {
        let old = set(&[0, 64]);
        let new = old.join(&set(&[128]));
        let w = Value::widen(&old, &new);
        match w {
            Value::Range { lo, hi, stride } => {
                assert_eq!(lo, 0);
                assert_eq!(stride, 64);
                assert!(hi > u64::MAX - 64);
            }
            other => panic!("expected range, got {other:?}"),
        }
    }

    #[test]
    fn alu_set_set_matches_interpreter() {
        let v = Value::alu(AluOp::Add, &set(&[3, 5]), &set(&[10]));
        assert_eq!(v, set(&[13, 15]));
        let v = Value::alu(AluOp::Divu, &set(&[8]), &set(&[0]));
        assert_eq!(v, set(&[u64::MAX])); // divide-by-zero semantics
    }

    #[test]
    fn and_mask_bounds_any_value() {
        let v = Value::alu(AluOp::And, &Value::Top, &set(&[7]));
        assert_eq!(
            v,
            Value::Range {
                lo: 0,
                hi: 7,
                stride: 1
            }
        );
    }

    #[test]
    fn store_region_overlap_respects_stride() {
        // Stores at 0, 64, 128, ... of width 8.
        let r = StoreRegion {
            lo: 0,
            hi: 640,
            stride: 64,
            width: 8,
        };
        assert!(r.may_overlap(64, 72));
        assert!(r.may_overlap(70, 71)); // tail of the store at 64
        assert!(!r.may_overlap(8, 64)); // gap between stores
        assert!(!r.may_overlap(648, 700)); // past the last store
    }

    #[test]
    fn enumerate_caps() {
        let v = Value::Range {
            lo: 0,
            hi: 8 * (ENUM_CAP + 1),
            stride: 8,
        };
        assert!(v.enumerate(ENUM_CAP).is_none());
        let v = Value::Range {
            lo: 0,
            hi: 16,
            stride: 8,
        };
        assert_eq!(v.enumerate(ENUM_CAP), Some(vec![0, 8, 16]));
    }
}
