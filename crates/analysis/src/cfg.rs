//! Basic-block discovery and control-flow graph construction.
//!
//! A [`Cfg`] is built from a decoded [`Program`] by a linear sweep:
//! every instruction is decoded once, leaders are collected (the entry
//! point, targets of direct control flow, instructions following a
//! block terminator, and address-taken instructions), and the code is
//! sliced into [`Block`]s at leader boundaries.
//!
//! Indirect control flow (`jalr`) has no static target, so the graph
//! over-approximates it: every *address-taken* instruction — a code
//! address stored in a data word or loaded by a `li` — is treated as a
//! potential indirect-entry point and becomes a CFG root alongside the
//! program entry. An indirect call (`jalr` with `rs != rd`) keeps a
//! fall-through edge modelling its eventual return; `jalr rd, rd`
//! (the builder's `ret` idiom, which reads the link register it
//! overwrites) is a pure sink.
//!
//! The `li r0, 0; syscall` sequence is the guest exit idiom
//! (`SyscallNo::Exit` is 0); blocks ending in it get a no-successor
//! [`Terminator::Exit`] instead of a fall-through edge.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use superpin_isa::{Inst, Program, Reg};

/// Index of a block within [`Cfg::blocks`].
pub type BlockId = usize;

/// How a basic block ends, with the raw successor addresses. Edges in
/// [`Block::succs`] only cover targets that land inside the code
/// section; the terminator keeps the addresses themselves so lints can
/// flag control flow that escapes the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional direct jump.
    Jump(u64),
    /// Conditional branch: taken target plus fall-through.
    Branch { taken: u64, fall: u64 },
    /// Direct call (`jal`); the fall-through edge models the return.
    Call { target: u64, fall: u64 },
    /// Indirect call (`jalr` with `rs != rd`); the target is unknown
    /// but the fall-through models the return.
    IndirectCall { fall: u64 },
    /// Indirect jump or return (`jalr rd, rd`); no static successor.
    IndirectJump,
    /// Non-exit syscall; execution resumes at the fall-through.
    Syscall { fall: u64 },
    /// The `li r0, 0; syscall` exit idiom. Never returns.
    Exit,
    /// `halt`.
    Halt,
    /// The next instruction starts a new block (it is a leader).
    FallThrough(u64),
    /// Execution would run past the end of the code section.
    FallOffEnd,
}

/// A maximal straight-line run of instructions.
#[derive(Clone, Debug)]
pub struct Block {
    /// Address of the first instruction.
    pub start: u64,
    /// Instructions in address order, with their addresses.
    pub insts: Vec<(u64, Inst)>,
    /// How the block ends.
    pub terminator: Terminator,
    /// Successor blocks (targets inside the code section only).
    pub succs: Vec<BlockId>,
    /// Predecessor blocks.
    pub preds: Vec<BlockId>,
}

impl Block {
    /// Address one past the last instruction.
    pub fn end(&self) -> u64 {
        match self.insts.last() {
            Some(&(addr, inst)) => addr + inst.size_bytes(),
            None => self.start,
        }
    }
}

/// Control-flow graph over a decoded program.
#[derive(Clone, Debug)]
pub struct Cfg {
    blocks: Vec<Block>,
    /// Start address -> block id.
    by_start: BTreeMap<u64, BlockId>,
    entry: BlockId,
    /// Blocks whose start address is taken (possible indirect targets).
    address_taken: Vec<BlockId>,
}

/// Errors from CFG construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The code section stopped decoding before its end.
    Decode { addr: u64 },
    /// The entry point is not a decoded instruction boundary.
    BadEntry { entry: u64 },
    /// The program has no code.
    EmptyProgram,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Decode { addr } => {
                write!(f, "code stops decoding at {addr:#x} before the section end")
            }
            AnalysisError::BadEntry { entry } => {
                write!(f, "entry point {entry:#x} is not an instruction boundary")
            }
            AnalysisError::EmptyProgram => write!(f, "program has no code"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl Cfg {
    /// Builds the CFG for `program`.
    pub fn build(program: &Program) -> Result<Cfg, AnalysisError> {
        if program.code_len() == 0 {
            return Err(AnalysisError::EmptyProgram);
        }

        // Linear sweep: decode every instruction once. The ISA has no
        // inline data or padding, so a decode failure before the end of
        // the section is an error rather than a gap to skip.
        let mut insts: BTreeMap<u64, Inst> = BTreeMap::new();
        let mut addr = program.code_base();
        let code_end = program.code_base() + program.code_len();
        while addr < code_end {
            let (inst, len) = program
                .decode_at(addr)
                .map_err(|_| AnalysisError::Decode { addr })?;
            insts.insert(addr, inst);
            addr += len;
        }

        if !insts.contains_key(&program.entry()) {
            return Err(AnalysisError::BadEntry {
                entry: program.entry(),
            });
        }

        let taken_addrs = address_taken_addrs(program, &insts);

        // Leaders: entry, address-taken instructions, direct targets,
        // and every instruction following a block terminator.
        let mut leaders: BTreeSet<u64> = BTreeSet::new();
        leaders.insert(program.entry());
        leaders.extend(taken_addrs.iter().copied());
        for (&addr, inst) in &insts {
            if let Some(target) = inst.static_target() {
                if insts.contains_key(&target) {
                    leaders.insert(target);
                }
            }
            if inst.ends_basic_block() {
                let next = addr + inst.size_bytes();
                if insts.contains_key(&next) {
                    leaders.insert(next);
                }
            }
        }

        // Slice into blocks at leader boundaries.
        let mut blocks: Vec<Block> = Vec::new();
        let mut by_start: BTreeMap<u64, BlockId> = BTreeMap::new();
        let mut current: Option<Block> = None;
        for (&addr, &inst) in &insts {
            if leaders.contains(&addr) {
                if let Some(block) = current.take() {
                    blocks.push(block);
                }
            }
            let block = current.get_or_insert_with(|| Block {
                start: addr,
                insts: Vec::new(),
                terminator: Terminator::FallOffEnd,
                succs: Vec::new(),
                preds: Vec::new(),
            });
            block.insts.push((addr, inst));
            if inst.ends_basic_block() {
                blocks.push(current.take().expect("block in progress"));
            }
        }
        if let Some(block) = current.take() {
            blocks.push(block);
        }
        for (id, block) in blocks.iter().enumerate() {
            by_start.insert(block.start, id);
        }

        // Classify terminators and wire edges.
        for block in &mut blocks {
            block.terminator = classify_terminator(block, &insts);
        }
        let mut edges: Vec<(BlockId, BlockId)> = Vec::new();
        for (id, block) in blocks.iter().enumerate() {
            for target in terminator_targets(block.terminator) {
                if let Some(&succ) = by_start.get(&target) {
                    edges.push((id, succ));
                }
            }
        }
        for (from, to) in edges {
            if !blocks[from].succs.contains(&to) {
                blocks[from].succs.push(to);
            }
            if !blocks[to].preds.contains(&from) {
                blocks[to].preds.push(from);
            }
        }

        let entry = by_start[&program.entry()];
        let address_taken = taken_addrs
            .iter()
            .filter_map(|addr| by_start.get(addr).copied())
            .collect();

        Ok(Cfg {
            blocks,
            by_start,
            entry,
            address_taken,
        })
    }

    /// All blocks, ordered by start address.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the graph has no blocks (never true for a built CFG).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block containing the program entry point.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Blocks whose start address is taken somewhere in the program
    /// (data words or `li` immediates); potential indirect targets.
    pub fn address_taken(&self) -> &[BlockId] {
        &self.address_taken
    }

    /// Roots for forward analyses: the entry plus every address-taken
    /// block (any of them may be reached through a `jalr`).
    pub fn roots(&self) -> Vec<BlockId> {
        let mut roots = vec![self.entry];
        for &id in &self.address_taken {
            if !roots.contains(&id) {
                roots.push(id);
            }
        }
        roots
    }

    /// The block starting exactly at `addr`.
    pub fn block_at(&self, addr: u64) -> Option<BlockId> {
        self.by_start.get(&addr).copied()
    }

    /// The block whose address range contains `addr`.
    pub fn block_containing(&self, addr: u64) -> Option<BlockId> {
        let (_, &id) = self.by_start.range(..=addr).next_back()?;
        if addr < self.blocks[id].end() {
            Some(id)
        } else {
            None
        }
    }

    /// Blocks reachable from [`Cfg::roots`].
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = self.roots();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id], true) {
                continue;
            }
            for &succ in &self.blocks[id].succs {
                if !seen[succ] {
                    stack.push(succ);
                }
            }
        }
        seen
    }
}

/// Code addresses whose value appears somewhere a register could load
/// it from: 8-byte words in the data section, or `li` immediates. Only
/// instruction boundaries count — a data word that happens to point
/// into the middle of a `li` cannot be decoded as an entry point.
fn address_taken_addrs(program: &Program, insts: &BTreeMap<u64, Inst>) -> BTreeSet<u64> {
    let mut taken = BTreeSet::new();
    let data = program.data();
    for chunk in data.chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        if insts.contains_key(&word) {
            taken.insert(word);
        }
    }
    for inst in insts.values() {
        if let Inst::Li { imm, .. } = inst {
            let addr = *imm as u64;
            if insts.contains_key(&addr) {
                taken.insert(addr);
            }
        }
    }
    taken
}

fn classify_terminator(block: &Block, insts: &BTreeMap<u64, Inst>) -> Terminator {
    let &(last_addr, last) = block.insts.last().expect("blocks are non-empty");
    let fall = last_addr + last.size_bytes();
    let next_decodes = insts.contains_key(&fall);
    match last {
        Inst::Jmp { target } => Terminator::Jump(target),
        Inst::Branch { target, .. } => Terminator::Branch {
            taken: target,
            fall,
        },
        Inst::Jal { target, .. } => Terminator::Call { target, fall },
        // `jalr rd, rd` reads the link register it overwrites — the
        // builder's `ret`. Anything else is an indirect call whose
        // return lands at the fall-through.
        Inst::Jalr { rd, rs, .. } if rd == rs => Terminator::IndirectJump,
        Inst::Jalr { .. } => {
            if next_decodes {
                Terminator::IndirectCall { fall }
            } else {
                Terminator::IndirectJump
            }
        }
        Inst::Syscall => {
            if is_exit_syscall(block) {
                Terminator::Exit
            } else if next_decodes {
                Terminator::Syscall { fall }
            } else {
                Terminator::FallOffEnd
            }
        }
        Inst::Halt => Terminator::Halt,
        _ => {
            if next_decodes {
                Terminator::FallThrough(fall)
            } else {
                Terminator::FallOffEnd
            }
        }
    }
}

/// True if the block's final `syscall` is the exit idiom: the nearest
/// in-block definition of `r0` before it is `li r0, 0` (the kernel's
/// `SyscallNo::Exit` is syscall number 0).
/// A block that sets `r0` some other way — or not at all — is
/// conservatively assumed to return.
fn is_exit_syscall(block: &Block) -> bool {
    for &(_, inst) in block.insts.iter().rev().skip(1) {
        match inst {
            Inst::Li { rd: Reg::R0, imm } => return imm == 0,
            _ if inst.dest_reg() == Some(Reg::R0) => return false,
            _ => {}
        }
    }
    false
}

fn terminator_targets(terminator: Terminator) -> Vec<u64> {
    match terminator {
        Terminator::Jump(target) => vec![target],
        Terminator::Branch { taken, fall } => vec![taken, fall],
        Terminator::Call { target, fall } => vec![target, fall],
        Terminator::IndirectCall { fall } => vec![fall],
        Terminator::Syscall { fall } => vec![fall],
        Terminator::FallThrough(fall) => vec![fall],
        Terminator::IndirectJump | Terminator::Exit | Terminator::Halt | Terminator::FallOffEnd => {
            vec![]
        }
    }
}
