//! Instruction set definition.

use crate::reg::Reg;
use std::fmt;

/// Memory access width for load/store instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes (the natural word size).
    D,
}

impl MemWidth {
    /// Number of bytes accessed.
    pub fn bytes(self) -> usize {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }

    /// Encoded nibble value.
    pub fn to_nibble(self) -> u8 {
        match self {
            MemWidth::B => 0,
            MemWidth::H => 1,
            MemWidth::W => 2,
            MemWidth::D => 3,
        }
    }

    /// Decodes a memory width from its encoded nibble.
    pub fn from_nibble(n: u8) -> Option<MemWidth> {
        match n {
            0 => Some(MemWidth::B),
            1 => Some(MemWidth::H),
            2 => Some(MemWidth::W),
            3 => Some(MemWidth::D),
            _ => None,
        }
    }
}

impl fmt::Display for MemWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemWidth::B => "b",
            MemWidth::H => "h",
            MemWidth::W => "w",
            MemWidth::D => "d",
        };
        f.write_str(s)
    }
}

/// Comparison performed by a conditional branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if signed less-than.
    Lt,
    /// Branch if signed greater-or-equal.
    Ge,
    /// Branch if unsigned less-than.
    Ltu,
    /// Branch if unsigned greater-or-equal.
    Geu,
}

impl BranchKind {
    /// Evaluates the comparison on two register values.
    pub fn test(self, a: u64, b: u64) -> bool {
        match self {
            BranchKind::Eq => a == b,
            BranchKind::Ne => a != b,
            BranchKind::Lt => (a as i64) < (b as i64),
            BranchKind::Ge => (a as i64) >= (b as i64),
            BranchKind::Ltu => a < b,
            BranchKind::Geu => a >= b,
        }
    }

    pub(crate) fn to_nibble(self) -> u8 {
        match self {
            BranchKind::Eq => 0,
            BranchKind::Ne => 1,
            BranchKind::Lt => 2,
            BranchKind::Ge => 3,
            BranchKind::Ltu => 4,
            BranchKind::Geu => 5,
        }
    }

    pub(crate) fn from_nibble(n: u8) -> Option<BranchKind> {
        match n {
            0 => Some(BranchKind::Eq),
            1 => Some(BranchKind::Ne),
            2 => Some(BranchKind::Lt),
            3 => Some(BranchKind::Ge),
            4 => Some(BranchKind::Ltu),
            5 => Some(BranchKind::Geu),
            _ => None,
        }
    }

    /// The assembler mnemonic (`beq`, `bne`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchKind::Eq => "beq",
            BranchKind::Ne => "bne",
            BranchKind::Lt => "blt",
            BranchKind::Ge => "bge",
            BranchKind::Ltu => "bltu",
            BranchKind::Geu => "bgeu",
        }
    }
}

/// Three-register ALU operation selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (÷0 yields `u64::MAX`).
    Divu,
    /// Unsigned remainder (mod 0 yields the dividend).
    Remu,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
    /// Signed set-less-than (1 or 0).
    Slt,
    /// Unsigned set-less-than (1 or 0).
    Sltu,
}

impl AluOp {
    /// Applies the operation. Division and remainder by zero yield
    /// `u64::MAX` and the dividend respectively (RISC-V semantics), so the
    /// interpreter never faults on arithmetic.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32),
            AluOp::Shr => a.wrapping_shr(b as u32),
            AluOp::Sar => ((a as i64).wrapping_shr(b as u32)) as u64,
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
            AluOp::Sltu => u64::from(a < b),
        }
    }

    /// The encoded sub-operation byte.
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Decodes an ALU operation from its encoded byte.
    pub fn from_byte(b: u8) -> Option<AluOp> {
        Some(match b {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::Mul,
            3 => AluOp::Divu,
            4 => AluOp::Remu,
            5 => AluOp::And,
            6 => AluOp::Or,
            7 => AluOp::Xor,
            8 => AluOp::Shl,
            9 => AluOp::Shr,
            10 => AluOp::Sar,
            11 => AluOp::Slt,
            12 => AluOp::Sltu,
            _ => return None,
        })
    }

    /// The assembler mnemonic for the register form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Divu => "divu",
            AluOp::Remu => "remu",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Top-level opcode byte used by the binary encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // one-to-one with the documented `Inst` variants
pub enum Opcode {
    Nop = 0x00,
    Alu = 0x01,
    AluImm = 0x02,
    Li = 0x03,
    Mov = 0x04,
    Ld = 0x05,
    St = 0x06,
    Jmp = 0x07,
    Jal = 0x08,
    Jalr = 0x09,
    Branch = 0x0a,
    Syscall = 0x0b,
    Halt = 0x0c,
}

impl Opcode {
    pub(crate) fn from_byte(b: u8) -> Option<Opcode> {
        Some(match b {
            0x00 => Opcode::Nop,
            0x01 => Opcode::Alu,
            0x02 => Opcode::AluImm,
            0x03 => Opcode::Li,
            0x04 => Opcode::Mov,
            0x05 => Opcode::Ld,
            0x06 => Opcode::St,
            0x07 => Opcode::Jmp,
            0x08 => Opcode::Jal,
            0x09 => Opcode::Jalr,
            0x0a => Opcode::Branch,
            0x0b => Opcode::Syscall,
            0x0c => Opcode::Halt,
            _ => return None,
        })
    }
}

/// A decoded virtual-ISA instruction.
///
/// Control-transfer targets are *absolute* virtual addresses; the assembler
/// resolves labels during its second pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
// Field semantics are given in full by each variant's doc comment
// (`rd` destination, `rs*` sources, `base`+`offset` address, `target`
// absolute address); per-field docs would only repeat them.
#[allow(missing_docs)]
pub enum Inst {
    /// No operation.
    Nop,
    /// `rd := rs1 <op> rs2`.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `rd := rs1 <op> imm` (immediate sign-extended to 64 bits).
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// `rd := imm` — a full 64-bit immediate load. Occupies two encoding
    /// words (16 bytes); the only variable-length instruction.
    Li { rd: Reg, imm: i64 },
    /// `rd := rs`.
    Mov { rd: Reg, rs: Reg },
    /// `rd := mem[rs + offset]` (zero-extended for sub-word widths).
    Ld {
        rd: Reg,
        base: Reg,
        offset: i32,
        width: MemWidth,
    },
    /// `mem[base + offset] := rs` (truncated for sub-word widths).
    St {
        rs: Reg,
        base: Reg,
        offset: i32,
        width: MemWidth,
    },
    /// Unconditional jump to an absolute address.
    Jmp { target: u64 },
    /// Call: `rd := pc + size; pc := target`.
    Jal { rd: Reg, target: u64 },
    /// Indirect jump/call: `rd := pc + size; pc := rs + offset`.
    Jalr { rd: Reg, rs: Reg, offset: i32 },
    /// Conditional branch: `if rs1 <kind> rs2 then pc := target`.
    Branch {
        kind: BranchKind,
        rs1: Reg,
        rs2: Reg,
        target: u64,
    },
    /// System call. Number in `r0`, arguments in `r1`–`r5`, result in `r0`.
    Syscall,
    /// Stops the processor (used only by injected runtime stubs; guest
    /// programs exit via the `exit` syscall).
    Halt,
}

impl Inst {
    /// Encoded size in bytes: 16 for [`Inst::Li`], 8 for everything else.
    pub fn size_bytes(self) -> u64 {
        match self {
            Inst::Li { .. } => 16,
            _ => 8,
        }
    }

    /// Whether this instruction ends a basic block (any control transfer,
    /// syscall, or halt).
    pub fn ends_basic_block(self) -> bool {
        matches!(
            self,
            Inst::Jmp { .. }
                | Inst::Jal { .. }
                | Inst::Jalr { .. }
                | Inst::Branch { .. }
                | Inst::Syscall
                | Inst::Halt
        )
    }

    /// Whether this is a control-transfer instruction.
    pub fn is_control_flow(self) -> bool {
        matches!(
            self,
            Inst::Jmp { .. } | Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Branch { .. }
        )
    }

    /// Whether this instruction reads memory.
    pub fn is_mem_read(self) -> bool {
        matches!(self, Inst::Ld { .. })
    }

    /// Whether this instruction writes memory.
    pub fn is_mem_write(self) -> bool {
        matches!(self, Inst::St { .. })
    }

    /// The register written by this instruction, if any.
    ///
    /// Used by the DBI JIT for register liveness and by SuperPin's
    /// signature recorder to infer the "two registers most likely to
    /// change" (paper §4.4).
    pub fn dest_reg(self) -> Option<Reg> {
        match self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Li { rd, .. }
            | Inst::Mov { rd, .. }
            | Inst::Ld { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// The registers read by this instruction (up to three; `Syscall`
    /// conservatively reports its argument registers).
    pub fn src_regs(self) -> Vec<Reg> {
        match self {
            Inst::Nop | Inst::Halt | Inst::Jmp { .. } | Inst::Jal { .. } | Inst::Li { .. } => {
                Vec::new()
            }
            Inst::Alu { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::AluImm { rs1, .. } => vec![rs1],
            Inst::Mov { rs, .. } => vec![rs],
            Inst::Ld { base, .. } => vec![base],
            Inst::St { rs, base, .. } => vec![rs, base],
            Inst::Jalr { rs, .. } => vec![rs],
            Inst::Branch { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::Syscall => vec![Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5],
        }
    }

    /// Static branch target, if this instruction has one.
    pub fn static_target(self) -> Option<u64> {
        match self {
            Inst::Jmp { target } | Inst::Jal { target, .. } | Inst::Branch { target, .. } => {
                Some(target)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Nop => write!(f, "nop"),
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Inst::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Inst::Mov { rd, rs } => write!(f, "mov {rd}, {rs}"),
            Inst::Ld {
                rd,
                base,
                offset,
                width,
            } => write!(f, "ld{width} {rd}, {offset}({base})"),
            Inst::St {
                rs,
                base,
                offset,
                width,
            } => write!(f, "st{width} {rs}, {offset}({base})"),
            Inst::Jmp { target } => write!(f, "jmp {target:#x}"),
            Inst::Jal { rd, target } => write!(f, "jal {rd}, {target:#x}"),
            Inst::Jalr { rd, rs, offset } => write!(f, "jalr {rd}, {offset}({rs})"),
            Inst::Branch {
                kind,
                rs1,
                rs2,
                target,
            } => write!(f, "{} {rs1}, {rs2}, {target:#x}", kind.mnemonic()),
            Inst::Syscall => write!(f, "syscall"),
            Inst::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_kind_test_matrix() {
        assert!(BranchKind::Eq.test(3, 3));
        assert!(!BranchKind::Eq.test(3, 4));
        assert!(BranchKind::Ne.test(3, 4));
        assert!(BranchKind::Lt.test(-1i64 as u64, 0));
        assert!(!BranchKind::Ltu.test(-1i64 as u64, 0));
        assert!(BranchKind::Ge.test(0, -5i64 as u64));
        assert!(BranchKind::Geu.test(u64::MAX, 0));
    }

    #[test]
    fn alu_div_by_zero_is_defined() {
        assert_eq!(AluOp::Divu.apply(10, 0), u64::MAX);
        assert_eq!(AluOp::Remu.apply(10, 0), 10);
    }

    #[test]
    fn alu_shift_and_compare() {
        assert_eq!(AluOp::Shl.apply(1, 8), 256);
        assert_eq!(AluOp::Sar.apply(-8i64 as u64, 1), -4i64 as u64);
        assert_eq!(AluOp::Slt.apply(-1i64 as u64, 0), 1);
        assert_eq!(AluOp::Sltu.apply(-1i64 as u64, 0), 0);
    }

    #[test]
    fn sizes_and_block_ends() {
        assert_eq!(Inst::Nop.size_bytes(), 8);
        assert_eq!(
            Inst::Li {
                rd: Reg::R1,
                imm: 0
            }
            .size_bytes(),
            16
        );
        assert!(Inst::Syscall.ends_basic_block());
        assert!(Inst::Halt.ends_basic_block());
        assert!(!Inst::Nop.ends_basic_block());
        assert!(Inst::Jmp { target: 0 }.ends_basic_block());
        assert!(!Inst::Syscall.is_control_flow());
    }

    #[test]
    fn dest_and_src_regs() {
        let inst = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::R3,
            rs1: Reg::R1,
            rs2: Reg::R2,
        };
        assert_eq!(inst.dest_reg(), Some(Reg::R3));
        assert_eq!(inst.src_regs(), vec![Reg::R1, Reg::R2]);
        assert_eq!(Inst::Syscall.dest_reg(), None);
        assert_eq!(
            Inst::St {
                rs: Reg::R1,
                base: Reg::SP,
                offset: 8,
                width: MemWidth::D
            }
            .src_regs(),
            vec![Reg::R1, Reg::SP]
        );
    }

    #[test]
    fn display_formats() {
        let inst = Inst::Ld {
            rd: Reg::R2,
            base: Reg::SP,
            offset: -16,
            width: MemWidth::D,
        };
        assert_eq!(inst.to_string(), "ldd r2, -16(sp)");
        let branch = Inst::Branch {
            kind: BranchKind::Ne,
            rs1: Reg::R1,
            rs2: Reg::R0,
            target: 0x1000,
        };
        assert_eq!(branch.to_string(), "bne r1, r0, 0x1000");
    }

    #[test]
    fn alu_op_round_trips_byte_encoding() {
        for b in 0..13 {
            let op = AluOp::from_byte(b).expect("valid op byte");
            assert_eq!(op.to_byte(), b);
        }
        assert_eq!(AluOp::from_byte(13), None);
    }

    #[test]
    fn static_targets() {
        assert_eq!(Inst::Jmp { target: 0x40 }.static_target(), Some(0x40));
        assert_eq!(
            Inst::Jalr {
                rd: Reg::RA,
                rs: Reg::R1,
                offset: 0
            }
            .static_target(),
            None
        );
    }
}
