//! RV32IM instruction set.
//!
//! The system-integration study (paper Section VI-D) compares the
//! CGRAs against a 750 MHz in-order RV32IM core by cycles and energy.
//! This module defines the instruction subset the kernels need — the
//! full RV32I register/immediate/branch/load-store groups plus the M
//! extension. The core executes these values directly; no machine
//! words are built, but [`Instr::check`] holds every field to the
//! range its RV32 encoding allows.

/// Comparison used by conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchOp {
    /// `beq`
    Eq,
    /// `bne`
    Ne,
    /// `blt` (signed)
    Lt,
    /// `bge` (signed)
    Ge,
    /// `bltu`
    Ltu,
    /// `bgeu`
    Geu,
}

/// ALU operation (register-register and, where legal, immediate forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// `add`/`addi`
    Add,
    /// `sub` (register form only)
    Sub,
    /// `sll`/`slli`
    Sll,
    /// `slt`/`slti`
    Slt,
    /// `sltu`/`sltiu`
    Sltu,
    /// `xor`/`xori`
    Xor,
    /// `srl`/`srli`
    Srl,
    /// `sra`/`srai`
    Sra,
    /// `or`/`ori`
    Or,
    /// `and`/`andi`
    And,
}

/// M-extension operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulOp {
    /// `mul`
    Mul,
    /// `mulh`
    Mulh,
    /// `mulhsu`
    Mulhsu,
    /// `mulhu`
    Mulhu,
    /// `div`
    Div,
    /// `divu`
    Divu,
    /// `rem`
    Rem,
    /// `remu`
    Remu,
}

/// One RV32IM instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `lui rd, imm20` (imm is the final register value's upper bits).
    Lui {
        /// Destination register.
        rd: u8,
        /// Upper-immediate value (low 12 bits must be zero).
        imm: u32,
    },
    /// `jal rd, offset`
    Jal {
        /// Link register.
        rd: u8,
        /// Byte offset from this instruction.
        offset: i32,
    },
    /// `jalr rd, rs1, offset`
    Jalr {
        /// Link register.
        rd: u8,
        /// Base register.
        rs1: u8,
        /// Byte offset.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison.
        op: BranchOp,
        /// First source.
        rs1: u8,
        /// Second source.
        rs2: u8,
        /// Byte offset from this instruction.
        offset: i32,
    },
    /// `lw rd, offset(rs1)`
    Lw {
        /// Destination.
        rd: u8,
        /// Base register.
        rs1: u8,
        /// Byte offset.
        offset: i32,
    },
    /// `sw rs2, offset(rs1)`
    Sw {
        /// Base register.
        rs1: u8,
        /// Value register.
        rs2: u8,
        /// Byte offset.
        offset: i32,
    },
    /// ALU with immediate (`addi`, `slli`, …; no `sub` form).
    OpImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: u8,
        /// Source.
        rs1: u8,
        /// Sign-extended 12-bit immediate (shift amount for shifts).
        imm: i32,
    },
    /// ALU register-register.
    Op {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: u8,
        /// First source.
        rs1: u8,
        /// Second source.
        rs2: u8,
    },
    /// M-extension register-register.
    MulDiv {
        /// Operation.
        op: MulOp,
        /// Destination.
        rd: u8,
        /// First source.
        rs1: u8,
        /// Second source.
        rs2: u8,
    },
    /// `ecall` — used as the halt convention by the simulator.
    Ecall,
}

impl Instr {
    /// The registers this instruction reads (`rs1`, then `rs2`).
    pub fn sources(self) -> [Option<u8>; 2] {
        match self {
            Instr::Lui { .. } | Instr::Jal { .. } | Instr::Ecall => [None, None],
            Instr::Jalr { rs1, .. } | Instr::Lw { rs1, .. } | Instr::OpImm { rs1, .. } => {
                [Some(rs1), None]
            }
            Instr::Branch { rs1, rs2, .. }
            | Instr::Sw { rs1, rs2, .. }
            | Instr::Op { rs1, rs2, .. }
            | Instr::MulDiv { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
        }
    }

    /// The register this instruction writes; `None` when it writes
    /// none or writes the hard-wired zero register `x0`.
    pub fn dest(self) -> Option<u8> {
        match self {
            Instr::Lui { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::Lw { rd, .. }
            | Instr::OpImm { rd, .. }
            | Instr::Op { rd, .. }
            | Instr::MulDiv { rd, .. } => (rd != 0).then_some(rd),
            Instr::Branch { .. } | Instr::Sw { .. } | Instr::Ecall => None,
        }
    }

    /// Check every field against its RV32 encoding range: registers
    /// below 32, 12-bit immediates, 5-bit shift amounts, `lui` values
    /// with clear low 12 bits, even branch (±4 KiB) and `jal` (±1 MiB)
    /// offsets, and no `subi`.
    ///
    /// # Panics
    ///
    /// Panics on the first field out of range. [`crate::Assembler`]
    /// checks each instruction it emits, so a program that assembles
    /// is one a real RV32IM core could encode.
    pub fn check(self) {
        for r in self.sources().into_iter().chain([self.dest()]).flatten() {
            assert!(r < 32, "register x{r} out of range");
        }
        let i12 = |v: i32| assert!((-2048..=2047).contains(&v), "imm12 {v} out of range");
        match self {
            Instr::Lui { imm, .. } => assert_eq!(imm & 0xFFF, 0, "lui immediate has low bits"),
            Instr::Jal { offset, .. } => assert!(
                offset % 2 == 0 && (-(1 << 20)..1 << 20).contains(&offset),
                "jal offset {offset} out of range"
            ),
            Instr::Branch { offset, .. } => assert!(
                offset % 2 == 0 && (-(1 << 12)..1 << 12).contains(&offset),
                "branch offset {offset} out of range"
            ),
            Instr::Jalr { offset, .. } | Instr::Lw { offset, .. } | Instr::Sw { offset, .. } => {
                i12(offset)
            }
            Instr::OpImm { op, imm, .. } => match op {
                AluOp::Sub => panic!("subi does not exist; use addi with -imm"),
                AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                    assert!((0..32).contains(&imm), "shift amount {imm} out of range")
                }
                _ => i12(imm),
            },
            Instr::Op { .. } | Instr::MulDiv { .. } | Instr::Ecall => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_use() {
        let sw = Instr::Sw {
            rs1: 3,
            rs2: 4,
            offset: 0,
        };
        assert_eq!((sw.sources(), sw.dest()), ([Some(3), Some(4)], None));
        let lw = Instr::Lw {
            rd: 5,
            rs1: 3,
            offset: 0,
        };
        assert_eq!((lw.sources(), lw.dest()), ([Some(3), None], Some(5)));
        let jal_x0 = Instr::Jal { rd: 0, offset: 8 };
        assert_eq!((jal_x0.sources(), jal_x0.dest()), ([None, None], None));
    }

    #[test]
    #[should_panic(expected = "imm12")]
    fn oversized_immediate_panics() {
        Instr::OpImm {
            op: AluOp::Add,
            rd: 1,
            rs1: 0,
            imm: 5000,
        }
        .check();
    }
}
