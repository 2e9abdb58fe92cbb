//! RV32IM instruction set: definition, encoding, decoding.
//!
//! The system-integration study (paper Section VI-D) compares the
//! CGRAs against a 750 MHz in-order RV32IM core. This module defines
//! the instruction subset the kernels need — the full RV32I register/
//! immediate/branch/load-store groups plus the M extension — with
//! standard binary encodings, so programs round-trip through real
//! machine words.

use std::fmt;

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

/// Errors from decoding a machine word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub u32);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn enc_b_imm(offset: i32) -> u32 {
    let imm = offset as u32;
    ((imm >> 12) & 1) << 31
        | ((imm >> 5) & 0x3F) << 25
        | ((imm >> 1) & 0xF) << 8
        | ((imm >> 11) & 1) << 7
}

fn dec_b_imm(w: u32) -> i32 {
    let imm = ((w >> 31) & 1) << 12
        | ((w >> 7) & 1) << 11
        | ((w >> 25) & 0x3F) << 5
        | ((w >> 8) & 0xF) << 1;
    ((imm << 19) as i32) >> 19
}

fn enc_j_imm(offset: i32) -> u32 {
    let imm = offset as u32;
    ((imm >> 20) & 1) << 31
        | ((imm >> 1) & 0x3FF) << 21
        | ((imm >> 11) & 1) << 20
        | ((imm >> 12) & 0xFF) << 12
}

fn dec_j_imm(w: u32) -> i32 {
    let imm = ((w >> 31) & 1) << 20
        | ((w >> 12) & 0xFF) << 12
        | ((w >> 20) & 1) << 11
        | ((w >> 21) & 0x3FF) << 1;
    ((imm << 11) as i32) >> 11
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

    /// Encode to the standard RV32 machine word.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range fields (register ≥ 32, immediate outside
    /// its encoding range) — programs are built by the assembler,
    /// which validates ranges.
    pub fn encode(self) -> u32 {
        let r = |x: u8| {
            assert!(x < 32, "register x{x} out of range");
            u32::from(x)
        };
        let i12 = |v: i32| {
            assert!((-2048..=2047).contains(&v), "imm12 {v} out of range");
            (v as u32) & 0xFFF
        };
        match self {
            Instr::Lui { rd, imm } => {
                assert_eq!(imm & 0xFFF, 0, "lui immediate has low bits");
                imm | r(rd) << 7 | 0x37
            }
            Instr::Jal { rd, offset } => enc_j_imm(offset) | r(rd) << 7 | 0x6F,
            Instr::Jalr { rd, rs1, offset } => i12(offset) << 20 | r(rs1) << 15 | r(rd) << 7 | 0x67,
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let funct3 = match op {
                    BranchOp::Eq => 0b000,
                    BranchOp::Ne => 0b001,
                    BranchOp::Lt => 0b100,
                    BranchOp::Ge => 0b101,
                    BranchOp::Ltu => 0b110,
                    BranchOp::Geu => 0b111,
                };
                enc_b_imm(offset) | r(rs2) << 20 | r(rs1) << 15 | funct3 << 12 | 0x63
            }
            Instr::Lw { rd, rs1, offset } => {
                i12(offset) << 20 | r(rs1) << 15 | 0b010 << 12 | r(rd) << 7 | 0x03
            }
            Instr::Sw { rs1, rs2, offset } => {
                let imm = i12(offset);
                (imm >> 5) << 25
                    | r(rs2) << 20
                    | r(rs1) << 15
                    | 0b010 << 12
                    | (imm & 0x1F) << 7
                    | 0x23
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let (funct3, upper) = match op {
                    AluOp::Add => (0b000, None),
                    AluOp::Slt => (0b010, None),
                    AluOp::Sltu => (0b011, None),
                    AluOp::Xor => (0b100, None),
                    AluOp::Or => (0b110, None),
                    AluOp::And => (0b111, None),
                    AluOp::Sll => (0b001, Some(0)),
                    AluOp::Srl => (0b101, Some(0)),
                    AluOp::Sra => (0b101, Some(0x20)),
                    AluOp::Sub => panic!("subi does not exist; use addi with -imm"),
                };
                let immf = match upper {
                    Some(hi) => {
                        assert!((0..32).contains(&imm), "shift amount {imm} out of range");
                        (hi << 5 | imm as u32) & 0xFFF
                    }
                    None => i12(imm),
                };
                immf << 20 | r(rs1) << 15 | funct3 << 12 | r(rd) << 7 | 0x13
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let (funct3, funct7) = match op {
                    AluOp::Add => (0b000, 0x00),
                    AluOp::Sub => (0b000, 0x20),
                    AluOp::Sll => (0b001, 0x00),
                    AluOp::Slt => (0b010, 0x00),
                    AluOp::Sltu => (0b011, 0x00),
                    AluOp::Xor => (0b100, 0x00),
                    AluOp::Srl => (0b101, 0x00),
                    AluOp::Sra => (0b101, 0x20),
                    AluOp::Or => (0b110, 0x00),
                    AluOp::And => (0b111, 0x00),
                };
                funct7 << 25 | r(rs2) << 20 | r(rs1) << 15 | funct3 << 12 | r(rd) << 7 | 0x33
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let funct3 = match op {
                    MulOp::Mul => 0b000,
                    MulOp::Mulh => 0b001,
                    MulOp::Mulhsu => 0b010,
                    MulOp::Mulhu => 0b011,
                    MulOp::Div => 0b100,
                    MulOp::Divu => 0b101,
                    MulOp::Rem => 0b110,
                    MulOp::Remu => 0b111,
                };
                0x01 << 25 | r(rs2) << 20 | r(rs1) << 15 | funct3 << 12 | r(rd) << 7 | 0x33
            }
            Instr::Ecall => 0x0000_0073,
        }
    }

    /// Decode a machine word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for words outside the supported subset.
    pub fn decode(w: u32) -> Result<Instr, DecodeError> {
        let opcode = w & 0x7F;
        let rd = ((w >> 7) & 0x1F) as u8;
        let rs1 = ((w >> 15) & 0x1F) as u8;
        let rs2 = ((w >> 20) & 0x1F) as u8;
        let funct3 = (w >> 12) & 0x7;
        let funct7 = w >> 25;
        let i_imm = (w as i32) >> 20;
        match opcode {
            0x37 => Ok(Instr::Lui {
                rd,
                imm: w & 0xFFFF_F000,
            }),
            0x6F => Ok(Instr::Jal {
                rd,
                offset: dec_j_imm(w),
            }),
            0x67 if funct3 == 0 => Ok(Instr::Jalr {
                rd,
                rs1,
                offset: i_imm,
            }),
            0x63 => {
                let op = match funct3 {
                    0b000 => BranchOp::Eq,
                    0b001 => BranchOp::Ne,
                    0b100 => BranchOp::Lt,
                    0b101 => BranchOp::Ge,
                    0b110 => BranchOp::Ltu,
                    0b111 => BranchOp::Geu,
                    _ => return Err(DecodeError(w)),
                };
                Ok(Instr::Branch {
                    op,
                    rs1,
                    rs2,
                    offset: dec_b_imm(w),
                })
            }
            0x03 if funct3 == 0b010 => Ok(Instr::Lw {
                rd,
                rs1,
                offset: i_imm,
            }),
            0x23 if funct3 == 0b010 => {
                let imm = ((w >> 25) << 5 | (w >> 7) & 0x1F) as i32;
                let imm = (imm << 20) >> 20;
                Ok(Instr::Sw {
                    rs1,
                    rs2,
                    offset: imm,
                })
            }
            0x13 => {
                let op = match funct3 {
                    0b000 => AluOp::Add,
                    0b010 => AluOp::Slt,
                    0b011 => AluOp::Sltu,
                    0b100 => AluOp::Xor,
                    0b110 => AluOp::Or,
                    0b111 => AluOp::And,
                    0b001 => AluOp::Sll,
                    0b101 if funct7 == 0x20 => AluOp::Sra,
                    0b101 => AluOp::Srl,
                    _ => return Err(DecodeError(w)),
                };
                let imm = if matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra) {
                    (rs2) as i32
                } else {
                    i_imm
                };
                Ok(Instr::OpImm { op, rd, rs1, imm })
            }
            0x33 if funct7 == 0x01 => {
                let op = match funct3 {
                    0b000 => MulOp::Mul,
                    0b001 => MulOp::Mulh,
                    0b010 => MulOp::Mulhsu,
                    0b011 => MulOp::Mulhu,
                    0b100 => MulOp::Div,
                    0b101 => MulOp::Divu,
                    0b110 => MulOp::Rem,
                    _ => MulOp::Remu,
                };
                Ok(Instr::MulDiv { op, rd, rs1, rs2 })
            }
            0x33 => {
                let op = match (funct3, funct7) {
                    (0b000, 0x00) => AluOp::Add,
                    (0b000, 0x20) => AluOp::Sub,
                    (0b001, 0x00) => AluOp::Sll,
                    (0b010, 0x00) => AluOp::Slt,
                    (0b011, 0x00) => AluOp::Sltu,
                    (0b100, 0x00) => AluOp::Xor,
                    (0b101, 0x00) => AluOp::Srl,
                    (0b101, 0x20) => AluOp::Sra,
                    (0b110, 0x00) => AluOp::Or,
                    (0b111, 0x00) => AluOp::And,
                    _ => return Err(DecodeError(w)),
                };
                Ok(Instr::Op { op, rd, rs1, rs2 })
            }
            0x73 if w == 0x0000_0073 => Ok(Instr::Ecall),
            _ => Err(DecodeError(w)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_encodings() {
        // Cross-checked against the RISC-V spec examples.
        // addi x1, x0, 5
        assert_eq!(
            Instr::OpImm {
                op: AluOp::Add,
                rd: 1,
                rs1: 0,
                imm: 5
            }
            .encode(),
            0x0050_0093
        );
        // add x3, x1, x2
        assert_eq!(
            Instr::Op {
                op: AluOp::Add,
                rd: 3,
                rs1: 1,
                rs2: 2
            }
            .encode(),
            0x0020_81B3
        );
        // ecall
        assert_eq!(Instr::Ecall.encode(), 0x0000_0073);
    }

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
    fn roundtrip_representative_instructions() {
        let cases = [
            Instr::Lui {
                rd: 5,
                imm: 0xABCD_E000,
            },
            Instr::Jal {
                rd: 1,
                offset: -2048,
            },
            Instr::Jalr {
                rd: 0,
                rs1: 1,
                offset: 16,
            },
            Instr::Branch {
                op: BranchOp::Lt,
                rs1: 3,
                rs2: 4,
                offset: -64,
            },
            Instr::Branch {
                op: BranchOp::Geu,
                rs1: 30,
                rs2: 31,
                offset: 4094,
            },
            Instr::Lw {
                rd: 7,
                rs1: 2,
                offset: -4,
            },
            Instr::Sw {
                rs1: 2,
                rs2: 7,
                offset: 2044,
            },
            Instr::OpImm {
                op: AluOp::And,
                rd: 9,
                rs1: 9,
                imm: 255,
            },
            Instr::OpImm {
                op: AluOp::Sra,
                rd: 9,
                rs1: 9,
                imm: 31,
            },
            Instr::Op {
                op: AluOp::Sub,
                rd: 10,
                rs1: 11,
                rs2: 12,
            },
            Instr::MulDiv {
                op: MulOp::Mul,
                rd: 13,
                rs1: 14,
                rs2: 15,
            },
            Instr::MulDiv {
                op: MulOp::Remu,
                rd: 13,
                rs1: 14,
                rs2: 15,
            },
            Instr::Ecall,
        ];
        for i in cases {
            assert_eq!(Instr::decode(i.encode()), Ok(i), "{i:?}");
        }
    }

    #[test]
    fn branch_offset_encoding_is_symmetric() {
        for offset in [-4096, -2, 0, 2, 64, 4094] {
            let i = Instr::Branch {
                op: BranchOp::Ne,
                rs1: 1,
                rs2: 2,
                offset,
            };
            assert_eq!(Instr::decode(i.encode()), Ok(i), "offset {offset}");
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Instr::decode(0xFFFF_FFFF).is_err());
        assert!(Instr::decode(0x0000_0000).is_err());
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
        .encode();
    }
}
