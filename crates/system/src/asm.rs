//! A small RV32IM assembler with labels.
//!
//! Programs for the in-order core are written against this builder:
//! mnemonic methods append instructions, [`Assembler::label`] marks
//! positions (or [`Assembler::forward`]/[`Assembler::bind`] for
//! forward references), and [`Assembler::assemble`] resolves branch
//! offsets and emits encoded machine words.

use crate::isa::{AluOp, BranchOp, Instr, MulOp};

/// A label: an index into the assembler's label table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum Pending {
    Fixed(Instr),
    Branch {
        op: BranchOp,
        rs1: u8,
        rs2: u8,
        target: Label,
    },
    Jal {
        rd: u8,
        target: Label,
    },
}

/// The program builder.
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    instrs: Vec<Pending>,
    labels: Vec<Option<usize>>,
}

impl Assembler {
    /// New empty program.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Create a label bound to the current position.
    pub fn label(&mut self) -> Label {
        let l = Label(self.labels.len());
        self.labels.push(Some(self.instrs.len()));
        l
    }

    /// Create an unbound (forward) label.
    pub fn forward(&mut self) -> Label {
        let l = Label(self.labels.len());
        self.labels.push(None);
        l
    }

    /// Bind a forward label to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.instrs.len());
    }

    /// Number of instructions so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(Pending::Fixed(i));
        self
    }

    /// `addi rd, rs1, imm`
    pub fn addi(&mut self, rd: u8, rs1: u8, imm: i32) -> &mut Self {
        self.push(Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        })
    }

    /// `andi rd, rs1, imm`
    pub fn andi(&mut self, rd: u8, rs1: u8, imm: i32) -> &mut Self {
        self.push(Instr::OpImm {
            op: AluOp::And,
            rd,
            rs1,
            imm,
        })
    }

    /// `xori rd, rs1, imm`
    pub fn xori(&mut self, rd: u8, rs1: u8, imm: i32) -> &mut Self {
        self.push(Instr::OpImm {
            op: AluOp::Xor,
            rd,
            rs1,
            imm,
        })
    }

    /// `slli rd, rs1, shamt`
    pub fn slli(&mut self, rd: u8, rs1: u8, shamt: i32) -> &mut Self {
        self.push(Instr::OpImm {
            op: AluOp::Sll,
            rd,
            rs1,
            imm: shamt,
        })
    }

    /// `srli rd, rs1, shamt`
    pub fn srli(&mut self, rd: u8, rs1: u8, shamt: i32) -> &mut Self {
        self.push(Instr::OpImm {
            op: AluOp::Srl,
            rd,
            rs1,
            imm: shamt,
        })
    }

    /// `slti rd, rs1, imm`
    pub fn slti(&mut self, rd: u8, rs1: u8, imm: i32) -> &mut Self {
        self.push(Instr::OpImm {
            op: AluOp::Slt,
            rd,
            rs1,
            imm,
        })
    }

    /// `add rd, rs1, rs2`
    pub fn add(&mut self, rd: u8, rs1: u8, rs2: u8) -> &mut Self {
        self.push(Instr::Op {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        })
    }

    /// `sub rd, rs1, rs2`
    pub fn sub(&mut self, rd: u8, rs1: u8, rs2: u8) -> &mut Self {
        self.push(Instr::Op {
            op: AluOp::Sub,
            rd,
            rs1,
            rs2,
        })
    }

    /// `xor rd, rs1, rs2`
    pub fn xor(&mut self, rd: u8, rs1: u8, rs2: u8) -> &mut Self {
        self.push(Instr::Op {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
        })
    }

    /// `and rd, rs1, rs2`
    pub fn and(&mut self, rd: u8, rs1: u8, rs2: u8) -> &mut Self {
        self.push(Instr::Op {
            op: AluOp::And,
            rd,
            rs1,
            rs2,
        })
    }

    /// `or rd, rs1, rs2`
    pub fn or(&mut self, rd: u8, rs1: u8, rs2: u8) -> &mut Self {
        self.push(Instr::Op {
            op: AluOp::Or,
            rd,
            rs1,
            rs2,
        })
    }

    /// `srl rd, rs1, rs2`
    pub fn srl(&mut self, rd: u8, rs1: u8, rs2: u8) -> &mut Self {
        self.push(Instr::Op {
            op: AluOp::Srl,
            rd,
            rs1,
            rs2,
        })
    }

    /// `mul rd, rs1, rs2`
    pub fn mul(&mut self, rd: u8, rs1: u8, rs2: u8) -> &mut Self {
        self.push(Instr::MulDiv {
            op: MulOp::Mul,
            rd,
            rs1,
            rs2,
        })
    }

    /// `div rd, rs1, rs2`
    pub fn div(&mut self, rd: u8, rs1: u8, rs2: u8) -> &mut Self {
        self.push(Instr::MulDiv {
            op: MulOp::Div,
            rd,
            rs1,
            rs2,
        })
    }

    /// `lw rd, offset(rs1)`
    pub fn lw(&mut self, rd: u8, rs1: u8, offset: i32) -> &mut Self {
        self.push(Instr::Lw { rd, rs1, offset })
    }

    /// `sw rs2, offset(rs1)`
    pub fn sw(&mut self, rs1: u8, rs2: u8, offset: i32) -> &mut Self {
        self.push(Instr::Sw { rs1, rs2, offset })
    }

    /// Load a 32-bit constant (expands to `lui`+`addi` when needed).
    pub fn li(&mut self, rd: u8, value: u32) -> &mut Self {
        let v = value as i32;
        if (-2048..=2047).contains(&v) {
            return self.addi(rd, 0, v);
        }
        let hi = (value.wrapping_add(0x800)) & 0xFFFF_F000;
        let lo = value.wrapping_sub(hi) as i32;
        self.push(Instr::Lui { rd, imm: hi });
        if lo != 0 {
            self.addi(rd, rd, lo);
        }
        self
    }

    /// Conditional branch to a label.
    pub fn branch_to(&mut self, op: BranchOp, rs1: u8, rs2: u8, target: Label) -> &mut Self {
        self.instrs.push(Pending::Branch {
            op,
            rs1,
            rs2,
            target,
        });
        self
    }

    /// `blt rs1, rs2, target`
    pub fn blt_to(&mut self, rs1: u8, rs2: u8, target: Label) -> &mut Self {
        self.branch_to(BranchOp::Lt, rs1, rs2, target)
    }

    /// `beq rs1, rs2, target`
    pub fn beq_to(&mut self, rs1: u8, rs2: u8, target: Label) -> &mut Self {
        self.branch_to(BranchOp::Eq, rs1, rs2, target)
    }

    /// `beq` skipping the next `n` instructions.
    pub fn beq_skip(&mut self, rs1: u8, rs2: u8, n: i32) -> &mut Self {
        self.push(Instr::Branch {
            op: BranchOp::Eq,
            rs1,
            rs2,
            offset: (n + 1) * 4,
        })
    }

    /// `jal rd, target`
    pub fn jal_to(&mut self, rd: u8, target: Label) -> &mut Self {
        self.instrs.push(Pending::Jal { rd, target });
        self
    }

    /// `ecall` (halt).
    pub fn ecall(&mut self) -> &mut Self {
        self.push(Instr::Ecall)
    }

    /// Resolve labels and encode.
    ///
    /// # Panics
    ///
    /// Panics on unbound labels.
    pub fn assemble(&self) -> Vec<u32> {
        self.instrs
            .iter()
            .enumerate()
            .map(|(idx, p)| {
                let resolve = |l: Label| -> i32 {
                    let target = self.labels[l.0].expect("unbound label");
                    (target as i32 - idx as i32) * 4
                };
                match *p {
                    Pending::Fixed(i) => i.encode(),
                    Pending::Branch {
                        op,
                        rs1,
                        rs2,
                        target,
                    } => Instr::Branch {
                        op,
                        rs1,
                        rs2,
                        offset: resolve(target),
                    }
                    .encode(),
                    Pending::Jal { rd, target } => Instr::Jal {
                        rd,
                        offset: resolve(target),
                    }
                    .encode(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_backward_and_forward() {
        let mut a = Assembler::new();
        let done = a.forward();
        let top = a.label();
        a.addi(1, 1, 1);
        a.beq_to(1, 2, done);
        a.jal_to(0, top);
        a.bind(done);
        a.ecall();
        let words = a.assemble();
        assert_eq!(words.len(), 4);
        // The beq at index 1 targets index 3: offset +8.
        let decoded = Instr::decode(words[1]).unwrap();
        assert_eq!(
            decoded,
            Instr::Branch {
                op: BranchOp::Eq,
                rs1: 1,
                rs2: 2,
                offset: 8
            }
        );
        // The jal at index 2 targets index 0: offset -8.
        assert_eq!(
            Instr::decode(words[2]).unwrap(),
            Instr::Jal { rd: 0, offset: -8 }
        );
    }

    #[test]
    fn li_small_and_large() {
        let mut a = Assembler::new();
        a.li(1, 100);
        assert_eq!(a.len(), 1);
        a.li(2, 0x12345);
        assert!(a.len() >= 2);
        a.ecall();
        let r = crate::cpu::Cpu::new(a.assemble(), vec![]).run().unwrap();
        assert_eq!(r.regs[1], 100);
        assert_eq!(r.regs[2], 0x12345);
    }

    #[test]
    fn li_handles_negative_low_part() {
        let mut a = Assembler::new();
        a.li(1, 0x0000_8800); // low 12 bits sign-extend negative
        a.li(2, 0xFFFF_FFFF);
        a.ecall();
        let r = crate::cpu::Cpu::new(a.assemble(), vec![]).run().unwrap();
        assert_eq!(r.regs[1], 0x8800);
        assert_eq!(r.regs[2], 0xFFFF_FFFF);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Assembler::new();
        let l = a.forward();
        a.beq_to(0, 0, l);
        a.assemble();
    }
}
