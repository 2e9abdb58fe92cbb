//! In-order RV32IM core: functional execution plus a timing model.
//!
//! The paper's comparison core is a 750 MHz in-order RV32IM similar in
//! implementation style to the CGRAs (Section VI-D). This simulator
//! executes the assembler's [`Instr`] list, indexed by byte PC, with a
//! single-issue in-order timing model: one instruction per cycle, plus
//! a one-cycle load-use bubble, a taken-branch redirect penalty, and
//! multi-cycle multiply/divide — the classic five-stage-pipeline cost
//! structure.

use crate::isa::{AluOp, BranchOp, Instr, MulOp};

/// Extra cycles after a taken branch or jump (fetch redirect).
const BRANCH_TAKEN_PENALTY: u64 = 2;
/// Bubble between a load and an immediately dependent use.
const LOAD_USE_BUBBLE: u64 = 1;
/// Total occupancy of a multiply (1 = fully pipelined).
const MUL_CYCLES: u64 = 3;
/// Total occupancy of a divide/remainder.
const DIV_CYCLES: u64 = 16;

/// Dynamic instruction counts by class (for energy estimation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    /// Simple ALU ops (register or immediate) and upper-immediates.
    pub alu: u64,
    /// Multiplies.
    pub mul: u64,
    /// Divides/remainders.
    pub div: u64,
    /// Loads.
    pub load: u64,
    /// Stores.
    pub store: u64,
    /// Branches and jumps.
    pub branch: u64,
}

impl InstrMix {
    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.alu + self.mul + self.div + self.load + self.store + self.branch
    }
}

/// One executed instruction in a dynamic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// The instruction.
    pub instr: Instr,
    /// Effective byte address for loads/stores.
    pub addr: Option<u32>,
}

/// Result of running a program to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Cycles under the timing model.
    pub cycles: u64,
    /// Dynamic instruction mix.
    pub mix: InstrMix,
    /// Final data memory (words).
    pub mem: Vec<u32>,
    /// Final register file.
    pub regs: [u32; 32],
}

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CpuError {
    /// PC left the program.
    PcOutOfRange(u32),
    /// Unaligned or out-of-bounds data access.
    BadAccess(u32),
    /// Instruction budget exhausted (runaway program).
    Runaway,
}

impl std::fmt::Display for CpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpuError::PcOutOfRange(pc) => write!(f, "pc {pc:#x} out of range"),
            CpuError::BadAccess(a) => write!(f, "bad data access at {a:#x}"),
            CpuError::Runaway => write!(f, "instruction budget exhausted"),
        }
    }
}

impl std::error::Error for CpuError {}

/// The core.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Program memory (one instruction per 4 bytes; PC is a byte
    /// address).
    imem: Vec<Instr>,
    /// Data memory (words; data addresses are byte addresses).
    dmem: Vec<u32>,
    regs: [u32; 32],
    pc: u32,
    max_instrs: u64,
}

impl Cpu {
    /// Create a core with a program and a word-image data memory.
    pub fn new(program: Vec<Instr>, dmem: Vec<u32>) -> Cpu {
        Cpu {
            imem: program,
            dmem,
            regs: [0; 32],
            pc: 0,
            max_instrs: 200_000_000,
        }
    }

    /// Override the runaway budget.
    pub fn with_max_instrs(mut self, max: u64) -> Cpu {
        self.max_instrs = max;
        self
    }

    fn read_word(&self, addr: u32) -> Result<u32, CpuError> {
        if !addr.is_multiple_of(4) {
            return Err(CpuError::BadAccess(addr));
        }
        self.dmem
            .get((addr / 4) as usize)
            .copied()
            .ok_or(CpuError::BadAccess(addr))
    }

    fn write_word(&mut self, addr: u32, value: u32) -> Result<(), CpuError> {
        if !addr.is_multiple_of(4) {
            return Err(CpuError::BadAccess(addr));
        }
        match self.dmem.get_mut((addr / 4) as usize) {
            Some(w) => {
                *w = value;
                Ok(())
            }
            None => Err(CpuError::BadAccess(addr)),
        }
    }

    fn set_reg(&mut self, rd: u8, value: u32) {
        if rd != 0 {
            self.regs[rd as usize] = value;
        }
    }

    /// Run until `ecall`, returning cycles, instruction mix, and final
    /// state.
    ///
    /// # Errors
    ///
    /// Returns a [`CpuError`] on bad memory accesses, a wild PC, or
    /// budget exhaustion.
    pub fn run(self) -> Result<RunResult, CpuError> {
        self.run_inner(None)
    }

    /// Like [`Cpu::run`], additionally returning the dynamic
    /// instruction trace (used by the out-of-order timing model).
    ///
    /// # Errors
    ///
    /// Same as [`Cpu::run`].
    pub fn run_with_trace(self) -> Result<(RunResult, Vec<TraceEntry>), CpuError> {
        let mut trace = Vec::new();
        let r = self.run_inner(Some(&mut trace))?;
        Ok((r, trace))
    }

    fn run_inner(mut self, mut trace: Option<&mut Vec<TraceEntry>>) -> Result<RunResult, CpuError> {
        let mut cycles: u64 = 0;
        let mut mix = InstrMix::default();
        let mut last_load_rd: Option<u8> = None;
        let mut executed: u64 = 0;

        loop {
            if executed >= self.max_instrs {
                return Err(CpuError::Runaway);
            }
            executed += 1;
            let idx = (self.pc / 4) as usize;
            if !self.pc.is_multiple_of(4) || idx >= self.imem.len() {
                return Err(CpuError::PcOutOfRange(self.pc));
            }
            let instr = self.imem[idx];
            cycles += 1;
            let mut eff_addr: Option<u32> = None;

            // Load-use interlock: one bubble when this instruction
            // sources the previous load's destination.
            if let Some(rd) = last_load_rd.take() {
                if rd != 0 && instr.sources().contains(&Some(rd)) {
                    cycles += LOAD_USE_BUBBLE;
                }
            }

            let mut next_pc = self.pc.wrapping_add(4);
            match instr {
                Instr::Lui { rd, imm } => {
                    mix.alu += 1;
                    self.set_reg(rd, imm);
                }
                Instr::Jal { rd, offset } => {
                    mix.branch += 1;
                    self.set_reg(rd, next_pc);
                    next_pc = self.pc.wrapping_add(offset as u32);
                    cycles += BRANCH_TAKEN_PENALTY;
                }
                Instr::Jalr { rd, rs1, offset } => {
                    mix.branch += 1;
                    let target = self.regs[rs1 as usize].wrapping_add(offset as u32) & !1;
                    self.set_reg(rd, next_pc);
                    next_pc = target;
                    cycles += BRANCH_TAKEN_PENALTY;
                }
                Instr::Branch {
                    op,
                    rs1,
                    rs2,
                    offset,
                } => {
                    mix.branch += 1;
                    let a = self.regs[rs1 as usize];
                    let b = self.regs[rs2 as usize];
                    let taken = match op {
                        BranchOp::Eq => a == b,
                        BranchOp::Ne => a != b,
                        BranchOp::Lt => (a as i32) < (b as i32),
                        BranchOp::Ge => (a as i32) >= (b as i32),
                        BranchOp::Ltu => a < b,
                        BranchOp::Geu => a >= b,
                    };
                    if taken {
                        next_pc = self.pc.wrapping_add(offset as u32);
                        cycles += BRANCH_TAKEN_PENALTY;
                    }
                }
                Instr::Lw { rd, rs1, offset } => {
                    mix.load += 1;
                    let addr = self.regs[rs1 as usize].wrapping_add(offset as u32);
                    eff_addr = Some(addr);
                    let v = self.read_word(addr)?;
                    self.set_reg(rd, v);
                    last_load_rd = Some(rd);
                }
                Instr::Sw { rs1, rs2, offset } => {
                    mix.store += 1;
                    let addr = self.regs[rs1 as usize].wrapping_add(offset as u32);
                    eff_addr = Some(addr);
                    self.write_word(addr, self.regs[rs2 as usize])?;
                }
                Instr::OpImm { op, rd, rs1, imm } => {
                    mix.alu += 1;
                    let v = alu(op, self.regs[rs1 as usize], imm as u32);
                    self.set_reg(rd, v);
                }
                Instr::Op { op, rd, rs1, rs2 } => {
                    mix.alu += 1;
                    let v = alu(op, self.regs[rs1 as usize], self.regs[rs2 as usize]);
                    self.set_reg(rd, v);
                }
                Instr::MulDiv { op, rd, rs1, rs2 } => {
                    let a = self.regs[rs1 as usize];
                    let b = self.regs[rs2 as usize];
                    let v = muldiv(op, a, b);
                    self.set_reg(rd, v);
                    match op {
                        MulOp::Mul | MulOp::Mulh | MulOp::Mulhsu | MulOp::Mulhu => {
                            mix.mul += 1;
                            cycles += MUL_CYCLES - 1;
                        }
                        _ => {
                            mix.div += 1;
                            cycles += DIV_CYCLES - 1;
                        }
                    }
                }
                Instr::Ecall => {
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(TraceEntry { instr, addr: None });
                    }
                    return Ok(RunResult {
                        cycles,
                        mix,
                        mem: self.dmem,
                        regs: self.regs,
                    });
                }
            }
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraceEntry {
                    instr,
                    addr: eff_addr,
                });
            }
            self.pc = next_pc;
        }
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32,
        MulOp::Mulhsu => ((i64::from(a as i32) * i64::from(b)) >> 32) as u32,
        MulOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        MulOp::Div => {
            if b == 0 {
                u32::MAX
            } else {
                ((a as i32).wrapping_div(b as i32)) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            if b == 0 {
                a
            } else {
                ((a as i32).wrapping_rem(b as i32)) as u32
            }
        }
        MulOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    #[test]
    fn arithmetic_and_halt() {
        let mut a = Assembler::new();
        a.addi(1, 0, 21);
        a.add(2, 1, 1);
        a.sw(0, 2, 0);
        a.ecall();
        let r = Cpu::new(a.assemble(), vec![0; 8]).run().unwrap();
        assert_eq!(r.mem[0], 42);
        assert_eq!(r.mix.alu, 2);
        assert_eq!(r.mix.store, 1);
    }

    #[test]
    fn loop_sums_memory() {
        // x1 = base, x2 = i, x3 = n, x4 = acc
        let mut a = Assembler::new();
        a.addi(3, 0, 8);
        let top = a.label();
        a.lw(5, 1, 0); // t = mem[ptr]
        a.add(4, 4, 5);
        a.addi(1, 1, 4);
        a.addi(2, 2, 1);
        a.blt_to(2, 3, top);
        a.sw(0, 4, 0);
        a.ecall();
        let mem: Vec<u32> = (0..8).collect();
        let r = Cpu::new(a.assemble(), mem).run().unwrap();
        assert_eq!(r.mem[0], (0..8).sum::<u32>());
        assert_eq!(r.mix.load, 8);
        assert_eq!(r.mix.branch, 8);
    }

    #[test]
    fn load_use_bubble_counted() {
        let mut dep = Assembler::new();
        dep.lw(1, 0, 0);
        dep.add(2, 1, 1); // immediately dependent
        dep.ecall();
        let mut indep = Assembler::new();
        indep.lw(1, 0, 0);
        indep.add(2, 3, 3); // independent
        indep.ecall();
        let c_dep = Cpu::new(dep.assemble(), vec![7; 4]).run().unwrap().cycles;
        let c_ind = Cpu::new(indep.assemble(), vec![7; 4]).run().unwrap().cycles;
        assert_eq!(c_dep, c_ind + 1);
    }

    #[test]
    fn taken_branch_costs_redirect() {
        let mut taken = Assembler::new();
        taken.addi(1, 0, 1);
        taken.beq_skip(0, 0, 1); // always taken, skips one instr
        taken.addi(2, 0, 9); // skipped
        taken.ecall();
        let mut fall = Assembler::new();
        fall.addi(1, 0, 1);
        fall.beq_skip(1, 0, 1); // never taken
        fall.addi(2, 0, 9);
        fall.ecall();
        let rt = Cpu::new(taken.assemble(), vec![0; 4]).run().unwrap();
        let rf = Cpu::new(fall.assemble(), vec![0; 4]).run().unwrap();
        assert_eq!(rt.regs[2], 0, "skipped");
        assert_eq!(rf.regs[2], 9);
        // Taken: 3 instrs + 2 redirect = 5; fall-through: 4 instrs.
        assert_eq!(rt.cycles, 5);
        assert_eq!(rf.cycles, 4);
    }

    #[test]
    fn mul_and_div_latency() {
        let mut a = Assembler::new();
        a.addi(1, 0, 6);
        a.addi(2, 0, 7);
        a.mul(3, 1, 2);
        a.div(4, 3, 2);
        a.ecall();
        let r = Cpu::new(a.assemble(), vec![0; 4]).run().unwrap();
        assert_eq!(r.regs[3], 42);
        assert_eq!(r.regs[4], 6);
        // 5 instrs + (3-1) mul + (16-1) div = 22.
        assert_eq!(r.cycles, 22);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut a = Assembler::new();
        a.addi(0, 0, 99);
        a.sw(0, 0, 0);
        a.ecall();
        let r = Cpu::new(a.assemble(), vec![5; 4]).run().unwrap();
        assert_eq!(r.mem[0], 0, "x0 stays zero");
    }

    #[test]
    fn runaway_is_caught() {
        let mut a = Assembler::new();
        let top = a.label();
        a.jal_to(0, top);
        let err = Cpu::new(a.assemble(), vec![])
            .with_max_instrs(1000)
            .run()
            .unwrap_err();
        assert_eq!(err, CpuError::Runaway);
    }

    #[test]
    fn bad_access_is_reported() {
        let mut a = Assembler::new();
        a.lw(1, 0, 0x7FC);
        a.ecall();
        let err = Cpu::new(a.assemble(), vec![0; 4]).run().unwrap_err();
        assert!(matches!(err, CpuError::BadAccess(_)));
    }
}
