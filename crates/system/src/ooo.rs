//! Idealized out-of-order core timing model (paper Section VIII-B).
//!
//! The paper's Q&A argues that an out-of-order core extracts the same
//! ILP a CGRA does but cannot accelerate true-dependency chains — its
//! speculation targets control flow, not data — and that sprinting it
//! monolithically would burn far more energy. This model quantifies
//! the performance side with a *generous* OoO abstraction: perfect
//! branch prediction, a finite instruction window and issue width,
//! dataflow-limited issue through registers, and store→load forwarding
//! through memory. It therefore upper-bounds what a real OoO core of
//! that window could do on the kernels.

use crate::cpu::{Cpu, CpuError, InstrMix, TraceEntry};
use crate::isa::{Instr, MulOp};
use std::collections::HashMap;

/// OoO machine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooParams {
    /// Instructions fetched/issued per cycle.
    pub issue_width: u64,
    /// Reorder-buffer size (instructions in flight).
    pub window: usize,
    /// Load-to-use latency (L1 hit).
    pub load_latency: u64,
    /// Multiply latency.
    pub mul_latency: u64,
    /// Divide latency.
    pub div_latency: u64,
}

impl Default for OooParams {
    /// A four-wide, 128-entry machine — large for the comparison's
    /// 750 MHz class, which only strengthens the paper's point.
    fn default() -> Self {
        OooParams {
            issue_width: 4,
            window: 128,
            load_latency: 3,
            mul_latency: 3,
            div_latency: 16,
        }
    }
}

/// Result of the OoO timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct OooResult {
    /// Dataflow-limited cycle count.
    pub cycles: u64,
    /// Dynamic instruction mix (identical to the in-order run).
    pub mix: InstrMix,
    /// Final memory (identical to the in-order run).
    pub mem: Vec<u32>,
}

/// Schedule a dynamic trace on the idealized OoO machine.
pub fn schedule(trace: &[TraceEntry], params: OooParams) -> u64 {
    let mut reg_ready = [0u64; 32];
    let mut mem_ready: HashMap<u32, u64> = HashMap::new();
    // Completion times of the last `window` instructions (ring buffer).
    let mut inflight: Vec<u64> = Vec::with_capacity(params.window);
    let mut head = 0usize;
    let mut last = 0u64;

    for (i, entry) in trace.iter().enumerate() {
        let fetch_t = i as u64 / params.issue_width;
        let mut issue = fetch_t;
        for r in entry.instr.sources().into_iter().flatten() {
            issue = issue.max(reg_ready[r as usize]);
        }
        // Window constraint: cannot issue while the instruction
        // `window` older is still incomplete.
        if inflight.len() == params.window {
            issue = issue.max(inflight[head]);
        }

        let latency = match entry.instr {
            Instr::Lw { .. } => params.load_latency,
            Instr::MulDiv { op, .. } => match op {
                MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu => params.div_latency,
                _ => params.mul_latency,
            },
            _ => 1,
        };

        // Memory ordering: loads wait for the youngest older store to
        // the same word (perfect disambiguation + forwarding); stores
        // serialize after older accesses to the same word.
        if let Some(addr) = entry.addr {
            if let Some(&t) = mem_ready.get(&addr) {
                issue = issue.max(t);
            }
        }
        let complete = issue + latency;
        if let Some(addr) = entry.addr {
            mem_ready.insert(addr, complete);
        }
        if let Some(rd) = entry.instr.dest() {
            reg_ready[rd as usize] = complete;
        }

        if inflight.len() == params.window {
            inflight[head] = complete;
            head = (head + 1) % params.window;
        } else {
            inflight.push(complete);
        }
        last = last.max(complete);
    }
    last
}

/// Run a program functionally and price it on the OoO model.
///
/// # Errors
///
/// Propagates functional-execution errors.
pub fn run_ooo(
    program: Vec<Instr>,
    dmem: Vec<u32>,
    params: OooParams,
) -> Result<OooResult, CpuError> {
    let (result, trace) = Cpu::new(program, dmem).run_with_trace()?;
    Ok(OooResult {
        cycles: schedule(&trace, params),
        mix: result.mix,
        mem: result.mem,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::programs;
    use uecgra_dfg::kernels;

    #[test]
    fn independent_work_issues_wide() {
        // Eight independent adds on a 4-wide machine: ~3 cycles, not 8.
        let mut a = Assembler::new();
        for rd in 1..=8u8 {
            a.addi(rd, 0, rd as i32);
        }
        a.ecall();
        let r = run_ooo(a.assemble(), vec![], OooParams::default()).unwrap();
        assert!(r.cycles <= 4, "cycles {}", r.cycles);
    }

    #[test]
    fn dependent_chain_is_serial() {
        // A 16-deep add chain cannot beat 16 cycles no matter the width.
        let mut a = Assembler::new();
        a.addi(1, 0, 1);
        for _ in 0..16 {
            a.add(1, 1, 1);
        }
        a.ecall();
        let r = run_ooo(a.assemble(), vec![], OooParams::default()).unwrap();
        assert!(r.cycles >= 16, "cycles {}", r.cycles);
        assert!(r.cycles <= 20);
    }

    #[test]
    fn store_load_forwarding_orders_memory() {
        let mut a = Assembler::new();
        a.addi(1, 0, 42);
        a.sw(0, 1, 0); // mem[0] = 42
        a.lw(2, 0, 0); // must see it
        a.add(3, 2, 2);
        a.ecall();
        let r = run_ooo(a.assemble(), vec![0; 4], OooParams::default()).unwrap();
        assert_eq!(r.mem[0], 42);
        // The load waits for the store: >= store issue + 1 + load lat.
        assert!(r.cycles >= 5, "cycles {}", r.cycles);
    }

    #[test]
    fn ooo_is_never_slower_than_in_order_on_kernels() {
        for k in [
            kernels::dither::build_with_pixels(40),
            kernels::fft::build_with_group(40),
        ] {
            let in_order = programs::run_on_core(k.name, k.iters, k.mem.clone()).unwrap();
            let program = programs::program(k.name, k.iters);
            let ooo = run_ooo(program, k.mem.clone(), OooParams::default()).unwrap();
            assert_eq!(ooo.mem, in_order.mem, "{}: functional mismatch", k.name);
            assert!(
                ooo.cycles <= in_order.cycles,
                "{}: OoO {} vs in-order {}",
                k.name,
                ooo.cycles,
                in_order.cycles
            );
        }
    }

    #[test]
    fn ilp_rich_fft_gains_much_more_than_llist() {
        // The paper's VIII-B point: OoO extracts ILP (fft) but cannot
        // accelerate a pointer chase (llist).
        let fft = kernels::fft::build_with_group(60);
        let fio = programs::run_on_core("fft", 60, fft.mem.clone()).unwrap();
        let fooo = run_ooo(
            programs::fft_program(60),
            fft.mem.clone(),
            OooParams::default(),
        )
        .unwrap();
        let fft_gain = fio.cycles as f64 / fooo.cycles as f64;

        let ll = kernels::llist::build_with_hops(60);
        let lio = programs::run_on_core("llist", 60, ll.mem.clone()).unwrap();
        let looo = run_ooo(
            programs::llist_program(60),
            ll.mem.clone(),
            OooParams::default(),
        )
        .unwrap();
        let llist_gain = lio.cycles as f64 / looo.cycles as f64;

        assert!(fft_gain > 2.0, "fft OoO gain {fft_gain}");
        assert!(
            llist_gain < fft_gain / 1.5,
            "llist gain {llist_gain} too close"
        );
    }

    #[test]
    fn window_limits_extractable_ilp() {
        let k = kernels::fft::build_with_group(60);
        let wide = run_ooo(
            programs::fft_program(60),
            k.mem.clone(),
            OooParams::default(),
        )
        .unwrap();
        let narrow = run_ooo(
            programs::fft_program(60),
            k.mem.clone(),
            OooParams {
                window: 8,
                issue_width: 1,
                ..OooParams::default()
            },
        )
        .unwrap();
        assert!(narrow.cycles > wide.cycles);
    }
}
