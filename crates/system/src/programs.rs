//! The five benchmark kernels hand-lowered to RV32IM.
//!
//! Each program operates on the *same* word-level memory layout as the
//! corresponding dataflow kernel in `uecgra_dfg::kernels` (byte address
//! = 4 × word address), so the core's final memory can be checked
//! against the same host reference — and its cycle count compared
//! against the CGRA's for the paper's Table III.
//!
//! The code is what `-O2` would produce for the paper's Figure 9
//! loops: loop-invariant bases hoisted into registers, pointers
//! strength-reduced, one branch per loop.

use crate::asm::Assembler;
use crate::cpu::{Cpu, CpuError, RunResult};
use crate::isa::Instr;
use uecgra_dfg::kernels::{bf, dither, fft, llist, susan};

/// `llist`: pointer-chase search (Figure 9a).
pub fn llist_program(hops: usize) -> Vec<Instr> {
    let tgt = llist::target_for(hops);
    let mut a = Assembler::new();
    a.li(1, llist::HEAD); // hd
    a.li(2, tgt);
    let done = a.forward();
    let found = a.forward();
    let top = a.label();
    a.slli(3, 1, 2); // byte address
    a.lw(4, 3, 0); // v = mem[hd]
    a.beq_to(4, 2, found);
    a.beq_to(4, 0, done);
    a.addi(1, 4, 0); // hd = v
    a.jal_to(0, top);
    a.bind(found);
    a.sw(0, 4, (llist::RESULT_ADDR * 4) as i32);
    a.bind(done);
    a.ecall();
    a.assemble()
}

/// `dither`: Floyd–Steinberg error diffusion (Figure 9b).
pub fn dither_program(n: usize) -> Vec<Instr> {
    let mut a = Assembler::new();
    a.li(1, 0); // i
    a.li(2, n as u32);
    a.li(3, dither::SRC_BASE * 4); // src pointer
    a.li(4, dither::dst_base(n) * 4); // dst pointer
    a.li(5, 0); // err
    a.li(6, 127);
    a.li(7, 255);
    let big = a.forward();
    let next = a.forward();
    let top = a.label();
    a.lw(8, 3, 0); // src[i]
    a.add(8, 8, 5); // out = src[i] + err
    a.blt_to(6, 8, big); // 127 < out ?
    a.addi(5, 8, 0); // err = out
    a.sw(4, 0, 0); // dest[i] = 0
    a.jal_to(0, next);
    a.bind(big);
    a.sub(5, 8, 7); // err = out - 255
    a.sw(4, 7, 0); // dest[i] = 255
    a.bind(next);
    a.addi(3, 3, 4);
    a.addi(4, 4, 4);
    a.addi(1, 1, 1);
    a.blt_to(1, 2, top);
    a.ecall();
    a.assemble()
}

/// `susan`: smoothing accumulation (Figure 9c, with the same clamped
/// brightness as the dataflow kernel).
pub fn susan_program(n: usize) -> Vec<Instr> {
    let mut a = Assembler::new();
    a.li(1, 0); // x
    a.li(2, n as u32);
    a.li(3, susan::IP_BASE * 4);
    a.li(4, susan::dpt_base(n) * 4);
    a.li(5, susan::cp_base(n) * 4);
    a.li(6, susan::out_base(n) * 4);
    a.li(7, 0); // total
    a.li(8, 0); // area
    let top = a.label();
    a.lw(9, 3, 0); // ip[x]
    a.add(10, 7, 9); // bright
    a.andi(10, 10, 255);
    a.lw(11, 4, 0); // dpt[x]
    a.lw(12, 5, 0); // cp[x]
    a.mul(13, 11, 12); // tmp
    a.add(8, 8, 13); // area += tmp
    a.mul(14, 13, 10); // tmp * bright
    a.add(7, 7, 14); // total += ...
    a.sw(6, 8, 0); // out[x] = area
    a.addi(3, 3, 4);
    a.addi(4, 4, 4);
    a.addi(5, 5, 4);
    a.addi(6, 6, 4);
    a.addi(1, 1, 1);
    a.blt_to(1, 2, top);
    a.ecall();
    a.assemble()
}

/// `fft`: radix-2 butterfly loop (Figure 9d).
pub fn fft_program(g: usize) -> Vec<Instr> {
    let mut a = Assembler::new();
    a.li(1, 0); // k
    a.li(2, g as u32);
    a.li(3, fft::RA_BASE * 4);
    a.li(4, fft::rb_base(g) * 4);
    a.li(5, fft::ia_base(g) * 4);
    a.li(6, fft::ib_base(g) * 4);
    a.li(7, fft::WR);
    a.li(8, fft::WI);
    let top = a.label();
    a.lw(9, 4, 0); // rb
    a.lw(10, 6, 0); // ib
    a.mul(11, 9, 7); // Wr*rb
    a.mul(12, 10, 8); // Wi*ib
    a.sub(13, 11, 12); // t_r
    a.mul(11, 9, 8); // Wi*rb
    a.mul(12, 10, 7); // Wr*ib
    a.add(14, 11, 12); // t_i
    a.lw(9, 3, 0); // ra
    a.lw(10, 5, 0); // ia
    a.sub(15, 9, 13);
    a.sw(4, 15, 0); // rb' = ra - t_r
    a.add(15, 9, 13);
    a.sw(3, 15, 0); // ra' = ra + t_r
    a.sub(15, 10, 14);
    a.sw(6, 15, 0); // ib' = ia - t_i
    a.add(15, 10, 14);
    a.sw(5, 15, 0); // ia' = ia + t_i
    a.addi(3, 3, 4);
    a.addi(4, 4, 4);
    a.addi(5, 5, 4);
    a.addi(6, 6, 4);
    a.addi(1, 1, 1);
    a.blt_to(1, 2, top);
    a.ecall();
    a.assemble()
}

/// `bf`: Blowfish Feistel rounds (Figure 9e).
pub fn bf_program(rounds: usize) -> Vec<Instr> {
    let mut a = Assembler::new();
    a.li(1, 0); // i
    a.li(2, rounds as u32);
    a.li(3, bf::P_BASE * 4);
    a.li(31, bf::OUT_BASE * 4);
    a.li(20, bf::S_BASE * 4); // S0
    a.li(21, (bf::S_BASE + 256) * 4); // S1
    a.li(22, (bf::S_BASE + 512) * 4); // S2
    a.li(23, (bf::S_BASE + 768) * 4); // S3
    a.li(5, bf::L0);
    a.li(6, bf::R0);
    let top = a.label();
    a.lw(7, 3, 0); // p[i]
    a.xor(8, 5, 7); // xl = left ^ p
    a.srli(9, 8, 24); // a
    a.slli(9, 9, 2);
    a.add(9, 9, 20);
    a.lw(10, 9, 0); // sa
    a.srli(9, 8, 16);
    a.andi(9, 9, 255); // b
    a.slli(9, 9, 2);
    a.add(9, 9, 21);
    a.lw(11, 9, 0); // sb
    a.add(10, 10, 11); // sa + sb
    a.srli(9, 8, 8);
    a.andi(9, 9, 255); // c
    a.slli(9, 9, 2);
    a.add(9, 9, 22);
    a.lw(11, 9, 0); // sc
    a.xor(10, 10, 11); // ^ sc
    a.andi(9, 8, 255); // d
    a.slli(9, 9, 2);
    a.add(9, 9, 23);
    a.lw(11, 9, 0); // sd
    a.add(10, 10, 11); // + sd
    a.xor(10, 10, 7); // ^ p
    a.xor(14, 6, 10); // xr = right ^ F
    a.sw(31, 14, 0); // out[i] = xr
    a.addi(6, 8, 0); // right' = xl
    a.addi(5, 14, 0); // left' = xr
    a.addi(3, 3, 4);
    a.addi(31, 31, 4);
    a.addi(1, 1, 1);
    a.blt_to(1, 2, top);
    a.ecall();
    a.assemble()
}

/// The RV32IM program of the kernel named `name` at `iters`
/// iterations.
///
/// # Panics
///
/// Panics on a name that is not one of the five paper kernels.
pub fn program(name: &str, iters: usize) -> Vec<Instr> {
    match name {
        "llist" => llist_program(iters),
        "dither" => dither_program(iters),
        "susan" => susan_program(iters),
        "fft" => fft_program(iters),
        "bf" => bf_program(iters),
        other => panic!("unknown kernel {other}"),
    }
}

/// Run a kernel's program on the core over the kernel's own memory
/// image.
///
/// # Errors
///
/// Propagates any [`CpuError`] (none occur for well-formed kernels).
pub fn run_on_core(name: &str, iters: usize, mem: Vec<u32>) -> Result<RunResult, CpuError> {
    Cpu::new(program(name, iters), mem).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::InstrMix;
    use crate::ooo::{run_ooo, OooParams};
    use uecgra_dfg::kernels;

    #[test]
    fn core_programs_match_kernel_references() {
        for k in [
            kernels::llist::build_with_hops(50),
            kernels::dither::build_with_pixels(50),
            kernels::susan::build_with_iters(50),
            kernels::fft::build_with_group(50),
            kernels::bf::build_with_rounds(16),
        ] {
            let r = run_on_core(k.name, k.iters, k.mem.clone())
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert_eq!(
                r.mem,
                k.reference_memory(),
                "{}: core result diverges from reference",
                k.name
            );
        }
    }

    /// Pins the in-order core's exact cycles and instruction mix and
    /// the OoO model's cycles on the paper kernels, so a change to how
    /// programs reach the core cannot move Table III's core figures or
    /// `ablation_ooo` unnoticed.
    #[test]
    fn core_timing_is_pinned() {
        let mix = |alu, mul, load, store, branch| InstrMix {
            alu,
            mul,
            div: 0,
            load,
            store,
            branch,
        };
        let pins = [
            (
                kernels::llist::build_with_hops(50),
                451,
                mix(101, 0, 50, 1, 148),
                251,
            ),
            (
                kernels::dither::build_with_pixels(50),
                731,
                mix(257, 0, 50, 50, 125),
                123,
            ),
            (
                kernels::susan::build_with_iters(50),
                1207,
                mix(458, 100, 150, 50, 50),
                307,
            ),
            (
                kernels::fft::build_with_group(50),
                1707,
                mix(558, 200, 200, 200, 50),
                305,
            ),
            (
                kernels::bf::build_with_rounds(16),
                622,
                mix(415, 0, 80, 16, 16),
                230,
            ),
        ];
        for (k, cycles, mix, ooo_cycles) in pins {
            let r = run_on_core(k.name, k.iters, k.mem.clone()).unwrap();
            assert_eq!((r.cycles, r.mix), (cycles, mix), "{}: in-order", k.name);
            let ooo = run_ooo(program(k.name, k.iters), k.mem, OooParams::default()).unwrap();
            assert_eq!(ooo.cycles, ooo_cycles, "{}: out-of-order", k.name);
        }
    }

    #[test]
    fn cycles_per_iteration_are_plausible() {
        // A scalar in-order core needs roughly 8-40 cycles per
        // iteration across these kernels (Section VII-D's comparison
        // baseline).
        let budgets = [
            ("llist", 60, 6.0, 14.0),
            ("dither", 60, 8.0, 18.0),
            ("susan", 60, 14.0, 30.0),
            ("fft", 60, 22.0, 48.0),
            ("bf", 32, 25.0, 55.0),
        ];
        for (name, iters, lo, hi) in budgets {
            let k = match name {
                "llist" => kernels::llist::build_with_hops(iters),
                "dither" => kernels::dither::build_with_pixels(iters),
                "susan" => kernels::susan::build_with_iters(iters),
                "fft" => kernels::fft::build_with_group(iters),
                _ => kernels::bf::build_with_rounds(iters),
            };
            let r = run_on_core(k.name, k.iters, k.mem.clone()).unwrap();
            let cpi = r.cycles as f64 / k.iters as f64;
            assert!(
                cpi >= lo && cpi <= hi,
                "{name}: {cpi:.1} cycles/iter outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn instruction_mix_reflects_kernel_character() {
        let k = kernels::fft::build_with_group(32);
        let r = run_on_core("fft", 32, k.mem.clone()).unwrap();
        assert_eq!(r.mix.mul, 4 * 32, "four multiplies per butterfly");
        assert_eq!(r.mix.load, 4 * 32);
        assert_eq!(r.mix.store, 4 * 32);

        let k = kernels::bf::build_with_rounds(8);
        let r = run_on_core("bf", 8, k.mem.clone()).unwrap();
        assert_eq!(r.mix.mul, 0, "blowfish has no multiplies");
        assert_eq!(r.mix.load, 5 * 8, "p + four s-box loads per round");
    }

    #[test]
    fn iteration_count_scales_cycles_linearly() {
        let k1 = kernels::dither::build_with_pixels(40);
        let k2 = kernels::dither::build_with_pixels(80);
        let r1 = run_on_core("dither", 40, k1.mem.clone()).unwrap();
        let r2 = run_on_core("dither", 80, k2.mem.clone()).unwrap();
        let ratio = r2.cycles as f64 / r1.cycles as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }
}
