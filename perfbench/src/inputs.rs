//! Workload inputs: the five paper kernels, with input data drawn from
//! the workload seed.
//!
//! Seed [`SEED`] (7, the reproduction's own seed) runs the kernels
//! exactly as `kernels::all_kernels()` builds them, so its figures match
//! `table2_kernels`. Any other seed redraws each kernel's input data in
//! the kernel module's own layout and value ranges: a new linked-list order
//! for `llist`, new pixels for `dither` and `susan`, new samples for
//! `fft`, a new P schedule and S-boxes for `bf`. The DFGs, trip counts
//! and the mapping seed stay fixed, so compile work does not swing with
//! the workload seed (the mapper's run time varies about 5x with its
//! own seed).

use uecgra_core::experiments::SEED;
use uecgra_dfg::kernels::{bf, dither, fft, llist, susan};
use uecgra_dfg::Kernel;
use uecgra_util::SplitMix64;

/// Trip counts of one kernel set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Iterations of `llist`, `dither`, `susan` and `fft`.
    pub iters: usize,
    /// Rounds of `bf`.
    pub bf_rounds: usize,
}

impl Scale {
    /// The paper's evaluation scale (`kernels::all_kernels()`).
    pub const TABLE2: Scale = Scale {
        iters: 1000,
        bf_rounds: 32,
    };
    /// The long trip count of the `fabric_long` workload.
    pub const LONG: Scale = Scale {
        iters: 10_000,
        bf_rounds: 10_000,
    };
}

/// The five paper kernels at `scale`, with input data drawn from `seed`.
pub fn kernels(scale: Scale, seed: u64) -> Vec<Kernel> {
    let mut ks = vec![
        llist::build_with_hops(scale.iters),
        dither::build_with_pixels(scale.iters),
        susan::build_with_iters(scale.iters),
        fft::build_with_group(scale.iters),
        bf::build_with_rounds(scale.bf_rounds),
    ];
    if seed != SEED {
        let mut rng = SplitMix64::seed_from_u64(seed);
        for k in &mut ks {
            redraw(k, &mut rng);
        }
    }
    ks
}

/// Overwrite `len` words from `base` with random values under `mask`.
fn fill(mem: &mut [u32], rng: &mut SplitMix64, base: u32, len: usize, mask: u32) {
    for w in &mut mem[base as usize..base as usize + len] {
        *w = rng.next_u32() & mask;
    }
}

fn redraw(k: &mut Kernel, rng: &mut SplitMix64) {
    let n = k.iters;
    let mem = &mut k.mem;
    match k.name {
        "llist" => {
            // Visit the same `n` slots in a random order: HEAD first,
            // the last slot pointing at the target, `n` hops in all.
            let head = llist::HEAD as usize;
            let mut order: Vec<usize> = (head..head + n).collect();
            for i in (2..n).rev() {
                let j = 1 + rng.range(i);
                order.swap(i, j);
            }
            for pair in order.windows(2) {
                mem[pair[0]] = pair[1] as u32;
            }
            mem[order[n - 1]] = llist::target_for(n);
        }
        "dither" => fill(mem, rng, dither::SRC_BASE, n, 0xFF),
        "susan" => {
            fill(mem, rng, susan::IP_BASE, n, 0x3F);
            fill(mem, rng, susan::dpt_base(n), n, 0xF);
            fill(mem, rng, susan::cp_base(n), n, 0xF);
        }
        "fft" => {
            for base in [
                fft::RA_BASE,
                fft::rb_base(n),
                fft::ia_base(n),
                fft::ib_base(n),
            ] {
                fill(mem, rng, base, n, 0xFFF);
            }
        }
        "bf" => {
            let p_words = n.max(18).min((bf::S_BASE - bf::P_BASE) as usize);
            fill(mem, rng, bf::P_BASE, p_words, u32::MAX);
            fill(mem, rng, bf::S_BASE, 1024, u32::MAX);
        }
        other => unreachable!("no input generator for kernel {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seed_keeps_the_paper_inputs() {
        let ours = kernels(Scale::TABLE2, SEED);
        let paper = uecgra_dfg::kernels::all_kernels();
        for (a, b) in ours.iter().zip(&paper) {
            assert_eq!((a.name, &a.mem, a.iters), (b.name, &b.mem, b.iters));
        }
    }

    #[test]
    fn other_seeds_redraw_data_and_keep_the_reference_meaningful() {
        let small = Scale {
            iters: 50,
            bf_rounds: 20,
        };
        let (a, b, c) = (kernels(small, 1), kernels(small, 1), kernels(small, 2));
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.mem, y.mem, "{}: same seed, same inputs", x.name);
            assert_ne!(x.mem, z.mem, "{}: seed must change the inputs", x.name);
        }
        // The redrawn list still reaches its target after `n` hops.
        let list = &a[0];
        assert_eq!(
            list.reference_memory()[llist::RESULT_ADDR as usize],
            llist::target_for(50)
        );
    }
}
