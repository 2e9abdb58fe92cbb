//! Allocation gate: `Fabric::run` allocates a fixed amount per run,
//! not per token. A counting global allocator measures the allocation
//! calls one run makes (`alloc` and `realloc`, counted on the calling
//! thread only, so parallel tests do not disturb the count) on the
//! same compiled kernel at two trip counts, 200 and 2,000. The only
//! storage that legitimately grows with the trip count is
//! `Activity::marker_times`, one entry per iteration, whose `Vec`
//! doubles about log2(2000 / 200) ≈ 3.3 more times on the longer run.
//! Anything allocated per fire, per edge or per tick shows up here as
//! thousands of extra calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map, Objective};
use uecgra_dfg::kernels::{self, Kernel};
use uecgra_rtl::fabric::{Fabric, FabricConfig};

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` keeps allocations during thread teardown harmless.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is
// a const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Extra `marker_times` growths allowed on the longer run: the `Vec`
/// doubles from 256 to 2,048 slots (3 reallocations) plus one more in
/// case a run ends right past a power of two.
const MARKER_DOUBLINGS: u64 = 4;
/// Slack for anything else the two runs size differently once (for
/// example a scratch buffer reaching its high-water mark a little
/// later on one run).
const SLACK: u64 = 4;

/// Allocation calls made by one `Fabric::run` of `k` under `modes`
/// (the fabric is built outside the counted window).
fn run_allocs(k: &Kernel, modes: &[VfMode]) -> (u64, u64) {
    let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).expect("kernel maps");
    let bs = Bitstream::assemble(&k.dfg, &mapped, modes).expect("kernel assembles");
    let config = FabricConfig {
        marker: Some(mapped.coord_of(k.iter_marker)),
        ..FabricConfig::default()
    };
    let fab = Fabric::new(&bs, k.mem.clone(), config);
    let before = CALLS.with(Cell::get);
    let act = fab.run();
    let calls = CALLS.with(Cell::get) - before;
    let expect = k.reference_memory();
    assert_eq!(
        &act.mem[..expect.len()],
        &expect[..],
        "{}: wrong result",
        k.name
    );
    (calls, act.iterations())
}

#[test]
fn run_allocations_do_not_grow_with_trip_count() {
    let short = kernels::dither::build_with_pixels(200);
    let long = kernels::dither::build_with_pixels(2_000);
    // POpt mixes clock domains, so suppression and catch-up paths run.
    let modes = power_map(
        &short.dfg,
        short.mem.clone(),
        short.iter_marker,
        Objective::Performance,
    )
    .node_modes;
    let (short_calls, short_iters) = run_allocs(&short, &modes);
    let (long_calls, long_iters) = run_allocs(&long, &modes);
    assert!(
        long_iters >= 10 * short_iters - 10,
        "the long run must do about ten times the work ({short_iters} vs {long_iters} iterations)"
    );
    let grown = long_calls.saturating_sub(short_calls);
    assert!(
        grown <= MARKER_DOUBLINGS + SLACK,
        "Fabric::run made {short_calls} allocation calls at 200 iterations but \
         {long_calls} at 2,000: {grown} more than the allowed {MARKER_DOUBLINGS} \
         marker_times doublings + {SLACK}"
    );
}
