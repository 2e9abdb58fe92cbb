//! RTL cross-check of a DSE design point.
//!
//! The explorer scores candidates with the analytical model only; this
//! module re-validates a chosen assignment on the cycle-level fabric by
//! reusing the differential oracle: on the caller's placed-and-routed
//! kernel (the mapping the search's extra hops came from), assemble
//! the bitstream with the candidate's modes, execute on the
//! event-driven engine ([`Fabric::run`]) **and** the dense reference
//! stepper ([`Fabric::run_reference`]), and require bit-identical
//! activity plus a final memory image matching the kernel's host
//! reference. `dse_sweep` runs it on every kernel's best assignment —
//! too slow for the inner search loop, exactly right for the points
//! the search actually recommends.

use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::MappedKernel;
use uecgra_dfg::Kernel;
use uecgra_rtl::{Fabric, FabricConfig};

/// Assemble `node_modes` onto `mapped` (a mapping of `kernel`), run it
/// on the engine and the dense oracle, and check them against each
/// other and the host reference.
///
/// # Errors
///
/// Returns a description of the first failure: bitstream assembly or
/// validation, an engine divergence, or a wrong result.
pub fn rtl_crosscheck(
    kernel: &Kernel,
    mapped: &MappedKernel,
    node_modes: &[VfMode],
) -> Result<(), String> {
    if node_modes.len() != kernel.dfg.node_count() {
        return Err(format!(
            "{}: {} modes for {} nodes",
            kernel.name,
            node_modes.len(),
            kernel.dfg.node_count()
        ));
    }
    let bitstream = Bitstream::assemble(&kernel.dfg, mapped, node_modes)
        .map_err(|e| format!("{}: assembly failed: {e:?}", kernel.name))?;
    bitstream
        .validate()
        .map_err(|e| format!("{}: bitstream invalid: {e:?}", kernel.name))?;

    let fabric = || {
        let config = FabricConfig {
            marker: Some(mapped.coord_of(kernel.iter_marker)),
            ..FabricConfig::default()
        };
        Fabric::new(&bitstream, kernel.mem.clone(), config)
    };
    let dense = fabric().run_reference();
    let event = fabric().run();

    // Differential oracle: the engines are bit-identical by contract.
    if dense.ticks != event.ticks
        || dense.marker_times != event.marker_times
        || dense.fires != event.fires
        || dense.mem != event.mem
    {
        return Err(format!(
            "{}: engine divergence (dense {} ticks / {} iters, event {} ticks / {} iters)",
            kernel.name,
            dense.ticks,
            dense.iterations(),
            event.ticks,
            event.iterations()
        ));
    }

    let expect = kernel.reference_memory();
    if dense.mem[..expect.len()] != expect[..] {
        return Err(format!(
            "{}: wrong result under modes {:?}",
            kernel.name, node_modes
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_compiler::mapping::ArrayShape;
    use uecgra_dfg::kernels;

    fn llist() -> (Kernel, MappedKernel) {
        let k = kernels::llist::build_with_hops(40);
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).unwrap();
        (k, mapped)
    }

    #[test]
    fn nominal_assignment_passes_the_crosscheck() {
        let (k, mapped) = llist();
        let modes = vec![VfMode::Nominal; k.dfg.node_count()];
        rtl_crosscheck(&k, &mapped, &modes).unwrap();
    }

    #[test]
    fn wrong_length_assignment_fails_loudly() {
        let (k, mapped) = llist();
        assert!(rtl_crosscheck(&k, &mapped, &[VfMode::Nominal]).is_err());
    }
}
