//! RTL cross-check of a DSE design point.
//!
//! The explorer scores candidates with the analytical model only; this
//! module re-validates a chosen assignment on the cycle-level fabric:
//! on the caller's placed-and-routed kernel (the mapping the search's
//! extra hops came from), assemble the bitstream with the candidate's
//! modes, run it once on the fabric engine ([`Fabric::run`]), and
//! require a clean stop, a final memory image matching the kernel's
//! host reference, and a steady state. `dse_sweep` runs it on every
//! kernel's best assignment — too slow for the inner search loop,
//! exactly right for the points the search actually recommends.
//! Agreement with the dense oracle on these assignments is a test
//! (`tests/engine_parity.rs`), not part of the check.

use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::MappedKernel;
use uecgra_dfg::Kernel;
use uecgra_rtl::{Fabric, FabricConfig, FabricStop};

/// Assemble `node_modes` onto `mapped` (a mapping of `kernel`), run it
/// on the fabric, and check the run against the host reference.
///
/// # Errors
///
/// Returns a description of the first failure: bitstream assembly or
/// validation, a protocol violation or tick-limit stop, a wrong
/// result, or no steady state.
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

    let config = FabricConfig {
        marker: Some(mapped.coord_of(kernel.iter_marker)),
        ..FabricConfig::default()
    };
    let act = Fabric::new(&bitstream, kernel.mem.clone(), config).run();
    let expect = kernel.reference_memory();
    let failure = if matches!(
        act.stop,
        FabricStop::TickLimit | FabricStop::ProtocolViolation
    ) {
        format!("fabric stopped with {:?}", act.stop)
    } else if act.mem.get(..expect.len()) != Some(&expect[..]) {
        format!("wrong result under modes {node_modes:?}")
    } else if act.steady_ii(8).is_none() {
        "no steady state".to_string()
    } else {
        return Ok(());
    };
    Err(format!("{}: {failure}", kernel.name))
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

    #[test]
    fn wrong_result_fails_the_crosscheck() {
        // A host reference that leaves memory untouched: the fabric's
        // image (llist writes its result) no longer matches it.
        let (mut k, mapped) = llist();
        k.reference = |mem, _| mem.to_vec();
        let modes = vec![VfMode::Nominal; k.dfg.node_count()];
        let err = rtl_crosscheck(&k, &mapped, &modes).unwrap_err();
        assert!(err.contains("wrong result"), "{err}");
    }
}
