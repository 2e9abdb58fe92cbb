//! End-to-end error-path coverage for the pipeline: each failure mode
//! a caller can trigger through [`RunRequest`] must surface the right
//! [`Error`] variant (with its stage error chained as the source),
//! not a panic and not a mislabelled stage.

use uecgra_compiler::mapping::MapError;
use uecgra_core::error::{error_chain, Error};
use uecgra_core::pipeline::RunRequest;
use uecgra_dfg::kernels::synthetic;
use uecgra_dfg::{Dfg, Kernel, Op};

/// Identity host reference for kernels that exist only to fail before
/// execution.
fn no_op_reference(mem: &[u32], _iters: usize) -> Vec<u32> {
    mem.to_vec()
}

/// Wrap a synthetic DFG in a [`Kernel`] so it can enter the pipeline.
fn kernel_of(name: &'static str, dfg: Dfg, marker: uecgra_dfg::NodeId) -> Kernel {
    Kernel {
        name,
        dfg,
        mem: Vec::new(),
        iters: 1,
        iter_marker: marker,
        ideal_recurrence: 1,
        reference: no_op_reference,
    }
}

#[test]
fn oversized_kernel_fails_with_map_error() {
    // 100 pipeline stages plus source and sink cannot place on the
    // default 8x8 array.
    let s = synthetic::chain(100);
    let k = kernel_of("chain100", s.dfg, s.iter_marker);
    let err = RunRequest::new(&k)
        .run()
        .expect_err("a 100-node chain must not place on 64 PEs");
    match err {
        Error::Map(MapError::TooManyNodes { nodes, pes }) => {
            assert!(nodes > pes, "{nodes} nodes should exceed {pes} PEs");
            assert_eq!(pes, 64);
        }
        other => panic!("wrong variant: {other:?}"),
    }
}

#[test]
fn too_many_memory_nodes_fail_with_map_error() {
    // 20 independent load paths: well under 64 nodes total, but more
    // memory ops than the 16 perimeter (memory-row) PE slots.
    let mut g = Dfg::new();
    let mut marker = None;
    for i in 0..20 {
        let src = g.add_node(Op::Source, format!("a{i}")).id();
        let ld = g.add_node(Op::Load, format!("ld{i}")).id();
        let sink = g.add_node(Op::Sink, format!("s{i}")).id();
        g.connect(src, ld);
        g.connect(ld, sink);
        marker.get_or_insert(ld);
    }
    let k = kernel_of("loads20", g, marker.expect("at least one load"));
    let err = RunRequest::new(&k)
        .run()
        .expect_err("20 memory nodes must not place on 16 memory slots");
    match err {
        Error::Map(MapError::TooManyMemoryNodes { nodes, slots }) => {
            assert_eq!(nodes, 20);
            assert_eq!(slots, 16);
        }
        other => panic!("wrong variant: {other:?}"),
    }
}

#[test]
fn map_errors_chain_the_mapping_stage() {
    let s = synthetic::chain(100);
    let k = kernel_of("chain100", s.dfg, s.iter_marker);
    let err = RunRequest::new(&k).run().expect_err("must not place");
    let chain = error_chain(&err);
    assert!(chain.starts_with("error: mapping failed"), "{chain}");
    assert!(chain.contains("caused by:"), "{chain}");
}

#[test]
fn zero_queue_depth_fails_before_placement() {
    // A runnable kernel gets the structured error instead of a panic
    // in the fabric's queue constructor.
    let k = uecgra_dfg::kernels::llist::build_with_hops(20);
    let err = RunRequest::new(&k)
        .queue_depth(0)
        .run()
        .expect_err("queues of depth zero cannot run");
    assert!(matches!(err, Error::ZeroQueueDepth), "{err:?}");
    // An unplaceable kernel proves the check precedes placement: it
    // would otherwise fail with a mapping error.
    let s = synthetic::chain(100);
    let k = kernel_of("chain100", s.dfg, s.iter_marker);
    let err = RunRequest::new(&k)
        .queue_depth(0)
        .run()
        .expect_err("zero depth");
    assert!(matches!(err, Error::ZeroQueueDepth), "{err:?}");
    assert_eq!(
        error_chain(&err),
        "error: input queues need a depth of at least one"
    );
}
