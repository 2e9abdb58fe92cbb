//! Routing legality, checked rule by rule on every mapping the golden
//! pins cover, whatever the placer and router do inside:
//!
//! - every fabric node sits on its own PE, memory ops on the
//!   perimeter rows, pseudo-ops off the fabric;
//! - each net's parent links form a tree of neighbour steps that
//!   reaches the net's root from every PE it touches;
//! - no directed link carries two nets, and no PE bypasses more than
//!   two;
//! - every edge's route runs from its producer to its consumer through
//!   neighbouring PEs, along its own net's tree.

mod common;

use common::mapping_cases;
use std::collections::{HashMap, HashSet};
use uecgra_compiler::mapping::{ArrayShape, Coord, MappedKernel};
use uecgra_dfg::Dfg;

fn check_placement(label: &str, dfg: &Dfg, mapped: &MappedKernel) {
    let mut hosts: HashSet<Coord> = HashSet::new();
    for (id, n) in dfg.nodes() {
        let c = mapped.placement.coord(id);
        if n.op.is_pseudo() {
            assert!(c.is_none(), "{label}: pseudo-op {id} placed at {c:?}");
            continue;
        }
        let c = c.unwrap_or_else(|| panic!("{label}: node {id} unplaced"));
        assert!(
            c.0 < mapped.shape.width && c.1 < mapped.shape.height,
            "{label}: node {id} off the array at {c:?}"
        );
        assert!(hosts.insert(c), "{label}: PE {c:?} hosts two nodes");
        if n.op.is_memory() {
            assert!(
                mapped.shape.is_memory_row(c),
                "{label}: memory op {id} at {c:?} is off the perimeter"
            );
        }
    }
}

fn check_nets(label: &str, mapped: &MappedKernel) {
    let mut link_owner: HashMap<(Coord, Coord), usize> = HashMap::new();
    for (ni, net) in mapped.routing.nets.iter().enumerate() {
        assert!(
            !net.parent.contains_key(&net.root),
            "{label}: net {ni} root has a parent"
        );
        for (&child, &parent) in &net.parent {
            assert_eq!(
                ArrayShape::manhattan(child, parent),
                1,
                "{label}: net {ni} link {parent:?}->{child:?} is not a neighbour step"
            );
            if let Some(other) = link_owner.insert((parent, child), ni) {
                panic!("{label}: link {parent:?}->{child:?} carries nets {other} and {ni}");
            }
            // Walking parents reaches the root within one step per
            // tree link, so the links form a tree rather than a cycle.
            let mut cur = child;
            let mut steps = 0;
            while cur != net.root {
                cur = *net.parent.get(&cur).unwrap_or_else(|| {
                    panic!("{label}: net {ni} walk from {child:?} leaves the tree")
                });
                steps += 1;
                assert!(steps <= net.parent.len(), "{label}: net {ni} has a cycle");
            }
        }
    }
    for (y, row) in mapped.bypass_load().iter().enumerate() {
        for (x, &load) in row.iter().enumerate() {
            assert!(load <= 2, "{label}: PE ({x}, {y}) bypasses {load} nets");
        }
    }
}

fn check_routes(label: &str, dfg: &Dfg, mapped: &MappedKernel) {
    let routing = &mapped.routing;
    for (id, e) in dfg.edges() {
        let path = &mapped.route(id).path;
        let (Some(s), Some(d)) = (mapped.placement.coord(e.src), mapped.placement.coord(e.dst))
        else {
            assert!(path.is_empty(), "{label}: off-fabric edge {id} has a route");
            assert_eq!(routing.net_of_edge[id.index()], usize::MAX);
            continue;
        };
        assert_eq!(
            path.first(),
            Some(&s),
            "{label}: edge {id} starts elsewhere"
        );
        assert_eq!(path.last(), Some(&d), "{label}: edge {id} ends elsewhere");
        let net = &routing.nets[routing.net_of_edge[id.index()]];
        assert!(
            net.edges.contains(&id) && net.src == e.src && net.src_port == e.src_port,
            "{label}: edge {id} assigned to a net of another value"
        );
        if s == d {
            assert_eq!(path.len(), 1, "{label}: self-loop {id} leaves its PE");
            continue;
        }
        for w in path.windows(2) {
            assert_eq!(
                ArrayShape::manhattan(w[0], w[1]),
                1,
                "{label}: edge {id} jumps {:?}->{:?}",
                w[0],
                w[1]
            );
            assert_eq!(
                net.parent.get(&w[1]),
                Some(&w[0]),
                "{label}: edge {id} leaves its net's tree"
            );
        }
    }
    let served: usize = routing.nets.iter().map(|n| n.edges.len()).sum();
    let on_fabric = routing
        .net_of_edge
        .iter()
        .filter(|&&n| n != usize::MAX)
        .count();
    assert_eq!(served, on_fabric, "{label}: nets and net_of_edge disagree");
}

#[test]
fn every_mapping_is_legal() {
    for case in mapping_cases() {
        let mapped = MappedKernel::map(&case.dfg, ArrayShape::default(), case.seed)
            .unwrap_or_else(|e| panic!("{}: {e}", case.label));
        check_placement(&case.label, &case.dfg, &mapped);
        check_nets(&case.label, &mapped);
        check_routes(&case.label, &case.dfg, &mapped);
    }
}
