//! Topological ordering with recurrence-edge exclusion.
//!
//! Placement and several models need a forward order of the DFG. The
//! graph may contain cycles (recurrences), so ordering is performed on
//! the graph minus its back edges — exactly the forward dataflow order
//! tokens follow within one iteration.

use crate::graph::{Dfg, EdgeId, NodeId};
use std::collections::HashSet;

/// A topological order of the DFG with its recurrence (back) edges
/// removed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoOrder {
    order: Vec<NodeId>,
    rank: Vec<usize>,
    excluded: Vec<EdgeId>,
}

impl TopoOrder {
    /// Compute a forward order of `graph`, ignoring recurrence edges.
    pub fn compute(graph: &Dfg) -> TopoOrder {
        let excluded: Vec<EdgeId> = graph.recurrence_edges().collect();
        let excluded_set: HashSet<usize> = excluded.iter().map(|e| e.index()).collect();

        let n = graph.node_count();
        let mut indegree = vec![0usize; n];
        for (id, e) in graph.edges() {
            if !excluded_set.contains(&id.index()) {
                indegree[e.dst.index()] += 1;
            }
        }
        let mut ready: Vec<NodeId> = graph
            .node_ids()
            .filter(|n| indegree[n.index()] == 0)
            .collect();
        // Stable order: lowest id first makes results deterministic.
        ready.sort();
        ready.reverse();

        let mut order = Vec::with_capacity(n);
        while let Some(node) = ready.pop() {
            order.push(node);
            let mut newly_ready = Vec::new();
            for (id, e) in graph.outputs(node) {
                if excluded_set.contains(&id.index()) {
                    continue;
                }
                indegree[e.dst.index()] -= 1;
                if indegree[e.dst.index()] == 0 {
                    newly_ready.push(e.dst);
                }
            }
            newly_ready.sort();
            for nr in newly_ready.into_iter().rev() {
                ready.push(nr);
            }
        }
        debug_assert_eq!(order.len(), n, "back-edge removal must break all cycles");

        let mut rank = vec![0usize; n];
        for (i, node) in order.iter().enumerate() {
            rank[node.index()] = i;
        }
        TopoOrder {
            order,
            rank,
            excluded,
        }
    }

    /// Nodes in forward dataflow order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Position of `node` in the order.
    pub fn rank(&self, node: NodeId) -> usize {
        self.rank[node.index()]
    }

    /// The recurrence edges that were excluded to acyclify the graph.
    pub fn excluded_edges(&self) -> &[EdgeId] {
        &self.excluded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    #[test]
    fn orders_respect_forward_edges() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Source, "a").id();
        let b = g.add_node(Op::Add, "b").constant(0).id();
        let c = g.add_node(Op::Mul, "c").constant(0).id();
        let d = g.add_node(Op::Sink, "d").id();
        g.connect(a, b);
        g.connect(a, c);
        g.connect(b, d);
        let topo = TopoOrder::compute(&g);
        assert!(topo.rank(a) < topo.rank(b));
        assert!(topo.rank(a) < topo.rank(c));
        assert!(topo.rank(b) < topo.rank(d));
        assert_eq!(topo.order().len(), 4);
    }

    #[test]
    fn cycles_are_broken_by_back_edges() {
        let mut g = Dfg::new();
        let phi = g.add_node(Op::Phi, "phi").init(0).id();
        let add = g.add_node(Op::Add, "add").constant(1).id();
        let out = g.add_node(Op::Sink, "out").id();
        g.connect(phi, add);
        g.connect(add, phi);
        g.connect(add, out);
        let topo = TopoOrder::compute(&g);
        assert_eq!(topo.order().len(), 3);
        assert_eq!(topo.excluded_edges().len(), 1);
        assert!(topo.rank(phi) < topo.rank(add));
    }

    #[test]
    fn deterministic_order() {
        let mut g = Dfg::new();
        let s = g.add_node(Op::Source, "s").id();
        let xs: Vec<NodeId> = (0..5)
            .map(|i| {
                let x = g.add_node(Op::Add, format!("x{i}")).constant(0).id();
                g.connect(s, x);
                x
            })
            .collect();
        let topo = TopoOrder::compute(&g);
        // Parallel siblings come out in id order.
        let ranks: Vec<usize> = xs.iter().map(|&x| topo.rank(x)).collect();
        let mut sorted = ranks.clone();
        sorted.sort();
        assert_eq!(ranks, sorted);
    }
}
