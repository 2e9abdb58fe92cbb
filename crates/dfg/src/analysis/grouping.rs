//! Chain grouping for the compiler power-mapping pass.
//!
//! The paper's complexity-reduction phase (Section III) observes that a
//! singly-connected chain of nodes is rate-matched end to end — "the
//! throughput of an entire chain is determined by the slowest PE" — so
//! all nodes of such a chain should share one logical power domain.
//! `GroupNodes()` merges maximal chains; nodes with multiple inputs or
//! outputs remain ungrouped from other nodes.

use crate::graph::{Dfg, NodeId};

/// A partition of the DFG's nodes into power-domain groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping {
    groups: Vec<Vec<NodeId>>,
    group_of: Vec<usize>,
}

impl Grouping {
    /// Group maximal singly-connected chains (the paper's `GroupNodes`).
    ///
    /// A node joins its unique successor's group when the node has
    /// exactly one outgoing edge, the successor has exactly one incoming
    /// edge, and neither endpoint is a source/sink pseudo-op (live-ins
    /// and live-outs are SRAM banks with their own power domains).
    pub fn chains(graph: &Dfg) -> Grouping {
        let n = graph.node_count();
        // Union-find over node indices.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }

        for (_, e) in graph.edges() {
            let src = e.src;
            let dst = e.dst;
            if graph.node(src).op.is_pseudo() || graph.node(dst).op.is_pseudo() {
                continue;
            }
            if graph.fan_out(src) == 1 && graph.fan_in(dst) == 1 && src != dst {
                let a = find(&mut parent, src.index());
                let b = find(&mut parent, dst.index());
                if a != b {
                    parent[a] = b;
                }
            }
        }

        let mut group_of = vec![usize::MAX; n];
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            if group_of[root] == usize::MAX {
                group_of[root] = groups.len();
                groups.push(Vec::new());
            }
            group_of[i] = group_of[root];
            groups[group_of[root]].push(NodeId(i as u32));
        }
        for g in &mut groups {
            g.sort();
        }
        Grouping { groups, group_of }
    }

    /// The groups, each a sorted list of member nodes.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Index of the group containing `node`.
    pub fn group_of(&self, node: NodeId) -> usize {
        self.group_of[node.index()]
    }

    /// Members of group `idx`.
    pub fn members(&self, idx: usize) -> &[NodeId] {
        &self.groups[idx]
    }

    /// The groups a power mapping may change, in index order: all but
    /// the pseudo-op singletons (pseudo-ops never join a chain), which
    /// stay nominal.
    pub fn searchable(&self, graph: &Dfg) -> Vec<usize> {
        (0..self.len())
            .filter(|&g| !graph.node(self.groups[g][0]).op.is_pseudo())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    #[test]
    fn straight_chain_is_one_group() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Add, "a").constant(0).id();
        let b = g.add_node(Op::Mul, "b").constant(0).id();
        let c = g.add_node(Op::Sub, "c").constant(0).id();
        g.connect(a, b);
        g.connect(b, c);
        let grouping = Grouping::chains(&g);
        assert_eq!(grouping.len(), 1);
        assert_eq!(grouping.group_of(a), grouping.group_of(c));
    }

    #[test]
    fn fork_point_breaks_chain() {
        // a -> b, a -> c : a has fan-out 2, so three groups.
        let mut g = Dfg::new();
        let a = g.add_node(Op::Add, "a").constant(0).id();
        let b = g.add_node(Op::Add, "b").constant(0).id();
        let c = g.add_node(Op::Add, "c").constant(0).id();
        g.connect(a, b);
        g.connect(a, c);
        let grouping = Grouping::chains(&g);
        assert_eq!(grouping.len(), 3);
        assert_ne!(grouping.group_of(a), grouping.group_of(b));
        assert_ne!(grouping.group_of(b), grouping.group_of(c));
    }

    #[test]
    fn join_point_breaks_chain() {
        // a -> c, b -> c : c has fan-in 2.
        let mut g = Dfg::new();
        let a = g.add_node(Op::Add, "a").constant(0).id();
        let b = g.add_node(Op::Add, "b").constant(0).id();
        let c = g.add_node(Op::Add, "c").id();
        g.connect(a, c);
        g.connect(b, c);
        let grouping = Grouping::chains(&g);
        assert_eq!(grouping.len(), 3);
    }

    #[test]
    fn pseudo_ops_stay_alone() {
        let mut g = Dfg::new();
        let s = g.add_node(Op::Source, "s").id();
        let a = g.add_node(Op::Add, "a").constant(0).id();
        let t = g.add_node(Op::Sink, "t").id();
        g.connect(s, a);
        g.connect(a, t);
        let grouping = Grouping::chains(&g);
        assert_eq!(grouping.len(), 3);
        assert_ne!(grouping.group_of(s), grouping.group_of(a));
        assert_ne!(grouping.group_of(a), grouping.group_of(t));
    }

    #[test]
    fn chain_inside_cycle_groups() {
        // phi -> a -> b -> phi. phi has fan-in 2 (init + back edge? no —
        // back edge is a regular edge; fan-in of phi here is 1).
        // a and b form a chain; phi -> a also chains because phi fan-out 1
        // and a fan-in 1, and b -> phi chains likewise: whole ring is one
        // group, which is correct — a ring is rate-matched.
        let mut g = Dfg::new();
        let phi = g.add_node(Op::Phi, "phi").init(0).id();
        let a = g.add_node(Op::Add, "a").constant(1).id();
        let b = g.add_node(Op::Add, "b").constant(1).id();
        g.connect(phi, a);
        g.connect(a, b);
        g.connect(b, phi);
        let grouping = Grouping::chains(&g);
        assert_eq!(grouping.len(), 1);
    }

    #[test]
    fn figure2_toy_grouping() {
        // The paper's Figure 2 DFG: A1 -> A2 -> B -> C -> D -> B (cycle
        // B,C,D) and C -> E. B has fan-in 2 (A2, D); C has fan-out 2
        // (D, E). Chains: {A1, A2}, {B, C} no — C has fan-out 2 so B
        // cannot merge past C... B -> C: B fan-out 1, C fan-in 1 → merge.
        // C -> D blocked (C fan-out 2). D -> B blocked (B fan-in 2).
        let mut g = Dfg::new();
        let a1 = g.add_node(Op::Load, "A1").constant(0).id();
        let a2 = g.add_node(Op::Add, "A2").constant(0).id();
        let b = g.add_node(Op::Phi, "B").init(0).id();
        let c = g.add_node(Op::Add, "C").constant(1).id();
        let d = g.add_node(Op::Add, "D").constant(1).id();
        let e = g.add_node(Op::Sink, "E").id();
        g.connect(a1, a2);
        g.connect(a2, b);
        g.connect(b, c);
        g.connect(c, d);
        g.connect(c, e);
        g.connect(d, b);
        let grouping = Grouping::chains(&g);
        assert_eq!(grouping.group_of(a1), grouping.group_of(a2));
        assert_eq!(grouping.group_of(b), grouping.group_of(c));
        assert_ne!(grouping.group_of(c), grouping.group_of(d));
        assert_ne!(grouping.group_of(a2), grouping.group_of(b));
        // Groups: {A1,A2}, {B,C}, {D}, {E} = 4 total.
        assert_eq!(grouping.len(), 4);
    }
}
