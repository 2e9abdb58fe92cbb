//! Placement: assign DFG nodes to PEs.
//!
//! A greedy constructive pass (nodes in forward dataflow order, each
//! taking the legal free PE closest to its placed neighbors) followed
//! by simulated-annealing refinement over pairwise swaps/moves.
//! Memory ops are constrained to the north/south perimeter rows, which
//! hold the SRAM banks. Deterministic for a given seed.
//!
//! The annealer keeps an occupancy grid (the node on each PE) and each
//! node's incident edges. A move is scored before it is made, by the
//! change in length of the edges it touches (which equals the change
//! in total wirelength), so a rejected move changes nothing.

use super::{ArrayShape, Coord, MapError};
use uecgra_dfg::analysis::TopoOrder;
use uecgra_dfg::{Dfg, NodeId};
use uecgra_util::SplitMix64;

/// A placement: node → PE coordinate (pseudo-ops are off-fabric).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    coords: Vec<Option<Coord>>,
}

impl Placement {
    /// Coordinate of `node`, if it is on the fabric.
    pub fn coord(&self, node: NodeId) -> Option<Coord> {
        self.coords[node.index()]
    }

    /// All node coordinates (indexed by `NodeId::index`).
    pub fn coords(&self) -> impl Iterator<Item = Option<Coord>> + '_ {
        self.coords.iter().copied()
    }

    /// The node occupying `coord`, if any.
    pub fn node_at(&self, coord: Coord) -> Option<NodeId> {
        self.coords
            .iter()
            .position(|&c| c == Some(coord))
            .map(NodeId::from_index)
    }

    /// Total Manhattan wirelength of all on-fabric edges.
    pub fn wirelength(&self, dfg: &Dfg) -> usize {
        dfg.edges()
            .filter_map(
                |(_, e)| match (self.coords[e.src.index()], self.coords[e.dst.index()]) {
                    (Some(a), Some(b)) => Some(ArrayShape::manhattan(a, b)),
                    _ => None,
                },
            )
            .sum()
    }
}

/// Place `dfg` onto `shape`.
///
/// # Errors
///
/// Returns [`MapError::TooManyNodes`] / [`MapError::TooManyMemoryNodes`]
/// when the graph cannot fit.
pub fn place(dfg: &Dfg, shape: ArrayShape, seed: u64) -> Result<Placement, MapError> {
    let fabric_nodes: Vec<NodeId> = dfg
        .nodes()
        .filter(|(_, n)| !n.op.is_pseudo())
        .map(|(id, _)| id)
        .collect();
    if fabric_nodes.len() > shape.len() {
        return Err(MapError::TooManyNodes {
            nodes: fabric_nodes.len(),
            pes: shape.len(),
        });
    }
    let mem_nodes = fabric_nodes
        .iter()
        .filter(|&&n| dfg.node(n).op.is_memory())
        .count();
    if mem_nodes > shape.memory_capacity() {
        return Err(MapError::TooManyMemoryNodes {
            nodes: mem_nodes,
            slots: shape.memory_capacity(),
        });
    }

    let mut coords: Vec<Option<Coord>> = vec![None; dfg.node_count()];
    // The node on each PE (`y * width + x`), `NONE` when free.
    let mut occupant: Vec<usize> = vec![NONE; shape.len()];
    let pe = |c: Coord| c.1 * shape.width + c.0;

    // Greedy construction in forward dataflow order.
    let topo = TopoOrder::compute(dfg);
    for &node in topo.order() {
        if dfg.node(node).op.is_pseudo() {
            continue;
        }
        let neighbors: Vec<Coord> = dfg
            .predecessors(node)
            .chain(dfg.successors(node))
            .filter_map(|m| coords[m.index()])
            .collect();
        let legal = |c: Coord| {
            occupant[pe(c)] == NONE && (!dfg.node(node).op.is_memory() || shape.is_memory_row(c))
        };
        let best = shape
            .coords()
            .filter(|&c| legal(c))
            .min_by_key(|&c| {
                let attraction: usize =
                    neighbors.iter().map(|&n| ArrayShape::manhattan(c, n)).sum();
                // Prefer center-out when unconstrained, to leave the
                // perimeter for memory ops.
                let center_bias = if neighbors.is_empty() {
                    c.1.abs_diff(shape.height / 2) + c.0.abs_diff(shape.width / 2)
                } else {
                    0
                };
                (attraction * 64 + center_bias, c.1 * shape.width + c.0)
            })
            .expect("capacity checked above");
        coords[node.index()] = Some(best);
        occupant[pe(best)] = node.index();
    }

    // Each node's on-fabric neighbours, one entry per edge (self-loops
    // have no length and are left out).
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); dfg.node_count()];
    for (_, e) in dfg.edges() {
        let (s, d) = (e.src.index(), e.dst.index());
        if s != d && coords[s].is_some() && coords[d].is_some() {
            incident[s].push(d);
            incident[d].push(s);
        }
    }
    // The change in length of `node`'s edges when it moves from `old`
    // to `new`, leaving out its edges to `partner`.
    let gain = |coords: &[Option<Coord>], node: usize, partner: usize, old: Coord, new: Coord| {
        incident[node]
            .iter()
            .filter(|&&m| m != partner)
            .map(|&m| {
                let c = coords[m].expect("fabric node placed");
                ArrayShape::manhattan(new, c) as i64 - ArrayShape::manhattan(old, c) as i64
            })
            .sum::<i64>()
    };

    // Simulated-annealing refinement. The temperature decays on every
    // draw, illegal moves included.
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut temperature = 2.0;
    let sweeps = 4000;
    for _ in 0..sweeps {
        let i = fabric_nodes[rng.range(fabric_nodes.len())].index();
        let target: Coord = (rng.range(shape.width), rng.range(shape.height));
        let from = coords[i].expect("fabric node placed");
        let other = occupant[pe(target)];
        let legal = other != i
            && (!dfg.node(NodeId::from_index(i)).op.is_memory() || shape.is_memory_row(target))
            && (other == NONE
                || !dfg.node(NodeId::from_index(other)).op.is_memory()
                || shape.is_memory_row(from));
        if !legal {
            temperature *= 0.999;
            continue;
        }
        // The move's change in total wirelength. An edge between `i`
        // and `other` keeps its length, so both sums leave it out.
        let mut delta = gain(&coords, i, other, from, target);
        if other != NONE {
            delta += gain(&coords, other, i, target, from);
        }
        if delta <= 0 || rng.f64() < (-(delta as f64) / temperature).exp() {
            coords[i] = Some(target);
            occupant[pe(target)] = i;
            occupant[pe(from)] = other;
            if other != NONE {
                coords[other] = Some(from);
            }
        }
        temperature *= 0.999;
    }
    Ok(Placement { coords })
}

/// No node on a PE.
const NONE: usize = usize::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_dfg::kernels::synthetic;
    use uecgra_dfg::Op;

    #[test]
    fn chain_places_compactly() {
        let s = synthetic::chain(6);
        let p = place(&s.dfg, ArrayShape::default(), 1).unwrap();
        // A 6-node chain has minimum wirelength 5 (nodes adjacent).
        let wl = p.wirelength(&s.dfg);
        assert!(wl <= 8, "wirelength {wl} too loose for a 6-chain");
    }

    #[test]
    fn ring_places_compactly() {
        let s = synthetic::cycle_n(4);
        let p = place(&s.dfg, ArrayShape::default(), 1).unwrap();
        // A 4-ring fits a 2x2 block: wirelength 4.
        assert!(p.wirelength(&s.dfg) <= 6);
    }

    #[test]
    fn memory_nodes_stay_on_perimeter_after_annealing() {
        let mut g = uecgra_dfg::Dfg::new();
        let mut prev = g.add_node(Op::Load, "ld0").constant(0).id();
        for i in 1..6 {
            let n = g.add_node(Op::Add, format!("a{i}")).constant(1).id();
            g.connect(prev, n);
            prev = n;
        }
        let st = g.add_node(Op::Store, "st").constant(0).id();
        g.connect(prev, st);
        for seed in 0..5 {
            let p = place(&g, ArrayShape::default(), seed).unwrap();
            let shape = ArrayShape::default();
            for (id, n) in g.nodes() {
                if n.op.is_memory() {
                    assert!(shape.is_memory_row(p.coord(id).unwrap()));
                }
            }
        }
    }

    #[test]
    fn node_at_inverts_coord() {
        let s = synthetic::chain(4);
        let p = place(&s.dfg, ArrayShape::default(), 0).unwrap();
        for (id, n) in s.dfg.nodes() {
            if n.op.is_pseudo() {
                continue;
            }
            let c = p.coord(id).unwrap();
            assert_eq!(p.node_at(c), Some(id));
        }
        assert!(p.node_at((7, 7)).is_none());
    }
}
