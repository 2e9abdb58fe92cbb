//! Mapping: placement of DFG nodes onto the PE array and routing of
//! edges through the inter-PE network (paper Figure 4, "Place and
//! Route").

pub mod place;
pub mod route;

use std::fmt;
use uecgra_dfg::{Dfg, EdgeId, NodeId};

pub use place::Placement;
pub use route::{Net, Route, Routing};

/// A PE coordinate: `(column, row)`. Row 0 is the north perimeter.
pub type Coord = (usize, usize);

/// Dimensions of the PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayShape {
    /// Columns.
    pub width: usize,
    /// Rows.
    pub height: usize,
}

impl Default for ArrayShape {
    /// The paper's evaluated 8×8 array.
    fn default() -> Self {
        ArrayShape {
            width: 8,
            height: 8,
        }
    }
}

impl ArrayShape {
    /// Total PE count.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// True for degenerate zero-size arrays.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `coord` is a memory PE (north/south perimeter rows hold
    /// the 4 kB SRAM banks, paper Section IV-A).
    pub fn is_memory_row(&self, coord: Coord) -> bool {
        coord.1 == 0 || coord.1 + 1 == self.height
    }

    /// Number of memory-capable PEs.
    pub fn memory_capacity(&self) -> usize {
        if self.height >= 2 {
            2 * self.width
        } else {
            self.width
        }
    }

    /// All coordinates in row-major order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let w = self.width;
        (0..self.len()).map(move |i| (i % w, i / w))
    }

    /// Manhattan distance between two coordinates.
    pub fn manhattan(a: Coord, b: Coord) -> usize {
        a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
    }
}

/// Errors reported by mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// More compute nodes than PEs.
    TooManyNodes {
        /// Nodes requiring placement.
        nodes: usize,
        /// PEs available.
        pes: usize,
    },
    /// More memory nodes than perimeter memory PEs.
    TooManyMemoryNodes {
        /// Memory nodes requiring perimeter placement.
        nodes: usize,
        /// Perimeter slots available.
        slots: usize,
    },
    /// Routing failed to find disjoint paths after all retries.
    Unroutable(EdgeId),
    /// A hand-built or corrupted bitstream violates a structural
    /// invariant the fabric depends on (reported by
    /// `Bitstream::validate` before execution so callers get a
    /// structured error instead of a runtime protocol violation).
    MalformedBitstream {
        /// The offending PE.
        pe: Coord,
        /// What is wrong with its configuration.
        reason: &'static str,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::TooManyNodes { nodes, pes } => {
                write!(f, "{nodes} nodes cannot fit on {pes} PEs")
            }
            MapError::TooManyMemoryNodes { nodes, slots } => {
                write!(f, "{nodes} memory nodes exceed {slots} perimeter slots")
            }
            MapError::Unroutable(e) => write!(f, "edge {e} could not be routed"),
            MapError::MalformedBitstream { pe, reason } => {
                write!(
                    f,
                    "malformed bitstream at PE ({}, {}): {reason}",
                    pe.0, pe.1
                )
            }
        }
    }
}

impl std::error::Error for MapError {}

/// A fully mapped kernel: placement plus routed nets.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedKernel {
    /// Array dimensions.
    pub shape: ArrayShape,
    /// Where each node sits (pseudo-ops are off-fabric: `None`).
    pub placement: Placement,
    /// Routed nets and per-edge paths; edges touching off-fabric
    /// pseudo nodes have empty paths.
    pub routing: Routing,
}

impl MappedKernel {
    /// Map `dfg` onto `shape`: greedy placement + simulated-annealing
    /// refinement, then congestion-aware Dijkstra routing with rip-up
    /// and retry. Deterministic for a given `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`MapError`] when the graph cannot fit or route.
    pub fn map(dfg: &Dfg, shape: ArrayShape, seed: u64) -> Result<MappedKernel, MapError> {
        // Placement is congestion-blind; when routing negotiation fails
        // to converge, replace and retry with derived seeds.
        let mut last = None;
        for attempt in 0..8u64 {
            let placement = place::place(dfg, shape, seed.wrapping_add(attempt * 0x9E37))?;
            match route::route_all(dfg, shape, &placement, seed) {
                Ok(routing) => {
                    return Ok(MappedKernel {
                        shape,
                        placement,
                        routing,
                    })
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Extra bypass hops of an edge beyond the single base hop: a route
    /// through `k` intermediate PEs adds `k` cycles of latency.
    pub fn extra_hops(&self, edge: EdgeId) -> u32 {
        let path = &self.routing.routes[edge.index()].path;
        (path.len().saturating_sub(2)) as u32
    }

    /// [`extra_hops`](Self::extra_hops) of every edge, indexed by edge
    /// id: what the routing-aware power mapper and the DSE take.
    pub fn edge_extra_hops(&self) -> Vec<u32> {
        (0..self.routing.routes.len())
            .map(|i| self.extra_hops(EdgeId::from_index(i)))
            .collect()
    }

    /// The route of one edge.
    pub fn route(&self, edge: EdgeId) -> &Route {
        &self.routing.routes[edge.index()]
    }

    /// Number of distinct nets each PE forwards (excluding nets it
    /// produces) — these consume the PE's two bypass paths and burn
    /// `α_bps` energy per token.
    pub fn bypass_load(&self) -> Vec<Vec<u32>> {
        let mut load = vec![vec![0u32; self.shape.width]; self.shape.height];
        for net in &self.routing.nets {
            let forwarding: std::collections::HashSet<Coord> = net
                .parent
                .values()
                .copied()
                .filter(|&c| c != net.root)
                .collect();
            for (x, y) in forwarding {
                load[y][x] += 1;
            }
        }
        load
    }

    /// Fraction of PEs hosting an op (the paper reports ~65% average
    /// utilization for its kernels).
    pub fn utilization(&self) -> f64 {
        let placed = self.placement.coords().filter(|c| c.is_some()).count();
        placed as f64 / self.shape.len() as f64
    }

    /// The coordinate of a placed node.
    ///
    /// # Panics
    ///
    /// Panics if the node is off-fabric (a pseudo-op).
    pub fn coord_of(&self, node: NodeId) -> Coord {
        self.placement
            .coord(node)
            .expect("node must be placed on the fabric")
    }

    /// Total wirelength (sum of distinct tree links over all nets).
    pub fn wirelength(&self) -> usize {
        self.routing.nets.iter().map(|n| n.parent.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_dfg::kernels;

    #[test]
    fn shape_queries() {
        let s = ArrayShape::default();
        assert_eq!(s.len(), 64);
        assert_eq!(s.memory_capacity(), 16);
        assert!(s.is_memory_row((3, 0)));
        assert!(s.is_memory_row((3, 7)));
        assert!(!s.is_memory_row((3, 3)));
        assert_eq!(ArrayShape::manhattan((0, 0), (3, 4)), 7);
        assert_eq!(s.coords().count(), 64);
    }

    #[test]
    fn all_paper_kernels_map_onto_8x8() {
        for k in kernels::all_kernels() {
            let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            // Every non-pseudo node is placed on a distinct PE.
            let mut seen = std::collections::HashSet::new();
            for (id, n) in k.dfg.nodes() {
                if n.op.is_pseudo() {
                    assert!(mapped.placement.coord(id).is_none());
                } else {
                    let c = mapped.coord_of(id);
                    assert!(seen.insert(c), "{}: PE {c:?} double-booked", k.name);
                    if n.op.is_memory() {
                        assert!(
                            mapped.shape.is_memory_row(c),
                            "{}: memory op off perimeter",
                            k.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn routes_connect_placed_endpoints() {
        let k = kernels::dither::build_with_pixels(16);
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 3).unwrap();
        for (id, e) in k.dfg.edges() {
            let src_on = mapped.placement.coord(e.src);
            let dst_on = mapped.placement.coord(e.dst);
            let path = &mapped.route(id).path;
            match (src_on, dst_on) {
                (Some(s), Some(d)) => {
                    assert_eq!(*path.first().unwrap(), s);
                    assert_eq!(*path.last().unwrap(), d);
                    for w in path.windows(2) {
                        assert_eq!(
                            ArrayShape::manhattan(w[0], w[1]),
                            if w[0] == w[1] { 0 } else { 1 },
                            "route must step between neighbors"
                        );
                    }
                }
                _ => assert!(path.is_empty(), "off-fabric edges have no route"),
            }
        }
    }

    #[test]
    fn bypass_load_respects_capacity() {
        for k in kernels::all_kernels() {
            let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 11).unwrap();
            for row in mapped.bypass_load() {
                for &b in &row {
                    assert!(b <= 2, "{}: PE carries {b} bypasses (max 2)", k.name);
                }
            }
        }
    }

    #[test]
    fn utilization_is_reasonable() {
        let k = kernels::bf::build_with_rounds(8);
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 5).unwrap();
        let u = mapped.utilization();
        assert!(u > 0.3 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn too_small_array_is_rejected() {
        let k = kernels::bf::build_with_rounds(8);
        let tiny = ArrayShape {
            width: 3,
            height: 3,
        };
        assert!(matches!(
            MappedKernel::map(&k.dfg, tiny, 0),
            Err(MapError::TooManyNodes { .. })
        ));
    }

    /// The router's work counter at seed 7, pinned so a faster router
    /// is seen doing the same negotiation, not less of it.
    #[test]
    fn router_rounds_are_pinned_at_seed_7() {
        let rounds: Vec<(String, usize)> = kernels::all_kernels()
            .iter()
            .map(|k| {
                let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).unwrap();
                (k.name.to_string(), mapped.routing.rounds)
            })
            .collect();
        let expected = [
            ("llist", 1),
            ("dither", 4),
            ("susan", 4),
            ("fft", 30),
            ("bf", 11),
        ];
        let expected: Vec<(String, usize)> =
            expected.iter().map(|&(k, r)| (k.to_string(), r)).collect();
        assert_eq!(rounds, expected);
    }

    #[test]
    fn mapping_is_deterministic_per_seed() {
        let k = kernels::llist::build_with_hops(10);
        let a = MappedKernel::map(&k.dfg, ArrayShape::default(), 42).unwrap();
        let b = MappedKernel::map(&k.dfg, ArrayShape::default(), 42).unwrap();
        assert_eq!(a, b);
    }
}
