//! Routing: per-net Steiner trees through the inter-PE network.
//!
//! All edges leaving the same output port of a node carry the *same
//! value*, so they are routed together as one **net** that may fork at
//! intermediate PEs (the PE's output muxes can select one bypass
//! message for several directions at once). Each directed inter-PE
//! link carries one net; each PE can bypass at most two distinct nets
//! through itself (the two bypass paths of the UE-CGRA PE, paper
//! Section IV-A).
//!
//! Per-sink paths are found with Dijkstra — "a valid path to route
//! dependencies is calculated with Dijkstra's algorithm" (Section
//! VI-A) — growing each net's tree incrementally (existing tree links
//! are free), inside a PathFinder-style negotiated-congestion loop
//! that reroutes everything with rising penalties on oversubscribed
//! links and bypasses until the routing is feasible.
//!
//! All negotiation state lives in flat arrays indexed by PE
//! (`y * width + x`) and directed link (`pe * 4 + dir`, `dir` in the
//! neighbour visit order W, E, N, S): per-round link and bypass usage,
//! history costs, Dijkstra's distances and arrival links, tree
//! membership, and one heap reused by every search. A net's
//! [`Net::parent`] map is built once, from the round that converges.
//! [`Routing::rounds`] counts the rounds it took.

use super::{ArrayShape, Coord, MapError, Placement};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use uecgra_dfg::{Dfg, EdgeId, NodeId};

/// A routed edge: the sequence of PE coordinates from producer to
/// consumer (inclusive), following the net's tree. Empty for
/// off-fabric edges; `[c]` for self-loops through the PE's
/// multi-purpose register.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route {
    /// PE coordinates along the route.
    pub path: Vec<Coord>,
}

/// A net: one value stream from a node output port to all its sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Producing node.
    pub src: NodeId,
    /// Output port on the producer.
    pub src_port: u8,
    /// Source coordinate.
    pub root: Coord,
    /// The routed tree: child coordinate → parent coordinate (toward
    /// the root). The root itself is absent.
    pub parent: HashMap<Coord, Coord>,
    /// The DFG edges this net serves.
    pub edges: Vec<EdgeId>,
}

impl Net {
    /// All coordinates the net touches (root, interior, sinks).
    pub fn coords(&self) -> HashSet<Coord> {
        let mut s: HashSet<Coord> = self.parent.keys().copied().collect();
        s.insert(self.root);
        s
    }

    /// Children of `coord` in the tree (fan-out directions).
    pub fn children(&self, coord: Coord) -> Vec<Coord> {
        let mut c: Vec<Coord> = self
            .parent
            .iter()
            .filter(|&(_, &p)| p == coord)
            .map(|(&child, _)| child)
            .collect();
        c.sort();
        c
    }
}

/// Result of routing: per-edge paths plus the nets they belong to.
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    /// Per-edge route (indexed by `EdgeId::index`).
    pub routes: Vec<Route>,
    /// All routed nets.
    pub nets: Vec<Net>,
    /// Net index of each edge (`usize::MAX` for off-fabric edges).
    pub net_of_edge: Vec<usize>,
    /// Negotiation rounds [`route_all`] ran to reach this routing (a
    /// work counter; 1 when the first round is already legal).
    pub rounds: usize,
}

/// Capacity of a directed inter-PE link (one net).
const LINK_CAPACITY: u32 = 1;
/// Distinct nets a PE can bypass.
const BYPASS_CAPACITY: u32 = 2;
/// Negotiation rounds before giving up.
const MAX_ROUNDS: usize = 80;
/// Base cost of traversing one link.
const BASE_COST: u64 = 16;
/// No PE / no link.
const NONE: usize = usize::MAX;

/// Route every edge of `dfg` under a fixed placement.
///
/// # Errors
///
/// Returns [`MapError::Unroutable`] when negotiation fails to converge
/// within the round budget.
pub fn route_all(
    dfg: &Dfg,
    shape: ArrayShape,
    placement: &Placement,
    seed: u64,
) -> Result<Routing, MapError> {
    // Build nets from on-fabric edges, keyed by (src node, src port).
    let mut net_index: HashMap<(NodeId, u8), usize> = HashMap::new();
    struct ProtoNet {
        src: NodeId,
        src_port: u8,
        root: Coord,
        sinks: Vec<(EdgeId, Coord)>,
    }
    let mut protos: Vec<ProtoNet> = Vec::new();
    for (id, e) in dfg.edges() {
        let (Some(s), Some(d)) = (placement.coord(e.src), placement.coord(e.dst)) else {
            continue;
        };
        let key = (e.src, e.src_port);
        let idx = *net_index.entry(key).or_insert_with(|| {
            protos.push(ProtoNet {
                src: e.src,
                src_port: e.src_port,
                root: s,
                sinks: Vec::new(),
            });
            protos.len() - 1
        });
        protos[idx].sinks.push((id, d));
    }

    // Net order: largest bounding box first; seed breaks ties only.
    let mut order: Vec<usize> = (0..protos.len()).collect();
    let span = |p: &ProtoNet| -> usize {
        p.sinks
            .iter()
            .map(|&(_, d)| ArrayShape::manhattan(p.root, d))
            .max()
            .unwrap_or(0)
    };
    order.sort_by_key(|&i| {
        (
            usize::MAX - span(&protos[i]),
            (i as u64).wrapping_mul(seed | 1) % 97,
            i,
        )
    });

    let mut router = Router::new(shape);
    // Each net's distinct sinks as PE indices, farthest first so trunks
    // are laid before twigs.
    let sinks: Vec<Vec<usize>> = protos
        .iter()
        .map(|p| {
            let mut ordered: Vec<Coord> = p.sinks.iter().map(|&(_, d)| d).collect();
            ordered.sort_by_key(|&d| (usize::MAX - ArrayShape::manhattan(p.root, d), d));
            ordered.dedup();
            ordered.into_iter().map(|d| router.pe(d)).collect()
        })
        .collect();
    // Each net's tree links from the latest round.
    let mut trees: Vec<Vec<usize>> = vec![Vec::new(); protos.len()];
    // The net that last charged each PE's bypass, so a PE forwarding
    // one net in several directions is charged once.
    let mut forwarded_by: Vec<usize> = vec![NONE; shape.len()];

    for round in 0..MAX_ROUNDS {
        let pressure = BASE_COST * (round as u64 + 1);
        router.link_use.fill(0);
        router.bypass_use.fill(0);
        forwarded_by.fill(NONE);

        for &pi in &order {
            let root = router.pe(protos[pi].root);
            router.route_net(root, &sinks[pi], pressure, &mut trees[pi]);
            // Charge usage: each tree link once; one bypass path of
            // every PE other than the root that forwards the net.
            for &link in &trees[pi] {
                router.link_use[link] += 1;
                let from = link / 4;
                if from != root && forwarded_by[from] != pi {
                    forwarded_by[from] = pi;
                    router.bypass_use[from] += 1;
                }
            }
        }

        if !router.overused() {
            let nets = protos
                .iter()
                .zip(&trees)
                .map(|(p, tree)| Net {
                    src: p.src,
                    src_port: p.src_port,
                    root: p.root,
                    parent: tree
                        .iter()
                        .map(|&l| (router.coord(router.link_dst[l]), router.coord(l / 4)))
                        .collect(),
                    edges: p.sinks.iter().map(|&(id, _)| id).collect(),
                })
                .collect();
            return Ok(finish(dfg, placement, nets, round + 1));
        }
        router.charge_history();
    }

    // Blame the widest net's first edge for diagnostics.
    let widest = order
        .first()
        .and_then(|&i| protos[i].sinks.first())
        .map(|&(id, _)| id)
        .unwrap_or_else(|| EdgeId::from_index(0));
    Err(MapError::Unroutable(widest))
}

/// Flat negotiation state: PE `p = y * width + x`, directed link
/// `p * 4 + dir` with `dir` in neighbour visit order W, E, N, S.
struct Router {
    width: usize,
    /// The PE each link leads to (`NONE` off the array edge).
    link_dst: Vec<usize>,
    /// Nets using each link / bypassing each PE this round.
    link_use: Vec<u32>,
    bypass_use: Vec<u32>,
    /// Accumulated overuse penalties.
    link_history: Vec<u64>,
    bypass_history: Vec<u64>,
    /// Dijkstra scratch: best cost and the link it arrived by.
    dist: Vec<u64>,
    prev: Vec<usize>,
    /// Max-heap of `(Reverse(cost), coord, pe)`: the cheapest entry
    /// pops first, the larger coordinate on a cost tie.
    heap: BinaryHeap<(Reverse<u64>, Coord, usize)>,
    /// PEs of the net being grown, and their membership flags.
    tree: Vec<usize>,
    in_tree: Vec<bool>,
}

impl Router {
    fn new(shape: ArrayShape) -> Router {
        let (w, h) = (shape.width, shape.height);
        let n = shape.len();
        let mut link_dst = vec![NONE; n * 4];
        for p in 0..n {
            let (x, y) = (p % w, p / w);
            if x > 0 {
                link_dst[p * 4] = p - 1;
            }
            if x + 1 < w {
                link_dst[p * 4 + 1] = p + 1;
            }
            if y > 0 {
                link_dst[p * 4 + 2] = p - w;
            }
            if y + 1 < h {
                link_dst[p * 4 + 3] = p + w;
            }
        }
        Router {
            width: w,
            link_dst,
            link_use: vec![0; n * 4],
            bypass_use: vec![0; n],
            link_history: vec![0; n * 4],
            bypass_history: vec![0; n],
            dist: vec![u64::MAX; n],
            prev: vec![NONE; n],
            heap: BinaryHeap::new(),
            tree: Vec::new(),
            in_tree: vec![false; n],
        }
    }

    fn pe(&self, (x, y): Coord) -> usize {
        y * self.width + x
    }

    fn coord(&self, pe: usize) -> Coord {
        (pe % self.width, pe / self.width)
    }

    fn overused(&self) -> bool {
        self.link_use.iter().any(|&u| u > LINK_CAPACITY)
            || self.bypass_use.iter().any(|&u| u > BYPASS_CAPACITY)
    }

    /// Raise the history cost of every oversubscribed link and bypass.
    fn charge_history(&mut self) {
        for (h, &u) in self.link_history.iter_mut().zip(&self.link_use) {
            if u > LINK_CAPACITY {
                *h += u64::from(u - LINK_CAPACITY) * BASE_COST;
            }
        }
        for (h, &u) in self.bypass_history.iter_mut().zip(&self.bypass_use) {
            if u > BYPASS_CAPACITY {
                *h += u64::from(u - BYPASS_CAPACITY) * BASE_COST;
            }
        }
    }

    /// Grow one net's tree from `root`: route each sink to the nearest
    /// point of the existing tree with congestion-aware Dijkstra. The
    /// tree's links land in `links`.
    fn route_net(&mut self, root: usize, sinks: &[usize], pressure: u64, links: &mut Vec<usize>) {
        links.clear();
        self.tree.clear();
        self.tree.push(root);
        self.in_tree[root] = true;
        for &sink in sinks {
            if self.in_tree[sink] {
                continue;
            }
            self.dijkstra_to_tree(sink, pressure);
            // Walk back from the sink to the tree point it joined.
            let mut cur = sink;
            while self.prev[cur] != NONE {
                let link = self.prev[cur];
                links.push(link);
                self.tree.push(cur);
                self.in_tree[cur] = true;
                cur = link / 4;
            }
        }
        for &p in &self.tree {
            self.in_tree[p] = false;
        }
    }

    /// Multi-source Dijkstra from the whole tree to `sink`, leaving the
    /// arrival links in `prev`. Always reaches the sink (costs are
    /// finite on a connected grid).
    fn dijkstra_to_tree(&mut self, sink: usize, pressure: u64) {
        self.dist.fill(u64::MAX);
        self.prev.fill(NONE);
        self.heap.clear();
        for &t in &self.tree {
            self.dist[t] = 0;
            self.heap.push((Reverse(0), self.coord(t), t));
        }
        while let Some((Reverse(cost), _, pe)) = self.heap.pop() {
            if pe == sink {
                return;
            }
            if cost > self.dist[pe] {
                continue;
            }
            for link in pe * 4..pe * 4 + 4 {
                let next = self.link_dst[link];
                if next == NONE {
                    continue;
                }
                let mut step = BASE_COST + self.link_history[link];
                let link_use = self.link_use[link];
                if link_use >= LINK_CAPACITY {
                    step += pressure * u64::from(link_use - LINK_CAPACITY + 1);
                }
                if next != sink {
                    step += self.bypass_history[next];
                    let by_use = self.bypass_use[next];
                    if by_use >= BYPASS_CAPACITY {
                        step += pressure * u64::from(by_use - BYPASS_CAPACITY + 1);
                    }
                }
                let ncost = cost + step;
                if ncost < self.dist[next] {
                    self.dist[next] = ncost;
                    self.prev[next] = link;
                    self.heap.push((Reverse(ncost), self.coord(next), next));
                }
            }
        }
        unreachable!("grid is connected; a path always exists")
    }
}

/// Extract per-edge paths from finished nets.
fn finish(dfg: &Dfg, placement: &Placement, nets: Vec<Net>, rounds: usize) -> Routing {
    let mut routes = vec![Route::default(); dfg.edge_count()];
    let mut net_of_edge = vec![usize::MAX; dfg.edge_count()];

    for (ni, net) in nets.iter().enumerate() {
        for &eid in &net.edges {
            let edge = dfg.edge(eid);
            let sink = placement
                .coord(edge.dst)
                .expect("net edges have placed endpoints");
            net_of_edge[eid.index()] = ni;
            if sink == net.root {
                // Self-loop through the multi-purpose register.
                routes[eid.index()] = Route {
                    path: vec![net.root],
                };
                continue;
            }
            // Walk parents from the sink back to the root.
            let mut path = vec![sink];
            let mut cur = sink;
            while cur != net.root {
                cur = *net
                    .parent
                    .get(&cur)
                    .expect("sink is connected to the net's root");
                path.push(cur);
            }
            path.reverse();
            routes[eid.index()] = Route { path };
        }
    }

    Routing {
        routes,
        nets,
        net_of_edge,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::place::place;
    use uecgra_dfg::{Dfg, Op};

    #[test]
    fn single_edge_routes_shortest() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Phi, "a").init(0).id();
        let b = g.add_node(Op::Add, "b").constant(1).id();
        g.connect(a, b);
        g.connect(b, a);
        let shape = ArrayShape::default();
        let placement = place(&g, shape, 0).unwrap();
        let routing = route_all(&g, shape, &placement, 0).unwrap();
        for (id, _) in g.edges() {
            let p = &routing.routes[id.index()];
            assert_eq!(p.path.len(), 2, "adjacent placement → 1-hop route");
        }
    }

    #[test]
    fn fanout_shares_one_net() {
        // One producer feeding five consumers: impossible with disjoint
        // per-edge paths (only 4 output links), fine as a forked net.
        let mut g = Dfg::new();
        let src = g.add_node(Op::Phi, "s").init(0).id();
        g.connect(src, src); // keep it firing
        for i in 0..5 {
            let c = g.add_node(Op::Add, format!("c{i}")).constant(1).id();
            g.connect_ports(src, 0, c, 0);
        }
        let shape = ArrayShape::default();
        let placement = place(&g, shape, 1).unwrap();
        let routing = route_all(&g, shape, &placement, 1).unwrap();
        // All six edges (self + 5 consumers) share one net.
        let nets: HashSet<usize> = routing
            .net_of_edge
            .iter()
            .copied()
            .filter(|&n| n != usize::MAX)
            .collect();
        assert_eq!(nets.len(), 1);
    }

    #[test]
    fn different_ports_are_different_nets() {
        let mut g = Dfg::new();
        let s = g.add_node(Op::Source, "s").id();
        let c = g.add_node(Op::Source, "c").id();
        let br = g.add_node(Op::Br, "br").id();
        let t = g.add_node(Op::Add, "t").constant(0).id();
        let f = g.add_node(Op::Add, "f").constant(0).id();
        g.connect_ports(s, 0, br, 0);
        g.connect_ports(c, 0, br, 1);
        let e_t = g.connect_ports(br, 0, t, 0);
        let e_f = g.connect_ports(br, 1, f, 0);
        let shape = ArrayShape::default();
        let placement = place(&g, shape, 0).unwrap();
        let routing = route_all(&g, shape, &placement, 0).unwrap();
        assert_ne!(
            routing.net_of_edge[e_t.index()],
            routing.net_of_edge[e_f.index()],
            "br's two ports carry different values"
        );
    }

    #[test]
    fn distinct_nets_use_distinct_links() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Phi, "a").init(0).id();
        let b = g.add_node(Op::Add, "b").constant(1).id();
        let c = g.add_node(Op::Add, "c").constant(1).id();
        g.connect(a, b);
        g.connect(b, c);
        g.connect(c, a);
        let shape = ArrayShape::default();
        let placement = place(&g, shape, 2).unwrap();
        let routing = route_all(&g, shape, &placement, 2).unwrap();
        let mut seen: HashMap<(Coord, Coord), usize> = HashMap::new();
        for (ni, net) in routing.nets.iter().enumerate() {
            for (&child, &parent) in &net.parent {
                if let Some(&other) = seen.get(&(parent, child)) {
                    panic!("link {parent:?}→{child:?} used by nets {other} and {ni}");
                }
                seen.insert((parent, child), ni);
            }
        }
    }

    #[test]
    fn self_loops_route_in_place() {
        let mut g = Dfg::new();
        let acc = g.add_node(Op::Phi, "acc").init(0).id();
        g.connect(acc, acc);
        let shape = ArrayShape::default();
        let placement = place(&g, shape, 0).unwrap();
        let routing = route_all(&g, shape, &placement, 0).unwrap();
        assert_eq!(routing.routes[0].path.len(), 1);
    }
}
