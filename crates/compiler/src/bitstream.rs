//! Bitstream generation: per-PE configuration words.
//!
//! Each PE is configured by one packed word carrying its opcode,
//! operand muxing, output routing (ALU broadcast masks plus two bypass
//! paths), clock selection, and accumulator enable. The paper's PE
//! uses 26 configuration bits; our slightly richer mux encoding packs
//! into 32 bits, which still fits a single inter-PE message on the
//! 32-bit data network — preserving the property that configuration is
//! forwarded systolically through the array (Section IV-A). Constants
//! and phi-initial tokens are delivered as follow-on words.

use crate::mapping::{Coord, MapError, MappedKernel};
use crate::power_map::pe_clock_grid;
use std::fmt;
use uecgra_clock::VfMode;
use uecgra_dfg::{Dfg, Op, PE_OPS};

/// A cardinal direction on the PE grid. Row 0 is north.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Toward row − 1.
    North,
    /// Toward column + 1.
    East,
    /// Toward row + 1.
    South,
    /// Toward column − 1.
    West,
}

impl Dir {
    /// All directions in encoding order.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// The direction from `a` to an adjacent coordinate `b`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are not orthogonal neighbors.
    pub fn between(a: Coord, b: Coord) -> Dir {
        match (b.0 as isize - a.0 as isize, b.1 as isize - a.1 as isize) {
            (0, -1) => Dir::North,
            (1, 0) => Dir::East,
            (0, 1) => Dir::South,
            (-1, 0) => Dir::West,
            _ => panic!("{a:?} and {b:?} are not adjacent"),
        }
    }

    fn code(self) -> u32 {
        self as u32
    }

    fn from_code(c: u32) -> Dir {
        Dir::ALL[c as usize & 3]
    }
}

/// Source of an operand port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OperandSel {
    /// Input queue from a direction.
    Queue(Dir),
    /// The multi-purpose register (self-loop / accumulator).
    Reg,
    /// The configured constant.
    Const,
    /// Port unused.
    #[default]
    None,
}

impl OperandSel {
    fn code(self) -> u32 {
        match self {
            OperandSel::Queue(d) => d.code(),
            OperandSel::Reg => 4,
            OperandSel::Const => 5,
            OperandSel::None => 6,
        }
    }

    fn from_code(c: u32) -> OperandSel {
        match c {
            0..=3 => OperandSel::Queue(Dir::from_code(c)),
            4 => OperandSel::Reg,
            5 => OperandSel::Const,
            _ => OperandSel::None,
        }
    }
}

/// A configured bypass path: a stream entering from `src` is forwarded
/// toward every direction in `dst_mask` without touching the ALU (the
/// PE's output muxes may all select the same bypass message, which is
/// how nets fork).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bypass {
    /// Input queue direction.
    pub src: Dir,
    /// Output directions (N, E, S, W).
    pub dst_mask: [bool; 4],
}

/// What a PE does, decoded from its opcode field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeRole {
    /// Power-gated (unused).
    #[default]
    Gated,
    /// Executes an operation.
    Compute(Op),
    /// Awake only to forward bypass streams.
    RouteOnly,
}

/// One PE's full configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeConfig {
    /// The PE's role.
    pub role: PeRole,
    /// Operand sources.
    pub operands: [OperandSel; 2],
    /// Directions receiving the ALU's primary output (`br` true port).
    pub alu_true_mask: [bool; 4],
    /// Directions receiving the `br` false-port output.
    pub alu_false_mask: [bool; 4],
    /// Up to two bypass paths.
    pub bypass: [Option<Bypass>; 2],
    /// Clock selection (meaningless when gated).
    pub clk: VfMode,
    /// Write the ALU result into the multi-purpose register.
    pub reg_write: bool,
    /// Constant operand (delivered as a follow-on word).
    pub constant: Option<u32>,
    /// Phi initial token (delivered as a follow-on word).
    pub init: Option<u32>,
}

impl PeConfig {
    /// Pack into the 36-bit configuration word (constants excluded).
    ///
    /// The paper's narrower PE packs into 26 bits; our multicast bypass
    /// encoding needs 36, delivered as two 32-bit messages over the
    /// same systolic configuration network.
    pub fn pack(&self) -> u64 {
        let opcode: u64 = match self.role {
            PeRole::Gated => 0,
            PeRole::Compute(op) => 1 + PE_OPS.iter().position(|&o| o == op).expect("PE op") as u64,
            PeRole::RouteOnly => 22,
        };
        let mut w = opcode;
        w |= u64::from(self.operands[0].code()) << 5;
        w |= u64::from(self.operands[1].code()) << 8;
        for (i, &b) in self.alu_true_mask.iter().enumerate() {
            w |= (b as u64) << (11 + i);
        }
        for (i, &b) in self.alu_false_mask.iter().enumerate() {
            w |= (b as u64) << (15 + i);
        }
        for (slot, b) in self.bypass.iter().enumerate() {
            let base = 19 + 7 * slot as u32;
            if let Some(bp) = b {
                w |= 1 << base;
                w |= u64::from(bp.src.code()) << (base + 1);
                for (i, &m) in bp.dst_mask.iter().enumerate() {
                    w |= (m as u64) << (base + 3 + i as u32);
                }
            }
        }
        w |= (self.clk as u64) << 33;
        w |= (self.reg_write as u64) << 35;
        w
    }

    /// Unpack a configuration word (constants are side-band and come
    /// back as `None`).
    pub fn unpack(w: u64) -> PeConfig {
        let opcode = (w & 0x1F) as u32;
        let role = match opcode {
            0 => PeRole::Gated,
            22 => PeRole::RouteOnly,
            n if (n as usize) <= PE_OPS.len() => PeRole::Compute(PE_OPS[(n - 1) as usize]),
            _ => PeRole::Gated,
        };
        let mut bypass = [None; 2];
        for (slot, b) in bypass.iter_mut().enumerate() {
            let base = 19 + 7 * slot as u32;
            if (w >> base) & 1 == 1 {
                *b = Some(Bypass {
                    src: Dir::from_code(((w >> (base + 1)) & 3) as u32),
                    dst_mask: core::array::from_fn(|i| (w >> (base + 3 + i as u32)) & 1 == 1),
                });
            }
        }
        let clk = match (w >> 33) & 3 {
            0 => VfMode::Rest,
            2 => VfMode::Sprint,
            _ => VfMode::Nominal,
        };
        PeConfig {
            role,
            operands: [
                OperandSel::from_code(((w >> 5) & 7) as u32),
                OperandSel::from_code(((w >> 8) & 7) as u32),
            ],
            alu_true_mask: core::array::from_fn(|i| (w >> (11 + i)) & 1 == 1),
            alu_false_mask: core::array::from_fn(|i| (w >> (15 + i)) & 1 == 1),
            bypass,
            clk,
            reg_write: (w >> 35) & 1 == 1,
            constant: None,
            init: None,
        }
    }
}

/// Errors from bitstream assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// A PE would need more than two bypass paths.
    BypassOverflow(Coord),
    /// Two streams contend for the same output direction of a PE.
    OutputConflict(Coord, Dir),
}

impl fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamError::BypassOverflow(c) => write!(f, "PE {c:?} needs > 2 bypasses"),
            BitstreamError::OutputConflict(c, d) => {
                write!(f, "output {d:?} of PE {c:?} multiply driven")
            }
        }
    }
}

impl std::error::Error for BitstreamError {}

/// The assembled configuration of a whole array.
#[derive(Debug, Clone, PartialEq)]
pub struct Bitstream {
    /// Per-PE configuration, `grid[row][col]`.
    pub grid: Vec<Vec<PeConfig>>,
}

impl Bitstream {
    /// Assemble from a mapped kernel and its per-node power mapping.
    ///
    /// # Errors
    ///
    /// Returns a [`BitstreamError`] when the routed design exceeds PE
    /// resources (should not happen for routes produced by
    /// [`MappedKernel::map`]).
    pub fn assemble(
        dfg: &Dfg,
        mapped: &MappedKernel,
        node_modes: &[VfMode],
    ) -> Result<Bitstream, BitstreamError> {
        let shape = mapped.shape;
        let mut grid = vec![vec![PeConfig::default(); shape.width]; shape.height];
        let clocks = pe_clock_grid(dfg, mapped, node_modes);

        // Roles, ops, constants.
        for (id, node) in dfg.nodes() {
            if node.op.is_pseudo() {
                continue;
            }
            let (x, y) = mapped.coord_of(id);
            let cfg = &mut grid[y][x];
            cfg.role = PeRole::Compute(node.op);
            cfg.constant = node.constant;
            cfg.init = node.init;
            if node.constant.is_some() {
                // Undriven ports default to the constant; refined below
                // as edges claim their ports.
                cfg.operands = [OperandSel::Const; 2];
                if node.op.arity() < 2 {
                    cfg.operands[1] = OperandSel::None;
                }
            }
        }

        // Nets: output masks at roots, multicast bypass slots at
        // forwarding PEs, operand selects at sinks.
        for net in &mapped.routing.nets {
            // Root: ALU broadcast mask toward the root's tree children.
            let (rx, ry) = net.root;
            for child in net.children(net.root) {
                let dir = Dir::between(net.root, child);
                let cfg = &mut grid[ry][rx];
                let mask = if net.src_port == 0 {
                    &mut cfg.alu_true_mask
                } else {
                    &mut cfg.alu_false_mask
                };
                mask[dir as usize] = true;
            }

            // Forwarding PEs: one bypass slot per net, multicasting to
            // every tree child.
            let mut forwarding: Vec<Coord> = net
                .parent
                .values()
                .copied()
                .filter(|&c| c != net.root)
                .collect();
            forwarding.sort();
            forwarding.dedup();
            for f in forwarding {
                let parent = net.parent[&f];
                let mut dst_mask = [false; 4];
                for child in net.children(f) {
                    dst_mask[Dir::between(f, child) as usize] = true;
                }
                let (fx, fy) = f;
                let cfg = &mut grid[fy][fx];
                if cfg.role == PeRole::Gated {
                    cfg.role = PeRole::RouteOnly;
                }
                let bp = Bypass {
                    src: Dir::between(f, parent),
                    dst_mask,
                };
                match cfg.bypass.iter_mut().find(|s| s.is_none()) {
                    Some(slot) => *slot = Some(bp),
                    None => return Err(BitstreamError::BypassOverflow(f)),
                }
            }

            // Sinks: operand selects (self-loops use the register).
            for &eid in &net.edges {
                let edge = dfg.edge(eid);
                let sink = mapped.coord_of(edge.dst);
                let (dx, dy) = sink;
                if sink == net.root {
                    grid[dy][dx].reg_write = true;
                    grid[dy][dx].operands[edge.dst_port as usize] = OperandSel::Reg;
                } else {
                    let from = net.parent[&sink];
                    let dir = Dir::between(sink, from);
                    grid[dy][dx].operands[edge.dst_port as usize] = OperandSel::Queue(dir);
                }
            }
        }

        // Clocks.
        for (y, row) in clocks.iter().enumerate() {
            for (x, clk) in row.iter().enumerate() {
                if let Some(m) = clk {
                    grid[y][x].clk = *m;
                }
            }
        }

        // Output-conflict check: each direction of each PE driven once.
        for (y, row) in grid.iter().enumerate() {
            for (x, cfg) in row.iter().enumerate() {
                for dir in Dir::ALL {
                    let drivers = cfg.alu_true_mask[dir as usize] as u32
                        + cfg.alu_false_mask[dir as usize] as u32
                        + cfg
                            .bypass
                            .iter()
                            .flatten()
                            .filter(|b| b.dst_mask[dir as usize])
                            .count() as u32;
                    if drivers > 1 {
                        return Err(BitstreamError::OutputConflict((x, y), dir));
                    }
                }
            }
        }

        Ok(Bitstream { grid })
    }

    /// Check the structural invariants the fabric depends on but
    /// cannot express in the type: a rectangular grid, at most one
    /// driver per output direction of each PE (two drivers could
    /// double-push a neighbor queue in one tick — a credit-protocol
    /// break), and no `Const` operand without a constant word.
    ///
    /// Bitstreams produced by [`Bitstream::assemble`] always pass;
    /// this guards hand-built or corrupted configurations entering
    /// through `RunRequest`-style front doors, mapping them to a
    /// structured [`MapError::MalformedBitstream`] instead of letting
    /// the simulator trip a runtime protocol violation.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::MalformedBitstream`] naming the first
    /// offending PE.
    pub fn validate(&self) -> Result<(), MapError> {
        let width = self.grid.first().map_or(0, Vec::len);
        for (y, row) in self.grid.iter().enumerate() {
            if row.len() != width {
                return Err(MapError::MalformedBitstream {
                    pe: (0, y),
                    reason: "ragged grid row",
                });
            }
            for (x, cfg) in row.iter().enumerate() {
                for dir in Dir::ALL {
                    let drivers = cfg.alu_true_mask[dir as usize] as u32
                        + cfg.alu_false_mask[dir as usize] as u32
                        + cfg
                            .bypass
                            .iter()
                            .flatten()
                            .filter(|b| b.dst_mask[dir as usize])
                            .count() as u32;
                    if drivers > 1 {
                        return Err(MapError::MalformedBitstream {
                            pe: (x, y),
                            reason: "multiple drivers for one output direction",
                        });
                    }
                }
                if cfg.operands.contains(&OperandSel::Const) && cfg.constant.is_none() {
                    return Err(MapError::MalformedBitstream {
                        pe: (x, y),
                        reason: "const operand selected without a constant word",
                    });
                }
            }
        }
        Ok(())
    }

    /// Serialize to packed words in systolic load order (row-major,
    /// matching the top-to-bottom configuration flow of Section IV-A).
    pub fn words(&self) -> Vec<u64> {
        self.grid
            .iter()
            .flat_map(|row| row.iter().map(PeConfig::pack))
            .collect()
    }

    /// Count of PEs by role: `(compute, route_only, gated)`.
    pub fn role_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for cfg in self.grid.iter().flatten() {
            match cfg.role {
                PeRole::Compute(_) => counts.0 += 1,
                PeRole::RouteOnly => counts.1 += 1,
                PeRole::Gated => counts.2 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ArrayShape;
    use uecgra_dfg::kernels;

    fn assemble_kernel(k: &kernels::Kernel, seed: u64) -> (MappedKernel, Bitstream) {
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), seed).unwrap();
        let modes = vec![VfMode::Nominal; k.dfg.node_count()];
        let bs = Bitstream::assemble(&k.dfg, &mapped, &modes).unwrap();
        (mapped, bs)
    }

    #[test]
    fn pack_unpack_roundtrip_manual() {
        let cfg = PeConfig {
            role: PeRole::Compute(Op::Mul),
            operands: [OperandSel::Queue(Dir::West), OperandSel::Const],
            alu_true_mask: [true, false, false, true],
            alu_false_mask: [false; 4],
            bypass: [
                Some(Bypass {
                    src: Dir::North,
                    dst_mask: [false, true, true, false],
                }),
                None,
            ],
            clk: VfMode::Sprint,
            reg_write: true,
            constant: None,
            init: None,
        };
        assert_eq!(PeConfig::unpack(cfg.pack()), cfg);
    }

    #[test]
    fn gated_pe_packs_to_gated_word() {
        let cfg = PeConfig::default();
        let w = cfg.pack();
        assert_eq!(w & 0x1F, 0);
        assert_eq!(PeConfig::unpack(w).role, PeRole::Gated);
    }

    #[test]
    fn all_kernels_assemble() {
        for k in kernels::all_kernels() {
            let (mapped, bs) = assemble_kernel(&k, 7);
            let (compute, _route, gated) = bs.role_counts();
            assert_eq!(compute, k.dfg.pe_node_count(), "{}", k.name);
            assert!(gated > 0, "{}: kernels underutilize the 8x8", k.name);
            assert_eq!(bs.words().len(), mapped.shape.len());
            assert_eq!(
                bs.validate(),
                Ok(()),
                "{}: assembled bitstream valid",
                k.name
            );
        }
    }

    #[test]
    fn validate_rejects_malformed_bitstreams() {
        use crate::mapping::MapError;
        // Conflicting drivers: ALU and a bypass both push east.
        let mut grid = vec![vec![PeConfig::default(); 2]; 1];
        grid[0][0] = PeConfig {
            role: PeRole::Compute(Op::Add),
            operands: [OperandSel::Const, OperandSel::Const],
            constant: Some(1),
            alu_true_mask: [false, true, false, false],
            bypass: [
                Some(Bypass {
                    src: Dir::West,
                    dst_mask: [false, true, false, false],
                }),
                None,
            ],
            ..PeConfig::default()
        };
        let bs = Bitstream { grid };
        assert_eq!(
            bs.validate(),
            Err(MapError::MalformedBitstream {
                pe: (0, 0),
                reason: "multiple drivers for one output direction",
            })
        );

        // Const operand without a constant word.
        let mut grid = vec![vec![PeConfig::default(); 1]; 1];
        grid[0][0] = PeConfig {
            role: PeRole::Compute(Op::Add),
            operands: [OperandSel::Const, OperandSel::None],
            constant: None,
            ..PeConfig::default()
        };
        assert!(matches!(
            Bitstream { grid }.validate(),
            Err(MapError::MalformedBitstream { pe: (0, 0), .. })
        ));

        // Ragged rows.
        let grid = vec![vec![PeConfig::default(); 2], vec![PeConfig::default(); 1]];
        assert!(matches!(
            Bitstream { grid }.validate(),
            Err(MapError::MalformedBitstream { pe: (0, 1), .. })
        ));
    }

    #[test]
    fn operand_selects_match_routes() {
        let k = kernels::llist::build_with_hops(10);
        let (mapped, bs) = assemble_kernel(&k, 3);
        for (eid, e) in k.dfg.edges() {
            let path = &mapped.route(eid).path;
            if path.len() < 2 {
                continue;
            }
            let (dx, dy) = *path.last().unwrap();
            let sel = bs.grid[dy][dx].operands[e.dst_port as usize];
            let expect = Dir::between(path[path.len() - 1], path[path.len() - 2]);
            assert_eq!(sel, OperandSel::Queue(expect));
        }
    }

    #[test]
    fn words_roundtrip_through_unpack() {
        let k = kernels::dither::build_with_pixels(16);
        let (mapped, bs) = assemble_kernel(&k, 5);
        let words = bs.words();
        for (i, &w) in words.iter().enumerate() {
            let (x, y) = (i % mapped.shape.width, i / mapped.shape.width);
            let decoded = PeConfig::unpack(w);
            assert_eq!(decoded.role, bs.grid[y][x].role);
            assert_eq!(decoded.operands, bs.grid[y][x].operands);
            assert_eq!(decoded.bypass, bs.grid[y][x].bypass);
            assert_eq!(decoded.clk, bs.grid[y][x].clk);
        }
    }

    #[test]
    fn dir_between_adjacent_coords() {
        assert_eq!(Dir::between((1, 1), (1, 0)), Dir::North);
        assert_eq!(Dir::between((1, 1), (2, 1)), Dir::East);
        assert_eq!(Dir::between((1, 1), (1, 2)), Dir::South);
        assert_eq!(Dir::between((1, 1), (0, 1)), Dir::West);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn dir_between_rejects_non_neighbors() {
        Dir::between((0, 0), (2, 0));
    }
}
