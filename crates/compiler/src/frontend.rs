//! Lowering from the loop IR to a dataflow graph.
//!
//! This pass performs the CDFG→DFG conversion of the paper's compiler
//! (Section III / VI-A): the counted loop becomes a `phi → add → lt →
//! br` induction recurrence, loop-carried scalars become phi nodes with
//! initial tokens, and structured `if/else` regions become *steered*
//! dataflow — each value live into the arms passes through a `br` node
//! keyed on the condition, each value defined by the arms merges back
//! through a `phi`. Every iteration therefore sends exactly one token
//! down exactly one arm, which is what lets the elastic fabric execute
//! control flow without a program counter.
//!
//! Termination relies on each recurrence depending (directly or through
//! loads) on the induction stream: when the loop-exit branch stops
//! forwarding indices, the dependent chains starve and the graph
//! quiesces. Pure carried chains with no such dependence would spin
//! forever; the paper's kernels do not contain any.

use crate::ir::{Expr, IrError, LoopNest, Stmt};
use std::collections::HashMap;
use uecgra_dfg::{Dfg, NodeId, Op};

/// Result of lowering: the graph plus handles for simulation.
#[derive(Debug, Clone)]
pub struct LoweredLoop {
    /// The dataflow graph.
    pub dfg: Dfg,
    /// The induction variable's phi node (iteration marker).
    pub induction_phi: NodeId,
    /// Phi node per loop-carried scalar, by name.
    pub carried_phis: HashMap<String, NodeId>,
    /// Exit branch per carried scalar: its false port emits the
    /// scalar's final value when the loop terminates (a live-out).
    pub carried_exits: HashMap<String, NodeId>,
}

/// A value in the lowering environment: either a node output port or a
/// compile-time constant (kept symbolic so it can be folded into
/// consumer nodes' immediate fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    Node(NodeId, u8),
    Const(u32),
}

struct Lowerer {
    dfg: Dfg,
    env: HashMap<String, Operand>,
}

impl Lowerer {
    fn connect(&mut self, from: Operand, to: NodeId, port: u8) {
        match from {
            Operand::Node(n, p) => {
                self.dfg.connect_ports(n, p, to, port);
            }
            Operand::Const(_) => unreachable!("constants are folded, not wired"),
        }
    }

    /// Build a binary-op node with constant folding into the immediate
    /// field (both-const operands fold at compile time).
    fn bin(&mut self, op: Op, name: &str, a: Operand, b: Operand) -> Operand {
        match (a, b) {
            (Operand::Const(x), Operand::Const(y)) => Operand::Const(op.eval(x, y)),
            (Operand::Node(..), Operand::Node(..)) => {
                let n = self.dfg.add_node(op, name).id();
                self.connect(a, n, 0);
                self.connect(b, n, 1);
                Operand::Node(n, 0)
            }
            (Operand::Node(..), Operand::Const(c)) => {
                let n = self.dfg.add_node(op, name).constant(c).id();
                self.connect(a, n, 0);
                Operand::Node(n, 0)
            }
            (Operand::Const(c), Operand::Node(..)) => {
                let n = self.dfg.add_node(op, name).constant(c).id();
                self.connect(b, n, 1);
                Operand::Node(n, 0)
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Operand, IrError> {
        match e {
            Expr::Var(v) => self
                .env
                .get(v)
                .copied()
                .ok_or_else(|| IrError::UndefinedVar(v.clone())),
            Expr::Const(c) => Ok(Operand::Const(*c)),
            Expr::Bin(op, a, b) => {
                if matches!(
                    op,
                    Op::Phi | Op::Br | Op::Load | Op::Store | Op::Source | Op::Sink | Op::Nop
                ) {
                    return Err(IrError::BadExprOp(*op));
                }
                let a = self.expr(a)?;
                let b = self.expr(b)?;
                Ok(self.bin(*op, op.mnemonic(), a, b))
            }
            Expr::Load(addr) => {
                let a = self.expr(addr)?;
                let n = match a {
                    Operand::Const(c) => {
                        // A constant-addressed load still needs a firing
                        // trigger per iteration; anchor it to the
                        // induction stream.
                        let i = self.env["__i"];
                        let cp = self.dfg.add_node(Op::Cp1, "addr_const").constant(c).id();
                        self.connect(i, cp, 0);
                        let ld = self.dfg.add_node(Op::Load, "ld").id();
                        self.dfg.connect_ports(cp, 0, ld, 0);
                        ld
                    }
                    Operand::Node(..) => {
                        let ld = self.dfg.add_node(Op::Load, "ld").id();
                        self.connect(a, ld, 0);
                        ld
                    }
                };
                Ok(Operand::Node(n, 0))
            }
        }
    }

    /// Materialize a constant as a per-iteration token stream gated by
    /// `trigger` (a steered arm token).
    fn materialize(&mut self, c: u32, trigger: Operand) -> Operand {
        let n = self.dfg.add_node(Op::Cp1, "imm").constant(c).id();
        self.connect(trigger, n, 0);
        Operand::Node(n, 0)
    }

    fn store(&mut self, addr: Operand, value: Operand) -> Result<(), IrError> {
        let st = match (addr, value) {
            (Operand::Const(a), Operand::Node(..)) => {
                let st = self.dfg.add_node(Op::Store, "st").constant(a).id();
                self.connect(value, st, 1);
                st
            }
            (Operand::Node(..), Operand::Const(c)) => {
                // Gate the immediate on the address stream so the store
                // fires once per address token.
                let imm = self.materialize(c, addr);
                let st = self.dfg.add_node(Op::Store, "st").id();
                self.connect(addr, st, 0);
                self.connect(imm, st, 1);
                st
            }
            (Operand::Node(..), Operand::Node(..)) => {
                let st = self.dfg.add_node(Op::Store, "st").id();
                self.connect(addr, st, 0);
                self.connect(value, st, 1);
                st
            }
            (Operand::Const(a), Operand::Const(c)) => {
                // Fully-constant store: anchor the address to the
                // induction stream (one firing per iteration) and gate
                // the immediate on it.
                let i = self.env["__i"];
                let addr_n = self.dfg.add_node(Op::Cp1, "addr_const").constant(a).id();
                self.connect(i, addr_n, 0);
                let addr = Operand::Node(addr_n, 0);
                let imm = self.materialize(c, addr);
                let st = self.dfg.add_node(Op::Store, "st").id();
                self.connect(addr, st, 0);
                self.connect(imm, st, 1);
                st
            }
        };
        let _ = st;
        Ok(())
    }

    fn assigned_vars(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            if let Stmt::Assign(name, _) = s {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        }
    }

    fn read_vars(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Assign(_, e) => e.reads(out),
                Stmt::Store { addr, value } => {
                    addr.reads(out);
                    value.reads(out);
                }
                Stmt::If { .. } => unreachable!("validated: no nested ifs"),
            }
        }
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), IrError> {
        for stmt in stmts {
            match stmt {
                Stmt::Assign(name, e) => {
                    let v = self.expr(e)?;
                    self.env.insert(name.clone(), v);
                }
                Stmt::Store { addr, value } => {
                    let a = self.expr(addr)?;
                    let v = self.expr(value)?;
                    self.store(a, v)?;
                }
                Stmt::If {
                    cond,
                    then_arm,
                    else_arm,
                } => self.lower_if(cond, then_arm, else_arm)?,
            }
        }
        Ok(())
    }

    fn lower_if(
        &mut self,
        cond: &Expr,
        then_arm: &[Stmt],
        else_arm: &[Stmt],
    ) -> Result<(), IrError> {
        let cond_op = self.expr(cond)?;
        if let Operand::Const(c) = cond_op {
            // Statically-decided branch: lower only the taken arm.
            return self.lower_stmts(if c != 0 { then_arm } else { else_arm });
        }

        // Variables the arms read, plus pass-through values for
        // variables assigned in only one arm.
        let mut reads = Vec::new();
        Lowerer::read_vars(then_arm, &mut reads);
        Lowerer::read_vars(else_arm, &mut reads);
        let mut then_defs = Vec::new();
        Lowerer::assigned_vars(then_arm, &mut then_defs);
        let mut else_defs = Vec::new();
        Lowerer::assigned_vars(else_arm, &mut else_defs);
        let mut live_in: Vec<String> = Vec::new();
        for v in reads.iter() {
            if self.env.contains_key(v) && !live_in.contains(v) {
                live_in.push(v.clone());
            }
        }
        for v in then_defs.iter().chain(&else_defs) {
            let one_sided = then_defs.contains(v) ^ else_defs.contains(v);
            if one_sided && self.env.contains_key(v) && !live_in.contains(v) {
                live_in.push(v.clone());
            }
        }

        // Steer each node-valued live-in through a br; constants stay
        // foldable in both arms.
        let outer_env = self.env.clone();
        let mut then_env = outer_env.clone();
        let mut else_env = outer_env.clone();
        let mut steered: HashMap<String, NodeId> = HashMap::new();
        for v in &live_in {
            if let Operand::Node(..) = outer_env[v] {
                let br = self.dfg.add_node(Op::Br, format!("br_{v}")).id();
                self.connect(outer_env[v], br, 0);
                self.connect(cond_op, br, 1);
                then_env.insert(v.clone(), Operand::Node(br, 0));
                else_env.insert(v.clone(), Operand::Node(br, 1));
                steered.insert(v.clone(), br);
            }
        }

        // Arm trigger: one token per iteration on the taken side only.
        // It anchors everything inside an arm that would otherwise tie
        // to the free-running induction stream — constant-addressed
        // loads/stores and materialized immediates — so un-taken arms
        // produce no tokens at all.
        let trig = self.dfg.add_node(Op::Br, "br_trig").id();
        self.connect(cond_op, trig, 0);
        self.connect(cond_op, trig, 1);
        then_env.insert("__i".into(), Operand::Node(trig, 0));
        else_env.insert("__i".into(), Operand::Node(trig, 1));
        let mut get_trigger = |_: &mut Lowerer| -> NodeId { trig };

        // Lower the arms in their steered environments.
        std::mem::swap(&mut self.env, &mut then_env);
        self.lower_stmts(then_arm)?;
        std::mem::swap(&mut self.env, &mut then_env);
        std::mem::swap(&mut self.env, &mut else_env);
        self.lower_stmts(else_arm)?;
        std::mem::swap(&mut self.env, &mut else_env);

        // Merge definitions.
        let mut merged: Vec<String> = then_defs.clone();
        for v in &else_defs {
            if !merged.contains(v) {
                merged.push(v.clone());
            }
        }
        for v in &merged {
            let then_def = if then_defs.contains(v) {
                Some(then_env[v.as_str()])
            } else {
                steered.get(v).map(|&br| Operand::Node(br, 0))
            };
            let else_def = if else_defs.contains(v) {
                Some(else_env[v.as_str()])
            } else {
                steered.get(v).map(|&br| Operand::Node(br, 1))
            };

            let phi = self.dfg.add_node(Op::Phi, format!("phi_{v}")).id();
            if let Some(d) = then_def {
                let d = self.to_token(d, 0, &mut get_trigger);
                self.connect(d, phi, 0);
            }
            if let Some(d) = else_def {
                let d = self.to_token(d, 1, &mut get_trigger);
                self.connect(d, phi, 1);
            }
            self.env.insert(v.clone(), Operand::Node(phi, 0));
        }
        Ok(())
    }

    /// Convert an arm definition into a token stream: node values pass
    /// through; constants are gated on the arm's trigger token.
    // `to_` here converts the *operand*, not self; node creation needs
    // the mutable graph.
    #[allow(clippy::wrong_self_convention)]
    fn to_token(
        &mut self,
        d: Operand,
        arm_port: u8,
        get_trigger: &mut impl FnMut(&mut Lowerer) -> NodeId,
    ) -> Operand {
        match d {
            Operand::Node(..) => d,
            Operand::Const(c) => {
                let trig = get_trigger(self);
                self.materialize(c, Operand::Node(trig, arm_port))
            }
        }
    }
}

/// Lower a validated loop to a dataflow graph.
///
/// # Errors
///
/// Returns an [`IrError`] if validation or lowering fails.
///
/// # Examples
///
/// ```
/// use uecgra_compiler::ir::{Carried, Expr, LoopNest, Stmt};
/// use uecgra_compiler::frontend::lower;
///
/// // for (i = 0; i < 8; ++i) acc += mem[i];
/// let l = LoopNest {
///     var: "i".into(),
///     trip_count: 8,
///     carried: vec![Carried { name: "acc".into(), init: 0 }],
///     body: vec![Stmt::assign(
///         "acc",
///         Expr::add(Expr::var("acc"), Expr::load(Expr::var("i"))),
///     )],
/// };
/// let lowered = lower(&l).unwrap();
/// assert!(lowered.dfg.node_count() >= 6);
/// ```
pub fn lower(l: &LoopNest) -> Result<LoweredLoop, IrError> {
    l.validate()?;

    let mut lw = Lowerer {
        dfg: Dfg::new(),
        env: HashMap::new(),
    };

    // Induction recurrence: phi -> add -> lt -> br -> phi.
    let phi_i = lw.dfg.add_node(Op::Phi, &l.var).init(0).id();
    let add_i = lw
        .dfg
        .add_node(Op::Add, format!("{}+1", l.var))
        .constant(1)
        .id();
    let lt = lw
        .dfg
        .add_node(Op::Lt, format!("{}<N", l.var))
        .constant(l.trip_count)
        .id();
    let br_i = lw.dfg.add_node(Op::Br, format!("br_{}", l.var)).id();
    lw.dfg.connect(phi_i, add_i);
    lw.dfg.connect(add_i, lt);
    lw.dfg.connect_ports(add_i, 0, br_i, 0);
    lw.dfg.connect_ports(lt, 0, br_i, 1);
    lw.dfg.connect_ports(br_i, 0, phi_i, 1);
    lw.env.insert(l.var.clone(), Operand::Node(phi_i, 0));
    // Internal alias used by constant-addressed loads.
    lw.env.insert("__i".into(), Operand::Node(phi_i, 0));

    // Carried scalars.
    let mut carried_phis = HashMap::new();
    for c in &l.carried {
        let phi = lw.dfg.add_node(Op::Phi, &c.name).init(c.init).id();
        lw.env.insert(c.name.clone(), Operand::Node(phi, 0));
        carried_phis.insert(c.name.clone(), phi);
    }

    lw.lower_stmts(&l.body)?;

    // Close the carried recurrences with the end-of-body definitions,
    // steering each through the loop-exit condition: the value for
    // iteration k+1 re-enters its phi only while the loop continues,
    // exactly like the induction variable. Without this gate the phi
    // would emit one post-loop value and any consumer chain fed purely
    // by carried values (e.g. a constant-operand store) would run one
    // extra iteration.
    let mut carried_exits = HashMap::new();
    for c in &l.carried {
        let phi = carried_phis[&c.name];
        let def = lw.env[&c.name];
        let def = match def {
            Operand::Node(..) => def,
            Operand::Const(cval) => {
                // Carried scalar reassigned to a constant: gate it on
                // the induction stream so it arrives once per iteration.
                let i = lw.env["__i"];
                let imm = lw.dfg.add_node(Op::Cp1, "imm").constant(cval).id();
                lw.connect(i, imm, 0);
                Operand::Node(imm, 0)
            }
        };
        let gate = lw.dfg.add_node(Op::Br, format!("br_{}", c.name)).id();
        lw.connect(def, gate, 0);
        lw.dfg.connect_ports(lt, 0, gate, 1);
        lw.dfg.connect_ports(gate, 0, phi, 1);
        carried_exits.insert(c.name.clone(), gate);
    }

    lw.dfg
        .validate()
        .expect("lowering must produce a valid graph");
    Ok(LoweredLoop {
        dfg: lw.dfg,
        induction_phi: phi_i,
        carried_phis,
        carried_exits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Carried, Stmt};
    use uecgra_clock::VfMode;
    use uecgra_model::{DfgSimulator, SimConfig, StopReason};

    fn simulate(lowered: &LoweredLoop, mem: Vec<u32>) -> Vec<u32> {
        let config = SimConfig {
            marker: Some(lowered.induction_phi),
            ..SimConfig::default()
        };
        let modes = vec![VfMode::Nominal; lowered.dfg.node_count()];
        let r = DfgSimulator::new(&lowered.dfg, modes, mem, config).run();
        assert_eq!(r.stop, StopReason::Quiesced, "lowered loop must terminate");
        r.mem
    }

    #[test]
    fn accumulate_loop_computes_prefix_sums() {
        // for (i=0; i<8; ++i) { acc += mem[i]; mem[16+i] = acc; }
        let l = LoopNest {
            var: "i".into(),
            trip_count: 8,
            carried: vec![Carried {
                name: "acc".into(),
                init: 0,
            }],
            body: vec![
                Stmt::assign(
                    "acc",
                    Expr::add(Expr::var("acc"), Expr::load(Expr::var("i"))),
                ),
                Stmt::Store {
                    addr: Expr::add(Expr::var("i"), Expr::Const(16)),
                    value: Expr::var("acc"),
                },
            ],
        };
        let lowered = lower(&l).unwrap();
        let mut mem: Vec<u32> = (1..=8).collect();
        mem.resize(32, 0);
        let out = simulate(&lowered, mem);
        let mut acc = 0;
        for i in 0..8 {
            acc += (i as u32) + 1;
            assert_eq!(out[16 + i], acc, "prefix sum at {i}");
        }
    }

    #[test]
    fn if_else_lowering_matches_dither_reference() {
        use uecgra_dfg::kernels::dither;
        let n = 64;
        let src = dither::SRC_BASE;
        let dst = dither::dst_base(n);
        let l = LoopNest {
            var: "i".into(),
            trip_count: n as u32,
            carried: vec![Carried {
                name: "err".into(),
                init: 0,
            }],
            body: vec![
                Stmt::assign(
                    "out",
                    Expr::add(
                        Expr::load(Expr::add(Expr::var("i"), Expr::Const(src))),
                        Expr::var("err"),
                    ),
                ),
                Stmt::If {
                    cond: Expr::bin(Op::Gt, Expr::var("out"), Expr::Const(127)),
                    then_arm: vec![
                        Stmt::assign("pixel", Expr::Const(255)),
                        Stmt::assign(
                            "err",
                            Expr::bin(Op::Sub, Expr::var("out"), Expr::Const(255)),
                        ),
                    ],
                    else_arm: vec![
                        Stmt::assign("pixel", Expr::Const(0)),
                        Stmt::assign("err", Expr::var("out")),
                    ],
                },
                Stmt::Store {
                    addr: Expr::add(Expr::var("i"), Expr::Const(dst)),
                    value: Expr::var("pixel"),
                },
            ],
        };
        let lowered = lower(&l).unwrap();
        // Run on the same memory image the hand-built kernel uses.
        let k = dither::build_with_pixels(n);
        let out = simulate(&lowered, k.mem.clone());
        assert_eq!(
            out,
            dither::reference(&k.mem, n),
            "IR-lowered dither diverges"
        );
    }

    #[test]
    fn constant_condition_folds_to_taken_arm() {
        let l = LoopNest {
            var: "i".into(),
            trip_count: 4,
            carried: vec![],
            body: vec![Stmt::If {
                cond: Expr::Const(1),
                then_arm: vec![Stmt::Store {
                    addr: Expr::add(Expr::var("i"), Expr::Const(8)),
                    value: Expr::var("i"),
                }],
                else_arm: vec![Stmt::Store {
                    addr: Expr::add(Expr::var("i"), Expr::Const(16)),
                    value: Expr::var("i"),
                }],
            }],
        };
        let lowered = lower(&l).unwrap();
        let out = simulate(&lowered, vec![0; 32]);
        for i in 0..4u32 {
            assert_eq!(out[8 + i as usize], i, "then-arm ran");
            assert_eq!(out[16 + i as usize], 0, "else-arm folded away");
        }
    }

    #[test]
    fn binary_constant_folding() {
        // x = (3+4)*i: the 3+4 must fold into the mul's immediate.
        let l = LoopNest {
            var: "i".into(),
            trip_count: 4,
            carried: vec![],
            body: vec![
                Stmt::assign(
                    "x",
                    Expr::bin(
                        Op::Mul,
                        Expr::add(Expr::Const(3), Expr::Const(4)),
                        Expr::var("i"),
                    ),
                ),
                Stmt::Store {
                    addr: Expr::add(Expr::var("i"), Expr::Const(8)),
                    value: Expr::var("x"),
                },
            ],
        };
        let lowered = lower(&l).unwrap();
        // No add node materialized for 3+4.
        let adds = lowered.dfg.nodes().filter(|(_, n)| n.op == Op::Add).count();
        assert_eq!(adds, 2, "only i+1 and i+8 remain");
        let out = simulate(&lowered, vec![0; 16]);
        for i in 0..4u32 {
            assert_eq!(out[8 + i as usize], 7 * i);
        }
    }

    #[test]
    fn induction_recurrence_is_four_ops() {
        let l = LoopNest {
            var: "i".into(),
            trip_count: 16,
            carried: vec![],
            body: vec![Stmt::Store {
                addr: Expr::var("i"),
                value: Expr::var("i"),
            }],
        };
        let lowered = lower(&l).unwrap();
        assert_eq!(uecgra_dfg::analysis::recurrence_mii(&lowered.dfg), 4.0);
    }

    #[test]
    fn lowering_rejects_invalid_ir() {
        let l = LoopNest {
            var: "i".into(),
            trip_count: 4,
            carried: vec![],
            body: vec![Stmt::assign("x", Expr::var("ghost"))],
        };
        assert!(matches!(lower(&l), Err(IrError::UndefinedVar(_))));
    }
}
