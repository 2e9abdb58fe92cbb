//! Operation set of the UE-CGRA processing element.
//!
//! The paper (Section IV-A) lists the operations supported by the 32-bit PE
//! datapath: `cp0, cp1, add, sub, sll, srl, and, or, xor, eq, ne, gt, geq,
//! lt, leq, mul, phi, br, nop`. Perimeter PEs additionally perform `load`
//! and `store` against their 4 kB SRAM banks. For dataflow-graph modeling we
//! also include `source` and `sink` pseudo-ops that stand for the live-in
//! producer and live-out consumer token streams.

use std::fmt;

/// A single-cycle operation executed by a UE-CGRA processing element.
///
/// All arithmetic is on 32-bit words; `mul` truncates the upper half so the
/// output bitwidth matches the inputs (paper Section IV-A). Comparison ops
/// produce `0`/`1`. Control flow is converted to dataflow: [`Op::Phi`]
/// merges two token streams (firing on whichever arrives) and [`Op::Br`]
/// steers a data token to one of two outputs based on a condition token.
///
/// # Examples
///
/// ```
/// use uecgra_dfg::Op;
///
/// assert_eq!(Op::Add.eval(3, 4), 7);
/// assert_eq!(Op::Mul.eval(0x0001_0000, 0x0001_0000), 0); // truncating
/// assert_eq!(Op::Lt.eval(-1i32 as u32, 1), 1); // signed compare
/// assert_eq!(Op::Add.arity(), 2);
/// assert!(Op::Load.is_memory());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// Copy the first operand.
    Cp0,
    /// Copy the second operand.
    Cp1,
    /// 32-bit wrapping addition.
    Add,
    /// 32-bit wrapping subtraction.
    Sub,
    /// Logical shift left (by `rhs & 31`).
    Sll,
    /// Logical shift right (by `rhs & 31`).
    Srl,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Equal (1 if equal).
    Eq,
    /// Not equal.
    Ne,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Geq,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Leq,
    /// 32×32→32 truncating multiply.
    Mul,
    /// Merge node: forwards whichever input token arrives. A phi node may
    /// carry an initial token to bootstrap a recurrence cycle (iteration 0).
    Phi,
    /// Branch-as-dataflow: input 0 is data, input 1 is the condition; the
    /// data token is steered to output port 0 when the condition is true
    /// (non-zero) and port 1 when false.
    Br,
    /// No operation (used by routing-only PEs).
    Nop,
    /// SRAM load: input is an address (word index), output is the data.
    /// Only legal on perimeter (memory) PEs.
    Load,
    /// SRAM store: input 0 is the address, input 1 is the data. Produces a
    /// completion token so stores can be chained into the dataflow.
    Store,
    /// Live-in pseudo-op: produces the input token stream (one token per
    /// local cycle, up to the configured iteration count).
    Source,
    /// Live-out pseudo-op: consumes tokens leaving the graph.
    Sink,
}

/// All real PE operations (excludes the `Source`/`Sink` modeling pseudo-ops).
pub const PE_OPS: [Op; 21] = [
    Op::Cp0,
    Op::Cp1,
    Op::Add,
    Op::Sub,
    Op::Sll,
    Op::Srl,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Eq,
    Op::Ne,
    Op::Gt,
    Op::Geq,
    Op::Lt,
    Op::Leq,
    Op::Mul,
    Op::Phi,
    Op::Br,
    Op::Nop,
    Op::Load,
    Op::Store,
];

impl Op {
    /// Number of input operands the op consumes per firing.
    ///
    /// `Phi` is listed with arity 2 but fires on *either* input (see
    /// [`Op::fires_on_any_input`]). `Source` takes none; `Sink`, `Cp0`,
    /// `Nop`, and `Load` take one.
    pub fn arity(self) -> usize {
        match self {
            Op::Source => 0,
            Op::Cp0 | Op::Nop | Op::Load | Op::Sink => 1,
            Op::Cp1 => 2,
            Op::Phi | Op::Br | Op::Store => 2,
            _ => 2,
        }
    }

    /// Number of output ports. `Br` has two (true/false); everything else
    /// one, except `Sink` which has none.
    pub fn out_ports(self) -> usize {
        match self {
            Op::Br => 2,
            Op::Sink => 0,
            _ => 1,
        }
    }

    /// True for ops that fire as soon as *any* input token arrives (merge
    /// semantics) rather than waiting for all inputs.
    pub fn fires_on_any_input(self) -> bool {
        matches!(self, Op::Phi)
    }

    /// True for SRAM-accessing ops, which are only legal on perimeter PEs.
    pub fn is_memory(self) -> bool {
        matches!(self, Op::Load | Op::Store)
    }

    /// True for the modeling pseudo-ops that do not occupy a PE.
    pub fn is_pseudo(self) -> bool {
        matches!(self, Op::Source | Op::Sink)
    }

    /// Evaluate a two-input combinational op. For one-input ops the second
    /// operand is ignored. `Phi`, `Br`, `Load`, `Store`, `Source` and
    /// `Sink` have structural semantics handled by the simulators; calling
    /// `eval` on them returns the first operand unchanged.
    pub fn eval(self, a: u32, b: u32) -> u32 {
        let sa = a as i32;
        let sb = b as i32;
        match self {
            Op::Cp0 | Op::Nop => a,
            Op::Cp1 => b,
            Op::Add => a.wrapping_add(b),
            Op::Sub => a.wrapping_sub(b),
            Op::Sll => a.wrapping_shl(b & 31),
            Op::Srl => a.wrapping_shr(b & 31),
            Op::And => a & b,
            Op::Or => a | b,
            Op::Xor => a ^ b,
            Op::Eq => (a == b) as u32,
            Op::Ne => (a != b) as u32,
            Op::Gt => (sa > sb) as u32,
            Op::Geq => (sa >= sb) as u32,
            Op::Lt => (sa < sb) as u32,
            Op::Leq => (sa <= sb) as u32,
            Op::Mul => a.wrapping_mul(b),
            Op::Phi | Op::Br | Op::Load | Op::Store | Op::Source | Op::Sink => a,
        }
    }

    /// The canonical mnemonic used in bitstreams and reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Cp0 => "cp0",
            Op::Cp1 => "cp1",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Sll => "sll",
            Op::Srl => "srl",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Eq => "eq",
            Op::Ne => "ne",
            Op::Gt => "gt",
            Op::Geq => "geq",
            Op::Lt => "lt",
            Op::Leq => "leq",
            Op::Mul => "mul",
            Op::Phi => "phi",
            Op::Br => "br",
            Op::Nop => "nop",
            Op::Load => "load",
            Op::Store => "store",
            Op::Source => "source",
            Op::Sink => "sink",
        }
    }

    /// Parse a mnemonic back into an [`Op`].
    ///
    /// # Examples
    ///
    /// ```
    /// use uecgra_dfg::Op;
    /// assert_eq!(Op::from_mnemonic("mul"), Some(Op::Mul));
    /// assert_eq!(Op::from_mnemonic("bogus"), None);
    /// ```
    pub fn from_mnemonic(s: &str) -> Option<Op> {
        PE_OPS
            .iter()
            .chain([Op::Source, Op::Sink].iter())
            .copied()
            .find(|op| op.mnemonic() == s)
    }

    /// Relative dynamic energy of a PE executing this op at nominal VF,
    /// normalized to `mul == 1.0` (paper Section II-C alpha table).
    ///
    /// `Phi`/`Br`/`Nop` route data without exercising the ALU datapath, so
    /// they are charged at the bypass factor. Memory ops pay
    /// [`ALPHA_SRAM`] per subbank access on top (see
    /// [`alpha_with_sram`](Op::alpha_with_sram)).
    pub fn alpha(self) -> f64 {
        match self {
            Op::Mul => 1.0,
            Op::Add | Op::Sub => 0.30,
            Op::Sll => 0.37,
            Op::Srl => 0.35,
            Op::Cp0 | Op::Cp1 => 0.23,
            Op::And => 0.30,
            Op::Or => 0.33,
            Op::Xor => 0.42,
            Op::Eq | Op::Ne => 0.23,
            Op::Gt | Op::Geq | Op::Lt | Op::Leq => 0.25,
            Op::Phi | Op::Br | Op::Nop => 0.11,
            // Loads/stores exercise the address datapath like a copy; the
            // SRAM subbank energy (`ALPHA_SRAM`) is added separately.
            Op::Load | Op::Store => 0.23,
            Op::Source | Op::Sink => 0.0,
        }
    }

    /// [`alpha`](Op::alpha) plus, for memory ops, the [`ALPHA_SRAM`]
    /// subbank access: the relative energy of one firing including the
    /// SRAM it touches.
    pub fn alpha_with_sram(self) -> f64 {
        self.alpha() + if self.is_memory() { ALPHA_SRAM } else { 0.0 }
    }
}

/// Relative energy of one 4 kB SRAM subbank access, normalized like
/// [`Op::alpha`] (paper Section II-C).
pub const ALPHA_SRAM: f64 = 0.82;

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_semantics() {
        assert_eq!(Op::Add.eval(u32::MAX, 1), 0);
        assert_eq!(Op::Sub.eval(0, 1), u32::MAX);
        assert_eq!(Op::Sll.eval(1, 33), 2, "shift amount is masked to 5 bits");
        assert_eq!(Op::Srl.eval(0x8000_0000, 31), 1);
        assert_eq!(Op::Mul.eval(3, 5), 15);
        assert_eq!(Op::Mul.eval(0xFFFF_FFFF, 2), 0xFFFF_FFFE);
    }

    #[test]
    fn comparisons_are_signed() {
        let neg1 = -1i32 as u32;
        assert_eq!(Op::Gt.eval(1, neg1), 1);
        assert_eq!(Op::Lt.eval(neg1, 0), 1);
        assert_eq!(Op::Geq.eval(neg1, neg1), 1);
        assert_eq!(Op::Leq.eval(0, neg1), 0);
        assert_eq!(Op::Eq.eval(7, 7), 1);
        assert_eq!(Op::Ne.eval(7, 7), 0);
    }

    #[test]
    fn bitwise_semantics() {
        assert_eq!(Op::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(Op::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(Op::Xor.eval(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn copies() {
        assert_eq!(Op::Cp0.eval(1, 2), 1);
        assert_eq!(Op::Cp1.eval(1, 2), 2);
        assert_eq!(Op::Nop.eval(9, 0), 9);
    }

    #[test]
    fn mnemonic_roundtrip() {
        for op in PE_OPS.iter().chain([Op::Source, Op::Sink].iter()) {
            assert_eq!(Op::from_mnemonic(op.mnemonic()), Some(*op));
        }
    }

    #[test]
    fn alpha_table_matches_paper() {
        assert_eq!(Op::Mul.alpha(), 1.0);
        assert_eq!(Op::Add.alpha(), 0.30);
        assert_eq!(Op::Sll.alpha(), 0.37);
        assert_eq!(Op::Srl.alpha(), 0.35);
        assert_eq!(Op::Xor.alpha(), 0.42);
        assert_eq!(Op::Nop.alpha(), 0.11);
        assert!(Op::Mul.alpha() >= Op::Add.alpha());
    }

    #[test]
    fn structural_queries() {
        assert!(Op::Phi.fires_on_any_input());
        assert!(!Op::Add.fires_on_any_input());
        assert_eq!(Op::Br.out_ports(), 2);
        assert_eq!(Op::Sink.out_ports(), 0);
        assert!(Op::Load.is_memory() && Op::Store.is_memory());
        assert!(Op::Source.is_pseudo() && Op::Sink.is_pseudo());
        assert!(!Op::Mul.is_pseudo());
    }
}
