//! Reference interpreter for the loop IR.
//!
//! Executes a [`LoopNest`] directly over a word memory — the semantic
//! ground truth the dataflow lowering must match. Used by the
//! differential tests: for any valid program,
//! `interp(nest) == simulate(lower(nest))`.

use crate::ir::{Expr, IrError, LoopNest, Stmt};
use std::collections::HashMap;

/// Errors during interpretation (beyond static [`IrError`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Static validation failed.
    Ir(IrError),
    /// A load or store left the memory.
    OutOfBounds(u32),
    /// A variable was read before assignment along the taken path
    /// (statically possible when only one if-arm defines it).
    Undefined(String),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Ir(e) => write!(f, "{e}"),
            InterpError::OutOfBounds(a) => write!(f, "memory access at {a} out of bounds"),
            InterpError::Undefined(v) => write!(f, "variable `{v}` undefined on taken path"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<IrError> for InterpError {
    fn from(e: IrError) -> Self {
        InterpError::Ir(e)
    }
}

struct Interp<'m> {
    mem: &'m mut [u32],
    env: HashMap<String, u32>,
}

impl Interp<'_> {
    fn expr(&mut self, e: &Expr) -> Result<u32, InterpError> {
        match e {
            Expr::Var(v) => self
                .env
                .get(v)
                .copied()
                .ok_or_else(|| InterpError::Undefined(v.clone())),
            Expr::Const(c) => Ok(*c),
            Expr::Bin(op, a, b) => {
                let a = self.expr(a)?;
                let b = self.expr(b)?;
                Ok(op.eval(a, b))
            }
            Expr::Load(addr) => {
                let a = self.expr(addr)?;
                self.mem
                    .get(a as usize)
                    .copied()
                    .ok_or(InterpError::OutOfBounds(a))
            }
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), InterpError> {
        for s in stmts {
            match s {
                Stmt::Assign(name, e) => {
                    let v = self.expr(e)?;
                    self.env.insert(name.clone(), v);
                }
                Stmt::Store { addr, value } => {
                    let a = self.expr(addr)?;
                    let v = self.expr(value)?;
                    match self.mem.get_mut(a as usize) {
                        Some(w) => *w = v,
                        None => return Err(InterpError::OutOfBounds(a)),
                    }
                }
                Stmt::If {
                    cond,
                    then_arm,
                    else_arm,
                } => {
                    let c = self.expr(cond)?;
                    if c != 0 {
                        self.stmts(then_arm)?;
                    } else {
                        self.stmts(else_arm)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Execute the loop over `mem`, returning the final memory.
///
/// # Errors
///
/// Returns an [`InterpError`] on invalid IR, out-of-bounds accesses,
/// or dynamically-undefined variables.
pub fn interpret(nest: &LoopNest, mem: &mut [u32]) -> Result<(), InterpError> {
    nest.validate()?;
    let mut it = Interp {
        mem,
        env: HashMap::new(),
    };
    for c in &nest.carried {
        it.env.insert(c.name.clone(), c.init);
    }
    for i in 0..nest.trip_count {
        it.env.insert(nest.var.clone(), i);
        it.stmts(&nest.body)?;
    }
    Ok(())
}

/// Evaluate with a fresh copy of `mem` (convenience for tests).
///
/// # Errors
///
/// See [`interpret`].
pub fn interpret_fresh(nest: &LoopNest, mem: &[u32]) -> Result<Vec<u32>, InterpError> {
    let mut m = mem.to_vec();
    interpret(nest, &mut m)?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Carried;
    use uecgra_dfg::Op;

    #[test]
    fn interprets_accumulation() {
        let nest = LoopNest {
            var: "i".into(),
            trip_count: 4,
            carried: vec![Carried {
                name: "acc".into(),
                init: 10,
            }],
            body: vec![
                Stmt::assign("acc", Expr::add(Expr::var("acc"), Expr::var("i"))),
                Stmt::Store {
                    addr: Expr::var("i"),
                    value: Expr::var("acc"),
                },
            ],
        };
        let m = interpret_fresh(&nest, &[0; 8]).unwrap();
        assert_eq!(&m[..4], &[10, 11, 13, 16]);
    }

    #[test]
    fn branches_follow_the_condition() {
        let nest = LoopNest {
            var: "i".into(),
            trip_count: 6,
            carried: vec![],
            body: vec![Stmt::If {
                cond: Expr::bin(Op::Gt, Expr::var("i"), Expr::Const(2)),
                then_arm: vec![Stmt::Store {
                    addr: Expr::var("i"),
                    value: Expr::Const(1),
                }],
                else_arm: vec![Stmt::Store {
                    addr: Expr::var("i"),
                    value: Expr::Const(2),
                }],
            }],
        };
        let m = interpret_fresh(&nest, &[0; 8]).unwrap();
        assert_eq!(&m[..6], &[2, 2, 2, 1, 1, 1]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let nest = LoopNest {
            var: "i".into(),
            trip_count: 1,
            carried: vec![],
            body: vec![Stmt::assign("x", Expr::load(Expr::Const(999)))],
        };
        assert_eq!(
            interpret_fresh(&nest, &[0; 4]),
            Err(InterpError::OutOfBounds(999))
        );
    }
}
