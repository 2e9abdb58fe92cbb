//! Text frontend: a C-like mini-language for innermost loops.
//!
//! The paper's compiler consumes C through LLVM; this reproduction's
//! equivalent surface syntax covers the same shapes (Figure 9's
//! kernels): array declarations with base addresses, one counted loop
//! with loop-carried scalars, assignments, loads/stores through array
//! indexing, and a structured `if/else`.
//!
//! ```text
//! array src @ 16;
//! array dst @ 1048;
//! for i in 0..1000 carry (err = 0) {
//!     let out = src[i] + err;
//!     if (out > 127) {
//!         dst[i] = 255;
//!         err = out - 255;
//!     } else {
//!         dst[i] = 0;
//!         err = out;
//!     }
//! }
//! ```
//!
//! Parsing produces a [`Program`]: the array symbol table plus a
//! [`LoopNest`] ready for [`crate::frontend::lower`].

use crate::ir::{Carried, Expr, IrError, LoopNest, Stmt};
use std::collections::HashMap;
use std::fmt;
use uecgra_dfg::Op;

/// Deepest expression [`parse`] accepts. Each operator, array index
/// and pair of parentheses is one level, so a left-deep chain such as
/// `a + 1 + 1 + ...` is as deep as it has terms. Parsing, validation,
/// lowering and interpretation all recurse over the tree; the cap turns
/// a deeper one into a [`ParseError`] instead of a stack overflow. The
/// paper kernels nest under 10 levels.
pub const MAX_EXPR_DEPTH: usize = 256;

/// A parsed program: array bases plus the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Array name → base word address.
    pub arrays: HashMap<String, u32>,
    /// The loop, with array accesses lowered to address arithmetic.
    pub nest: LoopNest,
}

/// Parse errors with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the source.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(u32),
    Sym(&'static str),
    Kw(&'static str),
}

const KEYWORDS: [&str; 7] = ["array", "for", "in", "carry", "let", "if", "else"];
const SYMBOLS: [&str; 20] = [
    "..", "==", "!=", ">=", "<=", ">>", "<<", "@", ";", ",", "(", ")", "{", "}", "[", "]", "=",
    "+", "-", ">",
];
const MORE_SYMBOLS: [&str; 5] = ["<", "*", "&", "|", "^"];

fn tokenize(src: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &src[start..i];
            let tok = if KEYWORDS.contains(&word) {
                Tok::Kw(KEYWORDS.iter().find(|k| **k == word).expect("keyword"))
            } else {
                Tok::Ident(word.to_string())
            };
            toks.push((start, tok));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut value: u64 = 0;
            if c == '0' && bytes.get(i + 1) == Some(&b'x') {
                i += 2;
                while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                    value = value * 16 + u64::from((bytes[i] as char).to_digit(16).expect("hex"));
                    i += 1;
                }
            } else {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    value = value * 10 + u64::from(bytes[i] - b'0');
                    i += 1;
                }
            }
            if value > u64::from(u32::MAX) {
                return Err(ParseError {
                    offset: start,
                    message: "integer literal exceeds 32 bits".into(),
                });
            }
            toks.push((start, Tok::Num(value as u32)));
            continue;
        }
        for sym in SYMBOLS.iter().chain(MORE_SYMBOLS.iter()) {
            if src[i..].starts_with(sym) {
                toks.push((i, Tok::Sym(sym)));
                i += sym.len();
                continue 'outer;
            }
        }
        return Err(ParseError {
            offset: i,
            message: format!("unexpected character `{c}`"),
        });
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    arrays: HashMap<String, u32>,
    /// Parentheses and array indices open at `pos`.
    open: usize,
}

/// A parsed expression and its depth counted from the outermost
/// enclosing expression (see [`MAX_EXPR_DEPTH`]).
type Sub = (Expr, usize);

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|(o, _)| *o)
            .unwrap_or(usize::MAX)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Sym(s)) if s == sym => Ok(()),
            other => Err(ParseError {
                offset: self.toks.get(self.pos - 1).map(|(o, _)| *o).unwrap_or(0),
                message: format!("expected `{sym}`, found {other:?}"),
            }),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Kw(k)) if k == kw => Ok(()),
            other => Err(ParseError {
                offset: self.toks.get(self.pos - 1).map(|(o, _)| *o).unwrap_or(0),
                message: format!("expected `{kw}`, found {other:?}"),
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(ParseError {
                offset: self.toks.get(self.pos - 1).map(|(o, _)| *o).unwrap_or(0),
                message: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    fn expect_num(&mut self) -> Result<u32, ParseError> {
        match self.next() {
            Some(Tok::Num(n)) => Ok(n),
            other => Err(ParseError {
                offset: self.toks.get(self.pos - 1).map(|(o, _)| *o).unwrap_or(0),
                message: format!("expected number, found {other:?}"),
            }),
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Kw(k)) if *k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// `depth + 1`, or an error past [`MAX_EXPR_DEPTH`].
    fn deeper(&self, depth: usize) -> Result<usize, ParseError> {
        if depth < MAX_EXPR_DEPTH {
            Ok(depth + 1)
        } else {
            Err(self.err(format!(
                "expression nests deeper than {MAX_EXPR_DEPTH} levels"
            )))
        }
    }

    fn bin(&self, op: Op, (lhs, l): Sub, (rhs, r): Sub) -> Result<Sub, ParseError> {
        Ok((Expr::bin(op, lhs, rhs), self.deeper(l.max(r))?))
    }

    /// An expression nested inside `(...)` or `[...]`.
    fn inner(&mut self) -> Result<Sub, ParseError> {
        self.open = self.deeper(self.open)?;
        let sub = self.cmp_expr()?;
        self.open -= 1;
        Ok(sub)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.cmp_expr()?.0)
    }

    // Expression grammar (loosest to tightest):
    // cmp:  add (==|!=|>|>=|<|<= add)?
    // add:  mulg ((+|-|&,|,^) mulg)*
    // mulg: shift (* shift)*
    // shift: atom ((<<|>>) atom)*
    // atom: num | ident | ident[expr] | (cmp)
    fn cmp_expr(&mut self) -> Result<Sub, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Sym("==")) => Some(Op::Eq),
            Some(Tok::Sym("!=")) => Some(Op::Ne),
            Some(Tok::Sym(">=")) => Some(Op::Geq),
            Some(Tok::Sym("<=")) => Some(Op::Leq),
            Some(Tok::Sym(">")) => Some(Op::Gt),
            Some(Tok::Sym("<")) => Some(Op::Lt),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr()?;
            return self.bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Sub, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym("+")) => Op::Add,
                Some(Tok::Sym("-")) => Op::Sub,
                Some(Tok::Sym("&")) => Op::And,
                Some(Tok::Sym("|")) => Op::Or,
                Some(Tok::Sym("^")) => Op::Xor,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Sub, ParseError> {
        let mut lhs = self.shift_expr()?;
        while matches!(self.peek(), Some(Tok::Sym("*"))) {
            self.pos += 1;
            let rhs = self.shift_expr()?;
            lhs = self.bin(Op::Mul, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn shift_expr(&mut self) -> Result<Sub, ParseError> {
        let mut lhs = self.atom()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym("<<")) => Op::Sll,
                Some(Tok::Sym(">>")) => Op::Srl,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.atom()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Sub, ParseError> {
        let leaf = self.deeper(self.open)?;
        match self.next() {
            Some(Tok::Num(n)) => Ok((Expr::Const(n), leaf)),
            Some(Tok::Ident(name)) => {
                if self.eat_sym("[") {
                    let (idx, depth) = self.inner()?;
                    self.expect_sym("]")?;
                    let base = *self.arrays.get(&name).ok_or_else(|| ParseError {
                        offset: self.offset(),
                        message: format!("undeclared array `{name}`"),
                    })?;
                    let load = Expr::load(Expr::add(idx, Expr::Const(base)));
                    Ok((load, self.deeper(depth)?))
                } else {
                    Ok((Expr::Var(name), leaf))
                }
            }
            Some(Tok::Sym("(")) => {
                let sub = self.inner()?;
                self.expect_sym(")")?;
                Ok(sub)
            }
            other => Err(ParseError {
                offset: self.toks.get(self.pos - 1).map(|(o, _)| *o).unwrap_or(0),
                message: format!("expected expression, found {other:?}"),
            }),
        }
    }

    /// One statement; `in_if` is true inside an `if` arm, where a
    /// nested `if` is rejected before it is parsed.
    fn stmt(&mut self, in_if: bool) -> Result<Stmt, ParseError> {
        if matches!(self.peek(), Some(Tok::Kw("if"))) {
            if in_if {
                return Err(self.err(IrError::NestedIf.to_string()));
            }
            self.pos += 1;
            self.expect_sym("(")?;
            let cond = self.expr()?;
            self.expect_sym(")")?;
            let then_arm = self.block(true)?;
            let else_arm = if self.eat_kw("else") {
                self.block(true)?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_arm,
                else_arm,
            });
        }
        // `let x = e;` or `x = e;` or `arr[e] = e;`
        let _ = self.eat_kw("let");
        let name = self.expect_ident()?;
        if self.eat_sym("[") {
            let idx = self.expr()?;
            self.expect_sym("]")?;
            self.expect_sym("=")?;
            let value = self.expr()?;
            self.expect_sym(";")?;
            let base = *self.arrays.get(&name).ok_or_else(|| ParseError {
                offset: self.offset(),
                message: format!("undeclared array `{name}`"),
            })?;
            return Ok(Stmt::Store {
                addr: Expr::add(idx, Expr::Const(base)),
                value,
            });
        }
        self.expect_sym("=")?;
        let value = self.expr()?;
        self.expect_sym(";")?;
        Ok(Stmt::Assign(name, value))
    }

    fn block(&mut self, in_if: bool) -> Result<Vec<Stmt>, ParseError> {
        self.expect_sym("{")?;
        let mut stmts = Vec::new();
        while !self.eat_sym("}") {
            if self.peek().is_none() {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.stmt(in_if)?);
        }
        Ok(stmts)
    }
}

/// Parse a program.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte offset on malformed input; the
/// resulting [`LoopNest`] is additionally validated by the IR rules.
///
/// # Examples
///
/// ```
/// use uecgra_compiler::parse::parse;
///
/// let program = parse(
///     "array a @ 8;\n\
///      for i in 0..4 carry (acc = 0) { acc = acc + a[i]; }",
/// ).unwrap();
/// assert_eq!(program.arrays["a"], 8);
/// assert_eq!(program.nest.trip_count, 4);
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        arrays: HashMap::new(),
        open: 0,
    };

    // Array declarations.
    while p.eat_kw("array") {
        let name = p.expect_ident()?;
        p.expect_sym("@")?;
        let base = p.expect_num()?;
        p.expect_sym(";")?;
        p.arrays.insert(name, base);
    }

    // The loop header.
    p.expect_kw("for")?;
    let var = p.expect_ident()?;
    p.expect_kw("in")?;
    let start = p.expect_num()?;
    if start != 0 {
        return Err(p.err("loops must start at 0"));
    }
    p.expect_sym("..")?;
    let trip_count = p.expect_num()?;
    let mut carried = Vec::new();
    if p.eat_kw("carry") {
        p.expect_sym("(")?;
        loop {
            let name = p.expect_ident()?;
            p.expect_sym("=")?;
            let init = p.expect_num()?;
            carried.push(Carried { name, init });
            if !p.eat_sym(",") {
                break;
            }
        }
        p.expect_sym(")")?;
    }
    let body = p.block(false)?;
    if p.peek().is_some() {
        return Err(p.err("trailing tokens after the loop"));
    }

    let nest = LoopNest {
        var,
        trip_count,
        carried,
        body,
    };
    nest.validate().map_err(|e| ParseError {
        offset: 0,
        message: e.to_string(),
    })?;
    Ok(Program {
        arrays: p.arrays,
        nest,
    })
}

/// Render a [`Program`] back to source text (the inverse of
/// [`parse`], up to whitespace and redundant parentheses — the
/// round-trip `parse(unparse(p))` reproduces `p` exactly).
pub fn unparse(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut arrays: Vec<(&String, &u32)> = program.arrays.iter().collect();
    arrays.sort();
    for (name, base) in arrays {
        let _ = writeln!(out, "array {name} @ {base};");
    }
    let nest = &program.nest;
    let _ = write!(out, "for {} in 0..{}", nest.var, nest.trip_count);
    if !nest.carried.is_empty() {
        let inits: Vec<String> = nest
            .carried
            .iter()
            .map(|c| format!("{} = {}", c.name, c.init))
            .collect();
        let _ = write!(out, " carry ({})", inits.join(", "));
    }
    let _ = writeln!(out, " {{");
    unparse_stmts(&mut out, &program.arrays, &nest.body, 1);
    out.push_str("}\n");
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn unparse_stmts(out: &mut String, arrays: &HashMap<String, u32>, stmts: &[Stmt], level: usize) {
    use std::fmt::Write as _;
    for s in stmts {
        indent(out, level);
        match s {
            Stmt::Assign(name, e) => {
                let _ = writeln!(out, "let {name} = {};", unparse_expr(arrays, e));
            }
            Stmt::Store { addr, value } => {
                // Recover `arr[idx] = v` when the address is
                // `idx + base` for a known array base; otherwise fall
                // back to an anonymous array at the literal base.
                if let Expr::Bin(Op::Add, idx, base) = addr {
                    if let Expr::Const(b) = **base {
                        if let Some((name, _)) = arrays.iter().find(|(_, v)| **v == b) {
                            let _ = writeln!(
                                out,
                                "{name}[{}] = {};",
                                unparse_expr(arrays, idx),
                                unparse_expr(arrays, value)
                            );
                            continue;
                        }
                    }
                    let _ = idx;
                }
                // No matching array: synthesize one is impossible here,
                // so print through a zero-based anonymous array access.
                let _ = writeln!(
                    out,
                    "__mem[{}] = {};",
                    unparse_expr(arrays, addr),
                    unparse_expr(arrays, value)
                );
            }
            Stmt::If {
                cond,
                then_arm,
                else_arm,
            } => {
                let _ = writeln!(out, "if ({}) {{", unparse_expr(arrays, cond));
                unparse_stmts(out, arrays, then_arm, level + 1);
                if else_arm.is_empty() {
                    indent(out, level);
                    out.push_str("}\n");
                } else {
                    indent(out, level);
                    out.push_str("} else {\n");
                    unparse_stmts(out, arrays, else_arm, level + 1);
                    indent(out, level);
                    out.push_str("}\n");
                }
            }
        }
    }
}

fn op_symbol(op: Op) -> &'static str {
    match op {
        Op::Add => "+",
        Op::Sub => "-",
        Op::Mul => "*",
        Op::And => "&",
        Op::Or => "|",
        Op::Xor => "^",
        Op::Sll => "<<",
        Op::Srl => ">>",
        Op::Eq => "==",
        Op::Ne => "!=",
        Op::Gt => ">",
        Op::Geq => ">=",
        Op::Lt => "<",
        Op::Leq => "<=",
        other => panic!("op {other} has no surface syntax"),
    }
}

fn unparse_expr(arrays: &HashMap<String, u32>, e: &Expr) -> String {
    match e {
        Expr::Var(v) => v.clone(),
        Expr::Const(c) => c.to_string(),
        Expr::Load(addr) => {
            if let Expr::Bin(Op::Add, idx, base) = &**addr {
                if let Expr::Const(b) = **base {
                    if let Some((name, _)) = arrays.iter().find(|(_, v)| **v == b) {
                        return format!("{name}[{}]", unparse_expr(arrays, idx));
                    }
                }
            }
            format!("__mem[{}]", unparse_expr(arrays, addr))
        }
        Expr::Bin(op, a, b) => format!(
            "({} {} {})",
            unparse_expr(arrays, a),
            op_symbol(*op),
            unparse_expr(arrays, b)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::lower;

    const DITHER_SRC: &str = "
        array src @ 16;
        array dst @ 96;
        for i in 0..64 carry (err = 0) {
            let out = src[i] + err;
            if (out > 127) {
                dst[i] = 255;
                err = out - 255;
            } else {
                dst[i] = 0;
                err = out;
            }
        }
    ";

    #[test]
    fn parses_dither() {
        let p = parse(DITHER_SRC).unwrap();
        assert_eq!(p.arrays["src"], 16);
        assert_eq!(p.nest.trip_count, 64);
        assert_eq!(p.nest.carried.len(), 1);
        assert_eq!(p.nest.body.len(), 2);
    }

    #[test]
    fn parsed_dither_computes_correctly() {
        use uecgra_clock::VfMode;
        use uecgra_model::{DfgSimulator, SimConfig, StopReason};

        // The textual dither must produce the same memory as the
        // hand-built kernel's reference, over the same layout (dst at
        // dither::dst_base(64) = 96).
        let k = uecgra_dfg::kernels::dither::build_with_pixels(64);
        assert_eq!(uecgra_dfg::kernels::dither::dst_base(64), 96);
        let p = parse(DITHER_SRC).unwrap();
        let lowered = lower(&p.nest).unwrap();
        let config = SimConfig {
            marker: Some(lowered.induction_phi),
            ..SimConfig::default()
        };
        let modes = vec![VfMode::Nominal; lowered.dfg.node_count()];
        let r = DfgSimulator::new(&lowered.dfg, modes, k.mem.clone(), config).run();
        assert_eq!(r.stop, StopReason::Quiesced);
        assert_eq!(r.mem, k.reference_memory());
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("for i in 0..2 { let x = i + i * 3; }").unwrap();
        let Stmt::Assign(_, e) = &p.nest.body[0] else {
            panic!("assign expected")
        };
        // i + (i * 3)
        match e {
            Expr::Bin(Op::Add, _, rhs) => {
                assert!(matches!(**rhs, Expr::Bin(Op::Mul, _, _)));
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn shifts_masks_and_hex() {
        let p = parse(
            "array s @ 64;
             for i in 0..4 carry (l = 0x1234) {
                 let a = (l >> 24) & 0xFF;
                 l = s[a] ^ l;
             }",
        )
        .unwrap();
        assert_eq!(p.nest.carried[0].init, 0x1234);
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("for i in 0..4 { let x = ; }").unwrap_err();
        assert!(err.message.contains("expected expression"), "{err}");
        assert!(err.offset > 0);

        let err = parse("for i in 0..4 { dst[i] = 1; }").unwrap_err();
        assert!(err.message.contains("undeclared array"), "{err}");

        let err = parse("for i in 3..4 { }").unwrap_err();
        assert!(err.message.contains("start at 0"), "{err}");

        let err = parse("for i in 0..4 { x = ghost; }").unwrap_err();
        assert!(err.message.contains("read before definition"), "{err}");
    }

    #[test]
    fn expression_depth_is_capped() {
        let parens = |n: usize| {
            let e = format!("{}i{}", "(".repeat(n), ")".repeat(n));
            parse(&format!("for i in 0..4 {{ let x = {e}; }}"))
        };
        // Each pair of parentheses is a level, and so is the leaf.
        assert!(parens(MAX_EXPR_DEPTH - 1).is_ok());
        let err = parens(MAX_EXPR_DEPTH).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        assert!(err.offset > 24, "{err}");

        // A left-deep chain of n terms is n levels deep.
        let chain = |n: usize| {
            let e = "i".to_string() + &" + 1".repeat(n - 1);
            parse(&format!("for i in 0..4 {{ let x = {e}; }}"))
        };
        assert!(chain(MAX_EXPR_DEPTH).is_ok());
        let err = chain(MAX_EXPR_DEPTH + 1).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");

        // Far past the cap fails the same way instead of overflowing
        // the stack.
        assert!(parens(100_000).is_err());
        assert!(chain(100_000).is_err());
        let err = parse(&format!(
            "for i in 0..4 {{ x = {}i]; }}",
            "a[".repeat(100_000)
        ));
        assert!(err.unwrap_err().message.contains("nests deeper"));
    }

    #[test]
    fn nested_if_is_rejected_where_it_starts() {
        let src = "for i in 0..4 { if (i > 0) { if (i > 1) { } } }";
        let err = parse(src).unwrap_err();
        assert_eq!(err.offset, src.find("if (i > 1)").unwrap());
        assert_eq!(err.message, IrError::NestedIf.to_string());
        let deep = format!(
            "for i in 0..4 {{ {}{} }}",
            "if (i > 0) { ".repeat(100_000),
            "}".repeat(100_000)
        );
        assert_eq!(parse(&deep).unwrap_err().offset, 29);
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let p = parse(
            "// leading comment\n
             for i in 0..2 { // trailing\n let x = i; }",
        )
        .unwrap();
        assert_eq!(p.nest.body.len(), 1);
    }

    #[test]
    fn multiple_carried_scalars() {
        let p = parse("for i in 0..8 carry (a = 1, b = 2) { a = a + b; b = b + 1; }").unwrap();
        assert_eq!(p.nest.carried.len(), 2);
    }
}
