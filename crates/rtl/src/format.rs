//! Textual serialization of [`Module`]s — the repository's "RTL" format.
//!
//! The paper's flow consumes Verilog; this substrate's designs are plain
//! data, so they get a concrete syntax that can be pretty-printed, stored,
//! diffed, and parsed back. Round-tripping is lossless (checked by
//! property tests).
//!
//! ```text
//! module toy {
//!   input dur: 16;
//!   reg ctrl.state: 2 = 0 {
//!     1 when (ctrl.state == 0) & !$empty;
//!     2 when (ctrl.state == 1) & (cnt == 0);
//!   }
//!   reg cnt: 32 = 0 {
//!     $dur when (ctrl.state == 0) & !$empty;
//!     cnt - 1 when (ctrl.state == 1) & (0 < cnt);
//!   }
//!   datapath alu compute area=100 energy=1 luts=50 dsps=0 active=(ctrl.state == 1);
//!   memory spm bytes=4096 control=false;
//!   advance (ctrl.state == 2);
//!   done (ctrl.state == 0) & $empty;
//! }
//! ```
//!
//! Inputs are referenced as `$name`, the stream-empty flag as `$empty`,
//! registers by their (dotted) name. `!x` is the is-zero test, `~x`
//! bitwise NOT, and `mux(c, a, b)`, `min(a, b)`, `max(a, b)` are written
//! as calls.

use std::collections::HashMap;
use std::error::Error;
use std::fmt::Write as _;

use crate::expr::{BinOp, Expr, UnOp};
use crate::module::{
    Datapath, DatapathKind, InputField, Memory, Module, RegId, Register, UpdateRule,
};

/// A parse failure with line/column context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl Error for ParseError {}

// ---------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------

/// Renders a module in the textual RTL format.
pub fn to_text(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module {} {{", module.name);
    for i in &module.inputs {
        let _ = writeln!(out, "  input {}: {};", i.name, i.width);
    }
    for r in &module.regs {
        let _ = writeln!(out, "  reg {}: {} = {} {{", r.name, r.width, r.init);
        for rule in &r.rules {
            let _ = writeln!(
                out,
                "    {} when {};",
                expr_text(&rule.value, module),
                expr_text(&rule.guard, module)
            );
        }
        let _ = writeln!(out, "  }}");
    }
    for d in &module.datapaths {
        let kind = match d.kind {
            DatapathKind::Compute => "compute",
            DatapathKind::Serial => "serial",
        };
        let _ = writeln!(
            out,
            "  datapath {} {kind} area={} energy={} luts={} dsps={} active=({});",
            d.name,
            d.area_um2,
            d.energy_per_cycle,
            d.luts,
            d.dsps,
            expr_text(&d.active, module)
        );
    }
    for m in &module.memories {
        let _ = writeln!(
            out,
            "  memory {} bytes={} control={};",
            m.name, m.bytes, m.control
        );
    }
    let _ = writeln!(out, "  advance {};", expr_text(&module.advance, module));
    let _ = writeln!(out, "  done {};", expr_text(&module.done, module));
    let _ = writeln!(out, "}}");
    out
}

pub(crate) fn expr_text(e: &Expr, m: &Module) -> String {
    match e {
        Expr::Const(k) => k.to_string(),
        Expr::Reg(r) => m.regs[r.index()].name.clone(),
        Expr::Input(i) => format!("${}", m.inputs[i.index()].name),
        Expr::StreamEmpty => "$empty".into(),
        Expr::Bin(BinOp::Min, a, b) => {
            format!("min({}, {})", expr_text(a, m), expr_text(b, m))
        }
        Expr::Bin(BinOp::Max, a, b) => {
            format!("max({}, {})", expr_text(a, m), expr_text(b, m))
        }
        Expr::Bin(op, a, b) => format!(
            "({} {} {})",
            expr_text(a, m),
            op.mnemonic(),
            expr_text(b, m)
        ),
        Expr::Un(UnOp::Not, a) => format!("~{}", expr_text(a, m)),
        Expr::Un(UnOp::IsZero, a) => format!("!{}", expr_text(a, m)),
        Expr::Un(UnOp::IsNonZero, a) => format!("!!{}", expr_text(a, m)),
        Expr::Mux(c, t, f) => format!(
            "mux({}, {}, {})",
            expr_text(c, m),
            expr_text(t, m),
            expr_text(f, m)
        ),
    }
}

// ---------------------------------------------------------------------
// Lexing
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Dollar(String),
    Number(u64),
    Float(String),
    Punct(&'static str),
    Eof,
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
    column: usize,
}

const PUNCTS: &[&str] = &[
    "<<", ">>", "<=", ">=", "==", "!=", "!!", "{", "}", "(", ")", ";", ":", "=", ",", "+", "-",
    "*", "/", "%", "&", "|", "^", "<", ">", "!", "~",
];

fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        if c == '#' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start_col = col;
        if c == '$' {
            let mut j = i + 1;
            while j < bytes.len()
                && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_' || bytes[j] == b'.')
            {
                j += 1;
            }
            let name = &src[i + 1..j];
            if name.is_empty() {
                return Err(ParseError {
                    message: "expected name after `$`".into(),
                    line,
                    column: start_col,
                });
            }
            out.push(Token {
                tok: Tok::Dollar(name.to_owned()),
                line,
                column: start_col,
            });
            col += j - i;
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            // Fractional part makes it a float token.
            if j + 1 < bytes.len() && bytes[j] == b'.' && bytes[j + 1].is_ascii_digit() {
                j += 1;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                out.push(Token {
                    tok: Tok::Float(src[i..j].to_owned()),
                    line,
                    column: start_col,
                });
            } else {
                let n: u64 = src[i..j].parse().map_err(|_| ParseError {
                    message: "number too large".into(),
                    line,
                    column: start_col,
                })?;
                out.push(Token {
                    tok: Tok::Number(n),
                    line,
                    column: start_col,
                });
            }
            col += j - i;
            i = j;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i;
            while j < bytes.len()
                && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_' || bytes[j] == b'.')
            {
                j += 1;
            }
            out.push(Token {
                tok: Tok::Ident(src[i..j].to_owned()),
                line,
                column: start_col,
            });
            col += j - i;
            i = j;
            continue;
        }
        for p in PUNCTS {
            if src[i..].starts_with(p) {
                out.push(Token {
                    tok: Tok::Punct(p),
                    line,
                    column: start_col,
                });
                i += p.len();
                col += p.len();
                continue 'outer;
            }
        }
        return Err(ParseError {
            message: format!("unexpected character `{c}`"),
            line,
            column: start_col,
        });
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
        column: col,
    });
    Ok(out)
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    inputs: Vec<InputField>,
    input_ids: HashMap<String, usize>,
    /// Register name -> id, assigned on first sight so forward references
    /// work; bodies are resolved in a second pass.
    reg_ids: HashMap<String, usize>,
    reg_order: Vec<String>,
}

/// Unresolved expression: register references by name.
#[derive(Debug, Clone)]
enum PExpr {
    Const(u64),
    Name(String),
    Input(usize),
    StreamEmpty,
    Bin(BinOp, Box<PExpr>, Box<PExpr>),
    Un(UnOp, Box<PExpr>),
    Mux(Box<PExpr>, Box<PExpr>, Box<PExpr>),
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn here(&self) -> (usize, usize) {
        (self.toks[self.pos].line, self.toks[self.pos].column)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, column) = self.here();
        ParseError {
            message: message.into(),
            line,
            column,
        }
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.bump() {
            Tok::Punct(q) if q == p => Ok(()),
            other => Err(ParseError {
                message: format!("expected `{p}`, found {other:?}"),
                line: self.toks[self.pos.saturating_sub(1)].line,
                column: self.toks[self.pos.saturating_sub(1)].column,
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError {
                message: format!("expected identifier, found {other:?}"),
                line: self.toks[self.pos.saturating_sub(1)].line,
                column: self.toks[self.pos.saturating_sub(1)].column,
            }),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let id = self.expect_ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found `{id}`")))
        }
    }

    fn expect_number(&mut self) -> Result<u64, ParseError> {
        match self.bump() {
            Tok::Number(n) => Ok(n),
            other => Err(ParseError {
                message: format!("expected number, found {other:?}"),
                line: self.toks[self.pos.saturating_sub(1)].line,
                column: self.toks[self.pos.saturating_sub(1)].column,
            }),
        }
    }

    /// Parses a number that must fit in 32 bits (a width or a resource
    /// count): a larger value is an error, never a silent truncation.
    fn expect_u32(&mut self, what: &str) -> Result<u32, ParseError> {
        let (line, column) = self.here();
        let n = self.expect_number()?;
        u32::try_from(n).map_err(|_| ParseError {
            message: format!("{what} {n} does not fit in 32 bits"),
            line,
            column,
        })
    }

    /// Parses a float written as `int` or `int.frac`.
    fn expect_float(&mut self) -> Result<f64, ParseError> {
        match self.bump() {
            Tok::Number(n) => Ok(n as f64),
            Tok::Float(s) => s.parse().map_err(|_| ParseError {
                message: format!("bad float `{s}`"),
                line: self.toks[self.pos.saturating_sub(1)].line,
                column: self.toks[self.pos.saturating_sub(1)].column,
            }),
            other => Err(ParseError {
                message: format!("expected number, found {other:?}"),
                line: self.toks[self.pos.saturating_sub(1)].line,
                column: self.toks[self.pos.saturating_sub(1)].column,
            }),
        }
    }

    fn reg_id_of(&mut self, name: &str) -> usize {
        if let Some(&i) = self.reg_ids.get(name) {
            return i;
        }
        let id = self.reg_order.len();
        self.reg_ids.insert(name.to_owned(), id);
        self.reg_order.push(name.to_owned());
        id
    }

    // expression parsing: precedence climbing
    fn parse_expr(&mut self) -> Result<PExpr, ParseError> {
        self.parse_bin(0)
    }

    fn parse_bin(&mut self, min_prec: u8) -> Result<PExpr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::Punct("|") => (BinOp::Or, 1),
                Tok::Punct("^") => (BinOp::Xor, 2),
                Tok::Punct("&") => (BinOp::And, 3),
                Tok::Punct("==") => (BinOp::Eq, 4),
                Tok::Punct("!=") => (BinOp::Ne, 4),
                Tok::Punct("<") => (BinOp::Lt, 5),
                Tok::Punct("<=") => (BinOp::Le, 5),
                Tok::Punct("<<") => (BinOp::Shl, 6),
                Tok::Punct(">>") => (BinOp::Shr, 6),
                Tok::Punct("+") => (BinOp::Add, 7),
                Tok::Punct("-") => (BinOp::Sub, 7),
                Tok::Punct("*") => (BinOp::Mul, 8),
                Tok::Punct("/") => (BinOp::Div, 8),
                Tok::Punct("%") => (BinOp::Rem, 8),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_bin(prec + 1)?;
            lhs = PExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<PExpr, ParseError> {
        match self.peek().clone() {
            Tok::Punct("!!") => {
                self.bump();
                Ok(PExpr::Un(UnOp::IsNonZero, Box::new(self.parse_unary()?)))
            }
            Tok::Punct("!") => {
                self.bump();
                Ok(PExpr::Un(UnOp::IsZero, Box::new(self.parse_unary()?)))
            }
            Tok::Punct("~") => {
                self.bump();
                Ok(PExpr::Un(UnOp::Not, Box::new(self.parse_unary()?)))
            }
            _ => self.parse_atom(),
        }
    }

    fn parse_atom(&mut self) -> Result<PExpr, ParseError> {
        match self.bump() {
            Tok::Number(n) => Ok(PExpr::Const(n)),
            Tok::Dollar(name) => {
                if name == "empty" {
                    Ok(PExpr::StreamEmpty)
                } else if let Some(&i) = self.input_ids.get(&name) {
                    Ok(PExpr::Input(i))
                } else {
                    Err(self.err(format!("unknown input `${name}`")))
                }
            }
            Tok::Punct("(") => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) if name == "mux" || name == "min" || name == "max" => {
                self.expect_punct("(")?;
                let a = self.parse_expr()?;
                self.expect_punct(",")?;
                let b = self.parse_expr()?;
                let e = if name == "mux" {
                    self.expect_punct(",")?;
                    let c = self.parse_expr()?;
                    self.expect_punct(")")?;
                    PExpr::Mux(Box::new(a), Box::new(b), Box::new(c))
                } else {
                    self.expect_punct(")")?;
                    let op = if name == "min" {
                        BinOp::Min
                    } else {
                        BinOp::Max
                    };
                    PExpr::Bin(op, Box::new(a), Box::new(b))
                };
                Ok(e)
            }
            Tok::Ident(name) => Ok(PExpr::Name(name)),
            other => Err(ParseError {
                message: format!("expected expression, found {other:?}"),
                line: self.toks[self.pos.saturating_sub(1)].line,
                column: self.toks[self.pos.saturating_sub(1)].column,
            }),
        }
    }

    fn resolve(&self, e: &PExpr) -> Result<Expr, ParseError> {
        Ok(match e {
            PExpr::Const(k) => Expr::Const(*k),
            PExpr::Input(i) => Expr::Input(crate::module::InputId::new(*i)),
            PExpr::StreamEmpty => Expr::StreamEmpty,
            PExpr::Name(n) => {
                let id = self.reg_ids.get(n).ok_or_else(|| ParseError {
                    message: format!("unknown register `{n}`"),
                    line: 0,
                    column: 0,
                })?;
                Expr::Reg(RegId::new(*id))
            }
            PExpr::Bin(op, a, b) => {
                Expr::Bin(*op, Box::new(self.resolve(a)?), Box::new(self.resolve(b)?))
            }
            PExpr::Un(op, a) => Expr::Un(*op, Box::new(self.resolve(a)?)),
            PExpr::Mux(c, t, f) => Expr::Mux(
                Box::new(self.resolve(c)?),
                Box::new(self.resolve(t)?),
                Box::new(self.resolve(f)?),
            ),
        })
    }
}

/// Parses a module from its textual form.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input and propagates the module
/// validation error (wrapped in a [`ParseError`]) when the parsed design
/// is structurally inconsistent.
pub fn from_text(src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        inputs: Vec::new(),
        input_ids: HashMap::new(),
        reg_ids: HashMap::new(),
        reg_order: Vec::new(),
    };
    p.expect_keyword("module")?;
    let name = p.expect_ident()?;
    p.expect_punct("{")?;

    struct RawReg {
        name: String,
        width: u32,
        init: u64,
        rules: Vec<(PExpr, PExpr)>,
    }
    let mut raw_regs: Vec<RawReg> = Vec::new();
    let mut datapaths = Vec::new();
    let mut memories = Vec::new();
    let mut advance = PExpr::Const(0);
    let mut done = PExpr::Const(0);

    loop {
        match p.peek().clone() {
            Tok::Punct("}") => {
                p.bump();
                break;
            }
            Tok::Ident(kw) if kw == "input" => {
                p.bump();
                let iname = p.expect_ident()?;
                p.expect_punct(":")?;
                let width = p.expect_u32("input width")?;
                p.expect_punct(";")?;
                p.input_ids.insert(iname.clone(), p.inputs.len());
                p.inputs.push(InputField { name: iname, width });
            }
            Tok::Ident(kw) if kw == "reg" => {
                p.bump();
                let rname = p.expect_ident()?;
                p.reg_id_of(&rname);
                p.expect_punct(":")?;
                let width = p.expect_u32("register width")?;
                p.expect_punct("=")?;
                let init = p.expect_number()?;
                p.expect_punct("{")?;
                let mut rules = Vec::new();
                while p.peek() != &Tok::Punct("}") {
                    let value = p.parse_expr()?;
                    p.expect_keyword("when")?;
                    let guard = p.parse_expr()?;
                    p.expect_punct(";")?;
                    rules.push((value, guard));
                }
                p.expect_punct("}")?;
                raw_regs.push(RawReg {
                    name: rname,
                    width,
                    init,
                    rules,
                });
            }
            Tok::Ident(kw) if kw == "datapath" => {
                p.bump();
                let dname = p.expect_ident()?;
                let kind = match p.expect_ident()?.as_str() {
                    "compute" => DatapathKind::Compute,
                    "serial" => DatapathKind::Serial,
                    other => return Err(p.err(format!("unknown datapath kind `{other}`"))),
                };
                p.expect_keyword("area")?;
                p.expect_punct("=")?;
                let area_um2 = p.expect_float()?;
                p.expect_keyword("energy")?;
                p.expect_punct("=")?;
                let energy_per_cycle = p.expect_float()?;
                p.expect_keyword("luts")?;
                p.expect_punct("=")?;
                let luts = p.expect_u32("luts")?;
                p.expect_keyword("dsps")?;
                p.expect_punct("=")?;
                let dsps = p.expect_u32("dsps")?;
                p.expect_keyword("active")?;
                p.expect_punct("=")?;
                p.expect_punct("(")?;
                let active = p.parse_expr()?;
                p.expect_punct(")")?;
                p.expect_punct(";")?;
                datapaths.push((dname, kind, area_um2, energy_per_cycle, luts, dsps, active));
            }
            Tok::Ident(kw) if kw == "memory" => {
                p.bump();
                let mname = p.expect_ident()?;
                p.expect_keyword("bytes")?;
                p.expect_punct("=")?;
                let bytes = p.expect_number()?;
                p.expect_keyword("control")?;
                p.expect_punct("=")?;
                let control = match p.expect_ident()?.as_str() {
                    "true" => true,
                    "false" => false,
                    other => return Err(p.err(format!("expected bool, found `{other}`"))),
                };
                p.expect_punct(";")?;
                memories.push(Memory {
                    name: mname,
                    bytes,
                    control,
                });
            }
            Tok::Ident(kw) if kw == "advance" => {
                p.bump();
                advance = p.parse_expr()?;
                p.expect_punct(";")?;
            }
            Tok::Ident(kw) if kw == "done" => {
                p.bump();
                done = p.parse_expr()?;
                p.expect_punct(";")?;
            }
            other => return Err(p.err(format!("unexpected item {other:?}"))),
        }
    }

    // Resolve register references now that all names are known.
    let mut regs: Vec<Register> = Vec::new();
    // Order registers by first-declaration order (RawReg order), but ids
    // were assigned on first *sight* (which may be a forward reference in
    // an expression). Build in id order.
    let mut by_name: HashMap<String, RawReg> =
        raw_regs.into_iter().map(|r| (r.name.clone(), r)).collect();
    for rname in p.reg_order.clone() {
        let raw = by_name.remove(&rname).ok_or_else(|| ParseError {
            message: format!("register `{rname}` referenced but never declared"),
            line: 0,
            column: 0,
        })?;
        let rules = raw
            .rules
            .iter()
            .map(|(v, g)| {
                Ok(UpdateRule {
                    guard: p.resolve(g)?,
                    value: p.resolve(v)?,
                })
            })
            .collect::<Result<Vec<_>, ParseError>>()?;
        regs.push(Register {
            name: raw.name,
            width: raw.width,
            init: raw.init,
            rules,
        });
    }
    let datapaths = datapaths
        .into_iter()
        .map(
            |(dname, kind, area_um2, energy_per_cycle, luts, dsps, active)| {
                Ok(Datapath {
                    name: dname,
                    active: p.resolve(&active)?,
                    kind,
                    area_um2,
                    energy_per_cycle,
                    luts,
                    dsps,
                })
            },
        )
        .collect::<Result<Vec<_>, ParseError>>()?;

    let module = Module {
        name,
        regs,
        datapaths,
        memories,
        inputs: p.inputs.clone(),
        advance: p.resolve(&advance)?,
        done: p.resolve(&done)?,
    };
    module.validate().map_err(|e| ParseError {
        message: format!("validation failed: {e}"),
        line: 0,
        column: 0,
    })?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ModuleBuilder, E};
    use crate::interp::{ExecMode, JobInput, Simulator};

    fn toy() -> Module {
        let mut b = ModuleBuilder::new("toy");
        let dur = b.input("dur", 16);
        let fsm = b.fsm("ctrl", &["FETCH", "RUN", "EMIT"]);
        b.timed(
            &fsm,
            "FETCH",
            "RUN",
            "EMIT",
            dur * E::k(3) + E::k(5),
            E::stream_empty().is_zero(),
            "cnt",
        );
        b.trans(&fsm, "EMIT", "FETCH", E::one());
        b.datapath_compute("alu", fsm.in_state("RUN"), 512.5, 0.9, 64, 2);
        b.memory("spm", 2048, false);
        b.advance_when(fsm.in_state("EMIT"));
        b.done_when(fsm.in_state("FETCH") & E::stream_empty());
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let m = toy();
        let text = to_text(&m);
        let back = from_text(&text).unwrap();
        assert_eq!(back.name, m.name);
        assert_eq!(back.regs.len(), m.regs.len());
        assert_eq!(back.inputs.len(), m.inputs.len());
        assert_eq!(back.datapaths.len(), m.datapaths.len());
        assert_eq!(back.memories.len(), m.memories.len());
        // The parsed module must be semantically identical: same text on
        // re-print, same simulation behaviour.
        assert_eq!(to_text(&back), text);
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let m = toy();
        let back = from_text(&to_text(&m)).unwrap();
        let mut j = JobInput::new(1);
        j.push(&[9]);
        j.push(&[0]);
        j.push(&[250]);
        let a = Simulator::new(&m)
            .run(&j, ExecMode::FastForward, None)
            .unwrap();
        let b = Simulator::new(&back)
            .run(&j, ExecMode::FastForward, None)
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.dp_active, b.dp_active);
    }

    #[test]
    fn all_benchmarks_round_trip() {
        // The format must cover every construct the shipped designs use.
        // (Benchmarks live in predvfs-accel; emulate their constructs.)
        let mut b = ModuleBuilder::new("constructs");
        let x = b.input("x", 9);
        let fsm = b.fsm("ctrl", &["A", "W", "HX", "B"]);
        let c = b.wait_state(&fsm, "W", "HX", "c");
        b.enter_wait(
            &fsm,
            "A",
            "W",
            c,
            x.clone() * E::k(2) + E::k(20),
            E::stream_empty().is_zero(),
        );
        let sh = b.reg("sh", 16, 0);
        b.set(sh, fsm.in_state("W") & c.e().eq_(E::zero()), x.clone());
        b.set(
            sh,
            fsm.in_state("HX") & sh.e().ne_(E::zero()),
            sh.e() - (sh.e() >> E::k(3)) - E::one(),
        );
        b.trans(&fsm, "HX", "B", sh.e().eq_(E::zero()));
        b.trans(&fsm, "B", "A", E::one());
        b.datapath_serial("scan", fsm.in_state("HX"), 77.0, 1.0, 12, 0);
        b.advance_when(fsm.in_state("B"));
        b.done_when(fsm.in_state("A") & E::stream_empty());
        let m = b.build().unwrap();
        let back = from_text(&to_text(&m)).unwrap();
        assert_eq!(to_text(&back), to_text(&m));
    }

    #[test]
    fn errors_carry_positions() {
        let err = from_text("module broken {\n  input x 16;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("expected `:`"));
    }

    #[test]
    fn out_of_range_integers_are_rejected_not_truncated() {
        // 4294967304 = 2^32 + 8: an `as u32` cast would read it as 8.
        let reg = "module m {\n  reg a: 4294967304 = 255 {\n  }\n  advance 0;\n  done 1;\n}";
        let err = from_text(reg).unwrap_err();
        assert_eq!((err.line, err.column), (2, 10), "{err}");
        assert!(err.message.contains("register width 4294967304"), "{err}");

        let input = "module m {\n  input x: 4294967296;\n  advance 0;\n  done 1;\n}";
        let err = from_text(input).unwrap_err();
        assert_eq!((err.line, err.column), (2, 12), "{err}");
        assert!(err.message.contains("input width"), "{err}");

        let dp = |luts: &str, dsps: &str| {
            format!(
                "module m {{\n  datapath d compute area=1 energy=1 luts={luts} dsps={dsps} \
                 active=(1);\n  advance 0;\n  done 1;\n}}"
            )
        };
        let err = from_text(&dp("4294967296", "0")).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("luts 4294967296"), "{err}");
        let err = from_text(&dp("0", "18446744073709551615")).unwrap_err();
        assert!(err.message.contains("dsps 18446744073709551615"), "{err}");
        assert!(from_text(&dp("4294967295", "4294967295")).is_ok());
    }

    #[test]
    fn unknown_register_is_rejected() {
        let src =
            "module m {\n  reg a: 8 = 0 {\n    ghost + 1 when 1;\n  }\n  advance 0;\n  done 1;\n}";
        let err = from_text(src).unwrap_err();
        assert!(err.message.contains("ghost"), "{err}");
    }

    #[test]
    fn comments_are_ignored() {
        let src = "# a comment\nmodule m { # trailing\n  advance 0;\n  done 1;\n}";
        let m = from_text(src).unwrap();
        assert_eq!(m.name, "m");
    }

    #[test]
    fn mux_min_max_round_trip() {
        let src = "module m {\n  input a: 8;\n  reg r: 8 = 0 {\n    mux($a < 3, min($a, 2), max($a, 7)) when 1;\n  }\n  advance 0;\n  done 1;\n}";
        let m = from_text(src).unwrap();
        let again = from_text(&to_text(&m)).unwrap();
        assert_eq!(to_text(&m), to_text(&again));
    }
}
