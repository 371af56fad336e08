//! Combinational expression AST.
//!
//! Expressions are the right-hand sides of register updates and the guards
//! that enable them. They model the combinational logic of an RTL design:
//! pure functions of the current register values and the fields of the
//! input token at the head of the job's stream.
//!
//! All values are `u64` with wrap-around arithmetic; registers declare a bit
//! width and mask their stored value on write, mirroring hardware registers.

use crate::module::{InputId, RegId};

/// Binary operators available to combinational logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Integer division; division by zero yields zero (hardware convention).
    Div,
    /// Remainder; modulo by zero yields zero.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amounts >= 64 yield zero).
    Shl,
    /// Logical shift right (shift amounts >= 64 yield zero).
    Shr,
    /// Unsigned less-than comparison; yields 0 or 1.
    Lt,
    /// Unsigned less-or-equal comparison; yields 0 or 1.
    Le,
    /// Equality comparison; yields 0 or 1.
    Eq,
    /// Inequality comparison; yields 0 or 1.
    Ne,
    /// Minimum of the operands.
    Min,
    /// Maximum of the operands.
    Max,
}

impl BinOp {
    /// Applies the operator to two values.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => a.checked_div(b).unwrap_or(0),
            BinOp::Rem => a.checked_rem(b).unwrap_or(0),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => {
                if b >= 64 {
                    0
                } else {
                    a << b
                }
            }
            BinOp::Shr => {
                if b >= 64 {
                    0
                } else {
                    a >> b
                }
            }
            BinOp::Lt => u64::from(a < b),
            BinOp::Le => u64::from(a <= b),
            BinOp::Eq => u64::from(a == b),
            BinOp::Ne => u64::from(a != b),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// Returns a short mnemonic used by the pretty printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// Unary operators available to combinational logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise NOT.
    Not,
    /// Logical negation: 1 if the operand is zero, else 0.
    IsZero,
    /// Logical truth: 1 if the operand is non-zero, else 0.
    IsNonZero,
}

impl UnOp {
    /// Applies the operator to a value.
    #[inline]
    pub fn apply(self, a: u64) -> u64 {
        match self {
            UnOp::Not => !a,
            UnOp::IsZero => u64::from(a == 0),
            UnOp::IsNonZero => u64::from(a != 0),
        }
    }
}

/// A combinational expression tree.
///
/// `Expr` values are built with [`crate::builder::E`], the ergonomic wrapper
/// that provides operator overloading; this enum is the canonical
/// representation consumed by the interpreter and the static analyses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant literal.
    Const(u64),
    /// The current value of a register.
    Reg(RegId),
    /// A field of the input token currently at the head of the stream.
    ///
    /// Reading past the end of the stream yields zero, modelling a FIFO
    /// whose `empty` flag gates meaningful use.
    Input(InputId),
    /// 1 when the input stream has no more tokens, else 0.
    StreamEmpty,
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operation.
    Un(UnOp, Box<Expr>),
    /// A two-way multiplexer: `cond != 0 ? then : otherwise`.
    Mux(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Collects every register read by this expression into `out`.
    pub fn collect_regs(&self, out: &mut Vec<RegId>) {
        match self {
            Expr::Const(_) | Expr::Input(_) | Expr::StreamEmpty => {}
            Expr::Reg(r) => out.push(*r),
            Expr::Bin(_, a, b) => {
                a.collect_regs(out);
                b.collect_regs(out);
            }
            Expr::Un(_, a) => a.collect_regs(out),
            Expr::Mux(c, t, e) => {
                c.collect_regs(out);
                t.collect_regs(out);
                e.collect_regs(out);
            }
        }
    }

    /// Collects every input field read by this expression into `out`.
    pub fn collect_inputs(&self, out: &mut Vec<InputId>) {
        match self {
            Expr::Const(_) | Expr::Reg(_) | Expr::StreamEmpty => {}
            Expr::Input(i) => out.push(*i),
            Expr::Bin(_, a, b) => {
                a.collect_inputs(out);
                b.collect_inputs(out);
            }
            Expr::Un(_, a) => a.collect_inputs(out),
            Expr::Mux(c, t, e) => {
                c.collect_inputs(out);
                t.collect_inputs(out);
                e.collect_inputs(out);
            }
        }
    }

    /// Returns true if this expression reads register `reg`.
    pub fn reads_reg(&self, reg: RegId) -> bool {
        match self {
            Expr::Const(_) | Expr::Input(_) | Expr::StreamEmpty => false,
            Expr::Reg(r) => *r == reg,
            Expr::Bin(_, a, b) => a.reads_reg(reg) || b.reads_reg(reg),
            Expr::Un(_, a) => a.reads_reg(reg),
            Expr::Mux(c, t, e) => c.reads_reg(reg) || t.reads_reg(reg) || e.reads_reg(reg),
        }
    }

    /// Returns true if this expression reads any register at all.
    pub fn reads_any_reg(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Input(_) | Expr::StreamEmpty => false,
            Expr::Reg(_) => true,
            Expr::Bin(_, a, b) => a.reads_any_reg() || b.reads_any_reg(),
            Expr::Un(_, a) => a.reads_any_reg(),
            Expr::Mux(c, t, e) => c.reads_any_reg() || t.reads_any_reg() || e.reads_any_reg(),
        }
    }

    /// Returns true if this expression reads any input field or the
    /// stream-empty flag.
    pub fn reads_stream(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Reg(_) => false,
            Expr::Input(_) | Expr::StreamEmpty => true,
            Expr::Bin(_, a, b) => a.reads_stream() || b.reads_stream(),
            Expr::Un(_, a) => a.reads_stream(),
            Expr::Mux(c, t, e) => c.reads_stream() || t.reads_stream() || e.reads_stream(),
        }
    }

    /// Counts the operator nodes in the tree (used by the area model).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Reg(_) | Expr::Input(_) | Expr::StreamEmpty => 0,
            Expr::Bin(_, a, b) => 1 + a.op_count() + b.op_count(),
            Expr::Un(_, a) => 1 + a.op_count(),
            Expr::Mux(c, t, e) => 1 + c.op_count() + t.op_count() + e.op_count(),
        }
    }

    /// Counts *variable* multiplier nodes (mapped to DSP blocks by the
    /// FPGA model). A multiply by a constant is strength-reduced to
    /// shift-add LUT logic by synthesis, so it does not count.
    pub fn mul_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Reg(_) | Expr::Input(_) | Expr::StreamEmpty => 0,
            Expr::Bin(op, a, b) => {
                let hard = matches!(op, BinOp::Mul)
                    && !matches!(a.as_ref(), Expr::Const(_))
                    && !matches!(b.as_ref(), Expr::Const(_));
                usize::from(hard) + a.mul_count() + b.mul_count()
            }
            Expr::Un(_, a) => a.mul_count(),
            Expr::Mux(c, t, e) => c.mul_count() + t.mul_count() + e.mul_count(),
        }
    }

    /// Decomposes a guard into its top-level conjuncts.
    ///
    /// RTL guards are written as chains of `&` over boolean sub-terms; the
    /// FSM and wait-state analyses inspect those conjuncts to recognise
    /// `state == K` constraints.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.push_conjuncts(&mut out);
        out
    }

    fn push_conjuncts<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        if let Expr::Bin(BinOp::And, a, b) = self {
            a.push_conjuncts(out);
            b.push_conjuncts(out);
        } else {
            out.push(self);
        }
    }

    /// If this expression is exactly `reg == constant`, returns the pair.
    pub fn as_reg_eq_const(&self) -> Option<(RegId, u64)> {
        if let Expr::Bin(BinOp::Eq, a, b) = self {
            match (a.as_ref(), b.as_ref()) {
                (Expr::Reg(r), Expr::Const(k)) | (Expr::Const(k), Expr::Reg(r)) => {
                    return Some((*r, *k));
                }
                _ => {}
            }
        }
        None
    }

    /// If this expression is `reg +/- constant` (a counter step), returns
    /// the register and the signed step.
    pub fn as_self_step(&self, reg: RegId) -> Option<i64> {
        if let Expr::Bin(op, a, b) = self {
            if let (Expr::Reg(r), Expr::Const(k)) = (a.as_ref(), b.as_ref()) {
                if *r == reg {
                    match op {
                        BinOp::Add => return i64::try_from(*k).ok(),
                        BinOp::Sub => return i64::try_from(*k).ok().map(|v| -v),
                        _ => {}
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_arithmetic_semantics() {
        assert_eq!(BinOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(BinOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(BinOp::Div.apply(7, 0), 0);
        assert_eq!(BinOp::Rem.apply(7, 0), 0);
        assert_eq!(BinOp::Shl.apply(1, 64), 0);
        assert_eq!(BinOp::Shr.apply(u64::MAX, 64), 0);
        assert_eq!(BinOp::Min.apply(3, 9), 3);
        assert_eq!(BinOp::Max.apply(3, 9), 9);
    }

    #[test]
    fn binop_comparisons_yield_bits() {
        assert_eq!(BinOp::Lt.apply(1, 2), 1);
        assert_eq!(BinOp::Lt.apply(2, 2), 0);
        assert_eq!(BinOp::Le.apply(2, 2), 1);
        assert_eq!(BinOp::Eq.apply(5, 5), 1);
        assert_eq!(BinOp::Ne.apply(5, 5), 0);
    }

    #[test]
    fn unop_semantics() {
        assert_eq!(UnOp::Not.apply(0), u64::MAX);
        assert_eq!(UnOp::IsZero.apply(0), 1);
        assert_eq!(UnOp::IsZero.apply(3), 0);
        assert_eq!(UnOp::IsNonZero.apply(3), 1);
    }

    #[test]
    fn conjunct_decomposition() {
        let r = RegId::new(0);
        let a = Expr::Bin(BinOp::Eq, Box::new(Expr::Reg(r)), Box::new(Expr::Const(2)));
        let b = Expr::Bin(
            BinOp::Lt,
            Box::new(Expr::Input(InputId::new(0))),
            Box::new(Expr::Const(9)),
        );
        let both = Expr::Bin(BinOp::And, Box::new(a.clone()), Box::new(b.clone()));
        let cs = both.conjuncts();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].as_reg_eq_const(), Some((r, 2)));
        assert!(cs[1].as_reg_eq_const().is_none());
    }

    #[test]
    fn self_step_detection() {
        let r = RegId::new(3);
        let dec = Expr::Bin(BinOp::Sub, Box::new(Expr::Reg(r)), Box::new(Expr::Const(1)));
        assert_eq!(dec.as_self_step(r), Some(-1));
        assert_eq!(dec.as_self_step(RegId::new(4)), None);
        let inc = Expr::Bin(BinOp::Add, Box::new(Expr::Reg(r)), Box::new(Expr::Const(2)));
        assert_eq!(inc.as_self_step(r), Some(2));
    }

    #[test]
    fn dependency_collection() {
        let e = Expr::Mux(
            Box::new(Expr::Reg(RegId::new(1))),
            Box::new(Expr::Input(InputId::new(2))),
            Box::new(Expr::StreamEmpty),
        );
        let mut regs = Vec::new();
        e.collect_regs(&mut regs);
        assert_eq!(regs, vec![RegId::new(1)]);
        let mut ins = Vec::new();
        e.collect_inputs(&mut ins);
        assert_eq!(ins, vec![InputId::new(2)]);
        assert!(e.reads_stream());
        assert!(e.reads_reg(RegId::new(1)));
        assert!(!e.reads_reg(RegId::new(0)));
    }

    #[test]
    fn op_counting() {
        let r = RegId::new(0);
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Reg(r)),
                Box::new(Expr::Const(1)),
            )),
            Box::new(Expr::Const(3)),
        );
        assert_eq!(e.op_count(), 2);
        // Constant multiply is strength-reduced: no DSP.
        assert_eq!(e.mul_count(), 0);
        let hard = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Reg(r)),
            Box::new(Expr::Input(InputId::new(0))),
        );
        assert_eq!(hard.mul_count(), 1);
    }
}
