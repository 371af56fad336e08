//! Structural representation of an accelerator: registers with guarded
//! update rules, datapath blocks, memories, and the input-token schema.
//!
//! A [`Module`] is the unit everything else operates on: the interpreter
//! executes it cycle by cycle, the analyses mine it for FSMs and counters,
//! the instrumentation pass attaches probes to it, and the slicer prunes it
//! down to the feature-computing subset.

use std::collections::HashMap;
use std::fmt;

use crate::error::RtlError;
use crate::expr::Expr;

/// Identifier of a register within its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(u32);

impl RegId {
    /// Creates an id from a raw index.
    pub fn new(index: usize) -> Self {
        RegId(index as u32)
    }

    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of an input-token field within its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputId(u32);

impl InputId {
    /// Creates an id from a raw index.
    pub fn new(index: usize) -> Self {
        InputId(index as u32)
    }

    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A guarded synchronous assignment: `reg <= value when guard`.
///
/// Rules are evaluated in declaration order each cycle against the *current*
/// register values; the first rule whose guard is non-zero provides the next
/// value. If no rule fires the register holds.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRule {
    /// Enable condition.
    pub guard: Expr,
    /// Next value when enabled.
    pub value: Expr,
}

/// A hardware register.
#[derive(Debug, Clone)]
pub struct Register {
    /// Hierarchical name, e.g. `"parser.state"`.
    pub name: String,
    /// Bit width (1..=64); stored values are masked to this width.
    pub width: u32,
    /// Reset value.
    pub init: u64,
    /// Guarded update rules, in priority order.
    pub rules: Vec<UpdateRule>,
}

impl Register {
    /// Returns the mask corresponding to this register's width.
    #[inline]
    pub fn mask(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }
}

/// Classifies a datapath block for the slicer and the wait-state analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatapathKind {
    /// Pure computation (arithmetic pipelines, filters, transforms). Its
    /// latency is fully described by the counter that times it, so the
    /// slicer removes it and wait-state compression may skip it.
    Compute,
    /// Serial logic with cycle-by-cycle data dependence (entropy decoding,
    /// scan/binning passes). Its states can never be compressed: even a
    /// slice must spend the cycles, although the simulator may still
    /// fast-forward over them because nothing observable changes.
    Serial,
}

/// A datapath block: an area/energy annotation attached to an activity
/// condition.
///
/// Datapath internals are abstracted away — the paper's insight is that
/// execution time is determined by *control* decisions, with the datapath
/// contributing fixed-latency work timed by counters. What the model needs
/// from the datapath is its cost: silicon area, FPGA resources, and dynamic
/// energy per active cycle.
#[derive(Debug, Clone)]
pub struct Datapath {
    /// Hierarchical name, e.g. `"inter.interp_pipeline"`.
    pub name: String,
    /// Non-zero when the block is doing work this cycle.
    pub active: Expr,
    /// Behavioural class; see [`DatapathKind`].
    pub kind: DatapathKind,
    /// ASIC area in square micrometres.
    pub area_um2: f64,
    /// Relative dynamic energy drawn per active cycle (arbitrary unit,
    /// consistent within a module).
    pub energy_per_cycle: f64,
    /// FPGA resource usage: look-up tables.
    pub luts: u32,
    /// FPGA resource usage: DSP blocks.
    pub dsps: u32,
}

/// An internal scratchpad memory. Contents are not simulated (job data
/// arrives via the token stream, mirroring a DMA-filled scratchpad); the
/// memory contributes area, BRAM, and leakage.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Hierarchical name.
    pub name: String,
    /// Capacity in bytes.
    pub bytes: u64,
    /// True if the memory holds control metadata the slice still needs
    /// (e.g. a bitstream buffer feeding the parser).
    pub control: bool,
}

/// Declaration of one field of the input token.
#[derive(Debug, Clone)]
pub struct InputField {
    /// Field name, e.g. `"mb_type"`.
    pub name: String,
    /// Bit width of the field.
    pub width: u32,
}

/// A complete accelerator design.
#[derive(Debug, Clone)]
pub struct Module {
    /// Design name, e.g. `"h264"`.
    pub name: String,
    /// Registers, indexed by [`RegId`].
    pub regs: Vec<Register>,
    /// Datapath blocks.
    pub datapaths: Vec<Datapath>,
    /// Scratchpad memories.
    pub memories: Vec<Memory>,
    /// Input token schema, indexed by [`InputId`].
    pub inputs: Vec<InputField>,
    /// Non-zero when the design consumes the head token this cycle.
    pub advance: Expr,
    /// Non-zero when the job is complete.
    pub done: Expr,
}

impl Module {
    /// Looks up a register by name.
    pub fn reg_by_name(&self, name: &str) -> Option<RegId> {
        self.regs
            .iter()
            .position(|r| r.name == name)
            .map(RegId::new)
    }

    /// Looks up a register by name, reporting a structured error when it
    /// is absent.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownRegister`] if no register is named
    /// `name`.
    pub fn require_reg(&self, name: &str) -> Result<RegId, RtlError> {
        self.reg_by_name(name)
            .ok_or_else(|| RtlError::UnknownRegister {
                module: self.name.clone(),
                name: name.to_owned(),
            })
    }

    /// Returns the name of a register.
    pub fn reg_name(&self, id: RegId) -> &str {
        &self.regs[id.index()].name
    }

    /// Renders an expression with this module's register and input names,
    /// in the syntax [`crate::from_text`] reads.
    pub fn display_expr(&self, expr: &Expr) -> String {
        crate::format::expr_text(expr, self)
    }

    /// Total number of update rules across all registers.
    pub fn rule_count(&self) -> usize {
        self.regs.iter().map(|r| r.rules.len()).sum()
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError`] if a register has zero/oversized width, a rule
    /// references an out-of-range register or input, names collide, or the
    /// `advance`/`done` expressions reference unknown ids.
    pub fn validate(&self) -> Result<(), RtlError> {
        let mut seen = HashMap::new();
        for (i, r) in self.regs.iter().enumerate() {
            if r.width == 0 || r.width > 64 {
                return Err(RtlError::BadWidth {
                    name: r.name.clone(),
                    width: r.width,
                });
            }
            if r.init & !r.mask() != 0 {
                return Err(RtlError::InitOutOfRange {
                    name: r.name.clone(),
                    init: r.init,
                    width: r.width,
                });
            }
            if let Some(prev) = seen.insert(r.name.clone(), i) {
                return Err(RtlError::DuplicateName {
                    name: r.name.clone(),
                    first: prev,
                    second: i,
                });
            }
        }
        let check = |e: &Expr| -> Result<(), RtlError> {
            let mut regs = Vec::new();
            e.collect_regs(&mut regs);
            for r in regs {
                if r.index() >= self.regs.len() {
                    return Err(RtlError::DanglingReg { id: r.index() });
                }
            }
            let mut ins = Vec::new();
            e.collect_inputs(&mut ins);
            for i in ins {
                if i.index() >= self.inputs.len() {
                    return Err(RtlError::DanglingInput { id: i.index() });
                }
            }
            Ok(())
        };
        for r in &self.regs {
            for rule in &r.rules {
                check(&rule.guard)?;
                check(&rule.value)?;
            }
        }
        for d in &self.datapaths {
            check(&d.active)?;
        }
        check(&self.advance)?;
        check(&self.done)?;
        Ok(())
    }

    /// Registers read anywhere in the design (guards, values, datapath
    /// activity, `advance`, `done`).
    pub fn live_regs(&self) -> Vec<bool> {
        let mut live = vec![false; self.regs.len()];
        let mut scratch = Vec::new();
        let mark = |e: &Expr, live: &mut Vec<bool>, scratch: &mut Vec<RegId>| {
            scratch.clear();
            e.collect_regs(scratch);
            for r in scratch.iter() {
                live[r.index()] = true;
            }
        };
        for r in &self.regs {
            for rule in &r.rules {
                mark(&rule.guard, &mut live, &mut scratch);
                mark(&rule.value, &mut live, &mut scratch);
            }
        }
        for d in &self.datapaths {
            mark(&d.active, &mut live, &mut scratch);
        }
        mark(&self.advance, &mut live, &mut scratch);
        mark(&self.done, &mut live, &mut scratch);
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    fn tiny() -> Module {
        Module {
            name: "tiny".into(),
            regs: vec![Register {
                name: "a".into(),
                width: 8,
                init: 0,
                rules: vec![UpdateRule {
                    guard: Expr::Const(1),
                    value: Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Reg(RegId::new(0))),
                        Box::new(Expr::Const(1)),
                    ),
                }],
            }],
            datapaths: vec![],
            memories: vec![],
            inputs: vec![],
            advance: Expr::Const(0),
            done: Expr::Bin(
                BinOp::Eq,
                Box::new(Expr::Reg(RegId::new(0))),
                Box::new(Expr::Const(10)),
            ),
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_width() {
        let mut m = tiny();
        m.regs[0].width = 0;
        assert!(matches!(m.validate(), Err(RtlError::BadWidth { .. })));
    }

    #[test]
    fn validate_rejects_oversized_init() {
        let mut m = tiny();
        m.regs[0].init = 256;
        assert!(matches!(m.validate(), Err(RtlError::InitOutOfRange { .. })));
    }

    #[test]
    fn validate_rejects_dangling_reg() {
        let mut m = tiny();
        m.done = Expr::Reg(RegId::new(7));
        assert!(matches!(m.validate(), Err(RtlError::DanglingReg { .. })));
    }

    #[test]
    fn validate_rejects_duplicate_names() {
        let mut m = tiny();
        let dup = m.regs[0].clone();
        m.regs.push(dup);
        assert!(matches!(m.validate(), Err(RtlError::DuplicateName { .. })));
    }

    #[test]
    fn mask_and_lookup() {
        let m = tiny();
        assert_eq!(m.regs[0].mask(), 0xff);
        assert_eq!(m.reg_by_name("a"), Some(RegId::new(0)));
        assert_eq!(m.reg_by_name("zz"), None);
        assert_eq!(m.require_reg("a"), Ok(RegId::new(0)));
        assert_eq!(
            m.require_reg("zz"),
            Err(RtlError::UnknownRegister {
                module: "tiny".into(),
                name: "zz".into(),
            })
        );
        assert_eq!(m.rule_count(), 1);
    }

    #[test]
    fn live_regs_marks_done_reference() {
        let m = tiny();
        assert_eq!(m.live_regs(), vec![true]);
    }
}
