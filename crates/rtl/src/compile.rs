//! Compilation of [`Module`]s to linear bytecode: flatten → schedule →
//! lower.
//!
//! The tree-walking interpreter in [`crate::interp`] pays for every cycle
//! with pointer-chasing `Box<Expr>` recursion, per-cycle schedule lookups,
//! and re-evaluation of identical subexpressions across guards. This module
//! removes all three costs ahead of time:
//!
//! 1. **Flatten.** The module's register hierarchy becomes one contiguous
//!    `Vec<u64>` state buffer, one slot per register. A cycle program
//!    loads every register it reads before its first store, so it stores
//!    in place and rule evaluation order cannot leak next-state values —
//!    exactly the synchronous semantics the interpreter implements with
//!    its `changes` list. Each `Store` names its *store site*
//!    ([`StoreSite`]): the register and rule it commits and, where the
//!    program pins them, the value it overwrites and the value it stores.
//!    A store records its site's probes as it writes; a probe program
//!    binds them to the sites once per simulator. Stores run in ascending
//!    register order, the order the interpreter applies its `changes`.
//!
//! 2. **Schedule.** Per primary-FSM state (mirroring the interpreter's
//!    bucketed schedule), the guarded update graph is rebuilt as a
//!    hash-consed expression DAG with the FSM register *partially
//!    evaluated* to that state's constant. Constant folding then deletes
//!    every `state == K` test and, transitively, every rule and datapath
//!    that provably cannot fire in the state. Folding is boolean-aware:
//!    the live state's `state == K & cond` guard becomes `1 & cond`, and
//!    that folds to `cond` whenever `cond` provably yields 0 or 1. What
//!    survives is shared via common-subexpression elimination and emitted
//!    in dependency (topological) order — interning a DAG node after its
//!    operands makes node-id order a valid schedule for free.
//!
//! 3. **Lower.** Each per-state update graph becomes one straight-line
//!    bytecode program for a register machine ([`crate::vm::Instr`]):
//!    phase A evaluates every shared root (rule guards, datapath activity,
//!    `advance`) unconditionally into scratch registers; phase B walks each
//!    hardware register's rule chain with `Jz` short-circuits and
//!    first-fire-wins jumps, computing rule values in private (rolled-back)
//!    scratch so a conditionally-executed body can never satisfy another
//!    body's CSE lookup. Constants emit no instruction: every program of
//!    the module shares one interned constant pool, placed above the
//!    working slots of the largest program, and operands read their pool
//!    slot directly. The VM copies the pool in once per run, and since no
//!    instruction writes it, rollback scopes never reuse a pool slot. The
//!    operators that survive specialization on the stepped path (`+`, `-`,
//!    `*`, `&`, `==`, `!=`, `<`, `IsZero`, `IsNonZero`) lower to opcodes of
//!    their own; the rest keep one generic opcode per arity.
//!
//! A generic (unspecialized) program is always compiled as well: it is the
//! whole design when no FSM is detected, and the fallback bucket when the
//! state register somehow leaves the analyzed range — the same policy as
//! the interpreter's `Schedule::Flat`.
//!
//! Wait-state skipping stays in Rust (it is control flow, not dataflow),
//! but its bound and datapath-activity expressions are compiled to
//! [`ExprProgram`]s specialized to the waiting state, and each bucket of
//! the bucketing FSM records the index of its state's wait plan, so the
//! VM's wait scan reads it instead of searching. Two more per-bucket
//! facts spare the VM work on the stepped path:
//!
//! - a down-counting wait's bucket also gets an *exit program*, specialized
//!   to the counter at 0 as well, for the cycle that follows a skip;
//! - a bucket is *plain* when its `done` folds to 0 and no wait plan can
//!   decide its cycles, so the VM runs it without either test.
//!
//! Everything here is semantics-preserving by construction *and* checked:
//! the interpreter remains the differential-testing oracle, and the
//! `differential` suites assert byte-identical traces, probe streams, and
//! final state on every paper benchmark and on proptest-generated designs.

use std::collections::HashMap;

use crate::analysis::{Analysis, WaitDir, WaitState};
use crate::error::RtlError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::module::Module;
use crate::vm::Instr;

/// A hash-consed DAG node; `u32` operands are node ids, which double as
/// scratch-register indices once emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Const(u64),
    /// Read stable slot `reg` of the state buffer.
    Load(u32),
    /// Read field `field` of the head token (0 past end of stream).
    Input(u32),
    StreamEmpty,
    Bin(BinOp, u32, u32),
    Un(UnOp, u32),
    /// `Sel(c, t, f)`: both arms are evaluated — expressions are pure and
    /// total, so this matches the interpreter's lazy `Mux` bit for bit.
    Sel(u32, u32, u32),
}

/// Registers pinned to constants while a program is built: the FSM
/// register to the bucket's state, and in an exit program also the wait's
/// counter to 0.
type Folds<'a> = &'a [(usize, u64)];

/// Hash-consing expression DAG with partial evaluation of the registers in
/// `fold`.
struct Dag {
    nodes: Vec<Node>,
    /// `boolean[id]`: node `id` provably evaluates to 0 or 1.
    boolean: Vec<bool>,
    memo: HashMap<Node, u32>,
    fold: Vec<(usize, u64)>,
}

impl Dag {
    fn new(fold: Folds) -> Dag {
        Dag {
            nodes: Vec::new(),
            boolean: Vec::new(),
            memo: HashMap::new(),
            fold: fold.to_vec(),
        }
    }

    /// The constant register `reg` is pinned to, if any.
    fn folded(&self, reg: usize) -> Option<u64> {
        self.fold.iter().find(|&&(r, _)| r == reg).map(|&(_, v)| v)
    }

    fn intern(&mut self, n: Node) -> u32 {
        if let Some(&id) = self.memo.get(&n) {
            return id;
        }
        let id = self.nodes.len() as u32;
        let boolean = self.yields_bool(n);
        self.nodes.push(n);
        self.boolean.push(boolean);
        self.memo.insert(n, id);
        id
    }

    /// Whether `n` provably evaluates to 0 or 1: comparisons, `IsZero`,
    /// `IsNonZero` and `StreamEmpty`; an `And` with a boolean operand; an
    /// `Or`, `Min` or `Max` of two booleans.
    fn yields_bool(&self, n: Node) -> bool {
        let b = |id: u32| self.boolean[id as usize];
        match n {
            Node::Const(k) => k <= 1,
            Node::StreamEmpty => true,
            Node::Un(op, _) => matches!(op, UnOp::IsZero | UnOp::IsNonZero),
            Node::Bin(BinOp::Lt | BinOp::Le | BinOp::Eq | BinOp::Ne, _, _) => true,
            Node::Bin(BinOp::And, x, y) => b(x) || b(y),
            Node::Bin(BinOp::Or | BinOp::Min | BinOp::Max, x, y) => b(x) && b(y),
            Node::Load(_) | Node::Input(_) | Node::Bin(..) | Node::Sel(..) => false,
        }
    }

    /// The `Load` nodes `root` reads, directly or through its operands.
    fn loads(&self, root: u32) -> Vec<u32> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id as usize], true) {
                continue;
            }
            match self.nodes[id as usize] {
                Node::Load(_) => out.push(id),
                Node::Const(_) | Node::Input(_) | Node::StreamEmpty => {}
                Node::Bin(_, a, b) => stack.extend([a, b]),
                Node::Un(_, a) => stack.push(a),
                Node::Sel(c, t, f) => stack.extend([c, t, f]),
            }
        }
        out
    }

    fn konst(&self, id: u32) -> Option<u64> {
        match self.nodes[id as usize] {
            Node::Const(k) => Some(k),
            _ => None,
        }
    }

    /// Lowers an expression into the DAG with constant folding.
    ///
    /// Folding only ever uses [`BinOp::apply`]/[`UnOp::apply`] — the
    /// exact runtime semantics — so a folded constant is the value the
    /// interpreter would have computed. Two algebraic identities of the
    /// bitwise `&` finish off the ubiquitous `state == K & cond` guard
    /// shape: `0 & x == 0` short-circuits without lowering the dead
    /// `cond`, and `1 & b == b` drops the live bucket's test when `b` is
    /// provably 0 or 1. A multi-bit `x` keeps its `1 & x`, which is its low
    /// bit.
    fn lower(&mut self, e: &Expr) -> u32 {
        match e {
            Expr::Const(k) => self.intern(Node::Const(*k)),
            Expr::Reg(r) => match self.folded(r.index()) {
                Some(v) => self.intern(Node::Const(v)),
                None => self.intern(Node::Load(r.index() as u32)),
            },
            Expr::Input(i) => self.intern(Node::Input(i.index() as u32)),
            Expr::StreamEmpty => self.intern(Node::StreamEmpty),
            Expr::Bin(op, a, b) => {
                let a = self.lower(a);
                if *op == BinOp::And && self.konst(a) == Some(0) {
                    return self.intern(Node::Const(0));
                }
                let b = self.lower(b);
                let and = *op == BinOp::And;
                match (self.konst(a), self.konst(b)) {
                    (Some(x), Some(y)) => self.intern(Node::Const(op.apply(x, y))),
                    (_, Some(0)) if and => self.intern(Node::Const(0)),
                    (Some(1), _) if and && self.boolean[b as usize] => b,
                    (_, Some(1)) if and && self.boolean[a as usize] => a,
                    _ => self.intern(Node::Bin(*op, a, b)),
                }
            }
            Expr::Un(op, a) => {
                let a = self.lower(a);
                match self.konst(a) {
                    Some(x) => self.intern(Node::Const(op.apply(x))),
                    None => self.intern(Node::Un(*op, a)),
                }
            }
            Expr::Mux(c, t, f) => {
                let c = self.lower(c);
                match self.konst(c) {
                    Some(0) => self.lower(f),
                    Some(_) => self.lower(t),
                    None => {
                        let t = self.lower(t);
                        let f = self.lower(f);
                        self.intern(Node::Sel(c, t, f))
                    }
                }
            }
        }
    }
}

/// Tag of a constant-pool operand until [`relocate_code`] moves the pool
/// above the working slots of every program.
const POOL: u32 = 1 << 31;

/// Every constant any program of a module reads, interned once. The VM
/// loads the pool into the top of scratch before cycle 0, so no program
/// executes a constant.
#[derive(Default)]
struct Pool {
    values: Vec<u64>,
    index: HashMap<u64, u32>,
}

impl Pool {
    /// The (tagged) pool slot holding `k`.
    fn slot(&mut self, k: u64) -> u32 {
        let next = self.values.len() as u32;
        let i = *self.index.entry(k).or_insert(next);
        if i == next {
            self.values.push(k);
        }
        POOL | i
    }
}

/// Lowers DAG nodes to instructions, assigning scratch registers on first
/// use (dead nodes are never emitted). Constants emit nothing: they read
/// their pool slot, which no rollback scope can reuse.
struct Emitter<'p> {
    dag: Dag,
    pool: &'p mut Pool,
    /// Node id → scratch slot, once emitted in the current scope.
    slot: Vec<Option<u32>>,
    /// Log of node ids assigned since the last checkpoint (for rollback of
    /// conditionally-executed rule bodies).
    assigned: Vec<u32>,
    next_slot: u32,
    high_water: u32,
    code: Vec<Instr>,
}

impl<'p> Emitter<'p> {
    fn new(fold: Folds, pool: &'p mut Pool) -> Emitter<'p> {
        Emitter {
            dag: Dag::new(fold),
            pool,
            slot: Vec::new(),
            assigned: Vec::new(),
            next_slot: 0,
            high_water: 0,
            code: Vec::new(),
        }
    }

    fn slot_of(&self, id: u32) -> u32 {
        self.slot[id as usize].expect("node must be emitted before use")
    }

    fn alloc(&mut self, id: u32) -> u32 {
        let s = self.next_slot;
        self.next_slot += 1;
        self.high_water = self.high_water.max(self.next_slot);
        if self.slot.len() <= id as usize {
            self.slot.resize(id as usize + 1, None);
        }
        self.slot[id as usize] = Some(s);
        self.assigned.push(id);
        s
    }

    /// Emits `id` (and, recursively, its operands) unless already live in
    /// the current scope; returns its scratch slot.
    fn ensure(&mut self, id: u32) -> u32 {
        if let Some(Some(s)) = self.slot.get(id as usize) {
            return *s;
        }
        let instr = match self.dag.nodes[id as usize] {
            Node::Const(k) => return self.pool.slot(k),
            Node::Load(reg) => {
                debug_assert!(
                    !self.code.iter().any(|i| matches!(i, Instr::Store { .. })),
                    "a load after a store would read this cycle's write"
                );
                Instr::Load {
                    dst: self.alloc(id),
                    slot: reg,
                }
            }
            Node::Input(field) => Instr::Input {
                dst: self.alloc(id),
                field,
            },
            Node::StreamEmpty => Instr::StreamEmpty {
                dst: self.alloc(id),
            },
            Node::Bin(op, a, b) => {
                let a = self.ensure(a);
                let b = self.ensure(b);
                let dst = self.alloc(id);
                match op {
                    BinOp::Add => Instr::Add { dst, a, b },
                    BinOp::Sub => Instr::Sub { dst, a, b },
                    BinOp::Mul => Instr::Mul { dst, a, b },
                    BinOp::And => Instr::And { dst, a, b },
                    BinOp::Eq => Instr::Eq { dst, a, b },
                    BinOp::Ne => Instr::Ne { dst, a, b },
                    BinOp::Lt => Instr::Lt { dst, a, b },
                    op => Instr::Bin { dst, op, a, b },
                }
            }
            Node::Un(op, a) => {
                let a = self.ensure(a);
                let dst = self.alloc(id);
                match op {
                    UnOp::IsZero => Instr::IsZero { dst, a },
                    UnOp::IsNonZero => Instr::IsNonZero { dst, a },
                    op => Instr::Un { dst, op, a },
                }
            }
            Node::Sel(c, t, f) => {
                let c = self.ensure(c);
                let t = self.ensure(t);
                let f = self.ensure(f);
                Instr::Sel {
                    dst: self.alloc(id),
                    c,
                    t,
                    f,
                }
            }
        };
        self.code.push(instr);
        self.slot_of(id)
    }

    /// Marks the current scratch scope. Rule-value bodies emit inside a
    /// checkpoint/rollback pair: their slots are private, because the body
    /// executes conditionally and a later chain must not CSE into scratch
    /// that may never have been written.
    fn checkpoint(&self) -> (u32, usize) {
        (self.next_slot, self.assigned.len())
    }

    fn rollback(&mut self, cp: (u32, usize)) {
        let (next_slot, assigned_len) = cp;
        for id in self.assigned.drain(assigned_len..) {
            self.slot[id as usize] = None;
        }
        self.next_slot = next_slot;
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Instr::Jz { to: t, .. } | Instr::Jmp { to: t } => *t = to,
            _ => unreachable!("patch target must be a jump"),
        }
    }
}

/// Moves pool operands to their final slots `base + i`, above the working
/// slots of every program. Only operands can be pool slots: destinations
/// are always working slots.
fn relocate_code(code: &mut [Instr], base: u32) {
    let fix = |s: &mut u32| *s = relocated(*s, base);
    for i in code {
        match i {
            Instr::Bin { a, b, .. }
            | Instr::Add { a, b, .. }
            | Instr::Sub { a, b, .. }
            | Instr::Mul { a, b, .. }
            | Instr::And { a, b, .. }
            | Instr::Eq { a, b, .. }
            | Instr::Ne { a, b, .. }
            | Instr::Lt { a, b, .. } => {
                fix(a);
                fix(b);
            }
            Instr::Un { a, .. } | Instr::IsZero { a, .. } | Instr::IsNonZero { a, .. } => fix(a),
            Instr::Sel { c, t, f, .. } => {
                fix(c);
                fix(t);
                fix(f);
            }
            Instr::Jz { src, .. } | Instr::Store { src, .. } => fix(src),
            Instr::Load { .. }
            | Instr::Input { .. }
            | Instr::StreamEmpty { .. }
            | Instr::Jmp { .. }
            | Instr::IncDp { .. } => {}
        }
    }
}

fn relocated(slot: u32, base: u32) -> u32 {
    if slot & POOL != 0 {
        base + (slot & !POOL)
    } else {
        slot
    }
}

/// A straight-line program computing one expression; the result lands in
/// scratch slot `out`.
#[derive(Debug, Clone)]
pub(crate) struct ExprProgram {
    pub code: Vec<Instr>,
    pub out: u32,
    /// `Some(k)` when the whole program folded to the constant `k` (its
    /// code is then empty) — state specialization makes this the common
    /// case for `done` checks (e.g. `done` is provably 0 in every
    /// non-terminal FSM state), and the VM then skips program execution
    /// entirely.
    pub konst: Option<u64>,
    scratch: u32,
}

impl ExprProgram {
    fn relocate(&mut self, base: u32) {
        relocate_code(&mut self.code, base);
        self.out = relocated(self.out, base);
    }
}

/// One synchronous step of the design, specialized to (at most) one FSM
/// state: guard/datapath/advance evaluation, in-place stores with
/// first-fire-wins chains, and datapath activity counting.
#[derive(Debug, Clone)]
pub(crate) struct CycleProgram {
    pub code: Vec<Instr>,
    /// Scratch slot holding the `advance` value after execution.
    pub advance: u32,
    scratch: u32,
}

impl CycleProgram {
    fn relocate(&mut self, base: u32) {
        relocate_code(&mut self.code, base);
        self.advance = relocated(self.advance, base);
    }
}

/// The `done` test plus the cycle step for one schedule bucket.
#[derive(Debug, Clone)]
pub(crate) struct StatePrograms {
    pub cycle: CycleProgram,
    pub done: ExprProgram,
    /// In a bucket of the bucketing FSM: the index of this state's plan in
    /// that FSM's wait table ([`Compiled::bucket_waits`]), so the wait scan
    /// reads it instead of searching. Always `None` in the generic program.
    pub wait: Option<usize>,
    /// When this state's plan is a down-counting wait whose counter is no
    /// FSM register: the cycle program with that counter folded to 0. The
    /// VM runs it on the cycle right after a skip of this plan, which
    /// leaves the counter at 0 and the bucket and every other FSM as they
    /// were, so that cycle's wait scan would stop at the exhausted plan.
    pub exit: Option<CycleProgram>,
    /// `done` folds to 0 here and no wait plan can decide this bucket's
    /// cycles (it has none, and no other FSM has a wait table), so the VM
    /// runs the cycle program without the `done` test or the wait scan.
    pub plain: bool,
}

/// What the compiler knows about one `Store` instruction: the rule it
/// commits, and the register's value before and after the store when
/// the program is specialized to them. A probe program binds each site
/// once ([`crate::instrument::ProbeProgram::bind`]), instead of resolving
/// every store at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StoreSite {
    pub reg: usize,
    pub rule: usize,
    /// The overwritten value, when the program pins the register to a
    /// constant: the bucket's state for the bucketing FSM register.
    pub old: Option<u64>,
    /// The stored (masked) value, when the rule's value folds to a
    /// constant.
    pub new: Option<u64>,
}

/// A wait state with its bound/activity expressions pre-lowered.
#[derive(Debug, Clone)]
pub(crate) struct CompiledWait {
    pub counter: usize,
    pub dir: WaitDir,
    pub bound: Option<ExprProgram>,
    /// `(datapath index, activity program)` in `maybe_active_dps` order.
    pub dps: Vec<(usize, ExprProgram)>,
    pub serial: bool,
}

/// The wait plans of one FSM register, sorted by state.
///
/// The interpreter keys the same plans by `(fsm reg, state)` in a hash
/// map; the VM's scan runs on every cycle that is not skipped, so it looks
/// the bucketing FSM's plan up by the bucket's index
/// ([`StatePrograms::wait`]) and binary-searches the other tables. Its
/// length is the number of wait states, however large the state encodings
/// in the RTL text are.
#[derive(Debug, Clone)]
pub(crate) struct WaitTable {
    pub fsm: usize,
    pub plans: Vec<(u64, CompiledWait)>,
}

impl WaitTable {
    /// The index in `plans` of state `state`'s plan, if it is a wait state
    /// of this FSM.
    #[inline]
    fn position(&self, state: u64) -> Option<usize> {
        self.plans.binary_search_by_key(&state, |(s, _)| *s).ok()
    }

    /// The plan for state `state`, if it is a wait state of this FSM.
    #[inline]
    pub fn get(&self, state: u64) -> Option<&CompiledWait> {
        self.position(state).map(|i| &self.plans[i].1)
    }
}

/// Everything [`crate::vm::CompiledSim`] needs at run time.
#[derive(Debug)]
pub(crate) struct Compiled {
    /// Initial state buffer: the registers' reset values.
    pub init: Vec<u64>,
    /// Unspecialized fallback program (and the only program when no
    /// primary FSM exists or its state space is too large to bucket).
    pub generic: StatePrograms,
    /// Per-state specialized programs, indexed by the primary FSM's value.
    pub by_state: Vec<StatePrograms>,
    /// Primary FSM register index, if bucketing is active.
    pub fsm: Option<usize>,
    /// Wait tables of the FSM registers that have wait states, in
    /// ascending register order — the interpreter's wait-scan order. An
    /// FSM without wait states never decides a scan, so it has no table.
    pub waits: Vec<WaitTable>,
    /// Index in `waits` of the bucketing FSM's table, if it has one.
    pub bucket_waits: Option<usize>,
    /// `is_fsm_reg[r]`: does a probe transition apply to register `r`?
    pub is_fsm_reg: Vec<bool>,
    /// Every `Store` of every cycle program, indexed by its `site`.
    pub sites: Vec<StoreSite>,
    /// Initial scratch image: the working slots of the largest program,
    /// zeroed, then the constant pool every program reads its constants
    /// from.
    pub scratch: Vec<u64>,
}

/// Compiles `module` under `analysis`.
///
/// Validation runs first so that any dangling register/input reference is
/// a compile-time [`RtlError`], not a mid-job panic.
pub(crate) fn compile(module: &Module, analysis: &Analysis) -> Result<Compiled, RtlError> {
    module.validate()?;
    let n = module.regs.len();
    let init = module.regs.iter().map(|r| r.init).collect();
    let mut pool = Pool::default();
    let mut fsm_regs: Vec<usize> = analysis.fsms.iter().map(|f| f.reg.index()).collect();
    fsm_regs.sort_unstable();
    fsm_regs.dedup();
    let mut is_fsm_reg = vec![false; n];
    for &f in &fsm_regs {
        is_fsm_reg[f] = true;
    }
    let mut waits = Vec::new();
    for &f in &fsm_regs {
        // A later entry for the same state replaces an earlier one, as in
        // the interpreter's map: walk the list backwards so the stable
        // sort puts the last entry first and `dedup` keeps it.
        let mut entries: Vec<_> = analysis
            .waits
            .iter()
            .rev()
            .filter(|w| w.fsm.index() == f)
            .collect();
        entries.sort_by_key(|w| w.state);
        entries.dedup_by_key(|w| w.state);
        if entries.is_empty() {
            continue;
        }
        let plans = entries
            .into_iter()
            .map(|w| (w.state, compile_wait(module, w, &mut pool)))
            .collect();
        waits.push(WaitTable { fsm: f, plans });
    }
    let mut sites = Vec::new();
    let mut generic = StatePrograms {
        cycle: build_cycle_program(module, &[], &mut pool, &mut sites),
        done: build_expr_program(&module.done, &[], &mut pool),
        wait: None,
        exit: None,
        plain: false,
    };
    // Mirror the interpreter's bucketing policy exactly: first detected
    // FSM, states bucketed 0..=max, flat fallback past 4096 states.
    let fsm = analysis.fsms.first().and_then(|f| {
        let max_state = f.states.iter().max().copied().unwrap_or(0);
        (max_state <= 4096).then_some((f.reg.index(), max_state))
    });
    let bucket_waits = fsm.and_then(|(f, _)| waits.iter().position(|t| t.fsm == f));
    let mut by_state = Vec::new();
    if let Some((freg, max_state)) = fsm {
        let only_waiting_fsm = waits.iter().all(|t| t.fsm == freg);
        for s in 0..=max_state {
            let fold = [(freg, s)];
            let cycle = build_cycle_program(module, &fold, &mut pool, &mut sites);
            let done = build_expr_program(&module.done, &fold, &mut pool);
            let plan =
                bucket_waits.and_then(|t| waits[t].position(s).map(|i| (i, &waits[t].plans[i].1)));
            let exit = plan
                .filter(|(_, w)| w.dir == WaitDir::Down && !is_fsm_reg[w.counter])
                .map(|(_, w)| {
                    let fold = [(freg, s), (w.counter, 0)];
                    build_cycle_program(module, &fold, &mut pool, &mut sites)
                });
            let plain = done.konst == Some(0) && plan.is_none() && only_waiting_fsm;
            by_state.push(StatePrograms {
                cycle,
                done,
                wait: plan.map(|(i, _)| i),
                exit,
                plain,
            });
        }
    }
    // The pool goes above the working slots of the largest program.
    let work = by_state
        .iter()
        .chain(std::iter::once(&generic))
        .flat_map(|p| {
            let exit = p.exit.as_ref().map_or(0, |x| x.scratch);
            [p.cycle.scratch, p.done.scratch, exit]
        })
        .chain(waits.iter().flat_map(|t| &t.plans).flat_map(|(_, w)| {
            w.bound
                .iter()
                .map(|b| b.scratch)
                .chain(w.dps.iter().map(|(_, p)| p.scratch))
        }))
        .max()
        .unwrap_or(0);
    for p in by_state.iter_mut().chain(std::iter::once(&mut generic)) {
        p.cycle.relocate(work);
        p.done.relocate(work);
        if let Some(x) = &mut p.exit {
            x.relocate(work);
        }
    }
    for (_, w) in waits.iter_mut().flat_map(|t| &mut t.plans) {
        for p in w.bound.iter_mut().chain(w.dps.iter_mut().map(|(_, p)| p)) {
            p.relocate(work);
        }
    }
    let mut scratch = vec![0; work as usize];
    scratch.extend_from_slice(&pool.values);
    Ok(Compiled {
        init,
        generic,
        by_state,
        fsm: fsm.map(|(f, _)| f),
        waits,
        bucket_waits,
        is_fsm_reg,
        sites,
        scratch,
    })
}

fn compile_wait(module: &Module, w: &WaitState, pool: &mut Pool) -> CompiledWait {
    // During the wait the FSM register provably holds `w.state`, so
    // bound/activity programs may fold it; the counter is *not* folded —
    // activity is evaluated after it jumps to its terminal value, read
    // live from the state buffer.
    let fold = [(w.fsm.index(), w.state)];
    CompiledWait {
        counter: w.counter.index(),
        dir: w.dir,
        bound: w.bound.as_ref().map(|b| build_expr_program(b, &fold, pool)),
        dps: w
            .maybe_active_dps
            .iter()
            .map(|&di| {
                let active = &module.datapaths[di].active;
                (di, build_expr_program(active, &fold, pool))
            })
            .collect(),
        serial: w.serial,
    }
}

fn build_expr_program(e: &Expr, fold: Folds, pool: &mut Pool) -> ExprProgram {
    let mut em = Emitter::new(fold, pool);
    let root = em.dag.lower(e);
    let out = em.ensure(root);
    let konst = em.dag.konst(root);
    ExprProgram {
        code: em.code,
        out,
        konst,
        scratch: em.high_water,
    }
}

/// A register's surviving rule chain after specialization: each entry is
/// `(rule index, guard DAG node)`, with `None` marking an unconditional
/// (always-winning) guard.
type RuleChain = Vec<(usize, Option<u32>)>;

fn build_cycle_program(
    module: &Module,
    fold: Folds,
    pool: &mut Pool,
    sites: &mut Vec<StoreSite>,
) -> CycleProgram {
    let mut em = Emitter::new(fold, pool);

    // Lower every guard, pruning rules that provably cannot fire in this
    // bucket (guard folds to 0) and truncating chains at a rule whose
    // guard folds to a non-zero constant (it always wins; later rules are
    // dead).
    let mut chains: Vec<(usize, RuleChain)> = Vec::new();
    for (reg, r) in module.regs.iter().enumerate() {
        let mut chain = Vec::new();
        for (ri, rule) in r.rules.iter().enumerate() {
            let g = em.dag.lower(&rule.guard);
            match em.dag.konst(g) {
                Some(0) => continue,
                Some(_) => {
                    chain.push((ri, None));
                    break;
                }
                None => chain.push((ri, Some(g))),
            }
        }
        if !chain.is_empty() {
            chains.push((reg, chain));
        }
    }
    let mut dps: Vec<(usize, Option<u32>)> = Vec::new();
    for (di, dp) in module.datapaths.iter().enumerate() {
        let a = em.dag.lower(&dp.active);
        match em.dag.konst(a) {
            Some(0) => continue,
            Some(_) => dps.push((di, None)),
            None => dps.push((di, Some(a))),
        }
    }
    let advance_root = em.dag.lower(&module.advance);

    // Phase A: evaluate every shared root unconditionally, in topological
    // (node-id) order via recursive `ensure`. These scratch slots stay
    // live for the whole program.
    for (_, chain) in &chains {
        for &(_, g) in chain {
            if let Some(g) = g {
                em.ensure(g);
            }
        }
    }
    for &(_, a) in &dps {
        if let Some(a) = a {
            em.ensure(a);
        }
    }
    let advance = em.ensure(advance_root);
    // Every register a rule value reads is loaded here too, before the
    // first store: stores write the state buffer in place.
    for (reg, chain) in &chains {
        for &(ri, _) in chain {
            let v = em.dag.lower(&module.regs[*reg].rules[ri].value);
            for load in em.dag.loads(v) {
                em.ensure(load);
            }
        }
    }

    // Phase B: first-fire-wins chains, storing in place.
    for (reg, chain) in &chains {
        let reg = *reg;
        let mask = module.regs[reg].mask();
        let mut end_patches = Vec::new();
        for (k, &(ri, g)) in chain.iter().enumerate() {
            let jz_at = g.map(|g| {
                let src = em.slot_of(g);
                let at = em.code.len();
                em.code.push(Instr::Jz { src, to: u32::MAX });
                at
            });
            let cp = em.checkpoint();
            let v = em.dag.lower(&module.regs[reg].rules[ri].value);
            let src = em.ensure(v);
            em.code.push(Instr::Store {
                slot: reg as u32,
                site: sites.len() as u32,
                src,
                mask,
            });
            sites.push(StoreSite {
                reg,
                rule: ri,
                old: em.dag.folded(reg),
                new: em.dag.konst(v).map(|k| k & mask),
            });
            em.rollback(cp);
            if k + 1 < chain.len() {
                let at = em.code.len();
                em.code.push(Instr::Jmp { to: u32::MAX });
                end_patches.push(at);
            }
            if let Some(at) = jz_at {
                let to = em.code.len() as u32;
                em.patch(at, to);
            }
        }
        let end = em.code.len() as u32;
        for at in end_patches {
            em.patch(at, end);
        }
    }

    // Datapath activity counting (reads phase-A slots).
    for &(di, a) in &dps {
        match a {
            None => em.code.push(Instr::IncDp { dp: di as u32 }),
            Some(a) => {
                let src = em.slot_of(a);
                let at = em.code.len();
                em.code.push(Instr::Jz { src, to: u32::MAX });
                em.code.push(Instr::IncDp { dp: di as u32 });
                let to = em.code.len() as u32;
                em.patch(at, to);
            }
        }
    }

    CycleProgram {
        code: em.code,
        advance,
        scratch: em.high_water,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ModuleBuilder, E};

    fn toy() -> Module {
        let mut b = ModuleBuilder::new("toy");
        let dur = b.input("dur", 16);
        let fsm = b.fsm("ctrl", &["FETCH", "RUN", "EMIT"]);
        b.timed(
            &fsm,
            "FETCH",
            "RUN",
            "EMIT",
            dur,
            E::stream_empty().is_zero(),
            "ctrl.cnt",
        );
        b.trans(&fsm, "EMIT", "FETCH", E::one());
        b.datapath_compute("alu", fsm.in_state("RUN"), 500.0, 2.0, 100, 1);
        b.advance_when(fsm.in_state("EMIT"));
        b.done_when(fsm.in_state("FETCH") & E::stream_empty());
        b.build().unwrap()
    }

    #[test]
    fn specialization_prunes_other_states_rules() {
        let m = toy();
        let a = Analysis::run(&m);
        let c = compile(&m, &a).unwrap();
        assert_eq!(c.by_state.len(), 3);
        // Every specialized program must be strictly smaller than the
        // generic one: `state == K` tests and foreign-state rules fold
        // away.
        for (s, p) in c.by_state.iter().enumerate() {
            assert!(
                p.cycle.code.len() < c.generic.cycle.code.len(),
                "state {s}: {} !< {}",
                p.cycle.code.len(),
                c.generic.cycle.code.len()
            );
        }
    }

    #[test]
    fn constants_live_in_one_pool_above_the_working_slots() {
        let m = toy();
        let a = Analysis::run(&m);
        let c = compile(&m, &a).unwrap();
        let programs: Vec<&[Instr]> = c
            .by_state
            .iter()
            .chain(std::iter::once(&c.generic))
            .flat_map(|p| [&p.cycle.code[..], &p.done.code[..]])
            .collect();
        // The pool sits above the largest program's working slots (the
        // toy's wait programs fold to constants and use none), holds each
        // constant once, and no instruction writes it.
        let base = c
            .by_state
            .iter()
            .chain(std::iter::once(&c.generic))
            .flat_map(|p| [p.cycle.scratch, p.done.scratch])
            .max()
            .unwrap() as usize;
        assert!(c.scratch[..base].iter().all(|&k| k == 0));
        let mut pool = c.scratch[base..].to_vec();
        pool.sort_unstable();
        pool.dedup();
        assert_eq!(pool.len(), c.scratch.len() - base);
        for code in &programs {
            for i in code.iter() {
                let dst = match *i {
                    Instr::Load { dst, .. }
                    | Instr::Input { dst, .. }
                    | Instr::StreamEmpty { dst }
                    | Instr::Add { dst, .. }
                    | Instr::Sub { dst, .. }
                    | Instr::Mul { dst, .. }
                    | Instr::And { dst, .. }
                    | Instr::Eq { dst, .. }
                    | Instr::Ne { dst, .. }
                    | Instr::Lt { dst, .. }
                    | Instr::IsZero { dst, .. }
                    | Instr::IsNonZero { dst, .. }
                    | Instr::Bin { dst, .. }
                    | Instr::Un { dst, .. }
                    | Instr::Sel { dst, .. } => dst,
                    Instr::Jz { .. }
                    | Instr::Jmp { .. }
                    | Instr::Store { .. }
                    | Instr::IncDp { .. } => continue,
                };
                assert!((dst as usize) < base, "{i:?} writes the pool");
            }
        }
        // FETCH stores the constant RUN (1) into the FSM's slot,
        // straight from the pool.
        let fsm = c.fsm.unwrap();
        let store = c.by_state[0]
            .cycle
            .code
            .iter()
            .find_map(|i| match *i {
                Instr::Store { site, src, .. } if c.sites[site as usize].reg == fsm => Some(src),
                _ => None,
            })
            .unwrap();
        assert!(store as usize >= base);
        assert_eq!(c.scratch[store as usize], 1);
    }

    #[test]
    fn a_wait_bucket_gets_an_exit_program_and_a_bucket_nothing_can_decide_is_plain() {
        let m = toy();
        let a = Analysis::run(&m);
        let c = compile(&m, &a).unwrap();
        let [fetch, run, emit] = &c.by_state[..] else {
            panic!("three buckets")
        };
        // FETCH's `done` reads the stream and RUN has a wait plan; EMIT
        // has neither.
        assert_eq!((fetch.plain, run.plain, emit.plain), (false, false, true));
        assert!(fetch.exit.is_none() && emit.exit.is_none());
        // With the counter also folded to 0, RUN's tick and its exit test
        // fold away: the exit program stores EMIT (2) over RUN (1) and
        // counts the ALU, unconditionally.
        let exit = run.exit.as_ref().unwrap();
        assert!(exit.code.len() < run.cycle.code.len());
        let fsm = c.fsm.unwrap();
        assert!(matches!(
            exit.code[..],
            [Instr::Store { site, .. }, Instr::IncDp { dp: 0 }]
                if c.sites[site as usize].reg == fsm
                    && (c.sites[site as usize].old, c.sites[site as usize].new) == (Some(1), Some(2))
        ));
    }

    #[test]
    fn constant_folding_uses_runtime_semantics() {
        let mut d = Dag::new(&[]);
        // (7 / 0) folds to 0, matching BinOp::apply, not to a panic.
        let e = E::k(7).div(E::zero());
        let id = d.lower(e.expr());
        assert_eq!(d.konst(id), Some(0));
        // `0 & x` short-circuits without lowering x.
        let dead = E::zero() & E::stream_empty();
        let id = d.lower(dead.expr());
        assert_eq!(d.konst(id), Some(0));
        assert!(!d.nodes.contains(&Node::StreamEmpty));
    }

    #[test]
    fn cse_shares_repeated_subexpressions() {
        let mut d = Dag::new(&[]);
        let x = E::stream_empty() & E::stream_empty();
        d.lower(x.expr());
        // One StreamEmpty node, interned once.
        let count = d
            .nodes
            .iter()
            .filter(|n| matches!(n, Node::StreamEmpty))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn compile_rejects_invalid_modules_up_front() {
        let mut m = toy();
        m.done = Expr::Reg(crate::module::RegId::new(99));
        let a = Analysis::run(&m);
        assert!(matches!(
            compile(&m, &a),
            Err(RtlError::DanglingReg { id: 99 })
        ));
    }

    #[test]
    fn waits_are_compiled_with_state_folds() {
        let m = toy();
        let a = Analysis::run(&m);
        let c = compile(&m, &a).unwrap();
        assert_eq!(c.waits.len(), 1);
        assert_eq!(c.waits[0].plans.len(), 1);
        let w = &c.waits[0].plans[0].1;
        assert_eq!(w.dir, WaitDir::Down);
        // The RUN-state ALU activity (`state == RUN`) folds to the
        // constant 1 inside the wait, so its program has no code at all.
        assert_eq!(w.dps.len(), 1);
        assert_eq!(w.dps[0].1.konst, Some(1));
        assert!(w.dps[0].1.code.is_empty());
    }

    #[test]
    fn specialized_state_guards_compile_without_an_and() {
        // Every toy guard is `state == S & cond` with a boolean `cond`. In
        // bucket S the test folds to 1 and `1 & cond` to `cond`; in other
        // buckets the guard folds to 0. Either way no `And` survives.
        let m = toy();
        let a = Analysis::run(&m);
        let c = compile(&m, &a).unwrap();
        let is_and = |i: &Instr| matches!(i, Instr::And { .. } | Instr::Bin { op: BinOp::And, .. });
        assert!(c.generic.cycle.code.iter().any(is_and));
        for (s, p) in c.by_state.iter().enumerate() {
            assert!(
                !p.cycle.code.iter().any(is_and),
                "state {s}: {:?}",
                p.cycle.code
            );
            assert!(
                !p.done.code.iter().any(is_and),
                "state {s}: {:?}",
                p.done.code
            );
        }
        // FETCH's `done` is `1 & StreamEmpty`: one instruction, no And.
        assert!(matches!(
            c.by_state[0].done.code[..],
            [Instr::StreamEmpty { .. }]
        ));
    }

    #[test]
    fn and_with_one_folds_only_boolean_operands() {
        let mut d = Dag::new(&[]);
        let x = E::reg(crate::module::RegId::new(0));
        // `1 & x` is x's low bit: a multi-bit `x` keeps its And, on
        // either side.
        for e in [E::one() & x.clone(), x.clone() & E::one()] {
            let id = d.lower(e.expr());
            assert!(matches!(d.nodes[id as usize], Node::Bin(BinOp::And, _, _)));
        }
        // A boolean operand is its own `1 & b`, on either side.
        let booleans = [
            x.clone().lt(E::k(3)),
            x.clone().is_zero(),
            x.clone().nonzero(),
            E::stream_empty(),
            x.clone() & E::stream_empty(),
            E::stream_empty().max(x.clone().eq_(E::k(2))),
            E::stream_empty().min(x.clone().ne_(E::k(2))),
            E::stream_empty() | x.clone().le(E::k(2)),
        ];
        for b in booleans {
            let want = d.lower(b.expr());
            assert!(d.boolean[want as usize], "{:?}", b.expr());
            assert_eq!(d.lower((E::one() & b.clone()).expr()), want);
            assert_eq!(d.lower((b.clone() & E::one()).expr()), want);
        }
        // An Or, Min or Max with a multi-bit operand is not boolean.
        for e in [
            E::stream_empty() | x.clone(),
            E::stream_empty().min(x.clone()),
            E::stream_empty().max(x.clone()),
        ] {
            let id = d.lower(e.expr());
            assert!(!d.boolean[id as usize], "{:?}", e.expr());
        }
    }
}
