//! Cycle-level interpretation of [`Module`]s.
//!
//! The simulator executes a module synchronously: each cycle, every
//! register's update rules are evaluated against the *current* state and the
//! first firing rule provides the next value. Jobs are driven by a token
//! stream (the DMA-filled scratchpad of the paper's system model, §2.1);
//! `advance` consumes tokens and `done` terminates the job.
//!
//! Three execution modes are offered:
//!
//! * [`ExecMode::Step`] — pure reference semantics, one call per cycle.
//! * [`ExecMode::FastForward`] — statically detected wait states (see
//!   [`crate::analysis`]) are skipped in one step. This is *exact*: the
//!   skipped cycles are provably quiescent, so traces are identical to
//!   `Step` (a property the test suite checks).
//! * [`ExecMode::Compressed`] — hardware-slice semantics (§3.5): non-serial
//!   wait states cost a single cycle, modelling the slice whose FSM no
//!   longer waits for removed datapaths. Serial states still cost their
//!   full latency, because even a slice must do serial work (e.g. entropy
//!   decoding) cycle by cycle.

use std::collections::HashMap;

use crate::analysis::{Analysis, WaitDir};
use crate::error::RtlError;
use crate::expr::Expr;
use crate::instrument::ProbeProgram;
use crate::module::{Module, RegId};

/// A job's input: a stream of fixed-schema tokens.
///
/// Tokens model the units the accelerator consumes — macroblocks, MCUs,
/// particles, data bursts. Fields are stored flattened for locality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInput {
    fields: usize,
    data: Vec<u64>,
}

impl JobInput {
    /// Creates an empty stream whose tokens carry `fields` values each.
    pub fn new(fields: usize) -> JobInput {
        JobInput {
            fields,
            data: Vec::new(),
        }
    }

    /// Appends one token.
    ///
    /// # Panics
    ///
    /// Panics if `token.len() != fields`.
    pub fn push(&mut self, token: &[u64]) {
        assert_eq!(
            token.len(),
            self.fields,
            "token arity mismatch: expected {} fields",
            self.fields
        );
        self.data.extend_from_slice(token);
    }

    /// Number of tokens in the stream.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.fields).unwrap_or(0)
    }

    /// True when the stream holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads field `field` of token `index`.
    #[inline]
    pub fn get(&self, index: usize, field: usize) -> u64 {
        self.data[index * self.fields + field]
    }

    /// Number of fields per token.
    pub fn fields(&self) -> usize {
        self.fields
    }
}

/// Execution semantics; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Reference cycle-by-cycle stepping.
    Step,
    /// Exact skipping of quiescent wait states.
    FastForward,
    /// Hardware-slice timing: compressible waits cost one cycle.
    Compressed,
}

/// The observable outcome of running one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// Total cycles the job occupied the accelerator.
    pub cycles: u64,
    /// Active-cycle counts per datapath block (energy accounting).
    pub dp_active: Vec<u64>,
    /// Tokens consumed from the stream.
    pub tokens_consumed: usize,
    /// Cycles executed by explicit stepping.
    pub stepped_cycles: u64,
    /// Cycles covered by fast-forward/compression skips.
    pub skipped_cycles: u64,
    /// Feature values recorded by probes (empty when unprobed).
    pub features: Vec<f64>,
}

impl JobTrace {
    /// Returns the trace with execution cycles and per-block datapath
    /// activity scaled by `scale`, rounded to whole cycles. Features are
    /// left untouched: a scaled job *looks* identical to the feature
    /// slice but takes longer — the primitive behind injected workload
    /// drift and transient trace spikes.
    pub fn scaled(&self, scale: f64) -> JobTrace {
        let mut t = self.clone();
        t.cycles = (t.cycles as f64 * scale).round() as u64;
        for a in &mut t.dp_active {
            *a = (*a as f64 * scale).round() as u64;
        }
        t
    }
}

#[derive(Debug, Clone)]
struct WaitPlan {
    counter: usize,
    dir: WaitDir,
    bound: Option<Expr>,
    maybe_active_dps: Vec<usize>,
    serial: bool,
}

/// Reference interpreter for one module: the differential oracle that
/// tests and benchmarks hold [`crate::vm::CompiledSim`] against. Production
/// code runs the VM.
///
/// Construction precomputes the wait-state plans; [`Simulator::run`] may
/// then be called once per job.
#[derive(Debug)]
pub struct Simulator<'m> {
    module: &'m Module,
    waits: HashMap<(usize, u64), WaitPlan>,
    fsm_regs: Vec<usize>,
    cycle_limit: u64,
    /// Rule schedule bucketed by the primary FSM's state: a rule whose
    /// guard carries a `state == K` conjunct on the primary FSM can only
    /// fire in state `K`, so each cycle evaluates a handful of rules
    /// instead of the whole design. Purely an interpreter optimization —
    /// semantics are identical (checked by the Step-vs-FastForward tests).
    sched: Schedule,
}

#[derive(Debug, Clone, Copy)]
struct PlanRule {
    reg: usize,
    rule: usize,
}

#[derive(Debug)]
enum Schedule {
    /// No primary FSM found: evaluate everything every cycle.
    Flat,
    /// Bucketed by primary-FSM state value.
    ByState {
        fsm: usize,
        /// Per-state rule lists (rules with no state conjunct included in
        /// every bucket), ordered by (register, declaration order).
        rules: Vec<Vec<PlanRule>>,
        /// Per-state datapath candidates (not provably inactive).
        dps: Vec<Vec<usize>>,
    },
}

impl<'m> Simulator<'m> {
    /// Builds a simulator, running the static analyses to enable
    /// fast-forwarding.
    pub fn new(module: &'m Module) -> Simulator<'m> {
        let analysis = Analysis::run(module);
        Simulator::with_analysis(module, &analysis)
    }

    /// Builds a simulator from a precomputed [`Analysis`].
    pub fn with_analysis(module: &'m Module, analysis: &Analysis) -> Simulator<'m> {
        let mut waits = HashMap::new();
        for w in &analysis.waits {
            waits.insert(
                (w.fsm.index(), w.state),
                WaitPlan {
                    counter: w.counter.index(),
                    dir: w.dir,
                    bound: w.bound.clone(),
                    maybe_active_dps: w.maybe_active_dps.clone(),
                    serial: w.serial,
                },
            );
        }
        let mut fsm_regs: Vec<usize> = analysis.fsms.iter().map(|f| f.reg.index()).collect();
        fsm_regs.sort_unstable();
        fsm_regs.dedup();
        let sched = Self::build_schedule(module, analysis);
        Simulator {
            module,
            waits,
            fsm_regs,
            cycle_limit: 1 << 34,
            sched,
        }
    }

    fn build_schedule(module: &'m Module, analysis: &Analysis) -> Schedule {
        use crate::analysis::{provably_inactive_in, provably_zero_in};
        let Some(fsm) = analysis.fsms.first() else {
            return Schedule::Flat;
        };
        let max_state = fsm.states.iter().max().copied().unwrap_or(0);
        if max_state > 4096 {
            return Schedule::Flat;
        }
        let n = (max_state + 1) as usize;
        let mut rules: Vec<Vec<PlanRule>> = vec![Vec::new(); n];
        for (ri, r) in module.regs.iter().enumerate() {
            for (i, rule) in r.rules.iter().enumerate() {
                let plan = PlanRule { reg: ri, rule: i };
                for (s, bucket) in rules.iter_mut().enumerate() {
                    if !provably_inactive_in(&rule.guard, fsm.reg, s as u64) {
                        bucket.push(plan);
                    }
                }
            }
        }
        let mut dps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (di, dp) in module.datapaths.iter().enumerate() {
            for (s, bucket) in dps.iter_mut().enumerate() {
                if !provably_zero_in(&dp.active, fsm.reg, s as u64) {
                    bucket.push(di);
                }
            }
        }
        Schedule::ByState {
            fsm: fsm.reg.index(),
            rules,
            dps,
        }
    }

    /// Overrides the default cycle budget (2³⁴) after which a job is
    /// declared hung.
    pub fn set_cycle_limit(&mut self, limit: u64) {
        self.cycle_limit = limit;
    }

    /// The module being simulated.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Runs one job to completion.
    ///
    /// `probes`, when given, must have been built for this module (or for a
    /// module this one was sliced from with identical register ids); feature
    /// values are accumulated into the returned trace.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::CycleLimit`] if `done` never asserts within the
    /// cycle budget, and [`RtlError::UnknownRegister`] (before cycle 0) if
    /// `probes` references a register the module does not have.
    pub fn run(
        &self,
        job: &JobInput,
        mode: ExecMode,
        probes: Option<&ProbeProgram>,
    ) -> Result<JobTrace, RtlError> {
        self.run_with_state(job, mode, probes).map(|(t, _)| t)
    }

    /// Like [`Simulator::run`], but also returns the final register file
    /// (the flattened architectural state at the cycle `done` asserted).
    ///
    /// The mode-equivalence and differential suites compare this buffer:
    /// `FastForward` and `Compressed` must agree with `Step` — and the
    /// compiled VM with the interpreter — on every register, not just on
    /// trace aggregates.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::run`].
    pub fn run_with_state(
        &self,
        job: &JobInput,
        mode: ExecMode,
        probes: Option<&ProbeProgram>,
    ) -> Result<(JobTrace, Vec<u64>), RtlError> {
        let _span = predvfs_obs::span("rtl.interp.run");
        if let Some(p) = probes {
            p.validate(self.module)?;
        }
        let mut regs: Vec<u64> = self.module.regs.iter().map(|r| r.init).collect();
        let mut trace = JobTrace {
            cycles: 0,
            dp_active: vec![0; self.module.datapaths.len()],
            tokens_consumed: 0,
            stepped_cycles: 0,
            skipped_cycles: 0,
            features: probes
                .map(|p| vec![0.0; p.feature_count()])
                .unwrap_or_default(),
        };
        if let Some(p) = probes {
            // Bias feature is constant 1 for every job.
            if let Some(b) = p.bias_index() {
                trace.features[b] = 1.0;
            }
        }
        let mut tok = 0usize;
        // Deferred writes of one synchronous step: (reg, rule, new value).
        let mut changes: Vec<(usize, usize, u64)> = Vec::with_capacity(16);
        let all_dps: Vec<usize> = (0..self.module.datapaths.len()).collect();
        loop {
            if eval(&self.module.done, &regs, job, tok) != 0 {
                return Ok((trace, regs));
            }
            if trace.cycles >= self.cycle_limit {
                return Err(RtlError::CycleLimit {
                    limit: self.cycle_limit,
                });
            }
            // Try to skip a wait state.
            if mode != ExecMode::Step {
                if let Some(skip) = self.try_skip(&mut regs, job, tok, mode, &mut trace) {
                    // Saturate: a skip can cover astronomically many cycles
                    // when an adversarial WCET-style bound loads the counter
                    // near u64::MAX; wrapping here would silently reset the
                    // cycle count and defeat the hang detector below.
                    trace.cycles = trace.cycles.saturating_add(skip.0);
                    trace.skipped_cycles = trace.skipped_cycles.saturating_add(skip.1);
                    continue;
                }
            }
            // Normal synchronous step: evaluate the scheduled rules against
            // the current state, then apply.
            changes.clear();
            let bucket: Option<(&[PlanRule], &[usize])> = match &self.sched {
                Schedule::Flat => None,
                Schedule::ByState { fsm, rules, dps } => {
                    let s = regs[*fsm] as usize;
                    rules.get(s).map(|b| (b.as_slice(), dps[s].as_slice()))
                }
            };
            let dps: &[usize] = match bucket {
                Some((candidates, dps)) => {
                    let mut skip_reg = usize::MAX;
                    for pr in candidates {
                        if pr.reg == skip_reg {
                            continue;
                        }
                        let r = &self.module.regs[pr.reg];
                        let rule = &r.rules[pr.rule];
                        if eval(&rule.guard, &regs, job, tok) != 0 {
                            let v = eval(&rule.value, &regs, job, tok) & r.mask();
                            changes.push((pr.reg, pr.rule, v));
                            skip_reg = pr.reg;
                        }
                    }
                    dps
                }
                None => {
                    // Flat fallback: scan every register.
                    for (i, r) in self.module.regs.iter().enumerate() {
                        for (ri, rule) in r.rules.iter().enumerate() {
                            if eval(&rule.guard, &regs, job, tok) != 0 {
                                let v = eval(&rule.value, &regs, job, tok) & r.mask();
                                changes.push((i, ri, v));
                                break;
                            }
                        }
                    }
                    &all_dps
                }
            };
            for (di, dp) in dps.iter().map(|&d| (d, &self.module.datapaths[d])) {
                if eval(&dp.active, &regs, job, tok) != 0 {
                    trace.dp_active[di] = trace.dp_active[di].saturating_add(1);
                }
            }
            let advance = eval(&self.module.advance, &regs, job, tok) != 0;
            // Apply the synchronous writes and fire probes.
            for &(i, ri, v) in &changes {
                let old = regs[i];
                regs[i] = v;
                if let Some(p) = probes {
                    p.record_counter_init(&mut trace.features, i, ri, old, v);
                    if old != v && self.fsm_regs.contains(&i) {
                        p.record_transition(&mut trace.features, i, old, v);
                    }
                }
            }
            if advance && tok < job.len() {
                tok += 1;
                trace.tokens_consumed += 1;
            }
            trace.cycles = trace.cycles.saturating_add(1);
            trace.stepped_cycles = trace.stepped_cycles.saturating_add(1);
        }
    }

    /// If the current configuration is a skippable wait, applies the skip
    /// and returns `(cycles_charged, cycles_skipped)`.
    fn try_skip(
        &self,
        regs: &mut [u64],
        job: &JobInput,
        tok: usize,
        mode: ExecMode,
        trace: &mut JobTrace,
    ) -> Option<(u64, u64)> {
        for &f in &self.fsm_regs {
            let Some(plan) = self.waits.get(&(f, regs[f])) else {
                continue;
            };
            let cur = regs[plan.counter];
            let (remaining, terminal) = match plan.dir {
                WaitDir::Down => (cur, 0),
                WaitDir::Up => {
                    let bound = eval(plan.bound.as_ref()?, regs, job, tok);
                    (bound.saturating_sub(cur), bound)
                }
            };
            if remaining == 0 {
                return None;
            }
            let charged = match mode {
                ExecMode::FastForward => remaining,
                ExecMode::Compressed => {
                    if plan.serial {
                        remaining
                    } else {
                        1
                    }
                }
                ExecMode::Step => unreachable!("skip not attempted in Step mode"),
            };
            regs[plan.counter] = terminal;
            for &di in &plan.maybe_active_dps {
                if eval(&self.module.datapaths[di].active, regs, job, tok) != 0 {
                    trace.dp_active[di] = trace.dp_active[di].saturating_add(charged);
                }
            }
            return Some((charged, remaining));
        }
        None
    }
}

/// Evaluates an expression against the current registers and head token.
#[inline]
pub fn eval(e: &Expr, regs: &[u64], job: &JobInput, tok: usize) -> u64 {
    match e {
        Expr::Const(k) => *k,
        Expr::Reg(r) => regs[r.index()],
        Expr::Input(i) => {
            if tok < job.len() {
                job.get(tok, i.index())
            } else {
                0
            }
        }
        Expr::StreamEmpty => u64::from(tok >= job.len()),
        Expr::Bin(op, a, b) => op.apply(eval(a, regs, job, tok), eval(b, regs, job, tok)),
        Expr::Un(op, a) => op.apply(eval(a, regs, job, tok)),
        Expr::Mux(c, t, f) => {
            if eval(c, regs, job, tok) != 0 {
                eval(t, regs, job, tok)
            } else {
                eval(f, regs, job, tok)
            }
        }
    }
}

/// Convenience: the register id for a named register (used by tests and
/// examples).
///
/// # Errors
///
/// Returns [`RtlError::UnknownRegister`] when the module has no register
/// named `name`. Earlier revisions panicked here, which turned a probe
/// naming a missing register into a crash at whatever cycle first touched
/// it; callers now get a structured error up front instead.
pub fn reg_id(module: &Module, name: &str) -> Result<RegId, RtlError> {
    module.require_reg(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ModuleBuilder, E};

    /// A toy accelerator: for each token, waits `dur` cycles then emits.
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

    fn job(durs: &[u64]) -> JobInput {
        let mut j = JobInput::new(1);
        for &d in durs {
            j.push(&[d]);
        }
        j
    }

    #[test]
    fn step_runs_to_completion() {
        let m = toy();
        let sim = Simulator::new(&m);
        let t = sim.run(&job(&[5, 3]), ExecMode::Step, None).unwrap();
        assert_eq!(t.tokens_consumed, 2);
        assert!(t.cycles > 8);
        assert_eq!(t.skipped_cycles, 0);
        assert_eq!(t.stepped_cycles, t.cycles);
    }

    #[test]
    fn fast_forward_matches_step_exactly() {
        let m = toy();
        let sim = Simulator::new(&m);
        for durs in [&[0u64][..], &[1], &[7, 0, 3], &[100, 2, 50, 50]] {
            let (a, regs_a) = sim
                .run_with_state(&job(durs), ExecMode::Step, None)
                .unwrap();
            let (b, regs_b) = sim
                .run_with_state(&job(durs), ExecMode::FastForward, None)
                .unwrap();
            assert_eq!(a.cycles, b.cycles, "durs={durs:?}");
            assert_eq!(a.dp_active, b.dp_active, "durs={durs:?}");
            assert_eq!(a.tokens_consumed, b.tokens_consumed);
            assert!(b.skipped_cycles > 0 || durs.iter().all(|&d| d <= 1));
            assert_eq!(regs_a, regs_b, "final state must match, durs={durs:?}");
        }
    }

    #[test]
    fn all_modes_agree_on_final_register_state() {
        // Not just trace aggregates: the full flattened register file at
        // `done` must be identical across Step/FastForward/Compressed.
        // Compression rewrites *timing*, never architectural state.
        let m = toy();
        let sim = Simulator::new(&m);
        for durs in [&[0u64][..], &[5], &[9, 0, 2], &[60, 1, 60]] {
            let (_, step) = sim
                .run_with_state(&job(durs), ExecMode::Step, None)
                .unwrap();
            let (_, ff) = sim
                .run_with_state(&job(durs), ExecMode::FastForward, None)
                .unwrap();
            let (_, comp) = sim
                .run_with_state(&job(durs), ExecMode::Compressed, None)
                .unwrap();
            assert_eq!(step.len(), m.regs.len());
            assert_eq!(step, ff, "durs={durs:?}");
            assert_eq!(step, comp, "durs={durs:?}");
        }
    }

    #[test]
    fn compressed_mode_is_faster() {
        let m = toy();
        let sim = Simulator::new(&m);
        let full = sim
            .run(&job(&[100, 100]), ExecMode::FastForward, None)
            .unwrap();
        let slice = sim
            .run(&job(&[100, 100]), ExecMode::Compressed, None)
            .unwrap();
        assert!(slice.cycles < full.cycles / 2);
        assert_eq!(slice.tokens_consumed, full.tokens_consumed);
    }

    #[test]
    fn serial_states_resist_compression() {
        let mut b = ModuleBuilder::new("serial");
        let dur = b.input("dur", 16);
        let fsm = b.fsm("ctrl", &["FETCH", "SCAN", "EMIT"]);
        b.timed(
            &fsm,
            "FETCH",
            "SCAN",
            "EMIT",
            dur,
            E::stream_empty().is_zero(),
            "cnt",
        );
        b.trans(&fsm, "EMIT", "FETCH", E::one());
        b.datapath_serial("huff", fsm.in_state("SCAN"), 80.0, 0.7, 60, 0);
        b.advance_when(fsm.in_state("EMIT"));
        b.done_when(fsm.in_state("FETCH") & E::stream_empty());
        let m = b.build().unwrap();
        let sim = Simulator::new(&m);
        let full = sim.run(&job(&[40]), ExecMode::FastForward, None).unwrap();
        let slice = sim.run(&job(&[40]), ExecMode::Compressed, None).unwrap();
        assert_eq!(
            full.cycles, slice.cycles,
            "serial wait must keep its cycles"
        );
    }

    #[test]
    fn cycle_limit_detects_hangs() {
        let mut b = ModuleBuilder::new("hang");
        let fsm = b.fsm("ctrl", &["SPIN"]);
        let r = b.reg("x", 8, 0);
        b.set(r, fsm.in_state("SPIN"), r.e() + E::one());
        b.done_when(E::zero());
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m);
        sim.set_cycle_limit(100);
        let err = sim
            .run(&JobInput::new(0), ExecMode::Step, None)
            .unwrap_err();
        assert!(matches!(err, RtlError::CycleLimit { limit: 100 }));
    }

    #[test]
    fn reg_id_reports_unknown_register() {
        let m = toy();
        assert_eq!(
            reg_id(&m, "ctrl.state").unwrap(),
            m.reg_by_name("ctrl.state").unwrap()
        );
        let err = reg_id(&m, "nope").unwrap_err();
        assert_eq!(
            err,
            RtlError::UnknownRegister {
                module: "toy".into(),
                name: "nope".into(),
            }
        );
    }

    #[test]
    fn foreign_probes_rejected_before_cycle_zero() {
        use crate::analysis::Analysis;
        use crate::instrument::FeatureSchema;
        // Probes built for the toy module reference its counter register;
        // linked against a smaller module they must fail up front with
        // UnknownRegister, not at whatever cycle the probe first fires.
        let big = toy();
        let a = Analysis::run(&big);
        let p = FeatureSchema::from_analysis(&big, &a).probe_program(&a);
        let mut b = ModuleBuilder::new("small");
        let r = b.reg("x", 8, 0);
        b.set(r, E::one(), r.e() + E::one());
        b.done_when(r.e().eq_(E::k(3)));
        let small = b.build().unwrap();
        let sim = Simulator::new(&small);
        let err = sim
            .run(&JobInput::new(0), ExecMode::Step, Some(&p))
            .unwrap_err();
        assert!(
            matches!(err, RtlError::UnknownRegister { .. }),
            "got {err:?}"
        );
    }

    /// A count-up wait whose bound is an adversarial 64-bit input: the
    /// first skip charges ~2^64 cycles at once.
    fn overflow_module() -> Module {
        let mut b = ModuleBuilder::new("ovf");
        let n = b.input("n", 64);
        let fsm = b.fsm("ctrl", &["A", "W", "D"]);
        let c = b.reg("c", 64, 0);
        b.set(c, fsm.in_state("A"), E::zero());
        b.set(c, fsm.in_state("W") & c.e().lt(n.clone()), c.e() + E::one());
        b.trans(&fsm, "A", "W", E::one());
        b.trans(&fsm, "W", "D", c.e().eq_(n));
        b.done_when(fsm.in_state("D"));
        b.build().unwrap()
    }

    #[test]
    fn adversarial_wait_bound_saturates_and_hits_the_cycle_limit() {
        let m = overflow_module();
        let sim = Simulator::new(&m);
        let mut j = JobInput::new(1);
        j.push(&[u64::MAX]);
        // Before the saturation fix, `cycles += 2^64 - 1` wrapped back to
        // a tiny value and the run "succeeded" with a nonsense trace; now
        // the count pins at u64::MAX and the hang detector fires.
        let err = sim.run(&j, ExecMode::FastForward, None).unwrap_err();
        assert!(matches!(err, RtlError::CycleLimit { limit } if limit == 1 << 34));
    }

    #[test]
    fn non_terminating_guard_cannot_outrun_a_maximal_cycle_limit() {
        // done never asserts and every W visit charges ~2^64 cycles. Even
        // with the limit pushed to u64::MAX, saturation guarantees
        // `cycles >= limit` eventually holds instead of wrapping forever.
        let mut b = ModuleBuilder::new("spin");
        let n = b.input("n", 64);
        let fsm = b.fsm("ctrl", &["A", "W"]);
        let c = b.reg("c", 64, 0);
        b.set(c, fsm.in_state("A"), E::zero());
        b.set(c, fsm.in_state("W") & c.e().lt(n.clone()), c.e() + E::one());
        b.trans(&fsm, "A", "W", E::one());
        b.trans(&fsm, "W", "A", c.e().eq_(n));
        b.done_when(E::zero());
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m);
        sim.set_cycle_limit(u64::MAX);
        let mut j = JobInput::new(1);
        j.push(&[u64::MAX]);
        let err = sim.run(&j, ExecMode::FastForward, None).unwrap_err();
        assert!(matches!(err, RtlError::CycleLimit { limit: u64::MAX }));
    }

    #[test]
    fn datapath_activity_counts_match_wait_durations() {
        let m = toy();
        let sim = Simulator::new(&m);
        let t = sim
            .run(&job(&[10, 20]), ExecMode::FastForward, None)
            .unwrap();
        // The ALU is active exactly while RUN holds: duration+1 cycles per
        // token (counter drains duration times, exit observed one cycle
        // later).
        assert_eq!(t.dp_active[0], 11 + 21);
    }

    #[test]
    fn empty_stream_finishes_immediately() {
        let m = toy();
        let sim = Simulator::new(&m);
        let t = sim
            .run(&JobInput::new(1), ExecMode::FastForward, None)
            .unwrap();
        assert_eq!(t.cycles, 0);
        assert_eq!(t.tokens_consumed, 0);
    }

    #[test]
    fn job_input_accessors() {
        let mut j = JobInput::new(2);
        assert!(j.is_empty());
        j.push(&[1, 2]);
        j.push(&[3, 4]);
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(1, 0), 3);
        assert_eq!(j.fields(), 2);
    }

    #[test]
    #[should_panic(expected = "token arity mismatch")]
    fn job_input_rejects_wrong_arity() {
        let mut j = JobInput::new(2);
        j.push(&[1]);
    }
}
