//! A register-machine bytecode VM executing compiled modules.
//!
//! [`CompiledSim`] is the RTL engine: every production path (training
//! profiles, test traces, hardware slices, the CLI) runs on it. It is the
//! compiled counterpart of [`crate::interp::Simulator`]: same constructors,
//! same [`run`](CompiledSim::run)/[`run_with_state`](CompiledSim::run_with_state)
//! signatures, same error surface, and — by contract — *byte-identical*
//! output: traces, probe streams (STC/IC/AIV/APV feature accumulation in
//! the same floating-point order), and final register state all match the
//! interpreter on every input. The interpreter is kept only as the
//! differential oracle; the `differential` test suites and the proptest
//! fuzzer enforce the contract on the paper benchmarks, their slices, and
//! randomized designs.
//!
//! Execution model per job (mirroring the interpreter's loop shape
//! exactly, including the order of the `done` and cycle-limit checks and
//! the wait-skip attempt):
//!
//! 1. Pick the program bucket for the primary FSM's current state (or the
//!    generic fallback program, as the interpreter falls back to its flat
//!    schedule).
//! 2. `done` program says stop → return trace + stable state.
//! 3. Wait-state skip (non-`Step` modes): the interpreter's plans, scan
//!    order and arithmetic, with bound/activity expressions pre-compiled.
//!    In `Step` mode, runs of wait cycles are *batch
//!    retired* instead (`try_batch_step`): the analysis
//!    proves each wait cycle observationally featureless, so `m` of them
//!    fold into `counter ± m` / `dp_active += m` / `cycles += m` with
//!    Step-mode accounting (all stepped, none skipped) — byte-identical
//!    to per-cycle stepping, at fast-forward speed.
//! 4. Otherwise run the state's cycle program: guards/datapath
//!    activity/`advance` evaluate into scratch, stores land in the shadow
//!    region of the state buffer, then the commit loop moves shadow →
//!    stable in ascending register order, firing probe hooks with the same
//!    `(old, new)` pairs the interpreter produces.
//!
//! Steps 3 and 4 run on every cycle that is not skipped, and a hardware
//! slice is almost all such cycles, so everything they need is looked up
//! through the current bucket and nothing on the path hashes (CI fails if
//! this file or `instrument.rs` names a hashed collection):
//!
//! - the wait scan reads the bucketing FSM's plan from the bucket's plan
//!   index and binary-searches only the other FSM registers' tables
//!   (sorted by state, sized by the number of wait states);
//! - the probe hooks index [`ProbeProgram`]'s register-indexed tables, and
//!   a bucket's FSM transitions search only the STC columns leaving its
//!   state, split out once per run before cycle 0;
//! - no instruction loads a constant: the compiler interns every constant
//!   into one pool at the top of scratch, copied in once per run, and
//!   operands read it in place.
//!
//! The generic program, which has no state to key on, keeps the sorted
//! searches, exactly as the interpreter's flat fallback keeps its maps.
//!
//! All run-time mutable state (state buffer, scratch, fired list) is
//! allocated per [`run`](CompiledSim::run) call, so one `CompiledSim` can
//! serve many threads — the same `&self` contract the interpreter offers.

use crate::analysis::{Analysis, WaitDir};
use crate::compile::{self, Compiled, CompiledWait, ExprProgram, StatePrograms};
use crate::error::RtlError;
use crate::expr::{BinOp, UnOp};
use crate::instrument::ProbeProgram;
use crate::interp::{ExecMode, JobInput, JobTrace};
use crate::module::Module;

/// One bytecode instruction. Operands named `dst`/`a`/`b`/`c`/`t`/`f`/`src`
/// are scratch-register indices; `slot` indexes the flattened state buffer
/// (stable region `[0, n)`, shadow region `[n, 2n)`). There is no constant
/// instruction: a constant operand names its slot in the constant pool at
/// the top of scratch, which is loaded once per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Instr {
    /// `scratch[dst] = state[slot]` (stable-region read).
    Load { dst: u32, slot: u32 },
    /// `scratch[dst] = job[tok].field` (0 past the end of the stream).
    Input { dst: u32, field: u32 },
    /// `scratch[dst] = (tok >= job.len())`.
    StreamEmpty { dst: u32 },
    /// `scratch[dst] = op(scratch[a], scratch[b])`.
    Bin { dst: u32, op: BinOp, a: u32, b: u32 },
    /// `scratch[dst] = op(scratch[a])`.
    Un { dst: u32, op: UnOp, a: u32 },
    /// `scratch[dst] = scratch[c] != 0 ? scratch[t] : scratch[f]`.
    Sel { dst: u32, c: u32, t: u32, f: u32 },
    /// Jump to `to` when `scratch[src] == 0`.
    Jz { src: u32, to: u32 },
    /// Unconditional jump.
    Jmp { to: u32 },
    /// `state[slot] = scratch[src] & mask`; log `(reg, rule)` as fired.
    /// `slot` is always in the shadow region.
    Store {
        slot: u32,
        reg: u32,
        rule: u32,
        src: u32,
        mask: u64,
    },
    /// `dp_active[dp] += 1` (saturating).
    IncDp { dp: u32 },
}

/// Executes one straight-line program. Returns nothing; results live in
/// `scratch`, `state` (shadow stores), `fired`, and `dp_active`.
#[inline]
fn exec(
    code: &[Instr],
    state: &mut [u64],
    scratch: &mut [u64],
    job: &JobInput,
    tok: usize,
    fired: &mut Vec<(u32, u32)>,
    dp_active: &mut [u64],
) {
    let mut pc = 0usize;
    while let Some(i) = code.get(pc) {
        pc += 1;
        match *i {
            Instr::Load { dst, slot } => scratch[dst as usize] = state[slot as usize],
            Instr::Input { dst, field } => {
                scratch[dst as usize] = if tok < job.len() {
                    job.get(tok, field as usize)
                } else {
                    0
                };
            }
            Instr::StreamEmpty { dst } => {
                scratch[dst as usize] = u64::from(tok >= job.len());
            }
            Instr::Bin { dst, op, a, b } => {
                scratch[dst as usize] = op.apply(scratch[a as usize], scratch[b as usize]);
            }
            Instr::Un { dst, op, a } => {
                scratch[dst as usize] = op.apply(scratch[a as usize]);
            }
            Instr::Sel { dst, c, t, f } => {
                scratch[dst as usize] = if scratch[c as usize] != 0 {
                    scratch[t as usize]
                } else {
                    scratch[f as usize]
                };
            }
            Instr::Jz { src, to } => {
                if scratch[src as usize] == 0 {
                    pc = to as usize;
                }
            }
            Instr::Jmp { to } => pc = to as usize,
            Instr::Store {
                slot,
                reg,
                rule,
                src,
                mask,
            } => {
                state[slot as usize] = scratch[src as usize] & mask;
                fired.push((reg, rule));
            }
            Instr::IncDp { dp } => {
                let d = &mut dp_active[dp as usize];
                *d = d.saturating_add(1);
            }
        }
    }
}

/// Evaluates a compiled single-expression program and returns its value.
#[inline]
fn exec_expr(
    p: &ExprProgram,
    state: &mut [u64],
    scratch: &mut [u64],
    job: &JobInput,
    tok: usize,
) -> u64 {
    if let Some(k) = p.konst {
        return k;
    }
    // Expression programs contain no Store/IncDp, so the fired/dp sinks
    // are never touched; empty ones keep the shared interpreter loop.
    let mut fired = Vec::new();
    let mut dp: [u64; 0] = [];
    exec(&p.code, state, scratch, job, tok, &mut fired, &mut dp);
    debug_assert!(fired.is_empty());
    scratch[p.out as usize]
}

/// Compiled execution engine for one module.
///
/// Construction compiles the module (flatten → schedule → lower, see the
/// crate-private `compile` module); [`CompiledSim::run`] may then be
/// called once per job, from any number of threads. The compiled program
/// holds everything a run needs, so the engine does not borrow the module
/// and can be stored next to it.
#[derive(Debug)]
pub struct CompiledSim {
    /// Module name, for probe-link errors.
    name: String,
    n_datapaths: usize,
    c: Compiled,
    cycle_limit: u64,
}

impl CompiledSim {
    /// Compiles `module`, running the static analyses to enable
    /// fast-forwarding.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError`] if the module fails validation — the compiler
    /// reports dangling register/input references at compile time, where
    /// the interpreter would only hit them at the first cycle that
    /// evaluates the offending expression.
    pub fn new(module: &Module) -> Result<CompiledSim, RtlError> {
        let analysis = Analysis::run(module);
        CompiledSim::with_analysis(module, &analysis)
    }

    /// Compiles `module` from a precomputed [`Analysis`].
    ///
    /// # Errors
    ///
    /// As for [`CompiledSim::new`].
    pub fn with_analysis(module: &Module, analysis: &Analysis) -> Result<CompiledSim, RtlError> {
        let _span = predvfs_obs::span("rtl.compile");
        let c = compile::compile(module, analysis)?;
        Ok(CompiledSim {
            name: module.name.clone(),
            n_datapaths: module.datapaths.len(),
            c,
            cycle_limit: 1 << 34,
        })
    }

    /// Overrides the default cycle budget (2³⁴) after which a job is
    /// declared hung.
    pub fn set_cycle_limit(&mut self, limit: u64) {
        self.cycle_limit = limit;
    }

    /// Runs one job to completion; see [`crate::interp::Simulator::run`]
    /// for the contract — the compiled engine is observationally identical.
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

    /// Like [`CompiledSim::run`], but also returns the final register file
    /// — the stable region of the flattened state buffer at the cycle
    /// `done` asserted. Layout matches
    /// [`crate::interp::Simulator::run_with_state`] exactly: one `u64` per
    /// register, in declaration order.
    ///
    /// # Errors
    ///
    /// As for [`CompiledSim::run`].
    pub fn run_with_state(
        &self,
        job: &JobInput,
        mode: ExecMode,
        probes: Option<&ProbeProgram>,
    ) -> Result<(JobTrace, Vec<u64>), RtlError> {
        // One span per job, never per cycle: the inner loop stays free of
        // profiling branches beyond the wait-batch retirement below.
        let _span = predvfs_obs::span("rtl.vm.run");
        let c = &self.c;
        // Resolved before cycle 0: the bucketing FSM's STC columns by
        // source state, so a bucket's commits search only its successors.
        let mut bucket_stc = None;
        if let Some(p) = probes {
            p.validate_regs(&self.name, c.n_regs)?;
            bucket_stc = c.fsm.map(|f| (f, p.stc_by_src(f, c.by_state.len())));
        }
        let n = c.n_regs;
        let mut state = c.init.clone();
        let mut scratch = c.scratch.clone();
        let mut fired: Vec<(u32, u32)> = Vec::with_capacity(16);
        let mut trace = JobTrace {
            cycles: 0,
            dp_active: vec![0; self.n_datapaths],
            tokens_consumed: 0,
            stepped_cycles: 0,
            skipped_cycles: 0,
            features: probes
                .map(|p| vec![0.0; p.feature_count()])
                .unwrap_or_default(),
        };
        if let Some(p) = probes {
            if let Some(b) = p.bias_index() {
                trace.features[b] = 1.0;
            }
        }
        let mut tok = 0usize;
        loop {
            // Bucket selection mirrors the interpreter: out-of-range FSM
            // values fall back to the generic (flat-schedule) program.
            let bucket = c.fsm.and_then(|f| c.by_state.get(state[f] as usize));
            let progs = bucket.unwrap_or(&c.generic);
            if exec_expr(&progs.done, &mut state, &mut scratch, job, tok) != 0 {
                state.truncate(n);
                return Ok((trace, state));
            }
            if trace.cycles >= self.cycle_limit {
                return Err(RtlError::CycleLimit {
                    limit: self.cycle_limit,
                });
            }
            if mode != ExecMode::Step {
                if let Some(skip) =
                    self.try_skip(bucket, &mut state, &mut scratch, job, tok, mode, &mut trace)
                {
                    // Saturate exactly as the interpreter does: adversarial
                    // bounds can make one skip cover ~2^64 cycles.
                    trace.cycles = trace.cycles.saturating_add(skip.0);
                    trace.skipped_cycles = trace.skipped_cycles.saturating_add(skip.1);
                    continue;
                }
            } else if let Some(m) =
                self.try_batch_step(bucket, &mut state, &mut scratch, job, tok, &mut trace)
            {
                // Wait cycles retired in a batch still count as *stepped*:
                // Step mode's accounting is per-cycle, only its execution
                // is batched.
                trace.cycles = trace.cycles.saturating_add(m);
                trace.stepped_cycles = trace.stepped_cycles.saturating_add(m);
                continue;
            }
            fired.clear();
            exec(
                &progs.cycle.code,
                &mut state,
                &mut scratch,
                job,
                tok,
                &mut fired,
                &mut trace.dp_active,
            );
            let advance = scratch[progs.cycle.advance as usize] != 0;
            // Commit shadow → stable in ascending register order — the
            // same order the interpreter applies its `changes` list — so
            // probe streams accumulate in an identical sequence.
            for &(reg, rule) in &fired {
                let (reg, rule) = (reg as usize, rule as usize);
                let old = state[reg];
                let v = state[n + reg];
                state[reg] = v;
                if let Some(p) = probes {
                    p.record_counter_init(&mut trace.features, reg, rule, old, v);
                    if old != v && c.is_fsm_reg[reg] {
                        match &bucket_stc {
                            // In a bucket, the bucketing FSM's `old` is the
                            // bucket's state.
                            Some((f, stc)) if *f == reg && bucket.is_some() => {
                                stc.record(&mut trace.features, old as usize, v);
                            }
                            _ => p.record_transition(&mut trace.features, reg, old, v),
                        }
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

    /// The plan that decides this cycle's wait scan: that of the lowest
    /// FSM register whose current state is a wait state (the
    /// interpreter's scan order). The bucketing FSM's plan comes straight
    /// from the current bucket; other FSMs, and every FSM in the generic
    /// program, binary-search their tables.
    #[inline]
    fn wait_plan(&self, bucket: Option<&StatePrograms>, state: &[u64]) -> Option<&CompiledWait> {
        let c = &self.c;
        c.waits
            .iter()
            .enumerate()
            .find_map(|(t, table)| match bucket {
                Some(b) if c.bucket_waits == Some(t) => b.wait.map(|i| &table.plans[i].1),
                _ => table.get(state[table.fsm]),
            })
    }

    /// If the current configuration is a skippable wait, applies the skip
    /// and returns `(cycles_charged, cycles_skipped)` — the interpreter's
    /// `try_skip`, with bound/activity expressions pre-compiled. A plan
    /// with nothing left to skip, or without a bound, stops the scan.
    #[allow(clippy::too_many_arguments)]
    fn try_skip(
        &self,
        bucket: Option<&StatePrograms>,
        state: &mut [u64],
        scratch: &mut [u64],
        job: &JobInput,
        tok: usize,
        mode: ExecMode,
        trace: &mut JobTrace,
    ) -> Option<(u64, u64)> {
        let plan = self.wait_plan(bucket, state)?;
        let cur = state[plan.counter];
        let (remaining, terminal) = match plan.dir {
            WaitDir::Down => (cur, 0),
            WaitDir::Up => {
                let bound = exec_expr(plan.bound.as_ref()?, state, scratch, job, tok);
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
        // Counter jumps to its terminal value *before* datapath activity
        // is evaluated — the activity condition may read it.
        state[plan.counter] = terminal;
        for (di, prog) in &plan.dps {
            if exec_expr(prog, state, scratch, job, tok) != 0 {
                trace.dp_active[*di] = trace.dp_active[*di].saturating_add(charged);
            }
        }
        Some((charged, remaining))
    }

    /// Step-mode analogue of [`CompiledSim::try_skip`]: retires a run of
    /// wait cycles in one batch, byte-identical to stepping them one at a
    /// time.
    ///
    /// The wait-state analysis guarantees each wait cycle is individually
    /// deterministic and observationally featureless: only the counter
    /// ticks (±1 per cycle; its tick rule is never a probe init rule, and
    /// rules of every other register are provably inactive), datapath
    /// activity conditions never read the counter (so they are constant
    /// across the wait), `advance` and `done` are provably 0, and the
    /// token stream is frozen. The per-cycle trace deltas are therefore
    /// uniform, and `m` cycles fold into `counter ± m`, `dp_active += m`,
    /// `cycles/stepped += m` — exactly what `m` interpreter steps produce.
    ///
    /// The batch is capped at the remaining cycle budget so a wait that
    /// crosses the limit still surfaces [`RtlError::CycleLimit`] at the
    /// same cycle the interpreter reports it. The exit cycle (counter
    /// exhausted) is *not* part of the batch: exit-gated rules fire there,
    /// so it runs through the ordinary per-cycle path.
    fn try_batch_step(
        &self,
        bucket: Option<&StatePrograms>,
        state: &mut [u64],
        scratch: &mut [u64],
        job: &JobInput,
        tok: usize,
        trace: &mut JobTrace,
    ) -> Option<u64> {
        let plan = self.wait_plan(bucket, state)?;
        if self.c.is_fsm_reg[plan.counter] {
            // A counter that doubles as an FSM register would emit a
            // transition probe per tick; step it cycle by cycle.
            return None;
        }
        let cur = state[plan.counter];
        let remaining = match plan.dir {
            WaitDir::Down => cur,
            WaitDir::Up => {
                let bound = exec_expr(plan.bound.as_ref()?, state, scratch, job, tok);
                bound.saturating_sub(cur)
            }
        };
        if remaining == 0 {
            return None;
        }
        // The span opens only once a batch is certain to retire, so
        // non-wait Step cycles pay nothing for it.
        let _span = predvfs_obs::span("rtl.vm.wait_batch");
        // `cycles < cycle_limit` was checked just above, so the cap is at
        // least 1; a capped batch leaves the counter mid-wait and the next
        // loop iteration reports `CycleLimit` exactly where the
        // interpreter would.
        let m = remaining.min(self.cycle_limit - trace.cycles);
        match plan.dir {
            WaitDir::Down => state[plan.counter] = cur - m,
            WaitDir::Up => state[plan.counter] = cur + m,
        }
        for (di, prog) in &plan.dps {
            if exec_expr(prog, state, scratch, job, tok) != 0 {
                trace.dp_active[*di] = trace.dp_active[*di].saturating_add(m);
            }
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ModuleBuilder, E};
    use crate::instrument::FeatureSchema;
    use crate::interp::Simulator;

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

    fn assert_identical(m: &Module, j: &JobInput, probed: bool) {
        assert_identical_under(m, &Analysis::run(m), j, probed);
    }

    /// Both engines under the same (possibly hand-built) analysis: equal
    /// traces, feature bits and final state in every mode. Returns the
    /// traces in `Step`, `FastForward`, `Compressed` order.
    fn assert_identical_under(
        m: &Module,
        a: &Analysis,
        j: &JobInput,
        probed: bool,
    ) -> Vec<JobTrace> {
        let probes = probed.then(|| {
            let s = FeatureSchema::from_analysis(m, a);
            s.probe_program(a)
        });
        let interp = Simulator::with_analysis(m, a);
        let vm = CompiledSim::with_analysis(m, a).unwrap();
        let bits = |t: &JobTrace| t.features.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut traces = Vec::new();
        for mode in [ExecMode::Step, ExecMode::FastForward, ExecMode::Compressed] {
            let want = interp.run_with_state(j, mode, probes.as_ref()).unwrap();
            let got = vm.run_with_state(j, mode, probes.as_ref()).unwrap();
            assert_eq!(want, got, "mode {mode:?} probed={probed}");
            assert_eq!(bits(&want.0), bits(&got.0), "mode {mode:?} feature bits");
            traces.push(got.0);
        }
        traces
    }

    #[test]
    fn vm_matches_interpreter_on_toy_module() {
        let m = toy();
        for durs in [&[0u64][..], &[1], &[5, 3], &[7, 0, 3], &[100, 2, 50, 50]] {
            assert_identical(&m, &job(durs), false);
            assert_identical(&m, &job(durs), true);
        }
        assert_identical(&m, &JobInput::new(1), true);
    }

    /// Two FSMs that can sit in wait states at once. `lo` (the lower
    /// register) waits 3 cycles; `hi` loads its counter on the same cycle
    /// but ticks only once `lo` is `DONE`, so at `lo`'s exit cycle `hi` is
    /// mid-wait. The analysis proves neither wait (each FSM's exit rule is
    /// live during the other's wait), so the plans are hand-built; they
    /// hold because `hi` is frozen while `lo` waits and `lo` is `DONE`
    /// while `hi` waits.
    fn two_waiting_fsms() -> (Module, Analysis) {
        let mut b = ModuleBuilder::new("pair");
        let lo = b.fsm("lo", &["IDLE", "WAIT", "DONE"]);
        let lo_c = b.reg("lo.cnt", 32, 0);
        let hi = b.fsm("hi", &["IDLE", "WAIT", "DONE"]);
        let hi_c = b.reg("hi.cnt", 32, 0);
        b.enter_wait(&lo, "IDLE", "WAIT", lo_c, E::k(3), E::one());
        b.set(
            lo_c,
            lo.in_state("WAIT") & lo_c.e().gt(E::zero()),
            lo_c.e() - E::one(),
        );
        b.trans(&lo, "WAIT", "DONE", lo_c.e().eq_(E::zero()));
        b.enter_wait(&hi, "IDLE", "WAIT", hi_c, E::k(5), E::one());
        b.set(
            hi_c,
            hi.in_state("WAIT") & hi_c.e().gt(E::zero()) & lo.in_state("DONE"),
            hi_c.e() - E::one(),
        );
        b.trans(&hi, "WAIT", "DONE", hi_c.e().eq_(E::zero()));
        b.datapath_compute("lo.alu", lo.in_state("WAIT"), 100.0, 1.0, 10, 1);
        b.datapath_compute("hi.alu", hi.in_state("WAIT"), 100.0, 1.0, 10, 1);
        b.done_when(lo.in_state("DONE") & hi.in_state("DONE"));
        let m = b.build().unwrap();
        let mut a = Analysis::run(&m);
        assert_eq!(a.fsms.len(), 2);
        assert!(a.waits.is_empty(), "the analysis proves neither wait");
        for (fsm, counter) in [(lo.reg(), lo_c), (hi.reg(), hi_c)] {
            a.waits.push(crate::analysis::WaitState {
                fsm: fsm.id(),
                state: 1,
                counter: counter.id(),
                dir: WaitDir::Down,
                bound: None,
                exit_to: 2,
                maybe_active_dps: vec![0, 1],
                serial: false,
            });
        }
        (m, a)
    }

    #[test]
    fn exhausted_lower_fsm_wait_stops_the_scan() {
        // At lo's exit cycle lo's plan has nothing left to skip: the scan
        // must step that cycle, not fall through to hi's live plan.
        let (m, a) = two_waiting_fsms();
        for probed in [false, true] {
            let traces = assert_identical_under(&m, &a, &JobInput::new(0), probed);
            // FastForward: enter (1) + skip lo (3) + lo exit (1) + skip hi
            // (5) + hi exit (1). Falling through to hi at lo's exit cycle
            // would retire both exits in one step and report 10 cycles.
            let ff = &traces[1];
            assert_eq!((ff.cycles, ff.skipped_cycles), (11, 8));
            assert_eq!(traces[0].cycles, 11, "Step agrees on the length");
        }
    }

    #[test]
    fn duplicate_wait_entries_keep_the_last() {
        // A hand-built analysis may list a (fsm, state) twice; like the
        // interpreter's map, the later entry wins. The first one here (a
        // count-up wait without a bound) would refuse every skip.
        let m = toy();
        let mut a = Analysis::run(&m);
        let real = a.waits[0].clone();
        let mut bogus = real.clone();
        bogus.dir = WaitDir::Up;
        bogus.bound = None;
        a.waits = vec![bogus, real];
        let traces = assert_identical_under(&m, &a, &job(&[6, 2]), true);
        assert_eq!(traces[1].skipped_cycles, 6 + 2);
    }

    #[test]
    fn vm_matches_interpreter_without_an_fsm() {
        // No detectable FSM: both engines run their flat/generic paths.
        let mut b = ModuleBuilder::new("flat");
        let x = b.reg("x", 8, 0);
        let y = b.reg("y", 16, 1);
        b.set(x, E::one(), x.e() + E::one());
        b.set(y, x.e().gt(E::k(3)), y.e() + x.e());
        b.done_when(x.e().ge(E::k(200)));
        let m = b.build().unwrap();
        assert_identical(&m, &JobInput::new(0), false);
    }

    /// A toy-shaped design on an FSM with the explicit encodings
    /// `{0, wait, exit}`: FETCH is 0, the counter wait is `wait` and EMIT
    /// is `exit`, so the largest of them decides which side of the
    /// 4096-state bucketing cap the FSM falls on.
    fn sparse_fsm(wait: u64, exit: u64) -> Module {
        let mut b = ModuleBuilder::new("sparse");
        let dur = b.input("dur", 16);
        let st = b.reg("ctrl.state", 13, 0);
        let cnt = b.reg("ctrl.cnt", 32, 0);
        let at = |s: u64| st.e().eq_(E::k(s));
        let go = E::stream_empty().is_zero();
        b.set(st, at(0) & go.clone(), E::k(wait));
        b.set(st, at(wait) & cnt.e().eq_(E::zero()), E::k(exit));
        b.set(st, at(exit), E::zero());
        b.set(cnt, at(0) & go, dur);
        b.set(cnt, at(wait) & cnt.e().gt(E::zero()), cnt.e() - E::one());
        b.datapath_compute("alu", at(wait), 500.0, 2.0, 100, 1);
        b.advance_when(at(exit));
        b.done_when(at(0) & E::stream_empty());
        b.build().unwrap()
    }

    #[test]
    fn fsms_on_both_sides_of_the_bucketing_cap_match_the_interpreter() {
        // 4096 is bucketed (4097 state programs); 5000 is past the cap,
        // so every cycle runs the generic program and its probe and wait
        // lookups take their general paths.
        for (exit, buckets) in [(4096, 4097), (5000, 0)] {
            let m = sparse_fsm(7, exit);
            let a = Analysis::run(&m);
            let st = m.reg_by_name("ctrl.state").unwrap();
            assert_eq!(a.fsms.len(), 1, "exit {exit}");
            assert_eq!(a.fsms[0].reg, st);
            assert_eq!(a.fsms[0].transition_pairs(), [(0, 7), (7, exit), (exit, 0)]);
            assert_eq!(a.waits.len(), 1);
            assert_eq!((a.waits[0].fsm, a.waits[0].state), (st, 7));
            assert_eq!(a.waits[0].exit_to, exit);
            let schema = FeatureSchema::from_analysis(&m, &a);
            let stc: Vec<_> = schema
                .descs()
                .iter()
                .filter(|d| matches!(d.kind, crate::instrument::FeatureKind::Stc { .. }))
                .map(|d| d.name.as_str())
                .collect();
            assert_eq!(
                stc,
                [
                    "stc[ctrl.state:0->7]".to_owned(),
                    format!("stc[ctrl.state:7->{exit}]"),
                    format!("stc[ctrl.state:{exit}->0]"),
                ]
            );
            let vm = CompiledSim::with_analysis(&m, &a).unwrap();
            assert_eq!(vm.c.by_state.len(), buckets);
            for durs in [&[0u64][..], &[4], &[6, 0, 3]] {
                for probed in [false, true] {
                    let traces = assert_identical_under(&m, &a, &job(durs), probed);
                    let want: u64 = durs.iter().sum();
                    assert_eq!(traces[1].skipped_cycles, want, "the wait is skipped");
                }
            }
        }
    }

    #[test]
    fn states_without_a_bucket_keep_the_sorted_lookups() {
        // An analysis that knows only the states {0, 2} buckets 0..=2, so
        // the wait state 9 runs the generic program: its wait plan and
        // its 9 -> 2 transition are found by search, while 0 -> 9 and
        // 2 -> 0 are recorded through their buckets.
        let m = sparse_fsm(9, 2);
        let mut a = Analysis::run(&m);
        assert_eq!(
            a.fsms[0].states.iter().copied().collect::<Vec<_>>(),
            [0, 2, 9]
        );
        assert_eq!(a.waits[0].state, 9);
        a.fsms[0].states.remove(&9);
        let vm = CompiledSim::with_analysis(&m, &a).unwrap();
        assert_eq!(vm.c.by_state.len(), 3);
        assert!(vm.c.by_state.iter().all(|p| p.wait.is_none()));
        let schema = FeatureSchema::from_analysis(&m, &a);
        for probed in [false, true] {
            let traces = assert_identical_under(&m, &a, &job(&[5, 0, 2]), probed);
            assert_eq!(traces[1].skipped_cycles, 5 + 2, "the wait is skipped");
            if probed {
                // One tour of FETCH -> W -> EMIT -> FETCH per token.
                for (i, d) in schema.descs().iter().enumerate() {
                    if d.name.starts_with("stc[") {
                        assert_eq!(traces[0].features[i], 3.0, "{}", d.name);
                    }
                }
            }
        }
    }

    #[test]
    fn vm_reports_cycle_limit_like_interpreter() {
        let mut b = ModuleBuilder::new("hang");
        let fsm = b.fsm("ctrl", &["SPIN"]);
        let r = b.reg("x", 8, 0);
        b.set(r, fsm.in_state("SPIN"), r.e() + E::one());
        b.done_when(E::zero());
        let m = b.build().unwrap();
        let mut vm = CompiledSim::new(&m).unwrap();
        vm.set_cycle_limit(100);
        let err = vm.run(&JobInput::new(0), ExecMode::Step, None).unwrap_err();
        assert!(matches!(err, RtlError::CycleLimit { limit: 100 }));
    }

    #[test]
    fn vm_rejects_foreign_probes_before_cycle_zero() {
        let big = toy();
        let a = Analysis::run(&big);
        let p = FeatureSchema::from_analysis(&big, &a).probe_program(&a);
        let mut b = ModuleBuilder::new("small");
        let r = b.reg("x", 8, 0);
        b.set(r, E::one(), r.e() + E::one());
        b.done_when(r.e().eq_(E::k(3)));
        let small = b.build().unwrap();
        let vm = CompiledSim::new(&small).unwrap();
        let err = vm
            .run(&JobInput::new(0), ExecMode::Step, Some(&p))
            .unwrap_err();
        assert!(matches!(err, RtlError::UnknownRegister { .. }));
    }

    #[test]
    fn batched_step_respects_the_cycle_limit_mid_wait() {
        // A 1000-cycle wait against a 50-cycle budget: the batch must be
        // capped so CycleLimit surfaces at the same cycle the interpreter
        // reports it, not after the whole wait retires.
        let m = toy();
        let mut vm = CompiledSim::new(&m).unwrap();
        vm.set_cycle_limit(50);
        let mut interp = Simulator::new(&m);
        interp.set_cycle_limit(50);
        let want = interp.run(&job(&[1000]), ExecMode::Step, None).unwrap_err();
        let got = vm.run(&job(&[1000]), ExecMode::Step, None).unwrap_err();
        assert!(matches!(got, RtlError::CycleLimit { limit: 50 }));
        assert_eq!(format!("{want}"), format!("{got}"));
    }

    #[test]
    fn vm_saturates_on_adversarial_wait_bounds() {
        let mut b = ModuleBuilder::new("ovf");
        let n = b.input("n", 64);
        let fsm = b.fsm("ctrl", &["A", "W", "D"]);
        let c = b.reg("c", 64, 0);
        b.set(c, fsm.in_state("A"), E::zero());
        b.set(c, fsm.in_state("W") & c.e().lt(n.clone()), c.e() + E::one());
        b.trans(&fsm, "A", "W", E::one());
        b.trans(&fsm, "W", "D", c.e().eq_(n));
        b.done_when(fsm.in_state("D"));
        let m = b.build().unwrap();
        let vm = CompiledSim::new(&m).unwrap();
        let mut j = JobInput::new(1);
        j.push(&[u64::MAX]);
        let err = vm.run(&j, ExecMode::FastForward, None).unwrap_err();
        assert!(matches!(err, RtlError::CycleLimit { limit } if limit == 1 << 34));
    }

    #[test]
    fn vm_is_shareable_across_threads() {
        let m = toy();
        let vm = CompiledSim::new(&m).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let t = vm.run(&job(&[9, 2]), ExecMode::FastForward, None).unwrap();
                    assert_eq!(t.tokens_consumed, 2);
                });
            }
        });
    }
}
