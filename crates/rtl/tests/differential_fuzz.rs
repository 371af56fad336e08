//! Property-based differential testing: the compiled VM against the
//! interpreter oracle on randomly generated FSMD designs.
//!
//! The generator builds small but structurally varied accelerators with the
//! same [`ModuleBuilder`] idioms the benchmark designs use — chains of
//! 1..=3 wait states with input-derived, offset, constant, or scaled
//! durations, optional compute/serial datapaths per stage, an optional
//! accumulator register that is neither an FSM nor a counter, and an
//! optional second FSM with its own counter waits. Every design runs under
//! both engines in all three execution modes, probed and unprobed, and the
//! full observable surface must match bit for bit: [`JobTrace`] (cycles,
//! per-datapath activity, token counts, and the floating-point feature
//! stream) and the final flattened register file.
//!
//! The same harness also checks the mode-equivalence law on the random
//! designs: `FastForward` and `Compressed` must agree with `Step` on the
//! final register state.
//!
//! A second property fuzzes the compiler's constant folding at the
//! expression level: a random expression tree over every operator, edge
//! constants and all four kinds of leaf (a multi-bit register, the FSM
//! register that state specialization folds, an input field and
//! `StreamEmpty`) becomes a rule guard, a rule value and a datapath
//! activity of a small FSM design, and both engines must return the same
//! `Result` under a low cycle limit.

use proptest::prelude::*;

use predvfs_rtl::analysis::{provably_zero_in, WaitDir, WaitState};
use predvfs_rtl::builder::{ModuleBuilder, E};
use predvfs_rtl::{
    Analysis, CompiledSim, DatapathKind, ExecMode, FeatureSchema, JobInput, JobTrace, Module,
    ProbeProgram, Simulator,
};

/// One wait stage of the generated pipeline.
#[derive(Debug, Clone, Copy)]
struct Stage {
    /// Duration expression: 0 = input field, 1 = input + k, 2 = constant k,
    /// 3 = input * 2.
    dur: u8,
    /// Attached datapath: 0 = none, 1 = compute, 2 = serial.
    dp: u8,
}

/// The optional second FSM `aux`: a chain of counter waits `V0..` that
/// runs while the primary FSM `ctrl` sits in its `HAND` state, between its
/// last wait stage and `EMIT`.
///
/// Every `aux` rule (its counters' ticks included) carries a
/// `ctrl == HAND` conjunct, and `ctrl` leaves `HAND` only once `aux`
/// reaches `BDONE`, so each FSM is idle while the other waits. The
/// analysis still proves `ctrl`'s waits. It cannot prove `aux`'s, because
/// their ticks are gated on the other FSM, so [`analyze`] adds them by
/// hand. They hold by construction, which the mode-equivalence law
/// below re-checks on every case.
#[derive(Debug, Clone, Copy)]
struct Aux {
    /// Declare `aux`'s state register before `ctrl`'s, so it gets the
    /// lower index, leads the wait scan and becomes the bucketing FSM.
    below: bool,
    /// Number of chained waits: 1 or 2.
    waits: u8,
    /// Duration: 0 = input field (may be 0), 1 = constant.
    dur: u8,
    /// Datapath on `V0`: 0 = none, 1 = compute, 2 = serial.
    dp: u8,
}

fn aux_states(x: Aux) -> Vec<String> {
    let mut names = vec!["IDLE".to_owned()];
    names.extend((0..x.waits).map(|j| format!("V{j}")));
    names.push("BDONE".to_owned());
    names
}

fn build(stages: &[Stage], with_acc: bool, aux: Option<Aux>) -> Module {
    let mut b = ModuleBuilder::new("fuzz");
    let a = b.input("a", 8);
    let aux_fsm_of = |b: &mut ModuleBuilder, x: Aux| {
        let names = aux_states(x);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        b.fsm("aux", &refs)
    };
    let aux_below = aux.filter(|x| x.below).map(|x| aux_fsm_of(&mut b, x));
    let mut names: Vec<String> = vec!["FETCH".to_owned()];
    for i in 0..stages.len() {
        names.push(format!("W{i}"));
    }
    if aux.is_some() {
        names.push("HAND".to_owned());
    }
    names.push("EMIT".to_owned());
    let state_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let fsm = b.fsm("ctrl", &state_refs);
    let aux_fsm = aux_below.or_else(|| aux.map(|x| aux_fsm_of(&mut b, x)));
    let after_stages = if aux.is_some() { "HAND" } else { "EMIT" };
    let mut counters: Vec<predvfs_rtl::builder::Reg> = Vec::new();
    for (i, stage) in stages.iter().enumerate() {
        let this = format!("W{i}");
        let next = if i + 1 == stages.len() {
            after_stages.to_owned()
        } else {
            format!("W{}", i + 1)
        };
        let c = b.wait_state(&fsm, &this, &next, &format!("c{i}"));
        let k = 2 + i as u64;
        let dur = match stage.dur {
            0 => a.clone(),
            1 => a.clone() + E::k(k),
            2 => E::k(k),
            _ => a.clone() * E::k(2),
        };
        if i == 0 {
            b.enter_wait(&fsm, "FETCH", "W0", c, dur, E::stream_empty().is_zero());
        } else {
            let prev = counters[i - 1];
            b.set(
                c,
                fsm.in_state(&format!("W{}", i - 1)) & prev.e().eq_(E::zero()),
                dur,
            );
        }
        match stage.dp {
            0 => {}
            1 => b.datapath_compute(&format!("d{i}"), fsm.in_state(&this), 100.0, 1.0, 10, 1),
            _ => b.datapath_serial(&format!("d{i}"), fsm.in_state(&this), 50.0, 0.5, 5, 0),
        }
        counters.push(c);
    }
    if let (Some(x), Some(aux_fsm)) = (aux, &aux_fsm) {
        let hand = fsm.in_state("HAND");
        let mut prev: Option<predvfs_rtl::builder::Reg> = None;
        for j in 0..x.waits {
            let this = format!("V{j}");
            let next = if j + 1 == x.waits {
                "BDONE".to_owned()
            } else {
                format!("V{}", j + 1)
            };
            let c = b.reg(&format!("v{j}"), 32, 0);
            let dur = if x.dur == 0 {
                a.clone()
            } else {
                E::k(2 + u64::from(j))
            };
            let entry = match prev {
                None => aux_fsm.in_state("IDLE"),
                Some(p) => aux_fsm.in_state(&format!("V{}", j - 1)) & p.e().eq_(E::zero()),
            };
            b.set(c, entry & hand.clone(), dur);
            b.set(
                c,
                aux_fsm.in_state(&this) & c.e().gt(E::zero()) & hand.clone(),
                c.e() - E::one(),
            );
            b.trans(aux_fsm, &this, &next, c.e().eq_(E::zero()) & hand.clone());
            prev = Some(c);
        }
        b.trans(aux_fsm, "IDLE", "V0", hand.clone());
        b.trans(aux_fsm, "BDONE", "IDLE", hand);
        b.trans(&fsm, "HAND", "EMIT", aux_fsm.in_state("BDONE"));
        match x.dp {
            0 => {}
            1 => b.datapath_compute("aux.d", aux_fsm.in_state("V0"), 80.0, 1.0, 8, 0),
            _ => b.datapath_serial("aux.d", aux_fsm.in_state("V0"), 40.0, 0.5, 4, 0),
        }
    }
    b.trans(&fsm, "EMIT", "FETCH", E::one());
    if with_acc {
        // Neither an FSM nor a counter: exercises plain-register commits
        // and specialization of a multi-term value expression.
        let acc = b.reg("acc", 32, 0);
        b.set(acc, fsm.in_state("EMIT"), acc.e() + a.clone() + E::one());
    }
    b.advance_when(fsm.in_state("EMIT"));
    b.done_when(fsm.in_state("FETCH") & E::stream_empty());
    b.build().expect("generated module must be valid")
}

/// [`Analysis::run`] plus the `aux` waits it cannot prove (see [`Aux`]),
/// with the datapath set and `serial` flag the analysis would derive.
fn analyze(m: &Module, aux: Option<Aux>) -> Analysis {
    let mut analysis = Analysis::run(m);
    if let Some(x) = aux {
        let fsm = m.reg_by_name("aux.state").expect("aux FSM register");
        for j in 0..x.waits {
            let state = u64::from(j) + 1;
            let maybe_active_dps: Vec<usize> = (0..m.datapaths.len())
                .filter(|&di| !provably_zero_in(&m.datapaths[di].active, fsm, state))
                .collect();
            let serial = maybe_active_dps
                .iter()
                .any(|&di| m.datapaths[di].kind == DatapathKind::Serial);
            analysis.waits.push(WaitState {
                fsm,
                state,
                counter: m.reg_by_name(&format!("v{j}")).expect("aux counter"),
                dir: WaitDir::Down,
                bound: None,
                exit_to: state + 1,
                maybe_active_dps,
                serial,
            });
        }
    }
    analysis
}

fn aux_strategy() -> impl Strategy<Value = Option<Aux>> {
    (0..3u8, 1..=2u8, 0..2u8, 0..3u8).prop_map(|(place, waits, dur, dp)| {
        (place > 0).then_some(Aux {
            below: place == 1,
            waits,
            dur,
            dp,
        })
    })
}

/// Runs `j` on both engines in every mode and requires identical traces
/// (feature bits included) and final state; returns the final states in
/// `Step`, `FastForward`, `Compressed` order.
fn run_both(
    interp: &Simulator,
    vm: &CompiledSim,
    j: &JobInput,
    probes: Option<&ProbeProgram>,
) -> Result<Vec<Vec<u64>>, TestCaseError> {
    let bits = |t: &JobTrace| t.features.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let mut final_states = Vec::new();
    for mode in [ExecMode::Step, ExecMode::FastForward, ExecMode::Compressed] {
        let (want_trace, want_state) = interp.run_with_state(j, mode, probes).unwrap();
        let (got_trace, got_state) = vm.run_with_state(j, mode, probes).unwrap();
        prop_assert_eq!(&want_trace, &got_trace, "trace diverged in {:?}", mode);
        prop_assert_eq!(
            bits(&want_trace),
            bits(&got_trace),
            "feature bits in {:?}",
            mode
        );
        prop_assert_eq!(
            &want_state,
            &got_state,
            "final state diverged in {:?}",
            mode
        );
        final_states.push(want_state);
    }
    Ok(final_states)
}

fn job(vals: &[u64]) -> JobInput {
    let mut j = JobInput::new(1);
    for &v in vals {
        j.push(&[v]);
    }
    j
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vm_matches_interpreter_on_random_designs(
        stages in prop::collection::vec(
            (0..4u8, 0..3u8).prop_map(|(dur, dp)| Stage { dur, dp }),
            1..4,
        ),
        with_acc in any::<bool>(),
        aux in aux_strategy(),
        vals in prop::collection::vec(0..40u64, 0..6),
    ) {
        let m = build(&stages, with_acc, aux);
        let analysis = analyze(&m, aux);
        let schema = FeatureSchema::from_analysis(&m, &analysis);
        let probes = schema.probe_program(&analysis);
        let interp = Simulator::with_analysis(&m, &analysis);
        let vm = CompiledSim::with_analysis(&m, &analysis).unwrap();
        if aux.is_some() {
            // Both FSMs own wait plans, so the wait scan runs over two
            // registers and either may decide.
            let mut planned: Vec<_> = analysis.waits.iter().map(|w| w.fsm).collect();
            planned.sort_unstable();
            planned.dedup();
            prop_assert_eq!(planned.len(), 2, "aux={:?}", aux);
        }
        let j = job(&vals);
        for p in [Some(&probes), None] {
            let ctx = format!(
                "stages={:?}, acc={}, aux={:?}, vals={:?}, probed={}",
                &stages, with_acc, aux, &vals, p.is_some()
            );
            let final_states = run_both(&interp, &vm, &j, p)
                .map_err(|e| TestCaseError::fail(format!("{e} ({ctx})")))?;
            // Mode-equivalence law: compression rewrites timing, never state.
            prop_assert_eq!(&final_states[0], &final_states[1], "Step vs FastForward ({})", ctx);
            prop_assert_eq!(&final_states[0], &final_states[2], "Step vs Compressed ({})", ctx);
        }
    }

    #[test]
    fn unprobed_runs_also_agree(
        dur in 0..4u8,
        dp in 0..3u8,
        aux in aux_strategy(),
        vals in prop::collection::vec(0..200u64, 0..5),
    ) {
        // Single-stage designs with wider duration range, no probes: the
        // probe-free fast path through both engines.
        let m = build(&[Stage { dur, dp }], false, aux);
        let analysis = analyze(&m, aux);
        let interp = Simulator::with_analysis(&m, &analysis);
        let vm = CompiledSim::with_analysis(&m, &analysis).unwrap();
        run_both(&interp, &vm, &job(&vals), None)?;
    }
}

/// Constants a random expression draws from besides fully random ones:
/// the identities of `&` (0 and 1), a small value, the shift-amount edge
/// (63, 64) and all ones.
const EDGE_CONSTANTS: [u64; 6] = [0, 1, 2, 63, 64, u64::MAX];

/// Cycle budget of the random-expression designs: small enough that a
/// drawn expression stalling the design ends in `CycleLimit` quickly.
const EXPR_CYCLE_LIMIT: u64 = 400;

/// Decodes a drawn word stream into an expression tree (the vendored
/// proptest shim has no recursive strategies). Each node consumes one word
/// that picks its kind, and a depth cap bounds the tree; words past the
/// end read 0, a leaf, so a short stream decodes to a small tree.
struct ExprDecoder<'a> {
    words: &'a [u64],
    pos: usize,
    /// Register leaves: a multi-bit register and the FSM register.
    regs: [E; 2],
    input: E,
}

impl ExprDecoder<'_> {
    fn word(&mut self) -> u64 {
        let w = self.words.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        w
    }

    /// 5 leaf kinds, then 16 binary operators, 3 unary ones and `Mux`;
    /// at depth 0 only leaves.
    fn expr(&mut self, depth: u32) -> E {
        let kinds = if depth == 0 { 5 } else { 28 };
        let kind = match self.word() % kinds {
            // `&` is where the bitwise and the boolean reading part, so it
            // is drawn four times as often as any other operator.
            25.. => 10,
            k => k,
        };
        if kind < 5 {
            return match kind {
                0 | 1 => self.regs[kind as usize].clone(),
                2 => self.input.clone(),
                3 => E::stream_empty(),
                _ => {
                    let pick = self.word() % 7;
                    E::k(match EDGE_CONSTANTS.get(pick as usize) {
                        Some(&k) => k,
                        None => self.word(),
                    })
                }
            };
        }
        if kind == 24 {
            let c = self.expr(depth - 1);
            let t = self.expr(depth - 1);
            return c.mux(t, self.expr(depth - 1));
        }
        let a = self.expr(depth - 1);
        match kind {
            21 => return a.not(),
            22 => return a.is_zero(),
            23 => return a.nonzero(),
            _ => {}
        }
        let b = self.expr(depth - 1);
        match kind {
            5 => a + b,
            6 => a - b,
            7 => a * b,
            8 => a.div(b),
            9 => a.rem(b),
            10 => a & b,
            11 => a | b,
            12 => a ^ b,
            13 => a << b,
            14 => a >> b,
            15 => a.lt(b),
            16 => a.le(b),
            17 => a.eq_(b),
            18 => a.ne_(b),
            19 => a.min(b),
            _ => a.max(b),
        }
    }
}

/// A toy-shaped design (FETCH → counter wait RUN → EMIT per token) where
/// the expression decoded from `words` is the guard and the value of the
/// first rule of a 12-bit register `x`, and a datapath's activity. With
/// `gated`, the guard is `ctrl == EMIT & expr`: the wait in RUN stays
/// provable, and in the EMIT bucket the guard folds to `1 & expr`.
fn expr_design(words: &[u64], gated: bool) -> Module {
    let mut b = ModuleBuilder::new("expr");
    let a = b.input("a", 8);
    let fsm = b.fsm("ctrl", &["FETCH", "RUN", "EMIT"]);
    let x = b.reg("x", 12, 5);
    let tree = ExprDecoder {
        words,
        pos: 0,
        regs: [x.e(), fsm.reg().e()],
        input: a.clone(),
    }
    .expr(4);
    b.timed(
        &fsm,
        "FETCH",
        "RUN",
        "EMIT",
        a,
        E::stream_empty().is_zero(),
        "ctrl.cnt",
    );
    b.trans(&fsm, "EMIT", "FETCH", E::one());
    let guard = if gated {
        fsm.in_state("EMIT") & tree.clone()
    } else {
        tree.clone()
    };
    b.set(x, guard, tree.clone());
    // A step rule: `x` becomes a probed counter whenever the expression
    // does not read it.
    b.set(x, fsm.in_state("EMIT"), x.e() + E::one());
    b.datapath_compute("expr", tree, 10.0, 1.0, 4, 0);
    b.advance_when(fsm.in_state("EMIT"));
    b.done_when(fsm.in_state("FETCH") & E::stream_empty());
    b.build().expect("generated module must be valid")
}

/// Runs `j` on `m` under both engines in every mode, probed and unprobed,
/// with [`EXPR_CYCLE_LIMIT`], and requires equal `Result`s: traces
/// (feature bits included) and final state, or the same error.
fn engines_agree(m: &Module, j: &JobInput) -> Result<(), TestCaseError> {
    let analysis = Analysis::run(m);
    let probes = FeatureSchema::from_analysis(m, &analysis).probe_program(&analysis);
    let mut interp = Simulator::with_analysis(m, &analysis);
    interp.set_cycle_limit(EXPR_CYCLE_LIMIT);
    let mut vm = CompiledSim::with_analysis(m, &analysis).unwrap();
    vm.set_cycle_limit(EXPR_CYCLE_LIMIT);
    let bits = |t: &JobTrace| t.features.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for p in [Some(&probes), None] {
        for mode in [ExecMode::Step, ExecMode::FastForward, ExecMode::Compressed] {
            let want = interp.run_with_state(j, mode, p);
            let got = vm.run_with_state(j, mode, p);
            prop_assert_eq!(&want, &got, "{:?}, probed={}", mode, p.is_some());
            if let (Ok((want, _)), Ok((got, _))) = (&want, &got) {
                prop_assert_eq!(bits(want), bits(got), "feature bits in {:?}", mode);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn vm_matches_interpreter_on_random_expressions(
        words in prop::collection::vec(any::<u64>(), 1..48),
        gated in any::<bool>(),
        vals in prop::collection::vec(0..40u64, 0..5),
    ) {
        let m = expr_design(&words, gated);
        engines_agree(&m, &job(&vals))
            .map_err(|e| TestCaseError::fail(format!("{e} (words={words:?}, gated={gated}, vals={vals:?})")))?;
    }
}

#[test]
fn and_with_one_keeps_multibit_operands() {
    // `&` is bitwise: `1 & x` is the low bit of `x`, not `x`. The literal
    // form and the one state specialization produces (`ctrl == A & x` in
    // A's bucket), with the 1 on either side, must all read 0 for `x = 6`.
    let mut b = ModuleBuilder::new("and1");
    let fsm = b.fsm("ctrl", &["A", "B"]);
    let x = b.reg("x", 8, 6);
    let a = fsm.in_state("A");
    b.trans(&fsm, "A", "B", E::one());
    for (name, value) in [
        ("lit", E::one() & x.e()),
        ("lit.r", x.e() & E::one()),
        ("folded", a.clone() & x.e()),
        ("folded.r", x.e() & a.clone()),
    ] {
        let r = b.reg(name, 8, 9);
        b.set(r, a.clone(), value);
    }
    b.done_when(fsm.in_state("B"));
    let m = b.build().unwrap();
    engines_agree(&m, &JobInput::new(1)).unwrap();
    let vm = CompiledSim::new(&m).unwrap();
    for mode in [ExecMode::Step, ExecMode::FastForward, ExecMode::Compressed] {
        let (_, state) = vm.run_with_state(&JobInput::new(1), mode, None).unwrap();
        assert_eq!(state, [1, 6, 0, 0, 0, 0], "{mode:?}");
    }
}
