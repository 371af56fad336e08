//! Integration tests of the chained-wait idiom (counter loads on another
//! wait's exit cycle), multi-entry waits, count-up waits, and the pretty
//! printer — the corners the benchmark accelerators lean on.

use predvfs_rtl::analysis::WaitState;
use predvfs_rtl::builder::{ModuleBuilder, E};
use predvfs_rtl::{
    slice, Analysis, ExecMode, FeatureSchema, JobInput, Module, Simulator, SliceOptions,
};

/// Three chained waits with no routing states in between.
fn chain() -> Module {
    let mut b = ModuleBuilder::new("chain");
    let a = b.input("a", 8);
    let fsm = b.fsm("ctrl", &["FETCH", "W0", "W1", "W2", "EMIT"]);
    let c0 = b.wait_state(&fsm, "W0", "W1", "c0");
    b.enter_wait(
        &fsm,
        "FETCH",
        "W0",
        c0,
        a.clone() + E::k(2),
        E::stream_empty().is_zero(),
    );
    let c1 = b.wait_state(&fsm, "W1", "W2", "c1");
    b.set(
        c1,
        fsm.in_state("W0") & c0.e().eq_(E::zero()),
        a.clone() * E::k(2),
    );
    let c2 = b.wait_state(&fsm, "W2", "EMIT", "c2");
    b.set(c2, fsm.in_state("W1") & c1.e().eq_(E::zero()), E::k(7));
    b.trans(&fsm, "EMIT", "FETCH", E::one());
    b.advance_when(fsm.in_state("EMIT"));
    b.done_when(fsm.in_state("FETCH") & E::stream_empty());
    b.build().unwrap()
}

fn job(vals: &[u64]) -> JobInput {
    let mut j = JobInput::new(1);
    for &v in vals {
        j.push(&[v]);
    }
    j
}

#[test]
fn all_chained_states_are_waits() {
    let m = chain();
    let a = Analysis::run(&m);
    let waits: Vec<&WaitState> = a.waits.iter().collect();
    assert_eq!(waits.len(), 3, "W0, W1, W2 must all be recognized");
}

#[test]
fn chained_fast_forward_is_exact() {
    let m = chain();
    let sim = Simulator::new(&m);
    for vals in [&[0u64][..], &[1], &[5, 9], &[200, 0, 3]] {
        let a = sim.run(&job(vals), ExecMode::Step, None).unwrap();
        let b = sim.run(&job(vals), ExecMode::FastForward, None).unwrap();
        assert_eq!(a.cycles, b.cycles, "vals={vals:?}");
    }
}

#[test]
fn chained_counters_record_correct_features() {
    let m = chain();
    let an = Analysis::run(&m);
    let schema = FeatureSchema::from_analysis(&m, &an);
    let probes = schema.probe_program(&an);
    let sim = Simulator::new(&m);
    let t = sim
        .run(&job(&[10, 4]), ExecMode::FastForward, Some(&probes))
        .unwrap();
    let feat = |n: &str| {
        let i = schema.descs().iter().position(|d| d.name == n).unwrap();
        t.features[i]
    };
    assert_eq!(feat("ic[c0]"), 2.0);
    assert_eq!(feat("aiv[c0]"), (12 + 6) as f64);
    assert_eq!(feat("aiv[c1]"), (20 + 8) as f64);
    assert_eq!(feat("aiv[c2]"), 14.0);
}

#[test]
fn chained_wait_slice_preserves_features_and_timing_order() {
    let m = chain();
    let an = Analysis::run(&m);
    let schema = FeatureSchema::from_analysis(&m, &an);
    // Select only c1's AIV; c0 feeds the chain (its exit loads c1) so the
    // slicer must keep enough structure for identical feature values.
    let aiv_c1 = schema
        .descs()
        .iter()
        .position(|d| d.name == "aiv[c1]")
        .unwrap();
    let (sl, _) = slice(&m, &schema, &[aiv_c1], SliceOptions::default()).unwrap();
    let probes = schema.probe_program(&an);
    let j = job(&[33, 7, 1]);
    let full = Simulator::new(&m)
        .run(&j, ExecMode::FastForward, Some(&probes))
        .unwrap();
    let slim = Simulator::new(&sl)
        .run(&j, ExecMode::Compressed, Some(&probes))
        .unwrap();
    assert_eq!(full.features[aiv_c1], slim.features[aiv_c1]);
    assert!(slim.cycles < full.cycles);
}

#[test]
fn multi_entry_wait_counts_all_arms() {
    let mut b = ModuleBuilder::new("multi");
    let kind = b.input("kind", 1);
    let fsm = b.fsm("ctrl", &["FETCH", "ROUTE", "W", "EMIT"]);
    b.trans(&fsm, "FETCH", "ROUTE", E::stream_empty().is_zero());
    let w = b.wait_state(&fsm, "W", "EMIT", "w");
    b.enter_wait(&fsm, "ROUTE", "W", w, E::k(5), kind.clone().is_zero());
    b.enter_wait(&fsm, "ROUTE", "W", w, E::k(11), kind.nonzero());
    b.trans(&fsm, "EMIT", "FETCH", E::one());
    b.advance_when(fsm.in_state("EMIT"));
    b.done_when(fsm.in_state("FETCH") & E::stream_empty());
    let m = b.build().unwrap();
    let an = Analysis::run(&m);
    assert_eq!(an.waits.len(), 1);
    let schema = FeatureSchema::from_analysis(&m, &an);
    let probes = schema.probe_program(&an);
    let sim = Simulator::new(&m);
    let mut j = JobInput::new(1);
    j.push(&[0]);
    j.push(&[1]);
    j.push(&[1]);
    let t = sim.run(&j, ExecMode::FastForward, Some(&probes)).unwrap();
    let aiv = schema
        .descs()
        .iter()
        .position(|d| d.name == "aiv[w]")
        .unwrap();
    assert_eq!(t.features[aiv], (5 + 11 + 11) as f64);
}

#[test]
fn count_up_wait_fast_forward_matches_step() {
    let mut b = ModuleBuilder::new("up");
    let n = b.input("n", 10);
    let fsm = b.fsm("ctrl", &["FETCH", "W", "EMIT"]);
    let c = b.reg("c", 16, 0);
    b.set(
        c,
        fsm.in_state("FETCH") & E::stream_empty().is_zero(),
        E::zero(),
    );
    b.set(c, fsm.in_state("W") & c.e().lt(n.clone()), c.e() + E::one());
    b.trans(&fsm, "FETCH", "W", E::stream_empty().is_zero());
    b.trans(&fsm, "W", "EMIT", c.e().eq_(n));
    b.trans(&fsm, "EMIT", "FETCH", E::one());
    b.advance_when(fsm.in_state("EMIT"));
    b.done_when(fsm.in_state("FETCH") & E::stream_empty());
    let m = b.build().unwrap();
    let an = Analysis::run(&m);
    assert_eq!(an.waits.len(), 1, "count-up wait must be detected");
    let sim = Simulator::new(&m);
    for vals in [&[0u64][..], &[1], &[100, 3]] {
        let a = sim.run(&job(vals), ExecMode::Step, None).unwrap();
        let b2 = sim.run(&job(vals), ExecMode::FastForward, None).unwrap();
        assert_eq!(a.cycles, b2.cycles, "vals={vals:?}");
    }
    // APV of a count-up counter records the bound it climbed to.
    let schema = FeatureSchema::from_analysis(&m, &an);
    let probes = schema.probe_program(&an);
    let t = sim
        .run(&job(&[42, 17]), ExecMode::FastForward, Some(&probes))
        .unwrap();
    let apv = schema
        .descs()
        .iter()
        .position(|d| d.name == "apv[c]")
        .unwrap();
    assert_eq!(t.features[apv], 42.0, "apv sees the previous bound");
}

#[test]
fn display_expr_renders_names() {
    let m = chain();
    let f = m.reg_by_name("ctrl.state").unwrap();
    let rule = &m.regs[f.index()].rules[0];
    let s = m.display_expr(&rule.guard);
    assert!(s.contains("ctrl.state"), "rendered guard: {s}");
}
