//! Automatic instrumentation: turning analysis results into a feature
//! schema and runtime probes.
//!
//! This mirrors the paper's offline instrumentation step (§3.3): for every
//! detected FSM transition pair a *state transition count* (STC) probe is
//! attached; for every detected counter an *initialization count* (IC),
//! *average-initial-value sum* (AIV) and *average-pre-reset-value sum*
//! (APV) probe. As the paper notes, recording sums rather than averages is
//! sufficient — the linear model absorbs the scaling.
//!
//! The probes are pure observers: attaching them never changes the design's
//! timing, which the test suite verifies.
//!
//! Both execution engines call the probe hooks on every committed register
//! write, so [`ProbeProgram`] resolves everything before cycle 0: a hook
//! indexes a register-indexed table and at most binary-searches one FSM's
//! sorted transition list. It never hashes, and linking a program to a
//! module is a single bound check on the tables' register range. The
//! compiled VM narrows the search further: once per run it splits the
//! bucketing FSM's sorted list by source state (`StcBySrc`), and a
//! state-specialized program, whose source state is fixed, searches only
//! that state's successors.

use std::fmt;

use crate::analysis::Analysis;
use crate::error::RtlError;
use crate::module::{Module, RegId};

/// The kind of a feature column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Constant 1 (model intercept).
    Bias,
    /// Number of times the FSM moved `src -> dst` during the job.
    Stc {
        /// The FSM state register.
        fsm: RegId,
        /// Source state encoding.
        src: u64,
        /// Destination state encoding.
        dst: u64,
    },
    /// Number of times the counter was re-initialized.
    Ic {
        /// The counter register.
        counter: RegId,
    },
    /// Sum of the values the counter was initialized to.
    AivSum {
        /// The counter register.
        counter: RegId,
    },
    /// Sum of the counter's values immediately before re-initialization.
    ApvSum {
        /// The counter register.
        counter: RegId,
    },
}

/// A named feature column.
#[derive(Debug, Clone)]
pub struct FeatureDesc {
    /// What the column measures.
    pub kind: FeatureKind,
    /// Human-readable name, e.g. `"stc[ctrl.state:2->5]"`.
    pub name: String,
}

impl fmt::Display for FeatureDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// The complete feature vector layout for one module.
#[derive(Debug, Clone)]
pub struct FeatureSchema {
    /// Name of the module the schema was extracted from.
    pub module_name: String,
    features: Vec<FeatureDesc>,
}

impl FeatureSchema {
    /// Builds the schema from a module and its analysis: bias first, then
    /// one STC column per declared transition pair, then IC/AIV/APV per
    /// counter.
    pub fn from_analysis(module: &Module, analysis: &Analysis) -> FeatureSchema {
        let mut features = vec![FeatureDesc {
            kind: FeatureKind::Bias,
            name: "bias".to_owned(),
        }];
        for fsm in &analysis.fsms {
            let fname = module.reg_name(fsm.reg);
            for (src, dst) in fsm.transition_pairs() {
                features.push(FeatureDesc {
                    kind: FeatureKind::Stc {
                        fsm: fsm.reg,
                        src,
                        dst,
                    },
                    name: format!("stc[{fname}:{src}->{dst}]"),
                });
            }
        }
        for c in &analysis.counters {
            let cname = module.reg_name(c.reg);
            features.push(FeatureDesc {
                kind: FeatureKind::Ic { counter: c.reg },
                name: format!("ic[{cname}]"),
            });
            features.push(FeatureDesc {
                kind: FeatureKind::AivSum { counter: c.reg },
                name: format!("aiv[{cname}]"),
            });
            features.push(FeatureDesc {
                kind: FeatureKind::ApvSum { counter: c.reg },
                name: format!("apv[{cname}]"),
            });
        }
        FeatureSchema {
            module_name: module.name.clone(),
            features,
        }
    }

    /// Number of feature columns (including the bias).
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the schema has no columns (never the case for schemas
    /// produced by [`FeatureSchema::from_analysis`], which always include
    /// the bias).
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The feature descriptors, in column order.
    pub fn descs(&self) -> &[FeatureDesc] {
        &self.features
    }

    /// Index of the bias column, if present.
    pub fn bias_index(&self) -> Option<usize> {
        self.features
            .iter()
            .position(|f| f.kind == FeatureKind::Bias)
    }

    /// Registers that the given feature columns are measured from (probe
    /// sources). Used by the slicer as slicing criteria.
    pub fn source_regs(&self, columns: &[usize]) -> Vec<RegId> {
        let mut out = Vec::new();
        for &c in columns {
            match self.features[c].kind {
                FeatureKind::Bias => {}
                FeatureKind::Stc { fsm, .. } => out.push(fsm),
                FeatureKind::Ic { counter }
                | FeatureKind::AivSum { counter }
                | FeatureKind::ApvSum { counter } => out.push(counter),
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Compiles the schema into the runtime probe tables used by both
    /// execution engines. `analysis` must be the analysis of the same
    /// module (or of a slice preserving register ids).
    pub fn probe_program(&self, analysis: &Analysis) -> ProbeProgram {
        fn at(regs: &mut Vec<RegProbes>, reg: RegId) -> &mut RegProbes {
            if regs.len() <= reg.index() {
                regs.resize_with(reg.index() + 1, RegProbes::default);
            }
            &mut regs[reg.index()]
        }
        let mut regs = Vec::new();
        let mut bias = None;
        for (i, fd) in self.features.iter().enumerate() {
            match fd.kind {
                FeatureKind::Bias => bias = Some(i),
                FeatureKind::Stc { fsm, src, dst } => at(&mut regs, fsm).stc.push(((src, dst), i)),
                FeatureKind::Ic { counter } => at(&mut regs, counter).ic = Some(i),
                FeatureKind::AivSum { counter } => at(&mut regs, counter).aiv = Some(i),
                FeatureKind::ApvSum { counter } => at(&mut regs, counter).apv = Some(i),
            }
        }
        for p in &mut regs {
            // A repeated pair keeps its last column: reversed, the stable
            // sort puts it first and `dedup` keeps the first.
            p.stc.reverse();
            p.stc.sort_by_key(|&(pair, _)| pair);
            p.stc.dedup_by_key(|&mut (pair, _)| pair);
        }
        for c in &analysis.counters {
            let Some(p) = regs.get_mut(c.reg.index()).filter(|p| p.is_counter()) else {
                continue;
            };
            for &ri in &c.init_rules {
                if p.init.len() <= ri {
                    p.init.resize(ri + 1, false);
                }
                p.init[ri] = true;
            }
        }
        ProbeProgram {
            n_features: self.features.len(),
            bias,
            regs,
        }
    }
}

/// The probes attached to one register.
#[derive(Debug, Clone, Default)]
struct RegProbes {
    /// `init[rule]`: rule `rule` re-initializes this probed counter. A rule
    /// past the end (pruned by slicing, or never an init rule) is not one.
    init: Vec<bool>,
    ic: Option<usize>,
    aiv: Option<usize>,
    apv: Option<usize>,
    /// STC columns of this FSM register, sorted by `(src, dst)`.
    stc: Vec<((u64, u64), usize)>,
}

impl RegProbes {
    fn is_counter(&self) -> bool {
        self.ic.is_some() || self.aiv.is_some() || self.apv.is_some()
    }
}

/// Compiled probe tables consumed by [`crate::vm::CompiledSim::run`] (and
/// by the interpreter oracle), indexed by register (see the module docs).
#[derive(Debug, Clone)]
pub struct ProbeProgram {
    n_features: usize,
    bias: Option<usize>,
    /// Probes of register `r` at index `r`; the table ends at the highest
    /// probed register.
    regs: Vec<RegProbes>,
}

impl ProbeProgram {
    /// Width of the feature vector.
    pub fn feature_count(&self) -> usize {
        self.n_features
    }

    /// Index of the bias column.
    pub fn bias_index(&self) -> Option<usize> {
        self.bias
    }

    /// Records the commit of rule `rule` to register `reg`, `old -> new`,
    /// if that rule re-initializes a probed counter: `old` is the
    /// pre-reset value, `new` the initial value. Any other write is
    /// ignored.
    #[inline]
    pub(crate) fn record_counter_init(
        &self,
        features: &mut [f64],
        reg: usize,
        rule: usize,
        old: u64,
        new: u64,
    ) {
        let Some(p) = self.regs.get(reg) else {
            return;
        };
        if !p.init.get(rule).copied().unwrap_or(false) {
            return;
        }
        if let Some(ic) = p.ic {
            features[ic] += 1.0;
        }
        if let Some(aiv) = p.aiv {
            features[aiv] += new as f64;
        }
        if let Some(apv) = p.apv {
            features[apv] += old as f64;
        }
    }

    /// Records an FSM transition `old -> new`.
    #[inline]
    pub(crate) fn record_transition(&self, features: &mut [f64], reg: usize, old: u64, new: u64) {
        let Some(p) = self.regs.get(reg) else {
            return;
        };
        if let Ok(i) = p.stc.binary_search_by_key(&(old, new), |&(pair, _)| pair) {
            features[p.stc[i].1] += 1.0;
        }
    }

    /// The STC columns of FSM register `reg` split by source state, for
    /// sources `0..n_states`: one pass over the register's sorted list,
    /// O(`n_states` + pairs).
    pub(crate) fn stc_by_src(&self, reg: usize, n_states: usize) -> StcBySrc<'_> {
        let stc = self.regs.get(reg).map_or(&[][..], |p| &p.stc[..]);
        let mut start = Vec::with_capacity(n_states + 1);
        let mut i = 0;
        for src in 0..=n_states as u64 {
            while stc.get(i).is_some_and(|&((s, _), _)| s < src) {
                i += 1;
            }
            start.push(i);
        }
        StcBySrc { stc, start }
    }

    /// Checks that every register this program probes exists in
    /// `module`.
    ///
    /// Probe tables are built from an [`Analysis`], normally of the very
    /// module being run — but nothing ties the two together, and a probe
    /// program linked against the wrong module used to fail only when (or
    /// if) the dangling probe fired mid-job. Both execution engines call
    /// this before cycle 0, so the mismatch is a link-time error instead.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownRegister`] naming the highest probed
    /// register (as `rN`, the only name a foreign index has) when it is
    /// past the end of `module`.
    pub fn validate(&self, module: &Module) -> Result<(), RtlError> {
        self.validate_regs(&module.name, module.regs.len())
    }

    /// [`ProbeProgram::validate`] against a module known only by its name
    /// and register count.
    ///
    /// The tables end at the highest probed register, so one bound check
    /// covers them all. Rule indices are deliberately NOT checked: the
    /// documented contract lets probes built for a full module run against
    /// its slice, which keeps register ids but prunes rules. A pruned init
    /// rule simply never fires.
    pub(crate) fn validate_regs(&self, module: &str, n_regs: usize) -> Result<(), RtlError> {
        if self.regs.len() > n_regs {
            return Err(RtlError::UnknownRegister {
                module: module.to_owned(),
                name: format!("r{}", self.regs.len() - 1),
            });
        }
        Ok(())
    }
}

/// One FSM register's STC columns indexed by source state; see
/// [`ProbeProgram::stc_by_src`].
#[derive(Debug)]
pub(crate) struct StcBySrc<'p> {
    /// The register's `(src, dst)`-sorted STC list.
    stc: &'p [((u64, u64), usize)],
    /// `stc[start[s]..start[s + 1]]` holds the pairs leaving state `s`,
    /// sorted by destination.
    start: Vec<usize>,
}

impl StcBySrc<'_> {
    /// Records the transition `src -> dst`, exactly as
    /// [`ProbeProgram::record_transition`] would. `src` must be below the
    /// `n_states` the table was built for.
    #[inline]
    pub(crate) fn record(&self, features: &mut [f64], src: usize, dst: u64) {
        let row = &self.stc[self.start[src]..self.start[src + 1]];
        if let Ok(i) = row.binary_search_by_key(&dst, |&((_, d), _)| d) {
            features[row[i].1] += 1.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
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
            dur,
            E::stream_empty().is_zero(),
            "ctrl.cnt",
        );
        b.trans(&fsm, "EMIT", "FETCH", E::one());
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
    fn schema_layout_bias_stc_counters() {
        let m = toy();
        let a = Analysis::run(&m);
        let s = FeatureSchema::from_analysis(&m, &a);
        // bias + 3 transitions (FETCH->RUN, RUN->EMIT, EMIT->FETCH) + 3
        // counter features.
        assert_eq!(s.len(), 1 + 3 + 3);
        assert_eq!(s.bias_index(), Some(0));
        assert!(!s.is_empty());
        assert!(s.descs()[1].name.starts_with("stc["));
        assert!(s.descs().iter().any(|d| d.name == "ic[ctrl.cnt]"));
        assert!(s.descs().iter().any(|d| d.name == "aiv[ctrl.cnt]"));
        assert!(s.descs().iter().any(|d| d.name == "apv[ctrl.cnt]"));
    }

    #[test]
    fn probes_count_transitions_and_inits() {
        let m = toy();
        let a = Analysis::run(&m);
        let s = FeatureSchema::from_analysis(&m, &a);
        let p = s.probe_program(&a);
        let sim = Simulator::new(&m);
        let t = sim
            .run(&job(&[5, 7, 9]), ExecMode::FastForward, Some(&p))
            .unwrap();
        let by_name = |n: &str| -> f64 {
            let i = s.descs().iter().position(|d| d.name == n).unwrap();
            t.features[i]
        };
        assert_eq!(by_name("bias"), 1.0);
        assert_eq!(by_name("ic[ctrl.cnt]"), 3.0);
        assert_eq!(by_name("aiv[ctrl.cnt]"), (5 + 7 + 9) as f64);
        // The counter always drains to zero before re-init.
        assert_eq!(by_name("apv[ctrl.cnt]"), 0.0);
        // Each token causes one full FETCH->RUN->EMIT->FETCH tour.
        for (src, dst) in [(0u64, 1u64), (1, 2), (2, 0)] {
            let name = format!("stc[ctrl.state:{src}->{dst}]");
            assert_eq!(by_name(&name), 3.0, "{name}");
        }
    }

    #[test]
    fn unknown_rules_and_pairs_touch_no_column() {
        let m = toy();
        let a = Analysis::run(&m);
        let s = FeatureSchema::from_analysis(&m, &a);
        let p = s.probe_program(&a);
        let fsm = m.reg_by_name("ctrl.state").unwrap().index();
        let cnt = m.reg_by_name("ctrl.cnt").unwrap().index();
        let n_rules = m.regs[cnt].rules.len();
        let mut f = vec![0.0; p.feature_count()];
        // A rule index past the end of the counter's rules, and a register
        // past the end of the tables, are not init rules.
        p.record_counter_init(&mut f, cnt, n_rules + 5, 3, 7);
        p.record_counter_init(&mut f, m.regs.len() + 5, 0, 3, 7);
        // EMIT -> RUN is not a transition of the schema, a self-loop never
        // is, and the counter has no STC columns.
        p.record_transition(&mut f, fsm, 2, 1);
        p.record_transition(&mut f, fsm, 0, 0);
        p.record_transition(&mut f, fsm, 7, 9);
        p.record_transition(&mut f, cnt, 0, 1);
        p.record_transition(&mut f, m.regs.len() + 5, 0, 1);
        assert!(f.iter().all(|&x| x == 0.0), "{f:?}");
        // A declared pair touches exactly its own column.
        p.record_transition(&mut f, fsm, 0, 1);
        let col = s
            .descs()
            .iter()
            .position(|d| d.name == "stc[ctrl.state:0->1]")
            .unwrap();
        for (i, &x) in f.iter().enumerate() {
            assert_eq!(x, if i == col { 1.0 } else { 0.0 }, "column {i}");
        }
    }

    #[test]
    fn stc_by_src_records_what_record_transition_does() {
        // Every (src, dst) over the toy's states and one past them, plus
        // a register with no STC columns: the per-source rows touch the
        // same column as the sorted search, or none.
        let m = toy();
        let a = Analysis::run(&m);
        let p = FeatureSchema::from_analysis(&m, &a).probe_program(&a);
        let fsm = m.reg_by_name("ctrl.state").unwrap().index();
        let cnt = m.reg_by_name("ctrl.cnt").unwrap().index();
        for reg in [fsm, cnt] {
            let rows = p.stc_by_src(reg, 4);
            for src in 0..4 {
                for dst in 0..5 {
                    let mut want = vec![0.0; p.feature_count()];
                    let mut got = want.clone();
                    p.record_transition(&mut want, reg, src, dst);
                    rows.record(&mut got, src as usize, dst);
                    assert_eq!(want, got, "r{reg}: {src} -> {dst}");
                }
            }
        }
        // Sources past the table's range are left out, not misfiled.
        let narrow = p.stc_by_src(fsm, 2);
        let mut f = vec![0.0; p.feature_count()];
        narrow.record(&mut f, 1, 2);
        assert_eq!(f.iter().sum::<f64>(), 1.0);
        assert_eq!(narrow.start, [0, 1, 2]);
    }

    #[test]
    fn probes_knowing_more_rules_than_the_module_keep_its_features() {
        // The slice contract: probes built for a full module run against a
        // slice that prunes rules. Here the program believes the counter
        // has an init rule past the end of the module's rule list; that
        // rule never fires, so both engines record the same features as
        // with the exact program.
        let m = toy();
        let a = Analysis::run(&m);
        let s = FeatureSchema::from_analysis(&m, &a);
        let exact = s.probe_program(&a);
        let cnt = m.reg_by_name("ctrl.cnt").unwrap();
        let mut wide = a.clone();
        let c = wide.counters.iter_mut().find(|c| c.reg == cnt).unwrap();
        c.init_rules.push(m.regs[cnt.index()].rules.len() + 2);
        let wide = s.probe_program(&wide);
        assert!(wide.validate(&m).is_ok());
        let j = job(&[5, 7, 9]);
        let bits = |t: &crate::interp::JobTrace| -> Vec<u64> {
            t.features.iter().map(|x| x.to_bits()).collect()
        };
        let sim = Simulator::new(&m);
        let vm = crate::vm::CompiledSim::new(&m).unwrap();
        for mode in [ExecMode::Step, ExecMode::FastForward, ExecMode::Compressed] {
            let want = sim.run(&j, mode, Some(&exact)).unwrap();
            assert_eq!(bits(&want), bits(&sim.run(&j, mode, Some(&wide)).unwrap()));
            assert_eq!(bits(&want), bits(&vm.run(&j, mode, Some(&wide)).unwrap()));
        }
    }

    #[test]
    fn validate_names_a_register_past_the_module() {
        let m = toy();
        let a = Analysis::run(&m);
        let p = FeatureSchema::from_analysis(&m, &a).probe_program(&a);
        assert!(p.validate(&m).is_ok());
        // The counter (r1) is the highest probed register; a module with
        // one register lacks it.
        let mut b = ModuleBuilder::new("small");
        let r = b.reg("x", 8, 0);
        b.set(r, E::one(), r.e() + E::one());
        b.done_when(r.e().eq_(E::k(3)));
        let small = b.build().unwrap();
        match p.validate(&small) {
            Err(RtlError::UnknownRegister { module, name }) => {
                assert_eq!((module.as_str(), name.as_str()), ("small", "r1"));
            }
            other => panic!("expected UnknownRegister, got {other:?}"),
        }
    }

    #[test]
    fn probing_does_not_change_timing() {
        let m = toy();
        let a = Analysis::run(&m);
        let s = FeatureSchema::from_analysis(&m, &a);
        let p = s.probe_program(&a);
        let sim = Simulator::new(&m);
        let plain = sim.run(&job(&[4, 4]), ExecMode::FastForward, None).unwrap();
        let probed = sim
            .run(&job(&[4, 4]), ExecMode::FastForward, Some(&p))
            .unwrap();
        assert_eq!(plain.cycles, probed.cycles);
        assert_eq!(plain.dp_active, probed.dp_active);
    }

    #[test]
    fn features_identical_across_modes() {
        let m = toy();
        let a = Analysis::run(&m);
        let s = FeatureSchema::from_analysis(&m, &a);
        let p = s.probe_program(&a);
        let sim = Simulator::new(&m);
        let j = job(&[5, 0, 12]);
        let step = sim.run(&j, ExecMode::Step, Some(&p)).unwrap();
        let ff = sim.run(&j, ExecMode::FastForward, Some(&p)).unwrap();
        let comp = sim.run(&j, ExecMode::Compressed, Some(&p)).unwrap();
        assert_eq!(step.features, ff.features);
        assert_eq!(
            ff.features, comp.features,
            "slice must compute identical features"
        );
    }

    #[test]
    fn source_regs_resolve_probe_targets() {
        let m = toy();
        let a = Analysis::run(&m);
        let s = FeatureSchema::from_analysis(&m, &a);
        let all: Vec<usize> = (0..s.len()).collect();
        let srcs = s.source_regs(&all);
        assert_eq!(srcs.len(), 2); // the FSM reg and the counter
        let none = s.source_regs(&[0]); // bias only
        assert!(none.is_empty());
    }
}
