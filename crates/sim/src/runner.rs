//! The per-job control loop (Fig. 4): decide a level, run the job,
//! account time and energy, feed the outcome back.

use predvfs::{Decision, DvfsController, DvfsModel, JobContext, LevelChoice};
use predvfs_power::{EnergyModel, SwitchingModel};
use predvfs_rtl::{JobInput, JobTrace};

use crate::metrics::{JobRecord, SchemeResult};

/// Accounting configuration for one scheme run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Per-job deadline, seconds.
    pub deadline_s: f64,
    /// Switching costs charged by the platform (controllers may *assume* a
    /// different model internally; this is what physically happens).
    pub switching: SwitchingModel,
}

/// Runs one controller over a precomputed job sequence.
///
/// The jobs' execution traces are simulated once (cycle counts are
/// frequency-independent); the runner replays them under the controller's
/// decisions, charging slice time/energy, DVFS transitions, and the
/// voltage-scaled job energy.
///
/// # Errors
///
/// Propagates controller failures (e.g. a hung slice).
///
/// # Panics
///
/// Panics if `jobs` and `traces` lengths differ.
pub fn run_scheme(
    controller: &mut dyn DvfsController,
    jobs: &[JobInput],
    traces: &[JobTrace],
    accel_energy: &EnergyModel,
    slice_energy: Option<&EnergyModel>,
    dvfs: &DvfsModel,
    config: &RunConfig,
) -> Result<SchemeResult, predvfs::CoreError> {
    assert_eq!(jobs.len(), traces.len(), "one trace per job required");
    let mut records = Vec::with_capacity(jobs.len());
    let mut prev_key = level_key(dvfs, dvfs.nominal());
    for (index, (job, trace)) in jobs.iter().zip(traces).enumerate() {
        let ctx = JobContext {
            job,
            deadline_s: config.deadline_s,
            index,
        };
        let decision: Decision = controller.decide(&ctx)?;
        let point = dvfs.point(decision.choice);
        let key = level_key(dvfs, decision.choice);
        let level_changed = key != prev_key;
        let switch_s = config.switching.time_s(prev_key, key);
        prev_key = key;

        let exec_s = accel_energy.time_s(trace.cycles, point);
        // The slice runs in its own always-nominal domain.
        let slice_s = decision.slice_cycles / accel_energy.f_nominal_hz();
        let slice_pj = match (slice_energy, decision.slice_cycles > 0.0) {
            (Some(em), true) => {
                let nominal = predvfs_power::OperatingPoint {
                    volts: 1.0,
                    freq_ratio: 1.0,
                };
                em.job_pj(
                    decision.slice_cycles.round() as u64,
                    &decision.slice_dp_active,
                    nominal,
                    1.0,
                )
            }
            _ => 0.0,
        };
        let job_pj = accel_energy.job_pj(trace.cycles, &trace.dp_active, point, 1.0)
            + config.switching.transition_pj * f64::from(level_changed);

        let total_s = exec_s + slice_s + switch_s;
        records.push(JobRecord {
            cycles: trace.cycles,
            predicted_cycles: decision.predicted_cycles,
            choice: decision.choice,
            volts: point.volts,
            freq_ratio: point.freq_ratio,
            exec_s,
            slice_s,
            switch_s,
            energy_pj: job_pj + slice_pj,
            slice_energy_pj: slice_pj,
            missed: total_s > config.deadline_s * (1.0 + 1e-9),
        });
        controller.observe(trace.cycles);
    }
    Ok(SchemeResult {
        scheme: controller.name().to_owned(),
        records,
    })
}

/// Maps a level choice to an ordinal for switching-cost bookkeeping.
fn level_key(dvfs: &DvfsModel, choice: LevelChoice) -> usize {
    match choice {
        LevelChoice::Regular(i) => i,
        LevelChoice::Boost => dvfs.ladder.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs::BaselineController;
    use predvfs_power::{AlphaPowerCurve, Ladder, PowerParams};
    use predvfs_rtl::builder::{ModuleBuilder, E};
    use predvfs_rtl::{AsicAreaModel, ExecMode, Simulator};

    fn toy_setup() -> (predvfs_rtl::Module, Vec<JobInput>, Vec<JobTrace>) {
        let mut b = ModuleBuilder::new("toy");
        let d = b.input("d", 16);
        let fsm = b.fsm("ctrl", &["F", "W", "E"]);
        b.timed(&fsm, "F", "W", "E", d, E::stream_empty().is_zero(), "c");
        b.trans(&fsm, "E", "F", E::one());
        b.datapath_compute("dp", fsm.in_state("W"), 10_000.0, 1.0, 500, 4);
        b.advance_when(fsm.in_state("E"));
        b.done_when(fsm.in_state("F") & E::stream_empty());
        let m = b.build().unwrap();
        let sim = Simulator::new(&m);
        let jobs: Vec<JobInput> = (1..4u64)
            .map(|k| {
                let mut j = JobInput::new(1);
                j.push(&[k * 1000]);
                j
            })
            .collect();
        let traces = jobs
            .iter()
            .map(|j| sim.run(j, ExecMode::FastForward, None).unwrap())
            .collect();
        (m, jobs, traces)
    }

    #[test]
    fn baseline_never_misses_and_pays_no_overheads() {
        let (m, jobs, traces) = toy_setup();
        let area = AsicAreaModel::default().area(&m);
        let em = EnergyModel::new(&m, &area, &PowerParams::default(), 100e6, 1.0);
        let curve = AlphaPowerCurve::default();
        let dvfs = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip());
        let mut ctrl = BaselineController::new(dvfs.clone());
        let cfg = RunConfig {
            deadline_s: 16.7e-3,
            switching: SwitchingModel::off_chip(),
        };
        let res = run_scheme(&mut ctrl, &jobs, &traces, &em, None, &dvfs, &cfg).unwrap();
        assert_eq!(res.jobs(), 3);
        assert_eq!(res.misses(), 0);
        for r in &res.records {
            assert_eq!(r.slice_s, 0.0);
            assert_eq!(r.switch_s, 0.0, "baseline never changes level");
            assert_eq!(r.freq_ratio, 1.0);
        }
    }

    #[test]
    fn energy_scales_with_level() {
        let (m, jobs, traces) = toy_setup();
        let area = AsicAreaModel::default().area(&m);
        let em = EnergyModel::new(&m, &area, &PowerParams::default(), 100e6, 1.0);
        let curve = AlphaPowerCurve::default();
        let dvfs = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::free());
        let cfg = RunConfig {
            deadline_s: 16.7e-3,
            switching: SwitchingModel::free(),
        };
        // Oracle with perfect knowledge picks low levels and saves energy.
        let actual: Vec<u64> = traces.iter().map(|t| t.cycles).collect();
        let mut oracle = predvfs::OracleController::new(dvfs.clone(), 100e6, actual);
        let oracle_res = run_scheme(&mut oracle, &jobs, &traces, &em, None, &dvfs, &cfg).unwrap();
        let mut base = BaselineController::new(dvfs.clone());
        let base_res = run_scheme(&mut base, &jobs, &traces, &em, None, &dvfs, &cfg).unwrap();
        assert!(oracle_res.total_energy_pj() < base_res.total_energy_pj());
        assert_eq!(oracle_res.misses(), 0);
    }

    #[test]
    fn instant_transitions_still_charge_transition_energy() {
        // Regression: transition energy used to be gated on switch time
        // being positive, so an instant-but-costly regulator (on-chip,
        // transition_s = 0) charged nothing on level changes.
        let (m, jobs, traces) = toy_setup();
        let area = AsicAreaModel::default().area(&m);
        let em = EnergyModel::new(&m, &area, &PowerParams::default(), 100e6, 1.0);
        let curve = AlphaPowerCurve::default();
        let instant = SwitchingModel {
            transition_s: 0.0,
            transition_pj: 5000.0,
        };
        let dvfs = DvfsModel::new(Ladder::asic(&curve), instant);
        let cfg = RunConfig {
            deadline_s: 16.7e-3,
            switching: instant,
        };
        // The oracle drops below nominal for the first job, switching
        // levels at least once.
        let actual: Vec<u64> = traces.iter().map(|t| t.cycles).collect();
        let mut oracle = predvfs::OracleController::new(dvfs.clone(), 100e6, actual.clone());
        let res = run_scheme(&mut oracle, &jobs, &traces, &em, None, &dvfs, &cfg).unwrap();

        // Same decisions with a truly free model, as the reference.
        let free_dvfs = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::free());
        let free_cfg = RunConfig {
            switching: SwitchingModel::free(),
            ..cfg.clone()
        };
        let mut free_oracle = predvfs::OracleController::new(free_dvfs.clone(), 100e6, actual);
        let free_res = run_scheme(
            &mut free_oracle,
            &jobs,
            &traces,
            &em,
            None,
            &free_dvfs,
            &free_cfg,
        )
        .unwrap();

        let switches = res
            .records
            .iter()
            .zip(&free_res.records)
            .filter(|(a, b)| {
                assert_eq!(
                    a.choice, b.choice,
                    "switching model must not alter decisions"
                );
                a.switch_s == 0.0 && b.switch_s == 0.0
            })
            .count();
        assert_eq!(
            switches,
            res.records.len(),
            "instant transitions take no time"
        );
        let mut changes = 0u32;
        let mut prev = level_key(&dvfs, LevelChoice::Regular(dvfs.ladder.nominal_index()));
        for r in &res.records {
            let key = level_key(&dvfs, r.choice);
            if key != prev {
                changes += 1;
            }
            prev = key;
        }
        assert!(changes > 0, "test needs at least one level change");
        let expected = free_res.total_energy_pj() + 5000.0 * f64::from(changes);
        assert!(
            (res.total_energy_pj() - expected).abs() < 1e-6,
            "each level change must charge transition_pj: got {} want {}",
            res.total_energy_pj(),
            expected
        );
    }
}
