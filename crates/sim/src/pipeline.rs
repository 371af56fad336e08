//! Multi-accelerator pipelines sharing one deadline (an extension in the
//! direction of Nachiappan et al. \[18\], which the paper cites as the
//! motivation for considering multiple devices together).
//!
//! A frame flows through several accelerators in sequence (decrypt →
//! verify → decode…), and the *frame* has the deadline, not any single
//! stage. With per-stage execution-time predictions the budget can be
//! split **proportionally to predicted work**, which (by the convexity of
//! the energy/frequency trade-off) beats a static even split: slow stages
//! get more time instead of being forced to high voltage while fast
//! stages idle at low utilization.

use predvfs::{DvfsModel, ExecTimeModel, LevelChoice, SliceTable};
use predvfs_power::EnergyModel;
use predvfs_rtl::JobTrace;

use crate::metrics::{JobRecord, SchemeResult};

/// How the frame budget is divided among stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Each of the `n` stages gets `deadline / n`.
    Static,
    /// Stages get budget proportional to their predicted execution time.
    Proportional,
}

/// One stage of a frame pipeline.
pub struct PipelineStage<'p> {
    /// Stage label.
    pub name: &'p str,
    /// The stage's slice runs, one per frame (see
    /// [`predvfs::SlicePredictor::run_all`]).
    pub slices: &'p SliceTable,
    /// The stage's fitted model.
    pub model: &'p ExecTimeModel,
    /// The stage's energy model.
    pub energy: &'p EnergyModel,
    /// The stage's DVFS ladder/margins.
    pub dvfs: DvfsModel,
}

/// Result of running a pipeline: per-stage records plus frame misses.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Per-stage accounting, in stage order.
    pub stages: Vec<SchemeResult>,
    /// Frames whose total time exceeded the frame deadline.
    pub frame_misses: usize,
    /// Number of frames processed.
    pub frames: usize,
}

impl PipelineResult {
    /// Total energy across all stages, pJ.
    pub fn total_energy_pj(&self) -> f64 {
        self.stages.iter().map(SchemeResult::total_energy_pj).sum()
    }

    /// Frame miss rate in percent.
    pub fn frame_miss_pct(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            100.0 * self.frame_misses as f64 / self.frames as f64
        }
    }

    /// Mean energy per frame across all stages, pJ (0 for an empty
    /// stream — an idle pipeline consumed nothing, not NaN).
    pub fn mean_frame_energy_pj(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_energy_pj() / self.frames as f64
        }
    }
}

/// Runs a frame pipeline: for each frame, every stage's slice run predicts
/// its work, the budget is split per `policy`, each stage picks its own
/// level, and the frame's wall-clock time is the sum of stage times.
///
/// `stages[k].slices` holds stage `k`'s slice run for every frame and
/// `traces[k][i]` the execution trace of stage `k` for frame `i` at
/// nominal frequency.
///
/// # Panics
///
/// Panics if stage/slice/trace dimensions disagree or no stages are
/// given.
pub fn run_pipeline(
    stages: &[PipelineStage<'_>],
    traces: &[Vec<JobTrace>],
    frame_deadline_s: f64,
    policy: SplitPolicy,
) -> PipelineResult {
    assert!(!stages.is_empty(), "pipeline needs at least one stage");
    assert_eq!(stages.len(), traces.len());
    let frames = traces[0].len();
    for (stage, t) in stages.iter().zip(traces) {
        assert_eq!(t.len(), frames, "all stages see every frame");
        assert_eq!(stage.slices.runs().len(), frames, "one slice run per frame");
    }

    let mut records: Vec<Vec<JobRecord>> = vec![Vec::with_capacity(frames); stages.len()];
    let mut frame_misses = 0;
    let mut prev_level: Vec<usize> = stages
        .iter()
        .map(|s| s.dvfs.ladder.nominal_index())
        .collect();

    for frame in 0..frames {
        // 1. Every stage predicts its work from its slice run.
        let mut predictions = Vec::with_capacity(stages.len());
        let mut slice_times = Vec::with_capacity(stages.len());
        for stage in stages {
            let run = &stage.slices.runs()[frame];
            let f_hz = stage.energy.f_nominal_hz();
            slice_times.push((run.cycles, run.cycles / f_hz));
            predictions.push(stage.model.predict_cycles(&run.features) / f_hz);
        }
        let total_pred: f64 = predictions.iter().sum();
        let total_slice: f64 = slice_times.iter().map(|s| s.1).sum();

        // 2. Split the frame budget.
        let spendable = frame_deadline_s - total_slice;
        let budgets: Vec<f64> = match policy {
            SplitPolicy::Static => vec![spendable / stages.len() as f64; stages.len()],
            SplitPolicy::Proportional => predictions
                .iter()
                .map(|&p| {
                    if total_pred > 0.0 {
                        spendable * p / total_pred
                    } else {
                        spendable / stages.len() as f64
                    }
                })
                .collect(),
        };

        // 3. Each stage picks its level within its share and runs.
        let mut frame_time = 0.0;
        for (k, (stage, stage_traces)) in stages.iter().zip(traces).enumerate() {
            let f_hz = stage.energy.f_nominal_hz();
            let pred_cycles = predictions[k] * f_hz;
            let choice = stage.dvfs.choose(pred_cycles, f_hz, budgets[k], 0.0);
            let point = stage.dvfs.point(choice);
            let key = match choice {
                LevelChoice::Regular(i) => i,
                LevelChoice::Boost => stage.dvfs.ladder.len(),
            };
            let switch_s = stage.dvfs.switching.time_s(prev_level[k], key);
            prev_level[k] = key;
            let trace = &stage_traces[frame];
            let exec_s = stage.energy.time_s(trace.cycles, point);
            let (slice_cycles, slice_s) = slice_times[k];
            let nominal = predvfs_power::OperatingPoint {
                volts: 1.0,
                freq_ratio: 1.0,
            };
            // Slice energy: the slice is the design's control logic
            // running at nominal with no datapath activity.
            let slice_pj = stage.energy.job_pj(
                slice_cycles.round() as u64,
                &vec![0; trace.dp_active.len()],
                nominal,
                1.0,
            );
            let energy_pj = stage
                .energy
                .job_pj(trace.cycles, &trace.dp_active, point, 1.0)
                + slice_pj;
            frame_time += exec_s + slice_s + switch_s;
            records[k].push(JobRecord {
                cycles: trace.cycles,
                predicted_cycles: Some(pred_cycles),
                choice,
                volts: point.volts,
                freq_ratio: point.freq_ratio,
                exec_s,
                slice_s,
                switch_s,
                energy_pj,
                slice_energy_pj: slice_pj,
                missed: false, // stage-level misses are meaningless here
            });
        }
        if frame_time > frame_deadline_s * (1.0 + 1e-9) {
            frame_misses += 1;
        }
    }

    PipelineResult {
        stages: stages
            .iter()
            .zip(records)
            .map(|(s, r)| SchemeResult {
                scheme: s.name.to_owned(),
                records: r,
            })
            .collect(),
        frame_misses,
        frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs::{train, SliceFlavor, SlicePredictor, TrainerConfig};
    use predvfs_accel::{aes, sha, WorkloadSize};
    use predvfs_power::{AlphaPowerCurve, Ladder, PowerParams, SwitchingModel};
    use predvfs_rtl::{AsicAreaModel, ExecMode, JobInput, Simulator, SliceOptions};

    struct Prepared {
        module: predvfs_rtl::Module,
        model: ExecTimeModel,
        slices: SliceTable,
        energy: EnergyModel,
        jobs: Vec<JobInput>,
    }

    fn prepare(
        build: fn() -> predvfs_rtl::Module,
        f_mhz: f64,
        jobs: Vec<JobInput>,
        train_jobs: &[JobInput],
    ) -> Prepared {
        let module = build();
        let model = train::train(&module, train_jobs, &TrainerConfig::default()).unwrap();
        let slices =
            SlicePredictor::generate(&module, &model, SliceOptions::default(), SliceFlavor::Rtl)
                .unwrap()
                .run_all(&jobs)
                .unwrap();
        let area = AsicAreaModel::default().area(&module);
        let energy = EnergyModel::new(&module, &area, &PowerParams::default(), f_mhz * 1e6, 1.0);
        Prepared {
            module,
            model,
            slices,
            energy,
            jobs,
        }
    }

    #[test]
    fn proportional_split_beats_static_on_skewed_stages() {
        // AES carries ~25x the work of SHA per frame: a static even split
        // forces AES to run near nominal while SHA idles; proportional
        // budgets hand AES nearly the whole frame.
        let frames = 12;
        let aes_jobs: Vec<JobInput> = (0..frames).map(|_| aes::piece(4200 * 1024)).collect();
        let sha_jobs: Vec<JobInput> = (0..frames).map(|_| sha::piece(160 * 1024)).collect();
        let aes_train = aes::workloads(3, WorkloadSize::Quick).train;
        let sha_train = sha::workloads(3, WorkloadSize::Quick).train;
        let a = prepare(aes::build, aes::F_NOMINAL_MHZ, aes_jobs, &aes_train);
        let s = prepare(sha::build, sha::F_NOMINAL_MHZ, sha_jobs, &sha_train);

        let curve = AlphaPowerCurve::default();
        let dvfs = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip());
        let stages = [
            PipelineStage {
                name: "aes",
                slices: &a.slices,
                model: &a.model,
                energy: &a.energy,
                dvfs: dvfs.clone(),
            },
            PipelineStage {
                name: "sha",
                slices: &s.slices,
                model: &s.model,
                energy: &s.energy,
                dvfs: dvfs.clone(),
            },
        ];
        let trace = |p: &Prepared| -> Vec<JobTrace> {
            let sim = Simulator::new(&p.module);
            p.jobs
                .iter()
                .map(|j| sim.run(j, ExecMode::FastForward, None).unwrap())
                .collect()
        };
        let traces = [trace(&a), trace(&s)];

        let stat = run_pipeline(&stages, &traces, 16.7e-3, SplitPolicy::Static);
        let prop = run_pipeline(&stages, &traces, 16.7e-3, SplitPolicy::Proportional);
        assert_eq!(stat.frame_misses, 0);
        assert_eq!(prop.frame_misses, 0);
        assert!(
            prop.total_energy_pj() < stat.total_energy_pj(),
            "proportional {:.0} should beat static {:.0}",
            prop.total_energy_pj(),
            stat.total_energy_pj()
        );
        assert_eq!(prop.frames, frames);
        assert!(prop.frame_miss_pct() == 0.0);
        assert!(
            (prop.mean_frame_energy_pj() - prop.total_energy_pj() / frames as f64).abs() < 1e-9
        );
    }

    #[test]
    fn empty_stream_reports_zero_not_nan() {
        // Regression: a pipeline fed no frames (e.g. a stream that shed
        // everything upstream) must report 0 for every normalized metric
        // instead of NaN from 0/0.
        let sha_train = sha::workloads(3, WorkloadSize::Quick).train;
        let s = prepare(sha::build, sha::F_NOMINAL_MHZ, Vec::new(), &sha_train);
        let curve = AlphaPowerCurve::default();
        let dvfs = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip());
        let stages = [PipelineStage {
            name: "sha",
            slices: &s.slices,
            model: &s.model,
            energy: &s.energy,
            dvfs,
        }];
        let res = run_pipeline(&stages, &[Vec::new()], 16.7e-3, SplitPolicy::Proportional);
        assert_eq!(res.frames, 0);
        assert_eq!(res.frame_misses, 0);
        assert_eq!(res.frame_miss_pct(), 0.0);
        assert_eq!(res.mean_frame_energy_pj(), 0.0);
        assert!(
            res.frame_miss_pct().is_finite() && res.mean_frame_energy_pj().is_finite(),
            "empty streams must not divide by zero"
        );
        assert_eq!(res.stages[0].records.len(), 0);
    }
}
