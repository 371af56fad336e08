//! `eval_full`: what `predvfs eval <bench>` runs, once for each of the
//! seven paper benchmarks — full-size workloads, the ASIC platform, the
//! 16.7 ms deadline, every scheme, and a fresh trace cache per sample.

use std::time::Instant;

use predvfs::CoreError;
use predvfs_sim::{
    Experiment, ExperimentConfig, Platform, Scheme, SchemeResult, Table, TraceCache,
};

use crate::layers::{self, Class};
use crate::{secs, BoxError, Layers, Sample};

/// The workload seed whose outputs are the committed Fig. 11 CSVs.
const PAPER_SEED: u64 = 42;

/// Relative slack of the energy-ordering checks.
const ORDER_SLACK: f64 = 1.001;

/// The `eval_full` workload for one seed.
pub struct EvalFull {
    seed: u64,
    classes: Vec<Class>,
}

impl EvalFull {
    /// The workload's inputs for `seed`.
    pub fn new(seed: u64) -> EvalFull {
        let mut config = ExperimentConfig::paper_default(Platform::Asic);
        config.seed = seed;
        let classes = predvfs_accel::all()
            .into_iter()
            .map(|b| (b, config.clone()))
            .collect();
        EvalFull { seed, classes }
    }

    /// `Experiment::prepare_cached` for every benchmark, one after the
    /// other, as seven `predvfs eval` invocations would.
    fn prepare(&self, cache: &TraceCache) -> Result<Vec<Experiment>, CoreError> {
        self.classes
            .iter()
            .map(|(bench, config)| Experiment::prepare_cached(*bench, config.clone(), cache))
            .collect()
    }

    /// One cold set-up and one run of every scheme on every benchmark.
    pub fn sample(&mut self) -> Result<Sample, BoxError> {
        let cache = TraceCache::new();
        let t = Instant::now();
        let exps = self.prepare(&cache)?;
        let setup_s = secs(t);
        let t = Instant::now();
        let runs: Vec<_> = exps.iter().map(|e| e.run_all(&Scheme::ALL)).collect();
        let run_s = secs(t);
        Ok(self.score(&exps, runs, setup_s, run_s))
    }

    /// Checks and summarises one sample's scheme results.
    fn score(
        &self,
        exps: &[Experiment],
        runs: Vec<Result<Vec<SchemeResult>, CoreError>>,
        setup_s: f64,
        run_s: f64,
    ) -> Sample {
        let mut s = Sample::new(setup_s, run_s);
        let n_schemes = Scheme::ALL.len() as u64;
        let mut fig11 = Fig11::new();
        let (mut norm_sum, mut pred_pj, mut pred_jobs, mut pred_missed) = (0.0, 0.0, 0u64, 0u64);
        let (mut pred_miss_pct, mut pid_miss_pct) = (0.0, 0.0);
        for (exp, run) in exps.iter().zip(runs) {
            let name = exp.bench.name;
            s.attempted += n_schemes;
            let results = match run {
                Ok(r) => r,
                Err(e) => {
                    s.failed += n_schemes;
                    s.failures.push(format!("{name}: scheme run failed: {e}"));
                    continue;
                }
            };
            let by = |scheme: Scheme| {
                &results[Scheme::ALL
                    .iter()
                    .position(|&x| x == scheme)
                    .expect("scheme in ALL")]
            };
            let (base, pid, pred) = (
                by(Scheme::Baseline),
                by(Scheme::Pid),
                by(Scheme::Prediction),
            );
            let (noovh, oracle) = (by(Scheme::PredictionNoOverhead), by(Scheme::Oracle));
            s.check(
                oracle.total_energy_pj() <= noovh.total_energy_pj() * ORDER_SLACK,
                || format!("{name}: oracle energy exceeds prediction-no-ovh"),
            );
            s.check(
                noovh.total_energy_pj() <= pred.total_energy_pj() * ORDER_SLACK,
                || format!("{name}: prediction-no-ovh energy exceeds prediction"),
            );
            s.check(base.misses() == 0, || {
                format!("{name}: baseline missed {} deadlines", base.misses())
            });
            s.jobs += results.iter().map(|r| r.jobs() as u64).sum::<u64>();
            s.sim.events += n_schemes;
            norm_sum += pred.normalized_energy_pct(base);
            pred_pj += pred.total_energy_pj();
            pred_jobs += pred.jobs() as u64;
            pred_missed += pred.misses() as u64;
            pred_miss_pct += pred.miss_pct();
            pid_miss_pct += pid.miss_pct();
            fig11.row(name, base, pid, pred);
        }
        s.check(pred_miss_pct <= pid_miss_pct, || {
            format!("mean prediction misses {pred_miss_pct:.2} exceed mean PID misses {pid_miss_pct:.2} (sums over benchmarks)")
        });
        if self.seed == PAPER_SEED {
            for (file, rendered) in fig11.csvs() {
                let path = format!("results/{file}");
                let committed = std::fs::read_to_string(&path);
                s.check(committed.as_deref().ok() == Some(rendered.as_str()), || {
                    format!("{path} is not reproduced at seed {PAPER_SEED}:\n{rendered}")
                });
            }
        }
        let benches = exps.len() as f64;
        s.sim.energy_norm_pct = norm_sum / benches;
        s.sim.energy_uj_per_job = pred_pj / pred_jobs.max(1) as f64 * 1e-6;
        s.sim.slo_met_pct = 100.0 * (pred_jobs - pred_missed) as f64 / pred_jobs.max(1) as f64;
        s.sim.slo_failures = pred_missed;
        s
    }

    /// The traced run: every set-up layer, the cache, each scheme
    /// serially, and the slice runs, each timed around its public call.
    pub fn trace(&mut self, layers: &mut Layers) -> Result<(), BoxError> {
        layers::install_recorder();
        layers::time_setup(&self.classes, layers)?;
        let cache = TraceCache::new();
        self.prepare(&cache)?;
        let exps = layers::time_warm_prepare(&self.classes, &cache, layers)?;

        let mut schemes_s = 0.0;
        for scheme in Scheme::ALL {
            let t = Instant::now();
            for e in &exps {
                e.run(scheme)?;
            }
            let dt = secs(t);
            schemes_s += dt;
            layers.add(
                &format!("sim.scheme.{}_s", scheme.name().replace('+', "-")),
                dt,
            );
        }

        let (mut slice_s, mut slice_runs) = (0.0, 0);
        for e in &exps {
            let (dt, n) = layers::time_slice(&e.predictor, &e.workloads.test)?;
            slice_s += dt;
            slice_runs += n;
        }
        layers.set_slice_runs(slice_s, slice_runs);
        // Prediction, PredictionNoOverhead and PredictionBoost each run
        // the slice once per test job.
        layers.set("sim.slice_share_pct", 100.0 * 3.0 * slice_s / schemes_s);

        let t = Instant::now();
        for e in &exps {
            e.run_all(&Scheme::ALL)?;
        }
        layers.traced_run_s = secs(t);
        Ok(())
    }
}

/// The two Fig. 11 tables, rendered exactly as `fig11_energy_misses`
/// renders them.
struct Fig11 {
    energy: Table,
    misses: Table,
    sums: [f64; 6],
    rows: usize,
}

impl Fig11 {
    fn new() -> Fig11 {
        let headers = ["bench", "baseline", "pid", "prediction"];
        Fig11 {
            energy: Table::new("Fig. 11 — normalized energy (% of baseline)", &headers),
            misses: Table::new("Fig. 11 — deadline misses (%)", &headers),
            sums: [0.0; 6],
            rows: 0,
        }
    }

    fn row(&mut self, name: &str, base: &SchemeResult, pid: &SchemeResult, pred: &SchemeResult) {
        let en = [
            100.0,
            pid.normalized_energy_pct(base),
            pred.normalized_energy_pct(base),
        ];
        let mi = [base.miss_pct(), pid.miss_pct(), pred.miss_pct()];
        let cells = |v: [f64; 3]| -> Vec<String> {
            std::iter::once(name.to_owned())
                .chain(v.iter().map(|x| format!("{x:.1}")))
                .collect()
        };
        self.energy.row(&cells(en));
        self.misses.row(&cells(mi));
        for i in 0..3 {
            self.sums[i] += en[i];
            self.sums[3 + i] += mi[i];
        }
        self.rows += 1;
    }

    /// `(file name, CSV text)` for both tables, average rows included.
    fn csvs(mut self) -> [(&'static str, String); 2] {
        let n = self.rows as f64;
        let avg = |v: &[f64]| -> Vec<String> {
            std::iter::once("average".to_owned())
                .chain(v.iter().map(|x| format!("{:.1}", x / n)))
                .collect()
        };
        self.energy.row(&avg(&self.sums[..3]));
        self.misses.row(&avg(&self.sums[3..]));
        [
            ("fig11_energy.csv", self.energy.to_csv()),
            ("fig11_misses.csv", self.misses.to_csv()),
        ]
    }
}
