//! The paper's evaluation as one table of exhibits over one shared
//! preparation.
//!
//! Every table, figure, ablation and extension is an [`Exhibit`]: a
//! function that reads what it needs from a [`Context`], prints a
//! paper-style text table, and writes the same data as CSV into the
//! context's output directory. The `repro` binary runs [`EXHIBITS`] in
//! order, or the ones named on its command line.
//!
//! The context owns one [`TraceCache`] and prepares each experiment
//! configuration at most once, on first use. Exhibits that read the same
//! configuration therefore share its experiments, and configurations that
//! differ only in platform, switching model or slice flavor share the
//! cache's layers: one design compile and one trace pass per benchmark,
//! one fit per training problem and trainer, and one slice and slice
//! table per selected feature set. The ablations' own fits and slices go
//! through the same layers, so a grid point equal to the paper's
//! configuration reuses its fit.

mod ablations;
mod extensions;
mod figures;
mod serve;

use std::error::Error;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use predvfs::{CoreError, DvfsController, DvfsModel, SliceFlavor};
use predvfs_accel::{all, Benchmark, WorkloadSize};
use predvfs_power::{EnergyModel, SwitchingModel};
use predvfs_sim::{
    run_scheme, Design, Experiment, ExperimentConfig, Platform, RunConfig, Scheme, SchemeResult,
    Table, TraceBundle, TraceCache,
};

/// What an exhibit returns: the first failed preparation, write or
/// headline check.
pub type Outcome = Result<(), Box<dyn Error>>;

/// One exhibit of the evaluation.
pub struct Exhibit {
    /// Its name: the heading in EXPERIMENTS.md and the `=== name ===`
    /// header in the text log.
    pub name: &'static str,
    /// Regenerates the exhibit from a context.
    pub run: fn(&Context) -> Outcome,
}

/// Builds the exhibit table from functions named after their exhibits.
macro_rules! exhibits {
    ($($module:ident::$name:ident),* $(,)?) => {
        [$(Exhibit { name: stringify!($name), run: $module::$name }),*]
    };
}

/// Every exhibit, in the order the README lists them.
pub static EXHIBITS: [Exhibit; 27] = exhibits![
    figures::fig02_h264_variation,
    figures::fig03_pid_lag,
    figures::table4_asic_impl,
    figures::fig10_prediction_error,
    figures::fig11_energy_misses,
    figures::fig12_slice_overhead,
    figures::fig13_no_overhead_oracle,
    figures::fig14_boost,
    figures::fig15_deadline_sweep,
    figures::fig16_fpga,
    figures::fig17_fpga_overhead,
    figures::fig18_hls_slicing,
    figures::fig19_hls_overhead,
    figures::case_study_h264,
    extensions::ext_software_predictor,
    ablations::ablation_gamma,
    ablations::ablation_alpha,
    ablations::ablation_margin,
    ablations::ablation_switching,
    ablations::ablation_compression,
    ablations::ablation_table,
    ablations::ablation_governors,
    extensions::ext_pipeline,
    extensions::ext_hybrid,
    serve::fig_serve_drift,
    serve::fig_serve_chaos,
    serve::fig_slo,
];

/// The exhibit called `name`.
pub fn exhibit(name: &str) -> Option<&'static Exhibit> {
    EXHIBITS.iter().find(|e| e.name == name)
}

/// What every exhibit reads: the workload size, the output directory,
/// one trace cache, and each shared experiment configuration, prepared
/// at most once, on first use.
pub struct Context {
    size: WorkloadSize,
    out: PathBuf,
    cache: TraceCache,
    asic: OnceLock<Vec<Experiment>>,
    fpga: OnceLock<Vec<Experiment>>,
    hls: OnceLock<Vec<Experiment>>,
}

impl Context {
    /// A context for `size` workloads that writes into `out`.
    pub fn new(size: WorkloadSize, out: impl Into<PathBuf>) -> Context {
        Context {
            size,
            out: out.into(),
            cache: TraceCache::new(),
            asic: OnceLock::new(),
            fpga: OnceLock::new(),
            hls: OnceLock::new(),
        }
    }

    /// The workload size every configuration uses.
    pub(crate) fn size(&self) -> WorkloadSize {
        self.size
    }

    /// The trace cache every preparation goes through.
    pub fn cache(&self) -> &TraceCache {
        &self.cache
    }

    /// The paper's configuration for `platform` at this context's size.
    pub(crate) fn config(&self, platform: Platform) -> ExperimentConfig {
        let mut config = ExperimentConfig::paper_default(platform);
        config.size = self.size;
        config
    }

    /// The seven benchmarks under the paper's ASIC configuration.
    ///
    /// # Errors
    ///
    /// Propagates preparation failures.
    pub(crate) fn asic(&self) -> Result<&[Experiment], CoreError> {
        self.shared(&self.asic, "ASIC", self.config(Platform::Asic), &all())
    }

    /// The seven benchmarks under the paper's FPGA configuration.
    ///
    /// # Errors
    ///
    /// Propagates preparation failures.
    pub(crate) fn fpga(&self) -> Result<&[Experiment], CoreError> {
        self.shared(&self.fpga, "FPGA", self.config(Platform::Fpga), &all())
    }

    /// md and stencil under the ASIC configuration with HLS-level slices
    /// (Figs. 18–19).
    ///
    /// # Errors
    ///
    /// Propagates preparation failures.
    pub(crate) fn hls(&self) -> Result<&[Experiment], CoreError> {
        let mut config = self.config(Platform::Asic);
        config.flavor = SliceFlavor::hls_default();
        let benches: Vec<Benchmark> = all()
            .into_iter()
            .filter(|b| matches!(b.name, "md" | "stencil"))
            .collect();
        self.shared(&self.hls, "HLS-sliced ASIC", config, &benches)
    }

    /// One benchmark of [`Context::asic`].
    ///
    /// # Errors
    ///
    /// Propagates preparation failures, and rejects an unknown name.
    fn asic_bench(&self, name: &str) -> Result<&Experiment, Box<dyn Error>> {
        self.asic()?
            .iter()
            .find(|e| e.bench.name == name)
            .ok_or_else(|| format!("unknown benchmark '{name}'").into())
    }

    /// Prepares `benches` under a one-off `config`, serving their traces
    /// from the shared cache.
    ///
    /// # Errors
    ///
    /// Propagates preparation failures.
    fn prepare(
        &self,
        what: &str,
        config: &ExperimentConfig,
        benches: &[Benchmark],
    ) -> Result<Vec<Experiment>, CoreError> {
        eprintln!("preparing {what} ({} benchmarks)...", benches.len());
        predvfs_par::par_try_map(benches, |b| {
            Experiment::prepare_cached(*b, config.clone(), &self.cache)
        })
    }

    /// Returns the experiments in `slot`, preparing them on first use.
    fn shared<'a>(
        &'a self,
        slot: &'a OnceLock<Vec<Experiment>>,
        what: &str,
        config: ExperimentConfig,
        benches: &[Benchmark],
    ) -> Result<&'a [Experiment], CoreError> {
        if let Some(set) = slot.get() {
            return Ok(set);
        }
        let set = self.prepare(what, &config, benches)?;
        Ok(slot.get_or_init(|| set))
    }

    /// `name`'s design and its trace bundle at the paper's seed: the
    /// module, workloads, training profile and test traces that every
    /// configuration of it shares.
    ///
    /// # Errors
    ///
    /// Rejects an unknown name and propagates simulation failures.
    fn bundle(&self, name: &str) -> Result<(Arc<Design>, Arc<TraceBundle>), Box<dyn Error>> {
        let bench =
            predvfs_accel::by_name(name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
        let seed = self.config(Platform::Asic).seed;
        let bundle = self.cache.get_or_simulate(&bench, seed, self.size)?;
        Ok((self.cache.design(&bench)?, bundle))
    }

    /// The path of `file` in the output directory.
    fn path(&self, file: &str) -> PathBuf {
        self.out.join(file)
    }

    /// Writes `table` as CSV to `file` in the output directory.
    fn write(&self, table: &Table, file: &str) -> std::io::Result<()> {
        table.write_csv(&self.path(file))
    }

    /// Prints `table`, then writes it as CSV to `file` in the output
    /// directory.
    fn emit(&self, table: &Table, file: &str) -> std::io::Result<()> {
        table.print();
        self.write(table, file)
    }
}

/// Runs a controller that no [`Scheme`] covers over `e`'s test set, at
/// the paper's deadline with 100 µs switching.
fn run_controller(
    e: &Experiment,
    ctrl: &mut dyn DvfsController,
    dvfs: &DvfsModel,
    slice_energy: Option<&EnergyModel>,
) -> Result<SchemeResult, CoreError> {
    let config = RunConfig {
        deadline_s: e.config().deadline_s,
        switching: SwitchingModel::off_chip(),
    };
    run_scheme(
        ctrl,
        &e.workloads.test,
        &e.test_traces,
        &e.energy,
        slice_energy,
        dvfs,
        &config,
    )
}

/// Runs `schemes` on `e` in parallel, one result per scheme.
fn run_schemes<const N: usize>(
    e: &Experiment,
    schemes: [Scheme; N],
) -> Result<[SchemeResult; N], CoreError> {
    Ok(e.run_all(&schemes)?
        .try_into()
        .expect("one result per scheme"))
}

/// Labelled rows of `N` values.
type Rows<const N: usize> = Vec<(&'static str, [f64; N])>;

/// One row of values per experiment, then their mean as an `average`
/// row. Returns the rows and, separately, the mean.
fn with_average<const N: usize>(
    exps: &[Experiment],
    mut values: impl FnMut(&Experiment) -> Result<[f64; N], CoreError>,
) -> Result<(Rows<N>, [f64; N]), CoreError> {
    let mut rows = Vec::with_capacity(exps.len() + 1);
    let mut sum = [0.0; N];
    for e in exps {
        let v = values(e)?;
        for (s, x) in sum.iter_mut().zip(v) {
            *s += x;
        }
        rows.push((e.bench.name, v));
    }
    let mean = sum.map(|s| s / exps.len() as f64);
    rows.push(("average", mean));
    Ok((rows, mean))
}

/// Fills `t` with one row per experiment plus the average: the energies
/// of schemes `a` and `b` normalized to the baseline, then their miss
/// rates. Returns the average row.
fn versus(t: &mut Table, exps: &[Experiment], a: Scheme, b: Scheme) -> Result<[f64; 4], CoreError> {
    let (rows, mean) = with_average(exps, |e| {
        let [base, x, y] = run_schemes(e, [Scheme::Baseline, a, b])?;
        Ok([
            x.normalized_energy_pct(&base),
            y.normalized_energy_pct(&base),
            x.miss_pct(),
            y.miss_pct(),
        ])
    })?;
    for (name, v) in &rows {
        t.row(&cells(name, v, &[1, 1, 2, 2]));
    }
    Ok(mean)
}

/// A table row: `label`, then each value with its column's decimals.
fn cells(label: &str, values: &[f64], decimals: &[usize]) -> Vec<String> {
    std::iter::once(label.to_owned())
        .chain(values.iter().zip(decimals).map(|(v, d)| format!("{v:.d$}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhibit_names_are_unique_and_found() {
        for (i, e) in EXHIBITS.iter().enumerate() {
            assert!(std::ptr::eq(exhibit(e.name).unwrap(), &EXHIBITS[i]));
        }
        assert!(exhibit("nosuch").is_none());
    }

    #[test]
    fn config_is_the_paper_setup_at_the_context_size() {
        let ctx = Context::new(WorkloadSize::Quick, std::env::temp_dir());
        let cfg = ctx.config(Platform::Asic);
        assert!((cfg.deadline_s - 16.7e-3).abs() < 1e-9);
        assert_eq!(cfg.size, WorkloadSize::Quick);
        assert_eq!(ctx.config(Platform::Fpga).platform, Platform::Fpga);
    }

    #[test]
    fn cells_round_each_column_to_its_decimals() {
        assert_eq!(
            cells("average", &[41.04, 1.146], &[1, 2]),
            ["average", "41.0", "1.15"]
        );
    }
}
