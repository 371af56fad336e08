//! The predvfs benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload eval_full|serve_live|serve_scale --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! A run repeats the workload (set-up, then the measured run) until
//! `--seconds` have passed and at least [`MIN_SAMPLES`] samples exist,
//! and reports medians of the times scaled to a reference host speed
//! (see [`host`]). With `--trace 1` it takes one untraced sample
//! and then times every layer from here, around calls into the public
//! functions of the repository's crates; nothing inside the program is
//! instrumented. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! with 1 when an output check failed, and with 2 on a usage error.

mod eval;
mod host;
mod layers;
mod serve;

use std::error::Error;
use std::process::ExitCode;
use std::time::Instant;

pub use layers::Layers;

/// The boxed error every workload step returns.
pub type BoxError = Box<dyn Error>;

/// Worker threads for the `predvfs-par` pool and the most shards run.
pub const THREADS: usize = 2;

/// Samples taken at the least, so that set-up and run times are medians.
const MIN_SAMPLES: usize = 2;

/// No new sample starts when the one before would end past this many
/// seconds: a run must finish well inside its time limit.
const BUDGET_S: f64 = 140.0;

/// The figures a run simulates rather than measures. They depend only on
/// the workload and its seed, so every sample of a run must repeat them
/// bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct SimFigures {
    /// Energy as a percentage of running the same jobs at nominal V/f.
    pub energy_norm_pct: f64,
    /// Accelerator plus slice energy per completed job, microjoules.
    pub energy_uj_per_job: f64,
    /// Submitted jobs that completed within their deadline, percent.
    pub slo_met_pct: f64,
    /// Deadline misses plus shed jobs plus contained errors.
    pub slo_failures: u64,
    /// Events processed (serve) or scheme runs (eval).
    pub events: u64,
}

impl SimFigures {
    fn bits(&self) -> [u64; 5] {
        [
            self.energy_norm_pct.to_bits(),
            self.energy_uj_per_job.to_bits(),
            self.slo_met_pct.to_bits(),
            self.slo_failures,
            self.events,
        ]
    }
}

/// One set-up plus one measured run of a workload.
#[derive(Debug)]
pub struct Sample {
    /// Wall seconds of the set-up.
    pub setup_s: f64,
    /// Wall seconds of the measured run.
    pub run_s: f64,
    /// Simulated jobs the run completed.
    pub jobs: u64,
    /// The simulated outcome.
    pub sim: SimFigures,
    /// Operations attempted (runs, jobs, and checks).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Reference host speed over the host's speed around this sample;
    /// reported times are wall times multiplied by it.
    pub host_scale: f64,
}

impl Sample {
    /// A sample with the given timings and nothing counted yet.
    pub fn new(setup_s: f64, run_s: f64) -> Sample {
        Sample {
            setup_s,
            run_s,
            jobs: 0,
            sim: SimFigures {
                energy_norm_pct: 0.0,
                energy_uj_per_job: 0.0,
                slo_met_pct: 0.0,
                slo_failures: 0,
                events: 0,
            },
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            host_scale: 1.0,
        }
    }

    /// Records one output check: an attempted operation that fails when
    /// `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// A workload with the inputs it generated from its seed.
enum Workload {
    EvalFull(eval::EvalFull),
    ServeLive(serve::ServeLive),
    ServeScale(serve::ServeScale),
}

impl Workload {
    const NAMES: [&'static str; 3] = ["eval_full", "serve_live", "serve_scale"];

    fn new(name: &str, seed: u64) -> Workload {
        match name {
            "eval_full" => Workload::EvalFull(eval::EvalFull::new(seed)),
            "serve_live" => Workload::ServeLive(serve::ServeLive::new(seed)),
            "serve_scale" => Workload::ServeScale(serve::ServeScale::new(seed)),
            _ => unreachable!("workload names are checked when parsed"),
        }
    }

    fn sample(&mut self) -> Result<Sample, BoxError> {
        match self {
            Workload::EvalFull(w) => w.sample(),
            Workload::ServeLive(w) => w.sample(),
            Workload::ServeScale(w) => w.sample(),
        }
    }

    fn trace(&mut self, layers: &mut Layers) -> Result<(), BoxError> {
        match self {
            Workload::EvalFull(w) => w.trace(layers),
            Workload::ServeLive(w) => w.trace(layers),
            Workload::ServeScale(w) => w.trace(layers),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !Workload::NAMES.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `VmHWM` from `/proc/self/status` in kB: this process's peak resident
/// set so far.
fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Takes samples until `seconds` have passed and [`MIN_SAMPLES`] exist
/// (one sample when `once`), stopping early only to stay in budget.
///
/// Also returns the peak resident set right after the first sample:
/// later samples only add allocator fragmentation, and their number
/// varies with the machine's speed.
fn take_samples(
    seconds: f64,
    once: bool,
    mut sample: impl FnMut() -> Result<Sample, BoxError>,
) -> Result<(Vec<Sample>, Option<f64>), BoxError> {
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut peak_rss = None;
    let mut kernel_before = host::kernel_s();
    loop {
        let t = Instant::now();
        let mut s = sample()?;
        let kernel_after = host::kernel_s();
        s.host_scale = host::REFERENCE_S / ((kernel_before + kernel_after) / 2.0);
        kernel_before = kernel_after;
        samples.push(s);
        if samples.len() == 1 {
            peak_rss = peak_rss_kb();
        }
        let last = secs(t);
        let elapsed = secs(start);
        let enough = once || (samples.len() >= MIN_SAMPLES && elapsed >= seconds);
        if enough || elapsed + last > BUDGET_S {
            return Ok((samples, peak_rss));
        }
    }
}

/// Whether `name` may be emitted: letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Renders the result line.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<ExitCode, BoxError> {
    predvfs_par::set_threads(THREADS);
    let mut workload = Workload::new(&args.workload, args.seed);
    let (samples, peak_rss) = take_samples(args.seconds, args.trace, || workload.sample())?;

    let mut attempted: u64 = samples.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = samples.iter().map(|s| s.failed).sum();
    let mut failures: Vec<String> = samples.iter().flat_map(|s| s.failures.clone()).collect();
    // Determinism guard: a simulated figure that moves between samples of
    // one run is a failure, never averaged away.
    let first = samples[0].sim;
    for (i, s) in samples.iter().enumerate().skip(1) {
        attempted += 1;
        if s.sim.bits() != first.bits() {
            failed += 1;
            failures.push(format!(
                "sample {i} simulated {:?}, sample 0 simulated {first:?}",
                s.sim
            ));
        }
    }

    let of = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let wall_run_s = of(&|s| s.run_s);
    let host_scale = of(&|s| s.host_scale);
    eprintln!(
        "wall medians: setup {:.4} s, run {wall_run_s:.4} s; host scale {host_scale:.4}",
        of(&|s| s.setup_s)
    );
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers = Layers::default();
        workload.trace(&mut layers)?;
        let overhead_pct = 100.0 * (layers.traced_run_s / wall_run_s - 1.0);
        layers.set("bench.trace_overhead_pct", overhead_pct);
        layers.set("bench.host_scale", host_scale);
        layers.metrics()
    } else {
        let setup_s = of(&|s| s.setup_s * s.host_scale);
        let run_s = of(&|s| s.run_s * s.host_scale);
        let jobs_per_sec = of(&|s| s.jobs as f64 / (s.run_s * s.host_scale));
        let rss = peak_rss.ok_or("VmHWM is not readable from /proc/self/status")?;
        vec![
            ("setup_s", setup_s, "s"),
            ("run_s", run_s, "s"),
            ("jobs_per_sec", jobs_per_sec, "1/s"),
            ("peak_rss_kb", rss, "kB"),
            ("energy_norm_pct", first.energy_norm_pct, "%"),
            ("energy_uj_per_job", first.energy_uj_per_job, "uJ"),
            ("slo_met_pct", first.slo_met_pct, "%"),
        ]
    };

    // Self-check of the emitted result: legal names, a unit each, finite
    // values.
    let mut out: Vec<(&str, f64, &str)> = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        attempted += 1;
        if !(valid_name(name) && !unit.is_empty() && value.is_finite()) {
            failed += 1;
            failures.push(format!(
                "metric `{name}` = {value} [{unit}] is not emittable"
            ));
            continue;
        }
        out.push((name, value, unit));
    }

    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    eprintln!(
        "{} samples; {attempted} operations attempted, {failed} failed",
        samples.len()
    );
    for (name, value, unit) in &out {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &out));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload eval_full|serve_live|serve_scale \
                 --seed <n> --seconds <s> --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
