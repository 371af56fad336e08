//! Scenario descriptions for the service runtime: which streams run,
//! against which platform, with what deadlines, arrival rates, queue
//! bounds, overload policies, controllers, and injected drift.
//!
//! Scenarios are parsed from a small line-oriented text format so the CLI
//! can run service experiments without recompiling:
//!
//! ```text
//! # comment
//! platform asic            # or fpga
//! size quick               # or full
//! stream sha  deadline_ms=16.7 period_ms=8 jobs=60 queue=4 policy=shed controller=predictive seed=42
//! stream aes  policy=relax:1.5 controller=adaptive drift=0.5:1.6
//!
//! [faults]                 # inert unless --faults / chaos activates it
//! seed=7
//! trace_spike=0.2:1.9 switch_reject=0.25
//! ```
//!
//! Every `key=val` is optional; [`StreamSpec::new`] supplies defaults.
//! The `[faults]` section (keys documented at
//! [`predvfs_faults::FaultConfig::set`]) declares the chaos mix a
//! `serve --faults <seed>` or `chaos` run fires; a plain `serve` run
//! ignores it.

use std::error::Error;
use std::fmt;

use predvfs::CoreError;
use predvfs_accel::{by_name, Benchmark, WorkloadSize};
use predvfs_faults::FaultConfig;
use predvfs_sim::Platform;

/// What happens to an arriving job when its stream's queue is full.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverloadPolicy {
    /// Drop the job and count it as shed.
    Shed,
    /// Admit the job anyway with its deadline stretched by `factor`,
    /// counting it as relaxed.
    Relax {
        /// Deadline multiplier applied to the admitted job (> 1).
        factor: f64,
    },
}

/// Which controller drives a stream's DVFS decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// The paper's predictive controller with a fixed offline model.
    ///
    /// Serve runs it as the memoized decision table of
    /// [`ControllerKind::Cached`]: the two keywords name one path.
    Predictive,
    /// Predictive with online drift detection, PID fallback, and
    /// warm-started refits ([`predvfs::AdaptiveController`]).
    Adaptive,
    /// Reactive PID control only.
    Pid,
    /// Predictive with EWMA residual correction
    /// ([`predvfs::HybridController`]).
    Hybrid,
    /// The same path as [`ControllerKind::Predictive`], under the name
    /// the scale scenarios force.
    ///
    /// Both read the class's decision table, built once per class from its
    /// slice table: the prediction and slice energy of each (cyclically
    /// reused) test job, so the per-job cost is a ladder scan, which is
    /// what makes million-stream scale scenarios tractable. Decisions are
    /// those of [`predvfs::PredictiveController`] over the same slice
    /// table.
    Cached,
}

impl ControllerKind {
    /// The scenario-file keyword.
    pub fn name(self) -> &'static str {
        match self {
            ControllerKind::Predictive => "predictive",
            ControllerKind::Adaptive => "adaptive",
            ControllerKind::Pid => "pid",
            ControllerKind::Hybrid => "hybrid",
            ControllerKind::Cached => "cached",
        }
    }
}

/// A mid-run workload-distribution shift injected into a stream.
///
/// From job `⌊at_frac·jobs⌋` onward every job's execution trace is scaled
/// by `cycle_scale` — the jobs *look* identical to the feature slice (the
/// features the offline model reads don't move) but take longer, exactly
/// the silent-staleness failure mode online adaptation exists for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSpec {
    /// Fraction of the stream's job sequence after which the shift applies.
    pub at_frac: f64,
    /// Multiplier on execution cycles (and datapath activity) post-shift.
    pub cycle_scale: f64,
}

/// One job stream: a benchmark, an arrival process, and service policy.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Display name (defaults to the benchmark name).
    pub name: String,
    /// The accelerator serving this stream.
    pub bench: Benchmark,
    /// Per-job deadline, seconds.
    pub deadline_s: f64,
    /// Inter-arrival period, seconds.
    pub period_s: f64,
    /// Number of jobs the stream submits.
    pub jobs: usize,
    /// Admission-queue bound (jobs waiting, excluding the one in service).
    pub queue_bound: usize,
    /// What to do with arrivals that find the queue full.
    pub policy: OverloadPolicy,
    /// The controller driving DVFS decisions.
    pub controller: ControllerKind,
    /// Workload seed.
    pub seed: u64,
    /// Optional mid-run workload shift.
    pub drift: Option<DriftSpec>,
}

impl StreamSpec {
    /// A stream with the paper's deadline (16.7 ms), arrivals at the
    /// deadline period, 60 jobs, a queue bound of 4, shedding on
    /// overload, the predictive controller, and seed 42.
    pub fn new(bench: Benchmark) -> StreamSpec {
        StreamSpec {
            name: bench.name.to_owned(),
            bench,
            deadline_s: 16.7e-3,
            period_s: 16.7e-3,
            jobs: 60,
            queue_bound: 4,
            policy: OverloadPolicy::Shed,
            controller: ControllerKind::Predictive,
            seed: 42,
            drift: None,
        }
    }
}

/// The `[faults]` section of a scenario: a default seed plus the fault
/// mix a chaos run should fire.
///
/// Declaring the section does **not** perturb plain `serve` runs — it
/// is inert until activated by `serve --faults <seed>` (the flag's seed
/// wins over the section's) or the `chaos` subcommand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultsSpec {
    /// Default fault-plan seed when the CLI doesn't pick one.
    pub seed: u64,
    /// Per-kind firing probabilities and magnitudes.
    pub config: FaultConfig,
}

impl Default for FaultsSpec {
    fn default() -> FaultsSpec {
        FaultsSpec {
            seed: 42,
            config: FaultConfig::none(),
        }
    }
}

/// A full service scenario: platform, workload scale, and streams.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// ASIC or FPGA ladder/curve.
    pub platform: Platform,
    /// Paper-scale or quick workloads.
    pub size: WorkloadSize,
    /// The concurrent job streams.
    pub streams: Vec<StreamSpec>,
    /// Fault mix declared by a `[faults]` section, if any.
    pub faults: Option<FaultsSpec>,
}

impl Scenario {
    /// The built-in demonstration scenario, `examples/demo.scenario`:
    /// four mixed-benchmark streams on the ASIC platform, one adaptive
    /// stream with injected drift and two overloaded streams exercising
    /// backpressure, one shedding and one relaxing deadlines.
    pub fn demo() -> Scenario {
        Scenario::parse(include_str!("../../../examples/demo.scenario"))
            .expect("examples/demo.scenario parses")
    }

    /// Parses the line-oriented scenario format (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Parse`] with a 1-based line number for any
    /// malformed directive, and [`ServeError::UnknownBenchmark`] for a
    /// stream naming an unregistered accelerator.
    pub fn parse(text: &str) -> Result<Scenario, ServeError> {
        let mut scenario = Scenario {
            platform: Platform::Asic,
            size: WorkloadSize::Quick,
            streams: Vec::new(),
            faults: None,
        };
        let mut in_faults = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| ServeError::Parse { line: i + 1, msg };
            if line == "[faults]" {
                in_faults = true;
                scenario.faults.get_or_insert_with(FaultsSpec::default);
                continue;
            }
            let mut words = line.split_whitespace();
            let first = words.clone().next();
            // Inside a `[faults]` section every key=val line configures
            // the fault mix; any regular directive closes the section.
            if in_faults && first.is_some_and(|w| w.contains('=')) {
                let faults = scenario.faults.as_mut().expect("section opened");
                for kv in line.split_whitespace() {
                    let (key, val) = kv
                        .split_once('=')
                        .ok_or_else(|| err(format!("expected key=val, got {kv:?}")))?;
                    if key == "seed" {
                        faults.seed = val
                            .parse()
                            .map_err(|e: std::num::ParseIntError| err(e.to_string()))?;
                    } else {
                        faults
                            .config
                            .set(key, val)
                            .map_err(|msg| err(format!("{key}={val}: {msg}")))?;
                    }
                }
                continue;
            }
            in_faults = false;
            match words.next() {
                Some("platform") => {
                    scenario.platform = match words.next() {
                        Some("asic") => Platform::Asic,
                        Some("fpga") => Platform::Fpga,
                        other => {
                            return Err(err(format!("expected asic|fpga, got {other:?}")));
                        }
                    };
                }
                Some("size") => {
                    scenario.size = match words.next() {
                        Some("quick") => WorkloadSize::Quick,
                        Some("full") => WorkloadSize::Full,
                        other => {
                            return Err(err(format!("expected quick|full, got {other:?}")));
                        }
                    };
                }
                Some("stream") => {
                    let name = words
                        .next()
                        .ok_or_else(|| err("stream needs a benchmark name".into()))?;
                    let bench = by_name(name)
                        .ok_or_else(|| ServeError::UnknownBenchmark(name.to_owned()))?;
                    let mut spec = StreamSpec::new(bench);
                    for kv in words {
                        let (key, val) = kv
                            .split_once('=')
                            .ok_or_else(|| err(format!("expected key=val, got {kv:?}")))?;
                        parse_stream_option(&mut spec, key, val)
                            .map_err(|msg| err(format!("{key}={val}: {msg}")))?;
                    }
                    scenario.streams.push(spec);
                }
                Some(word) => {
                    return Err(err(format!("unknown directive {word:?}")));
                }
                None => unreachable!("blank lines are skipped"),
            }
        }
        if scenario.streams.is_empty() {
            return Err(ServeError::Parse {
                line: text.lines().count().max(1),
                msg: "scenario declares no streams".into(),
            });
        }
        Ok(scenario)
    }
}

fn parse_stream_option(spec: &mut StreamSpec, key: &str, val: &str) -> Result<(), String> {
    fn num(val: &str) -> Result<f64, String> {
        val.parse::<f64>().map_err(|e| e.to_string())
    }
    fn positive(val: &str) -> Result<f64, String> {
        let v = num(val)?;
        // `is_finite` so NaN and infinities are rejected, not just <= 0.
        if !v.is_finite() || v <= 0.0 {
            return Err("must be positive".into());
        }
        Ok(v)
    }
    match key {
        "name" => spec.name = val.to_owned(),
        "deadline_ms" => spec.deadline_s = positive(val)? * 1e-3,
        "period_ms" => spec.period_s = positive(val)? * 1e-3,
        "jobs" => {
            spec.jobs = val
                .parse()
                .map_err(|e: std::num::ParseIntError| e.to_string())?;
            if spec.jobs == 0 {
                return Err("stream must submit at least one job".into());
            }
        }
        "queue" => {
            spec.queue_bound = val
                .parse()
                .map_err(|e: std::num::ParseIntError| e.to_string())?;
        }
        "seed" => {
            spec.seed = val
                .parse()
                .map_err(|e: std::num::ParseIntError| e.to_string())?
        }
        "policy" => {
            spec.policy = if val == "shed" {
                OverloadPolicy::Shed
            } else if let Some(f) = val.strip_prefix("relax:") {
                let factor = num(f)?;
                // `is_finite` first: NaN fails every comparison, so a
                // plain `factor <= 1.0` check would wave NaN (and +inf)
                // straight through into deadline arithmetic.
                if !factor.is_finite() || factor <= 1.0 {
                    return Err("relax factor must be finite and > 1".into());
                }
                OverloadPolicy::Relax { factor }
            } else {
                return Err("expected shed or relax:<factor>".into());
            };
        }
        "controller" => {
            spec.controller = match val {
                "predictive" => ControllerKind::Predictive,
                "adaptive" => ControllerKind::Adaptive,
                "pid" => ControllerKind::Pid,
                "hybrid" => ControllerKind::Hybrid,
                "cached" => ControllerKind::Cached,
                _ => return Err("expected predictive|adaptive|pid|hybrid|cached".into()),
            };
        }
        "drift" => {
            let (at, scale) = val
                .split_once(':')
                .ok_or_else(|| "expected <at_frac>:<cycle_scale>".to_owned())?;
            let drift = DriftSpec {
                at_frac: num(at)?,
                cycle_scale: positive(scale).map_err(|e| format!("cycle_scale {e}"))?,
            };
            if !(0.0..=1.0).contains(&drift.at_frac) {
                return Err("at_frac must be in [0, 1]".into());
            }
            spec.drift = Some(drift);
        }
        _ => return Err("unknown stream option".into()),
    }
    Ok(())
}

/// Errors produced by scenario parsing and the service runtime.
#[derive(Debug)]
pub enum ServeError {
    /// A failure from the core pipeline (training, slicing, simulation).
    Core(CoreError),
    /// A malformed scenario file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A stream names a benchmark that is not registered.
    UnknownBenchmark(String),
    /// A stream specification is semantically invalid.
    InvalidSpec {
        /// The stream's display name.
        stream: String,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::Parse { line, msg } => write!(f, "scenario line {line}: {msg}"),
            ServeError::UnknownBenchmark(name) => write!(f, "unknown benchmark {name:?}"),
            ServeError::InvalidSpec { stream, msg } => write!(f, "stream {stream:?}: {msg}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> ServeError {
        ServeError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_format() {
        let s = Scenario::parse(
            "# demo\n\
             platform fpga\n\
             size quick\n\
             stream sha deadline_ms=20 period_ms=10 jobs=30 queue=2 policy=shed seed=7\n\
             stream aes policy=relax:1.5 controller=adaptive drift=0.5:1.6 # inline comment\n",
        )
        .unwrap();
        assert_eq!(s.platform, Platform::Fpga);
        assert_eq!(s.streams.len(), 2);
        let sha = &s.streams[0];
        assert_eq!(sha.name, "sha");
        assert!((sha.deadline_s - 20e-3).abs() < 1e-12);
        assert!((sha.period_s - 10e-3).abs() < 1e-12);
        assert_eq!((sha.jobs, sha.queue_bound, sha.seed), (30, 2, 7));
        let aes = &s.streams[1];
        assert_eq!(aes.policy, OverloadPolicy::Relax { factor: 1.5 });
        assert_eq!(aes.controller, ControllerKind::Adaptive);
        let drift = aes.drift.unwrap();
        assert!((drift.at_frac - 0.5).abs() < 1e-12);
        assert!((drift.cycle_scale - 1.6).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_input_with_line_numbers() {
        let err = Scenario::parse("platform asic\nstream sha queue=x\n").unwrap_err();
        match err {
            ServeError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        assert!(matches!(
            Scenario::parse("stream nosuch\n").unwrap_err(),
            ServeError::UnknownBenchmark(_)
        ));
        assert!(matches!(
            Scenario::parse("platform asic\n").unwrap_err(),
            ServeError::Parse { .. }
        ));
        assert!(matches!(
            Scenario::parse("stream sha drift=2:1.5\n").unwrap_err(),
            ServeError::Parse { .. }
        ));
    }

    /// Asserts that parsing fails with a [`ServeError::Parse`] whose
    /// message contains `needle`.
    fn assert_parse_err(text: &str, needle: &str) {
        match Scenario::parse(text) {
            Err(ServeError::Parse { msg, .. }) => assert!(
                msg.contains(needle),
                "error for {text:?} should mention {needle:?}, got {msg:?}"
            ),
            other => panic!("{text:?} must fail to parse, got {other:?}"),
        }
    }

    #[test]
    fn relax_factor_rejects_nan_inf_and_at_most_one() {
        // `factor < 1.0` would wave NaN and +inf through (NaN fails every
        // comparison) and accept exactly 1.0, which makes Relax a no-op
        // pretending to be backpressure relief.
        assert_parse_err("stream sha policy=relax:nan\n", "finite");
        assert_parse_err("stream sha policy=relax:inf\n", "finite");
        assert_parse_err("stream sha policy=relax:-inf\n", "finite");
        assert_parse_err("stream sha policy=relax:1.0\n", "> 1");
        assert_parse_err("stream sha policy=relax:1\n", "> 1");
        assert_parse_err("stream sha policy=relax:0.5\n", "> 1");
        assert_parse_err("stream sha policy=relax:-2\n", "> 1");
        // The boundary the validation protects: anything > 1 still parses.
        let s = Scenario::parse("stream sha policy=relax:1.001\n").unwrap();
        assert_eq!(s.streams[0].policy, OverloadPolicy::Relax { factor: 1.001 });
    }

    #[test]
    fn parses_a_faults_section() {
        let s = Scenario::parse(
            "stream sha jobs=10\n\
             [faults]\n\
             seed=7\n\
             trace_spike=0.2:1.9 switch_reject=0.25\n\
             burst=0.1 # inline comment\n",
        )
        .unwrap();
        let f = s.faults.expect("section parsed");
        assert_eq!(f.seed, 7);
        assert!((f.config.trace_spike_p - 0.2).abs() < 1e-12);
        assert!((f.config.trace_spike_scale - 1.9).abs() < 1e-12);
        assert!((f.config.switch_reject_p - 0.25).abs() < 1e-12);
        assert!((f.config.burst_p - 0.1).abs() < 1e-12);
        assert!(!f.config.is_empty());
    }

    #[test]
    fn faults_section_closes_on_a_regular_directive() {
        let s = Scenario::parse(
            "[faults]\n\
             burst=0.5\n\
             stream sha jobs=5\n",
        )
        .unwrap();
        assert_eq!(s.streams.len(), 1);
        let f = s.faults.expect("section parsed");
        assert!((f.config.burst_p - 0.5).abs() < 1e-12);
        // Default seed when the section doesn't set one.
        assert_eq!(f.seed, FaultsSpec::default().seed);
    }

    #[test]
    fn faults_section_rejects_bad_values_with_line_numbers() {
        let err = Scenario::parse(
            "stream sha\n\
             [faults]\n\
             burst=1.5\n",
        )
        .unwrap_err();
        match err {
            ServeError::Parse { line, msg } => {
                assert_eq!(line, 3);
                assert!(msg.contains("[0, 1]"), "got {msg:?}");
            }
            other => panic!("expected parse error, got {other}"),
        }
        assert!(matches!(
            Scenario::parse("stream sha\n[faults]\nwombat=1\n").unwrap_err(),
            ServeError::Parse { line: 3, .. }
        ));
        assert!(matches!(
            Scenario::parse("stream sha\n[faults]\nseed=x\n").unwrap_err(),
            ServeError::Parse { line: 3, .. }
        ));
    }

    #[test]
    fn scenario_without_faults_section_has_none() {
        let s = Scenario::parse("stream sha\n").unwrap();
        assert!(s.faults.is_none());
        assert!(Scenario::demo().faults.is_none());
    }

    #[test]
    fn rejects_out_of_range_drift() {
        assert_parse_err("stream sha drift=2:1.5\n", "at_frac");
        assert_parse_err("stream sha drift=-0.1:1.5\n", "at_frac");
        // An infinite scale makes every post-drift job endless; NaN turns
        // it into a 0-cycle job when the trace is scaled.
        assert_parse_err("stream sha drift=0.5:inf\n", "cycle_scale");
        assert_parse_err("stream sha drift=0.5:NaN\n", "cycle_scale");
    }

    #[test]
    fn rejects_non_positive_cycle_scale() {
        assert_parse_err("stream sha drift=0.5:0\n", "cycle_scale");
        assert_parse_err("stream sha drift=0.5:-2\n", "cycle_scale");
    }

    #[test]
    fn rejects_malformed_drift_directive() {
        assert_parse_err("stream sha drift=0.5\n", "expected");
        assert_parse_err("stream sha drift=a:b\n", "invalid");
    }

    #[test]
    fn rejects_non_positive_period_and_deadline() {
        assert_parse_err("stream sha period_ms=0\n", "positive");
        assert_parse_err("stream sha period_ms=-3\n", "positive");
        assert_parse_err("stream sha period_ms=nan\n", "positive");
        assert_parse_err("stream sha deadline_ms=0\n", "positive");
        assert_parse_err("stream sha deadline_ms=-16.7\n", "positive");
    }

    #[test]
    fn rejects_zero_jobs() {
        assert_parse_err("stream sha jobs=0\n", "at least one job");
    }

    #[test]
    fn rejects_unknown_benchmark_and_option() {
        assert!(matches!(
            Scenario::parse("stream nosuchbench\n").unwrap_err(),
            ServeError::UnknownBenchmark(name) if name == "nosuchbench"
        ));
        assert_parse_err("stream sha wombat=3\n", "unknown stream option");
    }

    #[test]
    fn demo_scenario_is_wellformed() {
        let s = Scenario::demo();
        assert_eq!(s.streams.len(), 4);
        assert!(s.streams.iter().any(|st| st.drift.is_some()));
        assert!(s
            .streams
            .iter()
            .any(|st| matches!(st.policy, OverloadPolicy::Relax { .. })));
    }
}
