//! `predvfs` — command-line front end for the predictive-DVFS framework.
//!
//! ```text
//! predvfs export <benchmark> [out.rtl]      write a built-in design as RTL text
//! predvfs analyze <design.rtl>              FSMs, counters, waits, features, area, WCET
//! predvfs analyze <trace.jsonl> [--perfetto out.json]
//!                                           serve-trace analytics: slack quantiles,
//!                                           level residency, energy attribution,
//!                                           miss root-cause classification
//! predvfs simulate <design.rtl> <jobs.txt>  cycle counts per job
//! predvfs train <design.rtl> <jobs.txt>     fit the execution-time model
//! predvfs slice <design.rtl> <jobs.txt> [out.rtl]
//!                                           train, slice, and write the predictor hardware
//! predvfs wcet <design.rtl>                 static worst-case bound
//! predvfs eval <benchmark> [asic|fpga]      run every DVFS scheme on a built-in benchmark
//! predvfs serve <scenario.txt | --demo>     multi-stream DVFS service simulation
//! predvfs chaos <scenario.txt | --demo> [seed]
//!                                           same scenario under fault injection,
//!                                           degradation off vs on
//! ```
//!
//! `--threads N` (anywhere on the command line) caps the worker pool used
//! by parallel stages; the `PREDVFS_THREADS` environment variable is
//! honored as a fallback.
//!
//! Every command that simulates RTL, hardware slices included, runs it on
//! the compiled bytecode VM. The reference interpreter is a test oracle
//! and has no CLI switch.
//!
//! `--faults <seed>` turns on deterministic fault injection for `serve`
//! (with graceful degradation enabled); the fault mix comes from the
//! scenario's `[faults]` section when present, else the standard mix.
//!
//! `--metrics-out <path>`, `--trace-out <path>` and `--profile-out <path>`
//! (anywhere on the command line) turn on observability, span profiling
//! included: counters/gauges/histograms and each span's calls and
//! seconds are written as Prometheus text, the structured event trace as
//! JSON lines, and the span tree as collapsed stacks. Trace events carry
//! the *virtual* clock, so `serve` traces are byte-identical regardless
//! of `--threads`.
//!
//! The jobs file holds one token per line (comma-separated field values in
//! declaration order); a line containing only `---` ends a job. Lines
//! starting with `#` are comments.

#![forbid(unsafe_code)]

use std::fs;
use std::process::ExitCode;

use predvfs::{train, SliceFlavor, SlicePredictor, TrainerConfig};
use predvfs_faults::{FaultConfig, FaultPlan};
use predvfs_obs::{Recorder, TraceEvent};
use predvfs_rtl::module::InputField;
use predvfs_rtl::{
    from_text, to_text, wcet, Analysis, AsicAreaModel, CompiledSim, ExecMode, FeatureSchema,
    FpgaResourceModel, JobInput, Module, SliceOptions,
};
use predvfs_serve::{Scenario, ServeResult, ServeRuntime};
use predvfs_sim::{outln, Experiment, ExperimentConfig, Platform, Scheme};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(raw_args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (opts, args) = parse_options(raw_args)?;
    if let Some(n) = opts.threads {
        predvfs_par::set_threads(n);
    }
    if opts.observing() {
        // Deep components (solver, trace cache) report through the
        // process-global sink; install it before any work starts. Spans
        // time every phase, for the metrics file's span totals as much
        // as for the flamegraph.
        predvfs_obs::install(std::sync::Arc::new(Recorder::new(TRACE_CAPACITY)));
        predvfs_obs::set_profiling(true);
    }
    let args = &args;
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let outcome = match cmd {
        "export" => export(args.get(1), args.get(2)),
        "analyze" => {
            let target = required(args, 1, "design file or trace .jsonl")?;
            if target.ends_with(".jsonl") {
                analyze_trace(target, &args[2..])
            } else {
                analyze(target)
            }
        }
        "simulate" => simulate(
            required(args, 1, "design file")?,
            required(args, 2, "jobs file")?,
        ),
        "train" => cmd_train(
            required(args, 1, "design file")?,
            required(args, 2, "jobs file")?,
        ),
        "slice" => cmd_slice(
            required(args, 1, "design file")?,
            required(args, 2, "jobs file")?,
            args.get(3),
        ),
        "wcet" => cmd_wcet(required(args, 1, "design file")?),
        "dot" => cmd_dot(required(args, 1, "design file")?),
        "eval" => cmd_eval(required(args, 1, "benchmark name")?, args.get(2)),
        "serve" => cmd_serve(
            required(args, 1, "scenario file (or --demo)")?,
            opts.faults,
            opts.shards,
            opts.checkpoint_every,
            opts.crash,
        ),
        "chaos" => cmd_chaos(required(args, 1, "scenario file (or --demo)")?, args.get(2)),
        "help" | "--help" | "-h" => {
            print_block(HELP);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try `predvfs help`").into()),
    };
    if outcome.is_ok() {
        write_observability(&opts)?;
    }
    outcome
}

/// Bound on buffered trace events; beyond it the ring evicts oldest and
/// counts drops (reported in the summary).
const TRACE_CAPACITY: usize = 1 << 20;

/// Global flags accepted anywhere on the command line.
#[derive(Debug, Default, PartialEq)]
struct CliOptions {
    /// Worker-pool size (`--threads`).
    threads: Option<usize>,
    /// Prometheus text output path (`--metrics-out`).
    metrics_out: Option<String>,
    /// JSON-lines trace output path (`--trace-out`).
    trace_out: Option<String>,
    /// Fault-injection seed for `serve` (`--faults`).
    faults: Option<u64>,
    /// Shard-engine count for `serve` (`--shards`).
    shards: Option<usize>,
    /// Shard checkpoint cadence in epochs (`--checkpoint-every`).
    checkpoint_every: Option<u64>,
    /// Coordinator-fault seed for `serve --shards` (`--crash`).
    crash: Option<u64>,
    /// Collapsed-stack span profile output path (`--profile-out`).
    profile_out: Option<String>,
}

impl CliOptions {
    /// True when any observability output was requested. Every such
    /// flag installs the recorder and turns span profiling on: virtual
    /// spans are gated on the sink so replay paths stay silent, and the
    /// metrics export reads its phase totals from the span profile.
    fn observing(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some() || self.profile_out.is_some()
    }
}

/// Strips the global flags (`--threads N`, `--metrics-out P`,
/// `--trace-out P`, `--profile-out P`, `--faults S`, `--shards N`,
/// `--checkpoint-every E`, `--crash S`, each also in `--flag=value` form)
/// from anywhere in the argument list, returning them and the remaining
/// args.
fn parse_options(args: &[String]) -> Result<(CliOptions, Vec<String>), String> {
    let mut opts = CliOptions::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| -> Result<Option<String>, String> {
            if a == flag {
                let v = it
                    .next()
                    .ok_or_else(|| format!("`{flag}` needs a value; try `predvfs help`"))?;
                Ok(Some(v.clone()))
            } else {
                Ok(a.strip_prefix(flag)
                    .and_then(|r| r.strip_prefix('='))
                    .map(str::to_owned))
            }
        };
        if let Some(v) = take("--threads")? {
            let n: usize = v
                .parse()
                .map_err(|_| format!("invalid thread count `{v}`"))?;
            if n == 0 {
                return Err("thread count must be at least 1".to_owned());
            }
            opts.threads = Some(n);
        } else if let Some(path) = take("--metrics-out")? {
            opts.metrics_out = Some(path);
        } else if let Some(path) = take("--trace-out")? {
            opts.trace_out = Some(path);
        } else if let Some(path) = take("--profile-out")? {
            opts.profile_out = Some(path);
        } else if let Some(v) = take("--faults")? {
            let seed: u64 = v.parse().map_err(|_| format!("invalid fault seed `{v}`"))?;
            opts.faults = Some(seed);
        } else if let Some(v) = take("--shards")? {
            let n: usize = v
                .parse()
                .map_err(|_| format!("invalid shard count `{v}`"))?;
            if n == 0 {
                return Err("shard count must be at least 1".to_owned());
            }
            opts.shards = Some(n);
        } else if let Some(v) = take("--checkpoint-every")? {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("invalid checkpoint cadence `{v}`"))?;
            if n == 0 {
                return Err("checkpoint cadence must be at least 1 epoch".to_owned());
            }
            opts.checkpoint_every = Some(n);
        } else if let Some(v) = take("--crash")? {
            let seed: u64 = v.parse().map_err(|_| format!("invalid crash seed `{v}`"))?;
            opts.crash = Some(seed);
        } else {
            rest.push(a.clone());
        }
    }
    Ok((opts, rest))
}

/// Writes the requested metrics/trace files from the global recorder and
/// prints a metrics summary table. No-op when observability is off.
fn write_observability(opts: &CliOptions) -> Result<(), Box<dyn std::error::Error>> {
    let Some(rec) = predvfs_obs::recorder() else {
        return Ok(());
    };
    note_trace_evictions(rec, rec.ring().dropped());
    let profile = predvfs_obs::self_profile();
    let spans = profile.totals(predvfs_obs::SpanDomain::Wall);
    rec.registry().record_span_totals(&spans);
    if let Some(path) = &opts.metrics_out {
        fs::write(path, rec.registry().prometheus_text())?;
        eprintln!("wrote metrics to {path}");
    }
    if let Some(path) = &opts.trace_out {
        fs::write(path, rec.ring().to_jsonl())?;
        eprintln!(
            "wrote {} trace events to {path}{}",
            rec.ring().len(),
            match rec.ring().dropped() {
                0 => String::new(),
                n => format!(" ({n} oldest dropped by the ring bound)"),
            }
        );
    }
    if let Some(path) = &opts.profile_out {
        // Both domains in one collapsed-stack file, distinguished by a
        // top-level frame. Feed straight into inferno / flamegraph.pl;
        // the `virtual;` subtree is byte-identical across --threads and
        // --shards for deterministic workloads.
        let mut folded = String::new();
        for (prefix, domain) in [
            ("wall;", predvfs_obs::SpanDomain::Wall),
            ("virtual;", predvfs_obs::SpanDomain::Virtual),
        ] {
            for line in profile.collapsed(domain).lines() {
                folded.push_str(prefix);
                folded.push_str(line);
                folded.push('\n');
            }
        }
        fs::write(path, &folded)?;
        eprintln!(
            "wrote span profile ({} stacks) to {path}",
            folded.lines().count()
        );
    }
    // The span table below shows the span counters with their seconds.
    let counters: Vec<(String, u64)> = rec
        .registry()
        .counters()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("predvfs_span_"))
        .collect();
    let histograms = rec.registry().histogram_summaries();
    if counters.is_empty() && histograms.is_empty() && spans.is_empty() {
        return Ok(());
    }
    outln!("\nmetrics summary:");
    outln!("  {:<44} {:>14}", "counter", "value");
    for (name, value) in &counters {
        outln!("  {name:<44} {value:>14}");
    }
    if !spans.is_empty() {
        outln!("  {:<44} {:>10} {:>12}", "span", "calls", "seconds");
        for (name, total) in &spans {
            let seconds = total.ns as f64 / 1e9;
            outln!("  {name:<44} {:>10} {seconds:>12.6}", total.calls);
        }
    }
    if !histograms.is_empty() {
        let quantiles = rec.registry().histogram_quantiles();
        outln!(
            "  {:<44} {:>10} {:>12} {:>12} {:>12}",
            "histogram",
            "count",
            "mean",
            "p50",
            "p99"
        );
        for ((name, count, sum), (_, p50, _, p99)) in histograms.iter().zip(&quantiles) {
            let mean = if *count == 0 {
                0.0
            } else {
                sum / *count as f64
            };
            outln!("  {name:<44} {count:>10} {mean:>12.6} {p50:>12.6} {p99:>12.6}");
        }
    }
    Ok(())
}

/// Counts `dropped` trace-ring evictions in
/// `predvfs_obs_trace_dropped_total` (before any export) and warns on
/// stderr: a silently truncated trace corrupts every downstream analyzer
/// statistic. No-op for 0.
fn note_trace_evictions(rec: &Recorder, dropped: u64) {
    if dropped == 0 {
        return;
    }
    rec.registry()
        .counter("predvfs_obs_trace_dropped_total")
        .add(dropped);
    eprintln!(
        "warning: trace ring evicted {dropped} events; the JSONL export is \
         truncated (a trace_truncated meta event marks it)"
    );
}

/// Folds the per-shard recorders of a `serve --shards` run into `global`:
/// counters are summed and the traces merged in the canonical
/// `(t_s, stream)` order. Events a shard's ring evicted never reach the
/// merge, so they are counted like the global ring's own evictions, and
/// a `trace_truncated` meta event after the merged events marks them.
fn merge_shard_recorders(global: &Recorder, runtime: &ServeRuntime, shards: &[Recorder]) {
    use predvfs_obs::ObsSink;
    for rec in shards {
        for (name, value) in rec.registry().counters() {
            global.registry().counter(&name).add(value);
        }
    }
    let merged = predvfs_shard::merged_trace(
        runtime,
        shards.iter().map(|r| r.ring().snapshot()).collect(),
    );
    let kept = merged.len() as u64;
    let last_t_s = merged.last().map_or(0.0, |e| e.t_s);
    for event in merged {
        global.emit(event);
    }
    let dropped = shards.iter().map(|r| r.ring().dropped()).sum();
    if dropped > 0 {
        global.emit(
            TraceEvent::new(last_t_s, "trace", predvfs_obs::kinds::TRACE_TRUNCATED)
                .with_u64("dropped", dropped)
                .with_u64("kept", kept),
        );
        note_trace_evictions(global, dropped);
    }
}

/// Analyzes a serve-runtime JSONL trace: per-stream slack quantiles,
/// level residency, energy attribution, and miss root-cause counts, with
/// an optional Chrome trace-event export for Perfetto.
fn analyze_trace(path: &str, rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut perfetto: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if a == "--perfetto" {
            let out = it.next().ok_or("`--perfetto` needs an output path")?;
            perfetto = Some(out.clone());
        } else if let Some(v) = a.strip_prefix("--perfetto=") {
            perfetto = Some(v.to_owned());
        } else {
            return Err(format!("unexpected trace-analyze argument `{a}`").into());
        }
    }
    // Stream the trace: resident memory tracks analysis state, not file
    // size, so million-event traces don't spike RSS.
    let reader = std::io::BufReader::new(fs::File::open(path)?);
    let analysis = predvfs_obs::TraceAnalysis::from_reader(reader)?;
    print_block(&analysis.report());
    if let Some(out) = perfetto {
        fs::write(&out, analysis.to_perfetto())?;
        eprintln!("wrote perfetto trace to {out}");
    }
    Ok(())
}

/// Prints `text`, whose last line ends in a newline, through `outln!`.
fn print_block(text: &str) {
    outln!("{}", text.strip_suffix('\n').unwrap_or(text));
}

const HELP: &str = "\
predvfs — execution-time prediction for energy-efficient accelerators

USAGE:
  predvfs export <benchmark> [out.rtl]
  predvfs analyze <design.rtl>
  predvfs analyze <trace.jsonl> [--perfetto <out.json>]
  predvfs simulate <design.rtl> <jobs.txt>
  predvfs train <design.rtl> <jobs.txt>
  predvfs slice <design.rtl> <jobs.txt> [out.rtl]
  predvfs wcet <design.rtl>
  predvfs dot <design.rtl>        (pipe into `dot -Tsvg`)
  predvfs eval <benchmark> [asic|fpga]
  predvfs serve <scenario.txt | --demo>
  predvfs chaos <scenario.txt | --demo> [seed]

OPTIONS:
  --threads <N>        worker-pool size for parallel stages (default: all
                       cores; PREDVFS_THREADS also honored)
  --metrics-out <path> write counters/gauges/histograms and each span's
                       calls and seconds as Prometheus text
  --trace-out <path>   write the structured event trace as JSON lines
                       (virtual-clock stamped; byte-identical across
                       --threads for `serve`)
  --profile-out <path> write the collapsed-stack span flamegraph text
                       (wall; and virtual; subtrees; the virtual subtree
                       is byte-identical across --threads and --shards);
                       any of these three output flags turns span
                       profiling on
  --faults <seed>      serve: inject deterministic faults from this seed
                       with graceful degradation (watchdog, switch retries,
                       quarantine) enabled; the fault mix comes from the
                       scenario's [faults] section, else the standard mix
  --shards <N>         serve: partition streams across N shard engines
                       under the budget-owning coordinator; per-shard
                       traces are merged back into the canonical order,
                       so --trace-out output is shard-count invariant
  --checkpoint-every <E>
                       serve --shards: capture a full shard snapshot
                       every E epochs, bounding crash-recovery replay
                       to at most E epochs of journal
  --crash <seed>       serve --shards: inject deterministic coordinator
                       faults (shard crashes, epoch stalls, transfer
                       drops) from this seed; crashed shards rebuild
                       from their last checkpoint plus journal replay,
                       and the merged trace stays byte-identical to the
                       fault-free run

Built-in benchmarks: h264 cjpeg djpeg md stencil aes sha
PREDVFS_QUICK=1 shrinks `eval` workloads for smoke runs.
RTL jobs and hardware slices run on the compiled bytecode VM.

Scenario files (serve) are line-oriented:
  platform asic|fpga
  size quick|full
  stream <benchmark> [deadline_ms=..] [period_ms=..] [jobs=..] [queue=..]
         [policy=shed|relax:<f>]
         [controller=predictive|adaptive|pid|hybrid|cached]
         [seed=..] [drift=<at_frac>:<cycle_scale>] [name=..]
An optional `[faults]` section sets the chaos plan: `seed=<n>` plus
`<fault>=<p>` or `<fault>=<p>:<magnitude>` lines (slice_corrupt,
slice_timeout, switch_reject, switch_stall, clock_jitter, trace_spike,
burst, spurious_done).
`--demo` runs the built-in 4-stream scenario, examples/demo.scenario, with
drift and backpressure.
`chaos` runs the same plan twice — degradation off, then on — and prints
the per-stream comparison.

`analyze` on a `.jsonl` file (a `--trace-out` export) reconstructs the
per-job timelines and reports per-stream slack quantiles, level
residency, energy attribution, and a deterministic root cause for every
deadline miss (quarantine_safe_mode | injected_fault | switch_stall |
queueing_delay | mispredict | unattributed). `--perfetto <out.json>`
additionally writes the timelines as Chrome trace-event JSON for
Perfetto / chrome://tracing.
";

fn required<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing {what}; try `predvfs help`"))
}

fn load(path: &str) -> Result<Module, Box<dyn std::error::Error>> {
    let src = fs::read_to_string(path)?;
    Ok(from_text(&src)?)
}

/// Parses the jobs file format (see module docs) for a design whose
/// input token has `fields`; every value must fit its field's width.
fn load_jobs(
    path: &str,
    fields: &[InputField],
) -> Result<Vec<JobInput>, Box<dyn std::error::Error>> {
    let src = fs::read_to_string(path)?;
    let mut jobs = Vec::new();
    let mut cur = JobInput::new(fields.len());
    for (ln, line) in src.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "---" {
            jobs.push(std::mem::replace(&mut cur, JobInput::new(fields.len())));
            continue;
        }
        let token: Result<Vec<u64>, _> = line.split(',').map(|v| v.trim().parse::<u64>()).collect();
        let token = token.map_err(|e| format!("jobs line {}: {e}", ln + 1))?;
        if token.len() != fields.len() {
            return Err(format!(
                "jobs line {}: expected {} fields, found {}",
                ln + 1,
                fields.len(),
                token.len()
            )
            .into());
        }
        // `Module::validate` bounds every width to 1..=64.
        let too_wide = |(f, &v): &(&InputField, &u64)| f.width < 64 && v >> f.width != 0;
        if let Some((f, v)) = fields.iter().zip(&token).find(too_wide) {
            return Err(format!(
                "jobs line {}: {v} does not fit field `{}` of {} bits",
                ln + 1,
                f.name,
                f.width
            )
            .into());
        }
        cur.push(&token);
    }
    if !cur.is_empty() {
        jobs.push(cur);
    }
    if jobs.is_empty() {
        return Err("jobs file contains no jobs".into());
    }
    Ok(jobs)
}

fn export(bench: Option<&String>, out: Option<&String>) -> Result<(), Box<dyn std::error::Error>> {
    let name = bench.ok_or("missing benchmark name")?;
    let b = predvfs_accel::by_name(name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (try `predvfs help`)"))?;
    let text = to_text(&(b.build)());
    match out {
        Some(path) => {
            fs::write(path, &text)?;
            outln!("wrote {path}");
        }
        None => print_block(&text),
    }
    Ok(())
}

fn analyze(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let module = load(path)?;
    let analysis = Analysis::run(&module);
    outln!("module `{}`:", module.name);
    outln!(
        "  {} registers, {} datapath blocks, {} memories, {} input fields",
        module.regs.len(),
        module.datapaths.len(),
        module.memories.len(),
        module.inputs.len()
    );
    for f in &analysis.fsms {
        outln!(
            "  fsm {} — {} states, {} transitions",
            module.reg_name(f.reg),
            f.states.len(),
            f.transition_pairs().len()
        );
    }
    outln!("  counters:");
    for c in &analysis.counters {
        let dir = match (c.counts_down(), c.counts_up()) {
            (true, false) => "down",
            (false, true) => "up",
            _ => "mixed",
        };
        outln!("    {} ({dir})", module.reg_name(c.reg));
    }
    let serial = analysis.waits.iter().filter(|w| w.serial).count();
    outln!(
        "  wait states: {} ({} serial)",
        analysis.waits.len(),
        serial
    );
    let schema = FeatureSchema::from_analysis(&module, &analysis);
    outln!("  feature schema: {} columns", schema.len());
    let area = AsicAreaModel::default().area(&module);
    outln!(
        "  asic area: {:.0} um2 (control {:.0}, datapath {:.0}, memory {:.0})",
        area.total_um2(),
        area.control_um2,
        area.datapath_um2,
        area.memory_um2
    );
    let res = FpgaResourceModel::default().resources(&module);
    outln!(
        "  fpga: {} LUTs, {} DSPs, {} BRAMs",
        res.luts,
        res.dsps,
        res.brams
    );
    if let Ok(bound) = wcet(&module) {
        outln!(
            "  wcet: {} cycles/token + {} startup",
            bound.cycles_per_token,
            bound.startup_cycles
        );
    }
    Ok(())
}

fn simulate(path: &str, jobs_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let module = load(path)?;
    let jobs = load_jobs(jobs_path, &module.inputs)?;
    let sim = CompiledSim::new(&module)?;
    outln!(
        "{:>5} {:>10} {:>12} {:>10}",
        "job",
        "tokens",
        "cycles",
        "stepped"
    );
    for (i, job) in jobs.iter().enumerate() {
        let t = sim.run(job, ExecMode::FastForward, None)?;
        outln!(
            "{i:>5} {:>10} {:>12} {:>10}",
            t.tokens_consumed,
            t.cycles,
            t.stepped_cycles
        );
    }
    Ok(())
}

fn cmd_train(path: &str, jobs_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let module = load(path)?;
    let jobs = load_jobs(jobs_path, &module.inputs)?;
    let model = train::train(&module, &jobs, &TrainerConfig::default())?;
    outln!(
        "fitted {} of {} features:",
        model.selected().len(),
        model.schema().len()
    );
    for (name, coeff) in model.support_summary() {
        outln!("  {name:<32} {coeff:>14.4}");
    }
    Ok(())
}

fn cmd_slice(
    path: &str,
    jobs_path: &str,
    out: Option<&String>,
) -> Result<(), Box<dyn std::error::Error>> {
    let module = load(path)?;
    let jobs = load_jobs(jobs_path, &module.inputs)?;
    let model = train::train(&module, &jobs, &TrainerConfig::default())?;
    let predictor =
        SlicePredictor::generate(&module, &model, SliceOptions::default(), SliceFlavor::Rtl)?;
    let report = predictor.report();
    outln!(
        "slice: kept {} registers / {} serial blocks; dropped {} registers / \
         {} datapath blocks; removed {} wait states",
        report.kept_regs.len(),
        report.kept_datapaths.len(),
        report.dropped_regs.len(),
        report.dropped_datapaths.len(),
        report.removed_wait_states
    );
    let full = AsicAreaModel::default().area(&module).total_um2();
    let slim = AsicAreaModel::default()
        .area(predictor.module())
        .total_um2();
    outln!(
        "area: {slim:.0} um2 ({:.1}% of {full:.0})",
        100.0 * slim / full
    );
    if let Some(out_path) = out {
        fs::write(out_path, to_text(predictor.module()))?;
        outln!("wrote {out_path}");
    }
    Ok(())
}

/// Prints the control FSM as a Graphviz digraph, drawing wait states as
/// boxes (labelled with their counter) and serial states bold.
fn cmd_dot(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let module = load(path)?;
    let analysis = Analysis::run(&module);
    let fsm = analysis
        .fsms
        .first()
        .ok_or("design has no control FSM to draw")?;
    outln!("digraph {} {{", module.name);
    outln!("  rankdir=LR;");
    for &s in &fsm.states {
        let wait = analysis.wait_for(fsm.reg, s);
        let shape = if wait.is_some() { "box" } else { "ellipse" };
        let style = match wait {
            Some(w) if w.serial => ", style=bold",
            _ => "",
        };
        let label = match wait {
            Some(w) => format!("S{s}\\n[{}]", module.reg_name(w.counter)),
            None => format!("S{s}"),
        };
        outln!("  s{s} [shape={shape}{style}, label=\"{label}\"];");
    }
    for (src, dst) in fsm.transition_pairs() {
        outln!("  s{src} -> s{dst};");
    }
    outln!("}}");
    Ok(())
}

/// Runs every DVFS scheme on a built-in benchmark in parallel and prints
/// the energy/miss summary (normalized to the baseline scheme).
fn cmd_eval(name: &str, platform: Option<&String>) -> Result<(), Box<dyn std::error::Error>> {
    let platform = match platform.map(String::as_str) {
        None | Some("asic") => Platform::Asic,
        Some("fpga") => Platform::Fpga,
        Some(other) => return Err(format!("unknown platform `{other}` (asic|fpga)").into()),
    };
    let bench = predvfs_accel::by_name(name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (try `predvfs help`)"))?;
    let mut cfg = ExperimentConfig::paper_default(platform);
    if std::env::var("PREDVFS_QUICK").as_deref() == Ok("1") {
        cfg.size = predvfs_accel::WorkloadSize::Quick;
    }
    eprintln!(
        "preparing {name} ({} worker threads)...",
        predvfs_par::current_threads()
    );
    let experiment = Experiment::prepare(bench, cfg)?;
    if !experiment.model.converged() {
        eprintln!(
            "warning: {name}: the execution-time model fit stopped at its \
             {}-iteration cap before converging",
            experiment.config().trainer.max_iter
        );
    }
    let results = experiment.run_all(&Scheme::ALL)?;
    let base = results[0].clone();
    outln!(
        "{:<20} {:>16} {:>9} {:>7}",
        "scheme",
        "energy_pJ",
        "norm%",
        "miss%"
    );
    let sink = predvfs_obs::global();
    for r in &results {
        outln!(
            "{:<20} {:>16.0} {:>9.1} {:>7.2}",
            r.scheme,
            r.total_energy_pj(),
            r.normalized_energy_pct(&base),
            r.miss_pct()
        );
        if sink.enabled() {
            // Emitted serially in scheme order after the parallel runs,
            // so the trace stays deterministic under `--threads`.
            sink.emit(
                TraceEvent::new(0.0, "eval", "scheme_done")
                    .with_str("scheme", &r.scheme.to_string())
                    .with_f64("energy_pj", r.total_energy_pj())
                    .with_f64("norm_pct", r.normalized_energy_pct(&base))
                    .with_f64("miss_pct", r.miss_pct()),
            );
        }
    }
    Ok(())
}

/// Loads a scenario argument: `--demo` or a scenario file path.
fn load_scenario(scenario_arg: &str) -> Result<Scenario, Box<dyn std::error::Error>> {
    if scenario_arg == "--demo" {
        Ok(Scenario::demo())
    } else {
        Ok(Scenario::parse(&fs::read_to_string(scenario_arg)?)?)
    }
}

/// Fault plan for a serve run. A `--faults` seed overrides the scenario's
/// `[faults]` seed; either source alone turns chaos on. A `[faults]`
/// section that names no faults (seed only) gets the standard mix.
fn resolve_plan(scenario: &Scenario, flag_seed: Option<u64>) -> Option<FaultPlan> {
    let section = scenario.faults.as_ref();
    let seed = flag_seed.or_else(|| section.map(|f| f.seed))?;
    let config = section
        .map(|f| f.config)
        .filter(|c| !c.is_empty())
        .unwrap_or_else(FaultConfig::standard);
    Some(FaultPlan::new(seed, config))
}

/// Prints the per-stream outcome table for a serve run; chaos runs get
/// the fault/degradation columns appended.
fn print_serve_table(runtime: &ServeRuntime, result: &ServeResult, chaos: bool) {
    let mut header = format!(
        "{:<12} {:<10} {:>9} {:>6} {:>7} {:>7} {:>8} {:>7}",
        "stream", "ctrl", "submitted", "done", "miss%", "shed%", "relaxed", "refits"
    );
    if chaos {
        header += &format!(
            " {:>7} {:>6} {:>5} {:>7}",
            "faults", "escal", "quar", "interr"
        );
    }
    outln!("{header} {:>14}", "energy_pJ");
    for (spec, s) in runtime.specs().iter().zip(&result.streams) {
        let mut row = format!(
            "{:<12} {:<10} {:>9} {:>6} {:>7.2} {:>7.2} {:>8} {:>7}",
            s.name,
            spec.controller.name(),
            s.submitted,
            s.completed(),
            s.miss_pct(),
            s.shed_pct(),
            s.relaxed,
            s.refits
        );
        if chaos {
            row += &format!(
                " {:>7} {:>6} {:>5} {:>7}",
                s.faults, s.escalations, s.quarantines, s.internal_errors
            );
        }
        outln!("{row} {:>14.0}", s.total_energy_pj());
    }
}

/// Runs a multi-stream service scenario and prints per-stream outcomes
/// (completions, misses, backpressure, refits, energy). With a fault
/// plan (from `--faults` or the scenario's `[faults]` section) the run
/// goes through the chaos path with graceful degradation enabled. With
/// `--shards N` (N > 1) the run goes through the sharded tier: N shard
/// engines under the budget-owning coordinator, with the per-shard
/// traces merged back into the canonical global order for `--trace-out`.
fn cmd_serve(
    scenario_arg: &str,
    faults_seed: Option<u64>,
    shards: Option<usize>,
    checkpoint_every: Option<u64>,
    crash: Option<u64>,
) -> Result<(), Box<dyn std::error::Error>> {
    let scenario = load_scenario(scenario_arg)?;
    let plan = resolve_plan(&scenario, faults_seed);
    eprintln!(
        "preparing {} streams ({} worker threads)...",
        scenario.streams.len(),
        predvfs_par::current_threads()
    );
    let runtime = ServeRuntime::prepare(&scenario, &predvfs_sim::TraceCache::new())?;
    if let Some(shards) = shards.filter(|&n| n > 1) {
        return serve_sharded(&runtime, shards, plan.as_ref(), checkpoint_every, crash);
    }
    if checkpoint_every.is_some() || crash.is_some() {
        return Err(
            "`--checkpoint-every` and `--crash` need the sharded tier; add `--shards <N>` (N > 1)"
                .into(),
        );
    }
    let result = match &plan {
        Some(plan) => {
            eprintln!(
                "fault injection on (seed {}), graceful degradation enabled",
                plan.seed()
            );
            runtime.run_chaos(None, predvfs_obs::global(), plan, true)?
        }
        None => runtime.run_observed(None, predvfs_obs::global())?,
    };
    print_serve_table(&runtime, &result, plan.is_some());
    outln!(
        "{} events over {:.1} ms of virtual time",
        result.events,
        result.horizon_s * 1e3
    );
    Ok(())
}

/// The `serve --shards N` path: runs the scenario across `shards` shard
/// engines under the coordinator. Each shard records into its own sink;
/// afterwards [`merge_shard_recorders`] merges the per-shard trace
/// streams into the global recorder's ring in the canonical
/// `(t_s, stream)` order (so `--trace-out` emits the shard-count-invariant
/// JSONL), sums per-shard counters into the global registry and counts
/// per-shard ring evictions. Per-shard histogram observations are not
/// merged. The coordinator's shard-labeled gauges and counters land in
/// the global registry directly.
fn serve_sharded(
    runtime: &ServeRuntime,
    shards: usize,
    plan: Option<&FaultPlan>,
    checkpoint_every: Option<u64>,
    crash: Option<u64>,
) -> Result<(), Box<dyn std::error::Error>> {
    use predvfs_obs::ObsSink;
    let observing = predvfs_obs::recorder().is_some();
    let recorders: Vec<Recorder> = if observing {
        (0..shards).map(|_| Recorder::new(TRACE_CAPACITY)).collect()
    } else {
        Vec::new()
    };
    let sinks: Vec<&dyn ObsSink> = recorders.iter().map(|r| r as &dyn ObsSink).collect();
    let config = predvfs_shard::ShardConfig {
        shards,
        degrade: plan.is_some() || crash.is_some(),
        checkpoint_every,
        ..predvfs_shard::ShardConfig::default()
    };
    // `--crash <seed>` layers the coordinator fault mix (shard crashes,
    // epoch stalls, transfer drops) on top of whatever job-level mix is
    // active; with both flags the combined mix runs under the crash
    // seed, so the run stays a single deterministic plan.
    let crash_plan: Option<FaultPlan> = crash.map(|seed| {
        let mut config = plan.map_or_else(predvfs_faults::FaultConfig::none, |p| *p.config());
        let coord = predvfs_faults::FaultConfig::coordinator();
        config.shard_crash_p = coord.shard_crash_p;
        config.epoch_stall_p = coord.epoch_stall_p;
        config.transfer_drop_p = coord.transfer_drop_p;
        FaultPlan::new(seed, config)
    });
    let injector: &dyn predvfs_faults::FaultInjector = match (&crash_plan, plan) {
        (Some(crash_plan), _) => {
            eprintln!(
                "coordinator fault injection on (seed {}), graceful degradation enabled",
                crash_plan.seed()
            );
            crash_plan
        }
        (None, Some(plan)) => {
            eprintln!(
                "fault injection on (seed {}), graceful degradation enabled",
                plan.seed()
            );
            plan
        }
        (None, None) => &predvfs_faults::NullInjector,
    };
    eprintln!(
        "sharded serve: {shards} shards, epoch {} ms{}",
        config.epoch_s * 1e3,
        match checkpoint_every {
            Some(n) => format!(", checkpoint every {n} epoch(s)"),
            None => String::new(),
        }
    );
    let sharded =
        predvfs_shard::run_sharded(runtime, &config, &sinks, predvfs_obs::global(), injector)?;
    if let Some(global) = predvfs_obs::recorder() {
        merge_shard_recorders(global, runtime, &recorders);
    }
    let result = ServeResult {
        streams: sharded.streams,
        horizon_s: sharded.horizon_s,
        events: sharded.events,
    };
    print_serve_table(runtime, &result, plan.is_some());
    outln!(
        "{} events over {:.1} ms of virtual time",
        result.events,
        result.horizon_s * 1e3
    );
    outln!(
        "{} epochs, {} migrations, boosts granted/denied/applied {}/{}/{}, jobs per shard {:?}",
        sharded.epochs,
        sharded.migrations,
        sharded.boosts_granted,
        sharded.boosts_denied,
        sharded.boosts_applied,
        sharded.shard_jobs_done
    );
    if sharded.checkpoints > 0 || sharded.crashes > 0 || sharded.epoch_stalls > 0 {
        outln!(
            "{} checkpoints, {} crashes ({} recovered, {} epochs replayed), \
             {} epoch stalls, {} transfer retransmits",
            sharded.checkpoints,
            sharded.crashes,
            sharded.recoveries,
            sharded.replayed_epochs,
            sharded.epoch_stalls,
            sharded.transfer_retransmits
        );
    }
    Ok(())
}

/// Runs a scenario twice under the same deterministic fault plan —
/// degradation disabled, then enabled — and prints both outcome tables
/// plus the headline miss-rate comparison.
fn cmd_chaos(
    scenario_arg: &str,
    seed_arg: Option<&String>,
) -> Result<(), Box<dyn std::error::Error>> {
    let scenario = load_scenario(scenario_arg)?;
    let seed = match seed_arg {
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("invalid chaos seed `{s}`"))?,
        None => scenario.faults.as_ref().map(|f| f.seed).unwrap_or(42),
    };
    let plan = resolve_plan(&scenario, Some(seed)).expect("seed is always present");
    eprintln!(
        "preparing {} streams ({} worker threads)...",
        scenario.streams.len(),
        predvfs_par::current_threads()
    );
    let runtime = ServeRuntime::prepare(&scenario, &predvfs_sim::TraceCache::new())?;
    let baseline = runtime.run_chaos(None, &predvfs_obs::NullSink, &plan, false)?;
    let hardened = runtime.run_chaos(None, predvfs_obs::global(), &plan, true)?;
    outln!("chaos seed {seed} — graceful degradation DISABLED:");
    print_serve_table(&runtime, &baseline, true);
    outln!("\nchaos seed {seed} — graceful degradation ENABLED:");
    print_serve_table(&runtime, &hardened, true);
    outln!(
        "\noverall miss rate: {:.2}% disabled -> {:.2}% enabled",
        baseline.miss_pct(),
        hardened.miss_pct()
    );
    Ok(())
}

fn cmd_wcet(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let module = load(path)?;
    let bound = wcet(&module)?;
    outln!(
        "worst case: {} cycles per token, {} startup cycles",
        bound.cycles_per_token,
        bound.startup_cycles
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shard rings of capacity 4: the one that overflows loses its
    /// oldest events to the merge, and the global counter, the merged
    /// trace's closing marker and the summed counters all say so.
    #[test]
    fn shard_ring_evictions_are_counted_and_marked() {
        use predvfs_obs::ObsSink;
        let scenario = Scenario::parse("size quick\nstream sha jobs=1\nstream md jobs=1\n")
            .expect("scenario parses");
        let runtime = ServeRuntime::prepare(&scenario, &predvfs_sim::TraceCache::new())
            .expect("scenario prepares");
        let shards: Vec<Recorder> = (0..2).map(|_| Recorder::new(4)).collect();
        for t in 0..6 {
            shards[0].emit(TraceEvent::new(f64::from(t), "sha", "arrival"));
        }
        for t in 0..3 {
            shards[1].emit(TraceEvent::new(f64::from(t) + 0.5, "md", "arrival"));
        }
        shards[0].counter_add("predvfs_serve_arrivals_total", 6);
        shards[1].counter_add("predvfs_serve_arrivals_total", 3);
        let global = Recorder::new(64);
        merge_shard_recorders(&global, &runtime, &shards);

        let counter = |name: &str| global.registry().counter(name).get();
        assert_eq!(counter("predvfs_obs_trace_dropped_total"), 2);
        assert_eq!(counter("predvfs_serve_arrivals_total"), 9);
        let events = global.ring().snapshot();
        let times: Vec<f64> = events.iter().map(|e| e.t_s).collect();
        assert_eq!(times, [0.5, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 5.0]);
        let marker = events.last().expect("merged events");
        assert_eq!(marker.kind, predvfs_obs::kinds::TRACE_TRUNCATED);
        assert_eq!(
            marker.to_json(),
            TraceEvent::new(5.0, "trace", "trace_truncated")
                .with_u64("dropped", 2)
                .with_u64("kept", 7)
                .to_json()
        );
    }

    /// Two input fields of `width` bits each.
    fn fields(width: u32) -> Vec<InputField> {
        ["a", "n_blocks"]
            .map(|name| InputField {
                name: name.into(),
                width,
            })
            .to_vec()
    }

    #[test]
    fn jobs_parser_splits_on_separator() {
        let dir = std::env::temp_dir().join("predvfs_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("jobs.txt");
        fs::write(&p, "# two jobs\n1,2\n3,4\n---\n5,6\n").unwrap();
        let jobs = load_jobs(p.to_str().unwrap(), &fields(16)).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].len(), 2);
        assert_eq!(jobs[1].get(0, 0), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_parser_rejects_bad_arity() {
        let dir = std::env::temp_dir().join("predvfs_cli_test2");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("jobs.txt");
        fs::write(&p, "1,2,3\n").unwrap();
        assert!(load_jobs(p.to_str().unwrap(), &fields(16)).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_parser_rejects_values_wider_than_their_field() {
        let dir = std::env::temp_dir().join("predvfs_cli_test_width");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("jobs.txt");
        let path = p.to_str().unwrap();
        fs::write(&p, "1,127\n---\n2,128\n").unwrap();
        let err = load_jobs(path, &fields(7)).unwrap_err().to_string();
        assert_eq!(
            err,
            "jobs line 3: 128 does not fit field `n_blocks` of 7 bits"
        );
        fs::write(&p, "0,18446744073709551615\n").unwrap();
        assert!(load_jobs(path, &fields(63)).is_err());
        assert_eq!(load_jobs(path, &fields(64)).unwrap()[0].get(0, 1), u64::MAX);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_analyze_round_trip() {
        // export a benchmark, re-load it, and analyze without error.
        let b = predvfs_accel::by_name("sha").unwrap();
        let text = to_text(&(b.build)());
        let module = from_text(&text).unwrap();
        assert!(Analysis::run(&module).fsms.len() == 1);
        assert!(wcet(&module).is_ok());
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&["frobnicate".to_owned()]).is_err());
        assert!(run(&[]).is_ok(), "bare invocation prints help");
    }

    fn owned(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn thread_flag_is_stripped_anywhere() {
        let (opts, rest) = parse_options(&owned(&["eval", "--threads", "3", "sha"])).unwrap();
        assert_eq!(opts.threads, Some(3));
        assert_eq!(rest, owned(&["eval", "sha"]));

        let (opts, rest) = parse_options(&owned(&["--threads=8", "help"])).unwrap();
        assert_eq!(opts.threads, Some(8));
        assert_eq!(rest, owned(&["help"]));
    }

    #[test]
    fn thread_flag_rejects_bad_values() {
        let bad = |s: &str| parse_options(&[s.to_owned()]).is_err();
        assert!(bad("--threads"), "missing value");
        assert!(bad("--threads=zero"), "non-numeric value");
        assert!(bad("--threads=0"), "zero workers");
    }

    #[test]
    fn observability_flags_are_stripped_anywhere() {
        let (opts, rest) = parse_options(&owned(&[
            "serve",
            "--metrics-out",
            "m.prom",
            "--demo",
            "--trace-out=t.jsonl",
        ]))
        .unwrap();
        assert_eq!(opts.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(opts.trace_out.as_deref(), Some("t.jsonl"));
        assert!(opts.observing());
        assert_eq!(rest, owned(&["serve", "--demo"]));

        assert!(parse_options(&owned(&["--metrics-out"])).is_err());
        assert!(parse_options(&owned(&["--trace-out"])).is_err());
        let (opts, _) = parse_options(&owned(&["eval", "sha"])).unwrap();
        assert!(!opts.observing());
    }

    #[test]
    fn faults_flag_is_stripped_and_validated() {
        let (opts, rest) = parse_options(&owned(&["serve", "--demo", "--faults", "7"])).unwrap();
        assert_eq!(opts.faults, Some(7));
        assert_eq!(rest, owned(&["serve", "--demo"]));

        let (opts, _) = parse_options(&owned(&["--faults=12345", "serve"])).unwrap();
        assert_eq!(opts.faults, Some(12345));

        assert!(
            parse_options(&owned(&["--faults"])).is_err(),
            "missing value"
        );
        assert!(
            parse_options(&owned(&["--faults=lucky"])).is_err(),
            "non-numeric"
        );
    }

    #[test]
    fn shards_flag_is_stripped_and_validated() {
        let (opts, rest) = parse_options(&owned(&["serve", "--demo", "--shards", "4"])).unwrap();
        assert_eq!(opts.shards, Some(4));
        assert_eq!(rest, owned(&["serve", "--demo"]));

        let (opts, _) = parse_options(&owned(&["--shards=16", "serve"])).unwrap();
        assert_eq!(opts.shards, Some(16));

        assert!(
            parse_options(&owned(&["--shards"])).is_err(),
            "missing value"
        );
        assert!(
            parse_options(&owned(&["--shards=many"])).is_err(),
            "non-numeric"
        );
        assert!(
            parse_options(&owned(&["--shards=0"])).is_err(),
            "zero shards"
        );
    }

    #[test]
    fn crash_and_checkpoint_flags_parse_and_validate() {
        let (opts, rest) = parse_options(&owned(&[
            "serve",
            "--demo",
            "--shards",
            "4",
            "--checkpoint-every",
            "8",
            "--crash",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.shards, Some(4));
        assert_eq!(opts.checkpoint_every, Some(8));
        assert_eq!(opts.crash, Some(7));
        assert_eq!(rest, owned(&["serve", "--demo"]));

        let (opts, _) = parse_options(&owned(&["--checkpoint-every=2", "--crash=0"])).unwrap();
        assert_eq!(opts.checkpoint_every, Some(2));
        assert_eq!(opts.crash, Some(0));

        assert!(
            parse_options(&owned(&["--checkpoint-every=0"])).is_err(),
            "zero cadence"
        );
        assert!(
            parse_options(&owned(&["--checkpoint-every"])).is_err(),
            "missing value"
        );
        assert!(
            parse_options(&owned(&["--crash=nope"])).is_err(),
            "non-numeric seed"
        );
    }

    #[test]
    fn chaos_plan_resolution_prefers_the_flag_seed() {
        // No flag, no [faults] section: chaos stays off.
        let scenario = Scenario::demo();
        assert!(resolve_plan(&scenario, None).is_none());
        // The flag alone turns it on with the standard mix.
        let plan = resolve_plan(&scenario, Some(9)).expect("flag enables chaos");
        assert_eq!(plan.seed(), 9);
        assert!(!plan.config().is_empty());
        // A [faults] section alone turns it on with its own seed/config.
        let with_section = Scenario::parse(
            "platform asic\nsize quick\nstream sha\n[faults]\nseed=5\ntrace_spike=0.2:1.5\n",
        )
        .unwrap();
        let plan = resolve_plan(&with_section, None).expect("section enables chaos");
        assert_eq!(plan.seed(), 5);
        // The flag seed overrides the section's seed but keeps its mix.
        let plan = resolve_plan(&with_section, Some(11)).unwrap();
        assert_eq!(plan.seed(), 11);
    }

    #[test]
    fn flag_prefix_does_not_swallow_lookalikes() {
        // `--threadspool` shares a prefix with `--threads` but is not it.
        let (opts, rest) = parse_options(&owned(&["--threadspool"])).unwrap();
        assert_eq!(opts, CliOptions::default());
        assert_eq!(rest, owned(&["--threadspool"]));
    }

    #[test]
    fn eval_rejects_unknown_inputs() {
        assert!(cmd_eval("nonesuch", None).is_err());
        let plat = "gpu".to_owned();
        assert!(cmd_eval("sha", Some(&plat)).is_err());
    }
}
