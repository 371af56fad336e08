//! Service-tier extensions: online adaptation under drift, graceful
//! degradation under injected faults, and SLO analytics over the chaos
//! trace.

use predvfs_faults::{FaultConfig, FaultPlan};
use predvfs_obs::{MissCause, NullSink, Recorder, TraceAnalysis};
use predvfs_serve::{ControllerKind, DriftSpec, Scenario, ServeResult, ServeRuntime, StreamSpec};
use predvfs_sim::{outln, Platform, Table};

use super::{Context, Outcome};

/// Seed of the chaos fault plan.
const CHAOS_SEED: u64 = 7;
/// Jobs each chaos stream submits.
const CHAOS_JOBS: usize = 80;
/// Jobs the drift stream submits; the shift lands halfway through.
const DRIFT_JOBS: usize = 120;
const SHIFT_AT_FRAC: f64 = 0.5;
const CYCLE_SCALE: f64 = 1.6;
/// Jobs after the shift allowed for detection + refit (the defaults need
/// `detect_window + min_refit_samples = 20`; 24 leaves slack).
const ADAPT_JOBS: usize = 24;

/// Events of one kind in the recorded trace.
fn count_events(recorder: &Recorder, kind: &str) -> usize {
    recorder
        .ring()
        .snapshot()
        .iter()
        .filter(|e| e.kind == kind)
        .count()
}

/// A stream of `jobs` jobs with its deadline sized to `headroom ×` the
/// benchmark's largest nominal job and arrivals spaced to avoid
/// queueing, so misses measure per-job service quality only.
fn headroom_stream(
    ctx: &Context,
    name: &str,
    headroom: f64,
    jobs: usize,
) -> Result<StreamSpec, Box<dyn std::error::Error>> {
    let probe = ctx.asic_bench(name)?;
    let (max_ms, _, _) = probe.exec_time_stats_ms();
    let mut spec = StreamSpec::new(probe.bench);
    spec.deadline_s = headroom * max_ms * 1e-3;
    spec.period_s = 2.0 * spec.deadline_s;
    spec.jobs = jobs;
    Ok(spec)
}

/// The chaos scenario `fig_serve_chaos` and `fig_slo` share: two
/// predictive streams (sha, md) at 2.5× headroom under transient trace
/// spikes (1.5× cycle inflation the predictor cannot see) and rejected
/// level switches (streams stranded at stale levels).
fn chaos_scenario(ctx: &Context) -> Result<(Scenario, FaultPlan), Box<dyn std::error::Error>> {
    let scenario = Scenario {
        platform: Platform::Asic,
        size: ctx.size(),
        streams: vec![
            headroom_stream(ctx, "sha", 2.5, CHAOS_JOBS)?,
            headroom_stream(ctx, "md", 2.5, CHAOS_JOBS)?,
        ],
        faults: None,
    };
    let mut config = FaultConfig::none();
    config.set("trace_spike", "0.35:1.5")?;
    config.set("switch_reject", "0.25")?;
    Ok((scenario, FaultPlan::new(CHAOS_SEED, config)))
}

/// Miss percentage over a phase of the job sequence, by arrival index.
fn phase_miss_pct(result: &ServeResult, lo: usize, hi: usize) -> f64 {
    let records = &result.streams[0].records;
    let in_phase: Vec<_> = records
        .iter()
        .filter(|r| r.job >= lo && r.job < hi)
        .collect();
    if in_phase.is_empty() {
        return 0.0;
    }
    100.0 * in_phase.iter().filter(|r| r.missed).count() as f64 / in_phase.len() as f64
}

/// Online adaptation under a mid-run workload shift.
///
/// One AES stream runs under a tight deadline (2x the largest nominal
/// job) while the workload silently inflates every execution by 1.6x at
/// the halfway point — the features the offline model reads do not move,
/// so a never-refit predictive controller keeps choosing levels from a
/// stale model and misses from the shift onward. The adaptive controller
/// detects the drift, rides out the gap on its PID fallback, and installs
/// a warm-started refit; the always-PID baseline shows what pure reactive
/// control costs before and after.
///
/// The same prepared runtime is run serially and under a 4-thread pool
/// and the results are asserted bit-identical, pinning the service
/// engine's determinism contract on a drift scenario.
pub(super) fn fig_serve_drift(ctx: &Context) -> Outcome {
    // 2x the largest nominal job keeps the drifted (1.6x) workload
    // feasible, but a stale model's level choices overshoot the deadline.
    let mut stream = headroom_stream(ctx, "aes", 2.0, DRIFT_JOBS)?;
    let deadline_s = stream.deadline_s;
    stream.controller = ControllerKind::Adaptive;
    stream.drift = Some(DriftSpec {
        at_frac: SHIFT_AT_FRAC,
        cycle_scale: CYCLE_SCALE,
    });
    let scenario = Scenario {
        platform: Platform::Asic,
        size: ctx.size(),
        streams: vec![stream],
        faults: None,
    };

    eprintln!(
        "preparing aes drift scenario (deadline {:.2} ms, shift at job {})...",
        deadline_s * 1e3,
        (SHIFT_AT_FRAC * DRIFT_JOBS as f64) as usize
    );
    let runtime = ServeRuntime::prepare(&scenario, ctx.cache())?;

    // Record the adaptive run's event trace: it captures the whole drift
    // arc (fallback engage → refit → recover) with virtual timestamps.
    let recorder = Recorder::new(1 << 16);
    let adaptive = runtime.run_observed(None, &recorder)?;
    let never_refit = runtime.run_with(Some(ControllerKind::Predictive))?;
    let always_pid = runtime.run_with(Some(ControllerKind::Pid))?;

    // Determinism: the identical scenario, prepared and run again under a
    // 4-thread pool, must match float for float.
    let parallel =
        predvfs_par::with_threads(4, || -> Result<ServeResult, Box<dyn std::error::Error>> {
            let rt = ServeRuntime::prepare(&scenario, ctx.cache())?;
            Ok(rt.run()?)
        })?;
    assert_eq!(
        adaptive, parallel,
        "serial and 4-thread runs must be bit-identical"
    );

    let shift = (SHIFT_AT_FRAC * DRIFT_JOBS as f64) as usize;
    let recover = shift + ADAPT_JOBS;
    let mut table = Table::new(
        &format!(
            "serve drift — aes, deadline {:.2} ms, 1.6x cycle shift at job {shift}",
            deadline_s * 1e3
        ),
        &[
            "controller",
            "pre-shift miss%",
            "adapt miss%",
            "recovered miss%",
            "refits",
            "energy (uJ)",
        ],
    );
    let runs = [
        ("adaptive", &adaptive),
        ("never-refit", &never_refit),
        ("always-pid", &always_pid),
    ];
    for (name, result) in runs {
        let s = &result.streams[0];
        table.row(&[
            name.to_owned(),
            format!("{:.1}", phase_miss_pct(result, 0, shift)),
            format!("{:.1}", phase_miss_pct(result, shift, recover)),
            format!("{:.1}", phase_miss_pct(result, recover, DRIFT_JOBS)),
            s.refits.to_string(),
            format!("{:.2}", s.total_energy_pj() / 1e6),
        ]);
    }
    table.print();
    let out = ctx.path("fig_serve_drift.csv");
    table.write_csv(&out)?;
    outln!("wrote {}", out.display());
    let trace_out = ctx.path("fig_serve_drift.trace.jsonl");
    std::fs::write(&trace_out, recorder.ring().to_jsonl())?;
    outln!(
        "wrote {} ({} events, {} drift fallbacks, {} refit installs)",
        trace_out.display(),
        recorder.ring().len(),
        count_events(&recorder, "drift_fallback"),
        count_events(&recorder, "refit"),
    );

    // The figure's claim, enforced: the adaptive controller recovers to
    // (at worst) its pre-shift miss rate, while never-refit stays broken.
    let pre = phase_miss_pct(&adaptive, 0, shift);
    let post = phase_miss_pct(&adaptive, recover, DRIFT_JOBS);
    assert!(
        adaptive.streams[0].refits >= 1,
        "the online trainer must install at least one refit"
    );
    assert!(
        post <= pre,
        "adaptive must recover: post-refit miss {post:.1}% vs pre-shift {pre:.1}%"
    );
    let stale_post = phase_miss_pct(&never_refit, recover, DRIFT_JOBS);
    assert!(
        stale_post > pre,
        "never-refit must stay degraded: {stale_post:.1}% vs pre-shift {pre:.1}%"
    );
    Ok(())
}

/// Graceful degradation under deterministic fault injection.
///
/// The chaos scenario's prepared runtime and fault plan are run twice:
/// with every degradation mechanism disabled, and with the watchdog +
/// bounded switch retries + quarantine enabled. The figure's claim is
/// that the degradation machinery strictly lowers the miss rate under
/// faults.
///
/// The hardened run is also repeated under a 4-thread pool and asserted
/// bit-identical — fault draws are pure functions of
/// `(seed, site, stream, job, attempt)`, so chaos does not break the
/// engine's determinism contract.
pub(super) fn fig_serve_chaos(ctx: &Context) -> Outcome {
    let (scenario, plan) = chaos_scenario(ctx)?;
    eprintln!(
        "preparing chaos scenario (seed {CHAOS_SEED}, {} streams x {CHAOS_JOBS} jobs)...",
        scenario.streams.len()
    );
    let runtime = ServeRuntime::prepare(&scenario, ctx.cache())?;

    let baseline = runtime.run_chaos(None, &NullSink, &plan, false)?;
    let recorder = Recorder::new(1 << 16);
    let hardened = runtime.run_chaos(None, &recorder, &plan, true)?;

    // Determinism: the hardened run repeated under a 4-thread pool must
    // match float for float.
    let parallel =
        predvfs_par::with_threads(4, || -> Result<ServeResult, Box<dyn std::error::Error>> {
            let rt = ServeRuntime::prepare(&scenario, ctx.cache())?;
            Ok(rt.run_chaos(None, &NullSink, &plan, true)?)
        })?;
    assert_eq!(
        hardened, parallel,
        "serial and 4-thread chaos runs must be bit-identical"
    );

    let mut table = Table::new(
        &format!(
            "serve chaos — seed {CHAOS_SEED}, trace spikes 1.5x @ p=0.35, switch rejects @ p=0.25"
        ),
        &[
            "degradation",
            "stream",
            "done",
            "miss%",
            "faults",
            "escalations",
            "quarantines",
            "energy (uJ)",
        ],
    );
    let runs = [("disabled", &baseline), ("enabled", &hardened)];
    for (mode, result) in runs {
        for s in &result.streams {
            table.row(&[
                mode.to_owned(),
                s.name.clone(),
                s.completed().to_string(),
                format!("{:.1}", s.miss_pct()),
                s.faults.to_string(),
                s.escalations.to_string(),
                s.quarantines.to_string(),
                format!("{:.2}", s.total_energy_pj() / 1e6),
            ]);
        }
    }
    table.print();
    let out = ctx.path("fig_serve_chaos.csv");
    table.write_csv(&out)?;
    outln!("wrote {}", out.display());
    let trace_out = ctx.path("fig_serve_chaos.trace.jsonl");
    std::fs::write(&trace_out, recorder.ring().to_jsonl())?;
    outln!(
        "wrote {} ({} events, {} faults, {} watchdog boosts, {} quarantine transitions)",
        trace_out.display(),
        recorder.ring().len(),
        count_events(&recorder, "fault"),
        count_events(&recorder, "watchdog_boost"),
        count_events(&recorder, "quarantine"),
    );

    // The figure's claim, enforced: under the same fault plan the
    // degradation machinery strictly lowers the miss rate.
    assert!(
        baseline.misses() > 0,
        "the fault plan must cause misses when undefended"
    );
    assert!(
        hardened.miss_pct() < baseline.miss_pct(),
        "degradation must strictly reduce the miss rate: {:.2}% vs {:.2}%",
        hardened.miss_pct(),
        baseline.miss_pct()
    );
    outln!(
        "miss rate {:.2}% (disabled) -> {:.2}% (enabled)",
        baseline.miss_pct(),
        hardened.miss_pct()
    );
    Ok(())
}

/// Runs one chaos mode, degradation on or off, with a recorder and
/// returns the engine result plus the analyzed trace.
fn run_mode(
    runtime: &ServeRuntime,
    plan: &FaultPlan,
    degrade: bool,
) -> Result<(ServeResult, TraceAnalysis), Box<dyn std::error::Error>> {
    let recorder = Recorder::new(1 << 16);
    let result = runtime.run_chaos(None, &recorder, plan, degrade)?;
    let jsonl = recorder.ring().to_jsonl();
    let analysis = TraceAnalysis::from_jsonl(&jsonl)?;
    let again = TraceAnalysis::from_jsonl(&jsonl)?;
    assert_eq!(
        analysis.report(),
        again.report(),
        "trace analysis must be deterministic"
    );
    Ok((result, analysis))
}

/// SLO analytics over the chaos scenario.
///
/// This figure's subject is the *analysis layer*: both chaos modes are
/// traced, each trace goes through the offline analyzer, and the figure
/// reports the per-stream slack quantiles and the miss **root-cause
/// split** in each mode (undefended misses should attribute to injected
/// faults and switch stalls; the hardened run's remaining misses show
/// what the degradation machinery cannot absorb).
///
/// Two properties are enforced rather than eyeballed:
/// * **conservation** — for every stream the analyzer's per-cause counts
///   sum exactly to the miss count the serve engine reported, i.e. every
///   miss is classified exactly once;
/// * **determinism** — analyzing the same trace twice yields the same
///   report byte for byte.
pub(super) fn fig_slo(ctx: &Context) -> Outcome {
    let (scenario, plan) = chaos_scenario(ctx)?;
    eprintln!(
        "preparing SLO scenario (seed {CHAOS_SEED}, {} streams x {CHAOS_JOBS} jobs)...",
        scenario.streams.len()
    );
    let runtime = ServeRuntime::prepare(&scenario, ctx.cache())?;
    let (baseline, base_an) = run_mode(&runtime, &plan, false)?;
    let (hardened, hard_an) = run_mode(&runtime, &plan, true)?;

    let mut table = Table::new(
        &format!("serve SLO analytics — chaos seed {CHAOS_SEED}, miss root causes per mode"),
        &[
            "degradation",
            "stream",
            "done",
            "missed",
            "slack_p50_ms",
            "slack_worst5_ms",
            "safe_mode",
            "inj_fault",
            "switch",
            "queueing",
            "mispredict",
            "unattrib",
        ],
    );
    let count = |counts: &[usize], cause: MissCause| {
        counts[MissCause::ALL
            .iter()
            .position(|&x| x == cause)
            .expect("every cause is in MissCause::ALL")]
    };
    let runs = [
        ("disabled", &baseline, &base_an),
        ("enabled", &hardened, &hard_an),
    ];
    for (mode, result, analysis) in runs {
        for s in &result.streams {
            let summary = analysis
                .streams
                .get(&s.name)
                .ok_or_else(|| format!("stream {} missing from the trace", s.name))?;
            // Conservation, per stream: the analyzer saw every completion
            // the engine reported, and classified every miss exactly once.
            assert_eq!(
                summary.jobs_done,
                s.completed(),
                "{mode}/{}: analyzer job count diverged from the engine",
                s.name
            );
            assert_eq!(
                summary.missed,
                s.misses(),
                "{mode}/{}: analyzer miss count diverged from the engine",
                s.name
            );
            assert_eq!(
                summary.cause_counts.iter().sum::<usize>(),
                s.misses(),
                "{mode}/{}: per-cause counts must sum to the misses",
                s.name
            );
            let c = |cause| count(&summary.cause_counts, cause).to_string();
            table.row(&[
                mode.to_owned(),
                s.name.clone(),
                s.completed().to_string(),
                s.misses().to_string(),
                format!("{:.3}", summary.slack_quantile(0.5).unwrap_or(0.0) * 1e3),
                format!("{:.3}", summary.slack_quantile(0.05).unwrap_or(0.0) * 1e3),
                c(MissCause::QuarantineSafeMode),
                c(MissCause::InjectedFault),
                c(MissCause::SwitchStall),
                c(MissCause::QueueingDelay),
                c(MissCause::Mispredict),
                c(MissCause::Unattributed),
            ]);
        }
    }
    table.print();
    let out = ctx.path("fig_slo.csv");
    table.write_csv(&out)?;
    outln!("wrote {}", out.display());

    // The undefended run must attribute its misses to the injected
    // chaos — that attribution working is the figure's whole point.
    let injected = base_an
        .streams
        .values()
        .map(|s| {
            count(&s.cause_counts, MissCause::InjectedFault)
                + count(&s.cause_counts, MissCause::SwitchStall)
        })
        .sum::<usize>();
    assert!(
        injected > 0,
        "undefended chaos misses must attribute to faults/switch stalls"
    );
    outln!(
        "misses {} (disabled, {} fault-attributed) -> {} (enabled)",
        base_an.total_misses(),
        injected,
        hard_an.total_misses()
    );
    Ok(())
}
