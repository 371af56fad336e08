//! # predvfs-faults
//!
//! Deterministic, seeded fault injection for the serve runtime.
//!
//! Real deployments of the paper's predictive-DVFS scheme do not live on
//! the happy path: voltage regulators stall or reject a level switch,
//! the feature slice glitches or times out, clock domains jitter, and
//! workloads spike past anything the offline model saw. This crate
//! describes those events as typed [`FaultKind`]s and delivers them
//! through the [`FaultInjector`] trait, which mirrors the
//! `predvfs-obs::ObsSink` design: every method has a no-op default, so
//! an un-faulted engine pays one `enabled()` branch per injection site.
//!
//! ## Determinism
//!
//! [`FaultPlan`] is *stateless*: every query derives a fresh RNG from
//! `(seed, site, stream, job, attempt)`, so the answer depends only on
//! those coordinates — never on how many other queries happened first,
//! on event interleaving, or on worker-thread count. The serve engine's
//! chaos traces are therefore byte-identical across `--threads 1` and
//! `--threads 8`, which the `chaos_determinism` integration suite pins.
//!
//! ```
//! use predvfs_faults::{FaultConfig, FaultInjector, FaultPlan};
//!
//! let plan = FaultPlan::new(7, FaultConfig::standard());
//! assert!(plan.enabled());
//! // Identical coordinates always give the identical answer.
//! assert_eq!(plan.slice_fault(0, 3), plan.slice_fault(0, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected fault, with the magnitude the plan drew for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The feature slice produced a corrupted prediction: the controller
    /// sees `predicted × predict_scale` instead of the model's output.
    SliceCorrupt {
        /// Multiplier applied to the predicted cycle count.
        predict_scale: f64,
    },
    /// The feature slice hung and took `time_stretch ×` its nominal time
    /// (the decision itself is unaffected — the budget just shrinks).
    SliceTimeout {
        /// Multiplier on the slice's wall-clock time (≥ 1).
        time_stretch: f64,
    },
    /// The regulator rejected a requested level switch outright.
    SwitchReject,
    /// The regulator settled, but `stretch ×` slower than `Tdvfs`.
    SwitchStall {
        /// Multiplier on the transition time (≥ 1).
        stretch: f64,
    },
    /// The clock domain ran off-frequency for the whole job.
    ClockJitter {
        /// Multiplier on the effective frequency (near 1).
        freq_scale: f64,
    },
    /// A transient workload spike: the job's execution trace is scaled.
    TraceSpike {
        /// Multiplier on execution cycles.
        cycle_scale: f64,
    },
    /// Two jobs arrived back-to-back instead of a period apart.
    ArrivalBurst,
    /// The accelerator raised a completion interrupt with no job in
    /// flight (the event-loop consistency fault).
    SpuriousDone,
}

impl FaultKind {
    /// Stable identifier used in trace events and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::SliceCorrupt { .. } => "slice_corrupt",
            FaultKind::SliceTimeout { .. } => "slice_timeout",
            FaultKind::SwitchReject => "switch_reject",
            FaultKind::SwitchStall { .. } => "switch_stall",
            FaultKind::ClockJitter { .. } => "clock_jitter",
            FaultKind::TraceSpike { .. } => "trace_spike",
            FaultKind::ArrivalBurst => "arrival_burst",
            FaultKind::SpuriousDone => "spurious_done",
        }
    }

    /// The fault's magnitude parameter, when it has one.
    pub fn magnitude(&self) -> Option<f64> {
        match *self {
            FaultKind::SliceCorrupt { predict_scale } => Some(predict_scale),
            FaultKind::SliceTimeout { time_stretch } => Some(time_stretch),
            FaultKind::SwitchStall { stretch } => Some(stretch),
            FaultKind::ClockJitter { freq_scale } => Some(freq_scale),
            FaultKind::TraceSpike { cycle_scale } => Some(cycle_scale),
            FaultKind::SwitchReject | FaultKind::ArrivalBurst | FaultKind::SpuriousDone => None,
        }
    }
}

/// Decides, per injection site, whether a fault fires. Mirrors the
/// `ObsSink` pattern: every method defaults to "no fault", so a plain
/// run threads a [`NullInjector`] through the engine at the cost of one
/// branch per site.
///
/// Implementations must be pure functions of their arguments (plus
/// internal immutable configuration): the serve engine queries sites
/// from its serial event loop and relies on answers being independent
/// of query order.
pub trait FaultInjector: Sync {
    /// Quick global gate: when `false`, the engine skips all fault
    /// bookkeeping.
    fn enabled(&self) -> bool {
        false
    }

    /// Should `job` of `stream` arrive back-to-back with its
    /// predecessor instead of a period later? Never queried for job 0.
    fn arrival_burst(&self, _stream: usize, _job: usize) -> bool {
        false
    }

    /// A slice-level fault for this job: corruption of the prediction or
    /// a slice timeout (at most one fires per job).
    fn slice_fault(&self, _stream: usize, _job: usize) -> Option<FaultKind> {
        None
    }

    /// Does the regulator reject this job's level switch on `attempt`
    /// (0-based)? Each retry is an independent draw.
    fn switch_rejected(&self, _stream: usize, _job: usize, _attempt: u32) -> bool {
        false
    }

    /// A stall multiplier (≥ 1) for this job's successful level switch.
    fn switch_stall(&self, _stream: usize, _job: usize) -> Option<f64> {
        None
    }

    /// An off-frequency multiplier (near 1) for this job's execution.
    fn clock_jitter(&self, _stream: usize, _job: usize) -> Option<f64> {
        None
    }

    /// A transient cycle-count multiplier for this job's trace.
    fn trace_spike(&self, _stream: usize, _job: usize) -> Option<f64> {
        None
    }

    /// Should the accelerator raise a spurious completion after this
    /// job finishes?
    fn spurious_done(&self, _stream: usize, _job: usize) -> bool {
        false
    }

    /// Coordinator-level site: does `shard` crash during `epoch` (losing
    /// all in-memory state, to be rebuilt from its last checkpoint plus
    /// the epoch journal)? Queried once per (shard, epoch) at the epoch
    /// boundary.
    fn shard_crash(&self, _shard: usize, _epoch: u64) -> bool {
        false
    }

    /// Coordinator-level site: is `shard` slow reaching the `epoch`
    /// boundary? Purely observational — the coordinator joins every
    /// shard at the boundary however long it takes, so a stall is
    /// counted and traced but changes no scheduling decision.
    fn epoch_stall(&self, _shard: usize, _epoch: u64) -> bool {
        false
    }

    /// Coordinator-level site: is the migration transfer of stream `gid`
    /// at `epoch`'s boundary dropped in flight? The coordinator
    /// retransmits from the retained copy, so the admission still
    /// happens — the drop is counted and traced.
    fn transfer_drop(&self, _gid: usize, _epoch: u64) -> bool {
        false
    }
}

/// The default injector: no faults, `enabled() == false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullInjector;

impl FaultInjector for NullInjector {}

/// Per-kind firing probabilities and magnitudes. A probability of 0
/// disables the kind; [`FaultConfig::default`] disables everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a job's prediction is corrupted.
    pub slice_corrupt_p: f64,
    /// Multiplier applied to a corrupted prediction (> 0).
    pub slice_corrupt_scale: f64,
    /// Probability the slice times out.
    pub slice_timeout_p: f64,
    /// Slice wall-clock stretch on timeout (≥ 1).
    pub slice_timeout_stretch: f64,
    /// Probability a switch attempt is rejected (drawn per attempt).
    pub switch_reject_p: f64,
    /// Probability a successful switch stalls.
    pub switch_stall_p: f64,
    /// Transition-time stretch on stall (≥ 1).
    pub switch_stall_stretch: f64,
    /// Probability a job executes off-frequency.
    pub clock_jitter_p: f64,
    /// Half-width of the jitter band: the frequency multiplier is drawn
    /// uniformly from `[1 − frac, 1 + frac]` (in `[0, 1)`).
    pub clock_jitter_frac: f64,
    /// Probability a job's trace spikes.
    pub trace_spike_p: f64,
    /// Cycle multiplier on spike (> 0).
    pub trace_spike_scale: f64,
    /// Probability an arrival collapses onto its predecessor.
    pub burst_p: f64,
    /// Probability of a spurious completion after a job.
    pub spurious_done_p: f64,
    /// Probability a shard crashes during an epoch (coordinator site;
    /// drawn once per (shard, epoch)).
    pub shard_crash_p: f64,
    /// Probability a shard stalls reaching an epoch boundary
    /// (coordinator site; observational only).
    pub epoch_stall_p: f64,
    /// Probability a migration transfer is dropped and retransmitted
    /// (coordinator site; drawn per (gid, epoch)).
    pub transfer_drop_p: f64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            slice_corrupt_p: 0.0,
            slice_corrupt_scale: 3.0,
            slice_timeout_p: 0.0,
            slice_timeout_stretch: 4.0,
            switch_reject_p: 0.0,
            switch_stall_p: 0.0,
            switch_stall_stretch: 5.0,
            clock_jitter_p: 0.0,
            clock_jitter_frac: 0.1,
            trace_spike_p: 0.0,
            trace_spike_scale: 2.0,
            burst_p: 0.0,
            spurious_done_p: 0.0,
            shard_crash_p: 0.0,
            epoch_stall_p: 0.0,
            transfer_drop_p: 0.0,
        }
    }
}

impl FaultConfig {
    /// No faults at all (same as `default()`).
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// The standard chaos mix used by `predvfs chaos` and CI smoke:
    /// every kind enabled at a low rate with moderate magnitudes.
    pub fn standard() -> FaultConfig {
        FaultConfig {
            slice_corrupt_p: 0.05,
            slice_timeout_p: 0.03,
            switch_reject_p: 0.05,
            switch_stall_p: 0.05,
            clock_jitter_p: 0.05,
            trace_spike_p: 0.05,
            burst_p: 0.05,
            spurious_done_p: 0.02,
            ..FaultConfig::default()
        }
    }

    /// The coordinator-level chaos mix used by `serve --crash` and the
    /// crash-recovery CI smoke: shard crashes, epoch stalls, and
    /// transfer drops only — job-level sites stay off so recovery runs
    /// compare cleanly against the fault-free reference.
    pub fn coordinator() -> FaultConfig {
        FaultConfig {
            shard_crash_p: 0.08,
            epoch_stall_p: 0.05,
            transfer_drop_p: 0.2,
            ..FaultConfig::default()
        }
    }

    /// True when every kind is disabled.
    pub fn is_empty(&self) -> bool {
        [
            self.slice_corrupt_p,
            self.slice_timeout_p,
            self.switch_reject_p,
            self.switch_stall_p,
            self.clock_jitter_p,
            self.trace_spike_p,
            self.burst_p,
            self.spurious_done_p,
            self.shard_crash_p,
            self.epoch_stall_p,
            self.transfer_drop_p,
        ]
        .iter()
        .all(|&p| p == 0.0)
    }

    /// Applies one `key=val` setting from a scenario `[faults]` section.
    ///
    /// Recognised keys (probabilities in `[0, 1]`):
    ///
    /// | key | value | fault |
    /// |-----|-------|-------|
    /// | `slice_corrupt` | `p:scale` | prediction × scale |
    /// | `slice_timeout` | `p:stretch` | slice time × stretch |
    /// | `switch_reject` | `p` | level switch rejected |
    /// | `switch_stall` | `p:stretch` | transition × stretch |
    /// | `clock_jitter` | `p:frac` | frequency × U[1±frac] |
    /// | `trace_spike` | `p:scale` | trace cycles × scale |
    /// | `burst` | `p` | back-to-back arrival |
    /// | `spurious_done` | `p` | phantom completion |
    /// | `shard_crash` | `p` | shard loses state during an epoch |
    /// | `epoch_stall` | `p` | shard slow reaching the boundary |
    /// | `transfer_drop` | `p` | migration transfer retransmitted |
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys and
    /// out-of-range or non-finite values.
    pub fn set(&mut self, key: &str, val: &str) -> Result<(), String> {
        fn prob(s: &str) -> Result<f64, String> {
            let p = s.parse::<f64>().map_err(|e| e.to_string())?;
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("probability must be in [0, 1], got {s}"));
            }
            Ok(p)
        }
        fn prob_mag(s: &str) -> Result<(f64, f64), String> {
            let (p, m) = s
                .split_once(':')
                .ok_or_else(|| "expected <prob>:<magnitude>".to_owned())?;
            let m = m.parse::<f64>().map_err(|e| e.to_string())?;
            Ok((prob(p)?, m))
        }
        fn at_least_one(m: f64) -> Result<f64, String> {
            if !m.is_finite() || m < 1.0 {
                return Err(format!("magnitude must be finite and >= 1, got {m}"));
            }
            Ok(m)
        }
        fn positive(m: f64) -> Result<f64, String> {
            if !m.is_finite() || m <= 0.0 {
                return Err(format!("magnitude must be finite and positive, got {m}"));
            }
            Ok(m)
        }
        match key {
            "slice_corrupt" => {
                let (p, m) = prob_mag(val)?;
                let m = positive(m)?;
                (self.slice_corrupt_p, self.slice_corrupt_scale) = (p, m);
            }
            "slice_timeout" => {
                let (p, m) = prob_mag(val)?;
                let m = at_least_one(m)?;
                (self.slice_timeout_p, self.slice_timeout_stretch) = (p, m);
            }
            "switch_reject" => self.switch_reject_p = prob(val)?,
            "switch_stall" => {
                let (p, m) = prob_mag(val)?;
                let m = at_least_one(m)?;
                (self.switch_stall_p, self.switch_stall_stretch) = (p, m);
            }
            "clock_jitter" => {
                let (p, m) = prob_mag(val)?;
                if !m.is_finite() || !(0.0..1.0).contains(&m) {
                    return Err(format!("jitter fraction must be in [0, 1), got {m}"));
                }
                (self.clock_jitter_p, self.clock_jitter_frac) = (p, m);
            }
            "trace_spike" => {
                let (p, m) = prob_mag(val)?;
                let m = positive(m)?;
                (self.trace_spike_p, self.trace_spike_scale) = (p, m);
            }
            "burst" => self.burst_p = prob(val)?,
            "spurious_done" => self.spurious_done_p = prob(val)?,
            "shard_crash" => self.shard_crash_p = prob(val)?,
            "epoch_stall" => self.epoch_stall_p = prob(val)?,
            "transfer_drop" => self.transfer_drop_p = prob(val)?,
            _ => return Err(format!("unknown fault option {key:?}")),
        }
        Ok(())
    }
}

/// Injection sites, mixed into the per-query seed so the same (stream,
/// job) gets independent draws at each site.
#[derive(Clone, Copy)]
enum Site {
    Burst = 1,
    Slice = 2,
    SwitchReject = 3,
    SwitchStall = 4,
    Jitter = 5,
    Spike = 6,
    Spurious = 7,
    ShardCrash = 8,
    EpochStall = 9,
    TransferDrop = 10,
}

/// A seeded, deterministic fault plan.
///
/// Stateless by construction: each query hashes `(seed, site, stream,
/// job, attempt)` into a fresh [`StdRng`], so answers are independent
/// of query order, event interleaving, and thread count.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
}

impl FaultPlan {
    /// A plan firing `config`'s fault mix under `seed`.
    pub fn new(seed: u64, config: FaultConfig) -> FaultPlan {
        FaultPlan { seed, config }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's fault mix.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    fn rng(&self, site: Site, stream: usize, job: usize, attempt: u32) -> StdRng {
        let mut h = self.seed ^ 0x517C_C1B7_2722_0A95;
        for w in [site as u64, stream as u64, job as u64, u64::from(attempt)] {
            h ^= w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = h.rotate_left(27).wrapping_mul(0xD1B5_4A32_D192_ED03);
        }
        StdRng::seed_from_u64(h)
    }
}

impl FaultInjector for FaultPlan {
    fn enabled(&self) -> bool {
        !self.config.is_empty()
    }

    fn arrival_burst(&self, stream: usize, job: usize) -> bool {
        self.config.burst_p > 0.0
            && self
                .rng(Site::Burst, stream, job, 0)
                .gen_bool(self.config.burst_p)
    }

    fn slice_fault(&self, stream: usize, job: usize) -> Option<FaultKind> {
        let c = &self.config;
        if c.slice_corrupt_p == 0.0 && c.slice_timeout_p == 0.0 {
            return None;
        }
        // One rng for the whole site keeps corruption and timeout draws
        // correlated to the coordinates, not to each other's settings.
        let mut rng = self.rng(Site::Slice, stream, job, 0);
        let corrupt = rng.gen_bool(c.slice_corrupt_p);
        let timeout = rng.gen_bool(c.slice_timeout_p);
        if corrupt {
            Some(FaultKind::SliceCorrupt {
                predict_scale: c.slice_corrupt_scale,
            })
        } else if timeout {
            Some(FaultKind::SliceTimeout {
                time_stretch: c.slice_timeout_stretch,
            })
        } else {
            None
        }
    }

    fn switch_rejected(&self, stream: usize, job: usize, attempt: u32) -> bool {
        self.config.switch_reject_p > 0.0
            && self
                .rng(Site::SwitchReject, stream, job, attempt)
                .gen_bool(self.config.switch_reject_p)
    }

    fn switch_stall(&self, stream: usize, job: usize) -> Option<f64> {
        if self.config.switch_stall_p == 0.0 {
            return None;
        }
        self.rng(Site::SwitchStall, stream, job, 0)
            .gen_bool(self.config.switch_stall_p)
            .then_some(self.config.switch_stall_stretch)
    }

    fn clock_jitter(&self, stream: usize, job: usize) -> Option<f64> {
        if self.config.clock_jitter_p == 0.0 {
            return None;
        }
        let mut rng = self.rng(Site::Jitter, stream, job, 0);
        if !rng.gen_bool(self.config.clock_jitter_p) {
            return None;
        }
        let frac = self.config.clock_jitter_frac;
        if frac == 0.0 {
            return Some(1.0);
        }
        Some(rng.gen_range(1.0 - frac..1.0 + frac))
    }

    fn trace_spike(&self, stream: usize, job: usize) -> Option<f64> {
        if self.config.trace_spike_p == 0.0 {
            return None;
        }
        self.rng(Site::Spike, stream, job, 0)
            .gen_bool(self.config.trace_spike_p)
            .then_some(self.config.trace_spike_scale)
    }

    fn spurious_done(&self, stream: usize, job: usize) -> bool {
        self.config.spurious_done_p > 0.0
            && self
                .rng(Site::Spurious, stream, job, 0)
                .gen_bool(self.config.spurious_done_p)
    }

    fn shard_crash(&self, shard: usize, epoch: u64) -> bool {
        self.config.shard_crash_p > 0.0
            && self
                .rng(Site::ShardCrash, shard, epoch as usize, 0)
                .gen_bool(self.config.shard_crash_p)
    }

    fn epoch_stall(&self, shard: usize, epoch: u64) -> bool {
        self.config.epoch_stall_p > 0.0
            && self
                .rng(Site::EpochStall, shard, epoch as usize, 0)
                .gen_bool(self.config.epoch_stall_p)
    }

    fn transfer_drop(&self, gid: usize, epoch: u64) -> bool {
        self.config.transfer_drop_p > 0.0
            && self
                .rng(Site::TransferDrop, gid, epoch as usize, 0)
                .gen_bool(self.config.transfer_drop_p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every site's answer for one (stream, job) coordinate.
    fn snapshot(plan: &FaultPlan, stream: usize, job: usize) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            plan.arrival_burst(stream, job),
            plan.slice_fault(stream, job),
            (0..4)
                .map(|a| plan.switch_rejected(stream, job, a))
                .collect::<Vec<_>>(),
            plan.switch_stall(stream, job),
            plan.clock_jitter(stream, job),
            plan.trace_spike(stream, job),
            plan.spurious_done(stream, job),
        )
    }

    #[test]
    fn identical_coordinates_identical_answers() {
        let plan = FaultPlan::new(7, FaultConfig::standard());
        for stream in 0..3 {
            for job in 0..50 {
                assert_eq!(
                    snapshot(&plan, stream, job),
                    snapshot(&plan, stream, job),
                    "stream {stream} job {job}"
                );
            }
        }
    }

    #[test]
    fn answers_are_query_order_independent() {
        // Two plans, queried in opposite orders, must agree everywhere —
        // the property the serve engine's determinism rests on.
        let a = FaultPlan::new(11, FaultConfig::standard());
        let b = FaultPlan::new(11, FaultConfig::standard());
        let fwd: Vec<String> = (0..40).map(|j| snapshot(&a, 0, j)).collect();
        let rev: Vec<String> = (0..40).rev().map(|j| snapshot(&b, 0, j)).collect();
        for (j, s) in fwd.iter().enumerate() {
            assert_eq!(*s, rev[39 - j], "job {j}");
        }
    }

    #[test]
    fn seeds_change_the_plan() {
        let a = FaultPlan::new(1, FaultConfig::standard());
        let b = FaultPlan::new(2, FaultConfig::standard());
        assert!(
            (0..200).any(|j| snapshot(&a, 0, j) != snapshot(&b, 0, j)),
            "different seeds must eventually disagree"
        );
    }

    #[test]
    fn sites_draw_independently() {
        // A plan with every probability at 1 must fire all kinds at the
        // same coordinate; one with 0 must fire none.
        let mut all = FaultConfig::standard();
        all.slice_corrupt_p = 1.0;
        all.switch_reject_p = 1.0;
        all.trace_spike_p = 1.0;
        let hot = FaultPlan::new(3, all);
        assert!(matches!(
            hot.slice_fault(0, 0),
            Some(FaultKind::SliceCorrupt { .. })
        ));
        assert!(hot.switch_rejected(0, 0, 0));
        assert_eq!(hot.trace_spike(0, 0), Some(all.trace_spike_scale));

        let cold = FaultPlan::new(3, FaultConfig::none());
        assert!(!cold.enabled());
        for j in 0..50 {
            assert_eq!(snapshot(&cold, 0, j), snapshot(&cold, 1, j));
            assert!(cold.slice_fault(0, j).is_none());
            assert!(!cold.arrival_burst(0, j));
        }
    }

    #[test]
    fn probabilities_are_roughly_honored() {
        let mut c = FaultConfig::none();
        c.trace_spike_p = 0.25;
        let plan = FaultPlan::new(5, c);
        let fired = (0..2000)
            .filter(|&j| plan.trace_spike(0, j).is_some())
            .count();
        assert!(
            (350..650).contains(&fired),
            "expected ~500 of 2000 spikes, got {fired}"
        );
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut c = FaultConfig::none();
        c.clock_jitter_p = 1.0;
        c.clock_jitter_frac = 0.2;
        let plan = FaultPlan::new(9, c);
        for j in 0..500 {
            let f = plan.clock_jitter(0, j).expect("p=1 always fires");
            assert!((0.8..1.2).contains(&f), "jitter {f} out of band");
        }
    }

    #[test]
    fn config_parsing_accepts_the_documented_keys() {
        let mut c = FaultConfig::none();
        c.set("slice_corrupt", "0.1:2.5").unwrap();
        c.set("slice_timeout", "0.05:3").unwrap();
        c.set("switch_reject", "0.2").unwrap();
        c.set("switch_stall", "0.1:4").unwrap();
        c.set("clock_jitter", "0.3:0.15").unwrap();
        c.set("trace_spike", "0.25:1.9").unwrap();
        c.set("burst", "0.1").unwrap();
        c.set("spurious_done", "1").unwrap();
        assert!((c.slice_corrupt_p - 0.1).abs() < 1e-12);
        assert!((c.slice_corrupt_scale - 2.5).abs() < 1e-12);
        assert!((c.clock_jitter_frac - 0.15).abs() < 1e-12);
        assert!((c.spurious_done_p - 1.0).abs() < 1e-12);
        assert!(!c.is_empty());
    }

    #[test]
    fn config_parsing_rejects_bad_values() {
        let mut c = FaultConfig::none();
        assert!(c.set("wombat", "1").is_err());
        assert!(c.set("burst", "1.5").is_err());
        assert!(c.set("burst", "-0.1").is_err());
        assert!(c.set("burst", "nan").is_err());
        assert!(c.set("switch_reject", "inf").is_err());
        assert!(c.set("slice_corrupt", "0.1").is_err(), "missing magnitude");
        assert!(c.set("slice_corrupt", "0.1:0").is_err());
        assert!(c.set("slice_timeout", "0.1:0.5").is_err(), "stretch < 1");
        assert!(c.set("switch_stall", "0.1:inf").is_err());
        assert!(
            c.set("clock_jitter", "0.1:1.0").is_err(),
            "frac must be < 1"
        );
        assert!(c.set("trace_spike", "0.1:-2").is_err());
        assert!(c.is_empty(), "failed sets must not enable anything");
    }

    #[test]
    fn null_injector_is_disabled() {
        let n = NullInjector;
        assert!(!n.enabled());
        assert!(n.slice_fault(0, 0).is_none());
        assert!(!n.switch_rejected(0, 0, 0));
        assert!(!n.shard_crash(0, 0));
        assert!(!n.epoch_stall(0, 0));
        assert!(!n.transfer_drop(0, 0));
    }

    /// Every coordinator site's answer for one (shard-ish, epoch) pair.
    fn coord_snapshot(plan: &FaultPlan, shard: usize, epoch: u64) -> String {
        format!(
            "{:?}|{:?}|{:?}",
            plan.shard_crash(shard, epoch),
            plan.epoch_stall(shard, epoch),
            plan.transfer_drop(shard, epoch),
        )
    }

    #[test]
    fn coordinator_sites_are_deterministic_and_independent() {
        let plan = FaultPlan::new(7, FaultConfig::coordinator());
        assert!(plan.enabled());
        for shard in 0..4 {
            for epoch in 0..64 {
                assert_eq!(
                    coord_snapshot(&plan, shard, epoch),
                    coord_snapshot(&plan, shard, epoch),
                    "shard {shard} epoch {epoch}"
                );
            }
        }
        // The three sites must not mirror each other at shared
        // coordinates: with all probabilities forced to 1 vs a fair mix,
        // per-site draws come from distinct streams.
        let crashes: Vec<bool> = (0..200).map(|e| plan.shard_crash(1, e)).collect();
        let stalls: Vec<bool> = (0..200).map(|e| plan.epoch_stall(1, e)).collect();
        let drops: Vec<bool> = (0..200).map(|e| plan.transfer_drop(1, e)).collect();
        assert_ne!(crashes, stalls);
        assert_ne!(crashes, drops);
    }

    #[test]
    fn coordinator_sites_stay_out_of_job_level_presets() {
        // `standard()` predates the coordinator sites; adding them there
        // would silently change every existing chaos trace.
        let std = FaultConfig::standard();
        assert_eq!(std.shard_crash_p, 0.0);
        assert_eq!(std.epoch_stall_p, 0.0);
        assert_eq!(std.transfer_drop_p, 0.0);
        // And `coordinator()` keeps job-level sites off so crash runs
        // compare against a clean reference.
        let coord = FaultConfig::coordinator();
        assert!(coord.shard_crash_p > 0.0);
        assert_eq!(coord.trace_spike_p, 0.0);
        assert_eq!(coord.burst_p, 0.0);
        assert!(!coord.is_empty());
        let plan = FaultPlan::new(3, coord);
        for j in 0..50 {
            assert!(plan.slice_fault(0, j).is_none());
            assert!(!plan.arrival_burst(0, j));
        }
    }

    #[test]
    fn coordinator_probabilities_are_roughly_honored() {
        let mut c = FaultConfig::none();
        c.shard_crash_p = 0.25;
        let plan = FaultPlan::new(5, c);
        let fired = (0..2000u64).filter(|&e| plan.shard_crash(0, e)).count();
        assert!(
            (350..650).contains(&fired),
            "expected ~500 of 2000 crashes, got {fired}"
        );
    }

    #[test]
    fn config_parsing_accepts_coordinator_keys() {
        let mut c = FaultConfig::none();
        c.set("shard_crash", "0.1").unwrap();
        c.set("epoch_stall", "0.2").unwrap();
        c.set("transfer_drop", "0.3").unwrap();
        assert!((c.shard_crash_p - 0.1).abs() < 1e-12);
        assert!((c.epoch_stall_p - 0.2).abs() < 1e-12);
        assert!((c.transfer_drop_p - 0.3).abs() < 1e-12);
        assert!(c.set("shard_crash", "1.5").is_err());
        assert!(c.set("epoch_stall", "nan").is_err());
        assert!(c.set("transfer_drop", "-0.1").is_err());
    }
}
