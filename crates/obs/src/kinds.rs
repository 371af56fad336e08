//! Well-known trace-event kind names.
//!
//! The serve engine (and anything that post-processes its JSONL traces)
//! refers to event kinds through these constants instead of scattered
//! string literals, so a renamed event is a compile error rather than a
//! silently broken dashboard query.

/// A job entered admission.
pub const ARRIVAL: &str = "arrival";
/// An arrival was dropped by the shed policy.
pub const SHED: &str = "shed";
/// An arrival was admitted with a stretched deadline.
pub const RELAX: &str = "relax";
/// The feature slice finished.
pub const SLICE_DONE: &str = "slice_done";
/// The regulator settled at a new operating point.
pub const LEVEL_SWITCH: &str = "level_switch";
/// A job completed service.
pub const JOB_DONE: &str = "job_done";
/// An adaptive controller engaged or cleared its drift fallback.
pub const DRIFT_FALLBACK: &str = "drift_fallback";
/// An adaptive controller installed an online refit.
pub const REFIT: &str = "refit";
/// A fault-injection plan fired at some site.
pub const FAULT: &str = "fault";
/// The deadline watchdog escalated an in-flight job.
pub const WATCHDOG_BOOST: &str = "watchdog_boost";
/// The deadline watchdog requested a budgeted escalation (sharded tier:
/// the grant decision belongs to the coordinator, not the shard).
pub const BOOST_REQUEST: &str = "boost_request";
/// A rejected level switch was retried with backoff.
pub const SWITCH_RETRY: &str = "switch_retry";
/// A level switch was abandoned after exhausting its retries.
pub const SWITCH_FAILED: &str = "switch_failed";
/// A stream entered or left quarantine (safe mode).
pub const QUARANTINE: &str = "quarantine";
/// The engine detected an inconsistent event it contained.
pub const INTERNAL_ERROR: &str = "internal_error";
/// Prediction-quality coverage fell below the calibration floor.
pub const CALIBRATION_ALERT: &str = "calibration_alert";
/// A stream's multi-window SLO burn rate engaged or cleared its alert.
pub const SLO_BURN: &str = "slo_burn";
/// Meta event appended at export when the trace ring evicted events.
pub const TRACE_TRUNCATED: &str = "trace_truncated";
/// A shard persisted an epoch-boundary checkpoint of its full state.
pub const CHECKPOINT: &str = "checkpoint";
/// A shard lost its in-memory state during an epoch (injected crash).
pub const SHARD_CRASH: &str = "shard_crash";
/// A crashed shard finished rebuilding from checkpoint + journal replay.
pub const RECOVER: &str = "recover";
/// A shard was slow reaching an epoch boundary (observational fault).
pub const EPOCH_STALL: &str = "epoch_stall";
/// A dropped migration transfer was retransmitted from the retained copy.
pub const TRANSFER_RETRANSMIT: &str = "transfer_retransmit";
