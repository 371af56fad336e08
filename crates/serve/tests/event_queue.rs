//! The serve engine's event store against its oracle.
//!
//! Every engine keeps each stream's events in a `StreamQueue`, which must
//! pop in `(total_cmp time, push index)` order: on the same times, on
//! both sides of its inline entries, and after a push below the last pop.
//! A time-major engine orders its lists by their first keys, so those
//! must order as `total_cmp` orders the first times.
//!
//! The store is a private module of the crate, so this test compiles the
//! same source file in.

#[path = "../src/queue.rs"]
mod queue;

use std::cmp::Ordering;

use predvfs_faults::{FaultConfig, FaultPlan};
use predvfs_obs::NullSink;
use predvfs_serve::{Scenario, ServeRuntime};
use predvfs_sim::TraceCache;
use queue::StreamQueue;

/// SplitMix64: a seeded stream of test decisions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick(&mut self, values: &[f64]) -> f64 {
        values[self.below(values.len() as u64) as usize]
    }
}

/// Times a push draws from: ties, signed zeros, infinities and NaNs of
/// both signs among ordinary values.
const TIMES: [f64; 14] = [
    f64::NEG_INFINITY,
    -1.0,
    -0.0,
    0.0,
    1e-300,
    1e-9,
    16.7e-3,
    0.05,
    0.5,
    1.0,
    1.0 + f64::EPSILON,
    1e300,
    f64::INFINITY,
    f64::NAN,
];

/// A time strictly below `t` in `total_cmp` order, if one exists.
fn below(t: f64) -> Option<f64> {
    let lower = if t.is_nan() {
        f64::INFINITY
    } else if t == f64::NEG_INFINITY {
        -f64::NAN
    } else {
        t - 1.0
    };
    (lower.total_cmp(&t) == Ordering::Less).then_some(lower)
}

/// A [`StreamQueue`] and its oracle, every queued `(time, push index)`,
/// driven in lock step. Each event is its push index.
#[derive(Default)]
struct ListPair {
    list: StreamQueue<u64>,
    oracle: Vec<(f64, u64)>,
    pushes: u64,
    /// Time of the last pop.
    floor: Option<f64>,
}

impl ListPair {
    fn push(&mut self, time: f64) -> u64 {
        let id = self.pushes;
        self.pushes += 1;
        self.list.push(time, id);
        self.oracle.push((time, id));
        self.oracle
            .sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        id
    }

    /// Pops from both with the engine's bound check; returns the pop.
    fn pop_before(&mut self, t_end: f64) -> Option<(f64, u64)> {
        let want = match self.oracle.first() {
            Some(&(t, _)) if t >= t_end => None,
            Some(_) => Some(self.oracle.remove(0)),
            None => None,
        };
        let got = self.list.pop_before(t_end);
        assert_eq!(
            got.map(|(t, id)| (t.to_bits(), id)),
            want.map(|(t, id)| (t.to_bits(), id)),
            "pop before {t_end}"
        );
        if let Some((t, _)) = want {
            self.floor = Some(t);
        }
        want
    }

    /// Same contents in the same order.
    fn check(&self) {
        assert_eq!(self.list.len(), self.oracle.len());
        assert_eq!(self.list.is_empty(), self.oracle.is_empty());
        let got: Vec<(u64, u64)> = self.list.iter().map(|(t, &id)| (t.to_bits(), id)).collect();
        let want: Vec<(u64, u64)> = self
            .oracle
            .iter()
            .map(|&(t, id)| (t.to_bits(), id))
            .collect();
        assert_eq!(got, want);
    }

    /// Pops everything left, NaN-timed events included.
    fn drain(&mut self) -> Vec<u64> {
        let popped = std::iter::from_fn(|| self.pop_before(f64::NAN).map(|(_, id)| id)).collect();
        assert!(self.list.pop_before(f64::NAN).is_none());
        self.check();
        popped
    }
}

/// One random interleaving of pushes (some below the last pop), bounded
/// pops and copies.
fn list_interleaving(seed: u64, ops: usize) {
    let mut rng = Rng(seed);
    let mut p = ListPair::default();
    for _ in 0..ops {
        match rng.below(100) {
            0..=49 => {
                let time = match (rng.below(4), p.floor) {
                    (0, Some(floor)) => floor,
                    (1, Some(floor)) => below(floor).unwrap_or(floor),
                    _ => rng.pick(&TIMES),
                };
                p.push(time);
            }
            50..=89 => {
                let t_end = match rng.below(4) {
                    0 => f64::INFINITY,
                    1 => f64::NAN,
                    _ => rng.pick(&TIMES),
                };
                p.pop_before(t_end);
            }
            _ => p.list = p.list.clone(),
        }
        p.check();
    }
    p.drain();
}

#[test]
fn stream_queue_pops_in_oracle_order() {
    for seed in 2000..2400 {
        list_interleaving(seed, 200);
    }
}

#[test]
fn stream_queue_equal_times_pop_in_push_order() {
    let mut p = ListPair::default();
    let ids: Vec<u64> = (0..12).map(|_| p.push(0.5)).collect();
    p.check();
    let popped: Vec<u64> = std::iter::from_fn(|| p.pop_before(1.0).map(|(_, id)| id)).collect();
    assert_eq!(popped, ids);
}

#[test]
fn stream_queue_orders_signed_zeros_infinities_and_nans_by_total_cmp() {
    let mut p = ListPair::default();
    let times = [
        f64::NAN,
        f64::INFINITY,
        0.0,
        -0.0,
        f64::NEG_INFINITY,
        -f64::NAN,
    ];
    let ids: Vec<u64> = times.iter().map(|&t| p.push(t)).collect();
    p.check();
    // -NaN, -inf, -0.0, +0.0, +inf, NaN.
    let want: Vec<u64> = [5, 4, 3, 2, 1, 0].iter().map(|&i| ids[i]).collect();
    assert_eq!(p.drain(), want);
}

#[test]
fn stream_queue_push_below_the_last_pop_comes_out_next() {
    let mut p = ListPair::default();
    for k in 0..8 {
        p.push(k as f64);
    }
    for _ in 0..3 {
        p.pop_before(f64::INFINITY);
    }
    assert_eq!(p.floor, Some(2.0));
    let low = p.push(1.5);
    assert_eq!(p.pop_before(f64::INFINITY).map(|(_, id)| id), Some(low));
    let lower = p.push(-0.0);
    let lowest = p.push(-1.0);
    assert_eq!(p.pop_before(f64::INFINITY).map(|(_, id)| id), Some(lowest));
    assert_eq!(p.pop_before(f64::INFINITY).map(|(_, id)| id), Some(lower));
    p.check();
    p.drain();
}

/// Two lists' first keys compare as `total_cmp` compares their first
/// times, over every pair of times a push draws from.
#[test]
fn first_keys_order_lists_as_total_cmp_orders_their_first_times() {
    let list = |time: f64| {
        let mut list = StreamQueue::default();
        list.push(time, ());
        list
    };
    assert_eq!(StreamQueue::<()>::default().first_key(), None);
    for a in TIMES.into_iter().chain([-f64::NAN]) {
        for b in TIMES.into_iter().chain([-f64::NAN]) {
            assert_eq!(
                list(a).first_key().cmp(&list(b).first_key()),
                a.total_cmp(&b),
                "{a} vs {b}"
            );
        }
    }
}

/// The parsers reject every setting that schedules before `now`, but a
/// fault configuration built in code can: a jitter fraction above 1 makes
/// some execution times negative. Such a push becomes the first entry of
/// its stream's list, the single engine's time-major drain re-keys that
/// slot below the current time, and the run still finishes.
#[test]
fn engine_finishes_when_a_config_built_in_code_schedules_before_now() {
    let scenario = Scenario::demo();
    let runtime =
        ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("demo scenario prepares");
    let mut faults = FaultConfig::none();
    faults.clock_jitter_p = 0.2;
    faults.clock_jitter_frac = 1.5;
    let plan = FaultPlan::new(7, faults);
    let result = runtime
        .run_chaos(None, &NullSink, &plan, true)
        .expect("run finishes");
    for s in &result.streams {
        assert_eq!(s.completed() + s.shed, s.submitted, "stream {}", s.name);
    }
}
