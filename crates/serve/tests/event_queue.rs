//! The serve engine's event stores against their oracles.
//!
//! The engine used to keep its events in a `BinaryHeap` ordered by
//! `(time.total_cmp, seq)`. Its radix queue must pop exactly what that
//! heap pops: on ties, on `-0.0`/`+0.0`, `+inf` and NaN times, across
//! stream extractions and re-pushes, and after a push below the last key
//! pops re-bases it. Its buckets must never hold room for more than twice
//! the most events ever queued at once.
//!
//! A stream-major engine keeps each stream's events in a `StreamQueue`,
//! which must pop in `(total_cmp time, push index)` order: on the same
//! times, on both sides of its inline entries, and after a push below
//! the last pop.
//!
//! The stores are a private module of the crate, so this test compiles
//! the same source file in.

#[path = "../src/queue.rs"]
mod queue;

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use predvfs_faults::{FaultConfig, FaultPlan};
use predvfs_obs::NullSink;
use predvfs_serve::{DegradeConfig, Scenario, ServeRuntime};
use predvfs_sim::TraceCache;
use queue::{EventQueue, StreamQueue};

/// An `f64` ordered by `total_cmp`: the oracle's time key.
#[derive(Debug, Clone, Copy)]
struct Total(f64);

impl PartialEq for Total {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Total {}
impl PartialOrd for Total {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Total {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

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

/// The queue and the oracle, driven in lock step. Each event is a unique
/// id; the oracle mirrors the queue's sequence numbers.
struct Pair {
    queue: EventQueue<u64>,
    oracle: BinaryHeap<Reverse<(Total, u64, u64)>>,
    seq: u64,
    next_id: u64,
    /// Time of the last pop: pushes at or after it keep the queue monotone.
    floor: Option<f64>,
    high_water: usize,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            queue: EventQueue::new(),
            oracle: BinaryHeap::new(),
            seq: 0,
            next_id: 0,
            floor: None,
            high_water: 0,
        }
    }

    fn push(&mut self, time: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push(time, id);
        self.oracle.push(Reverse((Total(time), self.seq, id)));
        self.seq += 1;
        self.high_water = self.high_water.max(self.oracle.len());
        id
    }

    /// A push at or after the last pop, at its time on a tie.
    fn push_monotone(&mut self, time: f64) -> u64 {
        match self.floor {
            Some(floor) if time.total_cmp(&floor) == Ordering::Less => self.push(floor),
            _ => self.push(time),
        }
    }

    /// Pops from both with the engine's bound check; returns the pop.
    fn pop_before(&mut self, t_end: f64) -> Option<(f64, u64)> {
        let want = match self.oracle.peek() {
            Some(Reverse((Total(t), ..))) if *t >= t_end => None,
            Some(_) => self.oracle.pop().map(|Reverse((Total(t), _, id))| (t, id)),
            None => None,
        };
        let got = self.queue.pop_before(t_end);
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

    /// Extracts the events `pred` selects from both, as the engine's
    /// stream migration did on the binary heap: drain, partition, rebuild.
    fn extract(&mut self, pred: impl Fn(u64) -> bool) -> Vec<(f64, u64)> {
        let drained = std::mem::take(&mut self.oracle).into_vec();
        let (mut mine, rest): (Vec<_>, Vec<_>) = drained
            .into_iter()
            .partition(|Reverse((_, _, id))| pred(*id));
        self.oracle = BinaryHeap::from(rest);
        mine.sort_by_key(|&Reverse(key)| key);
        let want: Vec<(f64, u64)> = mine
            .into_iter()
            .map(|Reverse((Total(t), _, id))| (t, id))
            .collect();
        let got = self.queue.extract(|&id| pred(id));
        let bits = |v: &[(f64, u64)]| -> Vec<(u64, u64)> {
            v.iter().map(|&(t, id)| (t.to_bits(), id)).collect()
        };
        assert_eq!(bits(&got), bits(&want), "extraction");
        want
    }

    /// Same contents, and room for at most twice the high-water mark.
    fn check(&self) {
        assert_eq!(self.queue.len(), self.oracle.len());
        assert_eq!(self.queue.is_empty(), self.oracle.is_empty());
        let mut got: Vec<(u64, u64, u64)> = self
            .queue
            .iter()
            .map(|(t, seq, &id)| (t.to_bits(), seq, id))
            .collect();
        let mut want: Vec<(u64, u64, u64)> = self
            .oracle
            .iter()
            .map(|&Reverse((Total(t), seq, id))| (t.to_bits(), seq, id))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(
            self.queue.capacity() <= 2 * self.high_water,
            "capacity {} for a high-water mark of {}",
            self.queue.capacity(),
            self.high_water
        );
    }

    /// Pops everything left, NaN-timed events included.
    fn drain(&mut self) {
        while self.pop_before(f64::NAN).is_some() {}
        assert!(self.queue.pop_before(f64::NAN).is_none());
        self.check();
    }
}

/// One random interleaving of pushes, bounded pops, extractions with
/// re-pushes and, when `rebase` allows, pushes below the last pop.
fn interleaving(seed: u64, ops: usize, rebase: bool) {
    let mut rng = Rng(seed);
    let mut p = Pair::new();
    for _ in 0..ops {
        match rng.below(100) {
            0..=44 => {
                let time = match (rng.below(4), p.floor) {
                    (0, Some(floor)) => floor,
                    (1, Some(floor)) => floor + rng.below(1000) as f64 * 1e-4,
                    _ => rng.pick(&TIMES),
                };
                p.push_monotone(time);
            }
            45..=84 => {
                let t_end = match rng.below(4) {
                    0 => f64::INFINITY,
                    1 => f64::NAN,
                    _ => rng.pick(&TIMES),
                };
                p.pop_before(t_end);
            }
            85..=94 => {
                // A stream leaves and its events come back under fresh
                // sequence numbers, as a migration between engines does.
                let (m, r) = (2 + rng.below(3), rng.below(2));
                let moved = p.extract(|id| id % m == r);
                for (time, _) in moved {
                    p.push(time);
                }
            }
            _ if rebase => {
                if let Some(time) = p.floor.and_then(below) {
                    p.push(time);
                }
            }
            _ => {}
        }
        p.check();
    }
    p.drain();
}

#[test]
fn monotone_interleavings_pop_in_oracle_order() {
    for seed in 0..400 {
        interleaving(seed, 300, false);
    }
}

#[test]
fn pushes_below_the_last_pop_rebase_and_keep_oracle_order() {
    for seed in 1000..1400 {
        interleaving(seed, 300, true);
    }
}

#[test]
fn rebase_pops_the_lower_push_next() {
    let mut p = Pair::new();
    for k in 0..10 {
        p.push(k as f64);
    }
    for _ in 0..5 {
        p.pop_before(f64::INFINITY);
    }
    assert_eq!(p.floor, Some(4.0));
    let low = p.push(2.5);
    let lower = p.push(-0.0);
    p.check();
    assert_eq!(p.pop_before(f64::INFINITY).map(|(_, id)| id), Some(lower));
    assert_eq!(p.pop_before(f64::INFINITY).map(|(_, id)| id), Some(low));
    p.push(-f64::NAN);
    p.push(f64::NEG_INFINITY);
    p.push(3.0);
    p.check();
    p.drain();
}

#[test]
fn equal_times_pop_in_push_order() {
    let mut p = Pair::new();
    let ids: Vec<u64> = (0..1000).map(|_| p.push(0.0)).collect();
    let popped: Vec<u64> = std::iter::from_fn(|| p.pop_before(1.0).map(|(_, id)| id)).collect();
    assert_eq!(popped, ids);
    p.check();
}

/// The sharded engine's shape: every stream keeps its next arrival one
/// period ahead, and each arrival schedules a completion. Extractions
/// move a stream out and straight back in at every epoch boundary.
#[test]
fn serve_shaped_schedule_pops_in_oracle_order_within_twice_the_high_water() {
    const STREAMS: u64 = 4096;
    const JOBS: u64 = 6;
    const EPOCH_S: f64 = 0.05;
    let period = |s: u64| 16.7e-3 * (1.0 + (s % 97) as f64 / 2000.0);
    // What each event id stands for: (stream, job, completion?).
    let mut what: Vec<(u64, u64, bool)> = Vec::new();
    let push = |p: &mut Pair, what: &mut Vec<_>, time: f64, ev| {
        let id = p.push(time);
        assert_eq!(id as usize, what.len());
        what.push(ev);
    };
    let mut p = Pair::new();
    for s in 0..STREAMS {
        push(&mut p, &mut what, 0.0, (s, 0, false));
    }
    let mut rng = Rng(7);
    let mut epoch = 1;
    while !p.oracle.is_empty() {
        let t_end = epoch as f64 * EPOCH_S;
        while let Some((now, id)) = p.pop_before(t_end) {
            let (s, job, done) = what[id as usize];
            if !done {
                if job + 1 < JOBS {
                    let next = (s, job + 1, false);
                    push(&mut p, &mut what, (job + 1) as f64 * period(s), next);
                }
                let service = 1e-3 * (1 + rng.below(8)) as f64;
                push(&mut p, &mut what, now + service, (s, job, true));
            }
        }
        p.check();
        let s = rng.below(STREAMS);
        let moved = p.extract(|id| what[id as usize].0 == s);
        for (time, id) in moved {
            let ev = what[id as usize];
            push(&mut p, &mut what, time, ev);
        }
        epoch += 1;
    }
    assert!(p.high_water >= STREAMS as usize);
    p.check();
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
/// pops, copies and round trips through a migration's hand-over.
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
            90..=94 => p.list = p.list.clone(),
            _ => {
                // The legacy posture's migration path: the events leave
                // in pop order and are pushed back in that order.
                p.list = std::mem::take(&mut p.list).into_events().collect();
            }
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

/// The parsers reject every setting that schedules before `now`, but a
/// configuration built in code can: a negative watchdog fraction, and a
/// jitter fraction above 1 that makes some execution times negative. The
/// engine's queue re-bases on those pushes and the run still finishes.
#[test]
fn engine_finishes_when_a_config_built_in_code_schedules_before_now() {
    let runtime = ServeRuntime::prepare(&Scenario::demo(), &TraceCache::new())
        .expect("demo scenario prepares");
    let mut faults = FaultConfig::none();
    faults.clock_jitter_p = 0.2;
    faults.clock_jitter_frac = 1.5;
    let plan = FaultPlan::new(7, faults);
    let degrade = DegradeConfig {
        watchdog_frac: -0.5,
        ..DegradeConfig::enabled()
    };
    let result = runtime
        .run_chaos(None, &NullSink, &plan, &degrade)
        .expect("run finishes");
    for s in &result.streams {
        assert_eq!(s.completed() + s.shed, s.submitted, "stream {}", s.name);
    }
}
