//! The serve engine's event stores.
//!
//! Both pop in one order: earliest time first under `f64::total_cmp`,
//! push order on ties. [`order_bits`] maps an `f64` to a `u64` whose
//! integer order is `f64::total_cmp`'s, so both compare integer keys.
//!
//! - [`StreamQueue`] holds one stream's pending events. A stream-major
//!   engine, the sharded posture, keeps one per stream slot and runs each
//!   stream's events before an epoch's end without touching another's.
//!   One-ahead arrivals keep a stream's pending set to a handful of
//!   events, so the list keeps its first four in place, sorted, and
//!   spills the rest to the heap.
//! - [`EventQueue`] holds every stream's events in one time-major queue,
//!   for the legacy single-engine posture, whose recorded traces
//!   interleave streams in push order.
//!
//! ## The shard-wide queue
//!
//! Every event is keyed by `(order_bits(time), seq)`, one 128-bit
//! integer. `seq` counts pushes, so keys are unique and the pop order is
//! exactly "earliest time first, push order on ties".
//!
//! The queue pops with the radix heap of Ahuja, Mehlhorn, Orlin and
//! Tarjan ("Faster algorithms for the shortest path problem", JACM 1990)
//! instead of a binary heap's walk down ~log2(n) scattered levels. It
//! remembers `last`, the key it popped last. An entry lives in the bucket
//! of the highest bit in which its key differs from `last`: bucket 0 is
//! "equal to `last`" and holds at most one entry (`head`), and
//! `buckets[i]` holds the keys whose highest differing bit is `i`. A key
//! in a lower bucket is smaller than every key in a higher one, so when
//! `head` is empty the minimum is the minimum of the lowest non-empty
//! bucket, which `mask` finds with one `trailing_zeros`. Popping makes
//! that minimum the new `last` and moves the rest of its bucket to lower
//! buckets, sequentially. Each entry moves down at most 128 times in all.
//!
//! **The monotone contract.** The engine never schedules an event before
//! the one it is handling, so every push is at or above `last`. A push
//! below it can only come from a configuration built in code that the
//! parsers would reject (a negative `DegradeConfig::watchdog_frac`, say);
//! such a push re-bases the queue: `last` drops to the new key and every
//! entry is re-bucketed against it, in O(n). The pop order stays exact.
//! A [`StreamQueue`] needs no such contract: a push below its first entry
//! simply becomes its first entry.
//!
//! **Capacity.** A drained bucket is freed, a redistribution reserves
//! exactly what each target bucket receives, a push into a full bucket
//! doubles it, and an extraction shrinks a bucket it thins out. So no
//! bucket has room for more than twice the entries it holds.

/// Maps `t` to a `u64` whose integer order is `f64::total_cmp`'s order.
fn order_bits(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`order_bits`].
fn from_order_bits(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
}

/// The index of the highest set bit of a non-zero `diff`.
fn high_bit(diff: u128) -> usize {
    (127 - diff.leading_zeros()) as usize
}

/// The indices of the set bits of `mask`, lowest first.
fn set_bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let i = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(i)
    })
}

/// One queued event with its key split in two words, so an entry is no
/// larger than the event plus two `u64`s.
struct Entry<E> {
    /// [`order_bits`] of the event time.
    time: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> u128 {
        u128::from(self.time) << 64 | u128::from(self.seq)
    }
}

/// A monotone radix queue of events, earliest first, push order on ties.
pub(crate) struct EventQueue<E> {
    /// The key popped last, or the key of a push below it.
    last: u128,
    /// Bucket 0: the entry whose key equals `last`, if still queued.
    head: Option<Entry<E>>,
    /// `buckets[i]` holds the entries whose highest bit differing from
    /// `last` is bit `i`.
    buckets: [Vec<Entry<E>>; 128],
    /// The smallest key in each non-empty bucket.
    mins: [u128; 128],
    /// Bit `i` is set when `buckets[i]` is non-empty.
    mask: u128,
    /// The next push's sequence number.
    seq: u64,
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> EventQueue<E> {
        EventQueue {
            last: 0,
            head: None,
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [0; 128],
            mask: 0,
            seq: 0,
        }
    }

    /// Schedules `event` at `time`, after every event already queued at
    /// the same time.
    pub(crate) fn push(&mut self, time: f64, event: E) {
        let entry = Entry {
            time: order_bits(time),
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if entry.key() < self.last {
            self.rebase(entry.key());
        }
        self.insert(entry);
    }

    /// Removes and returns the earliest event unless its time is at or
    /// after `t_end`.
    pub(crate) fn pop_before(&mut self, t_end: f64) -> Option<(f64, E)> {
        // Peek before settling: settling moves `last` up to the minimum,
        // and a shard coordinator still pushes events at the boundary
        // `t_end` once this returns, which would then re-base the queue.
        let min = match &self.head {
            Some(head) => head.key(),
            None if self.mask == 0 => return None,
            None => self.mins[self.mask.trailing_zeros() as usize],
        };
        let time = from_order_bits((min >> 64) as u64);
        if time >= t_end {
            return None;
        }
        if self.head.is_none() {
            self.settle();
        }
        let head = self.head.take().expect("the minimum settled into bucket 0");
        Some((time, head.event))
    }

    /// Removes every event `pred` selects and returns them earliest
    /// first. The others keep their keys, and so their order.
    pub(crate) fn extract(&mut self, mut pred: impl FnMut(&E) -> bool) -> Vec<(f64, E)> {
        let mut taken = Vec::new();
        if self.head.as_ref().is_some_and(|head| pred(&head.event)) {
            taken.extend(self.head.take());
        }
        for i in set_bits(self.mask) {
            let bucket = &mut self.buckets[i];
            let before = taken.len();
            taken.extend(bucket.extract_if(.., |entry| pred(&entry.event)));
            if taken.len() == before {
                continue;
            }
            if bucket.is_empty() {
                *bucket = Vec::new();
                self.mask &= !(1 << i);
            } else {
                bucket.shrink_to(2 * bucket.len());
                self.mins[i] = bucket.iter().map(Entry::key).min().expect("non-empty");
            }
        }
        taken.sort_unstable_by_key(Entry::key);
        taken
            .into_iter()
            .map(|entry| (from_order_bits(entry.time), entry.event))
            .collect()
    }

    /// Every queued event with its time and sequence number, in no
    /// particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (f64, u64, &E)> {
        self.head
            .iter()
            .chain(self.buckets.iter().flatten())
            .map(|entry| (from_order_bits(entry.time), entry.seq, &entry.event))
    }

    pub(crate) fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_none() && self.mask == 0
    }

    /// Entries the buckets have room for: at most twice the live count.
    /// Only the queue's property test reads it.
    #[allow(dead_code)]
    pub(crate) fn capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum()
    }

    /// Files `entry` under its bucket relative to `last`.
    fn insert(&mut self, entry: Entry<E>) {
        let key = entry.key();
        let diff = key ^ self.last;
        if diff == 0 {
            self.head = Some(entry);
            return;
        }
        let i = high_bit(diff);
        let bucket = &mut self.buckets[i];
        if bucket.is_empty() || key < self.mins[i] {
            self.mins[i] = key;
        }
        self.mask |= 1 << i;
        if bucket.len() == bucket.capacity() {
            bucket.reserve_exact(bucket.len().max(1));
        }
        bucket.push(entry);
    }

    /// Moves the minimum of the lowest non-empty bucket into bucket 0 and
    /// the rest of that bucket into lower buckets. `head` must be empty.
    fn settle(&mut self) {
        let i = self.mask.trailing_zeros() as usize;
        self.mask &= !(1 << i);
        self.last = self.mins[i];
        let drained = std::mem::take(&mut self.buckets[i]);
        // Every entry but the minimum lands strictly below bucket `i`,
        // where every bucket is empty: count first, so each target is
        // allocated once and exactly.
        let mut counts = [0usize; 128];
        let mut targets = 0u128;
        for entry in &drained {
            let diff = entry.key() ^ self.last;
            if diff != 0 {
                let j = high_bit(diff);
                counts[j] += 1;
                targets |= 1 << j;
            }
        }
        for j in set_bits(targets) {
            self.buckets[j].reserve_exact(counts[j]);
        }
        for entry in drained {
            self.insert(entry);
        }
    }

    /// Makes `key`, which is below `last`, the new `last`, re-bucketing
    /// every entry against it.
    fn rebase(&mut self, key: u128) {
        self.last = key;
        self.mask = 0;
        let head = self.head.take();
        let buckets = std::mem::replace(&mut self.buckets, std::array::from_fn(|_| Vec::new()));
        for entry in head.into_iter().chain(buckets.into_iter().flatten()) {
            self.insert(entry);
        }
    }
}

/// Entries a [`StreamQueue`] holds in place before it spills to the heap:
/// a stream's next arrival plus its job's slice-done, switch-done and
/// job-done events.
const INLINE: usize = 4;

/// One stream's pending events, earliest first, push order on ties.
///
/// The first [`INLINE`] entries live in the list itself and only the rest
/// on the heap. So a scan over a shard's lists reads whether each has an
/// event due without following a pointer, and the lists of a shard are
/// one allocation, not one per stream.
#[derive(Clone)]
pub(crate) struct StreamQueue<E> {
    /// The first entries in pop order, `(order_bits(time), event)`, the
    /// occupied ones first.
    inline: [Option<(u64, E)>; INLINE],
    /// The entries after the inline ones, in pop order. Empty unless
    /// every inline entry is occupied.
    spill: Vec<(u64, E)>,
}

impl<E> Default for StreamQueue<E> {
    fn default() -> StreamQueue<E> {
        StreamQueue {
            inline: std::array::from_fn(|_| None),
            spill: Vec::new(),
        }
    }
}

impl<E> StreamQueue<E> {
    /// Schedules `event` at `time`, after every event already queued at
    /// the same time.
    pub(crate) fn push(&mut self, time: f64, event: E) {
        let key = order_bits(time);
        let held = self.inline.iter().take_while(|e| e.is_some()).count();
        let at =
            self.inline[..held].partition_point(|e| e.as_ref().is_some_and(|(k, _)| *k <= key));
        if at == INLINE {
            let at = self.spill.partition_point(|(k, _)| *k <= key);
            self.spill.insert(at, (key, event));
            return;
        }
        if held == INLINE {
            let last = self.inline[INLINE - 1]
                .take()
                .expect("every inline entry is held");
            self.spill.insert(0, last);
        }
        // `free` is empty now: fill it and rotate the entry back to `at`.
        let free = held.min(INLINE - 1);
        self.inline[free] = Some((key, event));
        self.inline[at..=free].rotate_right(1);
    }

    /// Removes and returns the first event unless its time is at or
    /// after `t_end`, the test [`EventQueue::pop_before`] applies.
    pub(crate) fn pop_before(&mut self, t_end: f64) -> Option<(f64, E)> {
        let time = from_order_bits(self.inline[0].as_ref()?.0);
        if time >= t_end {
            return None;
        }
        let (_, event) = self.inline[0].take().expect("checked above");
        self.inline.rotate_left(1);
        if !self.spill.is_empty() {
            self.inline[INLINE - 1] = Some(self.spill.remove(0));
        }
        Some((time, event))
    }

    /// The queued events with their times, in pop order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (f64, &E)> {
        self.inline
            .iter()
            .map_while(Option::as_ref)
            .chain(&self.spill)
            .map(|(key, event)| (from_order_bits(*key), event))
    }

    /// Consumes the list, yielding its events with their times in pop
    /// order.
    pub(crate) fn into_events(self) -> impl Iterator<Item = (f64, E)> {
        self.inline
            .into_iter()
            .flatten()
            .chain(self.spill)
            .map(|(key, event)| (from_order_bits(key), event))
    }

    pub(crate) fn len(&self) -> usize {
        self.inline.iter().take_while(|e| e.is_some()).count() + self.spill.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.inline[0].is_none()
    }
}

impl<E> FromIterator<(f64, E)> for StreamQueue<E> {
    /// Pushes each `(time, event)` in turn.
    fn from_iter<I: IntoIterator<Item = (f64, E)>>(iter: I) -> StreamQueue<E> {
        let mut queue = StreamQueue::default();
        for (time, event) in iter {
            queue.push(time, event);
        }
        queue
    }
}
