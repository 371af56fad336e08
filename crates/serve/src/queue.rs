//! The serve engine's event store.
//!
//! [`StreamQueue`] holds one stream's pending events, earliest time first
//! under `f64::total_cmp`, push order on ties. [`order_bits`] maps an
//! `f64` to a `u64` whose integer order is `f64::total_cmp`'s, so the
//! list compares integer keys.
//!
//! Every engine keeps one list per stream slot. Each arrival schedules
//! only its successor, so a stream's pending set is a handful of events:
//! the list keeps its first four in place, sorted, and spills the rest
//! to the heap. A push below the first entry simply becomes the first
//! entry, so the list needs no monotone contract.
//!
//! The lists are also what a time-major engine orders its streams by:
//! [`StreamQueue::first_key`] is the [`order_bits`] of a list's first
//! event, and the engine keeps the slots in a binary heap on
//! `(first_key, slot)`.

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
pub(crate) fn from_order_bits(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
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
    /// after `t_end`. A NaN time is never at or after anything, so it
    /// pops whatever `t_end` is.
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

    /// The [`order_bits`] of the first event's time, which orders lists
    /// by their first event as `f64::total_cmp` orders the times.
    pub(crate) fn first_key(&self) -> Option<u64> {
        self.inline[0].as_ref().map(|(key, _)| *key)
    }

    /// The queued events with their times, in pop order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (f64, &E)> {
        self.inline
            .iter()
            .map_while(Option::as_ref)
            .chain(&self.spill)
            .map(|(key, event)| (from_order_bits(*key), event))
    }

    pub(crate) fn len(&self) -> usize {
        self.inline.iter().take_while(|e| e.is_some()).count() + self.spill.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.inline[0].is_none()
    }
}
