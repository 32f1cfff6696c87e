//! `des` — the unified discrete-event kernel every simulated clock in the
//! workspace runs on.
//!
//! Three kinds of clock share this one kernel: [`crate::Sim`]'s analytic
//! busy-until stream/engine clocks, the event-driven [`crate::Network`]
//! NIC-injection fronts, and the scheduler loop of `icoe::cluster`:
//!
//! * [`EventKey`] — the total order every pending event obeys: ascending
//!   simulated `time` under [`f64::total_cmp`], ties broken by insertion
//!   `seq`. NaN times are normalised to *positive* NaN on push, so a
//!   corrupt timestamp deterministically sorts **last** (after `+inf`)
//!   instead of poisoning the order or panicking a comparator.
//! * [`EventQueue`] — a radix-bucketed calendar queue over arena-allocated
//!   event records: the head bucket is kept sorted, so `peek`/`pop` read
//!   its back in O(1); exact `(time, seq)` pop order (the conformance bar
//!   for every golden document); and adaptive bucket narrowing when a
//!   burst of events lands inside one epoch.
//! * [`EventKernel`] — an [`EventQueue`] plus the monotone `now` clock the
//!   simulators read; `pop` never moves `now` backwards.
//! * [`TrackBank`] / [`TrackSet`] — dense structure-of-arrays busy-until
//!   clocks (`Vec<f64>` indexed by a `u32` [`TrackId`]), replacing the
//!   per-call `HashMap<_, f64>` lookups with the PR-5 intern-once
//!   discipline: resolve a key to a [`TrackId`] once, then every advance
//!   is an array store.
//!
//! The clock contract (see DESIGN.md "One clock"):
//!
//! * event times are **absolute** simulated seconds — producers compute
//!   `end = start + dt` once and schedule the end, rather than drifting a
//!   relative accumulator;
//! * simultaneous events fire in insertion order (`seq`);
//! * `reset` zeroes clocks but keeps interned track ids and queue
//!   capacity, so measurement loops do not churn the allocator.

use std::cmp::{Ordering, Reverse};
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::Hash;

/// Order two floats *descending* with NaN sorted last.
///
/// A plain `b.total_cmp(&a)` would do the opposite: IEEE total order
/// ranks positive NaN above `+inf`, so a corrupted value would win every
/// descending sort (the bug class PR 7 scrubbed from the scheduler's
/// speed orderings). Every descending float sort in the observability
/// layer routes through this instead.
pub fn desc_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

// --------------------------------------------------------------- EventKey

/// The total order on pending events: ascending `time` under
/// [`f64::total_cmp`], ties broken by ascending insertion `seq`.
///
/// [`EventQueue::push`] normalises NaN times to positive NaN, under which
/// `total_cmp` alone yields NaN-last semantics (positive NaN outranks
/// `+inf` in the IEEE total order).
#[derive(Debug, Clone, Copy)]
pub struct EventKey {
    /// Absolute simulated time, seconds.
    pub time: f64,
    /// Insertion sequence number, unique per queue.
    pub seq: u64,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for EventKey {}
impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

// -------------------------------------------------------------- EventQueue

/// A bucket grown past this many records triggers a width-narrowing
/// rebuild (when the times inside it actually span a nonzero interval).
const MAX_BUCKET: usize = 64;

/// Retired buckets up to this capacity go back to the spare pool; larger
/// ones (a big simultaneous batch grew them) are freed. The pool hands
/// buckets out in rotation, so without the bound every spare vector in
/// turn would grow to the largest batch and stay there.
const SPARE_CAPACITY: usize = 2 * MAX_BUCKET;

/// Fibonacci (multiplicative) hasher for the `i64` epoch keys: a single
/// 64-bit multiply by the golden-ratio constant. Calendar epochs are
/// small, near-sequential integers chosen by the queue itself, so
/// SipHash's flooding resistance buys nothing here while costing a
/// measurable slice of every push/peek at million-event scale.
#[derive(Debug, Default, Clone)]
pub struct EpochHasher(u64);

impl std::hash::Hasher for EpochHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.0 = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits; the table
        // indexes by the low bits, so rotate them into place.
        self.0.rotate_left(32)
    }
}

type EpochMap<V> = HashMap<i64, V, std::hash::BuildHasherDefault<EpochHasher>>;

/// One calendar bucket: `(key, slot)` records of one epoch. A `Vec`,
/// not the head's `VecDeque`, keeps the epoch map's entries small: at
/// fleet scale the map holds thousands of epochs.
type Bucket = Vec<(EventKey, u32)>;

/// Radix-bucketed calendar queue with exact `(time, seq)` pop order.
///
/// Events live in an arena (`slots` + free list); the calendar buckets
/// hold `(key, slot)` pairs radixed by `floor(time / width)`. The bucket
/// of the earliest occupied epoch — the *head* — is held apart and kept
/// sorted descending by [`EventKey`], so the minimum sits at its back and
/// `peek`/`pop` are O(1). Later buckets are unsorted; a bucket is sorted
/// once, when it becomes the head, and a push into the head is
/// binary-inserted. A min-heap over the later epochs finds the next head
/// even when the timeline is sparse, and an adaptive rebuild narrows
/// `width` whenever a burst of distinct times piles into one epoch,
/// keeping each sort short.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Arena of event payloads; `free` recycles slots so a steady-state
    /// push/pop loop allocates nothing.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    /// Records of epoch `head_epoch`, sorted descending by key. Empty
    /// exactly when the queue is.
    head: VecDeque<(EventKey, u32)>,
    head_epoch: i64,
    /// Calendar: every epoch after `head_epoch` -> unsorted records.
    buckets: EpochMap<Bucket>,
    /// Retired bucket vectors, capacity kept warm. An epoch emptying and
    /// a later epoch opening is the *steady state* of a calendar queue —
    /// without this pool every epoch transition paid a buffer free/alloc
    /// pair, the last per-event allocation in the cluster serving loop.
    /// Only buckets of at most `SPARE_CAPACITY` records are kept, so the
    /// pool's memory stays bounded however often a large batch recurs.
    spare: Vec<Bucket>,
    /// Min-heap over the epochs of `buckets`, one entry per bucket: an
    /// epoch is pushed when its bucket enters the calendar and popped
    /// when that bucket becomes the head. The backing `Vec` keeps its
    /// capacity, so the steady state allocates nothing.
    epochs: BinaryHeap<Reverse<i64>>,
    /// Seconds per calendar bucket.
    width: f64,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> EventQueue<E> {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            head: VecDeque::new(),
            head_epoch: 0,
            buckets: EpochMap::default(),
            spare: Vec::new(),
            epochs: BinaryHeap::new(),
            width: 1.0,
            len: 0,
            next_seq: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Epoch a time radixes into. NaN (and anything saturating the cast)
    /// lands in a terminal epoch; the in-bucket key order restores the
    /// exact order there.
    fn epoch_of(&self, time: f64) -> i64 {
        if time.is_nan() {
            i64::MAX
        } else {
            (time / self.width).floor() as i64
        }
    }

    /// Schedule `ev` at absolute `time`; returns the assigned key.
    /// NaN times are normalised to positive NaN (sorts last).
    pub fn push(&mut self, time: f64, ev: E) -> EventKey {
        let time = if time.is_nan() { f64::NAN } else { time };
        let key = EventKey {
            time,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(ev);
                i
            }
            None => {
                self.slots.push(Some(ev));
                (self.slots.len() - 1) as u32
            }
        };
        self.len += 1;
        let epoch = self.epoch_of(time);
        if self.head.is_empty() {
            self.head_epoch = epoch;
        }
        let n = match epoch.cmp(&self.head_epoch) {
            Ordering::Equal => {
                // `key` has the largest `seq` yet, so it lands before
                // (pops after) every equal-time record — at the front
                // outright for a simultaneous batch or a later time.
                if self.head.front().is_none_or(|&(k, _)| key > k) {
                    self.head.push_front((key, slot));
                } else {
                    let at = self.head.partition_point(|&(k, _)| k > key);
                    self.head.insert(at, (key, slot));
                }
                self.head.len()
            }
            Ordering::Less => {
                // A new earliest epoch: the old head, still sorted,
                // rejoins the calendar.
                let fresh = VecDeque::from(self.spare.pop().unwrap_or_default());
                let old = std::mem::replace(&mut self.head, fresh);
                self.epochs.push(Reverse(self.head_epoch));
                self.buckets.insert(self.head_epoch, Vec::from(old));
                self.head_epoch = epoch;
                self.head.push_back((key, slot));
                1
            }
            Ordering::Greater => self.file(epoch, (key, slot)),
        };
        if n > MAX_BUCKET && n.is_power_of_two() {
            self.maybe_narrow(epoch);
        }
        key
    }

    /// Append a record to the calendar bucket of `epoch` (after the
    /// head), opening it if needed; returns the bucket's length.
    fn file(&mut self, epoch: i64, rec: (EventKey, u32)) -> usize {
        let bucket = match self.buckets.entry(epoch) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                self.epochs.push(Reverse(epoch));
                v.insert(self.spare.pop().unwrap_or_default())
            }
        };
        bucket.push(rec);
        bucket.len()
    }

    /// Make the earliest calendar bucket the head, sorting it once, or
    /// a spare one when the calendar is empty. The head must be empty.
    fn promote(&mut self) {
        debug_assert!(self.head.is_empty());
        let next = match self.epochs.pop() {
            Some(Reverse(epoch)) => {
                let mut bucket = self
                    .buckets
                    .remove(&epoch)
                    .expect("one heap entry per bucket");
                // Keys are unique (`seq`): the unstable sort is exact.
                bucket.sort_unstable_by_key(|&(key, _)| Reverse(key));
                self.head_epoch = epoch;
                bucket
            }
            None => self.spare.pop().unwrap_or_default(),
        };
        let emptied = std::mem::replace(&mut self.head, VecDeque::from(next));
        retire(&mut self.spare, Vec::from(emptied));
    }

    /// Narrow `width` so the overfull bucket's time span spreads over
    /// ~8 epochs, then rebuild the calendar. A span of zero (all records
    /// simultaneous) cannot be split; the batch then pops from the
    /// sorted head in O(1) each anyway.
    fn maybe_narrow(&mut self, epoch: i64) {
        let width = if epoch == self.head_epoch {
            finite_span(&self.head) / 8.0
        } else {
            finite_span(&self.buckets[&epoch]) / 8.0
        };
        // Only ever narrow: a saturated terminal epoch can span more.
        if !(width > f64::MIN_POSITIVE && width < self.width) {
            return;
        }
        self.width = width;
        let mut head = std::mem::take(&mut self.head);
        let calendar = std::mem::take(&mut self.buckets);
        self.epochs.clear();
        // The head re-files back to front, in ascending key order: the
        // order appends make, which the sort on promotion takes in O(n).
        while let Some((key, slot)) = head.pop_back() {
            self.file(self.epoch_of(key.time), (key, slot));
        }
        retire(&mut self.spare, Vec::from(head));
        for (_, mut bucket) in calendar {
            for (key, slot) in bucket.drain(..) {
                self.file(self.epoch_of(key.time), (key, slot));
            }
            retire(&mut self.spare, bucket);
        }
        self.promote();
    }

    /// The earliest pending event, without removing it.
    pub fn peek(&self) -> Option<(EventKey, &E)> {
        let &(key, slot) = self.head.back()?;
        Some((key, self.slots[slot as usize].as_ref().expect("live slot")))
    }

    /// Key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.head.back().map(|&(k, _)| k)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let (key, slot) = self.head.pop_back()?;
        if self.head.is_empty() {
            self.promote();
        }
        let ev = self.slots[slot as usize].take().expect("live slot");
        self.free.push(slot);
        self.len -= 1;
        Some((key, ev))
    }

    /// Drop every pending event, keeping arena and bucket capacity (and
    /// the monotone `seq` counter — keys stay unique across a reset).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.free.clear();
        self.free.extend(0..self.slots.len() as u32);
        self.head.clear();
        for (_, mut b) in self.buckets.drain() {
            b.clear();
            retire(&mut self.spare, b);
        }
        self.epochs.clear();
        self.len = 0;
        self.promote(); // swaps in a spare, retiring the head's buffer
    }
}

/// Spread of the finite times among `records` (negative when none).
fn finite_span<'a>(records: impl IntoIterator<Item = &'a (EventKey, u32)>) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (k, _) in records {
        if k.time.is_finite() {
            lo = lo.min(k.time);
            hi = hi.max(k.time);
        }
    }
    hi - lo
}

/// Return an emptied bucket to the spare pool, unless a large batch grew
/// it past `SPARE_CAPACITY`.
fn retire(spare: &mut Vec<Bucket>, bucket: Bucket) {
    debug_assert!(bucket.is_empty());
    if bucket.capacity() <= SPARE_CAPACITY {
        spare.push(bucket);
    }
}

// ------------------------------------------------------------- EventKernel

/// An [`EventQueue`] plus the monotone simulated clock the simulators
/// read. `pop` advances `now` to the popped event's time and never moves
/// it backwards (a late-pushed past event fires "now", it does not rewind
/// history).
#[derive(Debug, Clone, Default)]
pub struct EventKernel<E> {
    queue: EventQueue<E>,
    now: f64,
}

impl<E> EventKernel<E> {
    pub fn new() -> EventKernel<E> {
        EventKernel {
            queue: EventQueue::new(),
            now: 0.0,
        }
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `ev` at absolute `time`.
    pub fn schedule(&mut self, time: f64, ev: E) -> EventKey {
        self.queue.push(time, ev)
    }

    /// Schedule `ev` at `now + dt`.
    pub fn schedule_in(&mut self, dt: f64, ev: E) -> EventKey {
        self.queue.push(self.now + dt, ev)
    }

    /// Pop the earliest event, advancing `now` monotonically.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let (key, ev) = self.queue.pop()?;
        if key.time > self.now {
            self.now = key.time;
        }
        Some((key, ev))
    }

    /// The earliest pending event, without removing it.
    pub fn peek(&self) -> Option<(EventKey, &E)> {
        self.queue.peek()
    }

    /// Key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.queue.peek_key()
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drop pending events and rewind `now` to zero, keeping capacity.
    pub fn reset(&mut self) {
        self.queue.clear();
        self.now = 0.0;
    }
}

// ---------------------------------------------------------------- TrackBank

/// Dense structure-of-arrays busy-until clocks, indexed by rank / track
/// number. This is the storage behind every per-resource timeline: `Sim`
/// streams and copy engines, `Network` NIC-injection fronts, and the
/// per-rank state of the million-rank throughput bench.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackBank {
    busy: Vec<f64>,
}

impl TrackBank {
    pub fn new() -> TrackBank {
        TrackBank::default()
    }

    /// Grow to at least `n` tracks (new tracks start at t = 0).
    pub fn ensure(&mut self, n: usize) {
        if self.busy.len() < n {
            self.busy.resize(n, 0.0);
        }
    }

    pub fn len(&self) -> usize {
        self.busy.len()
    }

    pub fn is_empty(&self) -> bool {
        self.busy.is_empty()
    }

    /// Busy-until time of track `i` (0.0 for a never-touched track).
    pub fn time(&self, i: usize) -> f64 {
        self.busy.get(i).copied().unwrap_or(0.0)
    }

    /// Set track `i`'s busy-until time (absolute), growing as needed.
    pub fn set(&mut self, i: usize, t: f64) {
        self.ensure(i + 1);
        self.busy[i] = t;
    }

    /// Latest busy-until time across all tracks (0.0 when idle/empty) —
    /// the bank's wall clock. `f64::max` folds ignore NaN, so one corrupt
    /// track cannot poison the frontier.
    pub fn frontier(&self) -> f64 {
        self.busy.iter().copied().fold(0.0, f64::max)
    }

    /// Earliest busy-until time across all tracks (`+inf` when empty).
    pub fn min_front(&self) -> f64 {
        self.busy.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Join every track at `t` (a barrier: collectives, device sync).
    pub fn join_all(&mut self, t: f64) {
        for v in &mut self.busy {
            *v = t;
        }
    }

    /// Zero every clock, keeping the track count and capacity.
    pub fn reset_times(&mut self) {
        for v in &mut self.busy {
            *v = 0.0;
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.busy.iter().copied()
    }
}

// ----------------------------------------------------------------- TrackSet

/// Handle to one registered track of a [`TrackSet`] (an index into its
/// [`TrackBank`]): resolve a key once, then advance by array store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(pub u32);

/// A [`TrackBank`] with a key index: the PR-5 intern-once discipline
/// applied to clocks. `track(key)` interns the key into a dense
/// [`TrackId`] on first sight; every later touch is a vector access, so
/// hot paths pay no hashing after warm-up when they cache the id.
#[derive(Debug, Clone, Default)]
pub struct TrackSet<K> {
    bank: TrackBank,
    ids: HashMap<K, TrackId>,
}

impl<K: Eq + Hash + Clone> TrackSet<K> {
    pub fn new() -> TrackSet<K> {
        TrackSet {
            bank: TrackBank::new(),
            ids: HashMap::new(),
        }
    }

    /// Intern `key`, registering a zeroed track on first sight.
    pub fn track(&mut self, key: K) -> TrackId {
        match self.ids.get(&key) {
            Some(&id) => id,
            None => {
                let id = TrackId(self.bank.len() as u32);
                self.bank.ensure(self.bank.len() + 1);
                self.ids.insert(key, id);
                id
            }
        }
    }

    /// The id `key` interned to, if it ever has.
    pub fn get(&self, key: &K) -> Option<TrackId> {
        self.ids.get(key).copied()
    }

    /// Busy-until time of `key`'s track (0.0 for an unregistered key).
    pub fn time_of(&self, key: &K) -> f64 {
        match self.ids.get(key) {
            Some(&TrackId(i)) => self.bank.time(i as usize),
            None => 0.0,
        }
    }

    /// Busy-until time of a registered track.
    pub fn time(&self, id: TrackId) -> f64 {
        self.bank.time(id.0 as usize)
    }

    /// Set a registered track's busy-until time (absolute).
    pub fn set(&mut self, id: TrackId, t: f64) {
        self.bank.set(id.0 as usize, t);
    }

    /// Latest busy-until time across every registered track.
    pub fn frontier(&self) -> f64 {
        self.bank.frontier()
    }

    /// Join every registered track at `t`.
    pub fn join_all(&mut self, t: f64) {
        self.bank.join_all(t);
    }

    /// Zero every clock, keeping the interned ids (reset discipline: a
    /// measurement loop re-running the same workload re-resolves nothing).
    pub fn reset_times(&mut self) {
        self.bank.reset_times();
    }

    pub fn len(&self) -> usize {
        self.bank.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bank.is_empty()
    }

    pub fn bank(&self) -> &TrackBank {
        &self.bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a1");
        q.push(2.0, "b");
        q.push(1.0, "a2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a1", "a2", "b", "c"]);
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nan_times_sort_last_not_first() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, "nan1");
        q.push(f64::INFINITY, "inf");
        q.push(0.0, "zero");
        q.push(-f64::NAN, "nan2"); // negative NaN is normalised positive
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["zero", "inf", "nan1", "nan2"]);
    }

    #[test]
    fn interleaved_push_pop_with_past_events() {
        let mut q = EventQueue::new();
        q.push(10.0, 10);
        q.push(20.0, 20);
        assert_eq!(q.pop().map(|(k, e)| (k.time, e)), Some((10.0, 10)));
        // An event scheduled before the last pop must still come first.
        q.push(5.0, 5);
        assert_eq!(q.pop().map(|(_, e)| e), Some(5));
        assert_eq!(q.pop().map(|(_, e)| e), Some(20));
        assert!(q.pop().is_none());
    }

    #[test]
    fn dense_burst_triggers_narrowing_and_keeps_order() {
        let mut q = EventQueue::new();
        // 1000 events inside [0, 1e-3): all land in epoch 0 at the
        // default width, forcing the adaptive rebuild.
        let times: Vec<f64> = (0..1000).map(|i| (i * 7 % 1000) as f64 * 1e-6).collect();
        for &t in &times {
            q.push(t, t);
        }
        assert!(q.width < 1.0, "width narrowed from the default");
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let popped: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            for i in 0..100 {
                q.push(i as f64, (round, i));
            }
            while q.pop().is_some() {}
        }
        assert!(q.slots.len() <= 100, "arena stayed at peak occupancy");
    }

    #[test]
    fn spare_pool_stays_bounded_across_large_batches() {
        // Each round opens a spread of small epochs plus one simultaneous
        // batch far larger than `SPARE_CAPACITY`, then empties the queue
        // (by popping, or by `clear`). The pool hands buckets out in
        // rotation, so a pool keeping every retired bucket would let the
        // batch grow a different spare vector each round.
        let mut q = EventQueue::new();
        let retained = |q: &EventQueue<u32>| q.spare.iter().map(Bucket::capacity).sum::<usize>();
        let mut after_first = None;
        for round in 0..40u32 {
            for i in 0..300 {
                q.push(f64::from(i), i);
            }
            for i in 0..1000 {
                q.push(300.0, i);
            }
            if round % 2 == 0 {
                while q.pop().is_some() {}
            } else {
                q.clear();
            }
            assert!(q.spare.iter().all(|b| b.capacity() <= SPARE_CAPACITY));
            let now = retained(&q);
            let first = *after_first.get_or_insert(now);
            assert!(
                now <= first,
                "round {round}: spare pool retains {now} records, {first} after round 0"
            );
        }
    }

    #[test]
    fn clear_keeps_capacity_and_seq_monotone() {
        let mut q = EventQueue::new();
        let k1 = q.push(1.0, ());
        q.clear();
        assert!(q.is_empty());
        let k2 = q.push(1.0, ());
        assert!(k2.seq > k1.seq, "seq stays unique across clear");
    }

    #[test]
    fn kernel_now_is_monotone() {
        let mut k = EventKernel::new();
        k.schedule(2.0, "b");
        k.schedule(1.0, "a");
        k.pop();
        assert_eq!(k.now(), 1.0);
        k.pop();
        assert_eq!(k.now(), 2.0);
        // A past event fires without rewinding the clock.
        k.schedule(0.5, "late");
        k.pop();
        assert_eq!(k.now(), 2.0);
    }

    #[test]
    fn track_bank_frontier_and_joins() {
        let mut b = TrackBank::new();
        assert_eq!(b.frontier(), 0.0);
        assert_eq!(b.min_front(), f64::INFINITY);
        b.set(2, 5.0);
        assert_eq!(b.len(), 3);
        assert_eq!(b.time(0), 0.0);
        assert_eq!(b.time(9), 0.0, "out of range reads as idle");
        assert_eq!(b.frontier(), 5.0);
        assert_eq!(b.min_front(), 0.0);
        b.join_all(7.0);
        assert_eq!(b.time(0), 7.0);
        b.reset_times();
        assert_eq!(b.frontier(), 0.0);
        assert_eq!(b.len(), 3, "reset keeps the track count");
    }

    #[test]
    fn track_bank_frontier_ignores_nan() {
        let mut b = TrackBank::new();
        b.set(0, f64::NAN);
        b.set(1, 3.0);
        assert_eq!(b.frontier(), 3.0);
    }

    #[test]
    fn track_set_interns_once() {
        let mut s: TrackSet<&str> = TrackSet::new();
        let a = s.track("gpu0.s0");
        let a2 = s.track("gpu0.s0");
        let b = s.track("gpu0.h2d");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(s.time_of(&"gpu0.s0"), 0.0);
        s.set(a, 4.0);
        assert_eq!(s.time_of(&"gpu0.s0"), 4.0);
        assert_eq!(s.time_of(&"never"), 0.0);
        assert_eq!(s.frontier(), 4.0);
        s.reset_times();
        assert_eq!(s.time(a), 0.0);
        assert_eq!(s.get(&"gpu0.s0"), Some(a), "reset keeps interned ids");
    }

    #[test]
    fn desc_nan_last_orders_descending_with_nan_last() {
        let mut v = [1.0, f64::NAN, 3.0, f64::NEG_INFINITY, 2.0];
        v.sort_by(|a, b| desc_nan_last(*a, *b));
        assert_eq!(v[0], 3.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v[2], 1.0);
        assert_eq!(v[3], f64::NEG_INFINITY);
        assert!(v[4].is_nan());
    }
}
