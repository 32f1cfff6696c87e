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
//! * [`EventQueue`] — a ring calendar of epoch buckets whose records carry
//!   their payloads inline: an occupancy bitmap finds the next bucket, the
//!   head bucket is kept sorted, so `peek`/`pop` read its back in O(1);
//!   exact `(time, seq)` pop order (the conformance bar for every golden
//!   document); and adaptive bucket narrowing when a burst of events lands
//!   inside one epoch.
//! * [`EventKernel`] — an [`EventQueue`] plus the monotone `now` clock the
//!   simulators read; `pop` never moves `now` backwards.
//! * [`TrackBank`] — dense structure-of-arrays busy-until clocks (a
//!   `Vec<f64>` indexed by track number). A user keyed by resource
//!   interns each key to a track number once (as [`crate::Sim`] does for
//!   its streams and copy engines), so every later advance is an array
//!   store.
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
use std::collections::VecDeque;

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

/// A head that has taken this many binary insertions (and again at each
/// doubling) tries a width-narrowing rebuild, when the times inside it
/// actually differ: records landing mid-head cost a shift each.
const MAX_INSERTS: usize = 64;

/// Narrowing aims at this many distinct times per epoch, and a promoted
/// bucket of twice as many narrows again, so buckets settle between the
/// two and ordering one when it becomes the head costs a few compares per
/// record.
const TARGET_BUCKET: usize = 4;

/// A promoted bucket of at most this many records is ordered by rank
/// (see [`fill_head`]); a larger one is sorted.
const RANKED_BUCKET: usize = 2 * TARGET_BUCKET;

/// Ring slots before the first growth: one word of the occupancy bitmap.
const MIN_RING: usize = 64;

/// A drained ring bucket keeps its buffer up to this capacity; a larger
/// one (a big simultaneous batch grew it) is freed. Buckets stay in their
/// slots, so without the bound every slot a recurring batch visits would
/// keep the batch's capacity.
const KEPT_CAPACITY: usize = 128;

/// One pending event: its key and its payload, stored together.
type Record<E> = (EventKey, E);

/// Ring calendar queue with exact `(time, seq)` pop order.
///
/// Records hold their payloads inline and are radixed into epochs
/// `floor(time / width)`. The bucket of the earliest epoch — the *head* —
/// is held apart and kept sorted descending by [`EventKey`], so the
/// minimum sits at its back and `peek`/`pop` are O(1). Later epochs inside
/// a window `[base, base + ring.len())` live unsorted in a power-of-two
/// ring of buckets, slot `epoch & (ring.len() - 1)`, and a `u64` bitmap
/// over the slots finds the next occupied one with `trailing_zeros`.
/// Epochs past the window wait, unsorted, in one overflow vector that is
/// re-filed when the window drains; a window that must slide back past its
/// latest buckets spills them there too. A bucket is ordered once, when it
/// becomes the head (ranked when small, see [`fill_head`]; sorted when
/// not); a push into the head is binary-inserted, which keeps
/// the order exact, and a push before it sends it back to the ring. The
/// ring grows toward the span of pending epochs, to at most one slot per
/// pending event. An adaptive rebuild narrows `width` (never widens it)
/// when a head takes many insertions mid-head, or when a promoted bucket
/// holds many distinct times while the calendar is dense, keeping each
/// bucket small.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The records of epoch `head_epoch`, sorted descending by key. Empty
    /// exactly when the queue is.
    head: VecDeque<Record<E>>,
    head_epoch: i64,
    /// Binary insertions into the head since it was formed.
    head_inserts: usize,
    /// Calendar ring: each occupied slot holds the records of one epoch of
    /// the window, every one of them after `head_epoch`. Buckets keep
    /// their buffers (up to `KEPT_CAPACITY`), so the steady state
    /// allocates nothing.
    ring: Vec<Vec<Record<E>>>,
    /// One bit per ring slot, set exactly when the slot holds records.
    occupied: Vec<u64>,
    /// First epoch of the window.
    base: i64,
    /// Records in the ring, and an upper bound on their epochs (`i64::MIN`
    /// while the ring is empty).
    ring_count: usize,
    top: i64,
    /// Records of epochs at or past the window's end (even while the ring
    /// is empty), unsorted, and their least epoch (`i128::MAX` when there
    /// are none).
    overflow: Vec<Record<E>>,
    overflow_min: i128,
    /// Seconds per epoch, and its reciprocal.
    width: f64,
    inv_width: f64,
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
            head: VecDeque::new(),
            head_epoch: 0,
            head_inserts: 0,
            ring: Vec::new(),
            occupied: Vec::new(),
            base: 0,
            ring_count: 0,
            top: i64::MIN,
            overflow: Vec::new(),
            overflow_min: i128::MAX,
            width: 1.0,
            inv_width: 1.0,
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
}

/// Promotion fills the head with clones of a small bucket's records (see
/// [`fill_head`]); for the `Copy` payloads every simulator schedules, a
/// clone is that copy.
impl<E: Clone> EventQueue<E> {
    /// Epoch a time radixes into: monotone in time. NaN (and anything
    /// saturating the cast, ±∞ included) lands in a terminal epoch; the
    /// in-bucket key order restores the exact order there.
    fn epoch_of(&self, time: f64) -> i64 {
        if time.is_nan() {
            i64::MAX
        } else {
            // `floor` without the libm call: the saturating cast truncates,
            // then a negative fraction steps down one.
            let x = time * self.inv_width;
            let t = x as i64;
            if (t as f64) > x {
                t.saturating_sub(1)
            } else {
                t
            }
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
        self.len += 1;
        let epoch = self.epoch_of(time);
        if self.len == 1 {
            self.head_epoch = epoch;
            self.head_inserts = 0;
            self.head.push_back((key, ev));
            return key;
        }
        match epoch.cmp(&self.head_epoch) {
            Ordering::Equal => self.insert_head((key, ev)),
            // Inside the window: straight into its bucket, the branch in
            // which `admit` moves nothing, without its window arithmetic.
            // (`epoch >= base`, so the wrapped difference is exact.)
            Ordering::Greater
                if epoch >= self.base
                    && (epoch.wrapping_sub(self.base) as u64) < self.ring.len() as u64 =>
            {
                let slot = epoch as usize & (self.ring.len() - 1);
                self.put(slot, epoch, (key, ev));
            }
            Ordering::Greater => self.file(epoch, (key, ev)),
            Ordering::Less => self.push_past(epoch, (key, ev)),
        }
        key
    }

    /// Binary-insert a record into the sorted head. It has the largest
    /// `seq` yet, so it lands before (pops after) every equal-time record
    /// — at the front outright for a simultaneous batch or a later time.
    /// Many insertions mid-head split it: to one distinct time per epoch
    /// when it holds few (each batch then lands at its own head's front),
    /// to `TARGET_BUCKET` when it holds many.
    fn insert_head(&mut self, rec: Record<E>) {
        if self.head.front().is_none_or(|(k, _)| rec.0 > *k) {
            return self.head.push_front(rec);
        }
        let at = self.head.partition_point(|(k, _)| *k > rec.0);
        self.head.insert(at, rec);
        self.head_inserts += 1;
        if self.head_inserts >= MAX_INSERTS && self.head_inserts.is_power_of_two() {
            let (distinct, span) = spread(&self.head);
            let per_epoch = if distinct >= 2 * TARGET_BUCKET {
                TARGET_BUCKET
            } else {
                1
            };
            self.narrow(distinct, span, per_epoch);
        }
    }

    /// File a record of an epoch after the head's: into its ring bucket,
    /// moving or growing the window to reach it, or into the overflow when
    /// it lies past what the window can reach.
    fn file(&mut self, epoch: i64, rec: Record<E>) {
        if let Some(slot) = self.slot_for(epoch) {
            self.put(slot, epoch, rec);
        } else {
            self.overflow_min = self.overflow_min.min(i128::from(epoch));
            self.overflow.push(rec);
        }
    }

    /// A record earlier than the head's epoch: the head rejoins the ring,
    /// still sorted, and the record opens a new head.
    fn push_past(&mut self, epoch: i64, rec: Record<E>) {
        let old = self.head_epoch;
        let slot = self
            .slot_for(old)
            .expect("the window can always move back to the head's epoch");
        // Back to front: the bucket holds its records in ascending order,
        // which, in a bucket too large to rank, the sort on promotion
        // finishes in one linear pass.
        self.ring[slot].extend(self.head.drain(..).rev());
        self.ring_count += self.ring[slot].len();
        self.top = self.top.max(old);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.head_epoch = epoch;
        self.head_inserts = 0;
        self.head.push_back(rec);
    }

    /// Append a record to the ring bucket `slot` of `epoch`.
    fn put(&mut self, slot: usize, epoch: i64, rec: Record<E>) {
        self.ring[slot].push(rec);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_count += 1;
        self.top = self.top.max(epoch);
    }

    /// The ring slot of `epoch`: sliding the window, else growing the
    /// ring, else (for an epoch below the window) sliding back anyway and
    /// spilling the buckets that leave the window to the overflow. `None`
    /// when `epoch` lies past what the window can reach.
    fn slot_for(&mut self, epoch: i64) -> Option<usize> {
        self.admit(epoch, false)
            .or_else(|| {
                self.grow_for(epoch)
                    .then(|| self.admit(epoch, false))
                    .flatten()
            })
            .or_else(|| self.admit(epoch, true))
    }

    /// The ring slot of `epoch`, sliding the window to reach it when that
    /// keeps every ring record inside (or, with `spill`, moves the ones
    /// that leave it to the overflow) and every overflow record outside;
    /// `None` when the window cannot reach it.
    fn admit(&mut self, epoch: i64, spill: bool) -> Option<usize> {
        if self.ring.is_empty() {
            self.ring.resize_with(MIN_RING, Vec::new);
            self.occupied.resize(MIN_RING / 64, 0);
        }
        let n = self.ring.len() as i128;
        let (e, base) = (i128::from(epoch), i128::from(self.base));
        if e < base || e >= base + n {
            let base = if self.ring_count == 0 {
                // Nothing pins the window: centre it on `epoch`, short of
                // the overflow.
                (e - n / 2)
                    .min(self.overflow_min - n)
                    .max(i128::from(i64::MIN))
            } else if e < base {
                // Back, while the ring's latest epoch still fits.
                if i128::from(self.top) >= e + n {
                    if !spill {
                        return None;
                    }
                    // `e + n` is at most `top`, an `i64`.
                    self.spill_from((e + n) as i64);
                }
                e
            } else {
                // Forward, while ring records (all after the head) stay
                // inside and overflow records outside.
                let base = e - n + 1;
                if base > i128::from(self.head_epoch) + 1 || e >= self.overflow_min {
                    return None;
                }
                base
            };
            if e < base || e >= base + n {
                return None;
            }
            self.base = base as i64;
        }
        Some(epoch as usize & (self.ring.len() - 1))
    }

    /// Move every ring bucket of epoch `from` or later to the overflow.
    fn spill_from(&mut self, from: i64) {
        let n = self.ring.len();
        let mut offset = (i128::from(from) - i128::from(self.base)).max(0) as usize;
        while offset < n {
            let Some(at) = self.next_occupied(offset) else {
                break;
            };
            let epoch = self.base.wrapping_add(at as i64);
            let slot = epoch as usize & (n - 1);
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            let bucket = &mut self.ring[slot];
            self.ring_count -= bucket.len();
            self.overflow.append(bucket);
            if bucket.capacity() > KEPT_CAPACITY {
                *bucket = Vec::new();
            }
            self.overflow_min = self.overflow_min.min(i128::from(epoch));
            offset = at + 1;
        }
        self.top = if self.ring_count == 0 {
            i64::MIN
        } else {
            from - 1
        };
    }

    /// The most ring slots the pending count allows: memory stays
    /// O(pending events).
    fn ring_cap(&self) -> usize {
        self.len.next_power_of_two().max(MIN_RING)
    }

    /// Lengthen the ring so one window holds `epoch` beside every ring
    /// record (and below every overflow record), if the pending count
    /// allows a ring that long. Returns whether it grew.
    fn grow_for(&mut self, epoch: i64) -> bool {
        let cap = self.ring_cap();
        if self.ring.len() >= cap {
            return false;
        }
        let e = i128::from(epoch);
        let (lo, hi) = if self.ring_count == 0 {
            (e, e)
        } else {
            let ring_lo = (i128::from(self.head_epoch) + 1).max(i128::from(self.base));
            (e.min(ring_lo), e.max(i128::from(self.top)))
        };
        let lo = lo.min(self.overflow_min);
        if hi - lo >= cap as i128 {
            return false;
        }
        let len = ((hi - lo + 1) as usize)
            .next_power_of_two()
            .max(2 * self.ring.len());
        self.resize_ring(len, lo as i64);
        true
    }

    /// Lengthen the ring to `len` slots with its window starting at
    /// `base`, which must hold every ring record. Each occupied bucket
    /// moves whole to its new slot; then the overflow records the longer
    /// window reaches join the ring.
    fn resize_ring(&mut self, len: usize, base: i64) {
        let old = self.ring.len();
        self.ring.resize_with(len, Vec::new);
        self.occupied.resize(len / 64, 0);
        for w in 0..old / 64 {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let offset = slot.wrapping_sub(self.base as usize) & (old - 1);
                let epoch = self.base.wrapping_add(offset as i64);
                let to = epoch as usize & (len - 1);
                if to != slot {
                    // `to` is past the old ring, in a fresh empty slot.
                    self.ring.swap(slot, to);
                    self.occupied[w] &= !(1 << (slot % 64));
                    self.occupied[to / 64] |= 1 << (to % 64);
                }
            }
        }
        self.base = base;
        self.pull_overflow();
    }

    /// File every overflow record the window now reaches into the ring.
    /// The window must start at or before the overflow's least epoch.
    fn pull_overflow(&mut self) {
        let end = i128::from(self.base) + self.ring.len() as i128;
        if self.overflow_min >= end {
            return;
        }
        let mut least = i128::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let epoch = self.epoch_of(self.overflow[i].0.time);
            if i128::from(epoch) < end {
                let rec = self.overflow.swap_remove(i);
                self.put(epoch as usize & (self.ring.len() - 1), epoch, rec);
            } else {
                least = least.min(i128::from(epoch));
                i += 1;
            }
        }
        self.overflow_min = least;
    }

    /// The window drained (ring and head empty): restart it at the
    /// overflow's earliest epoch, lengthening the ring toward the
    /// overflow's span as far as the pending count allows.
    fn refile(&mut self) {
        debug_assert!(self.head.is_empty() && self.ring_count == 0);
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for (key, _) in &self.overflow {
            let epoch = self.epoch_of(key.time);
            lo = lo.min(epoch);
            hi = hi.max(epoch);
        }
        let span = (i128::from(hi) - i128::from(lo) + 1).min(self.ring_cap() as i128);
        let len = (span as usize)
            .next_power_of_two()
            .max(self.ring.len())
            .max(MIN_RING);
        // Exact even when a narrowing just moved every epoch.
        self.overflow_min = i128::from(lo);
        self.resize_ring(len, lo);
    }

    /// Make the earliest ring bucket the head, ordering it once; re-file
    /// the overflow first when the window has drained. The head must be
    /// empty and the queue not.
    fn promote(&mut self) {
        debug_assert!(self.head.is_empty() && self.len > 0);
        let from = if self.ring_count == 0 {
            self.refile();
            0
        } else {
            // Every ring record lies after the head's epoch.
            let from = i128::from(self.head_epoch) + 1 - i128::from(self.base);
            from.max(0) as usize
        };
        let offset = self
            .next_occupied(from)
            .expect("the ring holds the next epoch");
        let epoch = self.base.wrapping_add(offset as i64);
        let slot = epoch as usize & (self.ring.len() - 1);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        let bucket = &mut self.ring[slot];
        self.ring_count -= bucket.len();
        self.head.clear();
        fill_head(&mut self.head, bucket);
        if bucket.capacity() > KEPT_CAPACITY {
            *bucket = Vec::new();
        }
        self.head_epoch = epoch;
        self.head_inserts = 0;
        if self.ring_count == 0 {
            self.top = i64::MIN;
        }
        // A whole bucket of many distinct times narrows toward the target
        // (this is where a width set mid-burst gets corrected), while the
        // calendar as a whole is that dense: in a sparse timeline a lone
        // crowded epoch sorts cheaper than every other epoch splits.
        if self.head.len() >= 2 * TARGET_BUCKET && self.dense() {
            let (distinct, span) = spread(&self.head);
            self.narrow(distinct, span, TARGET_BUCKET);
        }
    }

    /// Whether records fill at least half the epochs from the head to the
    /// ring's latest (a bound, so this errs toward sparse).
    fn dense(&self) -> bool {
        let buckets: u32 = self.occupied.iter().map(|w| w.count_ones()).sum();
        2 * i128::from(buckets) >= i128::from(self.top) - i128::from(self.head_epoch)
    }

    /// Window offset of the earliest occupied slot at offset `from` or
    /// later. The window starts at slot `base & mask` and wraps once.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let n = self.ring.len();
        debug_assert!(from < n, "ring records lie inside the window");
        let start = self.base as usize & (n - 1);
        let slot = (start + from) & (n - 1);
        let found = if slot >= start {
            self.scan(slot, n).or_else(|| self.scan(0, start))
        } else {
            self.scan(slot, start)
        };
        found.map(|s| s.wrapping_sub(start) & (n - 1))
    }

    /// Lowest set bit of the occupancy bitmap in slots `[lo, hi)`.
    fn scan(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let mut w = lo / 64;
        let mut word = self.occupied[w] & (!0u64 << (lo % 64));
        loop {
            if word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                return (slot < hi).then_some(slot);
            }
            w += 1;
            if w * 64 >= hi {
                return None;
            }
            word = self.occupied[w];
        }
    }

    /// Given a bucket's distinct finite times and their span, narrow
    /// `width` so those times spread at about `per_epoch` per epoch, then
    /// re-file every record. Fewer than twice `per_epoch` distinct times
    /// leave the width alone: a simultaneous batch cannot be split (it
    /// pops from the sorted head in O(1) each anyway), and a few
    /// stragglers beside one must not shrink the width by its size.
    fn narrow(&mut self, distinct: usize, span: f64, per_epoch: usize) {
        let width = span * per_epoch as f64 / distinct as f64;
        // Only ever narrow: a saturated terminal epoch can span more.
        if distinct < 2 * per_epoch || !(width > f64::MIN_POSITIVE && width < self.width) {
            return;
        }
        self.width = width;
        self.inv_width = width.recip();
        self.overflow.extend(self.head.drain(..));
        self.drain_ring(|overflow, bucket| overflow.append(bucket));
        self.promote();
    }

    /// Empty every ring bucket through `take`, freeing the buffers a large
    /// batch grew; the ring is empty afterwards.
    fn drain_ring(&mut self, mut take: impl FnMut(&mut Vec<Record<E>>, &mut Vec<Record<E>>)) {
        for w in 0..self.occupied.len() {
            let mut bits = std::mem::take(&mut self.occupied[w]);
            while bits != 0 {
                let bucket = &mut self.ring[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                take(&mut self.overflow, bucket);
                debug_assert!(bucket.is_empty());
                if bucket.capacity() > KEPT_CAPACITY {
                    *bucket = Vec::new();
                }
            }
        }
        self.ring_count = 0;
        self.top = i64::MIN;
    }

    /// The earliest pending event, without removing it.
    pub fn peek(&self) -> Option<(EventKey, &E)> {
        self.head.back().map(|(key, ev)| (*key, ev))
    }

    /// Key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.head.back().map(|&(key, _)| key)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let rec = self.head.pop_back()?;
        self.len -= 1;
        if self.head.is_empty() && self.len > 0 {
            self.promote();
        }
        Some(rec)
    }

    /// Drop every pending event, keeping ring and bucket capacity (and the
    /// monotone `seq` counter — keys stay unique across a reset).
    pub fn clear(&mut self) {
        self.head.clear();
        self.drain_ring(|_, bucket| bucket.clear());
        self.overflow.clear();
        self.overflow_min = i128::MAX;
        self.len = 0;
    }
}

/// The distinct finite times among key-sorted `records` (ascending or
/// descending), and their span.
fn spread<'a, E: 'a>(records: impl IntoIterator<Item = &'a Record<E>>) -> (usize, f64) {
    let (mut distinct, mut first, mut last) = (0, 0.0, 0.0);
    for (key, _) in records {
        if key.time.is_finite() {
            if distinct == 0 || key.time != last {
                distinct += 1;
            }
            if distinct == 1 {
                first = key.time;
            }
            last = key.time;
        }
    }
    (distinct, (last - first).abs())
}

/// The unsigned integer whose order is [`f64::total_cmp`]'s: negatives'
/// low 63 bits flipped, then offset to `u64`. So `-0.0 < +0.0`, and
/// positive NaN ranks above `+inf`. Equal images are bitwise-equal
/// floats, so a sort by image is a stable `total_cmp` sort.
#[inline]
pub fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63)
}

/// The unsigned integer whose order is [`EventKey`]'s: the time's
/// [`total_order_key`] above the `seq`.
#[inline]
fn key_image(key: &EventKey) -> u128 {
    (u128::from(total_order_key(key.time)) << 64) | u128::from(key.seq)
}

/// Move `bucket`'s records into the empty `head`, sorted descending by
/// key, leaving `bucket` empty. A bucket of 2 to [`RANKED_BUCKET`]
/// records is ordered without a data-dependent branch: a record's rank is
/// the count of keys above its own, and the head is filled in rank order
/// with clones of the records. An insertion sort mispredicts about once
/// per record there; larger buckets (a simultaneous batch, a bucket
/// before it narrows) are sorted.
fn fill_head<E: Clone>(head: &mut VecDeque<Record<E>>, bucket: &mut Vec<Record<E>>) {
    let n = bucket.len();
    if n <= 1 {
        head.extend(bucket.drain(..));
    } else if n <= RANKED_BUCKET {
        let mut keys = [0u128; RANKED_BUCKET];
        for (image, (key, _)) in keys.iter_mut().zip(bucket.iter()) {
            *image = key_image(key);
        }
        // Keys are unique (`seq`), so the ranks are a permutation.
        let keys = &keys[..n];
        let mut order = [0usize; RANKED_BUCKET];
        for (i, &own) in keys.iter().enumerate() {
            let rank: usize = keys.iter().map(|&k| usize::from(k > own)).sum();
            order[rank] = i;
        }
        head.extend(order[..n].iter().map(|&i| bucket[i].clone()));
        bucket.clear();
    } else {
        // Ascending runs (a head sent back to the ring) reverse into one
        // descending run, which the sort checks in one linear pass. Keys
        // are unique (`seq`): the unstable sort is exact.
        head.extend(bucket.drain(..).rev());
        head.make_contiguous()
            .sort_unstable_by_key(|&(key, _)| Reverse(key));
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
}

impl<E: Clone> EventKernel<E> {
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
    fn payloads_are_released_on_pop_and_clear() {
        // Records own their payloads: popping hands one out, `clear` drops
        // the rest, wherever they sit (head, ring or overflow).
        let payload = std::rc::Rc::new(());
        let mut q = EventQueue::new();
        for round in 0..4 {
            for i in 0..200 {
                q.push(f64::from(i % 50) * 10.0, payload.clone());
            }
            q.push(f64::NAN, payload.clone());
            q.push(1e300, payload.clone());
            if round % 2 == 0 {
                while q.pop().is_some() {}
            } else {
                for _ in 0..100 {
                    q.pop();
                }
                q.clear();
            }
            assert_eq!(std::rc::Rc::strong_count(&payload), 1, "round {round}");
        }
    }

    #[test]
    fn ring_capacity_stays_bounded_across_large_batches() {
        // Each round opens a spread of small epochs plus one simultaneous
        // batch far larger than `KEPT_CAPACITY`, then empties the queue
        // (by popping, or by `clear`). Buckets keep their buffers in their
        // slots, so without the bound every slot the batch visits would
        // keep the batch's capacity.
        let mut q = EventQueue::new();
        let retained = |q: &EventQueue<u32>| q.ring.iter().map(Vec::capacity).sum::<usize>();
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
            assert!(q.ring.iter().all(|b| b.capacity() <= KEPT_CAPACITY));
            let now = retained(&q);
            let first = *after_first.get_or_insert(now);
            assert!(
                now <= first,
                "round {round}: the ring retains {now} records, {first} after round 0"
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
    fn key_image_orders_like_event_key() {
        let times = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        let keys: Vec<EventKey> = times
            .iter()
            .flat_map(|&time| (0..2).map(move |seq| EventKey { time, seq }))
            .collect();
        for a in &keys {
            for b in &keys {
                assert_eq!(key_image(a).cmp(&key_image(b)), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
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
