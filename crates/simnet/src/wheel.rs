//! Hierarchical timer wheel: the simulator's event queue.
//!
//! Replaces the former `BinaryHeap` event queue with an O(1)-amortized
//! structure while preserving the heap's (time, seq) pop order bit-for-bit
//! (property-tested against a retained `BinaryHeap` baseline below).
//!
//! # Layout
//!
//! Times are split into 6-bit digits: 11 levels of 64 slots cover the full
//! `u64` microsecond range (64^11 = 2^66). An item is bucketed by the
//! *most significant digit in which its time differs from the horizon*
//! (the time of the most recently popped batch):
//!
//! ```text
//! level = highest set 6-bit digit of (time XOR horizon)
//! slot  = (time >> 6*level) & 63
//! ```
//!
//! This is a radix-trie placement, not the classic delta-based one, and it
//! buys three invariants the pop path leans on:
//!
//! 1. **No lap mixing.** Every item at level `l` agrees with the horizon on
//!    all digits above `l` and exceeds it at digit `l`, so a level's slots
//!    are *linearly* ordered by time — no ring cursor, no wraparound.
//! 2. **The global minimum is the first occupied slot of the lowest
//!    non-empty level** (items at higher levels exceed the horizon at a
//!    more significant digit), found with two `trailing_zeros` probes.
//! 3. **Advancing the horizon drains exactly one slot.** Items of the new
//!    minimum time are staged for popping; later items from the same
//!    bucket re-bucket at a *strictly lower* level against the new
//!    horizon, so the cascade cannot revisit a slot.
//!
//! Slot 0-of-level-0 relative to the horizon (`horizon & 63` when the item
//! time *equals* the horizon) holds same-time inserts made while the
//! current batch drains; they pop after the in-flight batch, exactly as
//! their larger seqs would order them in a heap.

use std::cell::Cell;
use std::fmt;

const SLOT_BITS: usize = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
const LEVELS: usize = 11;

/// An O(1)-amortized priority queue over `(time, seq)` keys that pops in
/// exactly the order `BinaryHeap<Reverse<(time, seq, _)>>` would.
///
/// The one structural requirement — natural for a discrete-event
/// simulator — is that pushes never precede the time of the last popped
/// item (checked by `debug_assert`).
pub struct TimerWheel<T> {
    /// `LEVELS * SLOTS` buckets, indexed `level * SLOTS + slot`.
    slots: Vec<Vec<(u64, u64, T)>>,
    /// Per-level occupancy bitmask; bit `s` set iff `slots[l*SLOTS+s]` is
    /// non-empty.
    occ: [u64; LEVELS],
    /// Time of the most recently staged batch; all live items are ≥ this.
    horizon: u64,
    /// The current minimum-time batch, sorted by seq *descending* so pops
    /// come off the back in ascending seq order.
    staged: Vec<(u64, T)>,
    staged_time: u64,
    /// Memo of the wheel-side (non-staged) minimum time; `None` when
    /// unknown. Pushes can only lower it, drains invalidate it.
    cached_next: Cell<Option<u64>>,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// An empty wheel with horizon 0.
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            horizon: 0,
            staged: Vec::new(),
            staged_time: 0,
            cached_next: Cell::new(None),
            len: 0,
        }
    }

    /// Number of queued items (staged batch included).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn position(&self, time: u64) -> (usize, usize) {
        let x = time ^ self.horizon;
        let level = if x == 0 { 0 } else { (63 - x.leading_zeros()) as usize / SLOT_BITS };
        let slot = ((time >> (SLOT_BITS * level)) & SLOT_MASK) as usize;
        (level, slot)
    }

    fn insert(&mut self, time: u64, seq: u64, item: T) {
        let (level, slot) = self.position(time);
        self.slots[level * SLOTS + slot].push((time, seq, item));
        self.occ[level] |= 1 << slot;
    }

    /// Queues `item` at `(time, seq)`. `time` must be at or after the last
    /// popped time; `seq` keys same-time FIFO order and must be unique.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        debug_assert!(time >= self.horizon, "push at {time} precedes horizon {}", self.horizon);
        self.insert(time, seq, item);
        self.len += 1;
        if let Some(c) = self.cached_next.get() {
            if time < c {
                self.cached_next.set(Some(time));
            }
        }
    }

    /// Drains the slot holding the minimum time into `staged`.
    fn refill(&mut self) {
        debug_assert!(self.staged.is_empty());
        if self.len == 0 {
            return;
        }
        self.cached_next.set(None);
        let c0 = (self.horizon & SLOT_MASK) as usize;
        let (level, slot) = if self.occ[0] & (1 << c0) != 0 {
            // Same-time inserts made while the previous batch drained:
            // they are the minimum and the horizon does not move.
            (0, c0)
        } else {
            let level =
                (0..LEVELS).find(|&l| self.occ[l] != 0).expect("len > 0 implies an occupied level");
            (level, self.occ[level].trailing_zeros() as usize)
        };
        let bucket = std::mem::take(&mut self.slots[level * SLOTS + slot]);
        self.occ[level] &= !(1u64 << slot);
        if level == 0 {
            // A level-0 slot holds exactly one time: the horizon's upper
            // digits with `slot` as the low digit.
            let t = (self.horizon & !SLOT_MASK) | slot as u64;
            self.horizon = t;
            self.staged_time = t;
            self.staged.extend(bucket.into_iter().map(|(bt, seq, item)| {
                debug_assert_eq!(bt, t);
                (seq, item)
            }));
        } else {
            let t = bucket.iter().map(|e| e.0).min().expect("occupied slot is non-empty");
            self.horizon = t;
            self.staged_time = t;
            // Re-bucket the rest against the new horizon; each lands at a
            // level strictly below `level`, never back in this slot.
            for (bt, seq, item) in bucket {
                if bt == t {
                    self.staged.push((seq, item));
                } else {
                    self.insert(bt, seq, item);
                }
            }
        }
        // Bucket order mixes direct pushes with cascade re-inserts, so the
        // batch is seq-sorted here (descending: pops come off the back).
        self.staged.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
    }

    /// Removes and returns the minimum `(time, seq, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.staged.is_empty() {
            self.refill();
        }
        let (seq, item) = self.staged.pop()?;
        self.len -= 1;
        Some((self.staged_time, seq, item))
    }

    /// The minimum queued time, without disturbing the queue.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        if !self.staged.is_empty() {
            return Some(self.staged_time);
        }
        if self.len == 0 {
            return None;
        }
        let c0 = (self.horizon & SLOT_MASK) as usize;
        if self.occ[0] & (1 << c0) != 0 {
            return Some(self.horizon);
        }
        if let Some(t) = self.cached_next.get() {
            return Some(t);
        }
        let level = (0..LEVELS).find(|&l| self.occ[l] != 0)?;
        let slot = self.occ[level].trailing_zeros() as usize;
        let t = if level == 0 {
            (self.horizon & !SLOT_MASK) | slot as u64
        } else {
            self.slots[level * SLOTS + slot].iter().map(|e| e.0).min()?
        };
        self.cached_next.set(Some(t));
        Some(t)
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimerWheel")
            .field("len", &self.len)
            .field("horizon", &self.horizon)
            .field("staged", &self.staged.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The retained baseline: exactly the ordering the simulator's former
    /// `BinaryHeap` event queue produced.
    #[derive(Default)]
    struct HeapBaseline {
        heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    }

    impl HeapBaseline {
        fn push(&mut self, time: u64, seq: u64, item: usize) {
            self.heap.push(Reverse((time, seq, item)));
        }

        fn pop(&mut self) -> Option<(u64, u64, usize)> {
            self.heap.pop().map(|Reverse(e)| e)
        }

        fn peek_time(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse(e)| e.0)
        }
    }

    #[test]
    fn empty_wheel_pops_nothing() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert_eq!(w.pop(), None);
        assert_eq!(w.peek_time(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn same_time_pops_in_seq_order() {
        let mut w = TimerWheel::new();
        w.push(10, 2, 'b');
        w.push(10, 0, 'a');
        w.push(10, 5, 'c');
        assert_eq!(w.peek_time(), Some(10));
        assert_eq!(w.pop(), Some((10, 0, 'a')));
        assert_eq!(w.pop(), Some((10, 2, 'b')));
        assert_eq!(w.pop(), Some((10, 5, 'c')));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn widely_spread_times_pop_sorted() {
        let mut w = TimerWheel::new();
        let times = [u64::MAX, 0, 1, 63, 64, 4095, 4096, 1 << 30, (1 << 30) + 1, 1 << 62];
        for (seq, &t) in times.iter().enumerate() {
            w.push(t, seq as u64, t);
        }
        let mut sorted = times;
        sorted.sort_unstable();
        for &t in &sorted {
            assert_eq!(w.peek_time(), Some(t));
            let (pt, _, item) = w.pop().unwrap();
            assert_eq!((pt, item), (t, t));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn push_at_current_time_pops_after_inflight_batch() {
        let mut w = TimerWheel::new();
        w.push(100, 0, "first");
        w.push(100, 1, "second");
        assert_eq!(w.pop(), Some((100, 0, "first")));
        // A push at the in-flight batch's own time must pop after it, in
        // seq order — the heap would order it the same way.
        w.push(100, 2, "late");
        w.push(200, 3, "future");
        assert_eq!(w.pop(), Some((100, 1, "second")));
        assert_eq!(w.pop(), Some((100, 2, "late")));
        assert_eq!(w.pop(), Some((200, 3, "future")));
    }

    #[test]
    fn cascade_rebuckets_across_levels() {
        let mut w = TimerWheel::new();
        // All three share their top digits, so they start in one high
        // slot; draining the minimum must re-bucket the others correctly.
        w.push(5_000_000, 0, 0u32);
        w.push(5_000_001, 1, 1);
        w.push(5_004_096, 2, 2);
        w.push(7, 3, 3);
        assert_eq!(w.pop(), Some((7, 3, 3)));
        assert_eq!(w.pop(), Some((5_000_000, 0, 0)));
        assert_eq!(w.peek_time(), Some(5_000_001));
        assert_eq!(w.pop(), Some((5_000_001, 1, 1)));
        assert_eq!(w.pop(), Some((5_004_096, 2, 2)));
    }

    /// Deltas mixing zero, sub-slot, cross-slot, cross-level, and huge
    /// jumps, so placements exercise every wheel level.
    fn delta() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            0u64..64,
            0u64..4096,
            0u64..1_000_000,
            0u64..(1u64 << 32),
            0u64..(1u64 << 48),
        ]
    }

    proptest! {
        /// Pop order is identical to the `BinaryHeap` baseline under
        /// interleaved pushes and pops, including peeks between ops.
        #[test]
        fn pop_order_matches_binary_heap_baseline(
            ops in proptest::collection::vec((delta(), 0usize..4), 1..200),
        ) {
            let mut wheel = TimerWheel::new();
            let mut heap = HeapBaseline::default();
            let mut floor = 0u64; // time of the last popped item
            for (seq, (d, pops)) in ops.into_iter().enumerate() {
                let seq = seq as u64;
                let t = floor.saturating_add(d);
                wheel.push(t, seq, seq as usize);
                heap.push(t, seq, seq as usize);
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                for _ in 0..pops {
                    let got = wheel.pop();
                    let want = heap.pop();
                    prop_assert_eq!(got, want);
                    if let Some((t, _, _)) = got {
                        floor = t;
                    }
                }
            }
            loop {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                let got = wheel.pop();
                let want = heap.pop();
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty());
        }
    }
}
