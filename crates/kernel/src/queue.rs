use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::Cycle;

/// Number of single-cycle buckets in the near-future lane (power of two).
///
/// The memory-system latencies cluster event deltas tightly (a contention-
/// free local miss is 170 cycles end to end, a remote miss 290), so almost
/// every push lands within a few hundred cycles of the queue's cursor. 512
/// covers the whole cluster with slack; the rare far event (refork
/// penalties, drained SI queues) falls back to the heap.
const LANE: usize = 512;
const LANE_MASK: u64 = LANE as u64 - 1;

/// A deterministic discrete-event queue.
///
/// Events are ordered by timestamp; events with equal timestamps pop in the
/// order they were pushed (FIFO). Together with a single-threaded simulation
/// loop this makes every run bit-for-bit reproducible, which the test suite
/// and the paper-reproduction harness rely on.
///
/// Internally the queue is two lanes with one ordering contract:
///
/// * a **near-future lane** — a ring of [`LANE`] single-cycle buckets
///   covering `[cursor, cursor + LANE)`, where `cursor` is a monotone lower
///   bound on pending bucketed times. Pushes within the window are O(1)
///   appends; pops advance `cursor` to the first non-empty bucket, so scan
///   work amortizes to the simulated-time advance;
/// * a `u128`-keyed [`BinaryHeap`] for the far tail (and for times below
///   `cursor`, which can only arise from out-of-order test usage).
///
/// Every entry carries its global sequence number, and every candidate
/// comparison uses the packed `(time, seq)` key, so the two lanes together
/// preserve the exact total order a single heap would produce — including
/// ties at the same timestamp split across lanes.
///
/// # Example
///
/// ```
/// use slipstream_kernel::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), 'x');
/// q.push(Cycle(1), 'y');
/// assert_eq!(q.peek_time(), Some(Cycle(1)));
/// assert_eq!(q.pop(), Some((Cycle(1), 'y')));
/// assert_eq!(q.pop(), Some((Cycle(3), 'x')));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near-future lane; bucket `t & LANE_MASK` holds events at time `t`
    /// for `t` in `[cursor, cursor + LANE)`. Within a bucket, entries are
    /// appended (and consumed) in sequence order.
    lane: Vec<Bucket<E>>,
    /// Events currently in the lane (all buckets).
    lane_len: usize,
    /// Lower bound on every bucketed event's time; advanced by pops.
    cursor: u64,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    high_water: usize,
}

/// One bucket of the near-future lane: `(seq, event)` entries in push
/// order. A `VecDeque` gives O(1) FIFO drain without shifting, and its
/// backing allocation persists across drain/refill cycles, so the
/// steady-state loop never allocates.
type Bucket<E> = VecDeque<(u64, E)>;

/// `key` packs `(time << 64) | seq`: one `u128` comparison orders by time,
/// then insertion order.
#[derive(Debug)]
struct Entry<E> {
    key: u128,
    event: E,
}

#[inline]
fn pack(time: Cycle, seq: u64) -> u128 {
    ((time.raw() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> Cycle {
    Cycle((key >> 64) as u64)
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
        // first.
        other.key.cmp(&self.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            lane: (0..LANE).map(|_| Bucket::new()).collect(),
            lane_len: 0,
            cursor: 0,
            heap: BinaryHeap::new(),
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Creates an empty queue with room for `cap` pending far-tail events.
    pub fn with_capacity(cap: usize) -> EventQueue<E> {
        let mut q = EventQueue::new();
        q.heap.reserve(cap);
        q
    }

    /// Schedules `event` to fire at time `at`.
    pub fn push(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = at.raw();
        if t >= self.cursor && t - self.cursor < LANE as u64 {
            self.lane[(t & LANE_MASK) as usize].push_back((seq, event));
            self.lane_len += 1;
        } else {
            self.heap.push(Entry { key: pack(at, seq), event });
        }
        // Peak-depth tracking for the observability layer. The branch is
        // almost never taken in steady state, so it stays off the critical
        // path's dependency chain.
        let len = self.len();
        if len > self.high_water {
            self.high_water = len;
        }
    }

    /// Advances `cursor` to the first non-empty bucket. Only called with a
    /// non-empty lane, so the walk terminates within `LANE` steps; because
    /// `cursor` is monotone, the total walk over a run is bounded by the
    /// simulated-time span, not by the pop count.
    #[inline]
    fn advance_cursor(&mut self) {
        debug_assert!(self.lane_len > 0);
        while self.lane[(self.cursor & LANE_MASK) as usize].is_empty() {
            self.cursor += 1;
        }
    }

    /// The packed key of the earliest bucketed event, advancing the cursor
    /// to its bucket. `None` when the lane is empty.
    #[inline]
    fn lane_front_key(&mut self) -> Option<u128> {
        if self.lane_len == 0 {
            return None;
        }
        self.advance_cursor();
        let b = &self.lane[(self.cursor & LANE_MASK) as usize];
        Some(pack(Cycle(self.cursor), b.front().expect("advanced to non-empty bucket").0))
    }

    /// Removes and returns the front event of the cursor bucket. Caller
    /// guarantees the lane is non-empty and the cursor is advanced.
    #[inline]
    fn lane_pop_front(&mut self) -> (Cycle, E) {
        let t = Cycle(self.cursor);
        let b = &mut self.lane[(self.cursor & LANE_MASK) as usize];
        let (_seq, event) = b.pop_front().expect("advanced to non-empty bucket");
        self.lane_len -= 1;
        (t, event)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let lane_key = self.lane_front_key();
        let heap_key = self.heap.peek().map(|e| e.key);
        match (lane_key, heap_key) {
            (Some(lk), Some(hk)) if hk < lk => self.pop_heap(),
            (None, Some(_)) => self.pop_heap(),
            (Some(_), _) => Some(self.lane_pop_front()),
            (None, None) => None,
        }
    }

    fn pop_heap(&mut self) -> Option<(Cycle, E)> {
        let e = self.heap.pop()?;
        let t = unpack_time(e.key);
        if self.lane_len == 0 {
            // With the lane empty the cursor is unconstrained; keeping it
            // synced to popped (monotone) times keeps the near-future
            // window over "now" so subsequent pushes take the O(1) lane.
            self.cursor = self.cursor.max(t.raw());
        }
        Some((t, e.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&mut self) -> Option<Cycle> {
        let lane = self.lane_front_key();
        let heap = self.heap.peek().map(|e| e.key);
        match (lane, heap) {
            (Some(a), Some(b)) => Some(unpack_time(a.min(b))),
            (Some(a), None) => Some(unpack_time(a)),
            (None, Some(b)) => Some(unpack_time(b)),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane_len + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events pushed over the queue's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Maximum number of events ever pending at once (peak queue depth).
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycle(1), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 'a');
        q.push(Cycle(2), 'b');
        assert_eq!(q.pop(), Some((Cycle(2), 'b')));
        q.push(Cycle(1), 'c'); // earlier than remaining event
        assert_eq!(q.pop(), Some((Cycle(1), 'c')));
        assert_eq!(q.pop(), Some((Cycle(5), 'a')));
    }

    #[test]
    fn lifetime_counters_track_pushes_and_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.total_pushed(), 0);
        assert_eq!(q.high_water(), 0);
        q.push(Cycle(1), 'a');
        q.push(Cycle(2), 'b');
        q.push(Cycle(3), 'c');
        q.pop();
        q.pop();
        q.push(Cycle(4), 'd');
        assert_eq!(q.total_pushed(), 4);
        assert_eq!(q.high_water(), 3); // peak was three pending at once
    }

    #[test]
    fn with_capacity_preserves_semantics() {
        let mut q = EventQueue::with_capacity(64);
        q.push(Cycle(2), 'x');
        q.push(Cycle(1), 'y');
        assert_eq!(q.pop(), Some((Cycle(1), 'y')));
        assert_eq!(q.pop(), Some((Cycle(2), 'x')));
    }

    /// Same-time events split across the two lanes must still pop in push
    /// order: the first push lands in a bucket; once the window slides past
    /// that time, later same-time pushes fall back to the heap, and seq
    /// tie-breaking has to interleave them correctly.
    #[test]
    fn cross_lane_same_time_ties_are_fifo() {
        let mut q = EventQueue::new();
        q.push(Cycle(100), 0); // near-future lane (window starts at 0)
        q.push(Cycle(10_000), 99); // beyond the window → heap
        q.push(Cycle(10_000), 100); // heap, same time, later seq
        assert_eq!(q.pop(), Some((Cycle(100), 0)));
        assert_eq!(q.pop(), Some((Cycle(10_000), 99)));
        // The window re-centered on 10_000, so these same-time pushes land
        // in a bucket while an earlier-seq twin still sits in the heap.
        q.push(Cycle(10_000), 101);
        q.push(Cycle(10_000), 102);
        assert_eq!(q.pop(), Some((Cycle(10_000), 100)));
        assert_eq!(q.pop(), Some((Cycle(10_000), 101)));
        assert_eq!(q.pop(), Some((Cycle(10_000), 102)));
        assert_eq!(q.pop(), None);
    }

    /// Events beyond the near-future window (heap lane) and inside it
    /// (bucket lane) interleave in strict time order.
    #[test]
    fn far_future_and_near_future_interleave() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 'n'); // bucket lane
        q.push(Cycle(5_000), 'f'); // heap lane (beyond window)
        q.push(Cycle(170), 'm'); // bucket lane
        assert_eq!(q.pop(), Some((Cycle(5), 'n')));
        assert_eq!(q.pop(), Some((Cycle(170), 'm')));
        // After draining the lane, the heap event pops and re-centers the
        // window; a subsequent near-future push must take the bucket lane
        // and still order correctly against a new far event.
        assert_eq!(q.pop(), Some((Cycle(5_000), 'f')));
        q.push(Cycle(5_290), 'p'); // within the re-centered window
        q.push(Cycle(99_999), 'q');
        assert_eq!(q.pop(), Some((Cycle(5_290), 'p')));
        assert_eq!(q.pop(), Some((Cycle(99_999), 'q')));
    }

    /// Pushes at times the window has already slid past (only possible from
    /// out-of-order callers, but part of the contract) still pop in order.
    #[test]
    fn pushes_below_the_cursor_still_order_correctly() {
        let mut q = EventQueue::new();
        q.push(Cycle(1_000_000), 'a');
        assert_eq!(q.pop(), Some((Cycle(1_000_000), 'a'))); // cursor syncs far forward
        q.push(Cycle(3), 'b'); // far below the cursor → heap
        q.push(Cycle(1_000_001), 'c'); // in-window → lane
        assert_eq!(q.peek_time(), Some(Cycle(3)));
        assert_eq!(q.pop(), Some((Cycle(3), 'b')));
        assert_eq!(q.pop(), Some((Cycle(1_000_001), 'c')));
    }

    /// The bucket ring wraps: times more than `LANE` apart reuse the same
    /// bucket index across window generations without mixing.
    #[test]
    fn window_wraparound_reuses_buckets_cleanly() {
        let mut q = EventQueue::new();
        // Step by less than LANE so every push stays in the sliding window
        // (bucket lane); over enough generations the raw times cross many
        // multiples of LANE, so bucket indices wrap and get reused.
        let step = LANE as u64 - 12;
        let mut t = 0u64;
        for gen in 0u64..20 {
            q.push(Cycle(t), gen);
            assert_eq!(q.pop(), Some((Cycle(t), gen)));
            t += step;
        }
        assert!(q.is_empty());
    }

    /// Property test (seeded, exhaustive over many random schedules):
    /// popping always yields non-decreasing timestamps, and within a
    /// timestamp, increasing push order — the (time, seq) FIFO contract the
    /// whole simulator's determinism rests on.
    #[test]
    fn prop_pop_order() {
        let mut rng = SplitMix64::new(0x0e0e);
        for case in 0..200 {
            let n = 1 + rng.next_below(200) as usize;
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(Cycle(rng.next_below(50)), i);
            }
            let mut last: Option<(Cycle, usize)> = None;
            let mut popped = 0;
            while let Some((t, i)) = q.pop() {
                popped += 1;
                if let Some((lt, li)) = last {
                    assert!(t >= lt, "case {case}: time went backwards");
                    if t == lt {
                        assert!(i > li, "case {case}: FIFO order violated at t={t:?}");
                    }
                }
                last = Some((t, i));
            }
            assert_eq!(popped, n);
        }
    }

    /// Random schedules that straddle the bucket window: deltas span from 0
    /// to several windows ahead, so every push/pop path (bucket append,
    /// heap fallback, cursor re-sync, wraparound) gets exercised while the
    /// (time, seq) contract is checked against pending-event ground truth.
    #[test]
    fn prop_pop_order_across_lanes() {
        let mut rng = SplitMix64::new(0x51ee);
        for case in 0..100 {
            let n = 1 + rng.next_below(300) as usize;
            let mut q = EventQueue::new();
            let mut base = 0u64;
            for i in 0..n {
                // Mostly near-future, occasionally multiple windows out.
                let delta = if rng.next_below(8) == 0 {
                    rng.next_below(4 * LANE as u64)
                } else {
                    rng.next_below(300)
                };
                q.push(Cycle(base + delta), i);
                if rng.next_below(4) == 0 {
                    if let Some((t, _)) = q.pop() {
                        base = base.max(t.raw());
                    }
                }
            }
            let mut last: Option<(Cycle, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    assert!(t >= lt, "case {case}: time went backwards");
                    if t == lt {
                        assert!(i > li, "case {case}: FIFO order violated at t={t:?}");
                    }
                }
                last = Some((t, i));
            }
            assert!(q.is_empty());
        }
    }

    /// Interleaving pushes and pops preserves the same contract relative
    /// to the events still pending.
    #[test]
    fn prop_interleaved_push_pop() {
        let mut rng = SplitMix64::new(0xabcd);
        for _ in 0..100 {
            let mut q = EventQueue::new();
            let mut seq = 0usize;
            let mut last: Option<(Cycle, usize)> = None;
            for _ in 0..300 {
                if rng.next_below(2) == 0 {
                    // Push strictly increasing-or-equal times so pops stay
                    // monotone even with interleaving.
                    let base = last.map(|(t, _)| t.raw()).unwrap_or(0);
                    q.push(Cycle(base + rng.next_below(20)), seq);
                    seq += 1;
                } else if let Some((t, i)) = q.pop() {
                    if let Some((lt, li)) = last {
                        assert!(t > lt || (t == lt && i > li));
                    }
                    last = Some((t, i));
                }
            }
        }
    }
}
