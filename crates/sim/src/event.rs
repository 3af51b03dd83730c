//! The event queue at the heart of the discrete-event engine.
//!
//! Events are `(SimTime, payload)` pairs ordered by time. Ties are broken by
//! insertion order (a monotonically increasing sequence number), which makes
//! the engine deterministic: two runs that push the same events in the same
//! order pop them in the same order, regardless of payload contents.
//!
//! ## Layout
//!
//! [`EventQueue`] keeps 24-byte keys `(at, seq, slot)` over a payload slab.
//! A push moves the payload into a free slab slot and files its key; a pop
//! takes the payload back out of its slot and frees the slot for the next
//! push. Keys move, never payloads, whatever the size of `E`. Freed slots
//! are reused last-freed first, so the few slots a small pending set cycles
//! through stay in cache, and the steady state allocates nothing.
//!
//! The keys live in two tiers. The *front* is an inline sorted array of at
//! most `FRONT` (4) keys; behind it a binary min-heap holds the rest. Every
//! front key is below every heap key, so:
//!
//! - a push below the heap's top goes into the front, and when the front is
//!   full its largest key moves to the heap; any other push goes to the heap;
//! - a pop takes the front's smallest key, and touches the heap only when
//!   the front is empty.
//!
//! The engine's pending sets are tens of events, most of them far ahead of
//! `now` (Packet-Ins waiting out an agent's queue and the control latency),
//! while the next few events are a chain of near ones that each pop soon
//! after they were pushed. The front serves that chain in a handful of
//! comparisons, and the far events stay in the heap, whose O(log n) sifts
//! they pay once on the way in and once on the way out. DESIGN.md §9 has
//! the hit rates, the measurements and the heap-versus-wheel crossover.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Capacity of the front tier, in keys. Over whole spoofed-flood runs a
/// front of 1, 2, 4 and 8 keys serves 45%, 91%, 96% and 96% of the pops,
/// so a wider front would only lengthen the insertion scan. Not a tuning
/// knob: the pop order does not depend on it.
const FRONT: usize = 4;

/// A pending event's key. Ordered by `(at, seq)`; `seq` is unique, so
/// `slot` (where the payload lives) never decides an order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

/// A deterministic future-event list.
///
/// ```
/// use scotch_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// q.push(SimTime::from_secs(1), "sooner-but-second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner-but-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// The earliest pending keys, sorted descending: `front[front_len - 1]`
    /// is the next to pop. Every key here is below every key in `heap`.
    front: [Key; FRONT],
    front_len: usize,
    /// The other pending keys; `Reverse` makes the max-heap a min-heap.
    heap: BinaryHeap<Reverse<Key>>,
    /// Payloads by slot; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    seq: u64,
    /// Timestamp of the last popped event; pops are monotone.
    now: SimTime,
    pushed_total: u64,
    popped_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            front: [Key {
                at: 0,
                seq: 0,
                slot: 0,
            }; FRONT],
            front_len: 0,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            pushed_total: 0,
            popped_total: 0,
        }
    }

    /// Schedule `payload` for time `at`.
    ///
    /// Scheduling in the past is a logic error in a DES; the event is clamped
    /// to the current time instead of time-travelling, which keeps the pop
    /// stream monotone.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.pushed_total += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("2^32 pending events");
                self.slab.push(Some(payload));
                slot
            }
        };
        self.file(Key {
            at: at.0,
            seq,
            slot,
        });
    }

    /// File `key` in the front if it is below the heap's top (evicting the
    /// front's largest key to the heap when the front is full), else in the
    /// heap.
    fn file(&mut self, key: Key) {
        if self.heap.peek().is_some_and(|Reverse(top)| key > *top) {
            self.heap.push(Reverse(key));
            return;
        }
        let n = self.front_len;
        // Keys above `key` stay ahead of it in the descending order.
        let i = self.front[..n].iter().take_while(|k| **k > key).count();
        if n < FRONT {
            self.front.copy_within(i..n, i + 1);
            self.front[i] = key;
            self.front_len = n + 1;
        } else if i == 0 {
            // `key` is the largest of the FRONT + 1: it alone moves on.
            self.heap.push(Reverse(key));
        } else {
            self.heap.push(Reverse(self.front[0]));
            self.front.copy_within(1..i, 0);
            self.front[i - 1] = key;
        }
    }

    /// Remove and return the earliest event, advancing the queue's clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = match self.front_len {
            0 => self.heap.pop()?.0,
            n => {
                self.front_len = n - 1;
                self.front[n - 1]
            }
        };
        let payload = self.slab[key.slot as usize]
            .take()
            .expect("a pending key owns its slot");
        self.free.push(key.slot);
        let at = SimTime(key.at);
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.popped_total += 1;
        Some((at, payload))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.front_len {
            0 => self.heap.peek().map(|Reverse(k)| SimTime(k.at)),
            n => Some(SimTime(self.front[n - 1].at)),
        }
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.front_len + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front_len == 0 && self.heap.is_empty()
    }

    /// The most events ever pending at once. The slab grows only when every
    /// slot is occupied, so its length is exactly that high-water mark.
    pub fn peak_len(&self) -> usize {
        self.slab.len()
    }

    /// Total events ever pushed (diagnostic).
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// Total events ever popped (diagnostic).
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    /// The executable specification: a plain heap of whole entries, small
    /// enough to be obviously correct. `seq` is unique, so the payload is
    /// never compared; its `Ord` bound only satisfies the tuple ordering.
    struct HeapEventQueue<E> {
        heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
        seq: u64,
        now: SimTime,
        pushed_total: u64,
        popped_total: u64,
    }

    impl<E: Ord> HeapEventQueue<E> {
        fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
                pushed_total: 0,
                popped_total: 0,
            }
        }

        fn push(&mut self, at: SimTime, payload: E) {
            self.heap
                .push(Reverse((at.max(self.now), self.seq, payload)));
            self.seq += 1;
            self.pushed_total += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse((at, _, payload)) = self.heap.pop()?;
            self.now = at;
            self.popped_total += 1;
            Some((at, payload))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((at, _, _))| *at)
        }
    }

    /// Drives [`EventQueue`] and the oracle with the same operations and
    /// checks every observable after each step, including that the slab
    /// never outgrows the largest pending set (slot recycling cannot leak).
    struct Differential {
        queue: EventQueue<usize>,
        oracle: HeapEventQueue<usize>,
        max_len: usize,
    }

    impl Differential {
        fn new() -> Self {
            Differential {
                queue: EventQueue::new(),
                oracle: HeapEventQueue::new(),
                max_len: 0,
            }
        }

        fn push(&mut self, at: SimTime, payload: usize) {
            self.queue.push(at, payload);
            self.oracle.push(at, payload);
            self.check();
        }

        fn pop(&mut self) -> Option<(SimTime, usize)> {
            let popped = self.queue.pop();
            assert_eq!(popped, self.oracle.pop());
            self.check();
            popped
        }

        fn check(&mut self) {
            let q = &self.queue;
            // The two-tier layout: a sorted front, all of it below the heap.
            let front = &q.front[..q.front_len];
            assert!(front.windows(2).all(|w| w[0] > w[1]), "front unsorted");
            if let (Some(largest), Some(Reverse(top))) = (front.first(), q.heap.peek()) {
                assert!(largest < top, "front key above the heap's top");
            }
            assert_eq!(q.peek_time(), self.oracle.peek_time());
            assert_eq!(q.len(), self.oracle.heap.len());
            assert_eq!(q.is_empty(), self.oracle.heap.is_empty());
            assert_eq!(q.now(), self.oracle.now);
            assert_eq!(q.pushed_total(), self.oracle.pushed_total);
            assert_eq!(q.popped_total(), self.oracle.popped_total);
            self.max_len = self.max_len.max(q.len());
            assert_eq!(q.peak_len(), self.max_len);
        }

        /// Pop both queues dry.
        fn drain(mut self) {
            while self.pop().is_some() {}
        }
    }

    #[test]
    fn full_front_moves_its_largest_key_to_the_heap() {
        let mut q = EventQueue::new();
        for i in 0..FRONT as u64 {
            q.push(SimTime::from_nanos(10 + i), i);
        }
        assert_eq!((q.front_len, q.heap.len()), (FRONT, 0));
        // Below every front key: the front's largest (13) moves on.
        q.push(SimTime::from_nanos(5), 99);
        assert_eq!((q.front_len, q.heap.len()), (FRONT, 1));
        assert_eq!(q.heap.peek().map(|Reverse(k)| k.at), Some(13));
        // Below the heap's top but above the whole front: straight on.
        q.push(SimTime::from_nanos(12), 98);
        assert_eq!(q.heap.peek().map(|Reverse(k)| k.at), Some(12));
        // Above the heap's top: the front is not touched.
        q.push(SimTime::from_nanos(50), 97);
        assert_eq!((q.front_len, q.heap.len()), (FRONT, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![99, 0, 1, 2, 98, 3, 97]);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_secs(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "a");
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(5));
        // Scheduling "in the past" relative to the popped event.
        q.push(SimTime::from_secs(1), "late");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(e, "late");
    }

    #[test]
    fn counters_track_pushes_and_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.pushed_total(), 2);
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(3));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_event_pops_after_near() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(8), "far");
        q.push(SimTime::from_secs(1), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(8), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_only_queue_pops_in_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(100), 1);
        q.push(SimTime::from_secs(100), 2);
        q.push(SimTime::from_secs(200), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(100)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(100), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(100), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(200), 3)));
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(4), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(q.now() + SimDuration::from_secs(1), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    #[test]
    fn peak_len_is_the_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..3 {
            q.push(SimTime::from_nanos(i), i);
        }
        q.pop();
        q.pop();
        q.push(SimTime::from_nanos(9), 9);
        assert_eq!((q.len(), q.peak_len()), (2, 3));
        q.push(SimTime::from_nanos(9), 10);
        q.push(SimTime::from_nanos(9), 11);
        assert_eq!((q.len(), q.peak_len()), (4, 4));
        while q.pop().is_some() {}
        assert_eq!((q.len(), q.peak_len()), (0, 4));
    }

    proptest! {
        /// Pop order is always non-decreasing in time, regardless of push order.
        #[test]
        fn prop_pop_times_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Same-timestamp events pop in push order (stability).
        #[test]
        fn prop_stable_at_equal_times(n in 1usize..300) {
            let mut q = EventQueue::new();
            let t = SimTime::from_secs(1);
            for i in 0..n {
                q.push(t, i);
            }
            let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
        }

        /// Determinism: two queues fed the same sequence produce identical streams.
        #[test]
        fn prop_determinism(times in proptest::collection::vec(0u64..10_000, 1..100)) {
            let build = || {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.push(SimTime::from_nanos(*t), i);
                }
                std::iter::from_fn(move || q.pop()).collect::<Vec<_>>()
            };
            prop_assert_eq!(build(), build());
        }

        /// Random push/pop interleavings match the oracle step for step.
        /// Timestamps are coarsened to a 1 ms grid so collisions are common,
        /// and random times often fall behind `now` and clamp.
        #[test]
        fn prop_queue_matches_oracle(
            ops in proptest::collection::vec((0u8..4, 0u64..6_000_000_000), 1..300),
        ) {
            let mut s = Differential::new();
            for (i, (op, t)) in ops.iter().enumerate() {
                if *op == 3 {
                    s.pop();
                } else {
                    s.push(SimTime::from_nanos(t / 1_000_000 * 1_000_000), i);
                }
            }
            s.drain();
        }

        /// Far-future traffic: pushes dozens of 2^32 ns blocks ahead and up
        /// against `u64::MAX`, interleaved with near pushes relative to
        /// `now` (which clamp once a far event has popped) and with pops.
        #[test]
        fn prop_queue_matches_oracle_far_future(
            ops in proptest::collection::vec((0u8..5, 0u64..64), 1..300),
        ) {
            const BLOCK: u64 = 1 << 32;
            let mut s = Differential::new();
            for (i, (op, t)) in ops.iter().enumerate() {
                match op {
                    0 => s.push(SimTime::from_nanos(t * BLOCK + (i as u64 % 3) * (BLOCK / 2)), i),
                    1 => s.push(SimTime::from_nanos(u64::MAX - t), i),
                    4 => { s.pop(); }
                    // Saturating: `now` may already sit near `u64::MAX`.
                    _ => s.push(SimTime::from_nanos(s.queue.now().as_nanos().saturating_add(*t)), i),
                }
            }
            s.drain();
        }

        /// The engine's shape: a backlog of far events plus a chain of near
        /// pushes at or just after `now`, pushes that tie the `at` of a
        /// front key, bursts that overfill the front (eviction), pushes
        /// that clamp into the past, and pops, which mostly take the chain.
        #[test]
        fn prop_queue_matches_oracle_front_shape(
            backlog in 0usize..80,
            ops in proptest::collection::vec((0u8..8, 0u64..1_000), 1..400),
        ) {
            const FAR: u64 = 1_000_000_000;
            let mut s = Differential::new();
            for i in 0..backlog {
                s.push(SimTime::from_nanos(FAR + i as u64 * 7_919 % 1_000 * 1_000), i);
            }
            for (i, (op, t)) in ops.iter().enumerate() {
                let now = s.queue.now().as_nanos();
                let payload = 1_000 + i * 16;
                match op {
                    0 => s.push(SimTime::from_nanos(now + FAR + t * 1_000), payload),
                    1 => s.push(SimTime::from_nanos(now + t % 8), payload),
                    2 => {
                        // Tie a front key's time, when there is one.
                        let q = &s.queue;
                        let at = match q.front_len {
                            0 => now + t,
                            n => q.front[*t as usize % n].at,
                        };
                        s.push(SimTime::from_nanos(at), payload);
                    }
                    3 => {
                        // More near keys than the front holds, in a random
                        // order, so later ones land below earlier ones.
                        for k in 0..FRONT as u64 + 1 + t % 3 {
                            let at = now + (t + k * 5) % 11;
                            s.push(SimTime::from_nanos(at), payload + k as usize);
                        }
                    }
                    4 => s.push(SimTime::from_nanos(now.saturating_sub(*t)), payload),
                    _ => {
                        s.pop();
                    }
                }
            }
            s.drain();
        }

        /// Dense nanosecond-scale traffic: single pushes, same-timestamp
        /// bursts at or just after `now`, and pops mid-burst.
        #[test]
        fn prop_queue_matches_oracle_dense(
            ops in proptest::collection::vec((0u8..3, 0u64..4_096), 1..300),
        ) {
            let mut s = Differential::new();
            for (i, (op, t)) in ops.iter().enumerate() {
                match op {
                    0 => s.push(SimTime::from_nanos(*t), i),
                    1 => {
                        let at = s.queue.now() + SimDuration::from_nanos(t % 4);
                        for k in 0..2 + t % 8 {
                            s.push(at, i * 16 + k as usize);
                        }
                    }
                    _ => { s.pop(); }
                }
            }
            s.drain();
        }
    }
}
