//! The central event list: a `BinaryHeap` ordered by ascending
//! `(time, schedule sequence)`, so simultaneous events pop in the
//! order they were scheduled and simulations are bit-reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A future event: delivery time, a monotonically increasing sequence
/// number for stable FIFO ordering of simultaneous events, and the
/// payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, among
        // equals, the first-scheduled) entry surfaces first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event-queue backend. There is one: the `BinaryHeap`.
///
/// Kept only so the `perfbench` package, which passes
/// `SimConfig::event_queue` to [`EventQueue::with_backend`], builds
/// unchanged; the next benchmark change drops both names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueBackend {
    /// `std::collections::BinaryHeap`.
    Heap,
}

/// Occupancy accounting for an [`EventQueue`], collected only when
/// depth tracking is enabled.
///
/// All fields count deterministic quantities: they depend on the
/// push/pop sequence alone, never on wall time, so two same-seed runs
/// yield identical stats. The invariant `pushes - pops == len()` holds
/// at every instant (see the `depth_accounting_never_drifts` test).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueDepthStats {
    /// Events pushed since tracking was enabled.
    pub pushes: u64,
    /// Events popped since tracking was enabled.
    pub pops: u64,
    /// Largest pending-event count observed after any push.
    pub peak_depth: u64,
    /// Sum over all pops of the depth at the moment of the pop
    /// (counting the popped event). `depth_ticks / pops` is the mean
    /// depth seen by the consumer.
    pub depth_ticks: u64,
}

/// A deterministic pending-event set ordered by simulated time.
///
/// Events scheduled for the same instant are delivered in the order
/// they were scheduled (FIFO), which makes simulations reproducible
/// bit-for-bit.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    // `None` is the default zero-cost path: push/pop pay one branch on
    // an always-false discriminant and no accounting writes.
    depth: Option<QueueDepthStats>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at `SimTime::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            depth: None,
        }
    }

    /// Same as [`new`](Self::new). Kept only so `perfbench` builds
    /// unchanged (see [`QueueBackend`]).
    pub fn with_backend(_: QueueBackend) -> Self {
        Self::new()
    }

    /// Start collecting occupancy statistics. Off by default so the
    /// hot loop stays free of accounting work; profiled runs switch it
    /// on before the first event is scheduled.
    pub fn enable_depth_tracking(&mut self) {
        self.depth = Some(QueueDepthStats::default());
    }

    /// Occupancy statistics since [`enable_depth_tracking`] was
    /// called, or `None` when tracking is off.
    ///
    /// [`enable_depth_tracking`]: EventQueue::enable_depth_tracking
    pub fn depth_stats(&self) -> Option<QueueDepthStats> {
        self.depth
    }

    /// The current simulated time: the delivery time of the most
    /// recently popped event (zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` for delivery at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the simulated past — scheduling backwards
    /// in time is always a model bug and would silently corrupt
    /// causality if allowed.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: now={}, at={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        if let Some(d) = &mut self.depth {
            d.pushes += 1;
            d.peak_depth = d.peak_depth.max(self.heap.len() as u64);
        }
    }

    /// Remove and return the next event, advancing the clock to its
    /// delivery time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(d) = &mut self.depth {
            let len = self.heap.len();
            if len > 0 {
                d.pops += 1;
                d.depth_ticks += len as u64;
            }
        }
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Delivery time of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.len() == 0
    }

    /// Drop all pending events without advancing the clock.
    ///
    /// Dropped events count as pops (so `pushes - pops == len()` keeps
    /// holding) but contribute no depth ticks — they were never seen
    /// by the consumer.
    pub fn clear(&mut self) {
        if let Some(d) = &mut self.depth {
            d.pops += self.heap.len() as u64;
        }
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.schedule(at(30), 2);
        q.schedule(at(10), 0);
        q.schedule(at(20), 1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..100 {
            q.schedule(at(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.schedule(at(7), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), at(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(at(10), ());
        q.pop();
        q.schedule(at(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.schedule(at(3), 0);
        assert_eq!(q.peek_time(), Some(at(3)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.schedule(at(1), 0);
        q.schedule(at(2), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// The depth-accounting invariant: at every instant,
    /// `pushes - pops == len()`, and `peak_depth` dominates every
    /// observed length. Exercised over an interleaved push/pop/clear
    /// sequence so no drift can hide in a particular ordering.
    #[test]
    fn depth_accounting_never_drifts() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.enable_depth_tracking();
        let check = |q: &EventQueue<u64>| {
            let d = q.depth_stats().unwrap();
            assert_eq!(
                d.pushes - d.pops,
                q.len() as u64,
                "depth accounting drifted from push/pop delta"
            );
            assert!(d.peak_depth >= q.len() as u64);
        };
        // Interleave: grow to i, shrink by i/2, repeatedly.
        let mut t = 0;
        for round in 1..=8u64 {
            for i in 0..round * 3 {
                t += 1 + i;
                q.schedule(at(t), i);
                check(&q);
            }
            for _ in 0..round {
                q.pop();
                check(&q);
            }
        }
        let d = q.depth_stats().unwrap();
        assert!(d.depth_ticks >= d.pops, "each pop ticks at least depth 1");
        // Drain and re-check; then clear must also keep the invariant.
        q.schedule(at(t + 1), 0);
        q.schedule(at(t + 2), 1);
        q.clear();
        check(&q);
        while q.pop().is_some() {
            check(&q);
        }
        let d = q.depth_stats().unwrap();
        assert_eq!(d.pushes, d.pops, "drained queue must balance");
    }

    #[test]
    fn depth_tracking_off_by_default() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.schedule(at(1), 0);
        q.pop();
        assert_eq!(q.depth_stats(), None);
    }

    #[test]
    fn depth_stats_match_a_known_sequence() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.enable_depth_tracking();
        q.schedule(at(1), 0);
        q.schedule(at(2), 1);
        q.schedule(at(3), 2);
        q.pop(); // depth 3 at pop
        q.pop(); // depth 2 at pop
        q.schedule(at(9), 3);
        q.pop(); // depth 2 at pop
        q.pop(); // depth 1 at pop
        let d = q.depth_stats().unwrap();
        assert_eq!(
            d,
            QueueDepthStats {
                pushes: 4,
                pops: 4,
                peak_depth: 3,
                depth_ticks: 3 + 2 + 2 + 1,
            }
        );
        // Popping empty must not tick.
        assert_eq!(q.pop(), None);
        assert_eq!(q.depth_stats().unwrap(), d);
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.schedule(at(10), 0);
        q.pop();
        q.schedule(at(10), 1); // same instant as `now` — legal
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (at(10), 1));
    }
}
