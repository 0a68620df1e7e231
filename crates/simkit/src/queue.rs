//! The central event list: a `BinaryHeap` ordered by ascending
//! `(time, schedule sequence)`, so simultaneous events pop in the
//! order they were scheduled and simulations are bit-reproducible.
//! A front slot in front of the heap holds the earliest event whenever
//! it was scheduled ahead of everything pending, so the common
//! "handle one event, schedule its successor soon" step pays no heap
//! sift at all.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A future event: its delivery time and a monotonically increasing
/// sequence number for stable FIFO ordering of simultaneous events,
/// packed into one `u128` key (time in the high half) so ordering is a
/// single integer comparison, and the payload.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn new(at: SimTime, seq: u64, event: E) -> Self {
        Entry {
            key: (u128::from(at.as_nanos()) << 64) | u128::from(seq),
            event,
        }
    }

    #[inline]
    fn at(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, among
        // equals, the first-scheduled) entry surfaces first.
        other.key.cmp(&self.key)
    }
}
impl<E> PartialOrd for Entry<E> {
    #[inline]
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
    /// When set, the earliest pending event: it orders before every
    /// entry of `heap`.
    front: Option<Entry<E>>,
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
            front: None,
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
        let entry = Entry::new(at, seq, event);
        // The newest entry has the largest `seq`, so it orders first
        // only if its time is strictly earlier.
        match &self.front {
            Some(f) if entry.key < f.key => {
                let old = self.front.replace(entry).expect("matched Some");
                self.heap.push(old);
            }
            Some(_) => self.heap.push(entry),
            None if self.heap.peek().is_none_or(|h| entry.key < h.key) => self.front = Some(entry),
            None => self.heap.push(entry),
        }
        let len = self.len() as u64;
        if let Some(d) = &mut self.depth {
            d.pushes += 1;
            d.peak_depth = d.peak_depth.max(len);
        }
    }

    /// Remove and return the next event, advancing the clock to its
    /// delivery time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let len = self.len();
        if let Some(d) = &mut self.depth {
            if len > 0 {
                d.pops += 1;
                d.depth_ticks += len as u64;
            }
        }
        let entry = match self.front.take() {
            Some(entry) => entry,
            None => self.heap.pop()?,
        };
        let at = entry.at();
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, entry.event))
    }

    /// Delivery time of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front
            .as_ref()
            .or_else(|| self.heap.peek())
            .map(Entry::at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events without advancing the clock.
    ///
    /// Dropped events count as pops (so `pushes - pops == len()` keeps
    /// holding) but contribute no depth ticks — they were never seen
    /// by the consumer.
    pub fn clear(&mut self) {
        let len = self.len() as u64;
        if let Some(d) = &mut self.depth {
            d.pops += len;
        }
        self.front = None;
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

    /// The front slot against a plain `BinaryHeap` of `(time, seq)`:
    /// seeded schedule/pop/clear interleavings with many equal
    /// timestamps must pop the same events in the same order, report
    /// the same lengths and peeks, and keep the same depth statistics.
    #[test]
    fn front_slot_matches_a_plain_heap() {
        use std::cmp::Reverse;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..200u64 {
            let mut q: EventQueue<u64> = EventQueue::new();
            q.enable_depth_tracking();
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut model_stats = QueueDepthStats::default();
            let (mut now, mut seq) = (0u64, 0u64);
            // Few distinct delays, so equal timestamps are common.
            let spread = 1 + round % 5;
            for _ in 0..2000 {
                match rng() % 16 {
                    0..=7 => {
                        let t = now + rng() % spread;
                        q.schedule(at(t), seq);
                        model.push(Reverse((t, seq)));
                        seq += 1;
                        model_stats.pushes += 1;
                        model_stats.peak_depth = model_stats.peak_depth.max(model.len() as u64);
                    }
                    8..=14 => {
                        if !model.is_empty() {
                            model_stats.pops += 1;
                            model_stats.depth_ticks += model.len() as u64;
                        }
                        let want = model.pop().map(|Reverse((t, s))| {
                            now = t;
                            (at(t), s)
                        });
                        assert_eq!(q.pop(), want);
                    }
                    _ => {
                        if rng() % 8 == 0 {
                            model_stats.pops += model.len() as u64;
                            model.clear();
                            q.clear();
                        }
                    }
                }
                assert_eq!(q.len(), model.len());
                assert_eq!(q.peek_time(), model.peek().map(|Reverse((t, _))| at(*t)));
            }
            assert_eq!(q.depth_stats(), Some(model_stats));
        }
    }
}
