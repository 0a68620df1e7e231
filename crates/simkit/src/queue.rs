//! The central event list.
//!
//! Two interchangeable backends sit behind [`EventQueue`]:
//!
//! * [`QueueBackend::Heap`] — a `BinaryHeap`, the reference
//!   implementation: O(log n) push/pop, no tuning parameters, and the
//!   semantic oracle every other backend is tested against.
//! * [`QueueBackend::Calendar`] — a bucketed calendar queue with O(1)
//!   amortized push/pop for the near-monotone timestamps a DES
//!   produces; far-future events (write-back sweeps, fault windows)
//!   overflow into a heap and are promoted lazily as the bucket
//!   window advances (DESIGN.md §14).
//!
//! Both deliver events in exactly the same total order — ascending
//! `(time, schedule sequence)` — so simulations are bit-identical
//! regardless of backend (see the randomized equivalence test).

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

/// Which data structure backs an [`EventQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueBackend {
    /// `std::collections::BinaryHeap` — the reference implementation.
    Heap,
    /// Bucketed calendar queue with a heap overflow for far-future
    /// events. Same pop order, O(1) amortized operations.
    Calendar,
}

impl QueueBackend {
    /// Stable lowercase name (CLI/config spelling).
    pub fn name(self) -> &'static str {
        match self {
            QueueBackend::Heap => "heap",
            QueueBackend::Calendar => "calendar",
        }
    }

    /// Parse the CLI/config spelling produced by [`name`].
    ///
    /// [`name`]: QueueBackend::name
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "heap" => Some(QueueBackend::Heap),
            "calendar" => Some(QueueBackend::Calendar),
            _ => None,
        }
    }
}

/// Bucket width of the calendar backend, in nanoseconds (2^18 ns ≈
/// 262 µs — on the order of one disk transfer, so a bucket holds O(1)
/// events on the simulator's workloads).
const CAL_WIDTH_NS: u64 = 1 << 18;

/// Number of buckets in the calendar ring. The window it spans
/// (`CAL_BUCKETS × CAL_WIDTH_NS` ≈ 134 ms) covers every near-term
/// event class (disk service, network hops, process resumes); only
/// rare far-horizon events (30 s write-back sweeps, fault windows)
/// take the overflow path.
const CAL_BUCKETS: usize = 512;

/// The calendar backend: a ring of time-sliced buckets covering
/// `[window_start, window_start + CAL_BUCKETS × CAL_WIDTH_NS)`, plus
/// an overflow heap for events beyond the window.
///
/// Invariants (exercised by the equivalence tests):
/// * every ring entry's time lies inside the window, in the bucket
///   `(at / width) % CAL_BUCKETS`, and slices increase along ring
///   order starting at `cursor` — so the first non-empty bucket from
///   the cursor holds the earliest pending events;
/// * the cursor's bucket is always sorted descending by `(at, seq)`
///   (pop takes from the end; in-window pushes binary-search insert);
/// * non-cursor buckets are unsorted append-only, sorted once when
///   the cursor reaches them;
/// * every overflow entry's time is `>= window_end`; advancing the
///   window promotes newly covered overflow entries into the ring.
struct Calendar<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// Index of the bucket whose time slice starts at `window_start`.
    cursor: usize,
    /// Start of the cursor bucket's slice (nanos, multiple of
    /// `CAL_WIDTH_NS`).
    window_start: u64,
    /// Entries currently in the ring (not counting overflow).
    ring_len: usize,
    overflow: BinaryHeap<Entry<E>>,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..CAL_BUCKETS).map(|_| Vec::new()).collect(),
            cursor: 0,
            window_start: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// End of the bucket window (exclusive). Saturating: a window
    /// jumped near `SimTime::MAX` simply covers less than a full ring,
    /// which keeps the slice→bucket mapping injective.
    fn window_end(&self) -> u64 {
        self.window_start
            .saturating_add(CAL_BUCKETS as u64 * CAL_WIDTH_NS)
    }

    fn bucket_of(at: u64) -> usize {
        ((at / CAL_WIDTH_NS) as usize) % CAL_BUCKETS
    }

    /// Sort `bucket` descending by `(at, seq)` so pops take from the
    /// end in ascending order.
    fn sort_bucket(&mut self, bucket: usize) {
        self.buckets[bucket].sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
    }

    fn push(&mut self, e: Entry<E>) {
        let at = e.at.as_nanos();
        if at >= self.window_end() {
            self.overflow.push(e);
            return;
        }
        let b = Self::bucket_of(at);
        if b == self.cursor {
            // The cursor bucket stays sorted; insert in place.
            let v = &mut self.buckets[b];
            let pos = v.partition_point(|x| (x.at, x.seq) > (e.at, e.seq));
            v.insert(pos, e);
        } else {
            self.buckets[b].push(e);
        }
        self.ring_len += 1;
    }

    /// Move the cursor one slice forward, promoting overflow entries
    /// the window now covers, and sort the new cursor bucket.
    fn advance(&mut self) {
        debug_assert!(self.buckets[self.cursor].is_empty());
        self.cursor = (self.cursor + 1) % CAL_BUCKETS;
        self.window_start += CAL_WIDTH_NS;
        let end = self.window_end();
        while self.overflow.peek().is_some_and(|e| e.at.as_nanos() < end) {
            let e = self.overflow.pop().expect("peeked");
            self.buckets[Self::bucket_of(e.at.as_nanos())].push(e);
            self.ring_len += 1;
        }
        self.sort_bucket(self.cursor);
    }

    /// The ring is empty: jump the window to the earliest overflow
    /// entry and refill from overflow.
    fn jump_to(&mut self, min: Entry<E>) {
        debug_assert_eq!(self.ring_len, 0);
        let at = min.at.as_nanos();
        self.window_start = (at / CAL_WIDTH_NS) * CAL_WIDTH_NS;
        self.cursor = Self::bucket_of(at);
        self.buckets[self.cursor].push(min);
        self.ring_len += 1;
        let end = self.window_end();
        while self.overflow.peek().is_some_and(|e| e.at.as_nanos() < end) {
            let e = self.overflow.pop().expect("peeked");
            self.buckets[Self::bucket_of(e.at.as_nanos())].push(e);
            self.ring_len += 1;
        }
        self.sort_bucket(self.cursor);
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        if self.ring_len == 0 {
            let min = self.overflow.pop()?;
            self.jump_to(min);
        }
        while self.buckets[self.cursor].is_empty() {
            self.advance();
        }
        let e = self.buckets[self.cursor].pop().expect("non-empty bucket");
        self.ring_len -= 1;
        Some(e)
    }

    fn peek_time(&self) -> Option<SimTime> {
        if self.ring_len > 0 {
            for i in 0..CAL_BUCKETS {
                let b = &self.buckets[(self.cursor + i) % CAL_BUCKETS];
                if !b.is_empty() {
                    // The first non-empty bucket from the cursor holds
                    // the earliest slice; min within it is the answer.
                    return b.iter().map(|e| e.at).min();
                }
            }
            unreachable!("ring_len > 0 but all buckets empty");
        }
        self.overflow.peek().map(|e| e.at)
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.ring_len = 0;
    }
}

enum Backend<E> {
    Heap(BinaryHeap<Entry<E>>),
    Calendar(Calendar<E>),
}

impl<E> Backend<E> {
    fn len(&self) -> usize {
        match self {
            Backend::Heap(h) => h.len(),
            Backend::Calendar(c) => c.len(),
        }
    }

    fn push(&mut self, e: Entry<E>) {
        match self {
            Backend::Heap(h) => h.push(e),
            Backend::Calendar(c) => c.push(e),
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        match self {
            Backend::Heap(h) => h.pop(),
            Backend::Calendar(c) => c.pop(),
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        match self {
            Backend::Heap(h) => h.peek().map(|e| e.at),
            Backend::Calendar(c) => c.peek_time(),
        }
    }

    fn clear(&mut self) {
        match self {
            Backend::Heap(h) => h.clear(),
            Backend::Calendar(c) => c.clear(),
        }
    }
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
/// bit-for-bit regardless of backend internals.
pub struct EventQueue<E> {
    backend: Backend<E>,
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
    /// Create an empty heap-backed queue with the clock at
    /// `SimTime::ZERO` (the reference backend; simulations pick the
    /// calendar backend through their config).
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::Heap)
    }

    /// Create an empty queue on the given backend.
    pub fn with_backend(kind: QueueBackend) -> Self {
        EventQueue {
            backend: match kind {
                QueueBackend::Heap => Backend::Heap(BinaryHeap::new()),
                QueueBackend::Calendar => Backend::Calendar(Calendar::new()),
            },
            next_seq: 0,
            now: SimTime::ZERO,
            depth: None,
        }
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
        self.backend.push(Entry { at, seq, event });
        if let Some(d) = &mut self.depth {
            d.pushes += 1;
            d.peak_depth = d.peak_depth.max(self.backend.len() as u64);
        }
    }

    /// Remove and return the next event, advancing the clock to its
    /// delivery time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(d) = &mut self.depth {
            let len = self.backend.len();
            if len > 0 {
                d.pops += 1;
                d.depth_ticks += len as u64;
            }
        }
        let entry = self.backend.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Delivery time of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.backend.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.backend.len() == 0
    }

    /// Drop all pending events without advancing the clock.
    ///
    /// Dropped events count as pops (so `pushes - pops == len()` keeps
    /// holding) but contribute no depth ticks — they were never seen
    /// by the consumer.
    pub fn clear(&mut self) {
        if let Some(d) = &mut self.depth {
            d.pops += self.backend.len() as u64;
        }
        self.backend.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// Run a test body against both backends.
    fn on_both(f: impl Fn(EventQueue<u64>)) {
        f(EventQueue::with_backend(QueueBackend::Heap));
        f(EventQueue::with_backend(QueueBackend::Calendar));
    }

    #[test]
    fn pops_in_time_order() {
        on_both(|mut q| {
            q.schedule(at(30), 2);
            q.schedule(at(10), 0);
            q.schedule(at(20), 1);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![0, 1, 2]);
        });
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        on_both(|mut q| {
            for i in 0..100 {
                q.schedule(at(5), i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn clock_advances_with_pops() {
        on_both(|mut q| {
            q.schedule(at(7), 0);
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), at(7));
        });
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
    #[should_panic(expected = "scheduling into the past")]
    fn calendar_scheduling_into_the_past_panics() {
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        q.schedule(at(10), ());
        q.pop();
        q.schedule(at(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        on_both(|mut q| {
            q.schedule(at(3), 0);
            assert_eq!(q.peek_time(), Some(at(3)));
            assert_eq!(q.now(), SimTime::ZERO);
            assert_eq!(q.len(), 1);
        });
    }

    #[test]
    fn clear_empties() {
        on_both(|mut q| {
            q.schedule(at(1), 0);
            q.schedule(at(2), 1);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        });
    }

    /// The depth-accounting invariant: at every instant,
    /// `pushes - pops == len()`, and `peak_depth` dominates every
    /// observed length. Exercised over an interleaved push/pop/clear
    /// sequence so no drift can hide in a particular ordering.
    #[test]
    fn depth_accounting_never_drifts() {
        on_both(|mut q| {
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
        });
    }

    #[test]
    fn depth_tracking_off_by_default() {
        on_both(|mut q| {
            q.schedule(at(1), 0);
            q.pop();
            assert_eq!(q.depth_stats(), None);
        });
    }

    #[test]
    fn depth_stats_match_a_known_sequence() {
        on_both(|mut q| {
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
        });
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        on_both(|mut q| {
            q.schedule(at(10), 0);
            q.pop();
            q.schedule(at(10), 1); // same instant as `now` — legal
            let (t, e) = q.pop().unwrap();
            assert_eq!((t, e), (at(10), 1));
        });
    }

    /// Far-future events must take the calendar's overflow path (the
    /// window spans ~134 ms) and still come back in exact order — this
    /// covers the overflow→ring promotion and the empty-ring window
    /// jump.
    #[test]
    fn calendar_far_future_overflow_round_trips() {
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        // A 30 s write-back sweep and a 2 min fault window, scheduled
        // before any near-term traffic.
        q.schedule(at(30_000_000), 100);
        q.schedule(at(120_000_000), 101);
        for i in 0..10 {
            q.schedule(at(10 + i), i);
        }
        let mut order = Vec::new();
        while let Some((_, e)) = q.pop() {
            order.push(e);
        }
        assert_eq!(order, (0..10).chain([100, 101]).collect::<Vec<_>>());
        // After the jump the clock sits at the far event; scheduling
        // near it must still work.
        assert_eq!(q.now(), at(120_000_000));
        q.schedule(at(120_000_001), 7);
        assert_eq!(q.pop(), Some((at(120_000_001), 7)));
    }

    /// Ties scheduled across the overflow boundary: events at the very
    /// same instant, some landing in the ring and some (scheduled
    /// while the window lay elsewhere) in overflow, must still pop in
    /// schedule order.
    #[test]
    fn calendar_ties_across_overflow_are_fifo() {
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        let far = 500_000; // µs — beyond the initial window
        for i in 0..5 {
            q.schedule(at(far), i); // overflow (window starts at 0)
        }
        q.schedule(at(1), 99);
        q.pop(); // advance; window still far behind `far`
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    /// A minimal xorshift so the equivalence test needs no outside
    /// crates (simkit depends only on lapobs).
    struct TestRng(u64);
    impl TestRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// The calendar backend is bit-equivalent to the heap reference:
    /// identical pop sequences (times and payloads), lengths, peeked
    /// times, and `QueueDepthStats` over randomized interleavings of
    /// push/pop/clear with ties and far-future (overflow) times.
    #[test]
    fn backends_agree_on_random_sequences() {
        for seed in 1..=8u64 {
            let mut rng = TestRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut heap = EventQueue::with_backend(QueueBackend::Heap);
            let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
            heap.enable_depth_tracking();
            cal.enable_depth_tracking();
            let mut payload = 0u64;
            for _ in 0..4000 {
                match rng.next() % 100 {
                    // Mostly pushes, with a mix of horizons:
                    0..=54 => {
                        let now = heap.now();
                        let offset = match rng.next() % 10 {
                            0 => 0, // tie with `now`
                            // near-term: within a bucket or two
                            1..=5 => rng.next() % 600,
                            // mid-term: within the window
                            6..=8 => rng.next() % 100_000,
                            // far-future: forces the overflow path
                            _ => 1_000_000 + rng.next() % 60_000_000,
                        };
                        let t = now + SimDuration::from_micros(offset);
                        heap.schedule(t, payload);
                        cal.schedule(t, payload);
                        payload += 1;
                    }
                    55..=94 => {
                        assert_eq!(heap.pop(), cal.pop());
                        assert_eq!(heap.now(), cal.now());
                    }
                    95 => {
                        heap.clear();
                        cal.clear();
                    }
                    _ => {
                        assert_eq!(heap.peek_time(), cal.peek_time());
                    }
                }
                assert_eq!(heap.len(), cal.len());
                assert_eq!(heap.depth_stats(), cal.depth_stats());
            }
            // Drain: the tails must agree too.
            loop {
                let (h, c) = (heap.pop(), cal.pop());
                assert_eq!(h, c);
                if h.is_none() {
                    break;
                }
            }
            assert_eq!(heap.depth_stats(), cal.depth_stats());
        }
    }
}
