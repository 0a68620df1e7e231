//! Recorders: where emitted events go.

use crate::event::{Event, Nanos};

/// An event sink. Emission sites are written as
///
/// ```ignore
/// if rec.enabled() {
///     rec.record(now_ns, Event::CacheMiss { node });
/// }
/// ```
///
/// and instrumented code is generic over `R: Recorder` (static
/// dispatch). With [`NoopRecorder`], `enabled()` is an inlineable
/// constant `false`, so the whole site — including construction of the
/// event value — is dead code the optimizer removes.
///
/// The trait is object-safe: layers that cannot be generic (e.g.
/// behind a `dyn` trait) may take `&mut dyn Recorder` instead, paying
/// one virtual call per emission when tracing is on.
pub trait Recorder {
    /// Whether events will actually be kept. Guard every emission site
    /// with this; it is the hook that makes the no-op path free.
    fn enabled(&self) -> bool;

    /// Record one event at simulated time `t`.
    fn record(&mut self, t: Nanos, ev: Event);
}

/// The default recorder: drops everything, compiles to nothing.
///
/// A zero-sized type — embedding it in a simulation adds no state, and
/// `enabled()` folds to `false` at compile time under static dispatch.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _t: Nanos, _ev: Event) {}
}

/// Number of high-volume event kinds subject to stratified sampling.
const SAMPLED_KINDS: usize = 12;

/// Sampling stratum of a high-volume event kind, or `None` for rare
/// kinds (walk lifecycle, mispredicts, reorders, evictions, sweeps...)
/// that are always kept regardless of the sampling rate.
fn sampled_kind(ev: &Event) -> Option<usize> {
    match ev {
        Event::QueuePush { .. } => Some(0),
        Event::QueuePop { .. } => Some(1),
        Event::ServiceBegin { .. } => Some(2),
        Event::ServiceEnd { .. } => Some(3),
        Event::SimQueueDepth { .. } => Some(4),
        Event::DiskService { .. } => Some(5),
        Event::CacheHitLocal { .. } => Some(6),
        Event::CacheHitRemote { .. } => Some(7),
        Event::CacheMiss { .. } => Some(8),
        Event::CacheInsert { .. } => Some(9),
        Event::ReadDone { .. } => Some(10),
        Event::WriteDone { .. } => Some(11),
        _ => None,
    }
}

/// Display label for a sampling stratum (see
/// [`TraceRecorder::sampled_counts`]).
fn sampled_kind_label(idx: usize) -> &'static str {
    [
        "queue-push",
        "queue-pop",
        "service-begin",
        "service-end",
        "sim-queue-depth",
        "disk-service",
        "cache-hit-local",
        "cache-hit-remote",
        "cache-miss",
        "cache-insert",
        "read-done",
        "write-done",
    ][idx]
}

/// A bounded ring buffer of timestamped events.
///
/// When full, the oldest events are overwritten and counted in
/// [`dropped`](TraceRecorder::dropped) — a long run keeps its *tail*,
/// which is normally what a trace viewer wants.
///
/// For paper-scale runs whose full stream would not fit, a *stratified
/// sampling* mode ([`with_sampling`](TraceRecorder::with_sampling))
/// keeps every rare event (walk lifecycle, mispredicts, reorders,
/// evictions, write-backs) but records only one in `N` of each
/// high-volume kind (queue activity, service spans, cache lookups,
/// request completions), counting what was skipped per kind so the
/// trace stays quantitatively honest.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    buf: Vec<(Nanos, Event)>,
    cap: usize,
    /// Index of the oldest element once the buffer has wrapped.
    head: usize,
    dropped: u64,
    /// Keep 1 in `sample_every` of each high-volume kind (1 = all).
    sample_every: u64,
    /// Per-stratum events seen (sampling mode only).
    seen: [u64; SAMPLED_KINDS],
    /// Per-stratum events kept (sampling mode only).
    kept: [u64; SAMPLED_KINDS],
    /// Per-station keep decision of the open service span, so a kept
    /// `ServiceBegin` always gets its `ServiceEnd` (and `DiskService`
    /// detail) and a skipped one drops the whole span. Keyed by
    /// station index (every station is a disk).
    span_keep: std::collections::HashMap<u32, bool>,
}

impl TraceRecorder {
    /// Default capacity: 2²⁰ events (~24 MB) — enough for the full
    /// event stream of the small experiment scales.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Create a recorder with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Create a recorder keeping at most `cap` events (`cap >= 1`).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 1, "capacity must be at least 1");
        TraceRecorder {
            buf: Vec::new(),
            cap,
            head: 0,
            dropped: 0,
            sample_every: 1,
            seen: [0; SAMPLED_KINDS],
            kept: [0; SAMPLED_KINDS],
            span_keep: std::collections::HashMap::new(),
        }
    }

    /// Create a recorder that keeps 1 in `every` events of each
    /// high-volume kind (stratified per kind; `every >= 1`). Rare
    /// kinds are always kept. Service spans are sampled as whole
    /// begin/end pairs.
    pub fn with_sampling(cap: usize, every: u64) -> Self {
        assert!(every >= 1, "sampling rate must be at least 1");
        let mut r = Self::with_capacity(cap);
        r.sample_every = every;
        r
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything dropped).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were overwritten after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The sampling rate (1 = keep everything).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Per-kind `(label, seen, kept)` for the sampled high-volume
    /// strata, in a fixed order. Only strata that saw events are
    /// yielded.
    pub fn sampled_counts(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        (0..SAMPLED_KINDS)
            .filter(|&i| self.seen[i] > 0)
            .map(|i| (sampled_kind_label(i), self.seen[i], self.kept[i]))
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(Nanos, Event)> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Whether a high-volume event passes the sampling filter,
    /// updating the per-stratum counters.
    fn admit(&mut self, ev: &Event) -> bool {
        match ev {
            // Service spans sample as pairs: the Begin decides, the
            // matching End (and any DiskService detail in between)
            // follows that decision.
            Event::ServiceBegin { station, .. } => {
                let k = 2;
                self.seen[k] += 1;
                let keep = (self.seen[k] - 1).is_multiple_of(self.sample_every);
                self.span_keep.insert(station.index, keep);
                if keep {
                    self.kept[k] += 1;
                }
                keep
            }
            Event::ServiceEnd { station, .. } => {
                let k = 3;
                self.seen[k] += 1;
                let keep = self.span_keep.remove(&station.index).unwrap_or(true);
                if keep {
                    self.kept[k] += 1;
                }
                keep
            }
            Event::DiskService { station, .. } => {
                let k = 5;
                self.seen[k] += 1;
                let keep = *self.span_keep.get(&station.index).unwrap_or(&true);
                if keep {
                    self.kept[k] += 1;
                }
                keep
            }
            other => match sampled_kind(other) {
                Some(k) => {
                    self.seen[k] += 1;
                    let keep = (self.seen[k] - 1).is_multiple_of(self.sample_every);
                    if keep {
                        self.kept[k] += 1;
                    }
                    keep
                }
                None => true,
            },
        }
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for TraceRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn record(&mut self, t: Nanos, ev: Event) {
        if self.sample_every > 1 && !self.admit(&ev) {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push((t, ev));
        } else {
            self.buf[self.head] = (t, ev);
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

/// A borrowed emission context: a timestamp, a scope id (e.g. the file
/// a prefetch engine works on), and the recorder — bundled so that
/// instrumented inner loops take one extra argument instead of three.
pub struct Obs<'a, R: Recorder> {
    t: Nanos,
    scope: u32,
    rec: &'a mut R,
}

impl<'a, R: Recorder> Obs<'a, R> {
    /// Bundle a context. `scope` is passed back to every emission
    /// closure (see [`emit`](Obs::emit)).
    pub fn new(t: Nanos, scope: u32, rec: &'a mut R) -> Self {
        Obs { t, scope, rec }
    }

    /// Whether emissions will be kept; cheap enough to guard loops.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.rec.enabled()
    }

    /// Emit the event built by `f` (called with the scope id) — only
    /// when the recorder is enabled, so the closure body is free on the
    /// no-op path.
    #[inline(always)]
    pub fn emit(&mut self, f: impl FnOnce(u32) -> Event) {
        if self.rec.enabled() {
            let ev = f(self.scope);
            self.rec.record(self.t, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StationId;

    #[test]
    fn noop_recorder_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.record(0, Event::CacheMiss { node: 0, rid: 0 }); // accepted, dropped
    }

    #[test]
    fn trace_recorder_keeps_events_in_order() {
        let mut r = TraceRecorder::with_capacity(8);
        assert!(r.enabled());
        for i in 0..5u64 {
            r.record(i * 10, Event::SimQueueDepth { depth: i as u32 });
        }
        let ts: Vec<Nanos> = r.events().map(|&(t, _)| t).collect();
        assert_eq!(ts, vec![0, 10, 20, 30, 40]);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = TraceRecorder::with_capacity(4);
        for i in 0..10u64 {
            r.record(i, Event::SimQueueDepth { depth: i as u32 });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let ts: Vec<Nanos> = r.events().map(|&(t, _)| t).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "tail survives, oldest first");
    }

    #[test]
    fn obs_context_emits_with_scope() {
        let mut rec = TraceRecorder::with_capacity(4);
        let mut obs = Obs::new(500, 7, &mut rec);
        assert!(obs.enabled());
        obs.emit(|file| Event::WalkStart {
            file,
            block: 3,
            rid: 9,
            gen: 1,
        });
        let evs: Vec<_> = rec.events().cloned().collect();
        assert_eq!(
            evs,
            vec![(
                500,
                Event::WalkStart {
                    file: 7,
                    block: 3,
                    rid: 9,
                    gen: 1,
                }
            )]
        );
    }

    #[test]
    fn obs_context_on_noop_emits_nothing() {
        let mut rec = NoopRecorder;
        let mut obs = Obs::new(1, 2, &mut rec);
        assert!(!obs.enabled());
        obs.emit(|file| Event::WalkStart {
            file,
            block: 0,
            rid: 0,
            gen: 0,
        });
    }

    #[test]
    fn sampling_keeps_rare_kinds_and_strides_high_volume() {
        let mut r = TraceRecorder::with_sampling(1024, 4);
        for i in 0..16u64 {
            r.record(
                i,
                Event::CacheMiss {
                    node: 0,
                    rid: i as u32,
                },
            );
            r.record(
                i,
                Event::Mispredict {
                    file: 0,
                    block: i,
                    rid: i as u32,
                },
            );
        }
        let misses = r
            .events()
            .filter(|(_, e)| matches!(e, Event::CacheMiss { .. }))
            .count();
        let mispredicts = r
            .events()
            .filter(|(_, e)| matches!(e, Event::Mispredict { .. }))
            .count();
        assert_eq!(misses, 4, "1-in-4 of the high-volume kind");
        assert_eq!(mispredicts, 16, "rare kinds always kept");
        let (label, seen, kept) = r
            .sampled_counts()
            .find(|(l, _, _)| *l == "cache-miss")
            .unwrap();
        assert_eq!((label, seen, kept), ("cache-miss", 16, 4));
    }

    #[test]
    fn sampling_keeps_service_spans_paired() {
        let disk = StationId::disk(0);
        let mut r = TraceRecorder::with_sampling(1024, 3);
        for i in 0..9u64 {
            r.record(
                i * 10,
                Event::ServiceBegin {
                    station: disk,
                    class: 0,
                    rid: i as u32,
                },
            );
            r.record(
                i * 10 + 5,
                Event::ServiceEnd {
                    station: disk,
                    class: 0,
                    rid: i as u32,
                },
            );
        }
        let begins: Vec<u32> = r
            .events()
            .filter_map(|(_, e)| match e {
                Event::ServiceBegin { rid, .. } => Some(*rid),
                _ => None,
            })
            .collect();
        let ends: Vec<u32> = r
            .events()
            .filter_map(|(_, e)| match e {
                Event::ServiceEnd { rid, .. } => Some(*rid),
                _ => None,
            })
            .collect();
        assert_eq!(begins, ends, "every kept Begin has its End");
        assert_eq!(begins, vec![0, 3, 6]);
    }

    #[test]
    fn sampling_rate_one_keeps_everything() {
        let mut a = TraceRecorder::with_sampling(64, 1);
        let mut b = TraceRecorder::with_capacity(64);
        for i in 0..10u64 {
            let ev = Event::SimQueueDepth { depth: i as u32 };
            a.record(i, ev);
            b.record(i, ev);
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn recorder_is_object_safe() {
        let mut tr = TraceRecorder::with_capacity(2);
        let dynrec: &mut dyn Recorder = &mut tr;
        dynrec.record(
            1,
            Event::ServiceBegin {
                station: StationId::disk(0),
                class: 0,
                rid: 0,
            },
        );
        assert_eq!(tr.len(), 1);
    }
}
