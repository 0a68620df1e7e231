//! # simprof — self-profiling of the simulator itself
//!
//! Every other observability layer in this workspace watches the
//! *simulated* system (lapobs events, request spans, the metrics
//! Registry). `simprof` watches the *simulator*: how much work the
//! event loop did to produce a result, and how fast it did it. The
//! ROADMAP's cluster-scale and event-queue items need this instrument
//! first — a bucketed queue or a parallel sweep runner can only be
//! judged against a baseline profile that CI keeps honest.
//!
//! The profile has two strictly separated halves:
//!
//! * **Deterministic cost counters** ([`Counters`]) — events popped,
//!   queue pushes, peak/mean event-queue depth, station dispatches,
//!   predictor table lookups/updates, cache metadata probes. These
//!   count *algorithmic* work, so they are bit-stable across runs and
//!   machines and can be compared exactly in CI (`lapreport
//!   bench-diff` hard-fails on any drift).
//! * **Wall-clock phase timers** ([`PhaseWall`]) and the throughput
//!   derived from them (simulated-reads/sec, events/sec). Wall time is
//!   machine noise — a loaded laptop is half the speed of an idle one
//!   — so these are reported informationally and only ever *warn* in
//!   CI.
//!
//! Behind the `count-alloc` cargo feature the crate additionally
//! installs a counting global allocator, so the profile can report
//! allocations per simulated read. The feature is off by default: a
//! `#[global_allocator]` is a whole-binary decision, and the counter
//! is process-global — it sees every thread's allocations, so it is
//! only meaningful for single-threaded runs (`lapsim --profile`,
//! `experiments perf`), never for the parallel sweep grids.

#![warn(missing_docs)]
// `deny` rather than the workspace-usual `forbid` — the counting
// allocator below needs one `unsafe impl GlobalAlloc`, scoped to its
// own module, and `forbid` cannot be overridden locally.
#![deny(unsafe_code)]

use std::fmt::Write as _;
use std::time::Duration;

/// Deterministic cost counters for one simulation run.
///
/// Every field counts a unit of algorithmic work whose tally depends
/// only on the configuration, workload, and seed — never on the
/// machine, thread timing, or allocator. Two same-seed runs must
/// produce identical `Counters`; CI gates on this.
///
/// Counters are accumulated as integers only (the same discipline the
/// metrics Registry uses), so map iteration order cannot leak into
/// them; ratios like [`Counters::mean_queue_depth`] are derived at
/// display time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events popped from the event queue (one per main-loop turn).
    pub events: u64,
    /// Events pushed onto the event queue.
    pub queue_pushes: u64,
    /// Largest number of pending events observed after any push.
    pub peak_queue_depth: u64,
    /// Sum over all pops of the queue depth at the moment of the pop
    /// (counting the popped event itself). Divided by `events` this
    /// gives the mean depth seen by the hot loop.
    pub queue_depth_ticks: u64,
    /// Jobs that began service at any station (disk dispatches).
    pub station_dispatches: u64,
    /// Predictor table lookups: calls that consult the per-file model
    /// to produce or advance a prediction.
    pub pred_lookups: u64,
    /// Predictor table updates: accesses observed into the model.
    pub pred_updates: u64,
    /// Cooperative-cache metadata probes: lookups, insertions, and
    /// membership tests against the cache's block-location tables.
    pub cache_probes: u64,
}

impl Counters {
    /// Mean event-queue depth seen by the event loop, or 0 for an
    /// empty run.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.queue_depth_ticks as f64 / self.events as f64
        }
    }

    /// Events popped per simulated read — the headline "how much
    /// simulator work does one unit of simulated work cost" ratio.
    pub fn events_per_read(&self, reads: u64) -> f64 {
        if reads == 0 {
            0.0
        } else {
            self.events as f64 / reads as f64
        }
    }
}

/// Wall-clock time spent in each phase of a run.
///
/// Machine-dependent by nature: report, compare informally, never
/// hard-gate.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseWall {
    /// Building the workload-validated `Simulation` (caches, stations,
    /// per-process state).
    pub setup: Duration,
    /// The event loop proper, from the first scheduled event to queue
    /// drain.
    pub event_loop: Duration,
    /// Finalisation: merging statistics and building the report.
    pub report: Duration,
}

impl PhaseWall {
    /// Total wall time across all three phases.
    pub fn total(&self) -> Duration {
        self.setup + self.event_loop + self.report
    }
}

/// A complete self-profile for one simulation run: deterministic
/// counters plus informational wall-clock data.
///
/// Deliberately *not* part of `SimReport` — the report derives
/// `PartialEq` and is the subject of several bit-identity gates
/// (profiled vs unprofiled, traced vs untraced), so anything
/// machine-noisy must live outside it.
#[derive(Clone, Debug)]
pub struct SimProfile {
    /// Deterministic cost counters (bit-stable; CI hard-gates them).
    pub counters: Counters,
    /// Post-warmup simulated reads the run measured, the denominator
    /// for per-read ratios.
    pub reads: u64,
    /// Wall-clock phase timers (machine noise; warn-only).
    pub wall: PhaseWall,
    /// Allocations performed during the event loop, when the
    /// `count-alloc` feature compiled the counting allocator in.
    /// `None` otherwise. Process-global: only meaningful for
    /// single-threaded runs.
    pub allocs: Option<u64>,
}

impl SimProfile {
    /// Simulated reads completed per wall-clock second of event loop.
    pub fn reads_per_sec(&self) -> f64 {
        per_sec(self.reads, self.wall.event_loop)
    }

    /// Events processed per wall-clock second of event loop.
    pub fn events_per_sec(&self) -> f64 {
        per_sec(self.counters.events, self.wall.event_loop)
    }

    /// Allocations per simulated read, when the counting allocator is
    /// compiled in and the run measured any reads.
    pub fn allocs_per_read(&self) -> Option<f64> {
        match (self.allocs, self.reads) {
            (Some(a), r) if r > 0 => Some(a as f64 / r as f64),
            _ => None,
        }
    }

    /// Render the profile as a human-readable block, deterministic
    /// counters first, wall-clock data clearly marked as informational.
    pub fn render(&self) -> String {
        let c = &self.counters;
        let mut out = String::new();
        let _ = writeln!(out, "simulator self-profile");
        let _ = writeln!(out, "  deterministic counters (bit-stable, CI-gated):");
        let _ = writeln!(
            out,
            "    events popped        {:>12}  ({:.2} per read)",
            c.events,
            c.events_per_read(self.reads)
        );
        let _ = writeln!(out, "    queue pushes         {:>12}", c.queue_pushes);
        let _ = writeln!(
            out,
            "    queue depth          {:>12}  peak, {:.2} mean",
            c.peak_queue_depth,
            c.mean_queue_depth()
        );
        let _ = writeln!(out, "    station dispatches   {:>12}", c.station_dispatches);
        let _ = writeln!(
            out,
            "    predictor table ops  {:>12}  ({} lookups + {} updates)",
            c.pred_lookups + c.pred_updates,
            c.pred_lookups,
            c.pred_updates
        );
        let _ = writeln!(out, "    cache metadata probes{:>12}", c.cache_probes);
        if let Some(apr) = self.allocs_per_read() {
            let _ = writeln!(
                out,
                "    allocations          {:>12}  ({apr:.1} per read, count-alloc)",
                self.allocs.unwrap_or(0)
            );
        }
        let _ = writeln!(out, "  wall clock (informational, machine-dependent):");
        let _ = writeln!(
            out,
            "    setup {:.3} ms | event loop {:.3} ms | report {:.3} ms",
            ms(self.wall.setup),
            ms(self.wall.event_loop),
            ms(self.wall.report)
        );
        let _ = writeln!(
            out,
            "    throughput: {:.0} simulated reads/s, {:.0} events/s",
            self.reads_per_sec(),
            self.events_per_sec()
        );
        out
    }
}

fn per_sec(count: u64, wall: Duration) -> f64 {
    let s = wall.as_secs_f64();
    if s > 0.0 {
        count as f64 / s
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Total allocations performed by this process so far, when the
/// `count-alloc` feature installed the counting allocator; `None`
/// otherwise. Callers take a delta around the region of interest.
pub fn alloc_count() -> Option<u64> {
    #[cfg(feature = "count-alloc")]
    {
        Some(alloc::count())
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        None
    }
}

/// Counting global allocator, compiled in only under `count-alloc`.
///
/// Wraps `std::alloc::System` and bumps a relaxed atomic on every
/// `alloc`/`realloc`. Caveats, spelled out because they are easy to
/// trip over: the count is *process-global* (every thread, every
/// subsystem — including the profiler's own report formatting), so it
/// is only meaningful as a delta around a single-threaded region; and
/// it measures allocator *calls*, not bytes or peak footprint.
#[cfg(feature = "count-alloc")]
#[allow(unsafe_code)]
mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub(crate) fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimProfile {
        SimProfile {
            counters: Counters {
                events: 1000,
                queue_pushes: 1100,
                peak_queue_depth: 12,
                queue_depth_ticks: 4000,
                station_dispatches: 300,
                pred_lookups: 200,
                pred_updates: 150,
                cache_probes: 900,
            },
            reads: 250,
            wall: PhaseWall {
                setup: Duration::from_millis(2),
                event_loop: Duration::from_millis(40),
                report: Duration::from_millis(1),
            },
            allocs: None,
        }
    }

    #[test]
    fn derived_ratios() {
        let p = sample();
        assert_eq!(p.counters.events_per_read(p.reads), 4.0);
        assert_eq!(p.counters.mean_queue_depth(), 4.0);
        assert!(p.events_per_sec() > 0.0);
        assert!(p.reads_per_sec() > 0.0);
    }

    #[test]
    fn empty_run_has_zero_ratios() {
        let c = Counters::default();
        assert_eq!(c.mean_queue_depth(), 0.0);
        assert_eq!(c.events_per_read(0), 0.0);
        let p = SimProfile {
            counters: c,
            reads: 0,
            wall: PhaseWall::default(),
            allocs: None,
        };
        assert_eq!(p.reads_per_sec(), 0.0);
        assert_eq!(p.allocs_per_read(), None);
    }

    #[test]
    fn render_marks_wall_as_informational() {
        let text = sample().render();
        assert!(text.contains("bit-stable"));
        assert!(text.contains("informational"));
        assert!(text.contains("events popped"));
        // No alloc line unless the counting allocator measured one.
        assert!(!text.contains("count-alloc") || cfg!(feature = "count-alloc"));
    }

    #[cfg(feature = "count-alloc")]
    #[test]
    fn counting_allocator_counts() {
        let before = alloc_count().unwrap();
        let v: Vec<u64> = (0..1024).collect();
        assert_eq!(v.len(), 1024);
        let after = alloc_count().unwrap();
        assert!(after > before, "allocation went uncounted");
    }
}
