//! # simcheck — runtime invariant oracle for the simulator
//!
//! The span model makes every read exactly decomposable, which means
//! conservation invariants are checkable per-request at near-zero
//! cost. This crate holds the bookkeeping for those checks, kept
//! deliberately *observational*: an [`Oracle`] never mutates
//! simulation state and never draws randomness, so a run produces
//! bit-identical results whether the oracle is on or off.
//!
//! What the oracle tracks (the event loop calls in at the marked
//! points; see DESIGN.md §15 for the full catalogue):
//!
//! * **Read conservation** — every issued read id completes exactly
//!   once: no loss across outage abort-and-reissue, no
//!   double-completion from stale `done_seq` events.
//! * **Span accounting** — the nine span components of a read sum
//!   exactly to its recorded latency (the event loop computes both
//!   sides and asks [`Oracle::check_span`] to compare).
//! * **Linear limit** — a prefetch engine's in-flight units never
//!   exceed the configured aggressiveness.
//! * **Degraded safety** — a remote hit is never served from a node
//!   currently in a node-outage window.
//! * **Requeue pairing** — a disk job an outage aborted goes back on
//!   its queue with the read id and priority it had when aborted, even
//!   when its stale completion overtakes an older one.
//! * **Queue monotonicity** — event timestamps never run backwards.
//! * **Liveness** — a watchdog trips if the loop processes a large
//!   number of events without simulated time advancing or a read
//!   completing (a spin would otherwise hang forever).
//!
//! Violations surface as `Err(String)`; the simulator panics with the
//! message plus a state dump, which is what turns a silent
//! conservation bug into a one-line diagnosis.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use simkit::{Priority, SimTime};

/// Whether the invariant oracle runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CheckMode {
    /// On in debug builds (and therefore in `cargo test`), off in
    /// release builds — the default, so tests always check and
    /// benchmarks never pay.
    #[default]
    Auto,
    /// Always on (what the chaos sweep uses, release builds included).
    On,
    /// Always off.
    Off,
}

impl CheckMode {
    /// Does this mode enable the oracle in the current build?
    pub fn enabled(self) -> bool {
        match self {
            CheckMode::Auto => cfg!(debug_assertions),
            CheckMode::On => true,
            CheckMode::Off => false,
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(CheckMode::Auto),
            "on" => Some(CheckMode::On),
            "off" => Some(CheckMode::Off),
            _ => None,
        }
    }
}

/// Events the loop may process without time advancing or a read
/// completing before the liveness watchdog trips. Legitimate same-time
/// bursts (every process resuming at t=0, a sweep flushing thousands
/// of blocks) stay far below this; a stuck loop crosses it in well
/// under a second of wall time.
pub const WATCHDOG_EVENTS: u64 = 5_000_000;

/// The invariant oracle. Purely observational bookkeeping: per-read
/// completion counts, the degraded-node set, the aborted disk jobs,
/// the last event timestamp and the watchdog counter. Allocation is
/// amortized (one growing `Vec<u8>` indexed by read id), so per-event
/// cost is a few loads.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Completion count per read id (ids are dense, so a Vec indexes
    /// directly). 0 = issued, 1 = completed, >1 = the bug.
    completions: Vec<u8>,
    /// Nodes currently inside a node-outage window.
    degraded: Vec<bool>,
    /// Read id and priority of every outage-aborted disk job not yet
    /// requeued, by disk and the sequence number of the stale
    /// completion that will requeue it.
    aborts: BTreeMap<(u32, u64), (u32, Priority)>,
    last_time: Option<SimTime>,
    /// Events since time last advanced or a read last completed.
    stuck_events: u64,
}

impl Oracle {
    /// A fresh oracle for a machine with `nodes` cache nodes.
    pub fn new(nodes: usize) -> Self {
        Oracle {
            completions: Vec::new(),
            degraded: vec![false; nodes],
            aborts: BTreeMap::new(),
            last_time: None,
            stuck_events: 0,
        }
    }

    /// Called once per popped event with its timestamp: enforces
    /// monotonicity and advances the liveness watchdog.
    pub fn on_event(&mut self, now: SimTime) -> Result<(), String> {
        match self.last_time {
            Some(last) if now < last => {
                return Err(format!(
                    "event queue ran backwards: popped t={:?} after t={:?}",
                    now, last
                ));
            }
            Some(last) if now == last => {
                self.stuck_events += 1;
                if self.stuck_events > WATCHDOG_EVENTS {
                    return Err(format!(
                        "liveness watchdog: {} events at t={:?} with no progress",
                        self.stuck_events, now
                    ));
                }
            }
            _ => {
                self.last_time = Some(now);
                self.stuck_events = 0;
            }
        }
        Ok(())
    }

    /// A demand read was issued under id `rid`. Ids must be dense and
    /// in order — that is how the simulator allocates them, and it is
    /// what lets completions index a flat `Vec`.
    pub fn read_issued(&mut self, rid: u32) -> Result<(), String> {
        if rid as usize != self.completions.len() {
            return Err(format!(
                "read id {} issued out of order (expected {})",
                rid,
                self.completions.len()
            ));
        }
        self.completions.push(0);
        Ok(())
    }

    /// The read `rid` completed (its latency was recorded). Exactly
    /// one completion per issued id is legal.
    pub fn read_completed(&mut self, rid: u32) -> Result<(), String> {
        self.stuck_events = 0;
        match self.completions.get_mut(rid as usize) {
            None => Err(format!("completion for never-issued read id {rid}")),
            Some(c) => {
                *c += 1;
                if *c > 1 {
                    Err(format!("read id {rid} completed {c} times"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Compare a read's span-component sum against its recorded
    /// latency; they must be exactly equal (the span model is additive
    /// by construction, so any drift is a lost or double-counted
    /// component).
    pub fn check_span(
        &self,
        rid: u32,
        component_sum: simkit::SimDuration,
        latency: simkit::SimDuration,
    ) -> Result<(), String> {
        if component_sum != latency {
            return Err(format!(
                "span components of read {rid} sum to {:?} but its latency is {:?}",
                component_sum, latency
            ));
        }
        Ok(())
    }

    /// A prefetch engine's in-flight units must never exceed the
    /// configured linear limit (extent batches charge one unit).
    pub fn check_limit(&self, file: u32, in_flight: usize, cap: usize) -> Result<(), String> {
        if in_flight > cap {
            return Err(format!(
                "linear limit exceeded on file {file}: {in_flight} units in flight, cap {cap}"
            ));
        }
        Ok(())
    }

    /// Mirror a node's degraded-mode transitions.
    pub fn set_degraded(&mut self, node: u32, degraded: bool) {
        let idx = node as usize;
        if idx >= self.degraded.len() {
            self.degraded.resize(idx + 1, false);
        }
        self.degraded[idx] = degraded;
    }

    /// A remote hit was served by `holder` — illegal while that node
    /// is inside a node-outage window.
    pub fn check_remote_hit(&self, holder: u32) -> Result<(), String> {
        if self.degraded.get(holder as usize).copied().unwrap_or(false) {
            return Err(format!("remote hit served by degraded node {holder}"));
        }
        Ok(())
    }

    /// An outage aborted `disk`'s job of read `rid` at priority
    /// `prio`; the stale completion numbered `seq` will requeue it.
    pub fn job_aborted(&mut self, disk: u32, seq: u64, rid: u32, prio: Priority) {
        self.aborts.insert((disk, seq), (rid, prio));
    }

    /// The stale completion numbered `seq` requeues a job on `disk`
    /// as read `rid` at priority `prio`: both must be what the job's
    /// abort recorded.
    pub fn check_requeue(
        &mut self,
        disk: u32,
        seq: u64,
        rid: u32,
        prio: Priority,
    ) -> Result<(), String> {
        match self.aborts.remove(&(disk, seq)) {
            Some(at_abort) if at_abort == (rid, prio) => Ok(()),
            Some((was_rid, was_prio)) => Err(format!(
                "disk {disk} requeued aborted job {seq} as read {rid} at priority {}, \
                 but it was aborted as read {was_rid} at priority {}",
                prio.0, was_prio.0
            )),
            None => Err(format!(
                "disk {disk} requeued job {seq}, which no outage aborted"
            )),
        }
    }

    /// End-of-run conservation: every issued read completed exactly
    /// once, and no fetch is still pending.
    pub fn end_of_run(&self, pending_fetches: usize) -> Result<(), String> {
        if pending_fetches != 0 {
            return Err(format!(
                "{pending_fetches} fetches still pending at end of run"
            ));
        }
        let lost: Vec<usize> = self
            .completions
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 1)
            .map(|(i, _)| i)
            .take(8)
            .collect();
        if !lost.is_empty() {
            let bad = self.completions.iter().filter(|c| **c != 1).count();
            return Err(format!(
                "{bad} of {} reads did not complete exactly once (first ids: {:?})",
                self.completions.len(),
                lost
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn mode_enablement() {
        assert!(CheckMode::On.enabled());
        assert!(!CheckMode::Off.enabled());
        assert_eq!(CheckMode::Auto.enabled(), cfg!(debug_assertions));
        assert_eq!(CheckMode::parse("on"), Some(CheckMode::On));
        assert_eq!(CheckMode::parse("off"), Some(CheckMode::Off));
        assert_eq!(CheckMode::parse("auto"), Some(CheckMode::Auto));
        assert_eq!(CheckMode::parse("maybe"), None);
    }

    #[test]
    fn conservation_happy_path() {
        let mut o = Oracle::new(2);
        o.read_issued(0).unwrap();
        o.read_issued(1).unwrap();
        o.read_completed(0).unwrap();
        o.read_completed(1).unwrap();
        o.end_of_run(0).unwrap();
    }

    #[test]
    fn detects_lost_and_double_completion() {
        let mut o = Oracle::new(1);
        o.read_issued(0).unwrap();
        o.read_issued(1).unwrap();
        o.read_completed(0).unwrap();
        assert!(o.read_completed(0).is_err(), "double completion");
        let mut o = Oracle::new(1);
        o.read_issued(0).unwrap();
        assert!(o.end_of_run(0).is_err(), "lost read");
        assert!(o.read_completed(7).is_err(), "never-issued id");
        assert!(o.read_issued(5).is_err(), "out-of-order id");
    }

    #[test]
    fn detects_pending_fetches_at_end() {
        let o = Oracle::new(1);
        assert!(o.end_of_run(3).is_err());
    }

    #[test]
    fn monotonicity_and_watchdog() {
        let mut o = Oracle::new(1);
        o.on_event(t(1)).unwrap();
        o.on_event(t(2)).unwrap();
        assert!(o.on_event(t(1)).is_err(), "time ran backwards");

        let mut o = Oracle::new(1);
        for _ in 0..1000 {
            o.on_event(t(5)).unwrap();
        }
        o.stuck_events = WATCHDOG_EVENTS; // fast-forward the counter
        assert!(o.on_event(t(5)).is_err(), "watchdog");
        // A read completion counts as progress.
        let mut o = Oracle::new(1);
        o.read_issued(0).unwrap();
        o.on_event(t(5)).unwrap();
        o.stuck_events = WATCHDOG_EVENTS;
        o.read_completed(0).unwrap();
        o.on_event(t(5)).unwrap();
    }

    #[test]
    fn span_and_limit_checks() {
        let o = Oracle::new(1);
        let d = SimDuration::from_millis(3);
        o.check_span(0, d, d).unwrap();
        assert!(o.check_span(0, d, d + SimDuration::from_nanos(1)).is_err());
        o.check_limit(9, 3, 3).unwrap();
        assert!(o.check_limit(9, 4, 3).is_err());
    }

    #[test]
    fn requeue_must_match_its_abort() {
        let mut o = Oracle::new(1);
        o.job_aborted(3, 7, 11, Priority(0));
        o.job_aborted(3, 8, 12, Priority(2));
        let e = o.check_requeue(3, 8, 11, Priority(0)).unwrap_err();
        assert!(e.contains("aborted as read 12 at priority 2"), "{e}");
        o.check_requeue(3, 7, 11, Priority(0)).unwrap();
        assert!(
            o.check_requeue(3, 7, 11, Priority(0)).is_err(),
            "requeued twice"
        );
    }

    #[test]
    fn degraded_holders_flagged() {
        let mut o = Oracle::new(4);
        o.check_remote_hit(2).unwrap();
        o.set_degraded(2, true);
        assert!(o.check_remote_hit(2).is_err());
        o.set_degraded(2, false);
        o.check_remote_hit(2).unwrap();
        // Out-of-range nodes are simply not degraded.
        o.check_remote_hit(99).unwrap();
    }
}
