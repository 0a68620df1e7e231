//! Chrome trace-event JSON exporter.
//!
//! Produces the classic `chrome://tracing` / Perfetto "JSON object
//! format": a `traceEvents` array of `B`/`E` span pairs (station
//! service), `i` instants (cache activity, prefetch decisions,
//! write-backs), and `C` counters (queue depths). Tracks:
//!
//! * one thread track per disk station (`disk 0`, `disk 1`...);
//! * one thread track per node (`node 0`...) carrying its cache and
//!   request-completion instants;
//! * a `prefetch` track (walk lifecycle, miss-predictions) and a
//!   `writeback` track;
//! * counter tracks for per-station queue depth and the central event
//!   list.
//!
//! The exporter is a single forward pass that emits thread-name
//! metadata at each track's first appearance, so identical event
//! streams export to identical bytes — the golden-file test in the
//! root crate depends on that.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::event::{Event, Nanos, StationId, WalkStopReason};

const PID: u32 = 1;
/// Track ids. Stations and nodes get disjoint ranges so a trace can
/// hold (say) disk 0 and node 0 as separate tracks.
const TID_PREFETCH: u32 = 3;
const TID_WRITEBACK: u32 = 4;
const TID_FAULTS: u32 = 5;
const TID_DISK_BASE: u32 = 10;
const TID_NODE_BASE: u32 = 5000;

fn station_tid(s: StationId) -> u32 {
    TID_DISK_BASE + s.index
}

fn station_name(s: StationId) -> String {
    format!("disk {}", s.index)
}

/// Priority-class display names (simkit's disk priority convention).
fn class_name(class: u8) -> &'static str {
    match class {
        0 => "demand",
        1 => "writeback",
        2 => "prefetch",
        _ => "other",
    }
}

fn stop_reason(r: WalkStopReason) -> &'static str {
    match r {
        WalkStopReason::Exhausted => "exhausted",
        WalkStopReason::Budget => "budget",
        WalkStopReason::CachedRun => "cached-run",
    }
}

/// Format simulated nanoseconds as the microsecond timestamps chrome
/// tracing expects, with fixed three-decimal precision (byte-stable).
fn ts(t: Nanos) -> String {
    format!("{}.{:03}", t / 1_000, t % 1_000)
}

struct Writer {
    out: String,
    named: HashSet<u32>,
}

impl Writer {
    fn new() -> Self {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"args\":{{\"name\":\"lapsim\"}}}}"
        );
        Writer {
            out,
            named: HashSet::new(),
        }
    }

    /// Emit the thread-name metadata record the first time a track is
    /// used.
    fn ensure_track(&mut self, tid: u32, name: &str) {
        if self.named.insert(tid) {
            let _ = write!(
                self.out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
    }

    fn span(&mut self, phase: char, t: Nanos, tid: u32, name: &str, args: &str) {
        let _ = write!(
            self.out,
            ",\n{{\"name\":\"{name}\",\"ph\":\"{phase}\",\"pid\":{PID},\"tid\":{tid},\"ts\":{}{args}}}",
            ts(t)
        );
    }

    fn instant(&mut self, t: Nanos, tid: u32, name: &str, args: &str) {
        let _ = write!(
            self.out,
            ",\n{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID},\"tid\":{tid},\"ts\":{}{args}}}",
            ts(t)
        );
    }

    fn counter(&mut self, t: Nanos, name: &str, key: &str, value: u32) {
        let _ = write!(
            self.out,
            ",\n{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\"ts\":{},\"args\":{{\"{key}\":{value}}}}}",
            ts(t)
        );
    }

    fn node_track(&mut self, node: u32) -> u32 {
        let tid = TID_NODE_BASE + node;
        self.ensure_track(tid, &format!("node {node}"));
        tid
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Export an event stream (oldest first) as Chrome trace-event JSON.
///
/// ```
/// use lapobs::{chrome, Event};
///
/// let events = vec![(1_000u64, Event::CacheMiss { node: 0, rid: 0 })];
/// let json = chrome::export(events.iter());
/// assert!(json.contains("\"traceEvents\""));
/// ```
pub fn export<'a>(events: impl IntoIterator<Item = &'a (Nanos, Event)>) -> String {
    let mut w = Writer::new();
    for &(t, ev) in events {
        match ev {
            Event::QueuePush { station, depth, .. } | Event::QueuePop { station, depth, .. } => {
                let name = format!("{} queue", station_name(station));
                w.counter(t, &name, "len", depth);
            }
            Event::ServiceBegin { station, class, .. } => {
                let tid = station_tid(station);
                w.ensure_track(tid, &station_name(station));
                let args = format!(",\"args\":{{\"class\":{class}}}");
                w.span('B', t, tid, class_name(class), &args);
            }
            Event::ServiceEnd { station, class, .. } => {
                let tid = station_tid(station);
                w.ensure_track(tid, &station_name(station));
                w.span('E', t, tid, class_name(class), "");
            }
            Event::SimQueueDepth { depth } => {
                w.counter(t, "event-loop", "pending", depth);
            }
            Event::DiskService {
                station,
                seek_cylinders,
                rot_wait_ns,
                ..
            } => {
                let tid = station_tid(station);
                w.ensure_track(tid, &station_name(station));
                let args = format!(
                    ",\"args\":{{\"seek_cyls\":{seek_cylinders},\"rot_wait_ns\":{rot_wait_ns}}}"
                );
                w.instant(t, tid, "mech", &args);
            }
            Event::QueueReorder {
                station,
                class,
                picked,
                ..
            } => {
                let tid = station_tid(station);
                w.ensure_track(tid, &station_name(station));
                let args = format!(
                    ",\"args\":{{\"class\":\"{}\",\"picked\":{picked}}}",
                    class_name(class)
                );
                w.instant(t, tid, "reorder", &args);
            }
            Event::CacheHitLocal { node, .. } => {
                let tid = w.node_track(node);
                w.instant(t, tid, "hit local", "");
            }
            Event::CacheHitRemote { node, holder, .. } => {
                let tid = w.node_track(node);
                let args = format!(",\"args\":{{\"holder\":{holder}}}");
                w.instant(t, tid, "hit remote", &args);
            }
            Event::CacheMiss { node, .. } => {
                let tid = w.node_track(node);
                w.instant(t, tid, "miss", "");
            }
            Event::CacheInsert { node, prefetch } => {
                let tid = w.node_track(node);
                let args = format!(",\"args\":{{\"prefetch\":{prefetch}}}");
                w.instant(t, tid, "insert", &args);
            }
            Event::CacheEvict {
                node,
                dirty,
                wasted_prefetch,
            } => {
                let tid = w.node_track(node);
                let args = format!(
                    ",\"args\":{{\"dirty\":{dirty},\"wasted_prefetch\":{wasted_prefetch}}}"
                );
                w.instant(t, tid, "evict", &args);
            }
            Event::CacheForward { count } => {
                w.ensure_track(TID_WRITEBACK, "writeback");
                let args = format!(",\"args\":{{\"count\":{count}}}");
                w.instant(t, TID_WRITEBACK, "forward", &args);
            }
            Event::CacheForwardDrop { count } => {
                w.ensure_track(TID_WRITEBACK, "writeback");
                let args = format!(",\"args\":{{\"count\":{count}}}");
                w.instant(t, TID_WRITEBACK, "forward drop", &args);
            }
            Event::CacheInvalidate { count } => {
                w.ensure_track(TID_WRITEBACK, "writeback");
                let args = format!(",\"args\":{{\"count\":{count}}}");
                w.instant(t, TID_WRITEBACK, "invalidate", &args);
            }
            Event::WalkStart { file, block, .. } => {
                w.ensure_track(TID_PREFETCH, "prefetch");
                let args = format!(",\"args\":{{\"file\":{file},\"block\":{block}}}");
                w.instant(t, TID_PREFETCH, "walk start", &args);
            }
            Event::WalkRestart { file, block, .. } => {
                w.ensure_track(TID_PREFETCH, "prefetch");
                let args = format!(",\"args\":{{\"file\":{file},\"block\":{block}}}");
                w.instant(t, TID_PREFETCH, "walk restart", &args);
            }
            Event::WalkStop { file, reason } => {
                w.ensure_track(TID_PREFETCH, "prefetch");
                let args = format!(
                    ",\"args\":{{\"file\":{file},\"reason\":\"{}\"}}",
                    stop_reason(reason)
                );
                w.instant(t, TID_PREFETCH, "walk stop", &args);
            }
            Event::Mispredict { file, block, .. } => {
                w.ensure_track(TID_PREFETCH, "prefetch");
                let args = format!(",\"args\":{{\"file\":{file},\"block\":{block}}}");
                w.instant(t, TID_PREFETCH, "mispredict", &args);
            }
            Event::PrefetchIssue { file, block, .. } => {
                w.ensure_track(TID_PREFETCH, "prefetch");
                let args = format!(",\"args\":{{\"file\":{file},\"block\":{block}}}");
                w.instant(t, TID_PREFETCH, "issue", &args);
            }
            Event::ExtentIssue {
                file,
                first_block,
                blocks,
                ..
            } => {
                w.ensure_track(TID_PREFETCH, "prefetch");
                let args = format!(
                    ",\"args\":{{\"file\":{file},\"first_block\":{first_block},\"blocks\":{blocks}}}"
                );
                w.instant(t, TID_PREFETCH, "extent issue", &args);
            }
            Event::PrefetchAbsorbed { file, block, .. } => {
                w.ensure_track(TID_PREFETCH, "prefetch");
                let args = format!(",\"args\":{{\"file\":{file},\"block\":{block}}}");
                w.instant(t, TID_PREFETCH, "absorbed", &args);
            }
            Event::WriteBack { file, block } => {
                w.ensure_track(TID_WRITEBACK, "writeback");
                let args = format!(",\"args\":{{\"file\":{file},\"block\":{block}}}");
                w.instant(t, TID_WRITEBACK, "write-back", &args);
            }
            Event::SweepStart { dirty } => {
                w.ensure_track(TID_WRITEBACK, "writeback");
                let args = format!(",\"args\":{{\"dirty\":{dirty}}}");
                w.instant(t, TID_WRITEBACK, "sweep", &args);
            }
            Event::FaultInjected { disk, retry_us, .. } => {
                let sid = StationId::disk(disk);
                let tid = station_tid(sid);
                w.ensure_track(tid, &station_name(sid));
                let args = format!(",\"args\":{{\"retry_us\":{retry_us}}}");
                w.instant(t, tid, "fault", &args);
            }
            Event::Failover { disk, .. } => {
                let sid = StationId::disk(disk);
                let tid = station_tid(sid);
                w.ensure_track(tid, &station_name(sid));
                w.instant(t, tid, "failover", "");
            }
            Event::DiskOutage { disk, up } => {
                let sid = StationId::disk(disk);
                let tid = station_tid(sid);
                w.ensure_track(tid, &station_name(sid));
                w.instant(t, tid, if up { "outage end" } else { "outage start" }, "");
            }
            Event::DegradedEnter { node } => {
                let tid = w.node_track(node);
                w.instant(t, tid, "degraded enter", "");
            }
            Event::DegradedExit { node } => {
                let tid = w.node_track(node);
                w.instant(t, tid, "degraded exit", "");
            }
            Event::NetFault { lost, delayed, .. } => {
                w.ensure_track(TID_FAULTS, "faults");
                let args = format!(",\"args\":{{\"lost\":{lost},\"delayed\":{delayed}}}");
                w.instant(t, TID_FAULTS, "net fault", &args);
            }
            Event::ReadDone {
                proc,
                node,
                latency,
                ..
            } => {
                let tid = w.node_track(node);
                let args = format!(
                    ",\"args\":{{\"proc\":{proc},\"latency_us\":{}}}",
                    ts(latency)
                );
                w.instant(t, tid, "read done", &args);
            }
            Event::WriteDone {
                proc,
                node,
                latency,
            } => {
                let tid = w.node_track(node);
                let args = format!(
                    ",\"args\":{{\"proc\":{proc},\"latency_us\":{}}}",
                    ts(latency)
                );
                w.instant(t, tid, "write done", &args);
            }
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_RID;

    /// A dependency-free structural JSON check: balanced braces and
    /// brackets outside strings, and no trailing commas before
    /// closers. Good enough to catch exporter syntax regressions.
    fn assert_valid_json_shape(s: &str) {
        let mut depth_obj = 0i32;
        let mut depth_arr = 0i32;
        let mut in_str = false;
        let mut prev = ' ';
        for c in s.chars() {
            if in_str {
                if c == '"' && prev != '\\' {
                    in_str = false;
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' => depth_obj += 1,
                    '}' => {
                        assert_ne!(prev, ',', "trailing comma before }}");
                        depth_obj -= 1;
                    }
                    '[' => depth_arr += 1,
                    ']' => {
                        assert_ne!(prev, ',', "trailing comma before ]");
                        depth_arr -= 1;
                    }
                    _ => {}
                }
                assert!(depth_obj >= 0 && depth_arr >= 0);
            }
            if !c.is_whitespace() {
                prev = c;
            }
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth_obj, 0, "unbalanced objects");
        assert_eq!(depth_arr, 0, "unbalanced arrays");
    }

    #[test]
    fn exports_spans_instants_and_counters() {
        let events = [
            (
                1_000u64,
                Event::QueuePush {
                    station: StationId::disk(0),
                    class: 2,
                    depth: 1,
                    rid: NO_RID,
                },
            ),
            (
                2_000,
                Event::ServiceBegin {
                    station: StationId::disk(0),
                    class: 0,
                    rid: 0,
                },
            ),
            (
                3_500,
                Event::Mispredict {
                    file: 4,
                    block: 17,
                    rid: 0,
                },
            ),
            (
                9_000,
                Event::ServiceEnd {
                    station: StationId::disk(0),
                    class: 0,
                    rid: 0,
                },
            ),
            (9_000, Event::SimQueueDepth { depth: 3 }),
        ];
        let json = export(events.iter());
        assert_valid_json_shape(&json);
        assert!(json.contains("\"name\":\"disk 0\""), "{json}");
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"mispredict\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ts\":2.000"), "µs timestamps: {json}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = export(std::iter::empty());
        assert_valid_json_shape(&json);
        assert!(json.contains("process_name"));
    }

    #[test]
    fn export_is_deterministic() {
        let events = [
            (5u64, Event::CacheMiss { node: 1, rid: 0 }),
            (
                6,
                Event::CacheHitRemote {
                    node: 0,
                    holder: 1,
                    rid: 1,
                },
            ),
            (
                7,
                Event::WalkStop {
                    file: 0,
                    reason: WalkStopReason::Budget,
                },
            ),
        ];
        assert_eq!(export(events.iter()), export(events.iter()));
    }

    #[test]
    fn thread_metadata_appears_once_per_track() {
        let events = [
            (1u64, Event::CacheMiss { node: 2, rid: 0 }),
            (2, Event::CacheMiss { node: 2, rid: 1 }),
            (3, Event::CacheHitLocal { node: 2, rid: 2 }),
        ];
        let json = export(events.iter());
        assert_eq!(json.matches("\"name\":\"node 2\"").count(), 1);
    }
}
