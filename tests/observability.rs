//! Observability guarantees: tracing never changes simulation results
//! (the zero-overhead contract) and the Chrome-trace export is
//! byte-stable run to run.

use std::sync::Arc;

use lap::lapobs::{chrome, Event, StationKind};
use lap::prelude::*;

mod common;
use common::{small_pm, small_workload};

/// A tiny fully hand-built workload whose trace is small and rich:
/// sequential reads (walk + prefetch), an off-path jump (mispredict),
/// and writes (write-back sweep). Used for the golden trace.
fn tiny_workload() -> Workload {
    use lap::ioworkload::{FileMeta, Op, ProcessTrace};
    let block = 8192u64;
    let read = |offset: u64| Op::Read {
        file: FileId(0),
        offset: offset * block,
        len: block,
    };
    let write = |offset: u64| Op::Write {
        file: FileId(0),
        offset: offset * block,
        len: block,
    };
    let think = Op::Compute(SimDuration::from_millis(5));
    let mut ops = Vec::new();
    // A sequential run the predictor learns and walks ahead of.
    for i in 0..12 {
        ops.push(read(i));
        ops.push(think);
    }
    // Jump off the predicted path: a mispredict + walk restart.
    for i in [40u64, 41, 42, 3, 50] {
        ops.push(read(i));
        ops.push(think);
    }
    // Dirty some blocks so the write-back sweep has work.
    for i in 0..4 {
        ops.push(write(i));
        ops.push(think);
    }
    Workload {
        name: "obs-tiny".into(),
        block_size: block,
        nodes: 2,
        files: vec![FileMeta {
            id: FileId(0),
            size: 64 * block,
        }],
        processes: vec![ProcessTrace {
            proc: ProcId(0),
            node: NodeId(0),
            ops,
        }],
    }
}

fn tiny_config() -> SimConfig {
    let mut cfg = SimConfig::pm(CacheSystem::Pafs, PrefetchConfig::ln_agr_is_ppm(1), 1);
    cfg.machine.nodes = 2;
    cfg.machine.disks = 2;
    cfg
}

/// The tiny scenario, traced.
fn traced_tiny() -> Outcome<TraceRecorder> {
    Simulation::try_new(tiny_config(), tiny_workload(), TraceRecorder::new())
        .unwrap()
        .run()
}

/// The structural half of "valid JSON": balanced braces/brackets and
/// no trailing commas, checked without a JSON dependency.
fn assert_valid_json_shape(json: &str) {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_str = false;
    let mut esc = false;
    let mut prev = ' ';
    for c in json.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth_obj += 1,
            '}' => {
                depth_obj -= 1;
                assert_ne!(prev, ',', "trailing comma before }}");
            }
            '[' => depth_arr += 1,
            ']' => {
                depth_arr -= 1;
                assert_ne!(prev, ',', "trailing comma before ]");
            }
            _ => {}
        }
        if !c.is_whitespace() {
            prev = c;
        }
        assert!(depth_obj >= 0 && depth_arr >= 0, "unbalanced close");
    }
    assert!(!in_str, "unterminated string");
    assert_eq!(depth_obj, 0, "unbalanced braces");
    assert_eq!(depth_arr, 0, "unbalanced brackets");
}

/// The zero-overhead contract, half one: attaching a `TraceRecorder`
/// must not change a single number in the report. `SimReport` is
/// `PartialEq`, so this compares every metric — including the whole
/// unified registry — at once.
#[test]
fn tracing_does_not_change_simulation_results() {
    let wl = Arc::new(small_workload(42));
    let cfg = small_pm(PrefetchConfig::ln_agr_is_ppm(1), 1);

    let baseline = run_simulation(cfg.clone(), Arc::clone(&wl));
    let run = Simulation::try_new(cfg, wl, TraceRecorder::new())
        .unwrap()
        .run();
    let (traced, rec) = (run.report, run.rec);

    assert_eq!(baseline, traced, "tracing perturbed the simulation");
    assert!(!rec.is_empty(), "the traced run captured no events");
    assert_eq!(rec.dropped(), 0, "small run must fit the ring buffer");
}

/// The zero-overhead contract, half two: the `run_simulation` helper
/// (NoopRecorder baked in) matches the explicit-recorder path.
#[test]
fn default_path_is_the_noop_path() {
    let wl = small_workload(7);
    let cfg = small_pm(PrefetchConfig::oba(), 1);
    let a = run_simulation(cfg.clone(), wl.clone());
    let b = Simulation::try_new(cfg, wl, NoopRecorder).unwrap().run();
    assert_eq!(a, b.report);
}

/// The trace must contain the event families the exporter and the
/// paper's analysis rely on: disk service spans, queue activity,
/// prefetch walk lifecycle, mispredict markers and write-backs.
#[test]
fn trace_captures_every_layer() {
    let rec = traced_tiny().rec;
    let has = |p: &dyn Fn(&Event) -> bool| rec.events().any(|(_, e)| p(e));

    assert!(
        has(&|e| matches!(
            e,
            Event::ServiceBegin { station, .. } if station.kind == StationKind::Disk
        )),
        "no disk service spans"
    );
    assert!(
        has(&|e| matches!(
            e,
            Event::ServiceEnd { station, .. } if station.kind == StationKind::Disk
        )),
        "disk spans never close"
    );
    assert!(
        has(&|e| matches!(e, Event::Mispredict { .. })),
        "no mispredict instants"
    );
    assert!(
        has(&|e| matches!(e, Event::WalkStart { .. })),
        "no walk starts"
    );
    assert!(
        has(&|e| matches!(e, Event::WalkRestart { .. })),
        "off-path jump never restarted the walk"
    );
    assert!(
        has(&|e| matches!(e, Event::PrefetchIssue { .. })),
        "no prefetch issues"
    );
    assert!(
        has(&|e| matches!(e, Event::CacheMiss { .. })),
        "no cache misses"
    );
    assert!(
        has(&|e| matches!(e, Event::CacheInsert { .. })),
        "no cache inserts"
    );
    assert!(
        has(&|e| matches!(e, Event::WriteBack { .. })),
        "no write-backs"
    );
    assert!(
        has(&|e| matches!(e, Event::SweepStart { .. })),
        "no write-back sweep"
    );
    assert!(
        has(&|e| matches!(e, Event::ReadDone { .. })),
        "no read completions"
    );
}

/// Byte-stable export: two identical runs must serialize to the exact
/// same Chrome trace JSON, and that JSON must be structurally valid
/// and contain the span/instant phases Perfetto renders.
#[test]
fn chrome_export_is_byte_stable_and_well_formed() {
    let run = || {
        let rec = traced_tiny().rec;
        chrome::export(rec.events())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "export is not byte-stable across identical runs");

    assert_valid_json_shape(&a);
    assert!(a.starts_with("{\"displayTimeUnit\":\"ms\","));
    assert!(a.contains("\"ph\":\"B\""), "no span-begin events");
    assert!(a.contains("\"ph\":\"E\""), "no span-end events");
    assert!(a.contains("\"ph\":\"i\""), "no instant events");
    assert!(
        a.contains("\"mispredict\""),
        "mispredict instants missing from JSON"
    );
    assert!(a.contains("\"disk 0\""), "disk track never named");
}

/// Golden file: the tiny workload's trace, committed under
/// `tests/golden/`. Regenerate with `UPDATE_GOLDEN=1 cargo test`.
#[test]
fn chrome_export_matches_golden_file() {
    let rec = traced_tiny().rec;
    let json = chrome::export(rec.events());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tiny_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("missing tests/golden/tiny_trace.json — run UPDATE_GOLDEN=1 cargo test");
    assert_eq!(
        json, golden,
        "Chrome export changed; if intended, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The unified metrics registry lands in the report and its CSV form
/// is stable and covers all four stats layers.
#[test]
fn metrics_registry_covers_all_layers() {
    let report = traced_tiny().report;
    let csv = report.obs.to_csv();
    assert!(csv.starts_with("metric,value\n"));
    for needle in [
        "read.latency_ms.mean", // core metrics
        "cache.local_hits",     // coopcache stats
        "prefetch.issued",      // prefetch stats
        "disk0.completed",      // simkit station stats
        "disk0.utilization",
        "sim.seconds",
    ] {
        assert!(
            csv.lines().any(|l| l.starts_with(&format!("{needle},"))),
            "registry is missing {needle}:\n{csv}"
        );
    }
    // Same run, same CSV bytes.
    let report2 = traced_tiny().report;
    assert_eq!(csv, report2.obs.to_csv());
}
