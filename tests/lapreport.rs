//! End-to-end guarantees for the request-span accounting and the
//! `lapreport` analysis CLI: the per-component latency breakdown sums
//! to the mean read time on every seed scenario, sampling the trace
//! never changes simulation results, and `lapreport`'s rendered tables
//! are golden-stable.

use std::collections::HashMap;
use std::process::Command;
use std::sync::Arc;

use lap::prelude::*;

mod common;
use common::{scenario, seed_scenarios};

fn lapsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lapsim"))
}

fn lapreport() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lapreport"))
}

/// Flatten the report's registry CSV into `metric -> value`, the way
/// downstream consumers (lapreport) see it.
fn metrics_map(report: &SimReport) -> HashMap<String, f64> {
    report
        .obs
        .to_csv()
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(','))
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
        .collect()
}

const SPAN_KEYS: [&str; 7] = [
    "span.queue_us",
    "span.seek_us",
    "span.rotation_us",
    "span.disk_transfer_us",
    "span.coordination_us",
    "span.network_us",
    "span.transfer_us",
];

/// The core attribution contract on all four seed scenarios: every
/// component histogram covers every post-warmup read, the component
/// means sum to the mean read time, and every read lands in exactly
/// one prefetch-outcome class.
#[test]
fn span_breakdown_sums_to_read_time_on_seed_scenarios() {
    for (name, cfg, wl) in seed_scenarios() {
        let report = run_simulation(cfg, wl);
        let m = metrics_map(&report);
        let reads = m["read.latency_ms.count"];
        assert!(reads > 0.0, "{name}: no reads measured");

        let mut sum_ms = 0.0;
        for key in SPAN_KEYS {
            assert_eq!(
                m[&format!("{key}.count")],
                reads,
                "{name}: {key} must cover every read"
            );
            sum_ms += m[&format!("{key}.mean_us")] / 1e3;
        }
        let mean_ms = m["read.latency_ms.mean"];
        assert!(
            (sum_ms - mean_ms).abs() <= 1e-3_f64.max(mean_ms * 1e-3),
            "{name}: breakdown sums to {sum_ms} ms but mean read time is {mean_ms} ms"
        );

        let outcomes = m["span.outcome_demand_hit"]
            + m["span.outcome_covered_by_prefetch"]
            + m["span.outcome_late_prefetch"]
            + m["span.outcome_miss"];
        assert_eq!(
            outcomes, reads,
            "{name}: outcome classes must partition the reads"
        );
        // NP must attribute nothing to prefetching. The aggressive
        // walkers run far enough ahead to cover whole requests; OBA
        // stays one block ahead, so a multi-block read that touches
        // its one prefetched block still misses the rest and stays a
        // Miss — only per-block usage shows up for it.
        let prefetched = m["span.outcome_covered_by_prefetch"] + m["span.outcome_late_prefetch"];
        if name.contains("/np") {
            assert_eq!(prefetched, 0.0, "{name}: NP cannot cover reads");
        } else if name.contains("ln_agr") {
            assert!(prefetched > 0.0, "{name}: no reads covered by prefetch");
        } else {
            assert!(
                m["cache.prefetch_used"] > 0.0,
                "{name}: prefetching never contributed"
            );
        }
    }
}

/// Sampling drops trace events, never simulation results: a run with a
/// 1-in-8 sampled recorder must produce byte-identical metrics to the
/// untraced run.
#[test]
fn sampled_tracing_does_not_change_results() {
    let (cfg, wl) = scenario(
        "charisma",
        CacheSystem::Pafs,
        PrefetchConfig::ln_agr_is_ppm(1),
        4,
    );
    let wl = Arc::new(wl);
    let baseline = run_simulation(cfg.clone(), Arc::clone(&wl));
    let rec = TraceRecorder::with_sampling(TraceRecorder::DEFAULT_CAPACITY, 8);
    let run = Simulation::try_new(cfg, wl, rec).unwrap().run();
    let (sampled, rec) = (run.report, run.rec);

    assert_eq!(baseline.obs.to_csv(), sampled.obs.to_csv());
    assert_eq!(baseline.avg_read_ms, sampled.avg_read_ms);
    // The sampler must have actually dropped high-volume events while
    // counting everything it saw.
    let (mut seen_total, mut kept_total) = (0u64, 0u64);
    for (_, seen, kept) in rec.sampled_counts() {
        assert!(kept <= seen);
        seen_total += seen;
        kept_total += kept;
    }
    assert!(kept_total < seen_total, "sampling kept everything");
}

/// `lapsim --trace-sample N` shrinks the trace file without touching
/// the reported results.
#[test]
fn lapsim_trace_sample_shrinks_trace_and_preserves_summary() {
    let dir = std::env::temp_dir().join(format!("lap-report-sample-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let full = dir.join("full.json");
    let sampled = dir.join("sampled.json");
    let base_args = ["--workload", "charisma", "--cache-mb", "2"];

    let run = |extra: &[&str]| {
        let out = lapsim()
            .args(base_args)
            .args(extra)
            .output()
            .expect("lapsim");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let s_full = run(&["--trace-out", full.to_str().unwrap()]);
    let s_sampled = run(&[
        "--trace-out",
        sampled.to_str().unwrap(),
        "--trace-sample",
        "16",
    ]);
    let s_untraced = run(&[]);

    assert_eq!(s_full, s_sampled, "sampling changed the summary");
    assert_eq!(s_full, s_untraced, "tracing changed the summary");
    let full_len = std::fs::metadata(&full).unwrap().len();
    let sampled_len = std::fs::metadata(&sampled).unwrap().len();
    assert!(
        sampled_len < full_len / 2,
        "1-in-16 sampling barely shrank the trace: {sampled_len} vs {full_len}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden file for the rendered report: run the default charisma
/// scenario through `lapsim --metrics-out` and `lapreport metrics`
/// (human table and JSON) and compare against committed output.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test`.
#[test]
fn lapreport_metrics_matches_golden_file() {
    let dir = std::env::temp_dir().join(format!("lap-report-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.csv");

    let out = lapsim()
        .args([
            "--workload",
            "charisma",
            "--system",
            "pafs",
            "--algo",
            "ln_agr_is_ppm:1",
            "--cache-mb",
            "4",
            "--metrics-out",
        ])
        .arg(&metrics)
        .output()
        .expect("run lapsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for (flag, golden_name) in [
        (None, "lapreport_metrics.txt"),
        (Some("--json"), "lapreport_metrics.json"),
    ] {
        let mut cmd = lapreport();
        cmd.arg("metrics").arg(&metrics);
        if let Some(f) = flag {
            cmd.arg(f);
        }
        let out = cmd.output().expect("run lapreport");
        assert!(
            out.status.success(),
            "lapreport failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let rendered = String::from_utf8(out.stdout).unwrap();
        let path = format!("{}/tests/golden/{golden_name}", env!("CARGO_MANIFEST_DIR"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("missing {golden_name} — run UPDATE_GOLDEN=1 cargo test"));
        assert_eq!(
            rendered, golden,
            "lapreport output changed; if intended, regenerate with UPDATE_GOLDEN=1"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `lapreport metrics` is the schema-drift tripwire: a missing metric
/// key must be a hard error naming the key, not a silent zero.
#[test]
fn lapreport_fails_loudly_on_missing_metric() {
    let dir = std::env::temp_dir().join(format!("lap-report-drift-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.csv");
    let out = lapsim()
        .args(["--workload", "sprite", "--cache-mb", "2", "--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("run lapsim");
    assert!(out.status.success());

    // Drop one span metric's rows, as a renamed metric would.
    let csv = std::fs::read_to_string(&metrics).unwrap();
    let pruned: String = csv
        .lines()
        .filter(|l| !l.starts_with("span.queue_us."))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&metrics, pruned).unwrap();

    let out = lapreport().arg("metrics").arg(&metrics).output().unwrap();
    assert!(!out.status.success(), "missing key must fail the report");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("span.queue_us"), "stderr names the key: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `bench-diff` compares every field of a schema-3 snapshot exactly,
/// names each field that drifted, and rejects a file without counters.
#[test]
fn lapreport_bench_diff_detects_drift() {
    let dir = std::env::temp_dir().join(format!("lap-report-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    let line = "{\"name\":\"s1\",\"avg_read_ms\":1.25,\"reads\":100,\"disk_accesses\":42,\
                \"perf\":{\"events\":400,\"cache_probes\":900,\"events_per_read\":4}}";
    let file = |line: &str| format!("{{\n\"schema\": 3,\n\"scenarios\": [\n{line}\n]\n}}\n");
    let diff = || {
        lapreport()
            .arg("bench-diff")
            .args([&a, &b])
            .output()
            .unwrap()
    };
    std::fs::write(&a, file(line)).unwrap();
    std::fs::write(&b, file(line)).unwrap();
    assert!(diff().status.success(), "identical snapshots must match");

    for (key, old, new) in [
        ("events", "400", "401"),
        ("events_per_read", "4", "4.0001"),
        ("avg_read_ms", "1.25", "1.2500001"),
    ] {
        let edited = line.replace(&format!("\"{key}\":{old}"), &format!("\"{key}\":{new}"));
        std::fs::write(&b, file(&edited)).unwrap();
        let out = diff();
        assert!(!out.status.success(), "{key} drift must fail");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("s1"), "diff names the scenario: {stdout}");
        assert!(
            stdout.contains(&format!("{key} {old} -> {new}")),
            "diff names {key}: {stdout}"
        );
    }

    let no_perf = &line[..line.find(",\"perf\"").unwrap()];
    std::fs::write(&b, file(&format!("{no_perf}}}"))).unwrap();
    let out = diff();
    assert!(!out.status.success(), "a snapshot without perf must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no perf section"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
