//! Integration tests for the `lapgen` and `lapsim` command-line tools.

use std::process::Command;

fn lapgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lapgen"))
}

fn lapsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lapsim"))
}

#[test]
fn lapgen_stats_mode_prints_summary() {
    let out = lapgen()
        .args(["charisma", "--stats", "--seed", "5"])
        .output()
        .expect("run lapgen");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("reads"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "stats mode writes no trace");
}

#[test]
fn lapgen_trace_round_trips_through_lapsim() {
    let dir = std::env::temp_dir().join(format!("lap-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.trace");

    let out = lapgen()
        .args(["sprite", "--seed", "3", "-o"])
        .arg(&trace)
        .output()
        .expect("run lapgen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    let out = lapsim()
        .args(["--trace"])
        .arg(&trace)
        .args([
            "--machine",
            "now",
            "--system",
            "pafs",
            "--algo",
            "ln_agr_is_ppm:1",
            "--cache-mb",
            "2",
        ])
        .output()
        .expect("run lapsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PAFS/Ln_Agr_IS_PPM:1"), "stdout: {stdout}");
    assert!(stdout.contains("read"), "stdout: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lapsim_generates_and_runs_inline() {
    let out = lapsim()
        .args([
            "--workload",
            "charisma",
            "--system",
            "xfs",
            "--algo",
            "np",
            "--cache-mb",
            "1",
            "-v",
        ])
        .output()
        .expect("run lapsim");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("xFS/NP"));
    assert!(stdout.contains("hit ratio"));
    assert!(stdout.contains("simulated time"));
}

#[test]
fn lapsim_writes_trace_and_metrics_files() {
    let dir = std::env::temp_dir().join(format!("lap-cli-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.json");
    let metrics = dir.join("m.csv");

    let out = lapsim()
        .args(["--workload", "charisma", "--cache-mb", "1", "--trace-out"])
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("run lapsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\","));
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"B\""), "no disk service spans");
    assert!(json.contains("\"mispredict\""), "no mispredict instants");
    assert!(json.trim_end().ends_with("]}"), "trace JSON is truncated");

    let csv = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(csv.starts_with("metric,value\n"));
    assert!(csv.contains("cache.local_hits,"), "csv: {csv}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lapsim_rejects_unknown_algorithm() {
    let out = lapsim()
        .args(["--workload", "sprite", "--algo", "wizardry"])
        .output()
        .expect("run lapsim");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown algorithm"), "stderr: {err}");
    // The failure also advertises the predictor registry as the way
    // out (`--algo` names are a fixed set; `--predictor` is open).
    assert!(err.contains("--predictor"), "stderr: {err}");
    assert!(err.contains("valid predictor specs"), "stderr: {err}");
}

/// A Markov order of 0 is bad input, not a predictor panic.
#[test]
fn lapsim_rejects_order_zero_algorithms() {
    for algo in [
        "is_ppm:0",
        "ln_agr_is_ppm:0",
        "is_ppm_backoff:0",
        "ln_agr_is_ppm_backoff:0",
    ] {
        let out = lapsim()
            .args(["--workload", "sprite", "--algo", algo])
            .output()
            .expect("run lapsim");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "algo {algo}: {err}");
        assert!(!err.contains("panicked"), "algo {algo}: {err}");
        assert!(err.contains("unknown algorithm"), "algo {algo}: {err}");
    }
}

/// A bad fault plan — an unknown key, or a number that is not a
/// finite duration or too long for the simulated clock, alone or summed
/// over one dispatch's retries — exits 2 with the key menu, never a
/// panic.
#[test]
fn lapsim_rejects_bad_fault_plan_with_key_menu() {
    for spec in [
        "bogus=1",
        "backoff-ms=nan",
        "net-delay=0.5:1e12",
        "disk-error=0.5,backoff-ms=1e12",
        "disk-error=1,disk-retries=32,backoff-ms=60000",
        "disk-error=1,disk-retries=1000000",
        // Retry counts are capped even at zero backoff, where only the
        // count decides how long a faulted event spins.
        "disk-error=1,disk-retries=4000000000,backoff-ms=0",
        "net-loss=1,net-retries=4000000000",
    ] {
        let out = lapsim()
            .args(["--workload", "sprite", "--fault-plan", spec])
            .output()
            .expect("run lapsim");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {err}");
        assert!(!err.contains("panicked"), "{spec}: {err}");
        assert!(err.contains("bad --fault-plan"), "{spec}: {err}");
        // Every parse error carries the full key menu, registry-style.
        assert!(err.contains("fault-plan keys:"), "{spec}: {err}");
        for key in ["disk-error", "outage", "node-outage-wipe", "net-loss"] {
            assert!(err.contains(key), "{spec}: key menu misses {key}: {err}");
        }
    }
}

#[test]
fn lapsim_supports_every_registry_predictor_spec() {
    for spec in [
        "np",
        "oba",
        "is_ppm:3",
        "is_ppm_backoff:2",
        "markov:1",
        "markov:2+oba",
        "mithril",
        "mithril:8,3+oba",
    ] {
        let out = lapsim()
            .args([
                "--workload",
                "sprite",
                "--system",
                "local",
                "--algo",
                "ln_agr_is_ppm:1",
                "--predictor",
                spec,
                "--cache-mb",
                "1",
            ])
            .output()
            .expect("run lapsim");
        assert!(
            out.status.success(),
            "predictor {spec}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn lapsim_rejects_bad_predictor_spec_with_registry_listing() {
    let out = lapsim()
        .args(["--workload", "sprite", "--predictor", "markov:7"])
        .output()
        .expect("run lapsim");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad --predictor"), "stderr: {err}");
    assert!(err.contains("unknown predictor spec"), "stderr: {err}");
    for name in ["np", "oba", "is_ppm", "is_ppm_backoff", "markov", "mithril"] {
        assert!(err.contains(name), "registry listing misses {name}: {err}");
    }
}

#[test]
fn lapsim_supports_every_documented_algorithm() {
    for algo in [
        "np",
        "oba",
        "ln_agr_oba",
        "is_ppm:1",
        "ln_agr_is_ppm:3",
        "is_ppm_backoff:2",
        "ln_agr_is_ppm_backoff:2",
    ] {
        let out = lapsim()
            .args([
                "--workload",
                "sprite",
                "--system",
                "local",
                "--algo",
                algo,
                "--cache-mb",
                "1",
            ])
            .output()
            .expect("run lapsim");
        assert!(
            out.status.success(),
            "algo {algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A trace that cannot run on the chosen machine is bad input: lapsim
/// exits 2 and says what is wrong, once, instead of panicking.
#[test]
fn lapsim_rejects_traces_that_do_not_fit_the_machine() {
    let dir = std::env::temp_dir().join(format!("lap-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, block_size, nodes, offset, machine, problem) in [
        ("blocksize", 4096, 1, 0, "pm", "block size"),
        ("nodes-pm", 8192, 200, 0, "pm", "200 nodes"),
        ("nodes-now", 8192, 200, 0, "now", "200 nodes"),
        ("eof", 8192, 1, 100_000, "pm", "past EOF"),
    ] {
        let trace = dir.join(format!("{name}.trace"));
        let text = format!(
            "workload t\nblocksize {block_size}\nnodes {nodes}\nfile 0 8192\nproc 0 0\nr 0 {offset} 10\n"
        );
        std::fs::write(&trace, text).unwrap();
        let out = lapsim()
            .arg("--trace")
            .arg(&trace)
            .args(["--machine", machine])
            .output()
            .expect("run lapsim");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: stderr: {err}");
        assert_eq!(
            err.matches(problem).count(),
            1,
            "{name}: stderr names the problem once: {err}"
        );
        assert!(!err.contains("panicked"), "{name}: stderr: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Lines the trace format cannot read — a number too large for its
/// field, a non-ASCII space between tokens — exit 2 naming the line,
/// never a panic; CRLF line ends read like plain ones.
#[test]
fn lapsim_rejects_malformed_trace_lines_with_line_number() {
    let dir = std::env::temp_dir().join(format!("lap-cli-parse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let head = "workload t\nblocksize 8192\nnodes 1\nfile 0 8192\nproc 0 0\n";
    for (name, last, problem) in [
        (
            "overflow",
            "r 0 18446744073709551616 10\n",
            "line 6: invalid offset",
        ),
        ("nbsp", "r 0\u{a0}0 10\n", "line 6: invalid file id"),
    ] {
        let trace = dir.join(format!("{name}.trace"));
        std::fs::write(&trace, format!("{head}{last}")).unwrap();
        let out = lapsim()
            .arg("--trace")
            .arg(&trace)
            .output()
            .expect("run lapsim");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: stderr: {err}");
        assert!(
            err.contains(problem),
            "{name}: stderr names the line: {err}"
        );
        assert!(!err.contains("panicked"), "{name}: stderr: {err}");
    }
    let trace = dir.join("crlf.trace");
    std::fs::write(&trace, format!("{head}r 0 0 10\n").replace('\n', "\r\n")).unwrap();
    let out = lapsim()
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("run lapsim");
    assert!(
        out.status.success(),
        "CRLF trace runs: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace byte that is not UTF-8 is a parse error on its line (exit
/// 2), for a text trace and for an strace capture alike — not an I/O
/// error (exit 1) and not an error without a line.
#[test]
fn lapsim_rejects_invalid_utf8_with_line_number() {
    let dir = std::env::temp_dir().join(format!("lap-cli-utf8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("bad.trace");
    let mut bytes = b"workload t\nblocksize 8192\nnodes 1\nfile 0 8192\nproc 0 0\nr 0 ".to_vec();
    bytes.extend_from_slice(b"\xff0 8192\n");
    std::fs::write(&trace, &bytes).unwrap();
    let out = lapsim()
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("run lapsim");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains("line 6: invalid UTF-8"), "stderr: {err}");

    // The committed strace fixture with one byte of its line 3 broken.
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/strace_small.txt"
    ))
    .unwrap();
    let line3 = fixture
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(1)
        .map(|(i, _)| i + 1)
        .expect("fixture has three lines");
    let mut broken = fixture.clone();
    broken[line3] = 0xff;
    let capture = dir.join("bad.strace");
    std::fs::write(&capture, &broken).unwrap();
    let out = lapsim()
        .arg("--workload")
        .arg(format!("strace:{}", capture.display()))
        .args(["--machine", "now", "--cache-mb", "1"])
        .output()
        .expect("run lapsim");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(
        err.contains("bad.strace:3: invalid UTF-8 (byte 0xff)"),
        "stderr: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Numeric flags the simulator cannot represent are rejected while
/// parsing, naming the flag — not a `SimDuration overflow` panic, not
/// a silently wrapped cache size, and not a zero-MB cache quietly run
/// as one block per node.
#[test]
fn lapsim_rejects_overflowing_numeric_flags() {
    for (flag, value) in [
        ("--warmup", "999999999999"),
        ("--cache-mb", "18000000000000"),
        ("--cache-mb", "0"),
    ] {
        let out = lapsim()
            .args(["--workload", "sprite", flag, value])
            .output()
            .expect("run lapsim");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {err}");
        assert!(
            err.contains(&format!("bad {flag}")),
            "{flag} {value}: {err}"
        );
        assert!(!err.contains("panicked"), "{flag} {value}: {err}");
        assert!(out.stdout.is_empty(), "{flag} {value}: nothing ran");
    }
}
