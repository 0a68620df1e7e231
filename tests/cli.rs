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

/// Numeric flags the simulator cannot represent are rejected before
/// anything runs, naming the flag — not a `SimDuration overflow` panic,
/// not a silently wrapped cache size or disk layout, and not a zero-MB
/// cache quietly run as one block per node.
#[test]
fn lapsim_rejects_overflowing_numeric_flags() {
    for (flag, value) in [
        ("--warmup", "999999999999"),
        ("--cache-mb", "18000000000000"),
        ("--cache-mb", "0"),
        // The PM disk holds 131 072 blocks of 8 KB.
        ("--extent-blocks", "131073"),
        ("--extent-blocks", "18446744073709551615"),
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

/// `--scale` takes only `small` or `paper` in both tools, whatever the
/// workload: a workload that has no scale does not ignore a bad one,
/// and a bad one is reported as a bad `--scale`, not as a bad spec.
#[test]
fn cli_rejects_unknown_scale() {
    for (mut tool, args) in [
        (lapgen(), "web --scale bogus --stats"),
        (lapsim(), "--workload web --scale bogus"),
        (lapsim(), "--workload charisma --scale bogus"),
    ] {
        let out = tool.args(args.split(' ')).output().expect("run tool");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {err}");
        assert!(err.contains("bad --scale: bogus"), "{args}: {err}");
        assert!(out.stdout.is_empty(), "{args}: nothing ran");
    }
}

/// Trace captures whose offsets or sizes run past 2^64 bytes are parse
/// errors on their line (exit 2): not a panic in the workload check and
/// not an offset silently wrapped to 0.
#[test]
fn lapsim_rejects_trace_offsets_past_two_to_the_64() {
    let dir = std::env::temp_dir().join(format!("lap-cli-huge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let open = "4211 0.000112 openat(AT_FDCWD, \"/data/in.bin\", O_RDONLY) = 3\n";
    let pread = "4211 0.000390 pread64(3, \"x\"..., 8192, 18446744073709551615) = 8192\n";
    let blk = |sector: &str| format!("  8,0 1 1 0.000000000 3001 Q R {sector} + 8 [app]\n");
    let cases = [
        ("strace", format!("{open}{pread}"), ":2: "),
        ("blktrace", blk("36028797018963967"), ":1: "),
        ("blktrace", blk("36028797018963968"), ":1: "),
    ];
    for (i, (kind, text, line)) in cases.iter().enumerate() {
        let capture = dir.join(format!("huge{i}.txt"));
        std::fs::write(&capture, text).unwrap();
        let out = lapsim()
            .arg("--workload")
            .arg(format!("{kind}:{}", capture.display()))
            .args(["--machine", "now", "--cache-mb", "1"])
            .output()
            .expect("run lapsim");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{kind} case {i}: {err}");
        assert!(
            err.contains(&format!("huge{i}.txt{line}")) && err.contains("past 2^64"),
            "{kind} case {i}: stderr names the line: {err}"
        );
        assert!(!err.contains("panicked"), "{kind} case {i}: {err}");
        assert!(out.stdout.is_empty(), "{kind} case {i}: nothing ran");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Think time past the headroom of simulated time (2^62 ns per
/// process) is rejected before the run, exit 2 naming the process or
/// the record, never a "SimTime overflow" panic mid-run: in a native
/// trace whose compute records add up past it, and in a blkparse
/// capture whose second record comes 1e11 s after its first.
#[test]
fn lapsim_rejects_compute_past_the_headroom_of_simulated_time() {
    let dir = std::env::temp_dir().join(format!("lap-cli-compute-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let native = dir.join("compute.trace");
    std::fs::write(
        &native,
        "workload t\nblocksize 8192\nnodes 1\nfile 0 8192\nproc 0 0\n\
         c 18446744073709551615\nr 0 0 10\nc 18446744073709551615\nr 0 0 10\n",
    )
    .unwrap();
    let blk = dir.join("late.blkparse");
    std::fs::write(
        &blk,
        "  8,0 1 1 0.000000000 3001 Q R 0 + 8 [app]\n\
         \x20 8,0 1 2 100000000000.0 3001 Q R 8 + 8 [app]\n",
    )
    .unwrap();
    let cases = [
        (
            "native",
            vec!["--trace".to_string(), native.display().to_string()],
            "process 0 computes",
        ),
        (
            "blktrace",
            vec![
                "--workload".to_string(),
                format!("blktrace:{}", blk.display()),
            ],
            "late.blkparse:2: think time",
        ),
    ];
    for (name, args, problem) in cases {
        let out = lapsim()
            .args(&args)
            .args(["--machine", "now", "--cache-mb", "1"])
            .output()
            .expect("run lapsim");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: stderr: {err}");
        assert!(
            err.contains(problem),
            "{name}: stderr names the problem: {err}"
        );
        assert!(!err.contains("panicked"), "{name}: stderr: {err}");
        assert!(out.stdout.is_empty(), "{name}: nothing ran");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `seed`th mutation of one of the space-separated `valid` specs:
/// one to three seeded byte edits that replace, insert or delete a byte
/// drawn from the spec grammars' alphabet, or splice in an
/// out-of-range, negative, non-finite or non-ASCII token.
fn mutated(seed: u64, valid: &str) -> String {
    const BYTES: &[u8] = b"0123456789:,+=.-_eanx ";
    const SPLICE: [&str; 6] = ["18446744073709551616", "-1", "0", "1e999", "nan", "é"];
    let mut state = seed;
    let mut next = |n: usize| {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let valid: Vec<&str> = valid.split_whitespace().collect();
    let mut s = valid[next(valid.len())].as_bytes().to_vec();
    for _ in 0..=next(3) {
        let at = next(s.len() + 1);
        match next(4) {
            0 if at < s.len() => s[at] = BYTES[next(BYTES.len())],
            1 => s.insert(at, BYTES[next(BYTES.len())]),
            2 if at < s.len() => drop(s.remove(at)),
            _ => drop(s.splice(at..at, SPLICE[next(SPLICE.len())].bytes())),
        }
    }
    String::from_utf8_lossy(&s).into_owned()
}

/// Whether `s` parses (`None`: rejected) and, if so, whether its
/// canonical spelling parses back to the same value.
fn round_trips<T: PartialEq, E>(
    parse: impl Fn(&str) -> Result<T, E>,
    canonical: impl Fn(&T) -> String,
    s: &str,
) -> Option<bool> {
    let v = parse(s).ok()?;
    Some(parse(&canonical(&v)).ok() == Some(v))
}

type SpecCheck = fn(&str) -> Option<bool>;

/// Every spec grammar a CLI flag takes, with valid specs to mutate.
fn spec_grammars() -> [(&'static str, SpecCheck, &'static str); 5] {
    use lap::prelude::*;
    fn algo_name(c: &PrefetchConfig) -> String {
        let prefix = if c.is_aggressive() { "ln_agr_" } else { "" };
        format!("{prefix}{}", c.predictor_name())
    }
    [
        (
            "--predictor",
            |s| round_trips(PredictorSpec::parse, PredictorSpec::canonical, s),
            "np is_ppm:3 is_ppm_backoff markov:2+oba mithril:32,3+oba",
        ),
        (
            "--workload",
            |s| round_trips(WorkloadSpec::parse, WorkloadSpec::canonical, s),
            "charisma:paper web:64,0.8,256 db:0.3,4096 mltrain:4,2048 strace:a.txt",
        ),
        (
            "--fault-plan",
            |s| round_trips(FaultPlan::parse, FaultPlan::canonical, s),
            "seed=7,disk-error=0.02,disk-retries=4,backoff-ms=5,burst=60:5 \
             outage=120:10,node-outage=300:20,net-loss=0.01,net-delay=0.05:2",
        ),
        (
            "--disk-sched",
            |s| round_trips(|s| DiskSched::parse(s).ok_or(()), |d| d.name().into(), s),
            "fifo sstf c-look",
        ),
        (
            "--algo",
            |s| round_trips(|s| PrefetchConfig::parse(s).ok_or(()), algo_name, s),
            "np ln_agr_oba ln_agr_is_ppm:3 is_ppm_backoff:2",
        ),
    ]
}

/// Seeded mutations of valid specs, for every spec grammar: each comes
/// back rejected, or as a value whose canonical spelling parses back
/// to the same value. None panics.
#[test]
fn mutated_specs_are_rejected_or_round_trip() {
    for (flag, check, valid) in spec_grammars() {
        let (mut accepted, mut rejected) = (0, 0);
        for seed in 0..3000u64 {
            let spec = mutated(seed, valid);
            match std::panic::catch_unwind(|| check(&spec)) {
                Ok(Some(round_trips)) => {
                    assert!(round_trips, "{flag} {spec:?} does not round-trip");
                    accepted += 1;
                }
                Ok(None) => rejected += 1,
                Err(_) => panic!("{flag}: parsing {spec:?} panicked"),
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "{flag}: {accepted} accepted, {rejected} rejected — a vacuous fuzz"
        );
    }
}

/// The first few rejected mutations of each grammar, given to lapsim,
/// exit 2 without running anything.
#[test]
fn lapsim_rejects_mutated_specs() {
    for (flag, check, valid) in spec_grammars() {
        let rejected = (0u64..)
            .map(|seed| mutated(seed, valid))
            .filter(|spec| check(spec).is_none())
            .take(2);
        for spec in rejected {
            let out = lapsim()
                .args(["--workload", "sprite", flag, &spec])
                .output()
                .expect("run lapsim");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {spec:?}: {err}");
            assert!(!err.contains("panicked"), "{flag} {spec:?}: {err}");
            assert!(out.stdout.is_empty(), "{flag} {spec:?}: nothing ran");
        }
    }
}
