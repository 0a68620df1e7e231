//! Command-line contracts of the `experiments` binary that no
//! ablation owns.

use std::process::Command;

/// Every id is checked before any runs: a typo after a valid id exits
/// 2 without having printed (or computed) the valid one.
#[test]
fn experiments_rejects_unknown_id_before_running_anything() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1", "bogus"])
        .output()
        .expect("run experiments");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        err.contains("unknown experiment \"bogus\""),
        "stderr: {err}"
    );
    assert!(!err.contains("panicked"), "stderr: {err}");
}

/// The identity gate: the benchmark snapshot of the four seed
/// scenarios (simulated read time, reads, disk accesses and every
/// deterministic cost counter) must match the committed `BENCH.json`
/// byte for byte. A change that moves any simulated result or counter
/// fails here; regenerate with
/// `experiments --smoke --bench-out BENCH.json` only when the move is
/// intended.
#[test]
fn bench_snapshot_matches_committed_bench_json() {
    let out_path = std::env::temp_dir().join(format!("lap-bench-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "small", "--bench-out"])
        .arg(&out_path)
        .output()
        .expect("run experiments");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let produced = std::fs::read_to_string(&out_path).expect("read snapshot");
    std::fs::remove_file(&out_path).ok();
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json"))
            .expect("read committed BENCH.json");
    assert!(
        produced == committed,
        "BENCH.json drifted; produced:\n{produced}"
    );
}
