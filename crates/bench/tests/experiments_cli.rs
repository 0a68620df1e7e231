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
