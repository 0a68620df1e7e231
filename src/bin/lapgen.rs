//! `lapgen` — generate synthetic workload traces in the text format.
//!
//! ```text
//! lapgen charisma --seed 42 --scale small -o charisma.trace
//! lapgen sprite  --seed 7  --scale paper -o sprite.trace
//! lapgen web:64,0.8,256 -o web.trace    # any workload-registry spec
//! lapgen strace:app.strace -o app.trace # convert a text trace
//! lapgen charisma --stats          # print workload statistics only
//! ```

use std::fs;
use std::process::exit;

use lap::workzoo::{registry_help, WorkloadSpec};

fn usage() -> ! {
    eprintln!("usage: lapgen <SPEC> [--seed N] [--scale small|paper] [-o FILE] [--stats]");
    eprintln!();
    eprintln!("SPEC is a workload-registry spec (bare charisma/sprite pick up --scale):");
    eprint!("{}", registry_help());
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(kind) = args.next() else { usage() };
    let mut seed = 42u64;
    let mut scale = "small".to_string();
    let mut out: Option<String> = None;
    let mut stats_only = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--scale" => scale = args.next().unwrap_or_else(|| usage()),
            "-o" | "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--stats" => stats_only = true,
            _ => usage(),
        }
    }

    let spec = WorkloadSpec::parse_cli(&kind, &scale).unwrap_or_else(|e| {
        // A bad spec's Display carries the full registry listing.
        eprint!("{e}");
        exit(2);
    });
    let workload = spec.build(seed).unwrap_or_else(|e| {
        eprintln!("bad workload spec: {e}");
        exit(2);
    });

    let s = workload.stats();
    eprintln!(
        "{}: {} files (mean {:.1} blk), {} reads / {} writes, mean read {:.2} blk, sharing {:.0}%, compute {:.0}s",
        workload.name,
        s.files,
        s.mean_file_blocks,
        s.reads,
        s.writes,
        s.mean_read_blocks,
        s.shared_file_fraction * 100.0,
        s.compute_seconds
    );
    if stats_only {
        return;
    }

    let text = workload.to_text();
    match out {
        Some(path) => {
            fs::write(&path, &text).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            });
            eprintln!("wrote {} ({} lines)", path, text.lines().count());
        }
        None => print!("{text}"),
    }
}
