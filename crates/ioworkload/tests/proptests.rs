//! Property tests for the workload generators and the trace format,
//! driven by the in-repo seeded PRNG (no external dependencies).

use ioworkload::charisma::CharismaParams;
use ioworkload::sprite::SpriteParams;
use ioworkload::util::Rng64;
use ioworkload::{Op, Workload};

fn random_charisma(rng: &mut Rng64) -> CharismaParams {
    let mut p = CharismaParams::small();
    p.nodes = rng.range_u32(1, 5);
    p.apps = rng.range_u32(1, 3) as usize;
    p.procs_per_app = rng.range_u32(1, 4);
    let fmin = rng.range_u64(16, 127);
    p.file_blocks = (fmin, fmin * 2);
    p.record_blocks = (1, rng.range_u64(1, 5));
    p.passes = (1, rng.range_u32(1, 2));
    p
}

fn random_sprite(rng: &mut Rng64) -> SpriteParams {
    let mut p = SpriteParams::small();
    p.nodes = rng.range_u32(1, 5);
    p.users = rng.range_u32(1, 7);
    p.files_per_user = rng.range_u32(1, 7);
    p.file_blocks = (1, rng.range_u64(1, 39));
    p.opens_per_user = rng.range_u32(1, 19);
    p.shared_files = rng.range_u32(0, 2);
    if p.shared_files == 0 {
        p.shared_open_prob = 0.0;
    }
    p
}

/// Any parameterisation produces a valid workload (validate() panics
/// internally on inconsistency) that survives a text round-trip
/// bit-exactly.
#[test]
fn charisma_generates_valid_workloads() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(case);
        let params = random_charisma(&mut rng);
        let seed = rng.range_u64(0, 499);
        let wl = params.generate(seed);
        let text = wl.to_text();
        let back = Workload::from_text(&text).unwrap();
        assert_eq!(back.to_text(), text, "case {case}");
    }
}

#[test]
fn sprite_generates_valid_workloads() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(case ^ 0x5B41);
        let params = random_sprite(&mut rng);
        let seed = rng.range_u64(0, 499);
        let wl = params.generate(seed);
        let text = wl.to_text();
        let back = Workload::from_text(&text).unwrap();
        assert_eq!(back.to_text(), text, "case {case}");
    }
}

/// Every access respects the accessed-fraction upper bound plus one
/// record of slack.
#[test]
fn charisma_accesses_respect_fraction() {
    for seed in 0..48u64 {
        let mut params = CharismaParams::small();
        params.accessed_fraction = (0.5, 0.7);
        let wl = params.generate(seed);
        for proc in &wl.processes {
            for op in &proc.ops {
                if let Op::Read { file, offset, len } | Op::Write { file, offset, len } = op {
                    let fsize = wl.files[file.0 as usize].size;
                    let slack = 16 * wl.block_size;
                    assert!(
                        offset + len <= (fsize as f64 * 0.7) as u64 + slack,
                        "access past accessed fraction: {}..{} of {} (seed {seed})",
                        offset,
                        offset + len,
                        fsize
                    );
                }
            }
        }
    }
}

/// Workload statistics are internally consistent for any seed.
#[test]
fn stats_are_consistent() {
    for seed in 0..48u64 {
        let wl = SpriteParams::small().generate(seed);
        let s = wl.stats();
        assert_eq!(s.files, wl.files.len(), "seed {seed}");
        assert!(s.bytes_read >= s.reads as u64, "seed {seed}");
        let min_mean = if s.reads > 0 { 1.0 } else { 0.0 };
        assert!(s.mean_read_blocks >= min_mean, "seed {seed}");
        assert!((0.0..=1.0).contains(&s.shared_file_fraction), "seed {seed}");
        let total_io: usize = s.reads + s.writes;
        assert_eq!(total_io, wl.io_ops(), "seed {seed}");
    }
}
