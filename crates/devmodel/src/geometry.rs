//! Physical disk geometry: cylinders, tracks, sectors, the seek curve,
//! rotational position, and the extent-based block→LBA layout.
//!
//! Everything is integer arithmetic on the deterministic simulation
//! clock, so two runs of the same workload produce bit-identical
//! timings. The only floating point is the square root in the seek
//! curve and the bandwidth division in the transfer time — both IEEE
//! operations with fully-determined results.

use simkit::{SimDuration, SimTime};

/// Physical parameters of one disk.
///
/// The seek curve is the classic settle-plus-square-root model
/// (Ruemmler & Wilkes): a seek over `d > 0` cylinders costs
/// `seek_settle + seek_per_sqrt_cyl · √d`, and a zero-distance access
/// costs nothing mechanical. Writes add `write_settle` on top (head
/// settling is longer before a write than a read, which is how the
/// paper's Table 1 charges writes 2 ms more than reads).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DiskGeometry {
    /// Number of cylinders (seek distance domain).
    pub cylinders: u32,
    /// Heads (= tracks per cylinder).
    pub heads: u32,
    /// Sectors per track.
    pub sectors_per_track: u32,
    /// Bytes per sector.
    pub sector_bytes: u32,
    /// Time of one full platter revolution.
    pub rotation: SimDuration,
    /// Fixed part of any non-zero seek (arm acceleration + settle).
    pub seek_settle: SimDuration,
    /// Distance-dependent part: cost per √cylinder travelled.
    pub seek_per_sqrt_cyl: SimDuration,
    /// Extra settle charged on writes.
    pub write_settle: SimDuration,
    /// Sustained media transfer bandwidth, bytes/s.
    pub bandwidth: f64,
    /// File-system blocks per allocation extent. Blocks within one
    /// extent are laid out contiguously; extents are hash-scattered
    /// over the platter, which is what makes seek distance depend on
    /// the access pattern.
    pub extent_blocks: u64,
}

impl DiskGeometry {
    /// The disk of the paper's parallel-machine column, calibrated so
    /// the *mean* FIFO read service matches Table 1's fixed
    /// 10.5 ms + 819.2 µs (8 KB at 10 MB/s) and — equally important —
    /// so the service-time *variance* stays small. The paper's constant
    /// is a deterministic server; queueing delay and prefetch
    /// timeliness are convex in service time, so a geometry with the
    /// right mean but a wide spread still inflates read times several
    /// percent. The calibration therefore folds the mean rotational
    /// latency of a realistic platter into `seek_settle` and keeps only
    /// a small explicit `rotation` term for phase effects:
    /// random-to-random seek distance is triangular with
    /// E[√d] = (8/15)·√2048 ≈ 24.1 cylinders^½, giving
    /// E\[seek\] ≈ 8.41 ms + 70 µs·24.1 ≈ 10.1 ms, E\[rot\] ≈ 0.25 ms,
    /// total ≈ 11.2 ms — and, on the seed scenarios, per-op means and
    /// end-to-end read times within 2% of the fixed model (verified by
    /// the workspace-root `tests/devmodel.rs`).
    ///
    /// The preset scatters at block granularity (`extent_blocks = 1`):
    /// Table 1's constant charges *every* operation an average seek, so
    /// matching it requires a layout whose marginal cost has no
    /// sequential discount. Larger extents reward locality (sequential
    /// runs become near-free mechanically) and are fully supported —
    /// they just price runs *below* the paper's constants, breaking
    /// comparability with the seed results.
    pub fn pm() -> Self {
        DiskGeometry {
            cylinders: 2048,
            heads: 8,
            sectors_per_track: 128,
            sector_bytes: 512,
            rotation: SimDuration::from_micros(500),
            seek_settle: SimDuration::from_micros(8410),
            seek_per_sqrt_cyl: SimDuration::from_micros(70),
            write_settle: SimDuration::from_millis(2),
            bandwidth: 10.0e6,
            extent_blocks: 1,
        }
    }

    /// The NOW column uses the same disks as the PM column (Table 1
    /// lists one disk spec), so this is [`pm`](Self::pm) under another
    /// name — kept separate so the presets can diverge later.
    pub fn now() -> Self {
        Self::pm()
    }

    /// The [`pm`](Self::pm) mechanics with an `extent_blocks`-long
    /// allocation extent (`>= 1`; `pm_extent(1)` *is* the calibrated
    /// `pm` preset). The mechanical constants are deliberately kept
    /// identical: the calibration contract (seed scenarios within 2% of
    /// the fixed model under FIFO) is pinned to `extent_blocks = 1`,
    /// where every operation pays an average seek like Table 1's
    /// constant. Larger extents keep sequential runs contiguous, so
    /// both demand reads and extent-granular prefetch batches price
    /// runs *below* the paper's constants — that is the point of the
    /// extent ablation, and why its columns are compared against the
    /// `extent_blocks = 1` column of the *same* geometry rather than
    /// against the fixed model (see `docs/CALIBRATION.md`).
    pub fn pm_extent(extent_blocks: u64) -> Self {
        DiskGeometry {
            extent_blocks: extent_blocks.max(1),
            ..Self::pm()
        }
    }

    /// A small, fast disk for unit tests: 64 cylinders, 1 ms
    /// revolution.
    pub fn tiny() -> Self {
        DiskGeometry {
            cylinders: 64,
            heads: 2,
            sectors_per_track: 32,
            sector_bytes: 512,
            rotation: SimDuration::from_millis(1),
            seek_settle: SimDuration::from_micros(100),
            seek_per_sqrt_cyl: SimDuration::from_micros(50),
            write_settle: SimDuration::from_micros(200),
            bandwidth: 10.0e6,
            extent_blocks: 4,
        }
    }

    /// Sectors in one cylinder.
    pub fn sectors_per_cylinder(&self) -> u64 {
        self.heads as u64 * self.sectors_per_track as u64
    }

    /// Total addressable sectors.
    pub fn total_sectors(&self) -> u64 {
        self.cylinders as u64 * self.sectors_per_cylinder()
    }

    /// Cylinder containing `lba` (clamped to the last cylinder).
    pub fn cylinder_of(&self, lba: u64) -> u32 {
        ((lba / self.sectors_per_cylinder()) as u32).min(self.cylinders.saturating_sub(1))
    }

    /// Arm travel time over `|to - from|` cylinders.
    pub fn seek_time(&self, from: u32, to: u32) -> SimDuration {
        let d = from.abs_diff(to);
        if d == 0 {
            return SimDuration::ZERO;
        }
        let sqrt_part = (self.seek_per_sqrt_cyl.as_nanos() as f64 * (d as f64).sqrt()).round();
        self.seek_settle + SimDuration::from_nanos(sqrt_part as u64)
    }

    /// Rotational wait until the first sector of `lba` passes under the
    /// head, for a head that is ready to read at time `at`. The platter
    /// phase is `at mod rotation`; the target sector's angular offset
    /// is its index within the track. Always `< rotation`.
    pub fn rot_wait(&self, at: SimTime, lba: u64) -> SimDuration {
        let rot = self.rotation.as_nanos();
        if rot == 0 {
            return SimDuration::ZERO;
        }
        let sector = lba % self.sectors_per_track as u64;
        let target = sector * rot / self.sectors_per_track as u64;
        let phase = at.as_nanos() % rot;
        SimDuration::from_nanos((target + rot - phase) % rot)
    }

    /// Media transfer time for `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::transfer(bytes, self.bandwidth)
    }

    /// LBA of block `block` of file `file`, for `block_bytes`-sized
    /// file-system blocks. Blocks are grouped into `extent_blocks`-long
    /// extents laid out contiguously; the extent's placement is a hash
    /// of (file, extent index) over the platter, so different files —
    /// and far-apart regions of one file — scatter, while sequential
    /// blocks stay adjacent.
    pub fn lba_of(&self, file: u32, block: u64, block_bytes: u64) -> u64 {
        let sectors_per_block = (block_bytes / self.sector_bytes as u64).max(1);
        let extent_sectors = self.extent_blocks * sectors_per_block;
        let slots = (self.total_sectors() / extent_sectors).max(1);
        let extent = block / self.extent_blocks;
        let slot = mix64(
            (file as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(extent.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        ) % slots;
        slot * extent_sectors + (block % self.extent_blocks) * sectors_per_block
    }
}

/// SplitMix64 finalizer — scatters extent slots uniformly.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_is_zero_at_distance_zero_and_monotone() {
        let g = DiskGeometry::pm();
        assert_eq!(g.seek_time(100, 100), SimDuration::ZERO);
        let mut prev = SimDuration::ZERO;
        for d in [1u32, 4, 16, 64, 256, 1024, 2047] {
            let s = g.seek_time(0, d);
            assert!(s > prev, "seek not monotone at distance {d}");
            prev = s;
        }
        // Full-stroke seek stays in a realistic envelope (< 20 ms).
        assert!(prev < SimDuration::from_millis(20));
    }

    #[test]
    fn rot_wait_is_bounded_and_phase_aligned() {
        let g = DiskGeometry::pm();
        for t in [0u64, 1, 4_166_500, 8_332_999, 8_333_000, 123_456_789] {
            for lba in [0u64, 17, 127, 12_345] {
                let w = g.rot_wait(SimTime::from_nanos(t), lba);
                assert!(w < g.rotation, "wait {w:?} >= one revolution");
                // After waiting, the platter phase is exactly the
                // target sector's angular offset.
                let rot = g.rotation.as_nanos();
                let sector = lba % g.sectors_per_track as u64;
                let target = sector * rot / g.sectors_per_track as u64;
                assert_eq!((t + w.as_nanos()) % rot, target);
            }
        }
    }

    #[test]
    fn transfer_matches_bandwidth() {
        let g = DiskGeometry::pm();
        // 8 KB at 10 MB/s = 819.2 µs — the Table 1 figure.
        assert_eq!(g.transfer_time(8192).as_nanos(), 819_200);
    }

    #[test]
    fn layout_is_contiguous_within_an_extent_and_scattered_across() {
        let g = DiskGeometry {
            extent_blocks: 64,
            ..DiskGeometry::pm()
        };
        let spb = 8192 / g.sector_bytes as u64;
        // Sequential blocks of one extent are adjacent LBAs.
        for b in 0..g.extent_blocks - 1 {
            assert_eq!(g.lba_of(3, b + 1, 8192), g.lba_of(3, b, 8192) + spb);
        }
        // Different files land in different places (with overwhelming
        // probability for these constants).
        assert_ne!(g.lba_of(1, 0, 8192), g.lba_of(2, 0, 8192));
        // Every LBA stays on the platter.
        for f in 0..50u32 {
            for b in (0..4096u64).step_by(61) {
                assert!(g.lba_of(f, b, 8192) < g.total_sectors());
            }
        }
    }

    #[test]
    fn pm_preset_mean_service_matches_table1() {
        // Uniform random blocks: mean(seek + rot + transfer) must land
        // within 2% of the fixed model's 11.3192 ms read service.
        let g = DiskGeometry::pm();
        let mut z = 0x1234_5678u64;
        let mut next = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(z)
        };
        let mut head = 0u32;
        let mut t = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        let n = 20_000u64;
        for _ in 0..n {
            let lba = g.lba_of((next() % 100) as u32, next() % 8192, 8192);
            let cyl = g.cylinder_of(lba);
            let seek = g.seek_time(head, cyl);
            let rot = g.rot_wait(t + seek, lba);
            let svc = seek + rot + g.transfer_time(8192);
            head = cyl;
            // Advance by the service plus an arbitrary think gap so the
            // platter phase decorrelates from the service times.
            t = t + svc + SimDuration::from_nanos(next() % 5_000_000);
            total += svc;
        }
        let mean_ns = total.as_nanos() as f64 / n as f64;
        let target = 11_319_200.0;
        let err = (mean_ns - target).abs() / target;
        // The tight (2%) calibration check runs at the workspace root
        // against the real seed scenarios; this guards the uniform-mix
        // ballpark so preset edits can't silently drift.
        assert!(
            err < 0.05,
            "mean geometry service {:.1} µs is {:.2}% off the fixed model's {:.1} µs",
            mean_ns / 1e3,
            err * 100.0,
            target / 1e3
        );
    }
}
