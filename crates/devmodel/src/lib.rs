//! # devmodel — device models for the simulator
//!
//! The paper (and the seed reproduction) prices every disk operation
//! with one constant: `10.5 ms + size / 10 MB/s` for reads. That makes
//! queueing order and block placement invisible — the very effects the
//! paper's per-file linear limit is designed to exploit across files.
//! This crate turns the cost model into a layer:
//!
//! * [`DiskGeometry`] / [`DiskModel`] — a mechanical disk: cylinders,
//!   a settle-plus-√distance seek curve, rotational position derived
//!   from the deterministic simulation clock, media transfer, and an
//!   extent-based block→LBA layout. The `Fixed` variant reproduces the
//!   seed's constants bit-for-bit, so geometry is strictly opt-in.
//! * [`Sstf`] / [`Clook`] — seek-aware request schedulers plugging
//!   into [`simkit::Station`], reordering only *within* a priority
//!   class (the demand-before-prefetch rule is structural).
//!
//! The [`DiskModelKind`] and [`DiskSched`] enums are the `Copy`
//! configuration surface that `lap-core`'s `MachineConfig` embeds and
//! the CLIs parse.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod disk;
mod geometry;
mod sched;

pub use disk::{DiskModel, DiskModelStats, GeomDisk};
pub use geometry::DiskGeometry;
pub use sched::{Clook, Sstf};

use simkit::{FifoSched, Scheduler, SimDuration};

/// Which disk cost model a machine uses.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DiskModelKind {
    /// The paper's fixed per-operation cost (seed behaviour).
    Fixed,
    /// The mechanical model with this geometry.
    Geometry(DiskGeometry),
}

impl DiskModelKind {
    /// Instantiate one disk's model. `read`/`write` are the full fixed
    /// single-block service times and `transfer` the per-block media
    /// transfer (used by the `Fixed` variant to price the extra blocks
    /// of a multi-block job); `block_bytes` is the file-system block
    /// size (used by the layout).
    pub fn build(
        &self,
        read: SimDuration,
        write: SimDuration,
        transfer: SimDuration,
        block_bytes: u64,
    ) -> DiskModel {
        match self {
            DiskModelKind::Fixed => DiskModel::fixed(read, write, transfer),
            DiskModelKind::Geometry(g) => DiskModel::geometry(*g, block_bytes),
        }
    }

    /// Blocks per allocation extent under this model — the unit an
    /// extent-granular prefetcher fetches at once. The fixed model has
    /// no layout, so its extent is one block (extent mode degenerates
    /// to the per-block behaviour there).
    pub fn extent_blocks(&self) -> u64 {
        match self {
            DiskModelKind::Fixed => 1,
            DiskModelKind::Geometry(g) => g.extent_blocks.max(1),
        }
    }
}

/// Which within-class dispatch order the disks use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskSched {
    /// Arrival order (seed behaviour).
    Fifo,
    /// Shortest seek time first.
    Sstf,
    /// Circular LOOK.
    Clook,
}

impl DiskSched {
    /// Name used in reports and CLI round-trips.
    pub fn name(&self) -> &'static str {
        match self {
            DiskSched::Fifo => "fifo",
            DiskSched::Sstf => "sstf",
            DiskSched::Clook => "clook",
        }
    }

    /// Parse a CLI spelling (`fifo`, `sstf`, `clook`/`c-look`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(DiskSched::Fifo),
            "sstf" => Some(DiskSched::Sstf),
            "clook" | "c-look" => Some(DiskSched::Clook),
            _ => None,
        }
    }

    /// All variants, in ablation order.
    pub const ALL: [DiskSched; 3] = [DiskSched::Fifo, DiskSched::Sstf, DiskSched::Clook];

    /// Instantiate the scheduler for one station.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            DiskSched::Fifo => Box::new(FifoSched),
            DiskSched::Sstf => Box::new(Sstf),
            DiskSched::Clook => Box::new(Clook),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_parse_round_trips() {
        for s in DiskSched::ALL {
            assert_eq!(DiskSched::parse(s.name()), Some(s));
        }
        assert_eq!(DiskSched::parse("c-look"), Some(DiskSched::Clook));
        // Spellings are case-sensitive, like every other CLI choice.
        assert_eq!(DiskSched::parse("C-LOOK"), None);
        assert_eq!(DiskSched::parse("elevator"), None);
        // LOOK is a different algorithm from C-LOOK.
        assert_eq!(DiskSched::parse("look"), None);
    }

    #[test]
    fn kind_builds_matching_model() {
        let r = SimDuration::from_millis(10);
        let w = SimDuration::from_millis(12);
        let x = SimDuration::from_micros(819);
        assert!(DiskModelKind::Fixed
            .build(r, w, x, 8192)
            .lba_of(0, 0)
            .is_none());
        let g = DiskModelKind::Geometry(DiskGeometry::tiny()).build(r, w, x, 8192);
        assert!(g.lba_of(0, 0).is_some());
        assert_eq!(DiskModelKind::Fixed.extent_blocks(), 1);
        assert_eq!(
            DiskModelKind::Geometry(DiskGeometry::tiny()).extent_blocks(),
            4
        );
    }
}
