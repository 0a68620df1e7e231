//! Machine and simulation configuration (Table 1 of the paper).

use std::sync::Arc;

use coopcache::{MetaLayout, Replacement, MAX_NODES};
use devmodel::{DiskGeometry, DiskModel, DiskModelKind, DiskSched};
use faultkit::FaultPlan;
use prefetch::PrefetchConfig;
use simcheck::CheckMode;
use simkit::{QueueBackend, SimDuration};

/// Node counts of the two Table 1 machines.
const PM_NODES: u32 = 128;
const NOW_NODES: u32 = 50;
// Both presets must fit the caches' node masks (`check_workload`
// rejects anything larger at run time).
const _: () = assert!(PM_NODES <= MAX_NODES && NOW_NODES <= MAX_NODES);

/// Hardware parameters of the simulated machine — the two columns of
/// Table 1.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of nodes.
    pub nodes: u32,
    /// File-system block size in bytes ("Buffer Size"/"Disk-Block Size").
    pub block_size: u64,
    /// Local memory bandwidth, bytes/s ("Memory Bandwidth").
    pub memory_bandwidth: f64,
    /// Interconnection network bandwidth, bytes/s.
    pub network_bandwidth: f64,
    /// Startup of a communication within a node.
    pub local_startup: SimDuration,
    /// Startup of a communication that crosses the network.
    pub remote_startup: SimDuration,
    /// Startup of a memory copy within a node.
    pub local_copy_startup: SimDuration,
    /// Startup of a memory copy that crosses the network.
    pub remote_copy_startup: SimDuration,
    /// Number of disks (shared by the whole machine).
    pub disks: u32,
    /// Disk bandwidth, bytes/s.
    pub disk_bandwidth: f64,
    /// Seek + rotational latency charged per read operation.
    pub disk_read_seek: SimDuration,
    /// Seek + rotational latency charged per write operation.
    pub disk_write_seek: SimDuration,
    /// Disk cost model. `Fixed` (the default) reproduces the constants
    /// above bit-for-bit; `Geometry` prices each operation from arm
    /// position and platter phase.
    pub disk_model: DiskModelKind,
    /// Within-priority-class dispatch order of the disk queues.
    pub disk_sched: DiskSched,
    /// Unit the aggressive prefetch walker fetches in: single blocks
    /// (the paper's rule) or whole extents of the disk layout (one
    /// multi-block job per extent, still one unit of linear limit).
    pub prefetch_granularity: PrefetchGranularity,
}

/// What the aggressive walker fetches per linear-limit unit.
///
/// The paper's linear limit allows one *block* per file in flight.
/// Extent granularity reinterprets the unit as one *extent* — the
/// contiguous layout unit of the geometry disk model — so the walker
/// may have up to `extent_blocks` blocks in flight as long as they
/// travel in a single multi-block disk job paying one positioning
/// cost. Non-aggressive configurations (NP, plain OBA/IS_PPM) ignore
/// this knob, and so does the fixed disk model (its extent size is 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PrefetchGranularity {
    /// One block per issue — the paper's §3.1 rule, bit-identical to
    /// the behaviour before extents existed.
    #[default]
    Block,
    /// One extent per issue: contiguous member blocks of the extent
    /// are batched into a single multi-block disk job.
    Extent,
}

impl PrefetchGranularity {
    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "block" => Some(PrefetchGranularity::Block),
            "extent" => Some(PrefetchGranularity::Extent),
            _ => None,
        }
    }
}

impl MachineConfig {
    /// The parallel machine (PM) column of Table 1: 128 nodes, 16
    /// disks, 500 MB/s memory, 200 MB/s network, 2/10 µs startups.
    pub fn pm() -> Self {
        MachineConfig {
            nodes: PM_NODES,
            block_size: 8 * 1024,
            memory_bandwidth: 500.0e6,
            network_bandwidth: 200.0e6,
            local_startup: SimDuration::from_micros(2),
            remote_startup: SimDuration::from_micros(10),
            local_copy_startup: SimDuration::from_micros(1),
            remote_copy_startup: SimDuration::from_micros(5),
            disks: 16,
            disk_bandwidth: 10.0e6,
            disk_read_seek: SimDuration::from_millis_f64(10.5),
            disk_write_seek: SimDuration::from_millis_f64(12.5),
            disk_model: DiskModelKind::Fixed,
            disk_sched: DiskSched::Fifo,
            prefetch_granularity: PrefetchGranularity::Block,
        }
    }

    /// The network-of-workstations (NOW) column of Table 1: 50 nodes, 8
    /// disks, 40 MB/s memory, 19.4 MB/s network, 50/100 µs startups.
    pub fn now() -> Self {
        MachineConfig {
            nodes: NOW_NODES,
            block_size: 8 * 1024,
            memory_bandwidth: 40.0e6,
            network_bandwidth: 19.4e6,
            local_startup: SimDuration::from_micros(50),
            remote_startup: SimDuration::from_micros(100),
            local_copy_startup: SimDuration::from_micros(25),
            remote_copy_startup: SimDuration::from_micros(50),
            disks: 8,
            disk_bandwidth: 10.0e6,
            disk_read_seek: SimDuration::from_millis_f64(10.5),
            disk_write_seek: SimDuration::from_millis_f64(12.5),
            disk_model: DiskModelKind::Fixed,
            disk_sched: DiskSched::Fifo,
            prefetch_granularity: PrefetchGranularity::Block,
        }
    }

    /// A tiny machine for unit tests (4 nodes, 2 disks, PM-like speeds).
    pub fn tiny() -> Self {
        MachineConfig {
            nodes: 4,
            disks: 2,
            ..Self::pm()
        }
    }

    /// Switch the disks to the calibrated geometry model appropriate
    /// for this machine (see [`DiskGeometry::pm`]): under FIFO its
    /// *mean* service matches the fixed constants, so headline results
    /// stay comparable while order and placement start to matter.
    pub fn with_geometry(mut self) -> Self {
        self.disk_model = DiskModelKind::Geometry(DiskGeometry::pm());
        self
    }

    /// Like [`with_geometry`](Self::with_geometry) but with an
    /// `extent_blocks`-block layout extent (see
    /// [`DiskGeometry::pm_extent`]). Extents larger than one block make
    /// sequential runs cheaper than the calibrated per-block constants
    /// — compare extent results against the `extent_blocks = 1` column
    /// of the same geometry, not against the fixed model
    /// (docs/CALIBRATION.md).
    pub fn with_geometry_extent(mut self, extent_blocks: u64) -> Self {
        self.disk_model = DiskModelKind::Geometry(DiskGeometry::pm_extent(extent_blocks));
        self
    }

    /// Instantiate one disk's service model from the configured kind.
    pub fn build_disk_model(&self) -> DiskModel {
        self.disk_model.build(
            self.disk_read_service(),
            self.disk_write_service(),
            SimDuration::transfer(self.block_size, self.disk_bandwidth),
            self.block_size,
        )
    }

    /// Disk service time for reading one block.
    pub fn disk_read_service(&self) -> SimDuration {
        self.disk_read_seek + SimDuration::transfer(self.block_size, self.disk_bandwidth)
    }

    /// Disk service time for writing one block.
    pub fn disk_write_service(&self) -> SimDuration {
        self.disk_write_seek + SimDuration::transfer(self.block_size, self.disk_bandwidth)
    }

    /// Time to hand `bytes` to a local requester (memory copy).
    pub fn local_transfer(&self, bytes: u64) -> SimDuration {
        self.local_copy_startup
            + self.local_startup
            + SimDuration::transfer(bytes, self.memory_bandwidth)
    }

    /// Time to hand `bytes` to a requester across the network (the
    /// Table 1 communication model).
    pub fn remote_transfer(&self, bytes: u64) -> SimDuration {
        self.remote_copy_startup
            + self.remote_startup
            + SimDuration::transfer(bytes, self.network_bandwidth)
    }
}

/// Which cache organisation to simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheSystem {
    /// PAFS: centralized per-file servers, truly global linear limit,
    /// global coalescing of in-flight fetches.
    Pafs,
    /// xFS: per-node decisions, per-node linear limit, per-node
    /// prefetchers and per-node fetch coalescing — shared files get
    /// duplicated prefetch streams.
    Xfs,
    /// No cooperation at all: independent per-node caches, every miss
    /// goes to disk. A pre-cooperative-caching baseline, kept to show
    /// how much the cooperation itself contributes (extension beyond
    /// the paper's evaluation).
    LocalOnly,
}

impl CacheSystem {
    /// Name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CacheSystem::Pafs => "PAFS",
            CacheSystem::Xfs => "xFS",
            CacheSystem::LocalOnly => "Local",
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine hardware.
    pub machine: MachineConfig,
    /// Cooperative-cache system.
    pub system: CacheSystem,
    /// Prefetching algorithm configuration.
    pub prefetch: PrefetchConfig,
    /// "Local cache" size per node, in bytes (the x-axis of every
    /// figure: 1–16 MB).
    pub cache_bytes_per_node: u64,
    /// Period of the fault-tolerance write-back sweep (§5.3); 30 s by
    /// default, like classic Unix-ish sync daemons.
    pub writeback_period: SimDuration,
    /// Simulated time to exclude from metrics (cache warm-up), like the
    /// paper's 10–15 trace hours.
    pub warmup: SimDuration,
    /// Cache replacement policy (ablation; both systems assume LRU).
    pub replacement: Replacement,
    /// Serve prefetches at the lowest disk priority ("prefetching a
    /// block will never be done if other operations are waiting to be
    /// done on the same disk", §4). Disable for the priority ablation:
    /// prefetches then compete head-on with demand reads.
    pub prefetch_priority: bool,
    /// Bucket width of the read-latency time series in
    /// [`SimReport::read_time_series`](crate::SimReport::read_time_series)
    /// (convergence/warm-up analysis). 60 s by default.
    pub metrics_interval: SimDuration,
    /// Deterministic fault plan (`None` or an empty plan = the exact
    /// pre-fault simulation, bit for bit). Faults draw from their own
    /// seeded stream, so a plan never perturbs the workload stream.
    pub fault_plan: Option<FaultPlan>,
    /// Always [`QueueBackend::Heap`]; the simulation ignores it. Kept
    /// only so `perfbench` builds unchanged.
    pub event_queue: QueueBackend,
    /// Always [`MetaLayout::Dense`]; the simulation ignores it. Kept
    /// only so `perfbench` builds unchanged.
    pub meta_layout: MetaLayout,
    /// Runtime invariant oracle (DESIGN.md §15). `Auto` (the default)
    /// enables it in debug builds — so every `cargo test` checks — and
    /// disables it in release builds. The oracle is observational:
    /// results are bit-identical with it on or off.
    pub check: CheckMode,
}

/// `mb` megabytes in bytes; panics instead of wrapping on overflow.
fn mb_to_bytes(mb: u64) -> u64 {
    mb.checked_mul(1024 * 1024)
        .expect("cache size in bytes overflows u64")
}

impl SimConfig {
    /// A run on the PM machine.
    pub fn pm(system: CacheSystem, prefetch: PrefetchConfig, cache_mb: u64) -> Self {
        SimConfig {
            machine: MachineConfig::pm(),
            system,
            prefetch,
            cache_bytes_per_node: mb_to_bytes(cache_mb),
            writeback_period: SimDuration::from_secs(30),
            warmup: SimDuration::ZERO,
            replacement: Replacement::Lru,
            prefetch_priority: true,
            metrics_interval: SimDuration::from_secs(60),
            fault_plan: None,
            event_queue: QueueBackend::Heap,
            meta_layout: MetaLayout::Dense,
            check: CheckMode::Auto,
        }
    }

    /// A run on the NOW machine.
    pub fn now(system: CacheSystem, prefetch: PrefetchConfig, cache_mb: u64) -> Self {
        SimConfig {
            machine: MachineConfig::now(),
            system,
            prefetch,
            cache_bytes_per_node: mb_to_bytes(cache_mb),
            writeback_period: SimDuration::from_secs(30),
            warmup: SimDuration::ZERO,
            replacement: Replacement::Lru,
            prefetch_priority: true,
            metrics_interval: SimDuration::from_secs(60),
            fault_plan: None,
            event_queue: QueueBackend::Heap,
            meta_layout: MetaLayout::Dense,
            check: CheckMode::Auto,
        }
    }

    /// Cache capacity per node in blocks.
    pub fn blocks_per_node(&self) -> u64 {
        (self.cache_bytes_per_node / self.machine.block_size).max(1)
    }

    /// Shrink the machine to fit a workload that uses fewer nodes than
    /// the paper preset: the simulation only materialises caches for
    /// nodes the workload touches, so a 128-node machine under an
    /// 8-node zoo workload would mis-state the aggregate cache. Keeps
    /// at least two disks so striping stays meaningful.
    pub fn fit_to_workload(&mut self, workload: &ioworkload::Workload) {
        if workload.nodes < self.machine.nodes {
            self.machine.nodes = workload.nodes;
            self.machine.disks = self.machine.disks.min(workload.nodes.max(2));
        }
    }

    /// Check that this configuration can run `workload`: the machine
    /// has `1..=MAX_NODES` nodes (the caches keep node sets as one
    /// 128-bit mask), at least one disk and a disk layout extent no
    /// larger than the disk, xFS runs with LRU local
    /// caches, and the workload is consistent in itself, needs no more
    /// nodes than the machine has and uses the same block size.
    /// [`Simulation::try_new`](crate::Simulation::try_new) returns this
    /// error. Every check but the trace's own consistency is O(1) and
    /// runs on every call; the consistency walk runs once per `Arc`
    /// allocation ([`Workload::check_shared`](ioworkload::Workload::check_shared)).
    pub(crate) fn check_workload(
        &self,
        workload: &Arc<ioworkload::Workload>,
    ) -> Result<(), String> {
        if !(1..=MAX_NODES).contains(&self.machine.nodes) {
            return Err(format!(
                "machine has {} nodes; the cache models support 1 to {MAX_NODES}",
                self.machine.nodes
            ));
        }
        if self.machine.disks == 0 {
            return Err("machine needs at least one disk".into());
        }
        if let DiskModelKind::Geometry(g) = &self.machine.disk_model {
            let disk_blocks = g.blocks(self.machine.block_size);
            if g.extent_blocks > disk_blocks {
                return Err(format!(
                    "disk extent of {} blocks exceeds the disk's {disk_blocks} blocks",
                    g.extent_blocks
                ));
            }
        }
        if self.system == CacheSystem::Xfs && self.replacement != Replacement::Lru {
            return Err("the xFS model only supports LRU local caches".into());
        }
        if workload.check_shared()? {
            #[cfg(test)]
            tests::TRACE_WALKS.with(|n| n.set(n.get() + 1));
        }
        if workload.nodes > self.machine.nodes {
            return Err(format!(
                "workload needs {} nodes, machine has {}",
                workload.nodes, self.machine.nodes
            ));
        }
        if workload.block_size != self.machine.block_size {
            return Err(format!(
                "workload and machine disagree on block size: {} vs {} bytes",
                workload.block_size, self.machine.block_size
            ));
        }
        Ok(())
    }

    /// A descriptive label: `"PAFS/Ln_Agr_IS_PPM:1 @ 4MB"`.
    pub fn label(&self) -> String {
        format!(
            "{}/{} @ {}MB",
            self.system.name(),
            self.prefetch.paper_name(),
            self.cache_bytes_per_node / (1024 * 1024)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Trace walks `check_workload` made on this test's thread.
        pub(super) static TRACE_WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn table1_pm_values() {
        let m = MachineConfig::pm();
        assert_eq!(m.nodes, 128);
        assert_eq!(m.disks, 16);
        assert_eq!(m.block_size, 8192);
        // 8 KB at 10 MB/s = 819.2 us; plus 10.5 ms seek.
        assert_eq!(m.disk_read_service().as_nanos(), 10_500_000 + 819_200);
        assert_eq!(m.disk_write_service().as_nanos(), 12_500_000 + 819_200);
    }

    #[test]
    fn table1_now_values() {
        let m = MachineConfig::now();
        assert_eq!(m.nodes, 50);
        assert_eq!(m.disks, 8);
        assert_eq!(m.local_startup.as_micros(), 50);
        assert_eq!(m.remote_startup.as_micros(), 100);
    }

    #[test]
    fn transfer_costs_ordering() {
        let m = MachineConfig::pm();
        // Local transfers must be cheaper than remote ones, and both far
        // cheaper than a disk read.
        let bytes = 8192;
        assert!(m.local_transfer(bytes) < m.remote_transfer(bytes));
        assert!(m.remote_transfer(bytes) < m.disk_read_service());
    }

    /// A consistent workload on `nodes` nodes: one 64 KB file, read
    /// whole by a process on the last node.
    fn one_file_workload(nodes: u32) -> Arc<ioworkload::Workload> {
        use ioworkload::{FileId, FileMeta, NodeId, Op, ProcId, ProcessTrace, Workload};
        Arc::new(Workload {
            name: "one".into(),
            block_size: 8192,
            nodes,
            files: vec![FileMeta {
                id: FileId(0),
                size: 65536,
            }],
            processes: vec![ProcessTrace {
                proc: ProcId(0),
                node: NodeId(nodes - 1),
                ops: vec![Op::Read {
                    file: FileId(0),
                    offset: 0,
                    len: 65536,
                }],
            }],
        })
    }

    fn try_new_err(cfg: SimConfig, wl: &Arc<ioworkload::Workload>) -> Option<String> {
        crate::Simulation::try_new(cfg, Arc::clone(wl), lapobs::NoopRecorder).err()
    }

    /// Configurations the simulator cannot model come back as `Err`
    /// from `try_new`, never a panic: more nodes than a node mask
    /// holds, no nodes, no disks, xFS without LRU, and a layout extent
    /// larger than the disk.
    #[test]
    fn try_new_rejects_unsupported_machines() {
        let wl = one_file_workload(1);
        let try_new = |cfg: SimConfig| try_new_err(cfg, &wl);
        let xfs = || SimConfig::pm(CacheSystem::Xfs, PrefetchConfig::np(), 1);
        let mut cfg = xfs();
        cfg.machine.nodes = 129;
        let e = try_new(cfg).expect("129 nodes rejected");
        assert!(e.contains("129 nodes") && e.contains("128"), "{e}");
        let mut cfg = xfs();
        cfg.machine.nodes = 0;
        assert!(try_new(cfg).is_some());
        let mut cfg = xfs();
        cfg.machine.disks = 0;
        assert!(try_new(cfg).expect("no disks").contains("disk"));
        let mut cfg = xfs();
        cfg.replacement = Replacement::Fifo;
        assert!(try_new(cfg).expect("xFS + FIFO").contains("LRU"));
        for extent in [131_073, u64::MAX] {
            let mut cfg = xfs();
            cfg.machine = cfg.machine.with_geometry_extent(extent);
            let e = try_new(cfg).expect("extent larger than the disk");
            assert!(e.contains("131072 blocks"), "{e}");
        }
        let mut cfg = xfs();
        cfg.machine = cfg.machine.with_geometry_extent(131_072);
        assert_eq!(try_new(cfg), None, "a whole-disk extent runs");
        assert_eq!(try_new(xfs()), None, "the 128-node PM preset runs");
    }

    /// A sweep's cells share one `Arc<Workload>`: the trace is walked
    /// by the first `try_new` only, and every later cell skips it.
    #[test]
    fn a_shared_workload_is_walked_once() {
        let wl = one_file_workload(2);
        let walks = || TRACE_WALKS.with(std::cell::Cell::get);
        let before = walks();
        for mb in 0..70 {
            let cfg = SimConfig::pm(CacheSystem::Pafs, PrefetchConfig::np(), 1 + mb % 7);
            assert_eq!(try_new_err(cfg, &wl), None);
        }
        assert_eq!(walks() - before, 1, "70 cells, one walk");
        // A separate allocation of the same trace is walked on its own.
        let cfg = SimConfig::pm(CacheSystem::Pafs, PrefetchConfig::np(), 1);
        assert_eq!(try_new_err(cfg, &one_file_workload(2)), None);
        assert_eq!(walks() - before, 2);
    }

    /// The once-per-allocation walk never lets a changed or misfitting
    /// workload through: the machine-fit checks run on every cell, and
    /// `Arc::make_mut` on a registered workload moves it to a fresh
    /// allocation that is walked again.
    #[test]
    fn a_checked_workload_is_still_rejected_when_it_stops_fitting() {
        let mut wl = one_file_workload(4);
        let pafs = || SimConfig::pm(CacheSystem::Pafs, PrefetchConfig::np(), 1);
        assert_eq!(try_new_err(pafs(), &wl), None);

        let mut small = pafs();
        small.machine.nodes = 3;
        let e = try_new_err(small, &wl).expect("3-node machine rejected");
        assert_eq!(e, "workload needs 4 nodes, machine has 3");
        let mut other_block = pafs();
        other_block.machine.block_size = 4096;
        let e = try_new_err(other_block, &wl).expect("4 KB blocks rejected");
        assert!(e.contains("block size"), "{e}");

        if let ioworkload::Op::Read { offset, .. } = &mut Arc::make_mut(&mut wl).processes[0].ops[0]
        {
            *offset = 8192;
        }
        let past_eof = wl.check().expect_err("a read past EOF");
        assert_eq!(try_new_err(pafs(), &wl), Some(past_eof));
    }

    #[test]
    fn blocks_per_node() {
        let cfg = SimConfig::pm(CacheSystem::Pafs, PrefetchConfig::np(), 4);
        assert_eq!(cfg.blocks_per_node(), 512); // 4 MB / 8 KB
    }

    #[test]
    fn prefetch_granularity_parse_and_default() {
        assert_eq!(
            MachineConfig::pm().prefetch_granularity,
            PrefetchGranularity::Block
        );
        assert_eq!(
            PrefetchGranularity::parse("block"),
            Some(PrefetchGranularity::Block)
        );
        assert_eq!(
            PrefetchGranularity::parse("extent"),
            Some(PrefetchGranularity::Extent)
        );
        assert_eq!(PrefetchGranularity::parse("extents"), None);
    }

    #[test]
    fn with_geometry_extent_sets_the_extent_size() {
        let m = MachineConfig::pm().with_geometry_extent(8);
        assert_eq!(m.disk_model.extent_blocks(), 8);
        assert_eq!(MachineConfig::pm().disk_model.extent_blocks(), 1);
        assert_eq!(
            MachineConfig::pm()
                .with_geometry()
                .disk_model
                .extent_blocks(),
            1
        );
    }

    #[test]
    fn label_format() {
        let cfg = SimConfig::pm(CacheSystem::Xfs, PrefetchConfig::ln_agr_is_ppm(3), 8);
        assert_eq!(cfg.label(), "xFS/Ln_Agr_IS_PPM:3 @ 8MB");
    }
}
