//! The trace model: per-process demand sequences.
//!
//! Like the DIMEMAS traces the paper uses, a trace records *demand*
//! sequences — CPU bursts and I/O operations — per process, not
//! absolute event times: "traces contain CPU, communication and I/O
//! demand sequences for every process instead of the absolute time for
//! each event" (§5.1). The simulator replays demands and computes the
//! times itself, so the same workload can be run against any machine,
//! cache or prefetching configuration.

use std::sync::{Arc, Mutex, PoisonError, Weak};

use simkit::SimDuration;

use crate::types::{FileId, NodeId, ProcId};

/// One demand record of a process trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Compute for the given time before the next demand.
    Compute(SimDuration),
    /// Read `len` bytes at byte `offset` of `file`.
    Read {
        /// File read from.
        file: FileId,
        /// Byte offset of the first byte read.
        offset: u64,
        /// Number of bytes read (> 0).
        len: u64,
    },
    /// Write `len` bytes at byte `offset` of `file`.
    Write {
        /// File written to.
        file: FileId,
        /// Byte offset of the first byte written.
        offset: u64,
        /// Number of bytes written (> 0).
        len: u64,
    },
}

/// Static description of one file used by a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FileMeta {
    /// File identifier (dense: `0..files.len()`).
    pub id: FileId,
    /// File size in bytes.
    pub size: u64,
}

/// The demand sequence of one process, pinned to a node.
#[derive(Clone, Debug)]
pub struct ProcessTrace {
    /// Process identifier (dense across the workload).
    pub proc: ProcId,
    /// Node the process runs on.
    pub node: NodeId,
    /// Demand records, replayed in order.
    pub ops: Vec<Op>,
}

/// A complete machine-wide workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Human-readable name (used in reports).
    pub name: String,
    /// File-system block size in bytes (8 KB in the paper, Table 1).
    pub block_size: u64,
    /// Number of machine nodes the workload expects.
    pub nodes: u32,
    /// Files, indexed by `FileId`.
    pub files: Vec<FileMeta>,
    /// Per-process traces.
    pub processes: Vec<ProcessTrace>,
}

impl Workload {
    /// Size of `file` in blocks (rounded up).
    pub fn file_blocks(&self, file: FileId) -> u64 {
        let size = self.files[file.0 as usize].size;
        size.div_ceil(self.block_size)
    }

    /// Most simulated time one process may spend computing, summed
    /// over its compute records: 2^62 ns, about 146 years. Simulated
    /// time is a `u64` of nanoseconds, so this leaves three quarters of
    /// its range for the I/O the replay adds on top.
    pub const MAX_COMPUTE_NS: u64 = 1 << 62;

    /// Check internal consistency: dense ids, in-bounds accesses,
    /// non-empty operations, and at most
    /// [`MAX_COMPUTE_NS`](Self::MAX_COMPUTE_NS) of compute per process.
    /// The text loader runs the per-operation tests as it parses.
    ///
    /// # Errors
    /// A description of the first inconsistency found.
    pub fn check(&self) -> Result<(), String> {
        self.check_parts(true)
    }

    /// [`check`](Self::check) without the walk over the operations: for
    /// a parser whose [`OpCheck`] passed every process, this gives the
    /// same verdict as `check` in O(files + processes).
    pub(crate) fn check_frame(&self) -> Result<(), String> {
        self.check_parts(false)
    }

    fn check_parts(&self, walk_ops: bool) -> Result<(), String> {
        if self.block_size == 0 {
            return Err("zero block size".into());
        }
        if self.nodes == 0 {
            return Err("zero nodes".into());
        }
        for (i, f) in self.files.iter().enumerate() {
            if f.id.0 as usize != i {
                return Err(format!(
                    "file ids must be dense: file {i} has id {}",
                    f.id.0
                ));
            }
            if f.size == 0 {
                return Err(format!("empty file {i}"));
            }
        }
        for (i, p) in self.processes.iter().enumerate() {
            if p.proc.0 as usize != i {
                return Err(format!(
                    "process ids must be dense: process {i} has id {}",
                    p.proc.0
                ));
            }
            if p.node.0 >= self.nodes {
                return Err(format!("process {i} on out-of-range node {}", p.node));
            }
            if walk_ops {
                let mut ops = OpCheck::default();
                for op in &p.ops {
                    ops.add(op, &self.files);
                }
                if !ops.passed() {
                    return Err(self.op_error(i));
                }
            }
        }
        Ok(())
    }

    /// The message for the first operation of process `i` that fails
    /// [`OpCheck`].
    #[cold]
    fn op_error(&self, i: usize) -> String {
        let mut compute_ns = 0u64;
        for op in &self.processes[i].ops {
            match *op {
                Op::Compute(d) => {
                    compute_ns = compute_ns.saturating_add(d.as_nanos());
                    if compute_ns > Self::MAX_COMPUTE_NS {
                        return format!(
                            "process {i} computes for more than 2^62 ns in total, \
                             past the headroom of simulated time"
                        );
                    }
                }
                Op::Read { file, offset, len } | Op::Write { file, offset, len } => {
                    let Some(meta) = self.files.get(file.0 as usize) else {
                        return format!("process {i} touches unknown {file}");
                    };
                    if len == 0 {
                        return format!("zero-length access in process {i}");
                    }
                    let Some(end) = offset.checked_add(len) else {
                        return format!("process {i} access offset+len overflows on {file}");
                    };
                    if end > meta.size {
                        return format!(
                            "process {i} accesses past EOF of {file}: {offset}+{len} > {}",
                            meta.size
                        );
                    }
                }
            }
        }
        unreachable!("op_error on process {i}, whose operations all pass")
    }

    /// [`check`](Self::check), walking the trace once per [`Arc`]
    /// allocation: a sweep that hands one `Arc<Workload>` to every cell
    /// pays for one walk, not one per cell. Returns `Ok(true)` when this
    /// call walked the trace and `Ok(false)` when the allocation had
    /// already passed.
    ///
    /// A passing allocation is remembered by a [`Weak`] in a
    /// process-wide list, which is what makes the skip sound: a
    /// `Workload` has no interior mutability, and while a `Weak` to it
    /// lives, [`Arc::get_mut`] returns `None` and [`Arc::make_mut`]
    /// moves the value to a fresh allocation before mutating it. So a
    /// live registered allocation still holds the value that passed.
    /// A failing workload is not remembered and fails again next time.
    ///
    /// # Errors
    /// [`check`](Self::check)'s description of the first inconsistency.
    pub fn check_shared(self: &Arc<Self>) -> Result<bool, String> {
        static CHECKED: Mutex<Vec<Weak<Workload>>> = Mutex::new(Vec::new());
        let is_self = |w: &Weak<Workload>| w.strong_count() > 0 && w.as_ptr() == Arc::as_ptr(self);
        // Each update (a prune, a push) leaves the list valid, so a
        // lock poisoned by a panic elsewhere is still safe to use.
        let checked = || CHECKED.lock().unwrap_or_else(PoisonError::into_inner);
        if checked().iter().any(is_self) {
            return Ok(false);
        }
        self.check()?;
        let mut list = checked();
        list.retain(|w| w.strong_count() > 0);
        if !list.iter().any(is_self) {
            list.push(Arc::downgrade(self));
        }
        Ok(true)
    }

    /// [`check`](Self::check) for workloads that must be consistent by
    /// construction. Generators call this before returning.
    ///
    /// # Panics
    /// Panics with [`check`](Self::check)'s description of the first
    /// inconsistency found.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Total number of I/O operations across all processes.
    pub fn io_ops(&self) -> usize {
        self.processes
            .iter()
            .map(|p| {
                p.ops
                    .iter()
                    .filter(|o| !matches!(o, Op::Compute(_)))
                    .count()
            })
            .sum()
    }
}

/// The per-operation tests of [`Workload::check`] over one process's
/// operations, in order: each access names a known file, is not empty
/// and ends inside the file, and the compute records sum to at most
/// [`Workload::MAX_COMPUTE_NS`]. Branch-free per operation; only a
/// failure goes back for the message.
#[derive(Default)]
pub(crate) struct OpCheck {
    compute_ns: u64,
    bad: bool,
}

impl OpCheck {
    /// Test `op` against `files`, the files declared so far.
    #[inline]
    pub(crate) fn add(&mut self, op: &Op, files: &[FileMeta]) {
        match *op {
            Op::Compute(d) => self.compute_ns = self.compute_ns.saturating_add(d.as_nanos()),
            Op::Read { file, offset, len } | Op::Write { file, offset, len } => {
                // An unknown file reads as size 0, which no non-empty
                // access fits in.
                let size = files.get(file.0 as usize).map_or(0, |f| f.size);
                let (end, overflows) = offset.overflowing_add(len);
                self.bad |= (len == 0) | overflows | (end > size);
            }
        }
    }

    /// Whether every operation added so far passed.
    pub(crate) fn passed(&self) -> bool {
        !self.bad && self.compute_ns <= Workload::MAX_COMPUTE_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny_workload() -> Workload {
        Workload {
            name: "tiny".into(),
            block_size: 8192,
            nodes: 2,
            files: vec![FileMeta {
                id: FileId(0),
                size: 65536,
            }],
            processes: vec![ProcessTrace {
                proc: ProcId(0),
                node: NodeId(1),
                ops: vec![
                    Op::Compute(SimDuration::from_micros(100)),
                    Op::Read {
                        file: FileId(0),
                        offset: 0,
                        len: 16384,
                    },
                    Op::Write {
                        file: FileId(0),
                        offset: 16384,
                        len: 100,
                    },
                ],
            }],
        }
    }

    #[test]
    fn validate_accepts_consistent_workload() {
        tiny_workload().validate();
    }

    #[test]
    fn file_blocks_rounds_up() {
        let mut wl = tiny_workload();
        wl.files[0].size = 8193;
        assert_eq!(wl.file_blocks(FileId(0)), 2);
        wl.files[0].size = 8192;
        assert_eq!(wl.file_blocks(FileId(0)), 1);
    }

    #[test]
    fn io_ops_counts_only_io() {
        assert_eq!(tiny_workload().io_ops(), 2);
    }

    #[test]
    fn check_shared_walks_each_allocation_once() {
        let wl = Arc::new(tiny_workload());
        assert_eq!(wl.check_shared(), Ok(true));
        assert_eq!(
            wl.check_shared(),
            Ok(false),
            "a live registration skips the walk"
        );
        assert!(Arc::get_mut(&mut Arc::clone(&wl)).is_none());
        // Another allocation of an equal value is walked on its own.
        assert_eq!(Arc::new(tiny_workload()).check_shared(), Ok(true));
    }

    #[test]
    fn check_shared_rechecks_a_mutated_workload() {
        let mut wl = Arc::new(tiny_workload());
        assert_eq!(wl.check_shared(), Ok(true));
        Arc::make_mut(&mut wl).processes[0].ops.push(Op::Read {
            file: FileId(0),
            offset: 65536,
            len: 1,
        });
        let e = wl.check_shared().unwrap_err();
        assert!(e.contains("past EOF"), "{e}");
        assert!(
            wl.check_shared().is_err(),
            "a failing workload is not remembered"
        );
    }

    /// Each per-operation rule rejects on its own, with its message,
    /// and an access that ends exactly at EOF or compute exactly at the
    /// headroom passes.
    #[test]
    fn check_names_each_bad_operation() {
        let access = |file, offset, len| Op::Read {
            file: FileId(file),
            offset,
            len,
        };
        let max = SimDuration::from_nanos(Workload::MAX_COMPUTE_NS);
        for (ops, want) in [
            (vec![access(0, 65535, 1)], None),
            (vec![Op::Compute(max), access(0, 0, 1)], None),
            (vec![access(1, 0, 1)], Some("touches unknown f1")),
            (vec![access(0, 0, 0)], Some("zero-length access")),
            (vec![access(0, u64::MAX, 2)], Some("offset+len overflows")),
            (vec![access(0, 65535, 2)], Some("past EOF")),
            (
                vec![Op::Compute(max), Op::Compute(SimDuration::from_nanos(1))],
                Some("process 0 computes for more than 2^62 ns"),
            ),
        ] {
            let mut wl = tiny_workload();
            wl.processes[0].ops = ops.clone();
            match (wl.check(), want) {
                (Ok(()), None) => {}
                (Err(e), Some(want)) => assert!(e.contains(want), "{ops:?}: {e}"),
                (got, _) => panic!("{ops:?}: {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "past EOF")]
    fn validate_rejects_out_of_bounds_access() {
        let mut wl = tiny_workload();
        wl.processes[0].ops.push(Op::Read {
            file: FileId(0),
            offset: 65536,
            len: 1,
        });
        wl.validate();
    }

    #[test]
    #[should_panic(expected = "out-of-range node")]
    fn validate_rejects_bad_node() {
        let mut wl = tiny_workload();
        wl.processes[0].node = NodeId(7);
        wl.validate();
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn validate_rejects_sparse_file_ids() {
        let mut wl = tiny_workload();
        wl.files[0].id = FileId(5);
        wl.validate();
    }
}
