//! # coopcache — cooperative block-cache substrates
//!
//! The paper evaluates linear aggressive prefetching on two
//! parallel/distributed file systems whose caches are *cooperative*: the
//! local caches of all nodes are managed as one big global cache.
//! Neither system survives as usable open source, so this crate models
//! both at the level the paper's analysis depends on:
//!
//! * [`PafsCache`] — PAFS (Cortes et al.): **centralized** management.
//!   Every file is handled by a single server, which sees every request
//!   and can therefore implement a *truly global* linear prefetch limit
//!   and a globally coordinated (single-copy, no-coherence-problem)
//!   cache. Modelled as one global LRU pool built from all nodes'
//!   buffers.
//! * [`XfsCache`] — xFS (Anderson et al., SOSP'95): **serverless**,
//!   per-node decisions. Each node has a local LRU cache; a manager
//!   knows which nodes hold which blocks; a local miss that hits a
//!   remote cache is forwarded; evicted blocks that are the *last* copy
//!   get a second chance on a random peer (N-chance forwarding); remote
//!   hits leave a local duplicate behind. Per-node autonomy is exactly
//!   why only a *per-node* linear prefetch limit is implementable on
//!   xFS (§4) — and why shared files get duplicated prefetch streams.
//!
//! Both caches are *logical* models: they answer hit/miss/placement
//! questions and keep usage statistics; timing (network hops, disk
//! service) is charged by the simulator layer (`lap-core`) based on the
//! [`Lookup`] results returned here. The crate also provides the dirty
//! tracking needed by the periodic write-back daemon behind Table 2.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dense;
mod local;
mod pafs;
#[cfg(test)]
mod reference;
mod stats;
mod xfs;

pub use dense::{MetaLayout, Replacement, MAX_NODES};
pub use ioworkload::{BlockId, FileId, NodeId};
pub use local::LocalOnlyCache;
pub use pafs::{server_node, PafsCache};
pub use stats::CacheStats;
pub use xfs::XfsCache;

/// Where a demand access found its block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// In the requesting node's own buffers.
    LocalHit,
    /// In another node's buffers — costs a network round trip.
    RemoteHit {
        /// The node whose cache supplied the block.
        holder: NodeId,
    },
    /// Nowhere in the cooperative cache — costs a disk read.
    Miss,
}

/// Why a block is being inserted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOrigin {
    /// Fetched (or written) on behalf of an application request.
    Demand,
    /// Fetched by the prefetcher.
    Prefetch,
}

/// A block pushed out of the cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Evicted {
    /// Which block.
    pub block: BlockId,
    /// It was modified and its latest contents must be written to disk.
    pub dirty: bool,
    /// It was brought in by the prefetcher and never used — a
    /// miss-prediction made material (§5.2's miss-prediction ratio).
    pub wasted_prefetch: bool,
}

/// Result of a demand access.
#[derive(Clone, Debug)]
pub struct AccessOutcome {
    /// Hit/miss classification (drives timing in the simulator).
    pub lookup: Lookup,
    /// Blocks evicted as a side effect (xFS may copy a remote hit into
    /// the local cache, evicting something else).
    pub evicted: Vec<Evicted>,
}

/// Common interface of the two cooperative caches.
pub trait CooperativeCache {
    /// A demand read (`write = false`) or write (`write = true`) from
    /// `node` to `block`. Updates recency and prefetch-usage state.
    ///
    /// A write to a resident block marks it dirty; a write to a missing
    /// block is reported as a [`Lookup::Miss`] and the caller is
    /// expected to [`insert`](Self::insert) it dirty (write-allocate,
    /// no fetch-on-write — whole-block writes in this model).
    fn access(&mut self, node: NodeId, block: BlockId, write: bool) -> AccessOutcome;

    /// Is the block resident anywhere? (No state updates.)
    fn contains(&self, block: BlockId) -> bool;

    /// Is the block resident in `node`'s local buffers? (No updates.)
    fn contains_local(&self, node: NodeId, block: BlockId) -> bool;

    /// How many consecutive blocks starting at `block` (same file,
    /// ascending index) are resident in the [`contains`](Self::contains)
    /// sense, capped at `max`. No state updates.
    ///
    /// One *range* metadata operation: the aggressive prefetch walk
    /// rescans already-resident data after every restart, and asking
    /// "how far is this run resident?" once replaces up to `max` point
    /// probes. Backends count it as a single metadata probe — it is one
    /// query against the block-location tables, answered from per-file
    /// presence bitmaps in O(`max`/64) words. The default
    /// implementation delegates to
    /// [`contains`](Self::contains) (and therefore counts one probe
    /// per block examined).
    fn resident_run(&self, block: BlockId, max: u32) -> u32 {
        let mut n = 0;
        while n < max
            && self.contains(BlockId {
                file: block.file,
                index: block.index + u64::from(n),
            })
        {
            n += 1;
        }
        n
    }

    /// Insert a block on behalf of `node` after a disk fetch (or a
    /// write-allocate). Returns the evicted victims, if any.
    fn insert(
        &mut self,
        node: NodeId,
        block: BlockId,
        origin: InsertOrigin,
        dirty: bool,
    ) -> Vec<Evicted>;

    /// Mark `node` down (`down = true`) or back up (`down = false`)
    /// for degraded-mode operation. A down node is *disconnected from
    /// the cooperative cache*, not powered off: its buffers must not
    /// serve remote hits and must not receive copies forwarded or
    /// placed by other nodes, but its own local accesses and inserts
    /// keep working (the node operates local-only) and resident
    /// content survives the outage — the node rejoins with its cache
    /// intact. Backends with no cross-node state (the local-only
    /// baseline) ignore this.
    fn set_degraded(&mut self, node: NodeId, down: bool) {
        let _ = (node, down);
    }

    /// Drop every copy held in `node`'s buffers: the node *crashed*
    /// (rather than merely disconnecting) and rejoins with a cold
    /// cache (`node-outage-wipe` fault plans). Dirty copies are lost —
    /// the crash took the buffer contents with it, so there is no
    /// write-back. Every dropped copy goes through the normal eviction
    /// accounting, which keeps the copy-conservation equation of
    /// [`check_integrity`](Self::check_integrity) balanced. Returns
    /// the number of copies wiped. Backends with no per-node placement
    /// wipe nothing.
    fn wipe_node(&mut self, node: NodeId) -> u64 {
        let _ = node;
        0
    }

    /// Structural self-check for the runtime invariant oracle
    /// (DESIGN.md §15): copy conservation (inserts minus removals
    /// equals residency), capacity bounds, and cross-structure
    /// agreement (e.g. the xFS manager's holder registry versus the
    /// per-node pools). Returns a diagnostic message on the first
    /// violation found. Deliberately **not** counted as a metadata
    /// probe ([`meta_probes`](Self::meta_probes)), so running the
    /// oracle cannot move the deterministic profile counters the
    /// BENCH gate compares. Default: nothing to check.
    fn check_integrity(&self) -> Result<(), String> {
        Ok(())
    }

    /// Collect every dirty resident block and mark it clean — the
    /// periodic write-back sweep ("for fault-tolerance issues, these
    /// blocks are periodically sent to the disk", §5.3).
    fn sweep_dirty(&mut self) -> Vec<BlockId>;

    /// Account still-resident, never-used prefetched blocks as wasted.
    /// Call once at end of simulation.
    fn finalize(&mut self);

    /// Statistics accumulated so far.
    fn stats(&self) -> &CacheStats;

    /// Total capacity in blocks.
    fn capacity_blocks(&self) -> u64;

    /// Blocks currently resident (counting duplicates).
    fn resident_blocks(&self) -> u64;

    /// Metadata probes performed so far: every `access`, `contains`,
    /// `contains_local`, and `insert` call — the block-location table
    /// work the cooperative cache does per simulated operation. A
    /// deterministic cost counter for the simulator self-profile;
    /// backends without accounting report 0.
    fn meta_probes(&self) -> u64 {
        0
    }
}
