//! The PAFS cooperative cache: centralized, globally managed, one copy
//! per block.

use std::cell::Cell;
use std::collections::BTreeSet;

use ioworkload::{BlockId, FileId, NodeId};

use crate::dense::{DensePool, Meta, MetaLayout, Replacement};
use crate::stats::CacheStats;
use crate::{AccessOutcome, CooperativeCache, Evicted, InsertOrigin, Lookup};

/// The authoritative PAFS file-to-server mapping: file servers are
/// spread round-robin over the nodes. Exposed so the simulator places
/// prefetched blocks on the same node [`PafsCache::server_of`] reports.
pub fn server_node(file: FileId, nodes: u32) -> NodeId {
    NodeId(file.0 % nodes)
}

/// PAFS-style cooperative cache.
///
/// "In PAFS, the management of a given file is handled by a single
/// server. This kind of centralized management allows a simple
/// implementation of the idea of a linear aggressive prefetching"
/// (§4). The cache model that matches this design:
///
/// * all nodes' buffers form **one global LRU pool** (capacity =
///   `nodes × blocks_per_node`);
/// * each block has exactly **one copy**, tagged with the node whose
///   buffer holds it (PAFS's design has "no coherence problems");
/// * replacement is **global LRU**: a newly fetched block replaces the
///   globally oldest block, wherever it lives — which is precisely why
///   aggressive prefetching is safe: "miss-predictions mostly replace
///   very old blocks that nobody expects to find in the cache" (§1);
/// * a local hit costs a memory copy, a remote hit one network round
///   trip (charged by the simulator).
///
/// ```
/// use coopcache::{CooperativeCache, InsertOrigin, Lookup, PafsCache};
/// use coopcache::{BlockId, FileId, NodeId};
///
/// let mut cache = PafsCache::new(4, 128);
/// let block = BlockId::new(FileId(0), 7);
/// assert_eq!(cache.access(NodeId(0), block, false).lookup, Lookup::Miss);
/// cache.insert(NodeId(0), block, InsertOrigin::Demand, false);
/// assert_eq!(cache.access(NodeId(0), block, false).lookup, Lookup::LocalHit);
/// assert_eq!(
///     cache.access(NodeId(3), block, false).lookup,
///     Lookup::RemoteHit { holder: NodeId(0) }
/// );
/// ```
pub struct PafsCache {
    pool: DensePool,
    nodes: u32,
    capacity: u64,
    /// Nodes currently disconnected from the cooperative cache
    /// (degraded mode). BTreeSet for deterministic iteration.
    down: BTreeSet<u32>,
    stats: CacheStats,
    /// Metadata probes (`meta_probes`); `Cell` because `contains*`
    /// take `&self`. The probe sequence is deterministic, so the count
    /// is a valid hard-gated profile counter.
    probes: Cell<u64>,
}

impl PafsCache {
    /// Build a cache of `nodes` nodes contributing `blocks_per_node`
    /// buffers each, with global LRU replacement.
    pub fn new(nodes: u32, blocks_per_node: u64) -> Self {
        Self::with_policy(nodes, blocks_per_node, Replacement::Lru)
    }

    /// Build with an explicit replacement policy (for the
    /// replacement-policy ablation).
    pub fn with_policy(nodes: u32, blocks_per_node: u64, policy: Replacement) -> Self {
        assert!(nodes > 0 && blocks_per_node > 0);
        PafsCache {
            pool: DensePool::with_policy(policy),
            nodes,
            capacity: nodes as u64 * blocks_per_node,
            down: BTreeSet::new(),
            stats: CacheStats::default(),
            probes: Cell::new(0),
        }
    }

    /// Same as [`with_policy`](Self::with_policy). Kept only so
    /// `perfbench` builds unchanged (see [`MetaLayout`]).
    pub fn with_layout(
        nodes: u32,
        blocks_per_node: u64,
        policy: Replacement,
        _: MetaLayout,
    ) -> Self {
        Self::with_policy(nodes, blocks_per_node, policy)
    }

    /// The node running the (single) server for `file` — all requests
    /// for the file funnel through it, which is what makes the global
    /// linear prefetch limit trivially implementable.
    pub fn server_of(&self, file: FileId) -> NodeId {
        server_node(file, self.nodes)
    }

    /// The node actually serving `file` right now: the authoritative
    /// server unless it is down, in which case management fails over
    /// to the next node (round-robin) that is still up. With every
    /// node down the preferred server is returned unchanged.
    pub fn effective_server_of(&self, file: FileId) -> NodeId {
        self.failover_target(server_node(file, self.nodes))
    }

    /// First node at or after `preferred` (wrapping) that is up.
    fn failover_target(&self, preferred: NodeId) -> NodeId {
        if !self.down.contains(&preferred.0) {
            return preferred;
        }
        let mut s = preferred.0;
        for _ in 0..self.nodes {
            s = (s + 1) % self.nodes;
            if !self.down.contains(&s) {
                return NodeId(s);
            }
        }
        preferred
    }

    fn evict_for_space(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        while self.pool.len() as u64 >= self.capacity {
            let (block, meta) = self.pool.pop_lru().expect("capacity > 0");
            out.push(self.stats.account_eviction(block, &meta));
        }
        out
    }
}

impl CooperativeCache for PafsCache {
    fn access(&mut self, node: NodeId, block: BlockId, write: bool) -> AccessOutcome {
        self.probes.set(self.probes.get() + 1);
        // A copy held by a disconnected node cannot be reached over the
        // network: the access misses, but the copy itself survives and
        // serves again once the holder rejoins.
        if let Some(meta) = self.pool.get(block) {
            if meta.owner != node && self.down.contains(&meta.owner.0) {
                self.stats.misses += 1;
                return AccessOutcome {
                    lookup: Lookup::Miss,
                    evicted: Vec::new(),
                };
            }
        }
        match self.pool.touch(block, write) {
            Some(before) => {
                if before.prefetched && !before.used {
                    self.stats.prefetch_used += 1;
                }
                let lookup = if before.owner == node {
                    self.stats.local_hits += 1;
                    Lookup::LocalHit
                } else {
                    self.stats.remote_hits += 1;
                    Lookup::RemoteHit {
                        holder: before.owner,
                    }
                };
                AccessOutcome {
                    lookup,
                    evicted: Vec::new(),
                }
            }
            None => {
                self.stats.misses += 1;
                AccessOutcome {
                    lookup: Lookup::Miss,
                    evicted: Vec::new(),
                }
            }
        }
    }

    fn contains(&self, block: BlockId) -> bool {
        self.probes.set(self.probes.get() + 1);
        self.pool.contains(block)
    }

    fn contains_local(&self, node: NodeId, block: BlockId) -> bool {
        self.probes.set(self.probes.get() + 1);
        self.pool.get(block).is_some_and(|m| m.owner == node)
    }

    fn resident_run(&self, block: BlockId, max: u32) -> u32 {
        // One range query against the pool = one metadata probe,
        // answered from the pool's presence bitmaps.
        self.probes.set(self.probes.get() + 1);
        self.pool.resident_run(block, max)
    }

    fn insert(
        &mut self,
        node: NodeId,
        block: BlockId,
        origin: InsertOrigin,
        dirty: bool,
    ) -> Vec<Evicted> {
        self.probes.set(self.probes.get() + 1);
        // Degraded mode: placement on a down server fails over to the
        // next node that is up (centralized management re-homes the
        // file's service, §4's single-server design made fault-aware).
        let node = self.failover_target(node);
        if self.pool.contains(block) {
            // Concurrent fetch already landed it; refresh recency (and
            // usage only when this insert is demand-driven).
            self.pool
                .refresh(block, dirty, origin == InsertOrigin::Demand);
            return Vec::new();
        }
        let evicted = self.evict_for_space();
        let prefetched = origin == InsertOrigin::Prefetch;
        match origin {
            InsertOrigin::Demand => self.stats.demand_inserts += 1,
            InsertOrigin::Prefetch => self.stats.prefetch_inserts += 1,
        }
        self.pool
            .insert(block, Meta::fresh(node, dirty, prefetched));
        evicted
    }

    fn set_degraded(&mut self, node: NodeId, down: bool) {
        if down {
            self.down.insert(node.0);
        } else {
            self.down.remove(&node.0);
        }
    }

    fn wipe_node(&mut self, node: NodeId) -> u64 {
        // The crashed node's buffers held one copy each of the blocks
        // placed on it; collect them and drop them through the regular
        // eviction accounting. Dirty copies are lost.
        let mut owned = Vec::new();
        self.pool.for_each(&mut |block, meta| {
            if meta.owner == node {
                owned.push(block);
            }
        });
        for &block in &owned {
            let meta = self.pool.remove(block).expect("collected above");
            self.stats.account_eviction(block, &meta);
        }
        owned.len() as u64
    }

    fn check_integrity(&self) -> Result<(), String> {
        let s = &self.stats;
        let resident = self.pool.len() as u64;
        let inserted = s.demand_inserts + s.prefetch_inserts;
        if inserted < s.evictions || inserted - s.evictions != resident {
            return Err(format!(
                "pafs copy conservation broken: demand_inserts {} + prefetch_inserts {} \
                 - evictions {} != resident {resident}",
                s.demand_inserts, s.prefetch_inserts, s.evictions
            ));
        }
        if resident > self.capacity {
            return Err(format!(
                "pafs over capacity: resident {resident} > capacity {}",
                self.capacity
            ));
        }
        let nodes = self.nodes;
        let mut visited = 0u64;
        let mut bad_owner = None;
        self.pool.for_each(&mut |block, meta| {
            visited += 1;
            if meta.owner.0 >= nodes && bad_owner.is_none() {
                bad_owner = Some((block, meta.owner));
            }
        });
        if visited != resident {
            return Err(format!(
                "pafs pool iteration/len disagree: visited {visited}, len {resident}"
            ));
        }
        if let Some((block, owner)) = bad_owner {
            return Err(format!(
                "pafs copy of file {} block {} owned by out-of-range node {}",
                block.file.0, block.index, owner.0
            ));
        }
        Ok(())
    }

    fn sweep_dirty(&mut self) -> Vec<BlockId> {
        self.pool.sweep_dirty()
    }

    fn finalize(&mut self) {
        self.stats.prefetch_wasted += self.pool.count_unused_prefetched();
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity
    }

    fn resident_blocks(&self) -> u64 {
        self.pool.len() as u64
    }

    fn meta_probes(&self) -> u64 {
        self.probes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(f: u32, i: u64) -> BlockId {
        BlockId::new(FileId(f), i)
    }
    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn miss_then_insert_then_local_hit() {
        let mut c = PafsCache::new(2, 4);
        assert_eq!(c.access(n(0), b(0, 0), false).lookup, Lookup::Miss);
        c.insert(n(0), b(0, 0), InsertOrigin::Demand, false);
        assert_eq!(c.access(n(0), b(0, 0), false).lookup, Lookup::LocalHit);
        assert_eq!(
            c.access(n(1), b(0, 0), false).lookup,
            Lookup::RemoteHit { holder: n(0) }
        );
        let s = c.stats();
        assert_eq!((s.misses, s.local_hits, s.remote_hits), (1, 1, 1));
    }

    #[test]
    fn global_lru_eviction_across_nodes() {
        // 2 nodes x 2 blocks = 4 buffers globally.
        let mut c = PafsCache::new(2, 2);
        for i in 0..4 {
            c.insert(n(0), b(0, i), InsertOrigin::Demand, false);
        }
        assert_eq!(c.resident_blocks(), 4);
        // Touch block 0 so block 1 is globally oldest.
        c.access(n(1), b(0, 0), false);
        let ev = c.insert(n(1), b(0, 9), InsertOrigin::Demand, false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].block, b(0, 1));
        assert!(c.contains(b(0, 0)));
        assert!(!c.contains(b(0, 1)));
    }

    #[test]
    fn single_copy_semantics() {
        let mut c = PafsCache::new(4, 4);
        c.insert(n(0), b(0, 0), InsertOrigin::Demand, false);
        c.insert(n(3), b(0, 0), InsertOrigin::Demand, false); // no duplicate
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn dirty_lifecycle_and_sweep() {
        let mut c = PafsCache::new(1, 4);
        c.insert(n(0), b(0, 0), InsertOrigin::Demand, false);
        c.access(n(0), b(0, 0), true); // write marks dirty
        assert_eq!(c.sweep_dirty(), vec![b(0, 0)]);
        assert!(c.sweep_dirty().is_empty(), "clean after sweep");
        // Dirty again and evict: dirty eviction counted.
        c.access(n(0), b(0, 0), true);
        for i in 1..=4 {
            c.insert(n(0), b(0, i), InsertOrigin::Demand, false);
        }
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn prefetch_usage_accounting() {
        let mut c = PafsCache::new(1, 2);
        c.insert(n(0), b(0, 0), InsertOrigin::Prefetch, false);
        c.insert(n(0), b(0, 1), InsertOrigin::Prefetch, false);
        // Block 0 used; block 1 never used and then evicted.
        c.access(n(0), b(0, 0), false);
        c.insert(n(0), b(0, 2), InsertOrigin::Demand, false); // evicts b1
        assert_eq!(c.stats().prefetch_used, 1);
        assert_eq!(c.stats().prefetch_wasted, 1);
        assert!((c.stats().mispredict_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn finalize_counts_resident_unused_prefetches() {
        let mut c = PafsCache::new(1, 4);
        c.insert(n(0), b(0, 0), InsertOrigin::Prefetch, false);
        c.insert(n(0), b(0, 1), InsertOrigin::Prefetch, false);
        c.access(n(0), b(0, 1), false);
        c.finalize();
        assert_eq!(c.stats().prefetch_wasted, 1);
    }

    #[test]
    fn server_mapping_is_stable_and_in_range() {
        let c = PafsCache::new(5, 1);
        for f in 0..20 {
            let s = c.server_of(FileId(f));
            assert!(s.0 < 5);
            assert_eq!(s, c.server_of(FileId(f)));
        }
    }

    #[test]
    fn fifo_policy_evicts_in_insertion_order() {
        let mut c = PafsCache::with_policy(1, 2, Replacement::Fifo);
        c.insert(n(0), b(0, 0), InsertOrigin::Demand, false);
        c.insert(n(0), b(0, 1), InsertOrigin::Demand, false);
        // Touch block 0; FIFO still evicts it first.
        c.access(n(0), b(0, 0), false);
        let ev = c.insert(n(0), b(0, 2), InsertOrigin::Demand, false);
        assert_eq!(ev[0].block, b(0, 0));
    }

    #[test]
    fn prefetch_reinsert_does_not_launder_unused_status() {
        let mut c = PafsCache::new(1, 4);
        c.insert(n(0), b(0, 0), InsertOrigin::Prefetch, false);
        // A second prefetch-origin insert of the same resident block
        // must not mark it used.
        c.insert(n(0), b(0, 0), InsertOrigin::Prefetch, false);
        c.finalize();
        assert_eq!(c.stats().prefetch_wasted, 1);
        assert_eq!(c.stats().prefetch_used, 0);
    }

    #[test]
    fn degraded_holder_copy_is_unreachable_but_survives() {
        let mut c = PafsCache::new(2, 4);
        c.insert(n(0), b(0, 0), InsertOrigin::Demand, false);
        c.set_degraded(n(0), true);
        // Remote access cannot reach the down holder's buffer...
        assert_eq!(c.access(n(1), b(0, 0), false).lookup, Lookup::Miss);
        // ...the holder itself still hits locally (disconnected, not
        // powered off)...
        assert_eq!(c.access(n(0), b(0, 0), false).lookup, Lookup::LocalHit);
        // ...and the copy serves remotely again after recovery.
        c.set_degraded(n(0), false);
        assert_eq!(
            c.access(n(1), b(0, 0), false).lookup,
            Lookup::RemoteHit { holder: n(0) }
        );
        assert_eq!(c.resident_blocks(), 1, "no eviction during the outage");
    }

    #[test]
    fn insert_fails_over_past_down_server() {
        let mut c = PafsCache::new(3, 4);
        c.set_degraded(n(1), true);
        assert_eq!(c.effective_server_of(FileId(1)), n(2), "1 is down");
        assert_eq!(c.effective_server_of(FileId(0)), n(0), "0 is up");
        // Placement requested on the down server lands on the failover
        // node and is locally reachable there.
        c.insert(n(1), b(1, 0), InsertOrigin::Demand, false);
        assert_eq!(c.access(n(2), b(1, 0), false).lookup, Lookup::LocalHit);
    }

    #[test]
    fn all_nodes_down_still_caches_on_preferred_server() {
        let mut c = PafsCache::new(2, 4);
        c.set_degraded(n(0), true);
        c.set_degraded(n(1), true);
        c.insert(n(0), b(0, 0), InsertOrigin::Demand, false);
        assert_eq!(c.resident_blocks(), 1);
        assert_eq!(c.access(n(0), b(0, 0), false).lookup, Lookup::LocalHit);
    }

    #[test]
    fn duplicate_insert_is_refresh_not_growth() {
        let mut c = PafsCache::new(1, 2);
        c.insert(n(0), b(0, 0), InsertOrigin::Demand, false);
        c.insert(n(0), b(0, 1), InsertOrigin::Demand, false);
        // Re-insert block 0 (e.g. a racing fetch): refreshes recency.
        c.insert(n(0), b(0, 0), InsertOrigin::Demand, false);
        let ev = c.insert(n(0), b(0, 2), InsertOrigin::Demand, false);
        assert_eq!(ev[0].block, b(0, 1), "block 1 is now the LRU victim");
    }
}
