//! A non-cooperative baseline: independent per-node caches.
//!
//! Every node has its own LRU cache and a miss goes straight to disk —
//! no remote hits, no forwarding, no global management. This is the
//! world *before* cooperative caching (the paper's introduction cites
//! Dahlin et al.'s cooperative caching as the improvement over exactly
//! this), kept here as a comparison baseline: running the same workload
//! on [`LocalOnlyCache`] vs [`PafsCache`](crate::PafsCache) /
//! [`XfsCache`](crate::XfsCache) shows how much of the performance the
//! *cooperation* contributes, independent of prefetching.

use std::cell::Cell;

use ioworkload::{BlockId, NodeId};

use crate::dense::{DensePool, Meta, Replacement};
use crate::stats::CacheStats;
use crate::{AccessOutcome, CooperativeCache, Evicted, InsertOrigin, Lookup};

/// Independent per-node LRU caches with no cooperation at all.
pub struct LocalOnlyCache {
    pools: Vec<DensePool>,
    blocks_per_node: u64,
    stats: CacheStats,
    /// Metadata probes (`meta_probes`); `Cell` because `contains*`
    /// take `&self`.
    probes: Cell<u64>,
}

impl LocalOnlyCache {
    /// Build `nodes` independent caches of `blocks_per_node` buffers.
    pub fn new(nodes: u32, blocks_per_node: u64) -> Self {
        Self::with_policy(nodes, blocks_per_node, Replacement::Lru)
    }

    /// Build with an explicit replacement policy.
    pub fn with_policy(nodes: u32, blocks_per_node: u64, policy: Replacement) -> Self {
        assert!(nodes > 0 && blocks_per_node > 0);
        LocalOnlyCache {
            pools: (0..nodes).map(|_| DensePool::with_policy(policy)).collect(),
            blocks_per_node,
            stats: CacheStats::default(),
            probes: Cell::new(0),
        }
    }

    fn make_room(&mut self, node: NodeId, out: &mut Vec<Evicted>) {
        while self.pools[node.0 as usize].len() as u64 >= self.blocks_per_node {
            let (block, meta) = self.pools[node.0 as usize].pop_lru().expect("capacity > 0");
            out.push(self.stats.account_eviction(block, &meta));
        }
    }
}

impl CooperativeCache for LocalOnlyCache {
    fn access(&mut self, node: NodeId, block: BlockId, write: bool) -> AccessOutcome {
        self.probes.set(self.probes.get() + 1);
        match self.pools[node.0 as usize].touch(block, write) {
            Some(before) => {
                if before.prefetched && !before.used {
                    self.stats.prefetch_used += 1;
                }
                self.stats.local_hits += 1;
                AccessOutcome {
                    lookup: Lookup::LocalHit,
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
        // No cooperation: "contained" only means some node has it, and
        // callers that ask globally (e.g. PAFS-style prefetchers) never
        // run against this cache. Still answer honestly.
        self.pools.iter().any(|p| p.contains(block))
    }

    fn contains_local(&self, node: NodeId, block: BlockId) -> bool {
        self.probes.set(self.probes.get() + 1);
        self.pools[node.0 as usize].contains(block)
    }

    fn resident_run(&self, block: BlockId, max: u32) -> u32 {
        self.probes.set(self.probes.get() + 1);
        let mut n = 0;
        while n < max {
            let member = BlockId::new(block.file, block.index + u64::from(n));
            if !self.pools.iter().any(|p| p.contains(member)) {
                break;
            }
            n += 1;
        }
        n
    }

    fn insert(
        &mut self,
        node: NodeId,
        block: BlockId,
        origin: InsertOrigin,
        dirty: bool,
    ) -> Vec<Evicted> {
        self.probes.set(self.probes.get() + 1);
        let mut out = Vec::new();
        if self.pools[node.0 as usize].contains(block) {
            self.pools[node.0 as usize].refresh(block, dirty, origin == InsertOrigin::Demand);
            return out;
        }
        match origin {
            InsertOrigin::Demand => self.stats.demand_inserts += 1,
            InsertOrigin::Prefetch => self.stats.prefetch_inserts += 1,
        }
        self.make_room(node, &mut out);
        // fresh_meta already encodes used = !prefetched.
        let meta = Meta::fresh(node, dirty, origin == InsertOrigin::Prefetch);
        self.pools[node.0 as usize].insert(block, meta);
        out
    }

    fn wipe_node(&mut self, node: NodeId) -> u64 {
        // Crash semantics: the node's buffers vanish, dirty copies are
        // lost, and every drop is accounted as an eviction.
        let mut wiped = 0u64;
        while let Some((block, meta)) = self.pools[node.0 as usize].pop_lru() {
            self.stats.account_eviction(block, &meta);
            wiped += 1;
        }
        wiped
    }

    fn check_integrity(&self) -> Result<(), String> {
        let s = &self.stats;
        let resident = self.resident_blocks();
        let inserted = s.demand_inserts + s.prefetch_inserts;
        if inserted < s.evictions || inserted - s.evictions != resident {
            return Err(format!(
                "local-only copy conservation broken: demand_inserts {} + prefetch_inserts {} \
                 - evictions {} != resident {resident}",
                s.demand_inserts, s.prefetch_inserts, s.evictions
            ));
        }
        for (i, pool) in self.pools.iter().enumerate() {
            if pool.len() as u64 > self.blocks_per_node {
                return Err(format!(
                    "local-only node {i} over capacity: {} > {}",
                    pool.len(),
                    self.blocks_per_node
                ));
            }
        }
        Ok(())
    }

    fn sweep_dirty(&mut self) -> Vec<BlockId> {
        let mut set = std::collections::BTreeSet::new();
        for pool in &mut self.pools {
            set.extend(pool.sweep_dirty());
        }
        set.into_iter().collect()
    }

    fn finalize(&mut self) {
        for pool in &self.pools {
            self.stats.prefetch_wasted += pool.count_unused_prefetched();
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn capacity_blocks(&self) -> u64 {
        self.pools.len() as u64 * self.blocks_per_node
    }

    fn resident_blocks(&self) -> u64 {
        self.pools.iter().map(|p| p.len() as u64).sum()
    }

    fn meta_probes(&self) -> u64 {
        self.probes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioworkload::FileId;

    fn b(i: u64) -> BlockId {
        BlockId::new(FileId(0), i)
    }
    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn no_remote_hits_ever() {
        let mut c = LocalOnlyCache::new(2, 4);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        // Node 1 asking for a block node 0 caches still misses.
        assert_eq!(c.access(n(1), b(1), false).lookup, Lookup::Miss);
        assert_eq!(c.access(n(0), b(1), false).lookup, Lookup::LocalHit);
        assert_eq!(c.stats().remote_hits, 0);
    }

    #[test]
    fn evictions_are_silent_drops() {
        let mut c = LocalOnlyCache::new(1, 2);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        c.insert(n(0), b(2), InsertOrigin::Demand, false);
        let ev = c.insert(n(0), b(3), InsertOrigin::Demand, false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].block, b(1));
        assert!(!c.contains(b(1)));
        assert_eq!(c.stats().forwards, 0, "no N-chance here");
    }

    #[test]
    fn per_node_capacity() {
        let mut c = LocalOnlyCache::new(3, 2);
        for i in 0..10 {
            c.insert(n(0), b(i), InsertOrigin::Demand, false);
        }
        assert_eq!(c.resident_blocks(), 2, "only node 0 holds anything");
        assert_eq!(c.capacity_blocks(), 6);
    }

    #[test]
    fn dirty_sweep_and_eviction_accounting() {
        let mut c = LocalOnlyCache::new(1, 2);
        assert_eq!(c.access(n(0), b(1), true).lookup, Lookup::Miss);
        c.insert(n(0), b(1), InsertOrigin::Demand, true);
        assert_eq!(c.sweep_dirty(), vec![b(1)]);
        c.access(n(0), b(1), true);
        c.insert(n(0), b(2), InsertOrigin::Demand, false);
        let ev = c.insert(n(0), b(3), InsertOrigin::Demand, false);
        assert!(ev[0].dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn prefetch_usage_tracked_per_node() {
        let mut c = LocalOnlyCache::new(2, 4);
        c.insert(n(0), b(1), InsertOrigin::Prefetch, false);
        c.insert(n(1), b(2), InsertOrigin::Prefetch, false);
        c.access(n(0), b(1), false);
        c.finalize();
        assert_eq!(c.stats().prefetch_used, 1);
        assert_eq!(c.stats().prefetch_wasted, 1);
    }

    #[test]
    fn fifo_policy_ignores_touches() {
        let mut c = LocalOnlyCache::with_policy(1, 2, Replacement::Fifo);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        c.insert(n(0), b(2), InsertOrigin::Demand, false);
        // Touch block 1; under FIFO it is still the first to go.
        c.access(n(0), b(1), false);
        let ev = c.insert(n(0), b(3), InsertOrigin::Demand, false);
        assert_eq!(ev[0].block, b(1));
    }
}
