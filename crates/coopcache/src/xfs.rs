//! The xFS-style cooperative cache: serverless, per-node LRU caches
//! with manager-mediated remote hits and N-chance forwarding.

use std::cell::Cell;
use std::collections::BTreeSet;

use ioworkload::{BlockId, NodeId};

use crate::dense::{DenseHolders, DensePool, Meta, MetaLayout, NodeSet, Replacement, MAX_NODES};
use crate::stats::CacheStats;
use crate::{AccessOutcome, CooperativeCache, Evicted, InsertOrigin, Lookup};

/// xFS-style cooperative cache (Anderson et al., SOSP'95; cooperative
/// caching per Dahlin et al., OSDI'94).
///
/// "In this system, each node is allowed to make its own decisions.
/// These servers only contact a manager whenever an external help is
/// needed" (§4). The model:
///
/// * every node has its **own LRU cache** of `blocks_per_node` buffers;
/// * a **manager** records which nodes hold which blocks; a local miss
///   that some other node can serve becomes a *remote hit* and leaves a
///   **local duplicate** behind (that is how xFS clients cache data
///   they read);
/// * on eviction, a block that is the **last cached copy** (a
///   *singlet*) is forwarded to a random peer instead of being dropped,
///   up to `n_chance` times (N-chance forwarding); the receiving node
///   makes room by discarding its own LRU block *without* forwarding it
///   (no ripples);
/// * a write **invalidates** every other copy (manager-driven
///   coherence) and dirties the writer's local copy.
///
/// Duplicates and per-node autonomy are the point: they are what makes
/// a *global* linear prefetch limit unimplementable on xFS without
/// "modifying the general philosophy" of the system (§4), so the
/// simulator instantiates one prefetcher per *(node, file)* instead of
/// per *file* — and shared files get parallel, duplicated prefetch
/// streams (Figures 5 and 9).
///
/// ```
/// use coopcache::{CooperativeCache, InsertOrigin, Lookup, XfsCache};
/// use coopcache::{BlockId, FileId, NodeId};
///
/// let mut cache = XfsCache::new(4, 128);
/// let block = BlockId::new(FileId(0), 7);
/// cache.insert(NodeId(0), block, InsertOrigin::Demand, false);
/// // A remote hit leaves a local duplicate behind:
/// assert_eq!(
///     cache.access(NodeId(1), block, false).lookup,
///     Lookup::RemoteHit { holder: NodeId(0) }
/// );
/// assert_eq!(cache.access(NodeId(1), block, false).lookup, Lookup::LocalHit);
/// assert_eq!(cache.resident_blocks(), 2);
/// ```
pub struct XfsCache {
    pools: Vec<DensePool>,
    /// block -> set of nodes holding a copy (ascending-node iteration
    /// order, for determinism).
    holders: DenseHolders,
    /// Nodes currently disconnected from the cooperative cache
    /// (degraded mode): excluded from holder lookups and forwarding,
    /// and themselves reduced to local-only operation.
    down: NodeSet,
    blocks_per_node: u64,
    n_chance: u8,
    rng_state: u64,
    stats: CacheStats,
    /// Metadata probes (`meta_probes`); `Cell` because `contains*`
    /// take `&self`. The probe sequence is deterministic, so the count
    /// is a valid hard-gated profile counter.
    probes: Cell<u64>,
}

impl XfsCache {
    /// Default recirculation count used by the cooperative-caching
    /// literature (Dahlin's "N-chance" with N = 2).
    pub const DEFAULT_N_CHANCE: u8 = 2;

    /// Build a cache of `nodes` nodes with `blocks_per_node` buffers
    /// each, with the default N-chance depth and forwarding seed.
    pub fn new(nodes: u32, blocks_per_node: u64) -> Self {
        Self::with_options(nodes, blocks_per_node, Self::DEFAULT_N_CHANCE, 0x9E3779B9)
    }

    /// Build with explicit N-chance depth and RNG seed for forwarding
    /// targets.
    ///
    /// # Panics
    /// If `nodes` is not in `1..=MAX_NODES` or `blocks_per_node` is 0.
    pub fn with_options(nodes: u32, blocks_per_node: u64, n_chance: u8, seed: u64) -> Self {
        assert!((1..=MAX_NODES).contains(&nodes) && blocks_per_node > 0);
        XfsCache {
            pools: (0..nodes)
                .map(|_| DensePool::with_policy(Replacement::Lru))
                .collect(),
            holders: DenseHolders::new(),
            down: NodeSet::default(),
            blocks_per_node,
            n_chance,
            rng_state: seed | 1,
            stats: CacheStats::default(),
            probes: Cell::new(0),
        }
    }

    /// Same as [`with_options`](Self::with_options). Kept only so
    /// `perfbench` builds unchanged (see [`MetaLayout`]).
    pub fn with_layout(
        nodes: u32,
        blocks_per_node: u64,
        n_chance: u8,
        seed: u64,
        _: MetaLayout,
    ) -> Self {
        Self::with_options(nodes, blocks_per_node, n_chance, seed)
    }

    fn nodes(&self) -> u32 {
        self.pools.len() as u32
    }

    /// xorshift64*: deterministic, dependency-free forwarding targets.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A random up peer other than `not`: the `r`-th candidate in
    /// ascending node order, `r` one draw modulo their count (no draw
    /// when there is none). With no node down this is the pre-fault
    /// draw over `0..n` minus `not`, so zero-fault runs stay identical.
    fn pick_peer(&mut self, not: NodeId) -> Option<NodeId> {
        let mut candidates = NodeSet::first(self.nodes()).minus(self.down);
        candidates.remove(not.0);
        if candidates.is_empty() {
            return None;
        }
        let r = self.next_rand() % u64::from(candidates.len());
        candidates.iter().nth(r as usize).map(NodeId)
    }

    /// Make room in `node`'s pool for one incoming block, applying
    /// N-chance forwarding to evicted singlets.
    fn make_room(&mut self, node: NodeId, out: &mut Vec<Evicted>) {
        while self.pools[node.0 as usize].len() as u64 >= self.blocks_per_node {
            let (block, meta) = self.pools[node.0 as usize].pop_lru().expect("capacity > 0");
            self.holders.remove(block, node.0);
            let is_singlet = !self.holders.contains_key(block);
            if is_singlet && meta.recirc < self.n_chance {
                if let Some(peer) = self.pick_peer(node) {
                    self.stats.forwards += 1;
                    // The receiving node discards its own LRU block
                    // without forwarding it further (no ripples).
                    while self.pools[peer.0 as usize].len() as u64 >= self.blocks_per_node {
                        let (victim, vmeta) =
                            self.pools[peer.0 as usize].pop_lru().expect("capacity > 0");
                        self.holders.remove(victim, peer.0);
                        out.push(self.stats.account_eviction(victim, &vmeta));
                    }
                    let mut fwd = meta;
                    fwd.owner = peer;
                    fwd.recirc += 1;
                    self.pools[peer.0 as usize].insert(block, fwd);
                    self.holders.insert(block, peer.0);
                    continue;
                }
            }
            // Drop (write back if dirty).
            if is_singlet {
                self.stats.forward_drops += 1;
            }
            out.push(self.stats.account_eviction(block, &meta));
        }
    }

    fn insert_local(
        &mut self,
        node: NodeId,
        block: BlockId,
        dirty: bool,
        prefetched: bool,
        out: &mut Vec<Evicted>,
    ) {
        if self.pools[node.0 as usize].contains(block) {
            self.pools[node.0 as usize].refresh(block, dirty, !prefetched);
            return;
        }
        self.make_room(node, out);
        // fresh_meta already encodes used = !prefetched.
        let meta = Meta::fresh(node, dirty, prefetched);
        self.pools[node.0 as usize].insert(block, meta);
        self.holders.insert(block, node.0);
    }

    /// Invalidate every copy of `block` except the one on `keep`.
    fn invalidate_others(&mut self, keep: NodeId, block: BlockId, out: &mut Vec<Evicted>) {
        let mut others = self.holders.holders(block);
        others.remove(keep.0);
        for h in others.iter() {
            let node = NodeId(h);
            if let Some(meta) = self.pools[h as usize].remove(block) {
                self.holders.remove(block, node.0);
                self.stats.invalidations += 1;
                let wasted = meta.prefetched && !meta.used;
                if wasted {
                    self.stats.prefetch_wasted += 1;
                }
                // Invalidated copies are dropped without write-back:
                // the writer's copy supersedes their contents.
                out.push(Evicted {
                    block,
                    dirty: false,
                    wasted_prefetch: wasted,
                });
            }
        }
    }
}

impl CooperativeCache for XfsCache {
    fn access(&mut self, node: NodeId, block: BlockId, write: bool) -> AccessOutcome {
        self.probes.set(self.probes.get() + 1);
        let mut evicted = Vec::new();
        // Local?
        if let Some(before) = self.pools[node.0 as usize].touch(block, write) {
            if before.prefetched && !before.used {
                self.stats.prefetch_used += 1;
            }
            self.stats.local_hits += 1;
            if write {
                self.invalidate_others(node, block, &mut evicted);
            }
            return AccessOutcome {
                lookup: Lookup::LocalHit,
                evicted,
            };
        }
        // Remote? A down requester is cut off from the manager and
        // cannot see remote copies (local-only fallback); down holders
        // cannot serve.
        let holder = if self.down.contains(node.0) {
            None
        } else {
            self.holders.first_holder_up(block, self.down).map(NodeId)
        };
        if let Some(holder) = holder {
            self.stats.remote_hits += 1;
            // Credit prefetch usage on the serving copy.
            if let Some(before) = self.pools[holder.0 as usize].touch(block, false) {
                if before.prefetched && !before.used {
                    self.stats.prefetch_used += 1;
                }
            }
            if write {
                // Take ownership locally; other copies are stale.
                self.insert_local(node, block, true, false, &mut evicted);
                self.invalidate_others(node, block, &mut evicted);
            } else {
                // Reads leave a local duplicate behind.
                self.insert_local(node, block, false, false, &mut evicted);
            }
            return AccessOutcome {
                lookup: Lookup::RemoteHit { holder },
                evicted,
            };
        }
        self.stats.misses += 1;
        AccessOutcome {
            lookup: Lookup::Miss,
            evicted,
        }
    }

    fn contains(&self, block: BlockId) -> bool {
        self.probes.set(self.probes.get() + 1);
        self.holders.contains_key(block)
    }

    fn contains_local(&self, node: NodeId, block: BlockId) -> bool {
        self.probes.set(self.probes.get() + 1);
        self.pools[node.0 as usize].contains(block)
    }

    fn resident_run(&self, block: BlockId, max: u32) -> u32 {
        // One range query against the holder registry = one metadata
        // probe, answered from its presence bitmaps.
        self.probes.set(self.probes.get() + 1);
        self.holders.resident_run(block, max)
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
        if !self.pools[node.0 as usize].contains(block) {
            match origin {
                InsertOrigin::Demand => self.stats.demand_inserts += 1,
                InsertOrigin::Prefetch => self.stats.prefetch_inserts += 1,
            }
        }
        self.insert_local(
            node,
            block,
            dirty,
            origin == InsertOrigin::Prefetch,
            &mut out,
        );
        if dirty {
            self.invalidate_others(node, block, &mut out);
        }
        out
    }

    fn set_degraded(&mut self, node: NodeId, down: bool) {
        if down {
            self.down.insert(node.0);
        } else {
            self.down.remove(node.0);
        }
    }

    fn wipe_node(&mut self, node: NodeId) -> u64 {
        // The node crashed: its buffers are gone, so nothing can be
        // forwarded (no N-chance for wiped singlets) or written back.
        // Each dropped copy is unregistered from the manager and runs
        // through the regular eviction accounting.
        let mut wiped = 0u64;
        while let Some((block, meta)) = self.pools[node.0 as usize].pop_lru() {
            self.holders.remove(block, node.0);
            self.stats.account_eviction(block, &meta);
            wiped += 1;
        }
        wiped
    }

    fn check_integrity(&self) -> Result<(), String> {
        let s = &self.stats;
        let resident = self.resident_blocks();
        // Copies appear via counted inserts and via the duplicate (or
        // ownership-taking) copy every remote hit leaves behind; they
        // disappear via evictions and write invalidations. Forwards
        // are residency-neutral (the receiver's own victim is counted
        // as an eviction).
        let gains = s.demand_inserts + s.prefetch_inserts + s.remote_hits;
        let losses = s.evictions + s.invalidations;
        if gains < losses || gains - losses != resident {
            return Err(format!(
                "xfs copy conservation broken: demand_inserts {} + prefetch_inserts {} \
                 + remote_hits {} - evictions {} - invalidations {} != resident {resident}",
                s.demand_inserts, s.prefetch_inserts, s.remote_hits, s.evictions, s.invalidations
            ));
        }
        let mut total = 0u64;
        for (i, pool) in self.pools.iter().enumerate() {
            let node = NodeId(i as u32);
            if pool.len() as u64 > self.blocks_per_node {
                return Err(format!(
                    "xfs node {i} over capacity: {} > {}",
                    pool.len(),
                    self.blocks_per_node
                ));
            }
            let mut err = None;
            pool.for_each(&mut |block, meta| {
                if err.is_some() {
                    return;
                }
                if meta.owner != node {
                    err = Some(format!(
                        "xfs copy of file {} block {} in node {i}'s pool tagged owner {}",
                        block.file.0, block.index, meta.owner.0
                    ));
                } else if !self.holders.holders(block).contains(node.0) {
                    err = Some(format!(
                        "xfs node {i} holds file {} block {} but the manager has no record",
                        block.file.0, block.index
                    ));
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            total += pool.len() as u64;
        }
        let registered = self.holders.total_registrations();
        if registered != total {
            return Err(format!(
                "xfs manager registry disagrees with pools: {registered} registrations, \
                 {total} resident copies"
            ));
        }
        Ok(())
    }

    fn sweep_dirty(&mut self) -> Vec<BlockId> {
        let mut set = BTreeSet::new();
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
        self.nodes() as u64 * self.blocks_per_node
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
    fn local_then_remote_hit_with_duplication() {
        let mut c = XfsCache::new(3, 4);
        assert_eq!(c.access(n(0), b(1), false).lookup, Lookup::Miss);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        assert_eq!(c.access(n(0), b(1), false).lookup, Lookup::LocalHit);
        // Node 1 reads: remote hit, and a duplicate appears locally.
        assert_eq!(
            c.access(n(1), b(1), false).lookup,
            Lookup::RemoteHit { holder: n(0) }
        );
        assert!(c.contains_local(n(1), b(1)));
        assert!(c.contains_local(n(0), b(1)));
        assert_eq!(c.resident_blocks(), 2, "duplicates consume capacity");
        // Next access from node 1 is local.
        assert_eq!(c.access(n(1), b(1), false).lookup, Lookup::LocalHit);
    }

    #[test]
    fn per_node_capacity_is_enforced() {
        let mut c = XfsCache::new(2, 2);
        for i in 0..10 {
            c.insert(n(0), b(i), InsertOrigin::Demand, false);
        }
        // Node 0 never exceeds its 2 buffers; forwarded singlets may
        // land on node 1 (also capped at 2).
        assert!(c.pools[0].len() <= 2);
        assert!(c.pools[1].len() <= 2);
        assert!(c.resident_blocks() <= 4);
    }

    #[test]
    fn singlet_is_forwarded_not_dropped() {
        let mut c = XfsCache::new(2, 1);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        // Inserting b(2) evicts b(1), which is a singlet: forwarded to
        // node 1 rather than dropped.
        let ev = c.insert(n(0), b(2), InsertOrigin::Demand, false);
        assert!(c.contains(b(1)), "singlet kept alive on the peer");
        assert!(c.contains_local(n(1), b(1)));
        assert_eq!(c.stats().forwards, 1);
        assert!(ev.is_empty());
    }

    #[test]
    fn recirculation_is_bounded() {
        // One node only: forwarding impossible; but also test the
        // recirc counter with 2 nodes by ping-ponging a block.
        let mut c = XfsCache::with_options(2, 1, 1, 7);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        c.insert(n(0), b(2), InsertOrigin::Demand, false); // b1 forwarded (recirc 1)
        assert!(c.contains(b(1)));
        // Now evict it from node 1: recirc exhausted, dropped.
        c.insert(n(1), b(3), InsertOrigin::Demand, false);
        assert!(!c.contains(b(1)));
        assert_eq!(c.stats().forward_drops, 1);
    }

    #[test]
    fn duplicate_eviction_is_silent_drop() {
        let mut c = XfsCache::new(2, 2);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        c.access(n(1), b(1), false); // duplicate on node 1
                                     // Fill node 1 so its duplicate of b(1) gets evicted.
        c.insert(n(1), b(2), InsertOrigin::Demand, false);
        c.insert(n(1), b(3), InsertOrigin::Demand, false);
        // b(1) still cached on node 0 (the duplicate was not a singlet,
        // so it was dropped without forwarding).
        assert!(c.contains_local(n(0), b(1)));
        assert_eq!(c.stats().forwards, 0);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut c = XfsCache::new(3, 4);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        c.access(n(1), b(1), false); // duplicate on node 1
        assert_eq!(c.resident_blocks(), 2);
        c.access(n(1), b(1), true); // node 1 writes
        assert_eq!(c.stats().invalidations, 1);
        assert!(!c.contains_local(n(0), b(1)));
        assert!(c.contains_local(n(1), b(1)));
        assert_eq!(c.sweep_dirty(), vec![b(1)]);
    }

    #[test]
    fn write_miss_is_write_allocate() {
        let mut c = XfsCache::new(2, 2);
        assert_eq!(c.access(n(0), b(1), true).lookup, Lookup::Miss);
        c.insert(n(0), b(1), InsertOrigin::Demand, true);
        assert_eq!(c.sweep_dirty(), vec![b(1)]);
    }

    #[test]
    fn remote_write_takes_ownership() {
        let mut c = XfsCache::new(2, 2);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        let out = c.access(n(1), b(1), true);
        assert_eq!(out.lookup, Lookup::RemoteHit { holder: n(0) });
        assert!(c.contains_local(n(1), b(1)));
        assert!(!c.contains_local(n(0), b(1)), "old copy invalidated");
        assert_eq!(c.sweep_dirty(), vec![b(1)]);
    }

    #[test]
    fn prefetch_usage_credited_across_nodes() {
        let mut c = XfsCache::new(2, 4);
        c.insert(n(0), b(1), InsertOrigin::Prefetch, false);
        // Remote demand read uses the prefetched copy.
        assert_eq!(
            c.access(n(1), b(1), false).lookup,
            Lookup::RemoteHit { holder: n(0) }
        );
        assert_eq!(c.stats().prefetch_used, 1);
        c.finalize();
        assert_eq!(c.stats().prefetch_wasted, 0);
    }

    #[test]
    fn single_node_cluster_drops_singlets() {
        let mut c = XfsCache::new(1, 1);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        let ev = c.insert(n(0), b(2), InsertOrigin::Demand, false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].block, b(1));
        assert!(!c.contains(b(1)));
    }

    #[test]
    fn referenced_blocks_regain_recirculation_chances() {
        // n_chance = 1: a block forwarded once would be dropped on its
        // next eviction — unless it was referenced in between, which
        // resets its recirculation count (Dahlin's N-chance counts
        // forwards since the last reference).
        let mut c = XfsCache::with_options(2, 1, 1, 7);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        c.insert(n(0), b(2), InsertOrigin::Demand, false); // b1 forwarded to node 1
        assert!(c.contains_local(n(1), b(1)));
        // Reference it on node 1: recirc resets.
        assert_eq!(c.access(n(1), b(1), false).lookup, Lookup::LocalHit);
        // Evict it from node 1: it earns another forward instead of a drop.
        c.insert(n(1), b(3), InsertOrigin::Demand, false);
        assert!(
            c.contains(b(1)),
            "referenced singlet must be forwarded again"
        );
        assert_eq!(c.stats().forwards, 2);
        assert_eq!(c.stats().forward_drops, 0);
    }

    #[test]
    fn down_holder_cannot_serve_remote_hits() {
        let mut c = XfsCache::new(3, 4);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        c.set_degraded(n(0), true);
        assert_eq!(c.access(n(1), b(1), false).lookup, Lookup::Miss);
        // Recovery restores service; the copy survived the outage.
        c.set_degraded(n(0), false);
        assert_eq!(
            c.access(n(1), b(1), false).lookup,
            Lookup::RemoteHit { holder: n(0) }
        );
    }

    #[test]
    fn down_requester_falls_back_to_local_only() {
        let mut c = XfsCache::new(2, 4);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        c.set_degraded(n(1), true);
        // No remote lookup while disconnected...
        assert_eq!(c.access(n(1), b(1), false).lookup, Lookup::Miss);
        // ...but its own buffers keep working (local-only mode).
        c.insert(n(1), b(2), InsertOrigin::Demand, false);
        assert_eq!(c.access(n(1), b(2), false).lookup, Lookup::LocalHit);
    }

    #[test]
    fn forwarding_skips_down_peers() {
        let mut c = XfsCache::new(3, 1);
        c.set_degraded(n(1), true);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        // Evicting the singlet must forward it to node 2 — node 1 is
        // down and cannot receive copies.
        c.insert(n(0), b(2), InsertOrigin::Demand, false);
        assert!(c.contains_local(n(2), b(1)));
        assert!(!c.contains_local(n(1), b(1)));
        assert_eq!(c.stats().forwards, 1);
    }

    #[test]
    fn all_peers_down_drops_singlet() {
        let mut c = XfsCache::new(2, 1);
        c.set_degraded(n(1), true);
        c.insert(n(0), b(1), InsertOrigin::Demand, false);
        let ev = c.insert(n(0), b(2), InsertOrigin::Demand, false);
        assert_eq!(ev.len(), 1, "nowhere to forward: dropped");
        assert!(!c.contains(b(1)));
        assert_eq!(c.stats().forward_drops, 1);
    }

    /// `pick_peer` draws exactly the peer the ascending candidate list
    /// `0..n` minus `not` and the down nodes would give, consuming one
    /// draw per non-empty list and none otherwise: random down masks,
    /// 1-, 50- and 128-node caches, and every peer down.
    #[test]
    fn pick_peer_matches_ascending_list_draw() {
        for nodes in [1u32, 2, 50, 128] {
            for (trial, down_pct) in [0u64, 10, 50, 97, 100].into_iter().enumerate() {
                let seed = 0x1234 + trial as u64;
                let mut c = XfsCache::with_options(nodes, 1, 2, seed);
                let mut list_rng = XfsCache::with_options(nodes, 1, 2, seed);
                let mut draws = XfsCache::with_options(1, 1, 2, seed ^ 0xABCD);
                let mut down = BTreeSet::new();
                for i in 0..nodes {
                    if draws.next_rand() % 100 < down_pct {
                        down.insert(i);
                        c.set_degraded(n(i), true);
                    }
                }
                for _ in 0..500 {
                    let not = (draws.next_rand() % u64::from(nodes)) as u32;
                    let candidates: Vec<u32> = (0..nodes)
                        .filter(|i| *i != not && !down.contains(i))
                        .collect();
                    let expected = if candidates.is_empty() {
                        None
                    } else {
                        let r = list_rng.next_rand() % candidates.len() as u64;
                        Some(n(candidates[r as usize]))
                    };
                    assert_eq!(
                        c.pick_peer(n(not)),
                        expected,
                        "{nodes} nodes, trial {trial}"
                    );
                }
            }
            // Every peer of node 0 down (node 0 itself up or down): no
            // peer, and no draw consumed.
            for self_down in [false, true] {
                let mut c = XfsCache::with_options(nodes, 1, 2, 9);
                for i in 0..nodes {
                    c.set_degraded(n(i), i != 0 || self_down);
                }
                let before = c.rng_state;
                assert_eq!(c.pick_peer(n(0)), None);
                assert_eq!(c.rng_state, before);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut c = XfsCache::with_options(4, 2, 2, seed);
            for i in 0..20 {
                c.insert(n((i % 4) as u32), b(i), InsertOrigin::Demand, false);
            }
            let resident: Vec<bool> = (0..20).map(|i| c.contains(b(i))).collect();
            (resident, c.stats().forwards)
        };
        assert_eq!(run(42), run(42));
    }
}
