//! Property tests for the cooperative caches, driven by the in-repo
//! seeded PRNG (no external dependencies).

use coopcache::{
    AccessOutcome, BlockId, CooperativeCache, FileId, InsertOrigin, LocalOnlyCache, Lookup,
    PafsCache, Replacement, XfsCache,
};
use ioworkload::util::Rng64;

/// A random cache operation.
#[derive(Clone, Copy, Debug)]
enum CacheOp {
    Read(u32, u64),
    Write(u32, u64),
    InsertDemand(u32, u64),
    InsertPrefetch(u32, u64),
    Sweep,
}

fn random_ops(rng: &mut Rng64, nodes: u32, blocks: u64, max_len: usize) -> Vec<CacheOp> {
    let len = rng.range_u64(1, max_len as u64) as usize;
    (0..len)
        .map(|_| {
            let k = rng.range_u32(0, 4) as u8;
            let n = rng.range_u32(0, nodes - 1);
            let b = rng.range_u64(0, blocks - 1);
            match k {
                0 => CacheOp::Read(n, b),
                1 => CacheOp::Write(n, b),
                2 => CacheOp::InsertDemand(n, b),
                3 => CacheOp::InsertPrefetch(n, b),
                _ => CacheOp::Sweep,
            }
        })
        .collect()
}

/// Drive a cache through an op sequence, asserting invariants after
/// every step. On a miss during Read/Write we model the fill the
/// simulator would do (insert after fetch).
fn exercise<C: CooperativeCache>(cache: &mut C, ops: &[CacheOp], ctx: &str) {
    for &op in ops {
        match op {
            CacheOp::Read(n, b) | CacheOp::Write(n, b) => {
                let write = matches!(op, CacheOp::Write(..));
                let node = NodeId(n);
                let block = BlockId::new(FileId(0), b);
                let AccessOutcome { lookup, .. } = cache.access(node, block, write);
                if lookup == Lookup::Miss {
                    cache.insert(node, block, InsertOrigin::Demand, write);
                    assert!(
                        cache.contains(block),
                        "fill must make block resident ({ctx})"
                    );
                }
            }
            CacheOp::InsertDemand(n, b) | CacheOp::InsertPrefetch(n, b) => {
                let origin = if matches!(op, CacheOp::InsertPrefetch(..)) {
                    InsertOrigin::Prefetch
                } else {
                    InsertOrigin::Demand
                };
                cache.insert(NodeId(n), BlockId::new(FileId(0), b), origin, false);
            }
            CacheOp::Sweep => {
                cache.sweep_dirty();
            }
        }
        assert!(
            cache.resident_blocks() <= cache.capacity_blocks(),
            "over capacity: {} > {} ({ctx})",
            cache.resident_blocks(),
            cache.capacity_blocks()
        );
        let s = *cache.stats();
        assert_eq!(
            s.accesses(),
            s.local_hits + s.remote_hits + s.misses,
            "{ctx}"
        );
        assert!(
            s.prefetch_used + s.prefetch_wasted <= s.prefetch_inserts + s.accesses(),
            "{ctx}"
        );
    }
    cache.finalize();
}

use coopcache::NodeId;

#[test]
fn pafs_invariants() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case);
        let nodes = rng.range_u32(1, 5);
        let per_node = rng.range_u64(1, 7);
        let ops = random_ops(&mut rng, nodes, 32, 200);
        let mut cache = PafsCache::new(nodes, per_node);
        exercise(&mut cache, &ops, &format!("pafs case {case}"));
    }
}

#[test]
fn xfs_invariants() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0xF5);
        let nodes = rng.range_u32(1, 5);
        let per_node = rng.range_u64(1, 7);
        let n_chance = rng.range_u32(0, 3) as u8;
        let seed = rng.range_u64(0, 999);
        let ops = random_ops(&mut rng, nodes, 32, 200);
        let mut cache = XfsCache::with_options(nodes, per_node, n_chance, seed);
        exercise(&mut cache, &ops, &format!("xfs case {case}"));
    }
}

/// After any op sequence, every dirty block reported by a sweep was
/// actually written at some point, and a second sweep is empty.
#[test]
fn sweep_is_idempotent() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0x53E);
        let ops = random_ops(&mut rng, 4, 16, 100);
        let mut cache = XfsCache::new(4, 4);
        let mut written = std::collections::BTreeSet::new();
        for &op in &ops {
            match op {
                CacheOp::Read(n, b) | CacheOp::Write(n, b) => {
                    let write = matches!(op, CacheOp::Write(..));
                    let block = BlockId::new(FileId(0), b);
                    if write {
                        written.insert(block);
                    }
                    let out = cache.access(NodeId(n), block, write);
                    if out.lookup == Lookup::Miss {
                        cache.insert(NodeId(n), block, InsertOrigin::Demand, write);
                    }
                }
                CacheOp::InsertDemand(n, b) => {
                    cache.insert(
                        NodeId(n),
                        BlockId::new(FileId(0), b),
                        InsertOrigin::Demand,
                        false,
                    );
                }
                CacheOp::InsertPrefetch(n, b) => {
                    cache.insert(
                        NodeId(n),
                        BlockId::new(FileId(0), b),
                        InsertOrigin::Prefetch,
                        false,
                    );
                }
                CacheOp::Sweep => {}
            }
        }
        let dirty = cache.sweep_dirty();
        for b in &dirty {
            assert!(
                written.contains(b),
                "{b:?} swept but never written (case {case})"
            );
        }
        assert!(cache.sweep_dirty().is_empty(), "case {case}");
    }
}

#[test]
fn local_only_invariants() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0x10CA1);
        let nodes = rng.range_u32(1, 5);
        let per_node = rng.range_u64(1, 7);
        let fifo = rng.chance(0.5);
        let ops = random_ops(&mut rng, nodes, 32, 200);
        let policy = if fifo {
            Replacement::Fifo
        } else {
            Replacement::Lru
        };
        let mut cache = LocalOnlyCache::with_policy(nodes, per_node, policy);
        exercise(&mut cache, &ops, &format!("local-only case {case}"));
        // Cooperation-free: remote hits are impossible.
        assert_eq!(cache.stats().remote_hits, 0, "case {case}");
        assert_eq!(cache.stats().forwards, 0, "case {case}");
    }
}

/// PAFS with FIFO replacement keeps all capacity/accounting invariants
/// of the LRU version.
#[test]
fn pafs_fifo_invariants() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0xF1F0);
        let nodes = rng.range_u32(1, 5);
        let per_node = rng.range_u64(1, 7);
        let ops = random_ops(&mut rng, nodes, 32, 200);
        let mut cache = PafsCache::with_policy(nodes, per_node, Replacement::Fifo);
        exercise(&mut cache, &ops, &format!("pafs-fifo case {case}"));
    }
}

/// PAFS never holds two copies of a block: resident count equals the
/// number of distinct resident blocks.
#[test]
fn pafs_single_copy() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0x51C);
        let ops = random_ops(&mut rng, 4, 16, 150);
        let mut cache = PafsCache::new(4, 4);
        for &op in &ops {
            if let CacheOp::InsertDemand(n, b) | CacheOp::InsertPrefetch(n, b) = op {
                cache.insert(
                    NodeId(n),
                    BlockId::new(FileId(0), b),
                    InsertOrigin::Demand,
                    false,
                );
            }
        }
        let distinct = (0..16u64)
            .filter(|&b| cache.contains(BlockId::new(FileId(0), b)))
            .count() as u64;
        assert_eq!(cache.resident_blocks(), distinct, "case {case}");
    }
}

/// Global and per-node residency views agree for every cache:
/// `contains(b)` iff some node's `contains_local(n, b)`.
#[test]
fn residency_views_are_coherent() {
    for case in 0..96u64 {
        let mut rng = Rng64::new(case ^ 0xC0DE);
        let which = rng.range_u32(0, 2);
        let nodes = 4u32;
        let ops = random_ops(&mut rng, nodes, 24, 150);
        let mut cache: Box<dyn CooperativeCache> = match which {
            0 => Box::new(PafsCache::new(nodes, 4)),
            1 => Box::new(XfsCache::new(nodes, 4)),
            _ => Box::new(LocalOnlyCache::new(nodes, 4)),
        };
        for &op in &ops {
            match op {
                CacheOp::Read(n, b) | CacheOp::Write(n, b) => {
                    let write = matches!(op, CacheOp::Write(..));
                    let block = BlockId::new(FileId(0), b);
                    let out = cache.access(NodeId(n % nodes), block, write);
                    if out.lookup == Lookup::Miss {
                        cache.insert(NodeId(n % nodes), block, InsertOrigin::Demand, write);
                    }
                }
                CacheOp::InsertDemand(n, b) | CacheOp::InsertPrefetch(n, b) => {
                    cache.insert(
                        NodeId(n % nodes),
                        BlockId::new(FileId(0), b),
                        InsertOrigin::Demand,
                        false,
                    );
                }
                CacheOp::Sweep => {
                    cache.sweep_dirty();
                }
            }
        }
        for b in 0..24u64 {
            let block = BlockId::new(FileId(0), b);
            let any_local = (0..nodes).any(|n| cache.contains_local(NodeId(n), block));
            assert_eq!(
                cache.contains(block),
                any_local,
                "incoherent residency for block {b} (case {case})"
            );
        }
    }
}

/// `insert_run` must be exactly member-wise `insert` in ascending
/// order, on both cooperative backends: same residency, same victims
/// in the same sequence.
#[test]
fn insert_run_equals_memberwise_inserts_on_both_backends() {
    use ioworkload::NodeId;

    for which in 0..2u8 {
        let mut run_cache: Box<dyn CooperativeCache> = match which {
            0 => Box::new(PafsCache::new(2, 3)),
            _ => Box::new(XfsCache::new(2, 3)),
        };
        let mut one_cache: Box<dyn CooperativeCache> = match which {
            0 => Box::new(PafsCache::new(2, 3)),
            _ => Box::new(XfsCache::new(2, 3)),
        };
        // Pre-populate so the run forces evictions.
        for b in 0..4u64 {
            run_cache.insert(
                NodeId(0),
                BlockId::new(FileId(9), b),
                InsertOrigin::Demand,
                false,
            );
            one_cache.insert(
                NodeId(0),
                BlockId::new(FileId(9), b),
                InsertOrigin::Demand,
                false,
            );
        }

        let first = BlockId::new(FileId(1), 8);
        let run_victims = run_cache.insert_run(NodeId(1), first, 4, InsertOrigin::Prefetch, false);
        let mut one_victims = Vec::new();
        for i in 0..4u64 {
            one_victims.extend(one_cache.insert(
                NodeId(1),
                BlockId::new(FileId(1), first.index + i),
                InsertOrigin::Prefetch,
                false,
            ));
        }
        assert_eq!(
            run_victims, one_victims,
            "backend {which}: victim streams differ"
        );
        assert!(
            !run_victims.is_empty(),
            "backend {which}: expected evictions"
        );
        for i in 0..4u64 {
            let member = BlockId::new(FileId(1), first.index + i);
            assert_eq!(
                run_cache.contains(member),
                one_cache.contains(member),
                "backend {which}: residency differs for member {i}"
            );
        }
        assert_eq!(run_cache.resident_blocks(), one_cache.resident_blocks());
    }
}
