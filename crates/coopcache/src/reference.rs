//! The classic cache-metadata layout — `HashMap` + `BTreeSet` — kept
//! only as the reference model the equivalence tests in `dense` drive
//! [`DensePool`](crate::dense::DensePool) and
//! [`DenseHolders`](crate::dense::DenseHolders) against. Each
//! operation is the obvious O(log n) one, so its behaviour is easy to
//! check by eye.
#![allow(
    clippy::disallowed_types,
    reason = "test-only reference model; std's HashMap is the classic layout it reproduces"
)]

use std::collections::{BTreeSet, HashMap};

use ioworkload::{BlockId, NodeId};

use crate::dense::{Meta, Replacement};

/// An LRU-ordered pool of block copies with O(log n) operations.
///
/// Recency is tracked with a monotonically increasing sequence number
/// per touch; the `(seq, block)` pairs live in a [`BTreeSet`] whose
/// smallest element is the LRU victim.
pub(crate) struct LruPool {
    map: HashMap<BlockId, (Meta, u64)>,
    order: BTreeSet<(u64, BlockId)>,
    next_seq: u64,
    policy: Replacement,
}

impl LruPool {
    pub(crate) fn new() -> Self {
        Self::with_policy(Replacement::Lru)
    }

    pub(crate) fn with_policy(policy: Replacement) -> Self {
        LruPool {
            map: HashMap::new(),
            order: BTreeSet::new(),
            next_seq: 0,
            policy,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn contains(&self, block: BlockId) -> bool {
        self.map.contains_key(&block)
    }

    /// Consecutive resident blocks starting at `block`, capped at
    /// `max`, by point probes.
    pub(crate) fn resident_run(&self, block: BlockId, max: u32) -> u32 {
        let mut n = 0;
        while n < max && self.contains(BlockId::new(block.file, block.index + u64::from(n))) {
            n += 1;
        }
        n
    }

    pub(crate) fn get(&self, block: BlockId) -> Option<&Meta> {
        self.map.get(&block).map(|(m, _)| m)
    }

    pub(crate) fn touch(&mut self, block: BlockId, write: bool) -> Option<Meta> {
        self.touch_inner(block, write, true)
    }

    pub(crate) fn refresh(&mut self, block: BlockId, dirty: bool, mark_used: bool) -> Option<Meta> {
        self.touch_inner(block, dirty, mark_used)
    }

    fn touch_inner(&mut self, block: BlockId, write: bool, mark_used: bool) -> Option<Meta> {
        let (meta, seq) = self.map.get_mut(&block)?;
        let before = *meta;
        if mark_used {
            meta.used = true;
            meta.recirc = 0;
        }
        if write {
            meta.dirty = true;
        }
        if self.policy == Replacement::Lru {
            self.order.remove(&(*seq, block));
            *seq = self.next_seq;
            self.next_seq += 1;
            self.order.insert((*seq, block));
        }
        Some(before)
    }

    /// Insert (or overwrite) a block copy at MRU position.
    pub(crate) fn insert(&mut self, block: BlockId, meta: Meta) {
        self.remove(block);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.map.insert(block, (meta, seq));
        self.order.insert((seq, block));
    }

    pub(crate) fn remove(&mut self, block: BlockId) -> Option<Meta> {
        let (meta, seq) = self.map.remove(&block)?;
        self.order.remove(&(seq, block));
        Some(meta)
    }

    pub(crate) fn pop_lru(&mut self) -> Option<(BlockId, Meta)> {
        let (_, block) = self.order.pop_first()?;
        let (meta, _) = self.map.remove(&block).expect("order/map in sync");
        Some((block, meta))
    }

    pub(crate) fn sweep_dirty(&mut self) -> Vec<BlockId> {
        let mut dirty = Vec::new();
        for (b, (m, _)) in self.map.iter_mut() {
            if m.dirty {
                m.dirty = false;
                dirty.push(*b);
            }
        }
        dirty.sort_unstable();
        dirty
    }

    /// Every resident copy, sorted by block.
    pub(crate) fn copies(&self) -> Vec<(BlockId, Meta)> {
        let mut all: Vec<_> = self.map.iter().map(|(b, (m, _))| (*b, *m)).collect();
        all.sort_unstable_by_key(|&(b, _)| b);
        all
    }

    pub(crate) fn count_unused_prefetched(&self) -> u64 {
        self.map
            .values()
            .filter(|(m, _)| m.prefetched && !m.used)
            .count() as u64
    }
}

/// The xFS block→holders registry as a `HashMap` of `BTreeSet`s.
#[derive(Default)]
pub(crate) struct ClassicHolders(HashMap<BlockId, BTreeSet<u32>>);

impl ClassicHolders {
    pub(crate) fn contains_key(&self, block: BlockId) -> bool {
        self.0.contains_key(&block)
    }

    pub(crate) fn insert(&mut self, block: BlockId, node: u32) {
        self.0.entry(block).or_default().insert(node);
    }

    pub(crate) fn remove(&mut self, block: BlockId, node: u32) {
        if let Some(set) = self.0.get_mut(&block) {
            set.remove(&node);
            if set.is_empty() {
                self.0.remove(&block);
            }
        }
    }

    pub(crate) fn resident_run(&self, block: BlockId, max: u32) -> u32 {
        let mut n = 0;
        while n < max && self.contains_key(BlockId::new(block.file, block.index + u64::from(n))) {
            n += 1;
        }
        n
    }

    pub(crate) fn first_holder_up(&self, block: BlockId, down: &BTreeSet<u32>) -> Option<u32> {
        self.0
            .get(&block)
            .and_then(|s| s.iter().copied().find(|h| !down.contains(h)))
    }

    pub(crate) fn holds(&self, block: BlockId, node: u32) -> bool {
        self.0.get(&block).is_some_and(|s| s.contains(&node))
    }

    pub(crate) fn total_registrations(&self) -> u64 {
        self.0.values().map(|s| s.len() as u64).sum()
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
    fn lru_order_and_touch() {
        let mut pool = LruPool::new();
        pool.insert(b(1), Meta::fresh(n(0), false, false));
        pool.insert(b(2), Meta::fresh(n(0), false, false));
        pool.insert(b(3), Meta::fresh(n(0), false, false));
        // Touch 1: order is now 2 (lru), 3, 1 (mru).
        assert!(pool.touch(b(1), false).is_some());
        assert_eq!(pool.pop_lru().unwrap().0, b(2));
        assert_eq!(pool.pop_lru().unwrap().0, b(3));
        assert_eq!(pool.pop_lru().unwrap().0, b(1));
        assert!(pool.pop_lru().is_none());
    }

    #[test]
    fn touch_marks_dirty_and_used() {
        let mut pool = LruPool::new();
        pool.insert(b(1), Meta::fresh(n(0), false, true));
        assert!(!pool.get(b(1)).unwrap().used, "prefetched starts unused");
        let before = pool.touch(b(1), true).unwrap();
        assert!(!before.used);
        let after = pool.get(b(1)).unwrap();
        assert!(after.used && after.dirty);
    }

    #[test]
    fn reinsert_replaces() {
        let mut pool = LruPool::new();
        pool.insert(b(1), Meta::fresh(n(0), false, false));
        pool.insert(b(1), Meta::fresh(n(1), true, false));
        assert_eq!(pool.len(), 1);
        let m = pool.get(b(1)).unwrap();
        assert_eq!(m.owner, n(1));
        assert!(m.dirty);
    }

    #[test]
    fn sweep_collects_and_cleans() {
        let mut pool = LruPool::new();
        pool.insert(b(1), Meta::fresh(n(0), true, false));
        pool.insert(b(2), Meta::fresh(n(0), false, false));
        pool.insert(b(3), Meta::fresh(n(0), true, false));
        let dirty = pool.sweep_dirty();
        assert_eq!(dirty, vec![b(1), b(3)]);
        assert!(pool.sweep_dirty().is_empty());
    }

    #[test]
    fn unused_prefetched_accounting() {
        let mut pool = LruPool::new();
        pool.insert(b(1), Meta::fresh(n(0), false, true));
        pool.insert(b(2), Meta::fresh(n(0), false, true));
        pool.touch(b(1), false);
        assert_eq!(pool.count_unused_prefetched(), 1);
    }

    #[test]
    fn remove_specific() {
        let mut pool = LruPool::new();
        pool.insert(b(1), Meta::fresh(n(0), false, false));
        assert!(pool.remove(b(1)).is_some());
        assert!(pool.remove(b(1)).is_none());
        assert_eq!(pool.len(), 0);
    }
}
