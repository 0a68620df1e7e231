//! Cache-metadata structures (DESIGN.md §14).
//!
//! Every cooperative cache keeps its block copies and the xFS manager
//! keeps its block→holders registry in open-addressed tables with an
//! intrusive LRU list, O(1) amortized per probe:
//!
//! * [`DensePool`] — a slab of block slots addressed through a
//!   power-of-two, linear-probed index table (backward-shift deletion,
//!   no tombstones), with recency as an intrusive doubly-linked list
//!   through the slots.
//! * [`DenseHolders`] — the xFS block→holders registry on the same
//!   open-addressed scheme, holder sets kept as sorted `Vec<u32>` so
//!   "first up holder" and invalidation order are ascending by node.
//!
//! The `reference` module keeps the classic `HashMap` + `BTreeSet`
//! layout under `#[cfg(test)]`: it is the model the equivalence tests
//! drive both tables against.

use std::collections::BTreeSet;

use ioworkload::{BlockId, NodeId};

/// Replacement policy of a pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Replacement {
    /// Least-recently-used: every access refreshes recency (the
    /// behaviour both PAFS and xFS assume).
    #[default]
    Lru,
    /// First-in-first-out: insertion order decides the victim; touches
    /// do not refresh. Kept for the replacement-policy ablation.
    Fifo,
}

/// Metadata of one resident block copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Meta {
    /// Node whose buffer holds the copy.
    pub owner: NodeId,
    /// Modified since last written to disk.
    pub dirty: bool,
    /// Brought in by the prefetcher.
    pub prefetched: bool,
    /// Used by a demand access since (last) prefetched.
    pub used: bool,
    /// xFS N-chance recirculation count.
    pub recirc: u8,
}

impl Meta {
    /// A fresh metadata record for insertion: a demand copy counts as
    /// used, a prefetched one does not until a demand access touches it.
    pub(crate) fn fresh(owner: NodeId, dirty: bool, prefetched: bool) -> Self {
        Meta {
            owner,
            dirty,
            prefetched,
            used: !prefetched,
            recirc: 0,
        }
    }
}

/// The cache-metadata layout. There is one: the dense tables above.
///
/// Kept only so the `perfbench` package, which passes
/// `SimConfig::meta_layout` to `PafsCache::with_layout` and
/// `XfsCache::with_layout`, builds unchanged; the next benchmark change
/// drops all three names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MetaLayout {
    /// Open-addressed tables + intrusive LRU list.
    Dense,
}

/// Sentinel for "no slot" in the index table and the intrusive list.
const NIL: u32 = u32::MAX;

/// Per-file presence bitmaps — the "`Vec`-backed presence map keyed by
/// block index" side of the dense layout. One bit per block, outer
/// index the (dense, workload-assigned) file id, maintained alongside
/// the owning table's membership. Its payoff is the *range* residency
/// query [`run_len`](Self::run_len): the prefetch walk's rescan of
/// already-resident data becomes a word scan instead of one
/// point probe per block.
pub(crate) struct PresenceMap {
    files: Vec<Vec<u64>>,
}

impl PresenceMap {
    pub(crate) fn new() -> Self {
        PresenceMap { files: Vec::new() }
    }

    /// Mark `block` present (idempotent).
    #[inline]
    pub(crate) fn set(&mut self, block: BlockId) {
        let f = block.file.0 as usize;
        if f >= self.files.len() {
            self.files.resize_with(f + 1, Vec::new);
        }
        let bits = &mut self.files[f];
        let w = (block.index / 64) as usize;
        if w >= bits.len() {
            bits.resize(w + 1, 0);
        }
        bits[w] |= 1u64 << (block.index % 64);
    }

    /// Mark `block` absent (idempotent).
    #[inline]
    pub(crate) fn clear(&mut self, block: BlockId) {
        if let Some(bits) = self.files.get_mut(block.file.0 as usize) {
            if let Some(word) = bits.get_mut((block.index / 64) as usize) {
                *word &= !(1u64 << (block.index % 64));
            }
        }
    }

    /// Number of consecutive present blocks starting at `block`
    /// (ascending index, same file), capped at `max` — one word scan,
    /// not `max` point lookups.
    pub(crate) fn run_len(&self, block: BlockId, max: u32) -> u32 {
        let Some(bits) = self.files.get(block.file.0 as usize) else {
            return 0;
        };
        let mut n = 0u32;
        let mut idx = block.index;
        while n < max {
            let word = match bits.get((idx / 64) as usize) {
                Some(&w) => w,
                None => 0,
            };
            let bit = (idx % 64) as u32;
            let avail = 64 - bit;
            // Consecutive ones from `bit` upward within this word.
            let ones = (!(word >> bit)).trailing_zeros().min(avail);
            let take = ones.min(max - n);
            n += take;
            idx += u64::from(take);
            if ones < avail {
                break; // a zero bit inside the word ends the run
            }
        }
        n
    }
}

/// Mix a block id into a table hash (splitmix64 finalizer — cheap,
/// deterministic, and well-distributed for the dense file/index pairs
/// the workloads produce).
#[inline]
fn hash_block(b: BlockId) -> u64 {
    let mut x = ((b.file.0 as u64) << 40) ^ b.index;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One index-table entry: the low 32 hash bits of the key (tag) packed
/// with the slab slot it points at. Keeping the tag *inline* is what
/// makes large tables fast: a probe step compares one in-cacheline
/// word and only dereferences the (DRAM-cold) slab on a tag match —
/// without it, every step of every chain pays a random slab read just
/// to compare keys. Storing the *low* bits (the ones the bucket index
/// is drawn from) also lets backward-shift deletion and rehashing
/// recompute an entry's home bucket as `tag & mask` with no slab
/// access, for any power-of-two table up to 2^32.
#[derive(Clone, Copy, PartialEq, Eq)]
struct TableEntry(u64);

impl TableEntry {
    const EMPTY: TableEntry = TableEntry(u64::MAX);

    #[inline]
    fn new(hash: u64, slot: u32) -> Self {
        debug_assert_ne!(slot, NIL);
        TableEntry((hash << 32) | u64::from(slot))
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.0 as u32 == NIL
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    /// Low 32 bits of the key's hash.
    #[inline]
    fn tag(self) -> u64 {
        self.0 >> 32
    }

    /// Home bucket in a table of `mask + 1` (≤ 2^32) buckets.
    #[inline]
    fn home(self, mask: usize) -> usize {
        self.tag() as usize & mask
    }
}

/// One resident block in the slab: key, metadata, and the intrusive
/// recency list links (`prev` is toward LRU, `next` toward MRU).
struct Slot {
    block: BlockId,
    meta: Meta,
    prev: u32,
    next: u32,
}

/// An LRU-ordered (or, under [`Replacement::Fifo`], insertion-ordered)
/// pool of block copies with O(1) amortized operations.
pub(crate) struct DensePool {
    /// Open-addressed index: hash tag + slab slot per bucket (or
    /// [`TableEntry::EMPTY`]). Length is a power of two, load factor
    /// kept ≤ 1/2.
    table: Vec<TableEntry>,
    /// Mask = table.len() - 1.
    mask: usize,
    slots: Vec<Slot>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Live entries.
    len: usize,
    /// LRU end of the recency list (first victim).
    head: u32,
    /// MRU end of the recency list.
    tail: u32,
    policy: Replacement,
    /// Presence bitmaps mirroring the table's membership exactly, for
    /// the range residency query [`resident_run`](Self::resident_run).
    presence: PresenceMap,
}

impl DensePool {
    pub(crate) fn with_policy(policy: Replacement) -> Self {
        let cap = 64usize;
        DensePool {
            table: vec![TableEntry::EMPTY; cap],
            mask: cap - 1,
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
            policy,
            presence: PresenceMap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Index into `table` holding `block`'s slot, if resident.
    #[inline]
    fn find(&self, block: BlockId) -> Option<usize> {
        let h = hash_block(block);
        let tag = h & 0xFFFF_FFFF;
        let mut i = h as usize & self.mask;
        loop {
            let e = self.table[i];
            if e.is_empty() {
                return None;
            }
            if e.tag() == tag && self.slots[e.slot() as usize].block == block {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    pub(crate) fn contains(&self, block: BlockId) -> bool {
        self.find(block).is_some()
    }

    /// Consecutive resident blocks starting at `block`, capped at
    /// `max` — answered from the presence bitmaps in O(max/64) words.
    pub(crate) fn resident_run(&self, block: BlockId, max: u32) -> u32 {
        self.presence.run_len(block, max)
    }

    pub(crate) fn get(&self, block: BlockId) -> Option<&Meta> {
        self.find(block)
            .map(|i| &self.slots[self.table[i].slot() as usize].meta)
    }

    /// Unlink slot `s` from the recency list.
    fn unlink(&mut self, s: u32) {
        let (prev, next) = {
            let slot = &self.slots[s as usize];
            (slot.prev, slot.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Append slot `s` at the MRU end.
    fn push_mru(&mut self, s: u32) {
        self.slots[s as usize].prev = self.tail;
        self.slots[s as usize].next = NIL;
        if self.tail == NIL {
            self.head = s;
        } else {
            self.slots[self.tail as usize].next = s;
        }
        self.tail = s;
    }

    /// Touch a resident block for a *demand access*: bump recency
    /// (under LRU), optionally dirty it, mark prefetch usage, and
    /// (having just been referenced) grant forwarded blocks a fresh set
    /// of N-chance recirculations. Returns the pre-touch metadata, or
    /// `None` if absent.
    pub(crate) fn touch(&mut self, block: BlockId, write: bool) -> Option<Meta> {
        self.touch_inner(block, write, true)
    }

    /// Refresh a resident block on a (racing) re-insert: bump recency
    /// and dirtiness, and mark usage only if the re-insert was
    /// demand-driven — a prefetch landing on an already-resident block
    /// must not launder its never-used status.
    pub(crate) fn refresh(&mut self, block: BlockId, dirty: bool, mark_used: bool) -> Option<Meta> {
        self.touch_inner(block, dirty, mark_used)
    }

    fn touch_inner(&mut self, block: BlockId, write: bool, mark_used: bool) -> Option<Meta> {
        let i = self.find(block)?;
        let s = self.table[i].slot();
        let meta = &mut self.slots[s as usize].meta;
        let before = *meta;
        if mark_used {
            meta.used = true;
            // A referenced block earns fresh recirculation chances
            // (Dahlin's N-chance counts forwards since last reference).
            meta.recirc = 0;
        }
        if write {
            meta.dirty = true;
        }
        if self.policy == Replacement::Lru {
            self.unlink(s);
            self.push_mru(s);
        }
        Some(before)
    }

    /// Insert (or overwrite) a block copy at MRU position. An
    /// overwrite re-MRUs even under FIFO: it counts as a new insertion.
    pub(crate) fn insert(&mut self, block: BlockId, meta: Meta) {
        if let Some(i) = self.find(block) {
            let s = self.table[i].slot();
            self.slots[s as usize].meta = meta;
            self.unlink(s);
            self.push_mru(s);
            return;
        }
        if (self.len + 1) * 2 > self.table.len() {
            self.grow();
        }
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Slot {
                    block,
                    meta,
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                self.slots.push(Slot {
                    block,
                    meta,
                    prev: NIL,
                    next: NIL,
                });
                (self.slots.len() - 1) as u32
            }
        };
        // Claim the first empty probe position.
        let h = hash_block(block);
        let mut i = h as usize & self.mask;
        while !self.table[i].is_empty() {
            i = (i + 1) & self.mask;
        }
        self.table[i] = TableEntry::new(h, s);
        self.len += 1;
        self.presence.set(block);
        self.push_mru(s);
    }

    fn grow(&mut self) {
        let cap = self.table.len() * 2;
        assert!(cap <= 1 << 32, "tag bits cover tables up to 2^32");
        self.mask = cap - 1;
        self.table = vec![TableEntry::EMPTY; cap];
        // Rehash every live slot (walk the recency list so freed slab
        // entries are skipped without extra bookkeeping).
        let mut s = self.head;
        while s != NIL {
            let h = hash_block(self.slots[s as usize].block);
            let mut i = h as usize & self.mask;
            while !self.table[i].is_empty() {
                i = (i + 1) & self.mask;
            }
            self.table[i] = TableEntry::new(h, s);
            s = self.slots[s as usize].next;
        }
    }

    /// Delete the entry at table index `i`, backward-shifting the
    /// probe chain so no tombstones are needed.
    fn delete_at(&mut self, i: usize) {
        let s = self.table[i].slot();
        self.presence.clear(self.slots[s as usize].block);
        self.unlink(s);
        // Neutralize the flags the whole-pool scans look at, so
        // `sweep_dirty` / `count_unused_prefetched` can walk the slab
        // sequentially without a liveness check.
        self.slots[s as usize].meta.dirty = false;
        self.slots[s as usize].meta.prefetched = false;
        self.free.push(s);
        self.len -= 1;
        // Backward-shift: re-place every follower of the probe chain.
        // Home buckets come from the inline tags — no slab reads here.
        let mut hole = i;
        let mut j = (i + 1) & self.mask;
        while !self.table[j].is_empty() {
            let home = self.table[j].home(self.mask);
            // Move table[j] into the hole unless its home position lies
            // (cyclically) after the hole — then it must stay put.
            let stays = if hole <= j {
                home > hole && home <= j
            } else {
                home > hole || home <= j
            };
            if !stays {
                self.table[hole] = self.table[j];
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.table[hole] = TableEntry::EMPTY;
    }

    /// Remove a specific block, returning its metadata.
    pub(crate) fn remove(&mut self, block: BlockId) -> Option<Meta> {
        let i = self.find(block)?;
        let meta = self.slots[self.table[i].slot() as usize].meta;
        self.delete_at(i);
        Some(meta)
    }

    /// Remove and return the least-recently-used (under FIFO: the
    /// oldest-inserted) block.
    pub(crate) fn pop_lru(&mut self) -> Option<(BlockId, Meta)> {
        if self.head == NIL {
            return None;
        }
        let slot = &self.slots[self.head as usize];
        let (block, meta) = (slot.block, slot.meta);
        let i = self.find(block).expect("list/table in sync");
        self.delete_at(i);
        Some((block, meta))
    }

    /// Collect all dirty blocks, sorted, and mark them clean. Walks the
    /// slab *sequentially* —
    /// not the recency list, whose pointer-chase order would cost one
    /// dependent DRAM miss per slot. Freed slots have `dirty` cleared
    /// at free time ([`delete_at`](Self::delete_at)), and the output
    /// is sorted anyway, so visit order is irrelevant.
    pub(crate) fn sweep_dirty(&mut self) -> Vec<BlockId> {
        let mut dirty = Vec::new();
        for slot in &mut self.slots {
            if slot.meta.dirty {
                slot.meta.dirty = false;
                dirty.push(slot.block);
            }
        }
        dirty.sort_unstable(); // deterministic order
        dirty
    }

    /// Visit every resident copy. Walks the recency list (not the
    /// slab) so freed slots are skipped without a liveness flag.
    pub(crate) fn for_each(&self, f: &mut dyn FnMut(BlockId, &Meta)) {
        let mut s = self.head;
        while s != NIL {
            let slot = &self.slots[s as usize];
            f(slot.block, &slot.meta);
            s = slot.next;
        }
    }

    /// Count resident prefetched-but-never-used blocks (for finalize).
    /// Sequential slab walk; freed slots have `prefetched` cleared at
    /// free time.
    pub(crate) fn count_unused_prefetched(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.meta.prefetched && !s.meta.used)
            .count() as u64
    }
}

/// Open-addressed block→holder-set map: the xFS manager's registry.
/// Same linear-probe, backward-shift-delete scheme as [`DensePool`].
pub(crate) struct DenseHolders {
    table: Vec<TableEntry>,
    mask: usize,
    entries: Vec<HolderEntry>,
    free: Vec<u32>,
    len: usize,
    /// Bit set while the block has at least one registered holder —
    /// mirrors `contains_key`, serves the range residency query.
    presence: PresenceMap,
}

struct HolderEntry {
    block: BlockId,
    /// Sorted ascending, so holder iteration runs in node order.
    holders: Vec<u32>,
}

impl DenseHolders {
    pub(crate) fn new() -> Self {
        let cap = 64usize;
        DenseHolders {
            table: vec![TableEntry::EMPTY; cap],
            mask: cap - 1,
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
            presence: PresenceMap::new(),
        }
    }

    #[inline]
    fn find(&self, block: BlockId) -> Option<usize> {
        let h = hash_block(block);
        let tag = h & 0xFFFF_FFFF;
        let mut i = h as usize & self.mask;
        loop {
            let e = self.table[i];
            if e.is_empty() {
                return None;
            }
            if e.tag() == tag && self.entries[e.slot() as usize].block == block {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The (ascending) holder set of `block`; empty if unregistered.
    fn holders_of(&self, block: BlockId) -> &[u32] {
        match self.find(block) {
            Some(i) => &self.entries[self.table[i].slot() as usize].holders,
            None => &[],
        }
    }

    /// Does any node hold `block`?
    pub(crate) fn contains_key(&self, block: BlockId) -> bool {
        self.find(block).is_some()
    }

    /// Consecutive registered blocks starting at `block`, capped at
    /// `max` — the `contains_key` run, range-queried.
    pub(crate) fn resident_run(&self, block: BlockId, max: u32) -> u32 {
        self.presence.run_len(block, max)
    }

    /// Lowest-numbered holder of `block` that is not in `down`.
    pub(crate) fn first_holder_up(&self, block: BlockId, down: &BTreeSet<u32>) -> Option<u32> {
        self.holders_of(block)
            .iter()
            .copied()
            .find(|h| !down.contains(h))
    }

    /// Does the registry record `node` as a holder of `block`?
    /// (Integrity checks only — not a probe-counted operation.)
    pub(crate) fn holds(&self, block: BlockId, node: u32) -> bool {
        self.holders_of(block).binary_search(&node).is_ok()
    }

    /// Total number of (block, holder) registrations — every copy the
    /// manager believes exists. (Integrity checks only.) Freed slab
    /// entries keep an empty holder set, so summing over the whole slab
    /// counts exactly the live registrations.
    pub(crate) fn total_registrations(&self) -> u64 {
        self.entries.iter().map(|e| e.holders.len() as u64).sum()
    }

    /// All holders of `block` except `keep`, ascending.
    pub(crate) fn holders_except(&self, block: BlockId, keep: u32) -> Vec<u32> {
        self.holders_of(block)
            .iter()
            .copied()
            .filter(|&h| h != keep)
            .collect()
    }

    /// Register `node` as a holder of `block` (idempotent).
    pub(crate) fn insert(&mut self, block: BlockId, node: u32) {
        if let Some(i) = self.find(block) {
            let holders = &mut self.entries[self.table[i].slot() as usize].holders;
            if let Err(pos) = holders.binary_search(&node) {
                holders.insert(pos, node);
            }
            return;
        }
        if (self.len + 1) * 2 > self.table.len() {
            self.grow();
        }
        let e = match self.free.pop() {
            Some(e) => {
                let entry = &mut self.entries[e as usize];
                entry.block = block;
                entry.holders.clear();
                entry.holders.push(node);
                e
            }
            None => {
                self.entries.push(HolderEntry {
                    block,
                    holders: vec![node],
                });
                (self.entries.len() - 1) as u32
            }
        };
        let h = hash_block(block);
        let mut i = h as usize & self.mask;
        while !self.table[i].is_empty() {
            i = (i + 1) & self.mask;
        }
        self.table[i] = TableEntry::new(h, e);
        self.len += 1;
        self.presence.set(block);
    }

    /// Unregister `node` as a holder of `block`; the entry goes with
    /// its last holder.
    pub(crate) fn remove(&mut self, block: BlockId, node: u32) {
        let Some(i) = self.find(block) else {
            return;
        };
        let e = self.table[i].slot();
        let holders = &mut self.entries[e as usize].holders;
        if let Ok(pos) = holders.binary_search(&node) {
            holders.remove(pos);
        }
        if !holders.is_empty() {
            return;
        }
        // Last holder gone: delete the entry (backward-shift).
        self.presence.clear(block);
        self.free.push(e);
        self.len -= 1;
        let mut hole = i;
        let mut j = (i + 1) & self.mask;
        while !self.table[j].is_empty() {
            let home = self.table[j].home(self.mask);
            let stays = if hole <= j {
                home > hole && home <= j
            } else {
                home > hole || home <= j
            };
            if !stays {
                self.table[hole] = self.table[j];
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.table[hole] = TableEntry::EMPTY;
    }

    fn grow(&mut self) {
        let cap = self.table.len() * 2;
        assert!(cap <= 1 << 32, "tag bits cover tables up to 2^32");
        self.mask = cap - 1;
        self.table = vec![TableEntry::EMPTY; cap];
        for (e, entry) in self.entries.iter().enumerate() {
            if entry.holders.is_empty() {
                continue; // freed slab entry
            }
            let h = hash_block(entry.block);
            let mut i = h as usize & self.mask;
            while !self.table[i].is_empty() {
                i = (i + 1) & self.mask;
            }
            self.table[i] = TableEntry::new(h, e as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ClassicHolders, LruPool};
    use ioworkload::FileId;

    fn b(f: u32, i: u64) -> BlockId {
        BlockId::new(FileId(f), i)
    }
    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A minimal xorshift for the equivalence drivers.
    struct TestRng(u64);
    impl TestRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Every resident copy of a dense pool, sorted by block.
    fn copies(pool: &DensePool) -> Vec<(BlockId, Meta)> {
        let mut all = Vec::new();
        pool.for_each(&mut |block, meta| all.push((block, *meta)));
        all.sort_unstable_by_key(|&(b, _)| b);
        all
    }

    /// DensePool is observably equivalent to the classic LruPool under
    /// randomized interleavings of every operation the caches call, for
    /// both replacement policies: identical victim sequences, sweep
    /// output, lengths, residency runs, and returned metadata.
    #[test]
    fn dense_pool_matches_classic_pool() {
        for (seed, policy) in [
            (1u64, Replacement::Lru),
            (2, Replacement::Lru),
            (3, Replacement::Fifo),
            (4, Replacement::Fifo),
        ] {
            let mut rng = TestRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut classic = LruPool::with_policy(policy);
            let mut dense = DensePool::with_policy(policy);
            for step in 0..6000 {
                let block = b((rng.next() % 3) as u32, rng.next() % 64);
                match rng.next() % 100 {
                    0..=34 => {
                        let meta = Meta::fresh(
                            n((rng.next() % 4) as u32),
                            rng.next().is_multiple_of(2),
                            rng.next().is_multiple_of(2),
                        );
                        classic.insert(block, meta);
                        dense.insert(block, meta);
                    }
                    35..=59 => {
                        let write = rng.next().is_multiple_of(2);
                        assert_eq!(classic.touch(block, write), dense.touch(block, write));
                    }
                    60..=69 => {
                        let dirty = rng.next().is_multiple_of(2);
                        let used = rng.next().is_multiple_of(2);
                        assert_eq!(
                            classic.refresh(block, dirty, used),
                            dense.refresh(block, dirty, used)
                        );
                    }
                    70..=79 => {
                        assert_eq!(classic.remove(block), dense.remove(block));
                    }
                    80..=94 => {
                        assert_eq!(classic.pop_lru(), dense.pop_lru(), "victim, step {step}");
                    }
                    95..=96 => {
                        assert_eq!(classic.sweep_dirty(), dense.sweep_dirty(), "step {step}");
                    }
                    97..=98 => {
                        assert_eq!(classic.copies(), copies(&dense), "step {step}");
                    }
                    _ => {
                        assert_eq!(
                            classic.count_unused_prefetched(),
                            dense.count_unused_prefetched()
                        );
                    }
                }
                assert_eq!(classic.len(), dense.len());
                assert_eq!(classic.contains(block), dense.contains(block));
                assert_eq!(classic.get(block), dense.get(block));
                assert_eq!(
                    classic.resident_run(block, 8),
                    dense.resident_run(block, 8),
                    "step {step}"
                );
            }
            // Drain both fully: complete victim order must agree.
            loop {
                let (cv, dv) = (classic.pop_lru(), dense.pop_lru());
                assert_eq!(cv, dv);
                if cv.is_none() {
                    break;
                }
            }
        }
    }

    /// DenseHolders matches the classic HashMap/BTreeSet registry on
    /// every operation the xFS cache calls: membership, residency runs,
    /// first-up holder, except-sets, per-holder lookups, and the total
    /// registration count.
    #[test]
    fn dense_holders_match_classic_registry() {
        let mut rng = TestRng(0xDEAD_BEEF_1234_5679);
        let mut classic = ClassicHolders::default();
        let mut dense = DenseHolders::new();
        let mut down = BTreeSet::new();
        for _ in 0..6000 {
            let block = b((rng.next() % 2) as u32, rng.next() % 48);
            let node = (rng.next() % 6) as u32;
            match rng.next() % 10 {
                0..=3 => {
                    classic.insert(block, node);
                    dense.insert(block, node);
                }
                4..=6 => {
                    classic.remove(block, node);
                    dense.remove(block, node);
                }
                7 => {
                    if down.contains(&node) {
                        down.remove(&node);
                    } else {
                        down.insert(node);
                    }
                }
                _ => {}
            }
            assert_eq!(classic.contains_key(block), dense.contains_key(block));
            assert_eq!(classic.resident_run(block, 8), dense.resident_run(block, 8));
            assert_eq!(
                classic.first_holder_up(block, &down),
                dense.first_holder_up(block, &down)
            );
            assert_eq!(
                classic.holders_except(block, node),
                dense.holders_except(block, node)
            );
            assert_eq!(classic.holds(block, node), dense.holds(block, node));
            assert_eq!(classic.total_registrations(), dense.total_registrations());
        }
    }

    /// `run_len` must handle word boundaries, gaps, and the cap.
    #[test]
    fn presence_run_len_crosses_word_boundaries() {
        let mut p = PresenceMap::new();
        assert_eq!(p.run_len(b(0, 0), 64), 0);
        // A run of 130 blocks spanning three u64 words, starting
        // mid-word.
        for i in 60..190 {
            p.set(b(1, i));
        }
        assert_eq!(p.run_len(b(1, 60), 200), 130);
        assert_eq!(p.run_len(b(1, 60), 64), 64, "cap respected");
        assert_eq!(p.run_len(b(1, 189), 10), 1);
        assert_eq!(p.run_len(b(1, 190), 10), 0);
        assert_eq!(p.run_len(b(1, 59), 10), 0, "starts before the run");
        // Punch a hole and the run splits.
        p.clear(b(1, 128));
        assert_eq!(p.run_len(b(1, 60), 200), 68);
        assert_eq!(p.run_len(b(1, 129), 200), 61);
        // Other files are independent.
        assert_eq!(p.run_len(b(0, 60), 10), 0);
        assert_eq!(p.run_len(b(2, 60), 10), 0);
    }

    /// Deletions must keep open-addressing probe chains intact: force
    /// collisions and interleave insert/remove over a key set larger
    /// than the initial table.
    #[test]
    fn backward_shift_deletion_preserves_probes() {
        let mut pool = DensePool::with_policy(Replacement::Lru);
        for round in 0u64..4 {
            for i in 0..200 {
                pool.insert(b(0, round * 1000 + i), Meta::fresh(n(0), false, false));
            }
            for i in 0..200 {
                if i % 3 != 0 {
                    assert!(pool.remove(b(0, round * 1000 + i)).is_some());
                }
            }
            for i in 0..200 {
                assert_eq!(
                    pool.contains(b(0, round * 1000 + i)),
                    i % 3 == 0,
                    "round {round} i {i}"
                );
            }
        }
    }
}
