//! Cache-metadata structures (DESIGN.md §14).
//!
//! One open-addressed table, [`BlockTable`] — a slab addressed through
//! a power-of-two, linear-probed index with inline hash tags and
//! backward-shift deletion, O(1) amortized per probe — carries both:
//!
//! * [`DensePool`] — block copies, with recency as an intrusive
//!   doubly-linked list through the slab slots;
//! * [`DenseHolders`] — the xFS block→holders registry, each holder
//!   set stored inline as a [`NodeSet`].
//!
//! A [`NodeSet`] is one `u128`, so a machine has at most [`MAX_NODES`]
//! = 128 nodes (the paper's PM machine has 128, the NOW 50), and
//! registry probes, "first up holder" and forwarding draws touch no
//! heap buffer.
//!
//! The `reference` module keeps the classic `HashMap` + `BTreeSet`
//! layout under `#[cfg(test)]`: it is the model the equivalence tests
//! drive both tables against.

use ioworkload::{BlockId, NodeId};

/// Most nodes a cache can have: node sets are one `u128` bitmask.
pub const MAX_NODES: u32 = u128::BITS;

/// A set of node ids `0..MAX_NODES` as a bitmask — bit `n` is node
/// `n`; the only code that knows the encoding. [`iter`](Self::iter)
/// runs in ascending node order, the order the classic `BTreeSet`
/// registry defined.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct NodeSet(u128);

impl NodeSet {
    /// Nodes `0..n`.
    pub(crate) fn first(n: u32) -> Self {
        NodeSet(u128::MAX.checked_shr(MAX_NODES - n).unwrap_or(0))
    }

    #[inline]
    pub(crate) fn contains(self, node: u32) -> bool {
        self.0 >> node & 1 == 1
    }

    pub(crate) fn insert(&mut self, node: u32) {
        self.0 |= 1 << node;
    }

    pub(crate) fn remove(&mut self, node: u32) {
        self.0 &= !(1 << node);
    }

    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub(crate) fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// The nodes in `self` but not in `other`.
    pub(crate) fn minus(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    /// The nodes in ascending order.
    pub(crate) fn iter(self) -> impl Iterator<Item = u32> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let node = (bits != 0).then(|| bits.trailing_zeros())?;
            bits &= bits - 1;
            Some(node)
        })
    }
}

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

/// Presence bitmaps — the range-residency side of the dense layout.
/// One bit per block, in 64-block words keyed by `(file, index / 64)`
/// in a [`BlockTable`]: a word exists only while one of its blocks is
/// present, so storage grows with the resident blocks and never with
/// the highest block index. Maintained alongside the owning table's
/// membership. Its payoff is the *range* residency query
/// [`run_len`](Self::run_len): the prefetch walk's rescan of
/// already-resident data becomes a word scan instead of one point
/// probe per block.
pub(crate) struct PresenceMap {
    words: BlockTable<PresenceWord>,
}

/// One non-zero 64-block word of a [`PresenceMap`].
struct PresenceWord {
    /// `(file, block index / 64)`.
    key: BlockId,
    bits: u64,
}

impl Keyed for PresenceWord {
    #[inline]
    fn block(&self) -> BlockId {
        self.key
    }
}

impl PresenceMap {
    pub(crate) fn new() -> Self {
        PresenceMap {
            words: BlockTable::new(),
        }
    }

    /// The key of `block`'s word.
    #[inline]
    fn word_key(block: BlockId) -> BlockId {
        BlockId::new(block.file, block.index / 64)
    }

    /// The bits of word `key`, zero if it holds no present block.
    #[inline]
    fn word(&self, key: BlockId) -> u64 {
        self.words
            .find(key)
            .map_or(0, |s| self.words.slab[s as usize].bits)
    }

    /// Mark `block` present (idempotent).
    #[inline]
    pub(crate) fn set(&mut self, block: BlockId) {
        let key = Self::word_key(block);
        let bit = 1u64 << (block.index % 64);
        match self.words.find(key) {
            Some(s) => self.words.slab[s as usize].bits |= bit,
            None => {
                self.words.insert(PresenceWord { key, bits: bit });
            }
        }
    }

    /// Mark `block` absent (idempotent). A word whose last block goes
    /// is freed.
    #[inline]
    pub(crate) fn clear(&mut self, block: BlockId) {
        let key = Self::word_key(block);
        if let Some(s) = self.words.find(key) {
            let word = &mut self.words.slab[s as usize].bits;
            *word &= !(1u64 << (block.index % 64));
            if *word == 0 {
                self.words.remove(key);
            }
        }
    }

    /// Number of consecutive present blocks starting at `block`
    /// (ascending index, same file), capped at `max` — one word scan,
    /// not `max` point lookups.
    pub(crate) fn run_len(&self, block: BlockId, max: u32) -> u32 {
        let mut n = 0u32;
        let mut idx = block.index;
        while n < max {
            let word = self.word(Self::word_key(BlockId::new(block.file, idx)));
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

    /// Words currently stored (tests only).
    #[cfg(test)]
    fn stored_words(&self) -> usize {
        self.words.len
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

/// A slab entry that knows its own key.
trait Keyed {
    fn block(&self) -> BlockId;
}

/// Open-addressed `BlockId` → `T` table: a slab of entries addressed
/// through a power-of-two, linear-probed index of [`TableEntry`]s,
/// load factor kept ≤ 1/2, backward-shift deletion (no tombstones).
/// Freed slab slots are recycled; the caller owns what a freed slot's
/// contents mean (it may still read them until the slot is reused).
struct BlockTable<T> {
    /// Index: hash tag + slab slot per bucket, or [`TableEntry::EMPTY`].
    index: Vec<TableEntry>,
    /// Mask = index.len() - 1.
    mask: usize,
    slab: Vec<T>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Live entries.
    len: usize,
}

impl<T: Keyed> BlockTable<T> {
    fn new() -> Self {
        let cap = 64usize;
        BlockTable {
            index: vec![TableEntry::EMPTY; cap],
            mask: cap - 1,
            slab: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Index position of `block`'s entry, if present.
    #[inline]
    fn position(&self, block: BlockId) -> Option<usize> {
        let h = hash_block(block);
        let tag = h & 0xFFFF_FFFF;
        let mut i = h as usize & self.mask;
        loop {
            let e = self.index[i];
            if e.is_empty() {
                return None;
            }
            if e.tag() == tag && self.slab[e.slot() as usize].block() == block {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Slab slot of `block`'s entry, if present.
    #[inline]
    fn find(&self, block: BlockId) -> Option<u32> {
        self.position(block).map(|i| self.index[i].slot())
    }

    /// Add `value`, whose key must be absent; returns its slab slot.
    fn insert(&mut self, value: T) -> u32 {
        if (self.len + 1) * 2 > self.index.len() {
            self.grow();
        }
        let h = hash_block(value.block());
        let s = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = value;
                s
            }
            None => {
                self.slab.push(value);
                (self.slab.len() - 1) as u32
            }
        };
        self.place(TableEntry::new(h, s));
        self.len += 1;
        s
    }

    /// Claim the first empty probe position from `e`'s home bucket.
    fn place(&mut self, e: TableEntry) {
        let mut i = e.home(self.mask);
        while !self.index[i].is_empty() {
            i = (i + 1) & self.mask;
        }
        self.index[i] = e;
    }

    /// Delete `block`'s entry and free its slab slot, which is
    /// returned. Backward-shifts the probe chain so no tombstones are
    /// needed; home buckets come from the inline tags, with no slab
    /// reads.
    fn remove(&mut self, block: BlockId) -> Option<u32> {
        let i = self.position(block)?;
        let s = self.index[i].slot();
        self.free.push(s);
        self.len -= 1;
        let mut hole = i;
        let mut j = (i + 1) & self.mask;
        while !self.index[j].is_empty() {
            let home = self.index[j].home(self.mask);
            // Move index[j] into the hole unless its home position lies
            // (cyclically) after the hole — then it must stay put.
            let stays = if hole <= j {
                home > hole && home <= j
            } else {
                home > hole || home <= j
            };
            if !stays {
                self.index[hole] = self.index[j];
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.index[hole] = TableEntry::EMPTY;
        Some(s)
    }

    /// Double the index and re-place every live entry from its inline
    /// tag — a sequential pass over the old index, no slab access.
    fn grow(&mut self) {
        let cap = self.index.len() * 2;
        assert!(cap <= 1 << 32, "tag bits cover tables up to 2^32");
        let old = std::mem::replace(&mut self.index, vec![TableEntry::EMPTY; cap]);
        self.mask = cap - 1;
        for e in old.into_iter().filter(|e| !e.is_empty()) {
            self.place(e);
        }
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

impl Keyed for Slot {
    #[inline]
    fn block(&self) -> BlockId {
        self.block
    }
}

/// An LRU-ordered (or, under [`Replacement::Fifo`], insertion-ordered)
/// pool of block copies with O(1) amortized operations.
pub(crate) struct DensePool {
    table: BlockTable<Slot>,
    /// LRU end of the recency list (first victim).
    head: u32,
    /// MRU end of the recency list.
    tail: u32,
    policy: Replacement,
    /// Slots that went from clean to dirty since the last sweep. Lazy:
    /// an entry may be stale (the copy was since removed, overwritten
    /// clean, or its slot reused) or repeated, so
    /// [`sweep_dirty`](Self::sweep_dirty) re-checks `meta.dirty`.
    dirtied: Vec<u32>,
    /// The slot that followed the last touched one on the recency list,
    /// as it stood before that touch, or [`NIL`]. Data re-read in the
    /// order it was last read asks for exactly this slot next, so a
    /// touch checks it before probing the table. Cleared when its slot
    /// is freed, so it only ever names a live copy.
    hint: u32,
}

impl DensePool {
    pub(crate) fn with_policy(policy: Replacement) -> Self {
        DensePool {
            table: BlockTable::new(),
            head: NIL,
            tail: NIL,
            policy,
            dirtied: Vec::new(),
            hint: NIL,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.table.len
    }

    pub(crate) fn contains(&self, block: BlockId) -> bool {
        self.table.find(block).is_some()
    }

    pub(crate) fn get(&self, block: BlockId) -> Option<&Meta> {
        self.table
            .find(block)
            .map(|s| &self.table.slab[s as usize].meta)
    }

    /// Unlink slot `s` from the recency list.
    fn unlink(&mut self, s: u32) {
        let slots = &mut self.table.slab;
        let (prev, next) = (slots[s as usize].prev, slots[s as usize].next);
        if prev == NIL {
            self.head = next;
        } else {
            slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            slots[next as usize].prev = prev;
        }
    }

    /// Append slot `s` at the MRU end.
    fn push_mru(&mut self, s: u32) {
        let slots = &mut self.table.slab;
        slots[s as usize].prev = self.tail;
        slots[s as usize].next = NIL;
        if self.tail == NIL {
            self.head = s;
        } else {
            slots[self.tail as usize].next = s;
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
        let s = match self.hint {
            h if h != NIL && self.table.slab[h as usize].block == block => h,
            _ => self.table.find(block)?,
        };
        self.hint = self.table.slab[s as usize].next;
        let meta = &mut self.table.slab[s as usize].meta;
        let before = *meta;
        if mark_used {
            meta.used = true;
            // A referenced block earns fresh recirculation chances
            // (Dahlin's N-chance counts forwards since last reference).
            meta.recirc = 0;
        }
        if write && !meta.dirty {
            meta.dirty = true;
            self.dirtied.push(s);
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
        let (s, was_dirty) = match self.table.find(block) {
            Some(s) => {
                let old = std::mem::replace(&mut self.table.slab[s as usize].meta, meta);
                self.unlink(s);
                (s, old.dirty)
            }
            None => {
                let s = self.table.insert(Slot {
                    block,
                    meta,
                    prev: NIL,
                    next: NIL,
                });
                (s, false)
            }
        };
        if meta.dirty && !was_dirty {
            self.dirtied.push(s);
        }
        self.push_mru(s);
    }

    /// Remove a specific block, returning its metadata.
    pub(crate) fn remove(&mut self, block: BlockId) -> Option<Meta> {
        let s = self.table.remove(block)?;
        if s == self.hint {
            self.hint = NIL;
        }
        self.unlink(s);
        let slot = &mut self.table.slab[s as usize];
        let meta = slot.meta;
        // Neutralize the flags the slot scans look at, so a stale
        // `dirtied` entry and `count_unused_prefetched`'s sequential slab
        // walk need no liveness check.
        slot.meta.dirty = false;
        slot.meta.prefetched = false;
        Some(meta)
    }

    /// Remove and return the least-recently-used (under FIFO: the
    /// oldest-inserted) block.
    pub(crate) fn pop_lru(&mut self) -> Option<(BlockId, Meta)> {
        if self.head == NIL {
            return None;
        }
        let block = self.table.slab[self.head as usize].block;
        let meta = self.remove(block).expect("list/table in sync");
        Some((block, meta))
    }

    /// Collect all dirty blocks, sorted, and mark them clean — in
    /// O(slots dirtied since the last sweep), not O(capacity): only the
    /// `dirtied` list is visited. Every dirty copy is on it, because
    /// each clean→dirty transition pushes its slot. A stale entry finds
    /// `dirty` false (freed slots have it cleared at free time by
    /// [`remove`](Self::remove)) and a repeated one finds it already
    /// cleared by its first visit, so each block is reported once.
    pub(crate) fn sweep_dirty(&mut self) -> Vec<BlockId> {
        let mut dirty = Vec::new();
        for s in self.dirtied.drain(..) {
            let slot = &mut self.table.slab[s as usize];
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
            let slot = &self.table.slab[s as usize];
            f(slot.block, &slot.meta);
            s = slot.next;
        }
    }

    /// Count resident prefetched-but-never-used blocks (for finalize).
    /// Sequential slab walk; freed slots have `prefetched` cleared at
    /// free time.
    pub(crate) fn count_unused_prefetched(&self) -> u64 {
        self.table
            .slab
            .iter()
            .filter(|s| s.meta.prefetched && !s.meta.used)
            .count() as u64
    }
}

/// The xFS manager's block→holders registry.
pub(crate) struct DenseHolders {
    table: BlockTable<HolderEntry>,
    /// Bit set while the block has at least one registered holder —
    /// mirrors `contains_key`, serves the range residency query.
    presence: PresenceMap,
}

struct HolderEntry {
    block: BlockId,
    /// Never empty while the entry is live; emptied when it is freed.
    holders: NodeSet,
}

impl Keyed for HolderEntry {
    #[inline]
    fn block(&self) -> BlockId {
        self.block
    }
}

impl DenseHolders {
    pub(crate) fn new() -> Self {
        DenseHolders {
            table: BlockTable::new(),
            presence: PresenceMap::new(),
        }
    }

    /// The nodes holding `block`; empty if unregistered.
    pub(crate) fn holders(&self, block: BlockId) -> NodeSet {
        match self.table.find(block) {
            Some(s) => self.table.slab[s as usize].holders,
            None => NodeSet::default(),
        }
    }

    /// Does any node hold `block`?
    pub(crate) fn contains_key(&self, block: BlockId) -> bool {
        self.table.find(block).is_some()
    }

    /// Consecutive registered blocks starting at `block`, capped at
    /// `max` — the `contains_key` run, range-queried.
    pub(crate) fn resident_run(&self, block: BlockId, max: u32) -> u32 {
        self.presence.run_len(block, max)
    }

    /// Lowest-numbered holder of `block` that is not in `down`.
    pub(crate) fn first_holder_up(&self, block: BlockId, down: NodeSet) -> Option<u32> {
        self.holders(block).minus(down).iter().next()
    }

    /// Total number of (block, holder) registrations — every copy the
    /// manager believes exists. (Integrity checks only.) Freed slab
    /// entries keep an empty holder set, so summing over the whole slab
    /// counts exactly the live registrations.
    pub(crate) fn total_registrations(&self) -> u64 {
        self.table
            .slab
            .iter()
            .map(|e| u64::from(e.holders.len()))
            .sum()
    }

    /// Register `node` as a holder of `block` (idempotent).
    pub(crate) fn insert(&mut self, block: BlockId, node: u32) {
        if let Some(s) = self.table.find(block) {
            self.table.slab[s as usize].holders.insert(node);
            return;
        }
        let mut holders = NodeSet::default();
        holders.insert(node);
        self.table.insert(HolderEntry { block, holders });
        self.presence.set(block);
    }

    /// Unregister `node` as a holder of `block`; the entry goes with
    /// its last holder.
    pub(crate) fn remove(&mut self, block: BlockId, node: u32) {
        let Some(s) = self.table.find(block) else {
            return;
        };
        let holders = &mut self.table.slab[s as usize].holders;
        holders.remove(node);
        if holders.is_empty() {
            self.table.remove(block);
            self.presence.clear(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ClassicHolders, LruPool};
    use ioworkload::FileId;
    use std::collections::BTreeSet;

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

    /// Some resident dirty copy of the classic pool, if any.
    fn some_dirty(classic: &LruPool, rng: &mut TestRng) -> Option<BlockId> {
        let dirty: Vec<BlockId> = classic
            .copies()
            .into_iter()
            .filter(|(_, m)| m.dirty)
            .map(|(b, _)| b)
            .collect();
        (!dirty.is_empty()).then(|| dirty[(rng.next() % dirty.len() as u64) as usize])
    }

    /// DensePool is observably equivalent to the classic LruPool under
    /// randomized interleavings of every operation the caches call, for
    /// both replacement policies: identical victim sequences, sweep
    /// output, lengths, residency runs, and returned metadata. Directed
    /// steps drive the sweep's lazy dirtied list through its stale and
    /// repeated entries: a dirty copy removed or popped and its slot
    /// reused at once, a dirty copy overwritten clean, and one block
    /// dirtied again and again between sweeps.
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
                match rng.next() % 118 {
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
                    99 => {
                        assert_eq!(
                            classic.count_unused_prefetched(),
                            dense.count_unused_prefetched()
                        );
                    }
                    100..=105 => {
                        // Free a dirty copy's slot (by removal or as the
                        // victim), then reuse it for another block.
                        let freed = if rng.next().is_multiple_of(2) {
                            some_dirty(&classic, &mut rng)
                                .map(|d| (classic.remove(d), dense.remove(d)))
                        } else {
                            Some((classic.pop_lru().map(|v| v.1), dense.pop_lru().map(|v| v.1)))
                        };
                        if let Some((c, d)) = freed {
                            assert_eq!(c, d, "freed, step {step}");
                        }
                        if !classic.contains(block) {
                            let meta = Meta::fresh(n(0), rng.next().is_multiple_of(2), false);
                            classic.insert(block, meta);
                            dense.insert(block, meta);
                        }
                    }
                    106..=111 => {
                        // Overwrite a dirty copy with a clean one.
                        if let Some(d) = some_dirty(&classic, &mut rng) {
                            let meta = Meta::fresh(n(1), false, rng.next().is_multiple_of(2));
                            classic.insert(d, meta);
                            dense.insert(d, meta);
                        }
                    }
                    112..=113 => {
                        // Free the hinted slot: the hint must not answer
                        // for the freed block, then reuse the slot for a
                        // block of a file no other step uses and touch
                        // both again.
                        assert_eq!(classic.touch(block, false), dense.touch(block, false));
                        if dense.hint != NIL {
                            let hinted = dense.table.slab[dense.hint as usize].block;
                            assert_eq!(classic.remove(hinted), dense.remove(hinted));
                            assert_eq!(classic.touch(hinted, false), dense.touch(hinted, false));
                            let other = b(3, rng.next() % 64);
                            if !classic.contains(other) {
                                let meta = Meta::fresh(n(2), false, false);
                                classic.insert(other, meta);
                                dense.insert(other, meta);
                            }
                            assert_eq!(classic.touch(hinted, true), dense.touch(hinted, true));
                            assert_eq!(classic.touch(other, false), dense.touch(other, false));
                        }
                    }
                    _ => {
                        // Dirty the same block repeatedly, by touch and
                        // by refresh.
                        for _ in 0..3 {
                            assert_eq!(classic.touch(block, true), dense.touch(block, true));
                            assert_eq!(
                                classic.refresh(block, true, false),
                                dense.refresh(block, true, false)
                            );
                        }
                    }
                }
                assert_eq!(classic.len(), dense.len());
                assert_eq!(classic.contains(block), dense.contains(block));
                assert_eq!(classic.get(block), dense.get(block));
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
    /// holder sets, first-up holder, per-holder lookups, and the total
    /// registration count. Nodes span the whole `0..MAX_NODES` mask,
    /// with the word-boundary bits drawn often so removals hit.
    #[test]
    fn dense_holders_match_classic_registry() {
        const EDGES: [u32; 6] = [0, 1, 63, 64, 126, 127];
        let mut rng = TestRng(0xDEAD_BEEF_1234_5679);
        let mut classic = ClassicHolders::default();
        let mut dense = DenseHolders::new();
        let mut down = BTreeSet::new();
        let mut down_mask = NodeSet::default();
        for step in 0..6000 {
            let block = b((rng.next() % 2) as u32, rng.next() % 48);
            let node = if rng.next().is_multiple_of(3) {
                (rng.next() % u64::from(MAX_NODES)) as u32
            } else {
                EDGES[(rng.next() % EDGES.len() as u64) as usize]
            };
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
                    if down.remove(&node) {
                        down_mask.remove(node);
                    } else {
                        down.insert(node);
                        down_mask.insert(node);
                    }
                }
                _ => {}
            }
            assert_eq!(classic.contains_key(block), dense.contains_key(block));
            assert_eq!(classic.resident_run(block, 8), dense.resident_run(block, 8));
            assert_eq!(
                classic.first_holder_up(block, &down),
                dense.first_holder_up(block, down_mask),
                "step {step}"
            );
            let expected: Vec<u32> = (0..MAX_NODES)
                .filter(|&h| classic.holds(block, h))
                .collect();
            assert_eq!(dense.holders(block).iter().collect::<Vec<_>>(), expected);
            assert_eq!(dense.holders(block).len() as usize, expected.len());
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

    /// Storage follows the present blocks, not the highest index: a
    /// block at 2^44 costs one word, and clearing frees it.
    #[test]
    fn presence_storage_grows_with_present_blocks_only() {
        let mut p = PresenceMap::new();
        let far = 1u64 << 44;
        p.set(b(0, 0));
        p.set(b(0, far));
        p.set(b(0, far + 1));
        assert_eq!(p.stored_words(), 2);
        assert!(p.words.index.len() <= 64, "index stays at its initial size");
        assert_eq!(p.run_len(b(0, far), 64), 2);
        assert_eq!(p.run_len(b(0, far - 1), 64), 0);
        p.clear(b(0, far));
        p.clear(b(0, far + 1));
        assert_eq!(p.stored_words(), 1, "an emptied word is freed");
        assert_eq!(p.run_len(b(0, far), 64), 0);
        assert_eq!(p.run_len(b(0, 0), 64), 1);
    }

    /// A sweep costs the writes since the last one, not the pool's
    /// size: k writes into a pool of 100 k clean copies leave at most k
    /// dirtied-list entries, the sweep returns exactly the written
    /// blocks, and the list is empty afterwards.
    #[test]
    fn sweep_visits_only_dirtied_slots() {
        let mut pool = DensePool::with_policy(Replacement::Lru);
        for i in 0..100_000 {
            pool.insert(b(i % 7, u64::from(i)), Meta::fresh(n(0), false, false));
        }
        assert!(pool.dirtied.is_empty(), "clean inserts list nothing");
        let written: Vec<BlockId> = (0..100_000u32)
            .step_by(997)
            .map(|i| b(i % 7, u64::from(i)))
            .collect();
        let k = written.len();
        for &w in &written {
            pool.touch(w, true);
            pool.touch(w, true); // already dirty: no second entry
        }
        assert!(
            pool.dirtied.len() <= k,
            "{} entries for {k} writes",
            pool.dirtied.len()
        );
        let mut expected = written.clone();
        expected.sort_unstable();
        assert_eq!(pool.sweep_dirty(), expected);
        assert!(pool.dirtied.is_empty());
        assert!(pool.sweep_dirty().is_empty(), "clean after sweep");
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
