//! The workspace's one map hasher (DESIGN.md §14).
//!
//! Every map the simulator touches per event — pending fetches, walk
//! bookkeeping, predictor tables — hashes small integer keys. std's
//! SipHash defends against hash flooding by keying itself at random per
//! process; nothing here hashes untrusted input on the event path, and
//! results never depend on map iteration order (they are identical from
//! run to run under SipHash's random keys), so a fixed multiply–rotate
//! hash in the style of rustc's Fx hash serves them at a fraction of the
//! cost. `crates/clippy.toml` disallows the std aliases so that a new
//! map picks this one up.
#![allow(
    clippy::disallowed_types,
    reason = "the aliases below are the one sanctioned route to std's maps"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the Fx hash (from the golden ratio).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style hasher: fold each word in with a rotate, xor and multiply.
#[derive(Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; rotate them
    /// down to where the table takes its bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; stateless, so every map hashes alike.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` under `FxHasher`. Construct with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` under `FxHasher`. Construct with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    /// Fixed: the same key hashes the same in every map and process.
    #[test]
    fn hash_is_fixed_and_separates_keys() {
        assert_eq!(hash(&(3u32, 7u64)), hash(&(3u32, 7u64)));
        assert_ne!(hash(&(3u32, 7u64)), hash(&(3u32, 8u64)));
        assert_ne!(hash(&[1u64, 2][..]), hash(&[2u64, 1][..]));
        assert_ne!(hash(&"abcdefghi"), hash(&"abcdefghj"), "tail bytes count");
    }

    /// Sequential block indices — the walk's keys — must spread over the
    /// low bits the table indexes by, not pile into a few buckets.
    #[test]
    fn sequential_keys_spread_over_low_bits() {
        let buckets: FxHashSet<u64> = (0..4096u64).map(|i| hash(&i) & 4095).collect();
        assert!(
            buckets.len() > 2048,
            "{} of 4096 buckets used",
            buckets.len()
        );
    }
}
