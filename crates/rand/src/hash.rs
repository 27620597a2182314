//! One keyed hasher for every hash map in the workspace.
//!
//! The maps on the per-message path are keyed by ids: random 128-bit
//! advert UUIDs, `(node, seq)` query ids, dense class and timer ids. They
//! need a hash that is cheap for a few machine words and keyed, so a remote
//! peer that picks ids cannot aim them at one bucket. std's SipHash-1-3 is
//! keyed but costs tens of nanoseconds per probe; [`IdHasher`] folds each
//! 8-byte word with one 64×64→128 multiply (the high half xor the low half)
//! and folds the map's key in at `finish`.
//!
//! Every map gets its own key. [`IdBuildHasher::default`] mixes a
//! process-wide random base, drawn once from std's `RandomState`, with a
//! per-instance counter. A peer therefore still cannot predict a key, and
//! iterating one map while inserting into another (copying a store, say)
//! does not feed the second map keys already sorted by its own hash, which
//! is the quadratic clustering a shared key invites.
//!
//! Iteration order of an [`IdMap`] is as unspecified as it was under
//! `RandomState`: no output may depend on it.
//!
//! This file is also compiled into `sds-semantic`, which has no
//! dependencies, so that crate uses the same hasher without a manifest edge.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A `HashMap` hashed by [`IdHasher`] under its own key. Build one with
/// `IdMap::default()` or `IdMap::with_capacity_and_hasher(n, Default::default())`.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// Multiplier for each folded word: the first 64 fraction bits of π.
const WORD_MUL: u64 = 0x243f_6a88_85a3_08d3;
/// Multiplier that turns the base and counter into a map key: the next 64.
const KEY_MUL: u64 = 0x1319_8a2e_0370_7344;

/// The 128-bit product of `a` and `b`, high half xor low half.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Builds [`IdHasher`]s under one per-map key.
#[derive(Clone, Debug)]
pub struct IdBuildHasher {
    key: u64,
}

impl Default for IdBuildHasher {
    /// A fresh key: the process-wide random base mixed with a counter, so
    /// no two maps built in one process share a key.
    fn default() -> Self {
        static BASE: OnceLock<u64> = OnceLock::new();
        static INSTANCES: AtomicU64 = AtomicU64::new(0);
        let base = *BASE.get_or_init(|| RandomState::new().hash_one(0u64));
        let n = INSTANCES.fetch_add(1, Ordering::Relaxed);
        Self { key: fold(base ^ n.wrapping_mul(WORD_MUL), KEY_MUL) }
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { acc: self.key, key: self.key }
    }
}

/// Keyed multiply-fold hasher: one multiply per 8-byte word, one more for
/// the key at `finish`.
#[derive(Clone, Debug)]
pub struct IdHasher {
    acc: u64,
    key: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.acc = fold(self.acc ^ word, WORD_MUL);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Folds whole little-endian words, then the zero-padded tail, then the
    /// length, so byte strings that differ only in trailing zeros differ.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(buf));
        }
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.acc, self.key ^ KEY_MUL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fullest of `buckets` buckets when `hashes` are placed by `bucket`.
    fn max_bucket(hashes: &[u64], buckets: usize, bucket: impl Fn(u64) -> usize) -> usize {
        let mut counts = vec![0usize; buckets];
        for &h in hashes {
            counts[bucket(h)] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// No bucket of the low bits a table indexes by, nor of the top 7 bits
    /// hashbrown keeps as a tag, holds more than 4× its mean.
    fn assert_spread(hashes: &[u64], what: &str) {
        let low_buckets = 1usize << 10;
        let low = max_bucket(hashes, low_buckets, |h| (h as usize) & (low_buckets - 1));
        assert!(
            low <= 4 * hashes.len() / low_buckets,
            "{what}: a low-bit bucket holds {low} of {}",
            hashes.len()
        );
        let top = max_bucket(hashes, 128, |h| (h >> 57) as usize);
        assert!(top <= 4 * hashes.len() / 128, "{what}: a top-7-bit bucket holds {top}");
    }

    #[test]
    fn sequential_keys_spread_over_low_and_top_bits() {
        let build = IdBuildHasher::default();
        let u32s: Vec<u64> = (0..1u32 << 16).map(|k| build.hash_one(k)).collect();
        assert_spread(&u32s, "sequential u32");
        let u64s: Vec<u64> = (0..1u64 << 16).map(|k| build.hash_one(k)).collect();
        assert_spread(&u64s, "sequential u64");
    }

    #[test]
    fn byte_strings_differing_only_in_length_hash_differently() {
        let build = IdBuildHasher::default();
        let hash = |bytes: &[u8]| {
            let mut h = build.build_hasher();
            h.write(bytes);
            h.finish()
        };
        let zeros = [0u8; 17];
        let hashes: Vec<u64> = (0..=zeros.len()).map(|n| hash(&zeros[..n])).collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b, "zero strings of different lengths collide");
            }
        }
        assert_ne!(hash(b"a"), hash(b"a\0"));
    }

    #[test]
    fn maps_built_by_default_get_different_keys() {
        let a = IdBuildHasher::default();
        let b = IdBuildHasher::default();
        assert_ne!(a.hash_one(42u64), b.hash_one(42u64));
        let m: IdMap<u64, ()> = IdMap::default();
        let n: IdMap<u64, ()> = IdMap::default();
        assert_ne!(m.hasher().hash_one(42u64), n.hasher().hash_one(42u64));
    }
}
