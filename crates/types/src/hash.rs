//! Deterministic fast hashing for maps keyed by site-minted integers.
//!
//! The std `HashMap` hashes with SipHash-1-3 under a random key: robust
//! against hash flooding, but several times slower than needed for the
//! small integer keys (transaction ids, span ids, timer tokens, trace
//! ids) that the per-message handlers probe on every AV round.
//! [`FastMap`]/[`FastSet`] swap in an Fx-style multiply hasher.
//!
//! **Rule:** use these only for keys the sites mint themselves. A key a
//! client controls (a gateway tag chosen on the wire, a product id read
//! from a request, a string) keeps the std hasher: with a fixed,
//! unkeyed hash, a client could pick keys that all collide and turn every
//! probe into a linear scan (HashDoS). The mix also assumes the keys'
//! entropy sits in their low bits, as sequence-numbered ids' does.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply constant of the 64-bit Fx-style mix (an odd constant with
/// well-spread bits, as in rustc's `FxHasher`).
const SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// Fx-style hasher: one add and one multiply per word, no per-map key.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits at the top; the table
        // indexes buckets with the low bits, so rotate them down.
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FastHasher`]: stateless, so every map hashes the
/// same key to the same value in every process.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` with [`FastHasher`] — site-minted integer keys only.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` with [`FastHasher`] — site-minted integer keys only.
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_deterministic_across_builders() {
        let a = FastBuildHasher::default();
        let b = FastBuildHasher::default();
        for key in [0u64, 1, 42, u64::MAX, 1 << 63] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        // Minted ids are sequential; buckets come from the low bits, so
        // consecutive keys must not pile into a few buckets.
        let h = FastBuildHasher::default();
        let mut buckets = [0u32; 64];
        for key in 0..4096u64 {
            buckets[(h.hash_one(key) & 63) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n > 0 && n < 4096 / 64 * 3), "{buckets:?}");
        // Minted ids carry the minting site in their high bits and a
        // sequence in the low bits; a mixed population spreads too.
        let mut buckets = [0u32; 64];
        for site in 0..64u64 {
            for seq in 0..64u64 {
                buckets[(h.hash_one((site << 40) | seq) & 63) as usize] += 1;
            }
        }
        assert!(buckets.iter().all(|&n| n > 0 && n < 4096 / 64 * 3), "{buckets:?}");
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        let mut s: FastSet<(u32, u64)> = FastSet::default();
        for i in 0..1000u64 {
            m.insert(i * 7, i as u32);
            s.insert((i as u32 % 3, i));
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(999 * 7)), Some(&999));
        assert!(s.contains(&(2, 5)));
        assert!(!s.contains(&(0, 5)));
        // Unaligned byte writes (tuple/str keys) still hash every byte.
        let h = FastBuildHasher::default();
        assert_ne!(h.hash_one("abcdefghi"), h.hash_one("abcdefghj"));
    }
}
