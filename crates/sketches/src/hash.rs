//! Seeded, deterministic hashing for sketches.
//!
//! Sketch quality rests on hash quality, and experiment reproducibility
//! rests on hash determinism. `std`'s `DefaultHasher` is neither seedable
//! in a stable way nor guaranteed stable across releases, so this module
//! provides its own primitives:
//!
//! * [`mix64`] — SplitMix64's finalizer: a fast, full-avalanche bijection
//!   on `u64`. The workhorse for integer keys.
//! * [`SeededHasher`] — a seedable `core::hash::Hasher` (FxHash-style
//!   compression, `mix64` finalization) for arbitrary `Hash` keys.
//! * [`SeededState`] — the `BuildHasher` of [`SeededHasher`]s under one
//!   seed, for hash maps keyed by sketch keys.
//! * [`hash_of`] — convenience: hash any `Hash` value under a seed.
//! * [`seed_sequence`] — derive `n` independent row seeds from one master
//!   seed (SplitMix64 stream), used by multi-row sketches.

use core::hash::{BuildHasher, Hash, Hasher};

/// SplitMix64 finalizer: bijective, full avalanche, ~3 ns.
///
/// Used directly on integer keys and as the finalizer of
/// [`SeededHasher`].
#[inline]
pub const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derive `n` decorrelated seeds from a master seed.
///
/// Sketches with `d` rows call this once at construction to give every
/// row an independent hash function.
pub fn seed_sequence(master: u64, n: usize) -> Vec<u64> {
    let mut state = master;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(state)
        })
        .collect()
}

/// A seedable streaming hasher: FxHash-style multiply-xor compression
/// with a [`mix64`] finalizer for avalanche.
///
/// Deterministic across runs and platforms for the same seed and input
/// (inputs are consumed in 8-byte little-endian chunks).
#[derive(Clone, Copy, Debug)]
pub struct SeededHasher {
    state: u64,
}

const ROTATE: u32 = 5;
const FX_SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;

impl SeededHasher {
    /// Start hashing with a seed.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        SeededHasher { state: seed }
    }

    #[inline]
    fn push(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for SeededHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.push(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Length-tag the tail so "ab" and "ab\0" differ.
            buf[7] = rem.len() as u8;
            self.push(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.push(i as u64 | 0x100);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.push(i as u64 | 0x1_0000);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.push(i as u64 | 0x1_0000_0000);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.push(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.push(i as u64);
        self.push((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.push(i as u64);
    }
}

/// Builds [`SeededHasher`]s under one seed: a hash map keyed by sketch
/// keys hashes them as the sketch does — a few multiplies where std's
/// SipHash pays tens of nanoseconds — and iterates in the same order on
/// every run.
#[derive(Clone, Copy, Debug)]
pub struct SeededState(u64);

impl SeededState {
    /// The state whose hashers start from `seed`.
    pub const fn new(seed: u64) -> Self {
        SeededState(seed)
    }
}

impl BuildHasher for SeededState {
    type Hasher = SeededHasher;

    #[inline]
    fn build_hasher(&self) -> SeededHasher {
        SeededHasher::new(self.0)
    }
}

/// Hash any `Hash` value under a seed.
#[inline]
pub fn hash_of<K: Hash + ?Sized>(key: &K, seed: u64) -> u64 {
    let mut h = SeededHasher::new(seed);
    key.hash(&mut h);
    h.finish()
}

/// Map a 64-bit hash onto `0..buckets` without modulo bias
/// (Lemire's multiply-shift reduction).
#[inline]
pub const fn reduce(hash: u64, buckets: usize) -> usize {
    (((hash as u128) * (buckets as u128)) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix64_is_injective_on_sample() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn mix64_avalanche() {
        // Flipping one input bit should flip roughly half the output
        // bits. Demand at least 24 of 64 on average (real figure ~32).
        let mut total = 0u32;
        let trials = 256;
        for i in 0..trials {
            let v = (i as u64).wrapping_mul(0x1234_5678_9ABC_DEF1);
            total += (mix64(v) ^ mix64(v ^ 1)).count_ones();
        }
        let avg = total as f64 / trials as f64;
        assert!(avg > 24.0, "weak avalanche: {avg}");
    }

    #[test]
    fn seeds_change_everything() {
        assert_ne!(hash_of(&42u64, 1), hash_of(&42u64, 2));
        assert_ne!(hash_of("hello", 1), hash_of("hello", 2));
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_of(&(1u32, 2u32), 7), hash_of(&(1u32, 2u32), 7));
        assert_eq!(hash_of("abc", 9), hash_of("abc", 9));
    }

    #[test]
    fn tail_bytes_are_length_tagged() {
        let mut a = SeededHasher::new(0);
        a.write(b"ab");
        let mut b = SeededHasher::new(0);
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn seed_sequence_is_pairwise_distinct() {
        let seeds = seed_sequence(0xDEADBEEF, 64);
        let set: HashSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), 64);
        // And differs for different masters.
        assert_ne!(seed_sequence(1, 4), seed_sequence(2, 4));
    }

    #[test]
    fn reduce_is_in_range_and_spreads() {
        let buckets = 1000;
        let mut counts = vec![0u32; buckets];
        for i in 0..100_000u64 {
            let b = reduce(mix64(i), buckets);
            assert!(b < buckets);
            counts[b] += 1;
        }
        // Each bucket expects 100; allow generous slack.
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min > 40 && *max < 200, "poor spread: min={min} max={max}");
    }

    #[test]
    fn u128_and_primitive_writes() {
        // Smoke-check the specialized write_* paths produce distinct
        // hashes for distinct values.
        assert_ne!(hash_of(&1u8, 0), hash_of(&2u8, 0));
        assert_ne!(hash_of(&1u16, 0), hash_of(&2u16, 0));
        assert_ne!(hash_of(&1u32, 0), hash_of(&2u32, 0));
        assert_ne!(hash_of(&1u128, 0), hash_of(&(1u128 << 64), 0));
    }
}
