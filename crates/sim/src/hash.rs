//! Deterministic, fast hashing for hot-path maps.
//!
//! `std`'s default hasher is SipHash-1-3 behind a per-process random seed:
//! robust against hash-flooding, but slow for the small fixed-width keys
//! (`FlowId`, `NodeId`, 5-tuples) that dominate the simulator's hot path,
//! and its random seed makes *iteration order* differ between processes —
//! poison for a bit-reproducible engine. This module provides the FxHash
//! algorithm (the compiler's `rustc-hash`) implemented in-tree so the
//! workspace stays dependency-free: a multiply-xor mix with no random
//! state. Inputs are simulation-internal identifiers, not attacker-chosen
//! keys, so flood resistance is not needed.

// The workspace's `clippy.toml` disallows the std maps so that SipHash
// stays off the hot path; these aliases are the one deliberate use.
#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`] — deterministic across processes.
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed with [`FxHasher`] — deterministic across processes.
#[allow(clippy::disallowed_types)]
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash word-at-a-time hasher (multiply-xor, no random state).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume full words, then the tail, mirroring rustc-hash.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(b"scotch"), hash_of(b"scotch"));
        assert_ne!(hash_of(b"scotch"), hash_of(b"scotcg"));
        assert_ne!(hash_of(b"a"), hash_of(b"aa"));
    }

    #[test]
    fn integer_writes_match_manual_mix() {
        let mut h = FxHasher::default();
        h.write_u32(7);
        h.write_u64(9);
        let mut m = FxHasher::default();
        m.add_to_hash(7);
        m.add_to_hash(9);
        assert_eq!(h.finish(), m.finish());
    }

    #[test]
    fn map_iteration_is_stable_for_fixed_inserts() {
        // Two maps built the same way iterate the same way — the property
        // the engine's determinism relies on.
        let build = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..1000 {
                m.insert(i * 2654435761 % 4093, i);
            }
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
