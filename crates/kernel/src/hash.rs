//! A fast, deterministic hasher for the simulator's hot-path maps.
//!
//! `std::HashMap` defaults to SipHash-1-3, whose per-lookup cost dominates
//! the directory and MSHR maps once a run issues millions of line-address
//! lookups. [`FxHasher`] is the multiply-and-rotate hash used by the Rust
//! compiler's `FxHashMap`: one rotate, one xor, and one multiply per word.
//! It is not DoS-resistant — irrelevant here, since every key is a line
//! address or small id produced by the simulator itself — and it is fully
//! deterministic across runs and platforms, which the reproduction's
//! bit-for-bit determinism guarantee requires (no per-process random seed,
//! unlike `RandomState`).
//!
//! # Example
//!
//! ```
//! use slipstream_kernel::{FxHashMap, LineAddr};
//!
//! let mut mshrs: FxHashMap<LineAddr, u32> = FxHashMap::default();
//! mshrs.insert(LineAddr(7), 1);
//! assert_eq!(mshrs.get(&LineAddr(7)), Some(&1));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Knuth's multiplicative constant (2^64 / golden ratio), as used by
/// rustc's Fx hash.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// One-word-at-a-time multiplicative hasher (the rustc "Fx" function).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s. Stateless: every map hashes
/// identically, so map behaviour is reproducible across runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed with the Fx hash — the simulator's default for
/// per-access maps (directory lines, MSHRs, sync objects).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::hash::Hash;

    fn fx_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(fx_of(&0xdead_beefu64), fx_of(&0xdead_beefu64));
        assert_ne!(fx_of(&1u64), fx_of(&2u64));
    }

    #[test]
    fn byte_writes_match_padded_words() {
        // write() must consume trailing bytes (zero-padded), not drop them.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_behaves_like_std_map() {
        // Property check: an FxHashMap agrees with a std HashMap under a
        // random insert/remove/lookup workload.
        let mut rng = SplitMix64::new(0xfeed);
        let mut fx: FxHashMap<u64, u64> = FxHashMap::default();
        let mut std_map = std::collections::HashMap::new();
        for _ in 0..10_000 {
            let k = rng.next_below(512);
            match rng.next_below(3) {
                0 => {
                    let v = rng.next_u64();
                    assert_eq!(fx.insert(k, v), std_map.insert(k, v));
                }
                1 => assert_eq!(fx.remove(&k), std_map.remove(&k)),
                _ => assert_eq!(fx.get(&k), std_map.get(&k)),
            }
            assert_eq!(fx.len(), std_map.len());
        }
    }
}
