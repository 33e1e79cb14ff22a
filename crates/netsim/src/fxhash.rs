//! A minimal FxHash-style hasher for the host index.
//!
//! The slab host table resolves an `Ipv4Addr` to a dense `HostId`
//! exactly once per enqueued event, so the lookup sits squarely on the
//! simulator's hot path. SipHash's DoS resistance buys nothing there —
//! the key space is simulator-controlled — so we use the multiply-xor
//! scheme popularized by rustc's `FxHasher`, reimplemented here to keep
//! the workspace dependency-free. The aliases are public so the other
//! crates' campaign-startup paths (shard planning, address scattering,
//! profile interning) can share the same hasher instead of paying
//! SipHash per O(population) insert.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher64`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher64>>;

/// `HashSet` keyed through [`FxHasher64`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher64>>;

/// Pre-sized [`FxHashMap`]: one allocation for an expected-size table.
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

/// Pre-sized [`FxHashSet`]: one allocation for an expected-size table.
pub fn fx_set_with_capacity<T>(capacity: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

/// Multiply-xor hasher over 64-bit state. Not DoS-resistant; only for
/// keys the simulator itself controls.
#[derive(Debug, Default)]
pub struct FxHasher64 {
    hash: u64,
}

/// Knuth-style multiplicative constant (golden ratio over 2^64).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher64 {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn distinct_addrs_hash_distinctly() {
        let mut map: FxHashMap<Ipv4Addr, u32> = FxHashMap::default();
        for i in 0..10_000u32 {
            map.insert(Ipv4Addr::from(i.wrapping_mul(2_654_435_761)), i);
        }
        assert_eq!(map.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(
                map.get(&Ipv4Addr::from(i.wrapping_mul(2_654_435_761))),
                Some(&i)
            );
        }
    }

    #[test]
    fn hash_is_stable_per_input() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher64::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"example.com"), hash(b"example.com"));
        assert_ne!(hash(b"example.com"), hash(b"example.net"));
    }
}
