//! A fast, non-cryptographic hasher for the maps that must stay sparse.
//!
//! The simulator's hot maps keyed by dense ids are slabs, bit sets (see
//! [`crate::bitset`]) or flat index vectors (the buffer pool's page → frame
//! table among them, since [`crate::PageId`]s are dense). The remembered
//! sets are genuinely sparse — most objects are never the target of a
//! cross-partition pointer — so they stay hash maps. The standard library's default SipHash-1-3 is keyed and
//! DoS-resistant, which simulation state does not need; this FxHash-style
//! multiply-rotate hasher (the scheme rustc itself uses for its interner
//! maps) is several times faster on `u64`-shaped keys and, being unkeyed,
//! makes map iteration order stable across processes and threads.
//!
//! No external dependency: the whole hasher is a dozen lines.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the golden ratio, as used by FxHash.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: one `u64` folded with rotate-xor-multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
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
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
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

/// Builder for [`FxHasher`] (zero-sized, unkeyed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FastHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes one `u64` directly (for ad-hoc mixing without a map).
#[inline]
pub fn fast_hash_u64(v: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(v);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oid, PointerLoc, SlotId};

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FastHashMap<Oid, u32> = FastHashMap::default();
        for i in 0..1000 {
            m.insert(Oid(i), i as u32 * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&Oid(17)), Some(&34));
        let mut s: FastHashSet<PointerLoc> = FastHashSet::default();
        assert!(s.insert(PointerLoc::new(Oid(1), SlotId(0))));
        assert!(!s.insert(PointerLoc::new(Oid(1), SlotId(0))));
        assert!(s.contains(&PointerLoc::new(Oid(1), SlotId(0))));
    }

    #[test]
    fn hashes_are_deterministic_and_spread() {
        assert_eq!(fast_hash_u64(42), fast_hash_u64(42));
        let hashes: std::collections::HashSet<u64> = (0..10_000u64).map(fast_hash_u64).collect();
        assert_eq!(hashes.len(), 10_000, "no collisions on sequential ids");
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0]);
        // Differ-length inputs padding to the same word is acceptable for
        // our use (fixed-width keys); this just pins the behavior.
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[3, 2, 1]);
        assert_ne!(a.finish(), c.finish());
    }
}
