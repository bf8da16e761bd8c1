//! An Fx-style hasher and hash-map/set aliases, plus the FNV-1a checksum.
//!
//! The hash function is the one used inside rustc (`rustc-hash`): a
//! multiply-rotate mix applied word-at-a-time. It is not HashDoS-resistant,
//! which is fine here — keys are internal block and vertex ids, never
//! attacker-controlled — and it is several times faster than the standard
//! library's SipHash 1-3 for small integer keys, which dominate the
//! blockmodel's sparse rows.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast, non-cryptographic hasher for small keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` replacement keyed with the Fx hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` replacement keyed with the Fx hash.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hash a single `u64` to a well-mixed `u64` (for seeding and tests).
#[inline]
pub fn hash_u64(x: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(x);
    h.finish()
}

/// 64-bit FNV-1a over `bytes`: the checksum of WAL records and sync
/// frames, and the fingerprint of labels and workloads. Every byte changes
/// the hash through an xor then an odd multiply, so any single-byte
/// corruption is detected.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_input_same_hash() {
        assert_eq!(hash_u64(42), hash_u64(42));
        assert_ne!(hash_u64(42), hash_u64(43));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, u64::from(i) * 3);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&i), Some(&(u64::from(i) * 3)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn set_dedups() {
        let mut s: FxHashSet<u32> = FxHashSet::default();
        for i in 0..100 {
            s.insert(i % 10);
        }
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn byte_stream_matches_word_writes_are_consistent() {
        // Writing the same logical bytes twice must give identical hashes.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distributes_low_bits() {
        // Sequential keys must not all collide in low bits (bucket index).
        let mut buckets = [0u32; 16];
        for i in 0..1600u64 {
            buckets[(hash_u64(i) & 15) as usize] += 1;
        }
        // With a decent mix every bucket gets something.
        assert!(buckets.iter().all(|&c| c > 0), "buckets: {buckets:?}");
    }
}
