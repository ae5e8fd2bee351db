//! Hand-rolled FNV-1a hashing for the analyzer's hot maps.
//!
//! The reuse-distance analyzer keys two maps on every traced access: the
//! last-access time by datum (`u64` address) and the per-reference
//! statistics by [`gcr_ir::RefId`]. The standard library's default SipHash
//! is keyed and DoS-resistant — properties these internal, small, fixed
//! keys do not need — and its per-lookup cost is visible in the analyzer
//! profile. FNV-1a is the same pinned hash `gcr-bench::sweep` already uses
//! for measurement keys: unkeyed, deterministic across runs and platforms
//! (all writes are little-endian), and a handful of cycles for 4–8 byte
//! keys. No external dependency, matching the offline build constraint.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a streaming hasher (64-bit).
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    // Fixed-width writes go through the same byte stream in little-endian
    // order, so hashes are identical on every platform.
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Deterministic build-hasher (zero per-map state).
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` using FNV-1a, for small fixed-width keys on hot paths.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// One-multiply hasher for a single `u64` key (a line number): fold the
/// high bits down, multiply by the 64-bit golden ratio, fold the product's
/// high half into its low half (the table indexes by the low bits, the
/// control bytes use the top ones). FNV-1a spends eight dependent
/// multiplies on the same key; behind the capacity stack's per-access
/// lookup that was about a quarter of a 2-D probe fit's time.
/// Deterministic and unkeyed, like [`FnvHasher`].
#[derive(Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let h = (self.0 ^ v ^ (v >> 29)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A `HashMap` keyed by one `u64` per entry, hashed with [`LineHasher`].
pub type LineHashMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // FNV-1a 64-bit reference values.
        let h = |bytes: &[u8]| {
            let mut f = FnvHasher::default();
            f.write(bytes);
            f.finish()
        };
        assert_eq!(h(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(h(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(h(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn line_hasher_spreads_strided_keys() {
        // Power-of-two strides must not collapse onto few low-bit buckets.
        let buckets: std::collections::HashSet<u64> = (0..1024u64)
            .map(|k| {
                let mut h = LineHasher::default();
                h.write_u64(k << 12);
                h.finish() & 1023
            })
            .collect();
        assert!(buckets.len() > 512, "{} buckets of 1024", buckets.len());
        let mut m: LineHashMap<u32> = LineHashMap::default();
        for k in 0..1000u64 {
            m.insert(k << 12, k as u32);
        }
        assert!((0..1000u64).all(|k| m.get(&(k << 12)) == Some(&(k as u32))));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FnvHashMap<u64, u32> = FnvHashMap::default();
        for k in 0..1000u64 {
            m.insert(k * 8, k as u32);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(&(k * 8)), Some(&(k as u32)));
        }
    }
}
