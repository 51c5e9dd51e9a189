//! A tiny deterministic hasher for the model's internal integer-keyed
//! maps.
//!
//! The functional memory's frame map, the page table and the DRAM
//! bandwidth buckets sit on the per-packet hot path: simulated cache-line
//! accesses and translations probe them, and `std`'s default SipHash
//! costs more than the arithmetic around it. This is an FxHash-style
//! multiplicative hasher — one multiply per word — which is plenty for the
//! dense, low-entropy keys involved (frame, page and bucket numbers). None of the maps using it ever expose iteration order,
//! so swapping the hasher cannot change simulation results.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One-multiply-per-word hasher (64-bit Fibonacci multiplier + rotate).
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FastHasher`] — deterministic (no
/// per-process seed) and cheap enough for per-access probing.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_map_and_read_back() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 8192, i);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 8192)), Some(&i));
        }
        assert_eq!(m.get(&7), None);
    }

    #[test]
    fn hashing_is_deterministic() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(0xABCD);
        b.write_u64(0xABCD);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0, "nonzero diffusion");
    }
}
