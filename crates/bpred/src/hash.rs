//! A fast, deterministic hasher for branch-address keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::Addr;

/// fxhash's 64-bit multiplier (golden-ratio derived, odd).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A multiply-xor hasher for the small integer keys the predictor tables
/// use. Address keys hash in a handful of cycles instead of SipHash's
/// dozens, which matters because table-backed predictors hash on every
/// simulated dispatch. Deterministic across processes and runs: the
/// predictors never iterate their maps, so no result depends on bucket
/// order, and a fixed seed keeps the simulator fully reproducible.
#[derive(Debug, Default)]
pub struct AddrHasher(u64);

/// One [`AddrHasher`] round: folds the word `w` into the state `h`.
#[inline]
pub(crate) fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(K)
}

/// [`AddrHasher`]'s output from the state `h`.
#[inline]
pub(crate) fn finish(h: u64) -> u64 {
    // A multiply's mixing lives in its high bits, but the table
    // indexes buckets by the low bits; fold the halves together so
    // aligned addresses (low bits mostly zero) still spread.
    h ^ (h >> 32)
}

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        finish(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0, u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// The deterministic fast-hash state all predictor maps share.
pub type AddrHashBuilder = BuildHasherDefault<AddrHasher>;

/// Hashes a sequence of words through one [`AddrHasher`] stream.
///
/// The tagged-table predictors (ITTAGE, the path hybrid) derive both
/// their table indexes and their partial tags from `(branch, folded
/// history, table id)` tuples; routing every such derivation through
/// this helper, or through the [`mix`] and [`finish`] steps it is made
/// of, keeps all predictor hashing on the single deterministic hash
/// family instead of growing ad-hoc mixers per table. ITTAGE calls the
/// steps directly so that the `branch` prefix its tuples share is mixed
/// once per event.
#[inline]
pub(crate) fn hash_words(words: &[u64]) -> u64 {
    finish(words.iter().fold(0, |h, &w| mix(h, w)))
}

/// A `HashMap` keyed by branch address with the fast deterministic hash.
pub(crate) type AddrMap<V> = HashMap<Addr, V, AddrHashBuilder>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_and_spreading() {
        let build = AddrHashBuilder::default();
        let h = |v: u64| build.hash_one(v);
        assert_eq!(h(0x1234), h(0x1234), "same key must hash identically");
        // Nearby addresses (the common BTB access pattern) land in
        // different buckets: check low-bit diversity over a dense range.
        let mut low_bits = std::collections::HashSet::new();
        for a in 0..64u64 {
            low_bits.insert(h(0x1000 + a * 8) & 0x3f);
        }
        assert!(low_bits.len() > 32, "only {} distinct low-6-bit values", low_bits.len());
    }
}
