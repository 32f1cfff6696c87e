//! The crate's one hasher: a deterministic multiply-rotate mixer for maps
//! keyed by internal values (locations, tracks, routes, metric names).
//! Nothing outside the program chooses those keys, so SipHash's HashDoS
//! resistance buys nothing on the per-call paths, and a fixed hasher makes
//! iteration order the same in every process (DESIGN.md §6.3).

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` under [`FastHasher`]; build one with `FastMap::default()`.
#[allow(clippy::disallowed_types)]
pub(crate) type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Folds each word in with a rotate, an xor and a multiply by an odd
/// constant.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// Byte slices (string keys) fold in 8 bytes at a time.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    /// Also takes `isize`, which enum discriminants hash as.
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    /// The product's well-mixed high bits rotated down to where the table
    /// takes its bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
