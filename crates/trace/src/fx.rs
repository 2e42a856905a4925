//! FxHash-style hashing for simulation-internal map keys.
//!
//! The workspace has no external dependencies, so this is the one in-tree
//! replacement for `rustc-hash`: a multiply-xor over 8-byte chunks. It is
//! not DoS-resistant, which is irrelevant for keys the simulator makes up
//! itself (process names, page numbers, cache-line numbers), and it is
//! several times faster than SipHash on such short keys. It serves the
//! per-access lookups (sparse-memory pages, the L2 resident set) and the
//! executor's process-name table.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// FxHash-style multiply-xor hasher for short simulation-internal keys.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    /// Same value as `write(&v.to_le_bytes())`, without the chunk loop.
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn h(bytes: &[u8]) -> u64 {
        let mut hh = FxHasher::default();
        hh.write(bytes);
        hh.finish()
    }

    #[test]
    fn hasher_is_deterministic() {
        assert_eq!(h(b"gpu0.warp"), h(b"gpu0.warp"));
        assert_ne!(h(b"gpu0.warp"), h(b"gpu1.warp"));
    }

    #[test]
    fn word_fast_path_matches_the_byte_path() {
        for v in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut hh = FxHasher::default();
            hh.write_u64(v);
            assert_eq!(hh.finish(), h(&v.to_le_bytes()));
        }
    }
}
