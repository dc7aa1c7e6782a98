//! A fast, deterministic hasher for the profiler's per-event maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for integer keys (addresses, PCs, strides).
///
/// The profiler looks up a map once per memory μop and twice per branch,
/// and SipHash's flood resistance buys nothing there: every key comes from
/// the trace being profiled, never from a network peer. The final rotate
/// moves the well-mixed high product bits into the low bits the table
/// indexes by, so aligned keys do not pile into a few buckets. Hashing
/// changes only a map's iteration order, and every map that uses it
/// either is never iterated or has its contents sorted before use.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
