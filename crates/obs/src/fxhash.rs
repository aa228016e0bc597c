//! A fast deterministic hasher for the program's own integer ids.
//!
//! The analysis looks up small integer keys — tasks, chains, record
//! indices, event ids, cause keys — once or more per trace record. The
//! standard library's SipHash is built to resist keys crafted to collide
//! and costs tens of cycles per key; this is the word step of rustc's
//! FxHash (one rotate, xor and multiply per word, no per-process seed),
//! the hasher of the `rustc-hash` crate, without the dependency.
//!
//! **The rule:** [`FxMap`] / [`FxSet`] take the keys the program makes up
//! itself: ids, indexes, counters, keys built of them, and the
//! happens-before engine's cause keys, whose one text part is the path of
//! a zknode the simulated run wrote. A key holding text that a program
//! model or a trace file supplies keeps the standard hasher, whose seeded
//! SipHash a crafted input cannot make collide: the run's name table
//! (`Names::index`, which `parse_record` fills from trace lines), the
//! model's builder, program and dependence tables, and loop-sync's
//! `OccKey` maps. A map whose iteration order reaches output sorts its
//! entries where it is read, or stays a `BTreeMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's FxHash (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's FxHash: each word is folded in by a rotate, an xor and a
/// multiply. Deterministic: equal inputs hash alike in every process.
#[derive(Debug, Clone, Default)]
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
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed by [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed by [`FxHasher`].
pub type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx(value: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    /// No per-process seed: fixed inputs hash to fixed values.
    #[test]
    fn hashes_are_pinned() {
        assert_eq!(fx(0u32), 0);
        assert_eq!(fx(1u32), SEED);
        assert_eq!(fx(7u64), 7u64.wrapping_mul(SEED));
        let pinned = [fx((3u32, 9u64)), fx([1u8, 2, 3]), fx("zk")];
        let expected = [
            17_106_626_079_223_511_235,
            7_191_405_660_579_021_101,
            13_877_851_128_797_511_117,
        ];
        assert_eq!(pinned, expected);
    }

    /// Two maps built by the same inserts iterate alike.
    #[test]
    fn equal_inserts_iterate_alike() {
        let build = || {
            let mut m = FxMap::default();
            for i in 0u64..500 {
                m.insert(i.wrapping_mul(0x9E37_79B9), i);
            }
            m.remove(&0);
            m
        };
        let (a, b) = (build(), build());
        assert!(a.iter().eq(b.iter()));
        let set: FxSet<u32> = (0..100).rev().collect();
        let again: FxSet<u32> = (0..100).rev().collect();
        assert!(set.iter().eq(again.iter()));
    }
}
