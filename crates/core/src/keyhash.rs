//! The hasher of every engine map keyed by a partition key.
//!
//! A high-cardinality stream probes a [`GroupKey`](hamlet_types::GroupKey)
//! map several times per event: the batch scan's slot table, the group's
//! partitions at bucket, run creation and expiry time, the dirty log, the
//! pending general-query halves. A key is a few words (a length, a tag
//! and a value per attribute), and std's SipHash spends more on them than
//! the probe itself. [`KeyHasher`] takes one multiply-rotate step per word
//! (the FxHash construction) and, at the end, two rounds of an xor-shift
//! and a folded 64 × 64 → 128-bit multiply, which carry the high bits
//! into the low ones the table indexes by — float keys often differ only
//! in their top bits. One round left, for about one seed in a hundred,
//! such keys on half of the low buckets.
//!
//! Keys come from event attributes, that is from outside the program.
//! [`KeyState`] is seeded once per engine from [`RandomState`], so a set
//! of colliding keys cannot be computed ahead of time without the seed.
//! It is not a keyed PRF like SipHash: it does not claim to hold against
//! an attacker who can time the engine and adapt the stream. Shard
//! placement is not hashed here: `shard_index` keeps the unseeded
//! `DefaultHasher`, because which shard record of a checkpoint holds a
//! key depends on it.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A map whose key is or contains a partition key.
pub(crate) type KeyMap<K, V> = HashMap<K, V, KeyState>;

/// A set of partition keys, or of keys containing one.
pub(crate) type KeySet<K> = HashSet<K, KeyState>;

/// The odd multiplier of every step (2⁶⁴ / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Builds the [`KeyHasher`]s of one engine's maps, all from one seed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyState(u64);

impl KeyState {
    /// A fresh seed from std's per-process random keys.
    pub(crate) fn new() -> KeyState {
        KeyState(RandomState::new().hash_one(K))
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0)
    }
}

/// One word per multiply-rotate step; see the module docs.
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for KeyHasher {
    /// Eight bytes a word, the last zero-padded, then the length — so
    /// "ab" and "ab\0" stay apart.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(bytes.len() as u64);
    }

    // What a key is made of — a tag, an integer, a length — is one word.
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    /// Two rounds of an xor-shift and a folded 64 × 64 → 128-bit
    /// multiply: one round leaves, for some seeds, keys that differ only
    /// in their top bits on half of the low buckets.
    fn finish(&self) -> u64 {
        let round = |h: u64| {
            let m = u128::from(h ^ (h >> 32)) * u128::from(K);
            (m as u64) ^ (m >> 64) as u64
        };
        round(round(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_types::{AttrValue, GroupKey};

    fn hash(s: KeyState, key: &GroupKey) -> u64 {
        s.hash_one(key)
    }

    /// Keys that differ only in their top bits — floats that are small
    /// integers, integers spaced by a large power of two — still spread
    /// over the low bits a table indexes by, and over the top seven it
    /// filters its probes with, under every seed of a pinned sweep of
    /// 1000 (uniform hashing fills about 648 ± 10 of 1024 low buckets and
    /// 127 of 128 top-bit values; 1024 keys leave some of them empty).
    #[test]
    fn keys_differing_in_high_bits_spread_over_low_bits() {
        let floats: Vec<_> = (0..1024)
            .map(|i| GroupKey(vec![AttrValue::Float(f64::from(i))]))
            .collect();
        let ints: Vec<_> = (0..1024)
            .map(|i| GroupKey(vec![AttrValue::Int(i << 40)]))
            .collect();
        let mut seed = 0u64;
        for _ in 0..1000 {
            // splitmix64: the sweep's seeds are spread over all 64 bits.
            seed = seed.wrapping_add(K);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let s = KeyState(z ^ (z >> 31));
            for keys in [&floats, &ints] {
                let low: HashSet<u64> = keys.iter().map(|k| hash(s, k) & 1023).collect();
                let top: HashSet<u64> = keys.iter().map(|k| hash(s, k) >> 57).collect();
                assert!(
                    low.len() > 560,
                    "seed {:#x}: {} of 1024 low buckets",
                    s.0,
                    low.len()
                );
                assert!(
                    top.len() > 112,
                    "seed {:#x}: {} of 128 top values",
                    s.0,
                    top.len()
                );
            }
        }
    }

    /// Same seed, same hash; another seed, another hash. Strings whose
    /// tails differ only by a trailing zero byte do not collide.
    #[test]
    fn the_seed_decides_the_hash() {
        let key = GroupKey(vec![AttrValue::Int(7), AttrValue::from("east")]);
        let (a, b) = (KeyState::new(), KeyState::new());
        assert_eq!(hash(a, &key), hash(a, &key.clone()));
        assert_ne!(hash(a, &key), hash(b, &key));
        let s = |t: &str| hash(a, &GroupKey(vec![AttrValue::from(t)]));
        assert_ne!(s("ab"), s("ab\0"));
        assert_ne!(s(""), s("\0"));
    }
}
