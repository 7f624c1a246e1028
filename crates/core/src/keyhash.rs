//! The hasher of every engine map keyed by a partition key, and the key
//! table every partition is addressed through.
//!
//! Each key class (groups that build one key per event) has one
//! [`KeyTable`] per engine: the scan hashes an event's key once per
//! class, to intern it, and from there on the key is a dense id — a
//! segment's buckets, a group's run lists and a run's slab slot all
//! index by it, and the table is probed once more only when the key's
//! last run in the class dies. What still hashes a whole key is off the
//! per-event path: the dirty log, the pending general-query halves and a
//! record's removal lists. A key is a few words (a length, a tag and a
//! value per attribute), and std's SipHash spends more on them than the
//! probe itself. [`KeyHasher`] takes one multiply-rotate step per word
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

use hamlet_types::GroupKey;
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

/// The id of no key: a vacant slot of a [`KeyTable`]'s index.
const VACANT: u32 = u32::MAX;

/// One key class's partition keys, each stored once, under a dense id.
///
/// The index is open addressing with linear probing, at most half full:
/// a slot holds the low 32 bits of its key's hash and the key's id, so a
/// probe compares keys only when those bits agree. A freed id goes on a
/// free list with its key buffer, and the next new key takes both, so a
/// warm table allocates nothing; freeing shifts the probe run behind the
/// slot back, so no tombstones build up. Ids are not state: they are
/// never written to a record, and nothing observable is ordered by them.
pub(crate) struct KeyTable {
    /// `(hash, id)` per slot, `id == VACANT` when empty; a power of two
    /// long.
    index: Vec<(u32, u32)>,
    /// By id: the key, its hash, and whether the id is in use.
    entries: Vec<(GroupKey, u32, bool)>,
    /// Freed ids, taken last in, first out.
    free: Vec<u32>,
    state: KeyState,
}

impl KeyTable {
    /// An empty table hashing under `state`.
    pub(crate) fn new(state: KeyState) -> KeyTable {
        KeyTable {
            index: vec![(0, VACANT); 8],
            entries: Vec::new(),
            free: Vec::new(),
            state,
        }
    }

    /// The slot holding `key` (`Ok`), or the vacant slot its probe ends
    /// on (`Err`).
    fn find(&self, key: &GroupKey, hash: u32) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.index[at] {
                (_, VACANT) => return Err(at),
                (h, id) if h == hash && self.entries[id as usize].0 == *key => return Ok(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The id of `key`, if it has one.
    pub(crate) fn get(&self, key: &GroupKey) -> Option<u32> {
        let at = self.find(key, self.state.hash_one(key) as u32).ok()?;
        Some(self.index[at].1)
    }

    /// The id of `key`, given one if it has none: a freed id and its key
    /// buffer if there is one.
    pub(crate) fn intern(&mut self, key: &GroupKey) -> u32 {
        let hash = self.state.hash_one(key) as u32;
        let mut at = match self.find(key, hash) {
            Ok(at) => return self.index[at].1,
            Err(at) => at,
        };
        if 2 * (self.len() + 1) > self.index.len() {
            self.grow();
            at = match self.find(key, hash) {
                Ok(at) | Err(at) => at,
            };
        }
        let id = match self.free.pop() {
            Some(id) => {
                let entry = &mut self.entries[id as usize];
                entry.0 .0.clone_from(&key.0);
                (entry.1, entry.2) = (hash, true);
                id
            }
            None => {
                self.entries.push((key.clone(), hash, true));
                (self.entries.len() - 1) as u32
            }
        };
        self.index[at] = (hash, id);
        id
    }

    /// Doubles the index and re-files every key in use.
    fn grow(&mut self) {
        let mask = 2 * self.index.len() - 1;
        self.index = vec![(0, VACANT); mask + 1];
        for (id, &(_, hash, used)) in (0u32..).zip(&self.entries) {
            if used {
                let mut at = hash as usize & mask;
                while self.index[at].1 != VACANT {
                    at = (at + 1) & mask;
                }
                self.index[at] = (hash, id);
            }
        }
    }

    /// The key of `id`.
    pub(crate) fn key(&self, id: u32) -> &GroupKey {
        &self.entries[id as usize].0
    }

    /// Gives `id` back; a no-op if it is already free. One probe, by the
    /// stored hash: no key is hashed or compared.
    pub(crate) fn free(&mut self, id: u32) {
        let (_, hash, used) = &mut self.entries[id as usize];
        if !std::mem::take(used) {
            return;
        }
        let hash = *hash;
        self.free.push(id);
        let mask = self.index.len() - 1;
        let mut hole = hash as usize & mask;
        while self.index[hole].1 != id {
            hole = (hole + 1) & mask;
        }
        // Backward shift: a later slot of the probe run moves into the
        // hole unless its home lies cyclically after the hole.
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let (h, next) = self.index[at];
            if next == VACANT {
                break;
            }
            if at.wrapping_sub(h as usize) & mask >= at.wrapping_sub(hole) & mask {
                self.index[hole] = (h, next);
                hole = at;
            }
        }
        self.index[hole] = (0, VACANT);
    }

    /// Ids in use.
    pub(crate) fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// The id space: one past the largest id ever given out.
    #[cfg(test)]
    pub(crate) fn ids(&self) -> usize {
        self.entries.len()
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

    /// Interning, lookups and frees agree with a `HashMap` model over a
    /// pinned pseudo-random sequence that grows the index and frees keys
    /// inside long probe runs; freed ids are reused before the id space
    /// grows.
    #[test]
    fn the_key_table_agrees_with_a_map() {
        let mut table = KeyTable::new(KeyState::new());
        let mut model: HashMap<GroupKey, u32> = HashMap::new();
        let mut s = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let key = GroupKey(vec![AttrValue::Int((s % 600) as i64)]);
            if s >> 60 < 9 {
                let id = table.intern(&key);
                assert_eq!(*model.entry(key.clone()).or_insert(id), id);
                assert_eq!(table.key(id), &key);
            } else if let Some(id) = model.remove(&key) {
                table.free(id);
                table.free(id);
            }
            assert_eq!(table.get(&key), model.get(&key).copied());
            assert_eq!(table.len(), model.len());
        }
        for (key, &id) in &model {
            assert_eq!(table.get(key), Some(id));
        }
        assert!(table.ids() <= 600, "{} ids for 600 keys", table.ids());
    }
}
