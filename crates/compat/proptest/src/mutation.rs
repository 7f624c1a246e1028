//! Seeded byte mutation: the generator half of a decoder fuzz loop.
//!
//! An extension — real proptest has no such module. [`mutant`] is a
//! [`Strategy`] over `Vec<u8>` that damages a known-good input the ways
//! stored bytes get damaged (flipped bits, torn writes, spliced or lost
//! ranges) plus the one a length-prefixed format must survive by
//! construction: an 8-byte window overwritten with a plausible *length*,
//! from 0 to `u64::MAX`, so a decoder that sizes an allocation by a prefix
//! it has not validated against the bytes that remain is found out. Used
//! inside `proptest!`, the loop inherits pinned regression seeds and the
//! nightly case multiplier.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Lengths a corrupted prefix might claim, little-endian on the wire.
const LENGTHS: [u64; 8] = [
    0,
    1,
    0xFF,
    1 << 16,
    1 << 32,
    1 << 48,
    u64::MAX / 2,
    u64::MAX,
];

/// Strategy yielding `seed` with one to four mutations applied.
#[derive(Clone, Debug)]
pub struct Mutant {
    seed: Vec<u8>,
}

/// Mutants of one known-good input (see the module docs).
pub fn mutant(seed: &[u8]) -> Mutant {
    Mutant {
        seed: seed.to_vec(),
    }
}

impl Strategy for Mutant {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let mut bytes = self.seed.clone();
        let mut below = |n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
        for _ in 0..1 + below(4) {
            if bytes.is_empty() {
                break;
            }
            let at = below(bytes.len());
            let span = 1 + below(16.min(bytes.len() - at));
            match below(7) {
                0 => bytes[at] ^= 1 << below(8),
                1 => bytes[at] = below(256) as u8,
                2 => bytes.truncate(at),
                3 => {
                    let claimed = LENGTHS[below(LENGTHS.len())].to_le_bytes();
                    for (b, v) in bytes[at..].iter_mut().zip(claimed) {
                        *b = v;
                    }
                }
                4 => drop(bytes.drain(at..at + span)),
                5 => {
                    let copy = bytes[at..at + span].to_vec();
                    let to = below(bytes.len());
                    bytes.splice(to..to, copy);
                }
                _ => bytes[at..at + span].fill(0),
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutants_are_reproducible_and_differ_from_the_seed() {
        let seed: Vec<u8> = (0..200u8).collect();
        let strat = mutant(&seed);
        let run = |s: u64| strat.generate(&mut TestRng::from_seed(s));
        assert_eq!(run(7), run(7), "a case is a function of its 64-bit seed");
        let changed = (0..64).filter(|&s| run(s) != seed).count();
        assert!(
            changed >= 60,
            "only {changed}/64 mutants differ from the seed"
        );
        assert!((0..64).any(|s| run(s).len() < seed.len()));
        assert!((0..64).any(|s| run(s).len() > seed.len()));
    }

    #[test]
    fn an_empty_seed_stays_empty() {
        assert!(mutant(&[]).generate(&mut TestRng::from_seed(1)).is_empty());
    }
}
