//! Zipf-distributed partition keys.
//!
//! Real streams skew heavily toward hot keys (busy districts, popular
//! stocks); the paper's group-by partitioning and HAMLET's per-partition
//! graphs make key skew a first-order performance factor. This sampler
//! draws from a Zipf(s) distribution over `0..n` via a precomputed inverse
//! CDF — no extra crates needed.

use rand::rngs::StdRng;
use rand::Rng;

/// Zipf(s) sampler over `0..n` (rank 0 is the hottest key).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler. `s = 0` degenerates to uniform; typical skew is
    /// `s ≈ 1`.
    pub fn new(n: u64, s: f64) -> Zipf {
        assert!(n >= 1, "need at least one key");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a key.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let x = rng.gen::<f64>();
        self.cdf.partition_point(|&c| c < x) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn histogram(z: &Zipf, draws: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = vec![0u64; z.cdf.len()];
        for _ in 0..draws {
            h[z.sample(&mut rng) as usize] += 1;
        }
        h
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        let h = histogram(&z, 100_000, 1);
        for &count in &h {
            let frac = count as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.02, "uniform-ish: {h:?}");
        }
    }

    #[test]
    fn skewed_when_s_one() {
        let z = Zipf::new(100, 1.0);
        let h = histogram(&z, 100_000, 2);
        // Rank 0 dominates and ranks decay monotonically-ish.
        assert!(h[0] > h[10] && h[10] > h[60], "{:?}", &h[..12]);
        // Zipf(1) over 100 keys: hottest ≈ 1/H(100) ≈ 19 %.
        let frac0 = h[0] as f64 / 100_000.0;
        assert!((frac0 - 0.19).abs() < 0.04, "hot fraction {frac0}");
    }

    #[test]
    fn all_samples_in_range() {
        let z = Zipf::new(7, 1.5);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
        assert_eq!(z.cdf.len(), 7);
    }

    #[test]
    fn single_key_degenerate() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
    }
}
