//! Host-speed probe: a fixed amount of benchmark-owned work, timed.
//!
//! The benchmark's host is a small virtual machine whose CPUs are
//! hyperthreads shared with other tenants. While the neighbour on the
//! sibling hyperthread is busy, code that keeps several execution ports
//! busy — the engine's — runs 1.3–1.7 times slower, for milliseconds to
//! minutes at a time; a dependent chain of the same instructions does not
//! slow at all (README, "Noise"). No statistic over a run's own timings
//! survives a neighbour that is busy for most of the run. So the closed
//! loop's source runs this probe — four independent multiply-xorshift-add
//! chains, no memory — 32 times per repetition, on the one CPU the
//! benchmark is confined to, and each repetition's wall is divided by how
//! much slower than on a quiet host its probe passes ran.
//!
//! The probe is frozen: it is not part of the system under test, and a
//! change to it changes what `throughput_eps` means.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of one pass (four chains each).
const STEPS: u64 = 100_000;

/// Wall of one pass while the sibling hyperthread is idle, on the host the
/// benchmark was defined on, seconds: the 5th to 10th percentile of 21 000
/// passes over 64 runs (their median was 204 µs, their 90th percentile
/// 307 µs).
pub const QUIET_S: f64 = 180e-6;

/// A pass that took longer than this many quiet passes was preempted; it
/// counts as this many.
const CLAMP: f64 = 3.0;

/// One timed pass.
pub fn pass() -> Duration {
    let t = Instant::now();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..black_box(STEPS) {
        a = (a.wrapping_mul(6364136223846793005) ^ (a >> 13)).wrapping_add(i);
        b = (b.wrapping_mul(6364136223846793005) ^ (b >> 11)).wrapping_add(i);
        c = (c.wrapping_mul(6364136223846793005) ^ (c >> 7)).wrapping_add(i);
        d = (d.wrapping_mul(6364136223846793005) ^ (d >> 5)).wrapping_add(i);
    }
    black_box((a, b, c, d));
    t.elapsed()
}

/// How much slower than on a quiet host the passes ran: their mean (each
/// clamped to [`CLAMP`] quiet passes) ÷ [`QUIET_S`]; 1 when there are none.
/// The mean, not the median: a pass is either quiet or slowed, and the
/// share of slowed ones is what the work beside them felt.
pub fn slowdown(passes: &[Duration]) -> f64 {
    if passes.is_empty() {
        return 1.0;
    }
    let sum: f64 = passes
        .iter()
        .map(|p| (p.as_secs_f64() / QUIET_S).min(CLAMP))
        .sum();
    sum / passes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_pass_over_the_quiet_pass() {
        assert_eq!(slowdown(&[]), 1.0);
        let d = |f: f64| Duration::from_secs_f64(QUIET_S * f);
        let s = slowdown(&[d(1.0), d(1.0), d(1.5), d(1.5)]);
        assert!((s - 1.25).abs() < 1e-6, "{s}");
        // A preempted pass counts as three quiet ones, not as forty.
        let s = slowdown(&[d(1.0), d(40.0)]);
        assert!((s - 2.0).abs() < 1e-6, "{s}");
        assert!(pass() > Duration::ZERO);
    }
}
