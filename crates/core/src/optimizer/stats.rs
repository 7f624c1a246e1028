//! Runtime stream statistics for O(1) sharing decisions (§4.2).
//!
//! The paper's optimizer "simply plugs in locally available stream
//! statistics" — it does not re-scan the burst. This module maintains
//! exponential moving averages of each member query's *divergence rate*
//! per event type (the fraction of burst events whose predicate outcome
//! differs from the other sharing candidates, the Def. 9 snapshot
//! trigger). The executor can then predict `sc` for a new burst in O(k)
//! instead of O(k·b).
//!
//! The estimator only influences *decisions*, never results: whichever
//! sharing set is chosen, the run engine produces exact aggregates
//! (asserted in the integration tests).

use crate::bitset::QSet;

/// Per-(type, member) exponential moving average of divergence rates.
#[derive(Clone, Debug)]
pub struct DivergenceEstimator {
    alpha: f64,
    /// `rates[type][member]` ∈ [0, 1].
    rates: Vec<Vec<f64>>,
    /// Whether a type/member cell has ever been observed (cold cells
    /// predict optimistically: 0 divergence, favoring sharing — matching
    /// the paper's bias toward harvesting sharing opportunities).
    seen: Vec<Vec<bool>>,
}

impl DivergenceEstimator {
    /// Creates an estimator for `num_types` local types and `k` members.
    /// `alpha` is the EMA smoothing factor (weight of the newest burst).
    pub fn new(num_types: usize, k: usize, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha in [0,1]");
        DivergenceEstimator {
            alpha,
            rates: vec![vec![0.0; k]; num_types],
            seen: vec![vec![false; k]; num_types],
        }
    }

    /// Predicted number of diverging events for member `q` in a burst of
    /// `b` events of type `ty`.
    pub fn predict(&self, ty: usize, q: usize, b: u64) -> u64 {
        (self.rates[ty][q] * b as f64).round() as u64
    }

    /// Records the observed divergence of one burst.
    pub fn observe(&mut self, ty: usize, q: usize, diverged: u64, b: u64) {
        if b == 0 {
            return;
        }
        let rate = (diverged as f64 / b as f64).clamp(0.0, 1.0);
        let cell = &mut self.rates[ty][q];
        if self.seen[ty][q] {
            *cell = self.alpha * rate + (1.0 - self.alpha) * *cell;
        } else {
            *cell = rate;
            self.seen[ty][q] = true;
        }
    }

    /// Records an aggregate observation (event-level snapshots created
    /// per burst, attributed uniformly across `members`) — used when the
    /// exact per-member scan was skipped.
    pub fn observe_aggregate(&mut self, ty: usize, members: QSet, snapshots: u64, b: u64) {
        if members.is_empty() || b == 0 {
            return;
        }
        let per_member = snapshots / members.len() as u64;
        for q in members.iter() {
            self.observe(ty, q, per_member.min(b), b);
        }
    }

    /// Current rate estimate (for inspection/tests).
    pub fn rate(&self, ty: usize, q: usize) -> f64 {
        self.rates[ty][q]
    }

    /// Serializes the learned statistics (checkpoint codec). The
    /// estimator only steers sharing *decisions*, never result values,
    /// but restoring it keeps a resumed run's decision sequence — and so
    /// its performance counters — identical to an uninterrupted one.
    pub(crate) fn encode(&self, e: &mut crate::checkpoint::Enc) {
        e.f64(self.alpha);
        e.usize(self.rates.len());
        e.usize(self.rates.first().map_or(0, Vec::len));
        for row in &self.rates {
            for &r in row {
                e.f64(r);
            }
        }
        for row in &self.seen {
            for &s in row {
                e.bool(s);
            }
        }
    }

    /// Mirror of [`encode`](Self::encode). `expect_nt`/`expect_k` are
    /// the compiled runtime's dimensions: a blob whose embedded shape
    /// disagrees is corrupt, and must fail here rather than decode into
    /// a table the executor will later index out of bounds.
    pub(crate) fn decode(
        d: &mut crate::checkpoint::Dec<'_>,
        expect_nt: usize,
        expect_k: usize,
    ) -> Result<DivergenceEstimator, crate::checkpoint::CheckpointError> {
        let alpha = d.f64()?;
        if !(0.0..=1.0).contains(&alpha) {
            return Err(crate::checkpoint::CheckpointError::Corrupt(format!(
                "estimator alpha {alpha}"
            )));
        }
        let nt = d.seq_len()?;
        let k = d.usize()?;
        if nt != expect_nt || (nt > 0 && k != expect_k) {
            return Err(crate::checkpoint::CheckpointError::Corrupt(format!(
                "estimator shape {nt}×{k}, compiled runtime is {expect_nt}×{expect_k}"
            )));
        }
        let mut rates = Vec::with_capacity(nt);
        for _ in 0..nt {
            let mut row = Vec::with_capacity(k);
            for _ in 0..k {
                row.push(d.f64()?);
            }
            rates.push(row);
        }
        let mut seen = Vec::with_capacity(nt);
        for _ in 0..nt {
            let mut row = Vec::with_capacity(k);
            for _ in 0..k {
                row.push(d.bool()?);
            }
            seen.push(row);
        }
        Ok(DivergenceEstimator { alpha, rates, seen })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cells_predict_zero() {
        let e = DivergenceEstimator::new(2, 3, 0.5);
        assert_eq!(e.predict(0, 0, 100), 0);
        assert_eq!(e.rate(1, 2), 0.0);
    }

    #[test]
    fn first_observation_sets_rate() {
        let mut e = DivergenceEstimator::new(1, 1, 0.1);
        e.observe(0, 0, 30, 100);
        assert!((e.rate(0, 0) - 0.3).abs() < 1e-9);
        assert_eq!(e.predict(0, 0, 10), 3);
    }

    #[test]
    fn ema_converges_toward_new_rate() {
        let mut e = DivergenceEstimator::new(1, 1, 0.5);
        e.observe(0, 0, 0, 100);
        for _ in 0..10 {
            e.observe(0, 0, 100, 100);
        }
        assert!(e.rate(0, 0) > 0.99);
        // And back down.
        for _ in 0..10 {
            e.observe(0, 0, 0, 100);
        }
        assert!(e.rate(0, 0) < 0.01);
    }

    #[test]
    fn empty_burst_ignored() {
        let mut e = DivergenceEstimator::new(1, 1, 0.5);
        e.observe(0, 0, 0, 0);
        assert_eq!(e.rate(0, 0), 0.0);
        assert_eq!(e.predict(0, 0, 0), 0);
    }

    #[test]
    fn aggregate_attribution() {
        let mut e = DivergenceEstimator::new(1, 4, 1.0);
        e.observe_aggregate(0, [1, 3].into_iter().collect(), 20, 40);
        assert!((e.rate(0, 1) - 0.25).abs() < 1e-9);
        assert!((e.rate(0, 3) - 0.25).abs() < 1e-9);
        assert_eq!(e.rate(0, 0), 0.0);
        e.observe_aggregate(0, QSet::new(), 20, 40); // no-op
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        DivergenceEstimator::new(1, 1, 1.5);
    }
}
