//! Placement's prior: per-(type, member) divergence rates (§4.2).
//!
//! Every per-burst decision reads the exact Def. 9 counts off the
//! buffered burst (`GroupRuntime::divergence`, at `RunState::settle`).
//! A share group's a-priori placement (`optimizer::placement`, at build
//! and at every churn barrier) has no burst to read, so it prices a
//! nominal one from what this estimator learned: an exponential moving
//! average of each member query's *divergence rate* per event type (the
//! fraction of burst events whose predicate outcome differs from the
//! other sharing candidates), fed the exact counts of every settled
//! burst (`DivergenceEstimator::learn`).
//!
//! The estimator only influences *decisions*, never results: whichever
//! sharing set is chosen, the run engine produces exact aggregates
//! (asserted in the integration tests).

use crate::checkpoint::{decode_into, CheckpointError, Codec, Dec, Enc};
use crate::run::BurstCtx;

/// The smoothing factor of a fresh estimator (a restored one keeps the
/// factor it was cut with).
pub(crate) const ALPHA: f64 = 0.5;

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

    /// Records the observed divergence of one burst. A seen cell at rate 0
    /// that observes none stays as it is — the common case, a count
    /// burst, costs a compare.
    pub fn observe(&mut self, ty: usize, q: usize, diverged: u64, b: u64) {
        if b == 0 || diverged == 0 && self.seen[ty][q] && self.rates[ty][q] == 0.0 {
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

    /// [`predict`](Self::predict) for every candidate of `ctx`.
    pub(crate) fn predict_into(&self, tl: usize, b: u64, ctx: &mut BurstCtx) {
        for (d, q) in ctx.diverging.iter_mut().zip(ctx.candidates.iter()) {
            *d = self.predict(tl, q, b);
        }
    }

    /// Feeds a settled burst of `b` events of local type `tl` back: every
    /// candidate of `ctx` observes its exact `diverging` count.
    pub(crate) fn learn(&mut self, tl: usize, b: u64, ctx: &BurstCtx) {
        for (q, &d) in ctx.candidates.iter().zip(&ctx.diverging) {
            self.observe(tl, q, d, b);
        }
    }

    /// Serializes the learned statistics (checkpoint codec). The
    /// estimator only steers sharing *decisions*, never result values,
    /// but restoring it keeps a resumed run's decision sequence — and so
    /// its performance counters — identical to an uninterrupted one.
    pub(crate) fn encode(&self, e: &mut Enc) {
        let k = self.rates.first().map_or(0, Vec::len);
        (self.alpha, self.rates.len(), k).encode(e);
        self.rates.iter().flatten().for_each(|v| v.encode(e));
        self.seen.iter().flatten().for_each(|v| v.encode(e));
    }

    /// Mirror of [`encode`](Self::encode). `expect_nt`/`expect_k` are
    /// the compiled runtime's dimensions: a blob whose embedded shape
    /// disagrees is corrupt, and must fail here — before the tables are
    /// sized — rather than decode into a table the executor will later
    /// index out of bounds.
    pub(crate) fn decode(
        d: &mut Dec<'_>,
        expect_nt: usize,
        expect_k: usize,
    ) -> Result<DivergenceEstimator, CheckpointError> {
        let (alpha, nt, k): (f64, usize, usize) = Codec::decode(d)?;
        if !(0.0..=1.0).contains(&alpha) {
            return Err(CheckpointError::Corrupt(format!("estimator alpha {alpha}")));
        }
        if nt != expect_nt || (nt > 0 && k != expect_k) {
            return Err(CheckpointError::Corrupt(format!(
                "estimator shape {nt}×{k}, compiled runtime is {expect_nt}×{expect_k}"
            )));
        }
        let mut est = DivergenceEstimator::new(nt, expect_k, alpha);
        decode_into(d, est.rates.iter_mut().flatten())?;
        decode_into(d, est.seen.iter_mut().flatten())?;
        Ok(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cells_predict_zero() {
        let e = DivergenceEstimator::new(2, 3, 0.5);
        assert_eq!(e.predict(0, 0, 100), 0);
        assert_eq!(e.rates[1][2], 0.0);
    }

    #[test]
    fn first_observation_sets_rate() {
        let mut e = DivergenceEstimator::new(1, 1, 0.1);
        e.observe(0, 0, 30, 100);
        assert!((e.rates[0][0] - 0.3).abs() < 1e-9);
        assert_eq!(e.predict(0, 0, 10), 3);
    }

    #[test]
    fn ema_converges_toward_new_rate() {
        let mut e = DivergenceEstimator::new(1, 1, 0.5);
        e.observe(0, 0, 0, 100);
        for _ in 0..10 {
            e.observe(0, 0, 100, 100);
        }
        assert!(e.rates[0][0] > 0.99);
        // And back down.
        for _ in 0..10 {
            e.observe(0, 0, 0, 100);
        }
        assert!(e.rates[0][0] < 0.01);
    }

    #[test]
    fn empty_burst_ignored() {
        let mut e = DivergenceEstimator::new(1, 1, 0.5);
        e.observe(0, 0, 0, 0);
        assert_eq!(e.rates[0][0], 0.0);
        assert_eq!(e.predict(0, 0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        DivergenceEstimator::new(1, 1, 1.5);
    }
}
