//! Measurement utilities for the evaluation metrics of §6.1: latency and
//! peak memory.

use std::time::Duration;

/// `total / count` in `u128` nanoseconds (zero when `count` is zero): a
/// `Duration` divides only by a `u32`, and a long run records more than
/// 2³² samples.
fn mean(total: Duration, count: u64) -> Duration {
    let Some(ns) = total.as_nanos().checked_div(u128::from(count)) else {
        return Duration::ZERO;
    };
    // A mean is at most `total`, so the seconds fit a `u64`.
    Duration::new((ns / 1_000_000_000) as u64, (ns % 1_000_000_000) as u32)
}

/// Records per-result latencies: the difference between result output time
/// and the arrival time of the last event that contributed to the result
/// (§2.2 / §6.1).
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    total: Duration,
    max: Duration,
    count: u64,
}

impl LatencyRecorder {
    /// New empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        self.total += d;
        self.max = self.max.max(d);
        self.count += 1;
    }

    /// Average latency (zero when no samples).
    pub fn avg(&self) -> Duration {
        mean(self.total, self.count)
    }

    /// Maximum latency observed.
    pub fn max(&self) -> Duration {
        self.max
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merges another recorder.
    pub fn merge(&mut self, o: &LatencyRecorder) {
        self.total += o.total;
        self.max = self.max.max(o.max);
        self.count += o.count;
    }

    /// Serializes the recorder (checkpoint codec).
    pub(crate) fn encode(&self, e: &mut crate::checkpoint::Enc) {
        e.duration(self.total);
        e.duration(self.max);
        e.u64(self.count);
    }

    /// Mirror of [`encode`](Self::encode).
    pub(crate) fn decode(
        d: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<LatencyRecorder, crate::checkpoint::CheckpointError> {
        Ok(LatencyRecorder {
            total: d.duration()?,
            max: d.duration()?,
            count: d.u64()?,
        })
    }
}

/// Number of log-linear buckets in a [`LatencyHistogram`]: 64 octaves of
/// nanoseconds × 4 sub-buckets per octave.
const HIST_BUCKETS: usize = 64 * SUBS as usize;
/// Sub-buckets per power-of-two octave (25% relative resolution).
const SUBS: u32 = 4;

/// Fixed-size log-linear latency histogram for tail quantiles (p50/p99)
/// under sustained load — the latency metric the online pipeline reports
/// in its live metrics snapshots, where a plain average
/// ([`LatencyRecorder`]) hides queueing spikes.
///
/// Buckets are powers of two of nanoseconds split into 4 linear
/// sub-buckets each, so any reported quantile is within ~25% of the true
/// value — tight enough to gate "p99 doubled" regressions, small enough
/// (2 KiB) to clone into every snapshot.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    total: Duration,
    max: Duration,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            total: Duration::ZERO,
            max: Duration::ZERO,
        }
    }
}

impl LatencyHistogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a nanosecond value.
    fn index(ns: u64) -> usize {
        // Values below 2^SUBS ns index linearly; above, the top SUBS+1
        // bits select (octave, sub-bucket).
        if ns < (1 << SUBS) {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        // The SUBS.ilog2() bits right below the leading one pick the
        // linear sub-bucket within the octave.
        let sub = ((ns >> (msb - SUBS.ilog2())) as usize) & (SUBS as usize - 1);
        let idx = (msb - 1) as usize * SUBS as usize + sub + SUBS as usize;
        idx.min(HIST_BUCKETS - 1)
    }

    /// Representative (geometric low edge) value of a bucket, in ns.
    fn value(idx: usize) -> u64 {
        if idx < (1 << SUBS) {
            return idx as u64;
        }
        let rel = idx - SUBS as usize;
        let msb = (rel / SUBS as usize + 1) as u32;
        let sub = (rel % SUBS as usize) as u64;
        (1u64 << msb) + (sub << (msb - SUBS.ilog2()))
    }

    /// Records one latency sample. Samples beyond the top octave clamp
    /// into the last bucket, and the running total saturates instead of
    /// overflowing, so even `Duration::MAX` outliers cannot panic the
    /// hot path.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(d);
        self.max = self.max.max(d);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (zero when empty).
    pub fn avg(&self) -> Duration {
        mean(self.total, self.count)
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> Duration {
        self.max
    }

    /// Quantile `q` in `[0, 1]`: the smallest bucket value below which at
    /// least `q · count` samples fall (zero when empty, within ~25% of
    /// the true sample by construction).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if target >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Duration::from_nanos(Self::value(i)).min(self.max);
            }
        }
        self.max
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 99th-percentile latency — the pipeline's gated tail metric.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(low edge in ns, sample count)` pairs,
    /// ascending — the sparse form metrics exporters ship so consumers
    /// can reconstruct any quantile, not just the pre-picked p50/p99.
    pub fn sparse_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::value(i), n))
            .collect()
    }

    /// Merges another histogram (bucket-wise).
    pub fn merge(&mut self, o: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(o.buckets.iter()) {
            *a += b;
        }
        self.count += o.count;
        self.total = self.total.saturating_add(o.total);
        self.max = self.max.max(o.max);
    }
}

/// Tracks the peak of a byte-accounted state size (§6.1: snapshot
/// expressions, stored events, per-query aggregates, and the executor's
/// watermark expiration index — not RSS, for determinism).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryGauge {
    peak: usize,
    last: usize,
}

impl MemoryGauge {
    /// New gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds a current state size sample.
    pub fn sample(&mut self, bytes: usize) {
        self.last = bytes;
        if bytes > self.peak {
            self.peak = bytes;
        }
    }

    /// Peak bytes observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Serializes the gauge (checkpoint codec).
    pub(crate) fn encode(&self, e: &mut crate::checkpoint::Enc) {
        e.usize(self.peak);
        e.usize(self.last);
    }

    /// Mirror of [`encode`](Self::encode).
    pub(crate) fn decode(
        d: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<MemoryGauge, crate::checkpoint::CheckpointError> {
        Ok(MemoryGauge {
            peak: d.usize()?,
            last: d.usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_recorder_stats() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.avg(), Duration::ZERO);
        r.record(Duration::from_millis(10));
        r.record(Duration::from_millis(30));
        assert_eq!(r.avg(), Duration::from_millis(20));
        assert_eq!(r.max(), Duration::from_millis(30));
        assert_eq!(r.count(), 2);
        let mut r2 = LatencyRecorder::new();
        r2.record(Duration::from_millis(50));
        r.merge(&r2);
        assert_eq!(r.count(), 3);
        assert_eq!(r.max(), Duration::from_millis(50));
    }

    /// Past 2³² samples the mean still divides by the whole count: a
    /// recorder of 1 ms samples doubled through `merge` 33 times (2³³
    /// samples — a count whose low 32 bits are zero) averages 1 ms.
    #[test]
    fn mean_divides_by_the_whole_count_past_u32() {
        let (mut r, mut h) = (LatencyRecorder::new(), LatencyHistogram::new());
        r.record(Duration::from_millis(1));
        h.record(Duration::from_millis(1));
        for _ in 0..33 {
            r.merge(&r.clone());
            h.merge(&h.clone());
        }
        assert_eq!(r.count(), 1 << 33);
        assert_eq!(r.avg(), Duration::from_millis(1));
        assert_eq!(h.count(), 1 << 33);
        assert_eq!(h.avg(), Duration::from_millis(1));
    }

    #[test]
    fn histogram_quantiles_track_samples() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
        // 99 samples at 1ms, one spike at 100ms: p50 ~ 1ms, p99 picks up
        // the body's edge, max is exact.
        for _ in 0..99 {
            h.record(Duration::from_millis(1));
        }
        h.record(Duration::from_millis(100));
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), Duration::from_millis(100));
        let p50 = h.p50();
        assert!(
            p50 >= Duration::from_micros(750) && p50 <= Duration::from_micros(1250),
            "p50 within 25% of 1ms: {p50:?}"
        );
        // p99 still falls in the 1ms body (99 of 100 samples).
        assert!(h.p99() < Duration::from_millis(2), "p99 {:?}", h.p99());
        // p100 reaches the spike.
        assert_eq!(h.quantile(1.0), Duration::from_millis(100));
        assert!(h.avg() > Duration::from_millis(1));
    }

    #[test]
    fn histogram_bucket_roundtrip_is_within_resolution() {
        // Every recorded duration must land in a bucket whose
        // representative value is within 25% below the sample.
        for ns in [0u64, 1, 7, 15, 16, 17, 100, 999, 12_345, u32::MAX as u64] {
            let idx = LatencyHistogram::index(ns);
            let v = LatencyHistogram::value(idx);
            assert!(v <= ns, "bucket edge {v} above sample {ns}");
            assert!(
                ns == 0 || (v as f64) >= ns as f64 * 0.75,
                "bucket edge {v} more than 25% below {ns}"
            );
        }
        // Indices are monotone in the sample value.
        let mut last = 0;
        for ns in 0..100_000u64 {
            let idx = LatencyHistogram::index(ns);
            assert!(idx >= last, "index not monotone at {ns}");
            last = idx;
        }
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(500));
        b.record(Duration::from_micros(20));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Duration::from_micros(500));
        assert!(a.quantile(1.0) >= Duration::from_micros(375));
    }

    /// Zero samples: every quantile and summary statistic must be an
    /// exact zero, never a division by zero or a bucket-edge artifact.
    #[test]
    fn histogram_empty_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.avg(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Duration::ZERO, "q={q}");
        }
    }

    /// A single sample: every quantile is that sample (max short-circuit),
    /// and the mean is exact.
    #[test]
    fn histogram_single_sample_quantiles() {
        let mut h = LatencyHistogram::new();
        let d = Duration::from_micros(123);
        h.record(d);
        assert_eq!(h.count(), 1);
        assert_eq!(h.avg(), d);
        assert_eq!(h.max(), d);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), d, "q={q}");
        }
    }

    /// Samples beyond the top octave (and beyond u64 nanoseconds
    /// entirely) must clamp into the last bucket, not wrap or panic, and
    /// the exact max must still be reported.
    #[test]
    fn histogram_clamps_beyond_top_octave() {
        let mut h = LatencyHistogram::new();
        // Duration::MAX has ~2^94 ns; record() saturates it to u64::MAX.
        h.record(Duration::MAX);
        h.record(Duration::from_nanos(u64::MAX));
        h.record(Duration::from_millis(1));
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Duration::MAX);
        // Both huge samples land in the final bucket.
        assert_eq!(LatencyHistogram::index(u64::MAX), HIST_BUCKETS - 1);
        // The top quantile reports the exact max, and everything stays
        // capped by it (quantile() clamps bucket edges to the max).
        assert_eq!(h.quantile(1.0), Duration::MAX);
        assert!(h.quantile(0.9) <= h.max());
        // Out-of-range q values clamp instead of indexing out of bounds.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    /// Quantiles are monotone in q for an arbitrary spread of samples —
    /// the property every gate comparing p50 against p99 relies on.
    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        // Deterministic pseudo-random spread over 6 orders of magnitude.
        let mut s = 0x9E37_79B9u64;
        for _ in 0..500 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            h.record(Duration::from_nanos(s % 1_000_000_000));
        }
        let mut last = Duration::ZERO;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q);
            assert!(v >= last, "quantile({q}) = {v:?} < {last:?}");
            last = v;
        }
        assert_eq!(h.quantile(1.0), h.max());
        assert!(h.p50() <= h.p99());
    }

    #[test]
    fn memory_gauge_peaks() {
        let mut g = MemoryGauge::new();
        g.sample(10);
        g.sample(100);
        g.sample(20);
        assert_eq!(g.peak(), 100);
    }
}
