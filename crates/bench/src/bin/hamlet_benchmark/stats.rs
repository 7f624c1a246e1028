//! Order statistics over small samples: percentiles, the highest
//! percentile a sample supports, and run-to-run spread.

/// Sorts ascending with a total order (NaN last; the benchmark never
/// produces one, but a sort must not panic on it).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of values in any order.
pub fn median_of(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    median(&values)
}

/// The percentiles the benchmark is willing to name, ascending.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it — anything higher is a statement about fewer
/// than ten observations. `None` below 20 samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    // In basis points, so that 100 samples × 10 % is exactly ten.
    let beyond = |p: f64| n as u128 * (10_000 - (p * 100.0).round() as u128) / 10_000;
    LADDER.iter().copied().rfind(|p| beyond(*p) >= 10)
}

/// Min, median and max of a sample, and `(max − min) ÷ median` as its
/// spread (0 when the median is 0).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Smallest value.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Largest value.
    pub max: f64,
    /// `(max − min) ÷ median`.
    pub spread: f64,
}

/// Summarises `values` (any order).
pub fn spread(values: &[f64]) -> Spread {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let median = median_of(values.to_vec());
    let spread = if median != 0.0 {
        (max - min) / median.abs()
    } else {
        0.0
    };
    Spread {
        min,
        median,
        max,
        spread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(1_000_000), Some(99.99));
    }

    #[test]
    fn spread_is_range_over_median() {
        let s = spread(&[110.0, 100.0, 90.0]);
        assert_eq!((s.min, s.median, s.max), (90.0, 100.0, 110.0));
        assert!((s.spread - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]).spread, 0.0);
    }
}
