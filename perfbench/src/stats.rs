//! Sample statistics over measured values.
//!
//! Quantiles are exact nearest-rank sample quantiles of the recorded
//! samples — not the log-linear bucket bounds a histogram reports.

/// Nearest-rank quantile of an ascending-sorted sample: the smallest
/// value with at least `q · n` samples at or below it (rank
/// `⌈q · n⌉`, clamped to `1..=n`). `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// A recorded sample with its order statistics.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sum of the recorded values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// Largest value, 0 when empty.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Nearest-rank quantile `q` (0 when empty: an idle layer).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        nearest_rank(&self.values, q).unwrap_or(0.0)
    }

    /// Median (nearest rank).
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile (nearest rank).
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.3), Some(3.0));
        assert_eq!(nearest_rank(&s, 0.31), Some(4.0));
        assert_eq!(nearest_rank(&s, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0), "rank clamps to 1");
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_samples_beyond() {
        let mut s = Samples::new();
        for v in (1..=1000).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.p99(), 990.0);
        assert_eq!(s.p50(), 500.0);
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn quantiles_are_sample_values_not_bucket_bounds() {
        // A log-linear histogram would report a bucket bound near 1.1;
        // the exact sample quantile is a recorded value.
        let mut s = Samples::new();
        for v in [1.07, 1.01, 1.03] {
            s.push(v);
        }
        assert_eq!(s.p50(), 1.03);
        s.push(0.5);
        assert_eq!(s.p50(), 1.01, "re-sorts after a push");
        assert_eq!(s.max(), 1.07);
    }

    #[test]
    fn empty_sample_reads_as_idle() {
        let mut s = Samples::new();
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.len(), 0);
    }
}
