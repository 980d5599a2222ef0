//! Order statistics of small timing samples.

use serde::Serialize;

/// Median, quartiles, extremes and size of one sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarizes a non-empty sample.
///
/// Quartiles follow Python's `statistics.quantiles(xs, n=4)` (the
/// exclusive method), so the spreads printed here are the ones the
/// acceptance check computes. A single value is its own quartiles.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summary of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len();
    let quantile = |i: usize| {
        if m == 1 {
            return s[0];
        }
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Summary {
        median: quantile(2),
        q1: quantile(1),
        q3: quantile(3),
        min: s[0],
        max: s[m - 1],
        n: m,
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

impl Summary {
    /// The best sample in the metric's direction (`"higher"` or
    /// `"lower"`): the fastest rep, the quickest set-up. This is a run's
    /// value for every end-to-end metric. Every rep does the same work,
    /// and on the reference host disturbance only ever subtracts speed,
    /// in episodes that hit some samples of a run and spare others: the
    /// best of many short samples is the one that ran undisturbed, and it
    /// repeats from run to run where the median does not (README, "Noise
    /// policy").
    pub fn best(&self, better: &str) -> f64 {
        if better == "higher" {
            self.max
        } else {
            self.min
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9], n=4) == [2.5, 5.0, 7.5]
        let s = summarize(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.min, s.max, s.n), (2.5, 5.0, 7.5, 1.0, 9.0, 9));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        //   == [3.5, 24.0, 160.0]
        let xs: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3), (3.5, 24.0, 160.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn single_value_is_its_own_summary() {
        let s = summarize(&[3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.min, s.max, s.n), (3.0, 3.0, 3.0, 3.0, 3.0, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
