//! Five-number summaries (boxplot statistics).

use crate::quantile::quantile_of_sorted;

/// The statistics a boxplot displays: min / q1 / median / q3 / max, plus
/// the count and the Tukey whisker positions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    pub count: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl FiveNumber {
    /// Summarise `data` (unsorted). `None` on empty input.
    pub fn of(data: &[f64]) -> Option<FiveNumber> {
        if data.is_empty() {
            return None;
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        FiveNumber::from_sorted(&sorted)
    }

    /// Summarise already-sorted `data` without re-sorting — for callers
    /// that sort once and derive several statistics from the same
    /// samples. `None` on empty input.
    pub fn from_sorted(sorted: &[f64]) -> Option<FiveNumber> {
        if sorted.is_empty() {
            return None;
        }
        debug_assert!(
            sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "input must be sorted"
        );
        Some(FiveNumber {
            count: sorted.len(),
            min: sorted[0],
            q1: quantile_of_sorted(sorted, 0.25),
            median: quantile_of_sorted(sorted, 0.5),
            q3: quantile_of_sorted(sorted, 0.75),
            max: sorted[sorted.len() - 1],
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Tukey whiskers: the data range clipped to `1.5 × IQR` beyond the
    /// quartiles.
    pub fn whiskers(&self) -> (f64, f64) {
        let lo = (self.q1 - 1.5 * self.iqr()).max(self.min);
        let hi = (self.q3 + 1.5 * self.iqr()).min(self.max);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_empty_is_none() {
        assert!(FiveNumber::of(&[]).is_none());
    }

    #[test]
    fn known_summary() {
        let data = [7.0, 1.0, 3.0, 5.0, 9.0];
        let s = FiveNumber::of(&data).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.q3, 7.0);
        assert_eq!(s.iqr(), 4.0);
    }

    #[test]
    fn ordering_invariant() {
        let data = [4.2, 1.1, 8.8, 3.3, 2.2, 9.9, 5.5];
        let s = FiveNumber::of(&data).unwrap();
        assert!(s.min <= s.q1 && s.q1 <= s.median);
        assert!(s.median <= s.q3 && s.q3 <= s.max);
        let (lo, hi) = s.whiskers();
        assert!(lo >= s.min && hi <= s.max);
        assert!(lo <= s.q1 && hi >= s.q3);
    }

    #[test]
    fn whiskers_clip_to_data() {
        // Tight cluster plus an outlier: upper whisker must not pass max.
        let data = [10.0, 10.1, 10.2, 10.3, 50.0];
        let s = FiveNumber::of(&data).unwrap();
        let (lo, hi) = s.whiskers();
        assert!(lo >= 10.0);
        assert!(hi < 50.0, "outlier should sit beyond the whisker: {hi}");
    }
}
