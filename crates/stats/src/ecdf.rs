//! Empirical cumulative distribution functions.

/// An empirical CDF over a one-dimensional sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a (possibly unsorted) sample. `None` on empty input.
    pub fn new(samples: &[f64]) -> Option<Ecdf> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ecdf::from_sorted(sorted)
    }

    /// Build from an already-sorted sample without re-sorting — for
    /// callers that sort once and derive several statistics from the
    /// same samples. `None` on empty input.
    pub fn from_sorted(sorted: Vec<f64>) -> Option<Ecdf> {
        if sorted.is_empty() {
            return None;
        }
        debug_assert!(
            sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "input must be sorted"
        );
        Some(Ecdf { sorted })
    }

    /// `P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        let k = self.sorted.partition_point(|&s| s <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// `P(X >= x)` (complementary CDF with closed lower bound).
    pub fn tail_at_least(&self, x: f64) -> f64 {
        let k = self.sorted.partition_point(|&s| s < x);
        (self.sorted.len() - k) as f64 / self.sorted.len() as f64
    }

    /// The smallest sample value `v` with `eval(v) >= q` (inverse CDF).
    ///
    /// # Panics
    /// Panics if `q` is outside `(0, 1]`.
    pub fn inverse(&self, q: f64) -> f64 {
        assert!(
            q > 0.0 && q <= 1.0,
            "inverse CDF fraction out of range: {q}"
        );
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Median of the sample.
    pub fn median(&self) -> f64 {
        crate::quantile::quantile_of_sorted(&self.sorted, 0.5)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction requires a non-empty sample); provided
    /// for API completeness.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `(x, F(x))` pairs for each distinct sample value — the staircase a
    /// CDF plot draws.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = f,
                _ => out.push((x, f)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rejected() {
        assert!(Ecdf::new(&[]).is_none());
    }

    #[test]
    fn eval_basic() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn tail_at_least_counts_closed_bound() {
        // "over 80% of the GEO trace exhibited a jitter of 100ms or more"
        let e = Ecdf::new(&[50.0, 100.0, 150.0, 200.0, 300.0]).unwrap();
        assert!((e.tail_at_least(100.0) - 0.8).abs() < 1e-12);
        assert!((e.tail_at_least(301.0) - 0.0).abs() < 1e-12);
        assert!((e.tail_at_least(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_is_right_continuous() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(e.inverse(0.25), 10.0);
        assert_eq!(e.inverse(0.26), 20.0);
        assert_eq!(e.inverse(1.0), 40.0);
    }

    #[test]
    fn median_matches_quantile() {
        let e = Ecdf::new(&[5.0, 1.0, 9.0]).unwrap();
        assert_eq!(e.median(), 5.0);
    }

    #[test]
    fn steps_deduplicate_ties() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]).unwrap();
        let steps = e.steps();
        assert_eq!(steps.len(), 2);
        assert!((steps[0].1 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(steps[1], (2.0, 1.0));
    }

    #[test]
    fn eval_monotone() {
        let e = Ecdf::new(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        let mut prev = -1.0;
        for i in 0..60 {
            let f = e.eval(i as f64 / 10.0);
            assert!(f >= prev);
            prev = f;
        }
    }
}
