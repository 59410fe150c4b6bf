//! Gaussian kernel density estimation.
//!
//! The paper validates ASN→SNO mappings by plotting the KDE of each
//! ASN's per-session p5 latency and checking the curve against the
//! latency regime its orbit should produce (Figure 2). This module
//! provides the estimator plus the helpers that validation needs: the
//! density on a grid, mode finding, and the probability mass inside a
//! latency band.
//!
//! Every density value is one kernel sum times the normalising
//! constant, and the sum is written once (`kernel_sum`): each term is
//! `term(x, h, s)`, `z = (x − s)/h` then `exp(−0.5·z²)`, added in sample
//! order. [`Kde::density`] sums the whole sample; [`Kde::density_grid`]
//! sums each grid point's *window*, the samples within `√1500`
//! bandwidths, outside which every term is exactly `+0.0`, so the two
//! agree bit for bit on every sample that holds no NaN.
//!
//! The mode finders read `density_grid`'s values and nothing else:
//! [`Kde::mode_on_grid`] takes the largest, and [`Kde::modes_on_grid`]
//! counts the interior points that rise above `min_height` × the peak,
//! are at least their left neighbour and exceed their right one.

use std::ops::Range;

/// A Gaussian KDE over a one-dimensional sample.
///
/// ```
/// use sno_stats::Kde;
/// // A bimodal latency sample: MEO cluster at 280 ms, GEO at 680 ms.
/// let sample: Vec<f64> = (0..200)
///     .map(|i| if i % 2 == 0 { 280.0 + (i % 20) as f64 } else { 680.0 + (i % 30) as f64 })
///     .collect();
/// let kde = Kde::fit(&sample).unwrap();
/// assert_eq!(kde.modes_on_grid(0.0, 1000.0, 400, 0.2), 2);
/// assert!(kde.mass_in(150.0, 450.0) > 0.4);
/// ```
#[derive(Debug, Clone)]
pub struct Kde {
    samples: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Fit with Silverman's rule-of-thumb bandwidth
    /// `0.9 · min(σ, IQR/1.34) · n^(−1/5)`.
    ///
    /// `σ`, the IQR and `n` are those of the finite samples, so a NaN or
    /// an infinity leaves the bandwidth as it is; it still counts in the
    /// total that normalises the density, as in [`Kde::mass_in`]'s.
    /// Returns `None` on empty input. Degenerate samples (zero spread)
    /// fall back to a small positive bandwidth so the density stays
    /// well-defined.
    pub fn fit(samples: &[f64]) -> Option<Kde> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        let finite = finite_run(&sorted);
        let n = finite.len() as f64;
        let spread = crate::quantile::std_dev(finite).map_or(0.0, |sigma| {
            let iqr = crate::quantile::quantile_of_sorted(finite, 0.75)
                - crate::quantile::quantile_of_sorted(finite, 0.25);
            if iqr > 0.0 {
                sigma.min(iqr / 1.34)
            } else {
                sigma
            }
        });
        let bandwidth = if spread > 0.0 {
            0.9 * spread * n.powf(-0.2)
        } else {
            // Degenerate sample: all points equal (or two equal points).
            // Scale the fallback with the sample magnitude so multi-
            // second regimes get a proportionate kernel; 1 ms stays the
            // floor for everything at or below millisecond scale, and
            // holds when no sample is finite (`max` drops the NaN mean).
            let mean = finite.iter().sum::<f64>() / n;
            f64::max(1.0, 1e-3 * mean.abs())
        };
        Some(Kde {
            samples: sorted,
            bandwidth,
        })
    }

    /// Fit with an explicit bandwidth (used by the bandwidth ablation).
    ///
    /// Returns `None` on empty input or a non-positive or NaN bandwidth.
    pub fn fit_with_bandwidth(samples: &[f64], bandwidth: f64) -> Option<Kde> {
        if samples.is_empty() || bandwidth.is_nan() || bandwidth <= 0.0 {
            return None;
        }
        Some(Kde {
            samples: sorted(samples),
            bandwidth,
        })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when there are no samples (cannot happen for a fitted KDE,
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// `1 / (n·h·√(2π))`: turns a kernel sum into a density.
    fn norm(&self) -> f64 {
        1.0 / (self.samples.len() as f64 * self.bandwidth * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Density estimate at `x`.
    pub fn density(&self, x: f64) -> f64 {
        kernel_sum(x, self.bandwidth, &self.samples) * self.norm()
    }

    /// Batched grid evaluation: the Gaussian sum over all `points`
    /// equally spaced grid points in one pass over the sorted sample.
    ///
    /// Kernel terms farther than `sqrt(1500)` bandwidths from a grid
    /// point satisfy `0.5·z² ≥ 746`, where `exp` underflows to exactly
    /// `+0.0` — and adding `+0.0` to the non-negative accumulator is a
    /// bitwise no-op. Skipping them (the window advances monotonically
    /// with `x`, so both ends move at most once per sample per sweep)
    /// gives sums bitwise-identical to the full per-point evaluation of
    /// [`Kde::density`], in far fewer `exp` calls. Infinite samples
    /// add `+0.0` to both. A NaN sample, of either sign, lies outside
    /// every window (the sweep starts past the sign-bit NaNs that sort
    /// first), so the grid holds the density of the other samples over
    /// the full count, where [`Kde::density`]'s sum turns NaN.
    ///
    /// # Panics
    /// Panics if `points < 2` or `lo >= hi`.
    pub fn density_grid(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        let step = grid_step(lo, hi, points);
        let (h, norm) = (self.bandwidth, self.norm());
        let samples = past_leading_nans(&self.samples);
        let mut window = Cursor::new(self.window_radius());
        (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                let range = window.advance(samples, x);
                (x, kernel_sum(x, h, &samples[range]) * norm)
            })
            .collect()
    }

    /// Conservative underflow radius of [`Kde::density_grid`]'s window:
    /// `|x − s| > w` ⇒ `0.5·((x−s)/h)²` clears 746 even after rounding,
    /// where `exp` is exactly `+0.0`.
    fn window_radius(&self) -> f64 {
        self.bandwidth * 1500.0_f64.sqrt()
    }

    /// The grid point with the highest density (the distribution's main
    /// mode, up to grid resolution), over [`Kde::density_grid`]'s
    /// values; the last of equal maxima. `None` unless that peak is
    /// positive, the rule [`Kde::modes_on_grid`] applies: a grid farther
    /// than the density window from every sample has no mode.
    ///
    /// # Panics
    /// Panics if `points < 2` or `lo >= hi`.
    pub fn mode_on_grid(&self, lo: f64, hi: f64, points: usize) -> Option<f64> {
        self.density_grid(lo, hi, points)
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|&(_, d)| d > 0.0)
            .map(|(x, _)| x)
    }

    /// Fraction of the *sample* falling inside `[lo, hi)`: the count of
    /// samples `s` with `lo <= s < hi`, over all samples.
    ///
    /// Band masses are empirical, not integrals of the smoothed
    /// density, so band edges stay crisp; the identification pipeline
    /// decides on the same counts, folded per ASN, without fitting a
    /// KDE. A NaN sample, of either sign, falls in no band but counts in
    /// the total. An empty band — `hi <= lo`, or a NaN bound — has mass
    /// `0.0`.
    pub fn mass_in(&self, lo: f64, hi: f64) -> f64 {
        // `partial_cmp` so a NaN bound (incomparable) also yields 0.0.
        if self.samples.is_empty() || lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
            return 0.0;
        }
        let ordered = past_leading_nans(&self.samples);
        let start = ordered.partition_point(|&s| s < lo);
        let end = ordered.partition_point(|&s| s < hi);
        (end - start) as f64 / self.samples.len() as f64
    }

    /// Count of local maxima in the gridded density that rise above
    /// `min_height` × the global maximum — used to detect bimodal
    /// (hybrid MEO+GEO) profiles.
    ///
    /// Over [`Kde::density_grid`]'s values `d`, grid point `i` (not the
    /// first or last) is a mode when `d[i] > peak × min_height`,
    /// `d[i] >= d[i − 1]` and `d[i] > d[i + 1]`, where `peak` is the
    /// largest value; no mode exists unless `peak` is positive.
    ///
    /// # Panics
    /// Panics if `points < 2` or `lo >= hi`.
    pub fn modes_on_grid(&self, lo: f64, hi: f64, points: usize, min_height: f64) -> usize {
        let grid = self.density_grid(lo, hi, points);
        let peak = grid.iter().map(|&(_, d)| d).fold(0.0_f64, f64::max);
        if peak <= 0.0 {
            return 0;
        }
        let threshold = peak * min_height;
        grid.windows(3)
            .filter(|w| {
                let d = w[1].1;
                d > threshold && d >= w[0].1 && d > w[2].1
            })
            .count()
    }
}

/// A copy of `samples` in `f64::total_cmp` order: sign-bit NaNs, −∞, the
/// finite samples, +∞, then positive NaNs.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A sorted sample past its leading sign-bit NaNs. Those sort first,
/// where `s < x` is false ahead of the samples it holds for, so no
/// search or window could move past them; positive NaNs sort last,
/// where it is false anyway.
fn past_leading_nans(sorted: &[f64]) -> &[f64] {
    let lead = sorted.partition_point(|s| s.is_nan() && s.is_sign_negative());
    &sorted[lead..]
}

/// The finite samples of a sorted sample, a contiguous run between the
/// negative and the positive non-finite ones.
fn finite_run(sorted: &[f64]) -> &[f64] {
    let start = sorted.partition_point(|s| !s.is_finite() && s.is_sign_negative());
    let len = sorted[start..].partition_point(|s| s.is_finite());
    &sorted[start..start + len]
}

/// The one kernel sum every density value comes from: [`term`] added
/// over `samples` in order.
fn kernel_sum(x: f64, h: f64, samples: &[f64]) -> f64 {
    samples.iter().map(|&s| term(x, h, s)).sum()
}

/// The kernel term of sample `s` at `x`: `exp(−0.5·z²)` for
/// `z = (x − s)/h`.
fn term(x: f64, h: f64, s: f64) -> f64 {
    let z = (x - s) / h;
    (-0.5 * z * z).exp()
}

/// The step between `points` equally spaced grid points on `[lo, hi]`.
///
/// # Panics
/// Panics if `points < 2` or `lo >= hi`.
fn grid_step(lo: f64, hi: f64, points: usize) -> f64 {
    assert!(points >= 2, "need at least two grid points");
    assert!(lo < hi, "empty grid range");
    (hi - lo) / (points - 1) as f64
}

/// A monotone two-pointer window over the sorted sample: the samples `s`
/// with `!(s < x − radius)` and `s <= x + radius`, for grid points `x`
/// visited in ascending order, so each end moves at most once per sample
/// per sweep.
struct Cursor {
    radius: f64,
    start: usize,
    end: usize,
}

impl Cursor {
    fn new(radius: f64) -> Cursor {
        Cursor {
            radius,
            start: 0,
            end: 0,
        }
    }

    /// Moves to `x` and returns its window.
    fn advance(&mut self, samples: &[f64], x: f64) -> Range<usize> {
        while self.start < samples.len() && samples[self.start] < x - self.radius {
            self.start += 1;
        }
        self.end = self.end.max(self.start);
        while self.end < samples.len() && samples[self.end] <= x + self.radius {
            self.end += 1;
        }
        self.start..self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_rejected() {
        assert!(Kde::fit(&[]).is_none());
        assert!(Kde::fit_with_bandwidth(&[], 1.0).is_none());
        assert!(Kde::fit_with_bandwidth(&[1.0], 0.0).is_none());
        // `NaN <= 0.0` is false, so a NaN bandwidth needs its own check.
        assert!(Kde::fit_with_bandwidth(&[10.0, 20.0, 30.0], f64::NAN).is_none());
        assert!(Kde::fit_with_bandwidth(&[10.0, 20.0, 30.0], -f64::NAN).is_none());
    }

    #[test]
    fn density_integrates_to_one() {
        let samples = [10.0, 12.0, 11.0, 9.5, 10.5, 30.0, 31.0, 29.0];
        let kde = Kde::fit(&samples).unwrap();
        // Trapezoidal integration over a generous range.
        let grid = kde.density_grid(-50.0, 100.0, 4_000);
        let mut integral = 0.0;
        for w in grid.windows(2) {
            let dx = w[1].0 - w[0].0;
            integral += 0.5 * (w[0].1 + w[1].1) * dx;
        }
        assert!((integral - 1.0).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn mode_near_cluster_centre() {
        // Peaked (normal) sample centred at Starlink's 56 ms median.
        let mut rng = sno_types::Rng::new(2023);
        let samples: Vec<f64> = (0..500).map(|_| rng.normal_with(56.0, 4.0)).collect();
        let kde = Kde::fit(&samples).unwrap();
        let mode = kde.mode_on_grid(0.0, 200.0, 800).unwrap();
        assert!((mode - 56.0).abs() < 2.0, "mode {mode}");
    }

    #[test]
    fn grid_beyond_every_window_has_no_mode() {
        // Samples near 1,000 ms: every point of a [0, 100] grid lies
        // more than √1500 bandwidths away, so the grid is all +0.0.
        let samples: Vec<f64> = (0..200).map(|i| 990.0 + (i % 21) as f64).collect();
        let kde = Kde::fit(&samples).unwrap();
        assert!(kde
            .density_grid(0.0, 100.0, 101)
            .iter()
            .all(|&(_, d)| d == 0.0));
        assert_eq!(kde.mode_on_grid(0.0, 100.0, 101), None);
        assert_eq!(kde.modes_on_grid(0.0, 100.0, 101, 0.2), 0);
    }

    #[test]
    fn bimodal_sample_has_two_modes() {
        // MEO-ish cluster at 220 ms, GEO-ish cluster at 700 ms.
        let mut samples = Vec::new();
        for i in 0..150 {
            samples.push(220.0 + (i % 21) as f64 - 10.0);
            samples.push(700.0 + (i % 31) as f64 - 15.0);
        }
        let kde = Kde::fit(&samples).unwrap();
        assert_eq!(kde.modes_on_grid(0.0, 1000.0, 500, 0.25), 2);
    }

    #[test]
    fn unimodal_sample_has_one_mode() {
        let samples: Vec<f64> = (0..300).map(|i| 700.0 + (i % 41) as f64).collect();
        let kde = Kde::fit(&samples).unwrap();
        assert_eq!(kde.modes_on_grid(0.0, 1000.0, 500, 0.25), 1);
    }

    #[test]
    fn mass_in_skips_nans_of_either_sign() {
        // Sign-bit NaNs sort first, ahead of the samples below 100 ms,
        // where a band search over the whole sample would miss those.
        let mut samples = vec![50.0; 30];
        samples.extend([600.0; 70]);
        samples.extend([-f64::NAN; 20]);
        samples.extend([f64::NAN; 20]);
        let kde = Kde::fit_with_bandwidth(&samples, 10.0).unwrap();
        assert_eq!(kde.mass_in(0.0, 100.0), 30.0 / 140.0);
        assert_eq!(kde.mass_in(450.0, 1200.0), 70.0 / 140.0);
        assert_eq!(kde.mass_in(f64::NEG_INFINITY, f64::INFINITY), 100.0 / 140.0);
    }

    #[test]
    fn mass_in_bands() {
        let samples = [10.0, 20.0, 30.0, 600.0, 610.0];
        let kde = Kde::fit(&samples).unwrap();
        assert!((kde.mass_in(0.0, 100.0) - 0.6).abs() < 1e-12);
        assert!((kde.mass_in(500.0, 700.0) - 0.4).abs() < 1e-12);
        assert_eq!(kde.mass_in(1000.0, 2000.0), 0.0);
        // A reversed or NaN band is empty: a sample between the reversed
        // bounds used to underflow `end - start`.
        let kde = Kde::fit(&[10.0, 20.0, 30.0, 60.0, 70.0]).unwrap();
        for (lo, hi) in [
            (100.0, 50.0),
            (f64::NAN, 50.0),
            (0.0, f64::NAN),
            (30.0, 30.0),
        ] {
            assert_eq!(kde.mass_in(lo, hi), 0.0, "[{lo}, {hi})");
        }
    }

    #[test]
    fn degenerate_sample_is_finite() {
        let kde = Kde::fit(&[5.0, 5.0, 5.0]).unwrap();
        assert!(kde.density(5.0).is_finite());
        assert!(kde.density(5.0) > kde.density(10.0));
    }

    #[test]
    fn degenerate_bandwidth_scales_with_magnitude() {
        // Sub-millisecond regime: the 1 ms floor holds.
        let sub_ms = Kde::fit(&[0.0005, 0.0005, 0.0005]).unwrap();
        assert_eq!(sub_ms.bandwidth(), 1.0);
        assert!(sub_ms.density(0.0005).is_finite());
        // Multi-second regime: the fallback is proportional (5 ms for a
        // 5 000 ms sample), not a fixed 1 ms spike.
        let multi_s = Kde::fit(&[5_000.0, 5_000.0, 5_000.0]).unwrap();
        assert_eq!(multi_s.bandwidth(), 5.0);
        assert!(multi_s.density(5_000.0).is_finite());
        assert!(multi_s.density(5_000.0) > multi_s.density(5_100.0));
        // Sign does not matter; the magnitude does.
        let negative = Kde::fit(&[-5_000.0, -5_000.0]).unwrap();
        assert_eq!(negative.bandwidth(), 5.0);
    }

    #[test]
    fn batched_grid_matches_pointwise_density_bitwise() {
        let mut rng = sno_types::Rng::new(41);
        let samples: Vec<f64> = (0..400)
            .map(|i| {
                if i % 2 == 0 {
                    rng.normal_with(56.0, 6.0)
                } else {
                    rng.normal_with(680.0, 45.0)
                }
            })
            .collect();
        let kde = Kde::fit(&samples).unwrap();
        // A wide grid so most points see only a small sample window.
        for (x, d) in kde.density_grid(-500.0, 2_000.0, 1_000) {
            assert_eq!(d.to_bits(), kde.density(x).to_bits(), "x {x}");
        }
    }

    #[test]
    fn tied_neighbours_count_once() {
        // Samples 4.25 and 4.75 sit symmetrically about the midpoint of
        // grid points 4 and 5, so both points add the same two kernel
        // terms in opposite orders: equal in exact arithmetic and bit for
        // bit. Point 4 is then no mode (`d4 > d5` fails) and point 5 is
        // (`d5 >= d4` holds).
        let kde = Kde::fit_with_bandwidth(&[4.25, 4.75], 0.05).unwrap();
        let values = kde.density_grid(0.0, 10.0, 11);
        assert_eq!(values[4].1.to_bits(), values[5].1.to_bits());
        assert_eq!(kde.modes_on_grid(0.0, 10.0, 11, 0.2), 1);
    }

    #[test]
    fn non_finite_samples_leave_the_fit_and_its_modes() {
        // 300 samples at 50-69 ms and 300 at 650-689 ms.
        let mut samples: Vec<f64> = (0..300).map(|i| 50.0 + (i % 20) as f64).collect();
        samples.extend((0..300).map(|i| 650.0 + (i % 40) as f64));
        let base = Kde::fit(&samples).unwrap();
        let mode = base.mode_on_grid(0.0, 1200.0, 400);
        assert!(mode.is_some());
        assert_eq!(base.modes_on_grid(0.0, 1200.0, 400, 0.2), 2);
        // A sign-bit NaN sorts first, ahead of every window, and any of
        // the four would make σ NaN if it were summed.
        for extra in [-f64::NAN, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut with = samples.clone();
            with.push(extra);
            let kde = Kde::fit(&with).unwrap();
            assert_eq!(
                kde.bandwidth().to_bits(),
                base.bandwidth().to_bits(),
                "{extra}"
            );
            assert_eq!(kde.modes_on_grid(0.0, 1200.0, 400, 0.2), 2, "{extra}");
            assert_eq!(kde.mode_on_grid(0.0, 1200.0, 400), mode, "{extra}");
        }
    }

    #[test]
    fn silverman_bandwidth_shrinks_with_n() {
        let small: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let large: Vec<f64> = (0..2000).map(|i| (i % 20) as f64).collect();
        let ks = Kde::fit(&small).unwrap();
        let kl = Kde::fit(&large).unwrap();
        assert!(kl.bandwidth() < ks.bandwidth());
    }
}
