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
//! agree bit for bit.
//!
//! [`Kde::modes_on_grid`] needs only the outcome of comparisons between
//! grid values, not the values. It sums each point's *core*, the samples
//! within 8 bandwidths, turns that sum into an interval that provably
//! contains the window sum (every term outside the core is below
//! `e^-32`), decides the comparisons on the intervals and sums a full
//! window only where they overlap. The core sums pay no `exp` per term:
//! a sample's terms on consecutive grid points are a Gaussian's values
//! at equal steps, so after the first one (`term`) each is the previous
//! times a ratio that itself shrinks by a constant factor, and the
//! interval widens by a bound on that recurrence's error. The count
//! equals the whole-grid count for every input; the density values
//! themselves stay bitwise.

use std::ops::Range;

/// Grid points more than this many bandwidths from a sample get a
/// kernel term of at most `exp(−0.5·8²) = e^-32 ≈ 1.27e-14`; the samples
/// within it are a grid point's *core* in [`Kde::modes_on_grid`].
const CORE_RADIUS: f64 = 8.0;

/// An upper bound on one kernel term outside the core: above `e^-32`
/// with room for the rounding of `z` and of `exp`. Assumes the platform
/// `exp(y)` is at most `1e-13` for `y <= −32`.
const TAIL_TERM_MAX: f64 = 1e-13;

/// `λ = 2^-40`: the assumed bound on `|ln(exp(y)) − y|` for the platform
/// `exp` on every argument whose result [`Kde::modes_on_grid`]'s bounds
/// use (`|y| <= 65`). glibc documents at most 1 ulp (`2^-52`), a factor
/// of 4,096 below it.
const EXP_LOG_ERROR: f64 = 1.0 / (1u64 << 40) as f64;

/// The largest recurrence error `η` the core sums' bounds are used at;
/// above it (or at a non-finite `η`) every comparison is made on exact
/// values.
const RECURRENCE_ERROR_MAX: f64 = 1e-3;

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
    /// Returns `None` on empty input. Degenerate samples (zero spread)
    /// fall back to a small positive bandwidth so the density stays
    /// well-defined.
    pub fn fit(samples: &[f64]) -> Option<Kde> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        let n = sorted.len() as f64;
        let sigma = crate::quantile::std_dev(&sorted).unwrap_or(0.0);
        let iqr = crate::quantile::quantile_of_sorted(&sorted, 0.75)
            - crate::quantile::quantile_of_sorted(&sorted, 0.25);
        let spread = if iqr > 0.0 {
            sigma.min(iqr / 1.34)
        } else {
            sigma
        };
        let bandwidth = if spread > 0.0 {
            0.9 * spread * n.powf(-0.2)
        } else {
            // Degenerate sample: all points equal (or two equal points).
            // Scale the fallback with the sample magnitude so multi-
            // second regimes get a proportionate kernel; 1 ms stays the
            // floor for everything at or below millisecond scale.
            let mean = sorted.iter().sum::<f64>() / n;
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

    /// Density evaluated on `points` equally spaced points spanning
    /// `[lo, hi]`.
    ///
    /// Delegates to the batched [`Kde::density_grid`], so a whole-grid
    /// evaluation costs one windowed sweep instead of `points` full
    /// kernel sums — with values bitwise-identical to calling
    /// [`Kde::density`] per point.
    ///
    /// # Panics
    /// Panics if `points < 2` or `lo >= hi`.
    pub fn grid(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        self.density_grid(lo, hi, points)
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
    /// [`Kde::density`], in far fewer `exp` calls. (The identity is over
    /// finite samples — the only kind the latency pipelines produce; a
    /// NaN sample poisons the full sum but sorts outside every window.)
    ///
    /// # Panics
    /// Panics if `points < 2` or `lo >= hi`.
    pub fn density_grid(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        let step = grid_step(lo, hi, points);
        let (h, norm) = (self.bandwidth, self.norm());
        let mut window = Cursor::new(self.window_radius());
        (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                let range = window.advance(&self.samples, x, 0..self.samples.len());
                (x, kernel_sum(x, h, &self.samples[range]) * norm)
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
    /// mode, up to grid resolution).
    pub fn mode_on_grid(&self, lo: f64, hi: f64, points: usize) -> f64 {
        self.grid(lo, hi, points)
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(lo, |(x, _)| x)
    }

    /// Fraction of the *sample* falling inside `[lo, hi)`: the count of
    /// samples `s` with `lo <= s < hi`, over all samples.
    ///
    /// Band masses are empirical, not integrals of the smoothed
    /// density, so band edges stay crisp; the identification pipeline
    /// decides on the same counts, folded per ASN, without fitting a
    /// KDE. A NaN sample, of either sign, falls in no band but counts in
    /// the total. An empty band — `hi <= lo`, or a NaN bound — has mass
    /// `0.0`, as in
    /// [`QuantileSketch::mass_in`](crate::QuantileSketch::mass_in).
    pub fn mass_in(&self, lo: f64, hi: f64) -> f64 {
        // `partial_cmp` so a NaN bound (incomparable) also yields 0.0.
        if self.samples.is_empty() || lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
            return 0.0;
        }
        // `total_cmp` order puts sign-bit NaNs first, where `s < x` is
        // false ahead of the samples it holds for; skip them so the
        // predicate partitions what is left. Positive NaNs sort last,
        // where it is false anyway.
        let lead = self
            .samples
            .partition_point(|s| s.is_nan() && s.is_sign_negative());
        let ordered = self.samples.get(lead..).unwrap_or_default();
        let start = ordered.partition_point(|&s| s < lo);
        let end = ordered.partition_point(|&s| s < hi);
        (end - start) as f64 / self.samples.len() as f64
    }

    /// Count of local maxima in the gridded density that rise above
    /// `min_height` × the global maximum — used to detect bimodal
    /// (hybrid MEO+GEO) profiles.
    ///
    /// Returns exactly what counting over [`Kde::density_grid`]'s values
    /// returns: grid point `i` (not the first or last) is a mode when
    /// `d[i] > peak × min_height`, `d[i] >= d[i − 1]` and
    /// `d[i] > d[i + 1]`, where `peak` is the largest value (and no mode
    /// exists unless it is positive). Only the kernel sums are cheaper:
    ///
    /// - One sweep gives each grid point `x` its window (the samples
    ///   `density_grid` sums) and its core (those within `r = 8h`), with
    ///   the same two-pointer conditions, so NaN samples fall outside
    ///   both exactly as they fall outside `density_grid`'s. Only the
    ///   core is summed.
    /// - A window sample outside the core has `s < fl(x − r)` or
    ///   `s > fl(x + r)`. Rounding to nearest then gives `|x − s| >= r`
    ///   exactly, so the computed `|z| >= fl(8h/h) = 8`, `0.5·z² >= 32`
    ///   and the term is at most `e^-32 ≈ 1.27e-14 < E = 1e-13`.
    /// - The core sums take no `exp` per term. Both core ends never
    ///   decrease with `x`, so a sample's *run*, the points whose core
    ///   holds it, is contiguous. The samples are visited in ascending
    ///   order and two pointers find each run, so every point still adds
    ///   its core terms in sample order. With `w = step/h` and `z` the
    ///   run's first `z`, the exact terms at `x + k·step` are
    ///   `e^(−z²/2)·Π_{j<k} q₀·c^j` for `q₀ = exp(−(w·z + w²/2))` and
    ///   `c = exp(−w²)`: the first term is `term`'s, each later one `t`
    ///   is the previous times `q`, and `q` is multiplied by `c` after
    ///   every step. That is at most two `exp` calls per sample.
    /// - `η` bounds `|ln τ − ln κ|` for a recurrence term `τ` and the
    ///   kernel term `κ = term(x, h, s)` at the same point, over runs of
    ///   at most `K` steps, the longest in the sweep. Its parts: the
    ///   rounding of `z` and of the exponent in the two kernel terms it
    ///   links (`2 · 4ε · 34`, with `|exponent| <= 34`); `K` copies of the
    ///   rounding of `q₀`'s argument (`4ε·(8.01·w + w²)`) and `K(K−1)/2`
    ///   of `c`'s (`4ε·w²`); `K` multiplication roundings in `t` and
    ///   `K(K−1)/2` in `q` (`ε` each); the grid's own rounding: `x_i` is
    ///   within `B/2` of `lo + i·step` for `B = ε(|lo| + 2|hi − lo|)`, so
    ///   the run's ideal spacing is off by up to `B` and the exponent by
    ///   at most `B(16h + 2B)/h²`; and `λ` (`2^-40`, the assumed log
    ///   error of the platform `exp`) for each of the `2 + K + K(K−1)/2`
    ///   calls a term depends on and the 2 that give `e^±η` below. Every
    ///   part but `λ`'s has a factor of at least 1.5 to spare, which
    ///   covers the rounding of `η`'s own arithmetic and of the two
    ///   products by `e^±η`, and `K·w <= 16.01` (both run ends lie within
    ///   `r` of the sample) bounds the `q₀` and `c` arguments by 33 and
    ///   65. A subnormal `w` or `z` errs by under `1e-300`, which `λ`
    ///   absorbs. With `K = 0` every term is `term`'s and `η = 0`.
    /// - `η < 1e-3` keeps these premises: its grid part then makes
    ///   `ε·|x|/h < 1e-4`, so a core sample lies within 8.0001 bandwidths
    ///   of `x` (`fl(x ± r)` errs by `ε|x|/2`), and every term and ratio
    ///   is a normal number. A core sum `C` of recurrence terms becomes
    ///   `[C·e^−η, C·e^η]`, which holds the exact core sum of kernel
    ///   terms up to the summation error below (`exp(±0)` is exactly 1,
    ///   so with `η = 0` it is `[C, C]`).
    /// - Summing `m` non-negative terms in order errs by at most
    ///   `γ_m = m·u/(1 − m·u)` of the exact sum (`u = ε/2`). With
    ///   `g = (m + 8)·ε` and `t` window terms outside the core, the
    ///   window sum `S` therefore lies in
    ///   `[C_lo·(1 − 2g), (C_hi + t·E)·(1 + 2g)]`: `2g` is more than
    ///   twice the `≈ 2γ_m` the two sums' rounding can reach, enough to
    ///   also cover the rounding of the bound arithmetic itself
    ///   (`1 ± 2g` are exact; a subnormal core bounds below by 0).
    /// - `density_grid` returns `fl(S·norm)`, and rounding is monotone,
    ///   so multiplying both bounds by `norm` bounds the grid value.
    /// - The peak, the threshold and each neighbour comparison are
    ///   decided on these intervals. A comparison they cannot decide
    ///   uses the exact window sum (the value `density_grid` computes,
    ///   by construction), memoized per point; an undecided threshold
    ///   uses the exact peak. Where the argument's premises fail (a
    ///   non-finite `x` or `step`, a bandwidth whose `8h` or `norm` is
    ///   not finite, or `η` not below `1e-3`) the points get unbounded
    ///   intervals, so every comparison there is exact. The worst case
    ///   costs the sweep plus one whole-grid evaluation.
    ///
    /// # Panics
    /// Panics if `points < 2` or `lo >= hi`.
    pub fn modes_on_grid(&self, lo: f64, hi: f64, points: usize, min_height: f64) -> usize {
        let mut grid = BoundedGrid::sweep(self, lo, hi, points);
        // Bounds on the peak, folded from 0.0 as over the whole grid.
        let (peak_lo, peak_hi) = grid.points.iter().fold((0.0_f64, 0.0_f64), |(lo, hi), p| {
            (lo.max(p.bounds.0), hi.max(p.bounds.1))
        });
        if peak_hi <= 0.0 {
            return 0;
        }
        let mut threshold = Threshold {
            bounds: scaled((peak_lo, peak_hi), min_height),
            peak_lo,
            min_height,
            exact: false,
        };
        // A peak bounded below only by 0 may be 0, and then no point is a
        // mode: that takes the exact peak.
        if peak_lo <= 0.0 && !threshold.resolve(&mut grid) {
            return 0;
        }
        let mut modes = 0;
        for i in 1..points - 1 {
            let d = grid.bounds(i);
            let above = gt(d, threshold.bounds);
            let rising = ge(d, grid.bounds(i - 1));
            let falling = gt(d, grid.bounds(i + 1));
            if [above, rising, falling].contains(&Some(false)) {
                continue;
            }
            let is_mode = above.unwrap_or_else(|| threshold.decide(&mut grid, i))
                && rising.unwrap_or_else(|| grid.decide(ge, i, i - 1))
                && falling.unwrap_or_else(|| grid.decide(gt, i, i + 1));
            modes += usize::from(is_mode);
        }
        modes
    }
}

/// A copy of `samples` in `f64::total_cmp` order, sorted as the `i64`
/// keys that `total_cmp` compares. Distinct bits make distinct keys, so
/// the result equals `sort_by(f64::total_cmp)`'s bit for bit.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut keys: Vec<i64> = samples
        .iter()
        .map(|s| total_order_key(s.to_bits() as i64))
        .collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| f64::from_bits(total_order_key(k) as u64))
        .collect()
}

/// `f64::total_cmp`'s key for the bits of an `f64`: every bit but the
/// sign flipped on negatives. The map is its own inverse.
fn total_order_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
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

    /// Moves to `x` and returns its window, searched within `within`
    /// (whose ends must not decrease between calls either).
    fn advance(&mut self, samples: &[f64], x: f64, within: Range<usize>) -> Range<usize> {
        self.start = self.start.max(within.start);
        while self.start < within.end && samples[self.start] < x - self.radius {
            self.start += 1;
        }
        self.end = self.end.max(self.start);
        while self.end < within.end && samples[self.end] <= x + self.radius {
            self.end += 1;
        }
        self.start..self.end
    }
}

/// One grid point of [`Kde::modes_on_grid`]'s sweep.
struct GridPoint {
    x: f64,
    /// The samples [`Kde::density_grid`] sums at `x`.
    window: Range<usize>,
    /// The samples within `8h` of `x`, whose terms the bounds sum.
    core: Range<usize>,
    /// Closed bounds on `density_grid`'s value at `x`; equal once `exact`.
    bounds: (f64, f64),
    exact: bool,
}

/// The grid of [`Kde::modes_on_grid`]: bounds from the core sums, exact
/// values computed on demand.
struct BoundedGrid<'a> {
    samples: &'a [f64],
    h: f64,
    norm: f64,
    points: Vec<GridPoint>,
}

impl<'a> BoundedGrid<'a> {
    /// One sweep: each grid point's window and core, the core sums from
    /// [`core_sums`], and each core sum turned into bounds on the
    /// window's density (see [`Kde::modes_on_grid`] for the argument).
    fn sweep(kde: &'a Kde, lo: f64, hi: f64, points: usize) -> BoundedGrid<'a> {
        let step = grid_step(lo, hi, points);
        let (samples, h, norm) = (&kde.samples[..], kde.bandwidth, kde.norm());
        let radius = CORE_RADIUS * h;
        let mut window = Cursor::new(kde.window_radius());
        let mut core = Cursor::new(radius);
        let mut points: Vec<GridPoint> = (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                let window = window.advance(samples, x, 0..samples.len());
                let core = core.advance(samples, x, window.clone());
                GridPoint {
                    x,
                    window,
                    core,
                    bounds: (f64::NEG_INFINITY, f64::INFINITY),
                    exact: false,
                }
            })
            .collect();
        // The premises of the bounds: finite terms in [0, 1], an exact
        // `r/h = 8`, a finite step, and a `norm` that maps sums
        // monotonically.
        if h > 0.0 && radius.is_finite() && step.is_finite() && norm.is_finite() && norm > 0.0 {
            let w = step / h;
            let (sums, longest) = core_sums(samples, &points, h, w);
            let eta = recurrence_error(longest, w, h, lo, hi);
            if eta < RECURRENCE_ERROR_MAX {
                // `e^∓η`: both exactly 1 when `η = 0`.
                let spread = ((-eta).exp(), eta.exp());
                for (p, sum) in points.iter_mut().zip(sums) {
                    if p.x.is_finite() {
                        let core = (sum * spread.0, sum * spread.1);
                        let tails = p.window.len() - p.core.len();
                        let (lo, hi) = window_sum_bounds(core, p.window.len(), tails);
                        p.bounds = (lo * norm, hi * norm);
                    }
                }
            }
        }
        BoundedGrid {
            samples,
            h,
            norm,
            points,
        }
    }

    fn bounds(&self, i: usize) -> (f64, f64) {
        self.points[i].bounds
    }

    /// The value `density_grid` computes at point `i`, as bounds that
    /// are equal (both NaN if the value is).
    fn exact(&mut self, i: usize) -> (f64, f64) {
        let p = &mut self.points[i];
        if !p.exact {
            let d = kernel_sum(p.x, self.h, &self.samples[p.window.clone()]) * self.norm;
            (p.bounds, p.exact) = ((d, d), true);
        }
        p.bounds
    }

    /// `cmp` between points `a` and `b` on exact values; false when one
    /// is NaN, as in IEEE comparisons.
    fn decide(&mut self, cmp: Compare, a: usize, b: usize) -> bool {
        let (a, b) = (self.exact(a), self.exact(b));
        cmp(a, b).unwrap_or(false)
    }

    /// The largest grid value, folded from `0.0` as over the whole grid.
    /// Points whose upper bound is below `peak_lo`, a lower bound on the
    /// peak, cannot hold it and stay unsummed.
    fn exact_peak(&mut self, peak_lo: f64) -> f64 {
        let mut peak = 0.0_f64;
        for i in 0..self.points.len() {
            if self.points[i].bounds.1 >= peak_lo {
                peak = peak.max(self.exact(i).0);
            }
        }
        peak
    }
}

/// The mode threshold `peak × min_height`, bounded until a comparison
/// needs it exact.
struct Threshold {
    bounds: (f64, f64),
    peak_lo: f64,
    min_height: f64,
    exact: bool,
}

impl Threshold {
    /// Makes the threshold exact, from the exact peak; false when the
    /// peak is not positive.
    fn resolve(&mut self, grid: &mut BoundedGrid) -> bool {
        let peak = grid.exact_peak(self.peak_lo);
        let t = peak * self.min_height;
        (self.bounds, self.exact) = ((t, t), true);
        peak > 0.0
    }

    /// `grid[i] > threshold` on the exact threshold (the peak is known to
    /// be positive by now), and on the exact value at `i` if its bounds
    /// still cannot tell.
    fn decide(&mut self, grid: &mut BoundedGrid, i: usize) -> bool {
        if !self.exact {
            self.resolve(grid);
        }
        match gt(grid.bounds(i), self.bounds) {
            Some(answer) => answer,
            None => gt(grid.exact(i), self.bounds).unwrap_or(false),
        }
    }
}

/// Each grid point's core sum, and the longest run in steps (see
/// [`Kde::modes_on_grid`]). Samples are visited in ascending order; the
/// points whose core holds a sample are `first..end`, and both move
/// forward only. A run's first term is [`term`]'s, and each later one
/// is the previous times `q`, with `q` multiplied by `c` after every
/// step.
fn core_sums(samples: &[f64], points: &[GridPoint], h: f64, w: f64) -> (Vec<f64>, usize) {
    let c = (-(w * w)).exp();
    let mut sums = vec![0.0; points.len()];
    let (mut first, mut end, mut longest) = (0, 0, 0);
    for (j, &s) in samples.iter().enumerate() {
        while end < points.len() && points[end].core.start <= j {
            end += 1;
        }
        while first < end && points[first].core.end <= j {
            first += 1;
        }
        if first == end {
            continue;
        }
        let x = points[first].x;
        let mut t = term(x, h, s);
        sums[first] += t;
        if end - first > 1 {
            let z = (x - s) / h;
            let mut q = (-(w * z + 0.5 * w * w)).exp();
            for sum in &mut sums[first + 1..end] {
                t *= q;
                *sum += t;
                q *= c;
            }
        }
        longest = longest.max(end - first - 1);
    }
    (sums, longest)
}

/// `η`: a bound on `|ln τ − ln κ|` between a recurrence term `τ` of
/// [`core_sums`] and the kernel term `κ` at the same point, for runs of
/// at most `k` steps of `w = step/h` over the grid `lo + i·step`, with
/// room for computing `e^±η` (see [`Kde::modes_on_grid`] for each part).
fn recurrence_error(k: usize, w: f64, h: f64, lo: f64, hi: f64) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let (eps, k) = (f64::EPSILON, k as f64);
    let pairs = k * (k - 1.0) / 2.0;
    let kernel_terms = 2.0 * 4.0 * eps * 34.0;
    let arguments = k * 4.0 * eps * (8.01 * w + w * w) + pairs * 4.0 * eps * w * w;
    let products = (k + pairs) * eps;
    // `B/h`, so that `B(16h + 2B)/h²` cannot overflow.
    let b = eps * (lo.abs() + 2.0 * (hi - lo).abs()) / h;
    let grid = b * (16.0 + 2.0 * b);
    let exp_calls = (4.0 + k + pairs) * EXP_LOG_ERROR;
    kernel_terms + arguments + products + grid + exp_calls
}

/// Bounds on the ordered sum of a window of `window_len` kernel terms,
/// from bounds `core` on the ordered sum of its core, when `tails` of
/// its terms lie outside the core (see [`Kde::modes_on_grid`]).
fn window_sum_bounds(core: (f64, f64), window_len: usize, tails: usize) -> (f64, f64) {
    let g = (window_len + 8) as f64 * f64::EPSILON;
    let lo = if core.0.is_normal() {
        core.0 * (1.0 - 2.0 * g)
    } else {
        0.0
    };
    let hi = (core.1 + tails as f64 * TAIL_TERM_MAX) * (1.0 + 2.0 * g);
    (lo, hi)
}

/// Bounds on `peak × factor` from bounds on a positive `peak`: the
/// product is monotone in `peak`, unless a NaN shows it is not (`∞ × 0`).
fn scaled(peak: (f64, f64), factor: f64) -> (f64, f64) {
    let (a, b) = (peak.0 * factor, peak.1 * factor);
    if a.is_nan() || b.is_nan() {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        (a.min(b), a.max(b))
    }
}

/// A comparison between two values known only by closed bounds: the
/// answer, or `None` when the bounds cannot tell.
type Compare = fn((f64, f64), (f64, f64)) -> Option<bool>;

/// `a > b`.
fn gt(a: (f64, f64), b: (f64, f64)) -> Option<bool> {
    if a.0 > b.1 {
        Some(true)
    } else if a.1 <= b.0 {
        Some(false)
    } else {
        None
    }
}

/// `a >= b`.
fn ge(a: (f64, f64), b: (f64, f64)) -> Option<bool> {
    if a.0 >= b.1 {
        Some(true)
    } else if a.1 < b.0 {
        Some(false)
    } else {
        None
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
    fn key_sort_matches_total_cmp_sort_bitwise() {
        let mut samples = vec![
            3.0,
            -0.0,
            0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -3.0,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            3.0,
        ];
        let mut rng = sno_types::Rng::new(7);
        samples.extend((0..500).map(|_| rng.normal_with(0.0, 1e3)));
        let mut expected = samples.clone();
        expected.sort_by(f64::total_cmp);
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sorted(&samples)), bits(&expected));
    }

    #[test]
    fn density_integrates_to_one() {
        let samples = [10.0, 12.0, 11.0, 9.5, 10.5, 30.0, 31.0, 29.0];
        let kde = Kde::fit(&samples).unwrap();
        // Trapezoidal integration over a generous range.
        let grid = kde.grid(-50.0, 100.0, 4_000);
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
        let mode = kde.mode_on_grid(0.0, 200.0, 800);
        assert!((mode - 56.0).abs() < 2.0, "mode {mode}");
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
        // A reversed or NaN band is empty, as it is for the sketch: a
        // sample between the reversed bounds used to underflow
        // `end - start`.
        let kde = Kde::fit(&[10.0, 20.0, 30.0, 60.0, 70.0]).unwrap();
        let mut sketch = crate::QuantileSketch::new();
        sketch.extend([10.0, 20.0, 30.0, 60.0, 70.0]);
        for (lo, hi) in [
            (100.0, 50.0),
            (f64::NAN, 50.0),
            (0.0, f64::NAN),
            (30.0, 30.0),
        ] {
            assert_eq!(kde.mass_in(lo, hi), 0.0, "[{lo}, {hi})");
            assert_eq!(sketch.mass_in(lo, hi), 0.0, "[{lo}, {hi})");
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
        assert_eq!(
            kde.grid(0.0, 1_200.0, 400),
            kde.density_grid(0.0, 1_200.0, 400)
        );
    }

    /// The whole-grid count `modes_on_grid` must reproduce: the mode rule
    /// over every [`Kde::density_grid`] value.
    fn whole_grid_modes(kde: &Kde, lo: f64, hi: f64, points: usize, min_height: f64) -> usize {
        let grid = kde.density_grid(lo, hi, points);
        let peak = grid.iter().map(|&(_, d)| d).fold(0.0_f64, f64::max);
        if peak <= 0.0 {
            return 0;
        }
        let threshold = peak * min_height;
        (1..grid.len() - 1)
            .filter(|&i| {
                let d = grid[i].1;
                d > threshold && d >= grid[i - 1].1 && d > grid[i + 1].1
            })
            .count()
    }

    #[test]
    fn tied_neighbours_are_decided_on_exact_values() {
        // Samples 4.25 and 4.75 sit symmetrically about the midpoint of
        // grid points 4 and 5, so both points add the same two kernel
        // terms in opposite orders: equal in exact arithmetic and bit for
        // bit. At h = 0.05 each point's core (8h = 0.4) holds only the
        // near sample and its window (√1500·h ≈ 1.94) the far one too, so
        // the two bounds overlap and only the exact sums can tell that
        // point 4 is not a mode (`d4 > d5` fails) and point 5 is.
        let kde = Kde::fit_with_bandwidth(&[4.25, 4.75], 0.05).unwrap();
        let (lo, hi, points) = (0.0, 10.0, 11);
        let values = kde.density_grid(lo, hi, points);
        assert_eq!(values[4].1.to_bits(), values[5].1.to_bits());
        let grid = BoundedGrid::sweep(&kde, lo, hi, points);
        assert!(!grid.points[4].exact && !grid.points[5].exact);
        assert_eq!(gt(grid.bounds(4), grid.bounds(5)), None);
        assert_eq!(ge(grid.bounds(5), grid.bounds(4)), None);
        for min_height in [0.0, 0.2, 0.5, 1.0] {
            assert_eq!(
                kde.modes_on_grid(lo, hi, points, min_height),
                whole_grid_modes(&kde, lo, hi, points, min_height),
                "min_height {min_height}"
            );
        }
        assert_eq!(kde.modes_on_grid(lo, hi, points, 0.2), 1);
    }

    #[test]
    fn sweep_intervals_hold_the_grid_values() {
        // Grids far from zero (so the grid's rounding counts), bandwidths
        // from step/256 (runs of at most one point) to 64 steps (runs
        // across the whole grid) and up to 3,000 samples.
        let mut rng = sno_types::Rng::new(14);
        let (mut bounded, mut longest_seen) = (0, 0);
        for case in 0..120 {
            let points = 2 + rng.below(399) as usize;
            let lo = rng.range_f64(-1e4, 1e4);
            let span = rng.range_f64(1.0, 1_200.0);
            let hi = lo + span;
            let step = grid_step(lo, hi, points);
            let h = step * 2f64.powf(rng.range_f64(-8.0, 6.0));
            let n = 1 + rng.below(3_000) as usize;
            let samples: Vec<f64> = (0..n)
                .map(|i| match i % 3 {
                    0 => rng.normal_with(lo + 0.05 * span, 0.02 * span),
                    1 => rng.normal_with(lo + 0.55 * span, 0.1 * span),
                    _ => rng.range_f64(lo - 0.1 * span, hi + 0.1 * span),
                })
                .collect();
            let kde = Kde::fit_with_bandwidth(&samples, h).unwrap();
            let grid = BoundedGrid::sweep(&kde, lo, hi, points);
            let (_, longest) = core_sums(&kde.samples, &grid.points, h, step / h);
            let eta = recurrence_error(longest, step / h, h, lo, hi);
            assert!(eta < 1e-6, "case {case}: η {eta}");
            longest_seen = longest_seen.max(longest);
            let values = kde.density_grid(lo, hi, points);
            for (i, (p, &(x, d))) in grid.points.iter().zip(&values).enumerate() {
                assert_eq!(p.x.to_bits(), x.to_bits());
                let (lo_b, hi_b) = p.bounds;
                assert!(
                    lo_b <= d && d <= hi_b,
                    "case {case} point {i}: {d} outside [{lo_b}, {hi_b}], η {eta}"
                );
                // Not vacuous: with a normal core sum and no tails the
                // width is `2η + 4g` of the value, up to second-order
                // terms and a few roundings.
                if lo_b > 0.0 && p.window == p.core {
                    let g = (p.window.len() + 8) as f64 * f64::EPSILON;
                    let width = (hi_b - lo_b) / lo_b;
                    assert!(
                        width <= 1.001 * (2.0 * eta + 4.0 * g) + 8.0 * f64::EPSILON,
                        "case {case} point {i}: relative width {width}, η {eta}, g {g}"
                    );
                    bounded += 1;
                }
            }
        }
        assert!(bounded > 1_000, "{bounded} points checked for width");
        assert!(longest_seen >= 300, "longest run {longest_seen} steps");
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
