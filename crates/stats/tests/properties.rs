//! Deeper property-based tests for the statistics toolkit.

use sno_check::prelude::*;
use sno_stats::{
    detect_mean_shifts, quantile, quantile_of_sorted, Ecdf, FiveNumber, Histogram, Kde,
    QuantileSketch,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Quantiles are permutation-invariant.
    #[test]
    fn quantile_permutation_invariant(
        data in prop::collection::vec(-1e5..1e5f64, 2..80),
        q in 0.0..=1.0f64,
        seed in any::<u64>(),
    ) {
        let original = quantile(&data, q).unwrap();
        let mut shuffled = data.clone();
        sno_types::Rng::new(seed).shuffle(&mut shuffled);
        let after = quantile(&shuffled, q).unwrap();
        prop_assert_eq!(original, after);
    }

    /// Adding a constant shifts every quantile by that constant.
    #[test]
    fn quantile_translation_equivariant(
        data in prop::collection::vec(-1e4..1e4f64, 1..60),
        q in 0.0..=1.0f64,
        shift in -1e3..1e3f64,
    ) {
        let base = quantile(&data, q).unwrap();
        let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
        let after = quantile(&shifted, q).unwrap();
        prop_assert!((after - (base + shift)).abs() < 1e-6);
    }

    /// KDE density is non-negative everywhere and positive at a sample.
    #[test]
    fn kde_density_nonnegative(
        data in prop::collection::vec(0.0..1e3f64, 1..60),
        x in -1e3..2e3f64,
    ) {
        let kde = Kde::fit(&data).unwrap();
        prop_assert!(kde.density(x) >= 0.0);
        prop_assert!(kde.density(data[0]) > 0.0);
        prop_assert!(kde.bandwidth() > 0.0);
    }

    /// The gridded mode lies inside the grid and carries maximal density
    /// among grid points.
    #[test]
    fn kde_mode_is_argmax_on_grid(data in prop::collection::vec(0.0..500.0f64, 2..50)) {
        let kde = Kde::fit(&data).unwrap();
        let mode = kde.mode_on_grid(0.0, 500.0, 101);
        prop_assert!((0.0..=500.0).contains(&mode));
        let mode_density = kde.density(mode);
        for i in 0..101 {
            let x = i as f64 * 5.0;
            prop_assert!(kde.density(x) <= mode_density + 1e-12);
        }
    }

    /// Histogram conservation: in-range + underflow + overflow == n.
    #[test]
    fn histogram_conserves_counts(
        data in prop::collection::vec(-50.0..150.0f64, 0..300),
        bins in 1..40usize,
    ) {
        let mut h = Histogram::new(0.0, 100.0, bins);
        h.extend(data.iter().copied());
        prop_assert_eq!(
            h.total_in_range() + h.underflow() + h.overflow(),
            data.len() as u64
        );
        prop_assert_eq!(h.counts().len(), bins);
    }

    /// A constructed two-level series is recovered with the right index
    /// and direction.
    #[test]
    fn changepoint_reconstruction(
        before in 10.0..200.0f64,
        delta in 25.0..300.0f64,
        up in any::<bool>(),
        n1 in 20..80usize,
        n2 in 20..80usize,
        seed in any::<u64>(),
    ) {
        let after = if up { before + delta } else { (before - delta).max(1.0) };
        let mut rng = sno_types::Rng::new(seed);
        let mut series: Vec<f64> =
            (0..n1).map(|_| rng.normal_with(before, 2.0)).collect();
        series.extend((0..n2).map(|_| rng.normal_with(after, 2.0)));
        let shifts = detect_mean_shifts(&series, delta.min((before - after).abs()) / 2.0, 10);
        prop_assert_eq!(shifts.len(), 1, "series {} -> {}", before, after);
        let s = &shifts[0];
        prop_assert!((s.index as i64 - n1 as i64).abs() <= 3);
        prop_assert_eq!(s.after > s.before, after > before);
    }

    /// ECDF steps are a monotone staircase ending at 1.
    #[test]
    fn ecdf_steps_staircase(data in prop::collection::vec(-100.0..100.0f64, 1..120)) {
        let e = Ecdf::new(&data).unwrap();
        let steps = e.steps();
        prop_assert!(!steps.is_empty());
        for w in steps.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
            prop_assert!(w[0].1 < w[1].1 + 1e-12);
        }
        prop_assert!((steps.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    /// Sketch ingestion is mergeable: any shard partition of the data,
    /// merged in any order and any grouping, reproduces the serially
    /// built state exactly — not approximately.
    #[test]
    fn sketch_merge_shard_order_invariant(
        data in prop::collection::vec(-1e6..1e6f64, 3..200),
        seed in any::<u64>(),
    ) {
        let mut serial = QuantileSketch::new();
        serial.extend(data.iter().copied());

        // Three shards with seed-derived boundaries (possibly empty).
        let a = (seed as usize) % (data.len() + 1);
        let b = ((seed >> 16) as usize) % (data.len() + 1);
        let (lo, hi) = (a.min(b), a.max(b));
        let shards = [&data[..lo], &data[lo..hi], &data[hi..]];
        let sketch_of = |slice: &[f64]| {
            let mut s = QuantileSketch::new();
            s.extend(slice.iter().copied());
            s
        };
        let [s0, s1, s2] = shards.map(sketch_of);

        // Left fold in shard order.
        let mut in_order = s0.clone();
        in_order.merge(&s1);
        in_order.merge(&s2);
        prop_assert_eq!(&in_order, &serial);
        // Reversed shard order.
        let mut reversed = s2.clone();
        reversed.merge(&s1);
        reversed.merge(&s0);
        prop_assert_eq!(&reversed, &serial);
        // Different grouping: s0 + (s1 + s2).
        let mut tail = s1.clone();
        tail.merge(&s2);
        let mut grouped = s0.clone();
        grouped.merge(&tail);
        prop_assert_eq!(&grouped, &serial);
    }

    /// Sketch quantiles stay within the documented relative-error bound
    /// of the exact sorted-data quantile, for any data and any q.
    #[test]
    fn sketch_quantile_error_bounded(
        data in prop::collection::vec(-1e6..1e6f64, 1..300),
        q in 0.0..=1.0f64,
    ) {
        let mut sketch = QuantileSketch::new();
        sketch.extend(data.iter().copied());
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let exact = quantile_of_sorted(&sorted, q);
        let got = sketch.quantile(q).unwrap();
        let max_abs = sorted.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let tol = QuantileSketch::RELATIVE_ERROR * max_abs + 1e-9;
        prop_assert!(
            (got - exact).abs() <= tol,
            "q {} got {} exact {} tol {}", q, got, exact, tol
        );
    }

    /// `Kde::mass_in` is the brute-force count of samples in `[lo, hi)`
    /// over all samples, bit for bit, whatever the sample holds: NaN of
    /// either sign, infinities, signed zeros and values exactly on the
    /// bounds.
    #[test]
    fn kde_mass_in_counts_samples_in_the_band(
        picks in prop::collection::vec((0..2 * EDGY.len(), -50.0..1300.0f64), 1..150),
        lo in (0..2 * EDGY.len(), -50.0..1300.0f64),
        hi in (0..2 * EDGY.len(), -50.0..1300.0f64),
    ) {
        let edgy = |(i, x): (usize, f64)| EDGY.get(i).copied().unwrap_or(x);
        let data: Vec<f64> = picks.into_iter().map(edgy).collect();
        let (lo, hi) = (edgy(lo), edgy(hi));
        let inside = data.iter().filter(|&&s| lo <= s && s < hi).count();
        let want = if lo < hi { inside as f64 / data.len() as f64 } else { 0.0 };
        let got = Kde::fit(&data).unwrap().mass_in(lo, hi);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "[{lo}, {hi}) over {data:?}");
    }

    /// FiveNumber scales linearly under positive scaling.
    #[test]
    fn five_number_scale_equivariant(
        data in prop::collection::vec(0.0..1e3f64, 1..80),
        k in 0.1..10.0f64,
    ) {
        let base = FiveNumber::of(&data).unwrap();
        let scaled: Vec<f64> = data.iter().map(|x| x * k).collect();
        let s = FiveNumber::of(&scaled).unwrap();
        prop_assert!((s.median - base.median * k).abs() < 1e-6);
        prop_assert!((s.q1 - base.q1 * k).abs() < 1e-6);
        prop_assert!((s.q3 - base.q3 * k).abs() < 1e-6);
        prop_assert!((s.iqr() - base.iqr() * k).abs() < 1e-6);
    }
}

/// Values on the edge of a band search: both zeros, both infinities, NaN
/// of either sign (`total_cmp` sorts a sign-bit NaN first), and the
/// default latency-band edges in ms.
const EDGY: [f64; 13] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    35.0,
    100.0,
    150.0,
    300.0,
    450.0,
    1200.0,
    -1.0,
];
