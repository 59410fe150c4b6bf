//! Property-based tests over the core data structures and invariants.

use sno_check::prelude::*;
use sno_dissect::netsim::path::{PathDynamics, StaticPath, SteppedPath};
use sno_dissect::netsim::tcp::{TcpConfig, TcpFlow};
use sno_dissect::stats::{detect_mean_shifts, Ecdf, FiveNumber, Kde};
use sno_dissect::types::{Asn, Ipv4, Operator, Rng};
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantiles are monotone in q and bounded by the sample range.
    #[test]
    fn quantiles_monotone_and_bounded(
        mut data in prop::collection::vec(-1e6..1e6f64, 1..200),
        qa in 0.0..=1.0f64,
        qb in 0.0..=1.0f64,
    ) {
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        let va = sno_dissect::stats::quantile(&data, lo).unwrap();
        let vb = sno_dissect::stats::quantile(&data, hi).unwrap();
        prop_assert!(va <= vb);
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!(va >= data[0] && vb <= *data.last().unwrap());
    }

    /// Five-number summaries are always ordered.
    #[test]
    fn five_number_is_ordered(data in prop::collection::vec(-1e4..1e4f64, 1..100)) {
        let s = FiveNumber::of(&data).unwrap();
        prop_assert!(s.min <= s.q1 && s.q1 <= s.median);
        prop_assert!(s.median <= s.q3 && s.q3 <= s.max);
        let (wl, wh) = s.whiskers();
        prop_assert!(s.min <= wl && wh <= s.max);
    }

    /// ECDF is monotone, within [0,1], and its inverse is consistent.
    #[test]
    fn ecdf_invariants(
        data in prop::collection::vec(-1e3..1e3f64, 1..100),
        x in -2e3..2e3f64,
        q in 0.01..=1.0f64,
    ) {
        let e = Ecdf::new(&data).unwrap();
        let f = e.eval(x);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(e.eval(x + 1.0) >= f);
        // P(X <= inverse(q)) >= q.
        let v = e.inverse(q);
        prop_assert!(e.eval(v) + 1e-12 >= q);
        // tail + cdf(open complement) == 1.
        let t = e.tail_at_least(x);
        let below = e.eval(x) - data.iter().filter(|&&d| (d - x).abs() == 0.0).count() as f64
            / data.len() as f64;
        prop_assert!((t + below - 1.0).abs() < 1e-9);
    }

    /// KDE sample mass over the full range is 1, and band masses add up.
    #[test]
    fn kde_mass_partitions(data in prop::collection::vec(0.0..1000.0f64, 2..150)) {
        let kde = Kde::fit(&data).unwrap();
        let total = kde.mass_in(-1.0, 1001.0);
        prop_assert!((total - 1.0).abs() < 1e-12);
        let a = kde.mass_in(-1.0, 500.0);
        let b = kde.mass_in(500.0, 1001.0);
        prop_assert!((a + b - 1.0).abs() < 1e-12);
    }

    /// Changepoint indices are interior and respect min_segment.
    #[test]
    fn changepoints_are_interior(
        data in prop::collection::vec(0.0..100.0f64, 20..200),
        min_shift in 1.0..50.0f64,
    ) {
        let shifts = detect_mean_shifts(&data, min_shift, 5);
        for s in &shifts {
            prop_assert!(s.index >= 5);
            prop_assert!(s.index <= data.len() - 5);
            prop_assert!(s.magnitude() >= min_shift);
        }
    }

    /// IPv4/prefix round trips.
    #[test]
    fn prefix_contains_its_hosts(a in any::<u8>(), b in any::<u8>(), c in any::<u8>(), h in any::<u8>()) {
        let p = sno_dissect::types::Prefix24::new(a, b, c);
        let addr = p.addr(h);
        prop_assert!(p.contains(addr));
        prop_assert_eq!(addr.prefix24(), p);
        prop_assert_eq!(addr.host(), h);
        prop_assert_eq!(Ipv4::new(a, b, c, h), addr);
    }

    /// RNG bounded draws stay in range; binomial never exceeds n.
    #[test]
    fn rng_bounds(seed in any::<u64>(), n in 1..10_000u64, p in 0.0..=1.0f64) {
        let mut rng = Rng::new(seed);
        prop_assert!(rng.below(n) < n);
        prop_assert!(rng.binomial(n, p) <= n);
        let x = rng.range_u64(3, 9);
        prop_assert!((3..=9).contains(&x));
        let f = rng.f64();
        prop_assert!((0.0..1.0).contains(&f));
    }

    /// TCP flow conservation: acked + retransmitted <= sent (in bytes),
    /// retrans fraction in [0,1], and throughput never exceeds the
    /// bottleneck.
    #[test]
    fn tcp_flow_conservation(
        rtt in 5.0..800.0f64,
        loss in 0.0..0.2f64,
        rate in 1.0..200.0f64,
        seed in any::<u64>(),
    ) {
        let path = StaticPath { rtt_ms: rtt, loss, rate_mbps: rate, buffer_ms: 150.0 };
        let stats = TcpFlow::new(TcpConfig::ndt()).run(&path, 0.0, &mut Rng::new(seed));
        prop_assert!(stats.bytes_acked + stats.bytes_retrans <= stats.bytes_sent + 1);
        let f = stats.retrans_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
        // Mean goodput cannot beat the bottleneck (with slack for the
        // fluid model's rounding).
        prop_assert!(stats.mean_throughput().0 <= rate * 1.15 + 1.0);
        // RTT samples are at least half the base (noise floor).
        for &s in &stats.rtt_samples {
            prop_assert!(s >= rtt * 0.5 - 1e-9);
        }
    }

    /// Orbit geometry: satellites stay on their shell, visible
    /// satellites respect the elevation mask.
    #[test]
    fn orbit_invariants(
        lat in -60.0..60.0f64,
        lon in -180.0..180.0f64,
        t in 0.0..20_000.0f64,
    ) {
        use sno_dissect::orbit::{ecef_of, STARLINK_SHELL};
        use sno_dissect::geo::GeoPoint;
        let obs = ecef_of(GeoPoint::new(lat, lon));
        if let Some(v) = STARLINK_SHELL.best_visible(obs, t, 25.0) {
            prop_assert!(v.elevation_deg >= 25.0);
            prop_assert!(v.slant.0 >= STARLINK_SHELL.altitude_km - 1.0);
            let sat = STARLINK_SHELL.sat_position(v.plane, v.index, t);
            prop_assert!((sat.norm() - STARLINK_SHELL.orbit_radius_km()).abs() < 1e-6);
        }
    }

    /// Daily medians: one point per day, medians bounded by the day's
    /// samples, chronological order.
    #[test]
    fn daily_medians_invariants(
        samples in prop::collection::vec((0u32..50, 0.0..1000.0f64), 1..300),
    ) {
        use sno_dissect::types::{Timestamp, UtcDay};
        let ts: Vec<(Timestamp, f64)> = samples
            .iter()
            .map(|&(d, v)| (Timestamp::from_day(UtcDay(d)), v))
            .collect();
        let daily = sno_dissect::stats::daily_medians(&ts);
        for w in daily.windows(2) {
            prop_assert!(w[0].day < w[1].day);
        }
        let total: usize = daily.iter().map(|d| d.count).sum();
        prop_assert_eq!(total, samples.len());
    }

    /// TCP throughput is finite and non-negative under random path and
    /// flow configurations, and byte accounting stays consistent.
    #[test]
    fn tcp_throughput_finite_nonnegative(
        rtt in 1.0..1000.0f64,
        loss in 0.0..0.5f64,
        rate in 0.5..500.0f64,
        buffer in 1.0..500.0f64,
        mss in 500u32..3000,
        init_cwnd in 1.0..20.0f64,
        seed in any::<u64>(),
    ) {
        let path = StaticPath { rtt_ms: rtt, loss, rate_mbps: rate, buffer_ms: buffer };
        let config = TcpConfig {
            mss,
            initial_cwnd: init_cwnd,
            max_duration_secs: 3.0,
            ..TcpConfig::ndt()
        };
        let stats = TcpFlow::new(config).run(&path, 0.0, &mut Rng::new(seed));
        let tput = stats.mean_throughput().0;
        prop_assert!(tput.is_finite(), "throughput {tput}");
        prop_assert!(tput >= 0.0, "throughput {tput}");
        prop_assert!(stats.duration_secs.is_finite() && stats.duration_secs >= 0.0);
        prop_assert!(stats.bytes_acked <= stats.bytes_sent);
        prop_assert!(stats.rtt_samples.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    /// The TCP simulation is deterministic given a seed (the
    /// FoundationDB-style property every netsim invariant leans on).
    #[test]
    fn tcp_is_deterministic_given_seed(
        rtt in 5.0..600.0f64,
        loss in 0.0..0.1f64,
        rate in 1.0..100.0f64,
        seed in any::<u64>(),
    ) {
        let path = StaticPath { rtt_ms: rtt, loss, rate_mbps: rate, buffer_ms: 100.0 };
        let config = TcpConfig { max_duration_secs: 2.0, ..TcpConfig::ndt() };
        let a = TcpFlow::new(config.clone()).run(&path, 0.0, &mut Rng::new(seed));
        let b = TcpFlow::new(config).run(&path, 0.0, &mut Rng::new(seed));
        prop_assert_eq!(a.bytes_sent, b.bytes_sent);
        prop_assert_eq!(a.bytes_acked, b.bytes_acked);
        prop_assert_eq!(a.bytes_retrans, b.bytes_retrans);
        prop_assert_eq!(a.rtt_samples, b.rtt_samples);
    }

    /// A static path reports the same dynamics at every instant: its RTT
    /// is the whole (single-hop) delay budget, loss and rate are fixed,
    /// and no handoffs ever happen.
    #[test]
    fn static_path_dynamics_are_constant(
        rtt in 1.0..1000.0f64,
        loss in 0.0..=1.0f64,
        rate in 0.1..1000.0f64,
        t in 0.0..1e6f64,
    ) {
        let p = StaticPath { rtt_ms: rtt, loss, rate_mbps: rate, buffer_ms: 80.0 };
        prop_assert_eq!(p.base_rtt_ms(t), Some(rtt));
        prop_assert_eq!(p.loss_prob(t), loss);
        prop_assert_eq!(p.bottleneck_mbps(), rate);
        prop_assert_eq!(p.generation(t), p.generation(0.0));
        prop_assert_eq!(p.handoff_loss_prob(), 0.0);
    }

    /// A stepped path's RTT at time `t` equals the schedule segment
    /// containing `t`, and its generation counts exactly the boundaries
    /// crossed (so it is monotone in `t`).
    #[test]
    fn stepped_path_follows_its_schedule(
        rtts in prop::collection::vec(10.0..200.0f64, 1..10),
        dt in 1.0..30.0f64,
        t in 0.0..400.0f64,
    ) {
        let steps: Vec<(f64, f64)> = rtts
            .iter()
            .enumerate()
            .map(|(k, &r)| ((k as f64 + 1.0) * dt, r))
            .collect();
        let p = SteppedPath {
            steps: steps.clone(),
            loss: 0.0,
            rate_mbps: 50.0,
            handoff_loss: 0.0,
        };
        let expected = steps
            .iter()
            .find(|&&(until, _)| t < until)
            .map(|&(_, r)| r)
            .unwrap_or(steps.last().unwrap().1);
        prop_assert_eq!(p.base_rtt_ms(t), Some(expected));
        let crossed = steps.iter().filter(|&&(until, _)| t >= until).count() as u64;
        prop_assert_eq!(p.generation(t), crossed);
        prop_assert!(p.generation(t + dt) >= p.generation(t));
    }

    /// The binary corpus codec round-trips arbitrary records — field
    /// values are carried as raw bits, so NaNs and negative zeros
    /// survive too. Compared via a re-encode (bytes are total-ordered
    /// where `f64` equality is not).
    #[test]
    fn codec_round_trips_arbitrary_records(
        fields in prop::collection::vec(
            (any::<u64>(), any::<u32>(), any::<u32>(),
             any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..64,
        ),
    ) {
        use sno_dissect::types::records::NdtRecord;
        use sno_dissect::types::{codec, Asn, Ipv4, Millis, Mbps, Timestamp};
        // Floats from raw bit patterns: exercises NaNs, infinities, and
        // negative zero, which value-space generators never produce.
        let records: Vec<NdtRecord> = fields
            .iter()
            .map(|&(ts, client, asn, lat, jit, retrans, down)| NdtRecord {
                timestamp: Timestamp(ts),
                client: Ipv4::new(
                    (client >> 24) as u8,
                    (client >> 16) as u8,
                    (client >> 8) as u8,
                    client as u8,
                ),
                asn: Asn(asn),
                latency_p5: Millis(f64::from_bits(lat)),
                jitter_p95: Millis(f64::from_bits(jit)),
                retrans_fraction: f64::from_bits(retrans),
                download: Mbps(f64::from_bits(down)),
            })
            .collect();
        let encoded = codec::encode_records(&records);
        prop_assert_eq!(encoded.len(), records.len());
        let decoded = encoded.decode_records();
        let reencoded = codec::encode_records(&decoded);
        prop_assert_eq!(reencoded.bytes(), encoded.bytes());
        let reparsed = codec::EncodedCorpus::from_bytes(encoded.bytes().to_vec());
        prop_assert!(reparsed.is_ok());
    }

    /// The batched (windowed) KDE grid is bitwise-identical to the
    /// naive pointwise density at every grid point: skipped kernel
    /// terms underflow to +0.0, which is an exact no-op in the sum.
    #[test]
    fn kde_grid_is_bitwise_pointwise(
        data in prop::collection::vec(0.0..1000.0f64, 2..150),
        lo in -100.0..400.0f64,
        span in 1.0..800.0f64,
        points in 2..200usize,
    ) {
        let kde = Kde::fit(&data).unwrap();
        let hi = lo + span;
        let grid = kde.density_grid(lo, hi, points);
        prop_assert_eq!(grid.len(), points);
        let step = (hi - lo) / (points - 1) as f64;
        for (k, &(x, d)) in grid.iter().enumerate() {
            let expected_x = lo + k as f64 * step;
            prop_assert_eq!(x.to_bits(), expected_x.to_bits(), "x at {k}");
            prop_assert_eq!(
                d.to_bits(),
                kde.density(x).to_bits(),
                "density at {k} (x {x})"
            );
        }
    }

    /// Changepoint detection finds no shifts in a constant series, no
    /// matter its level, length, or the threshold.
    #[test]
    fn no_shifts_in_constant_series(
        level in -1e3..1e3f64,
        n in 10..300usize,
        min_shift in 0.5..100.0f64,
    ) {
        let series = vec![level; n];
        let shifts = detect_mean_shifts(&series, min_shift, 5);
        prop_assert!(shifts.is_empty(), "found {} shifts", shifts.len());
    }
}

/// Curated ASNs of every access kind (Starlink LEO, Viasat GEO, the SES
/// MEO+GEO hybrid, O3b MEO, TelAlaska GEO) plus an unmapped one.
const COUNTED_ASNS: [u32; 6] = [14593, 13955, 12684, 60725, 10538, 398101];

/// Latencies on every default band edge, both infinities, a negative
/// zero and a positive NaN: where counting below an edge and searching
/// a sorted sample could part.
const EDGE_LATENCIES: [f64; 11] = [
    0.0,
    35.0,
    100.0,
    150.0,
    300.0,
    450.0,
    1200.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    f64::NAN,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The band-count contract stage 3 decides on. Counts folded by
    /// `observe_records` over random chunks, merged within random shards
    /// and then in shard order, equal the row `observe` fold.
    /// `run_streamed`'s profiles, built from such counts, equal
    /// `profile_one` over each bucket. And every band mass equals the
    /// sorted-sample search of the KDE path the counts replace,
    /// `Kde::fit(bucket).mass_in(lo, hi)`, bit for bit.
    #[test]
    fn band_counts_fold_merge_and_reproduce_the_kde_masses(
        picks in prop::collection::vec(
            (0..COUNTED_ASNS.len(), 0..2 * EDGE_LATENCIES.len(), -20.0..1300.0f64),
            0..400,
        ),
        cuts in prop::collection::vec(0..400usize, 0..8),
        shards in 1..4usize,
        chunk in 1..100usize,
        threads in 1..3usize,
    ) {
        use sno_dissect::core::validate::{profile_one, BandCounts, LatencyBands};
        use sno_dissect::core::{map_asns, AsnOps, CorpusStats, Pipeline, StreamOptions};
        use sno_dissect::registry::sources::access_of;
        use sno_dissect::types::chunk::slice_chunks;
        use sno_dissect::types::records::NdtRecord;
        use sno_dissect::types::{Mbps, Millis, Timestamp};

        let records: Vec<NdtRecord> = picks
            .iter()
            .enumerate()
            .map(|(i, &(a, l, x))| NdtRecord {
                timestamp: Timestamp(i as u64),
                client: Ipv4::new(10, 0, (i % 7) as u8, 1),
                asn: Asn(COUNTED_ASNS[a]),
                latency_p5: Millis(EDGE_LATENCIES.get(l).copied().unwrap_or(x)),
                jitter_p95: Millis(10.0),
                retrans_fraction: 0.01,
                download: Mbps(50.0),
            })
            .collect();
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);
        let mut row = CorpusStats::new();
        for rec in &records {
            row.observe(&mapping, rec);
        }

        // Chunks at the cut points, consecutive runs of chunks per shard.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(records.len())).collect();
        bounds.extend([0, records.len()]);
        bounds.sort_unstable();
        bounds.dedup();
        let partials: Vec<CorpusStats> = bounds
            .windows(2)
            .map(|w| {
                let mut part = CorpusStats::new();
                part.observe_records(&index, &records[w[0]..w[1]]);
                part
            })
            .collect();
        let per_shard = partials.len().div_ceil(shards).max(1);
        let folded = partials
            .chunks(per_shard)
            .map(|shard| {
                shard
                    .iter()
                    .cloned()
                    .fold(CorpusStats::new(), CorpusStats::merge)
            })
            .fold(CorpusStats::new(), CorpusStats::merge);
        prop_assert_eq!(&folded.band_counts, &row.band_counts);
        prop_assert_eq!(&folded.slots, &row.slots);

        let bands = LatencyBands::default();
        let edges = bands.edges();
        let report = Pipeline::with_threads(threads)
            .run_streamed(|| slice_chunks(&records, chunk), StreamOptions::default());
        for p in &report.profiles {
            let bucket = row.by_asn.get(&p.asn).map_or(&[][..], Vec::as_slice);
            let one = profile_one(p.operator, p.asn, bucket, bands);
            prop_assert_eq!(format!("{p:?}"), format!("{one:?}"));
            let counts = row
                .band_counts
                .get(usize::from(index.slot(p.asn)))
                .copied()
                .unwrap_or_default();
            prop_assert_eq!(counts, BandCounts::of(&edges, bucket));
            let Some(kde) = Kde::fit(bucket) else {
                prop_assert_eq!(p.tests, 0);
                continue;
            };
            for &lo in &edges {
                for &hi in &edges {
                    prop_assert_eq!(
                        counts.mass_in(&edges, lo, hi).to_bits(),
                        kde.mass_in(lo, hi).to_bits(),
                        "AS{} [{lo}, {hi})",
                        p.asn.0
                    );
                }
            }
            if p.tests >= sno_dissect::core::validate::MIN_TESTS_FOR_VERDICT {
                let expected: f64 = access_of(p.operator)
                    .orbits()
                    .iter()
                    .map(|&orbit| {
                        let (lo, hi) = bands.band(orbit);
                        kde.mass_in(lo, hi)
                    })
                    .sum();
                prop_assert_eq!(
                    p.terrestrial_mass.to_bits(),
                    kde.mass_in(0.0, bands.terrestrial_max).to_bits()
                );
                prop_assert_eq!(p.expected_mass.to_bits(), expected.to_bits());
            }
        }
    }
}

/// ASNs the pass-1 fold property mixes: Starlink's two (LEO), SES's two
/// (MEO+GEO), Hughes's two and Viasat's (GEO), O3b's (MEO), then two
/// unmapped ones.
const FOLD_ASNS: [u32; 10] = [
    14593, 27277, 12684, 201554, 28613, 1358, 13955, 60725, 398101, 7018,
];

/// How many of [`FOLD_ASNS`], from the front, the curated mapping lists.
const FOLD_MAPPED: usize = 8;

/// Latency picks for the fold property: [`EDGE_LATENCIES`], a negative
/// NaN, and as many draws from a range.
const FOLD_LATENCY_PICKS: usize = 2 * (EDGE_LATENCIES.len() + 1);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pass-1 statistics fold, every way it is reached, against the
    /// row-at-a-time reference `CorpusStats::observe`. Records come as
    /// A-B-A runs, where A is a curated ASN and B any ASN, an unmapped
    /// one included, so one ASN's runs are split by another ASN's. The
    /// non-LEO operators' records share three /24s, so one
    /// `(operator, /24)` bucket gathers two ASNs' samples from
    /// interleaved runs. Latencies sit on every band edge, at ±inf,
    /// −0.0 and NaN of either sign. The records are cut into chunks at
    /// random points. `observe_records` over those chunks, the fold
    /// pass 1 and online ingest run, must equal the reference in
    /// `records`, `by_asn` and `by_prefix` (bit for bit), `slots` and
    /// `band_counts`, both as partials merged in order and into one
    /// accumulator. And `run_streamed` over the cut chunks at 1 and 2
    /// threads, and an online identifier that ingested them, report
    /// what `Pipeline::run` does.
    #[test]
    fn stats_folds_match_the_row_reference(
        triples in prop::collection::vec(
            (0..FOLD_MAPPED, 0..FOLD_ASNS.len(), 1..5usize, 1..5usize, 1..5usize),
            1..20,
        ),
        picks in prop::collection::vec(
            (0..FOLD_LATENCY_PICKS, -20.0..1300.0f64, 0..15u8),
            1..40,
        ),
        cuts in prop::collection::vec(0..300usize, 0..8),
    ) {
        use sno_dissect::core::{
            map_asns, AsnOps, CorpusStats, OnlineIdentifier, Pipeline, StreamOptions,
            StreamedReport,
        };
        use sno_dissect::types::chunk::RecordChunks;
        use sno_dissect::types::records::NdtRecord;
        use sno_dissect::types::{Mbps, Millis, Prefix24, Timestamp};

        /// A source yielding pre-cut chunks.
        struct CutChunks(std::vec::IntoIter<Vec<NdtRecord>>);
        impl RecordChunks for CutChunks {
            type Item = NdtRecord;
            fn next_chunk(&mut self) -> Option<Vec<NdtRecord>> {
                self.0.next()
            }
        }

        /// The folded samples as bit patterns, so NaNs compare.
        type Bits = (
            BTreeMap<Asn, Vec<u64>>,
            BTreeMap<(Operator, Prefix24), Vec<(Asn, u64)>>,
        );
        fn bits(stats: &CorpusStats) -> Bits {
            let by_asn = stats
                .by_asn
                .iter()
                .map(|(&asn, lats)| (asn, lats.iter().map(|l| l.to_bits()).collect()))
                .collect();
            let by_prefix = stats
                .by_prefix
                .iter()
                .map(|(&key, samples)| {
                    (key, samples.iter().map(|&(asn, l)| (asn, l.to_bits())).collect())
                })
                .collect();
            (by_asn, by_prefix)
        }

        let latencies: Vec<f64> = EDGE_LATENCIES.iter().copied().chain([-f64::NAN]).collect();
        let mut records: Vec<NdtRecord> = Vec::new();
        for &(a, b, first, between, second) in &triples {
            for (asn, run) in [(a, first), (b, between), (a, second)] {
                for _ in 0..run {
                    let i = records.len();
                    let (l, x, host) = picks[i % picks.len()];
                    records.push(NdtRecord {
                        timestamp: Timestamp(i as u64),
                        client: Ipv4::new(10, 0, host % 3, host / 3 + 1),
                        asn: Asn(FOLD_ASNS[asn]),
                        latency_p5: Millis(latencies.get(l).copied().unwrap_or(x)),
                        jitter_p95: Millis(10.0),
                        retrans_fraction: 0.01,
                        download: Mbps(50.0),
                    });
                }
            }
        }
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);
        for (i, &asn) in FOLD_ASNS.iter().enumerate() {
            prop_assert_eq!(index.get(Asn(asn)).is_some(), i < FOLD_MAPPED, "AS{}", asn);
        }
        let mut reference = CorpusStats::new();
        for rec in &records {
            reference.observe(&mapping, rec);
        }

        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(records.len())).collect();
        bounds.extend([0, records.len()]);
        bounds.sort_unstable();
        bounds.dedup();
        let ranges: Vec<std::ops::Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();

        let mut merged = CorpusStats::new();
        let mut accumulated = CorpusStats::new();
        let mut online = OnlineIdentifier::new(Pipeline::new());
        for range in &ranges {
            let chunk = &records[range.clone()];
            let mut part = CorpusStats::new();
            part.observe_records(&index, chunk);
            merged = merged.merge(part);
            accumulated.observe_records(&index, chunk);
            online.ingest(chunk);
        }
        let want = bits(&reference);
        for (fold, stats) in [
            ("merged chunks", &merged),
            ("accumulated chunks", &accumulated),
        ] {
            prop_assert_eq!(stats.records, reference.records, "{}", fold);
            prop_assert_eq!(&bits(stats), &want, "{}", fold);
            prop_assert_eq!(&stats.slots, &reference.slots, "{}", fold);
            prop_assert_eq!(&stats.band_counts, &reference.band_counts, "{}", fold);
        }

        let run = Pipeline::new().run(&records);
        let same = |a: &StreamedReport, b: &StreamedReport| {
            a.records == b.records
                && a.catalog == b.catalog
                && a.accepted == b.accepted
                && a.bitmap.len() == b.bitmap.len()
                && (0..a.bitmap.len()).all(|i| a.bitmap.get(i) == b.bitmap.get(i))
                && a.default_threshold.to_bits() == b.default_threshold.to_bits()
                && format!("{:?}", a.thresholds) == format!("{:?}", b.thresholds)
                && format!("{:?}", a.profiles) == format!("{:?}", b.profiles)
                && format!("{:?}", a.strict) == format!("{:?}", b.strict)
        };
        let opts = StreamOptions {
            dense_acceptance: true,
            ..StreamOptions::default()
        };
        for threads in [1, 2] {
            let chunks: Vec<Vec<NdtRecord>> =
                ranges.iter().map(|range| records[range.clone()].to_vec()).collect();
            let streamed = Pipeline::with_threads(threads)
                .run_streamed(|| CutChunks(chunks.into_iter()), opts);
            prop_assert!(same(&streamed, &run), "threads {}", threads);
        }
        prop_assert!(same(&online.snapshot(opts), &run), "online ingest");
    }
}

/// ASNs the strict-memo property feeds, each with its operator's
/// regime floor: SES's two (MEO+GEO, so the MEO floor), HughesNet's two
/// and Viasat's (GEO), O3b's (MEO). The schedule flips AS1358's verdict.
const STRICT_ASNS: [(u32, f64); 6] = [
    (12684, 200.0),
    (201554, 200.0),
    (28613, 500.0),
    (1358, 500.0),
    (13955, 500.0),
    (60725, 200.0),
];

/// The ASN whose verdict the strict-memo property flips.
const FLIPPED_ASN: u32 = 1358;

/// Latencies the strict filter decides at: NaN of either sign, −0.0
/// and both regime floors exactly.
const STRICT_LATENCIES: [f64; 5] = [f64::NAN, -f64::NAN, -0.0, 200.0, 500.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The strict filter's carried memo against a fresh one. Records
    /// from six non-LEO ASNs land in four /24s per operator, with
    /// latencies at NaN of either sign, −0.0, the exact floors, or
    /// above the ASN's floor. They arrive in appends cut at random
    /// points, and after some appends (one flag per window) a batch
    /// from AS1358, into one of those /24s or a fifth of its own, flips
    /// its verdict between outlier and not, by terrestrial (20 ms) or
    /// GEO (650 ms) samples, so the outlier set shifts between
    /// snapshots.
    /// After every append, the strict outcome of online identifiers at
    /// 1 and 2 threads, whose stage caches carry the memo, must equal
    /// `strict_filter_from_buckets` over the same buckets at 1 and 2
    /// threads.
    #[test]
    fn carried_strict_memo_matches_a_fresh_filter(
        picks in prop::collection::vec(
            (0..STRICT_ASNS.len(), 0..4u8, 0..8 * STRICT_LATENCIES.len(), 0.0..400.0f64),
            0..300,
        ),
        cuts in prop::collection::vec(0..300usize, 0..8),
        flips in prop::collection::vec((any::<bool>(), 0..5u8), 9..10),
    ) {
        use sno_dissect::core::prefix_filter::strict_filter_from_buckets;
        use sno_dissect::core::validate::profile_one;
        use sno_dissect::core::{
            map_asns, AsnVerdict, CorpusStats, LatencyBands, OnlineIdentifier, Pipeline,
            StreamOptions,
        };
        use sno_dissect::types::records::NdtRecord;
        use sno_dissect::types::{Mbps, Millis, Timestamp};

        let record = |i: usize, asn: u32, latency: f64, c: u8| NdtRecord {
            timestamp: Timestamp(i as u64),
            client: Ipv4::new(10, 0, c, 1),
            asn: Asn(asn),
            latency_p5: Millis(latency),
            jitter_p95: Millis(10.0),
            retrans_fraction: 0.01,
            download: Mbps(50.0),
        };
        let records: Vec<NdtRecord> = picks
            .iter()
            .enumerate()
            .map(|(i, &(a, c, l, x))| {
                let (asn, floor) = STRICT_ASNS[a];
                let latency = STRICT_LATENCIES.get(l).copied().unwrap_or(floor + x);
                record(i, asn, latency, c)
            })
            .collect();
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(records.len())).collect();
        bounds.extend([0, records.len()]);
        bounds.sort_unstable();
        bounds.dedup();

        // The appends: each cut window, and after some of them a batch
        // that pushes AS1358 across the outlier line, with the verdict
        // it must then have.
        let is_outlier = |latencies: &[f64]| {
            let p = profile_one(
                Operator::Hughes,
                Asn(FLIPPED_ASN),
                latencies,
                LatencyBands::default(),
            );
            matches!(p.verdict, AsnVerdict::Outlier(_))
        };
        let mut flipped_latencies: Vec<f64> = Vec::new();
        let mut appends: Vec<(Vec<NdtRecord>, Option<bool>)> = Vec::new();
        for (w, &(flip, c)) in bounds.windows(2).zip(&flips) {
            let window = records[w[0]..w[1]].to_vec();
            flipped_latencies.extend(
                window
                    .iter()
                    .filter(|r| r.asn == Asn(FLIPPED_ASN))
                    .map(|r| r.latency_p5.0),
            );
            appends.push((window, None));
            if flip {
                let was = is_outlier(&flipped_latencies);
                let push = if was { 650.0 } else { 20.0 };
                let mut batch = Vec::new();
                while is_outlier(&flipped_latencies) == was {
                    flipped_latencies.push(push);
                    batch.push(record(batch.len(), FLIPPED_ASN, push, c));
                }
                appends.push((batch, Some(!was)));
            }
        }

        let mapping = map_asns();
        let mut reference = CorpusStats::new();
        let mut online = [1, 2].map(|t| OnlineIdentifier::new(Pipeline::with_threads(t)));
        for (step, (batch, outlier)) in appends.iter().enumerate() {
            for rec in batch {
                reference.observe(&mapping, rec);
            }
            for identifier in &mut online {
                identifier.ingest(batch);
                let report = identifier.snapshot(StreamOptions::default());
                if let Some(outlier) = outlier {
                    let verdict = report
                        .profiles
                        .iter()
                        .find(|p| p.asn == Asn(FLIPPED_ASN))
                        .map(|p| matches!(p.verdict, AsnVerdict::Outlier(_)));
                    prop_assert_eq!(verdict, Some(*outlier), "step {}", step);
                }
                for threads in [1, 2] {
                    let fresh =
                        strict_filter_from_buckets(&report.profiles, &reference.by_prefix, threads);
                    prop_assert_eq!(
                        format!("{:?}", report.strict),
                        format!("{fresh:?}"),
                        "step {} threads {}",
                        step,
                        threads
                    );
                }
            }
        }
    }
}

/// Codec wire layout (see `sno_types::codec`): a 16-byte header, then
/// frames of a 4-byte length prefix and a 48-byte body.
const CODEC_HEADER_LEN: usize = 16;
const CODEC_BODY_LEN: usize = 48;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The codec-to-ingest boundary under malformed bytes. Six buffers
    /// per case go through `EncodedCorpus::from_bytes`: arbitrary
    /// bytes, the same bytes behind a valid header, the same bytes cut
    /// into 48-byte bodies behind valid framing (any field value, huge
    /// ASNs and NaN of either sign included), and an encoding of
    /// records over curated and unmapped ASNs: whole, truncated at a
    /// random offset, and with one random byte flipped. Nothing may
    /// panic, and a truncated encoding is refused. An accepted corpus
    /// decodes exactly `len()` records, and `run_streamed` over its
    /// chunks reports the records, bitmap and catalog of an online
    /// identifier that ingested the same chunks.
    #[test]
    fn malformed_codec_bytes_reach_ingest_without_panic(
        raw in prop::collection::vec(any::<u8>(), 0..512),
        picks in prop::collection::vec(
            (0..FOLD_ASNS.len(), 0..2 * EDGE_LATENCIES.len(), -20.0..1300.0f64, any::<u32>()),
            0..60,
        ),
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        flip_mask in 1..=255u8,
        k in 1..64usize,
    ) {
        use sno_dissect::core::{OnlineIdentifier, Pipeline, StreamOptions};
        use sno_dissect::types::chunk::RecordChunks;
        use sno_dissect::types::codec::{self, EncodedCorpus};
        use sno_dissect::types::records::NdtRecord;
        use sno_dissect::types::{Mbps, Millis, Timestamp};

        let header = |count: usize| {
            let mut bytes = codec::MAGIC.to_vec();
            bytes.extend_from_slice(&codec::VERSION.to_le_bytes());
            bytes.extend_from_slice(&[0, 0]);
            bytes.extend_from_slice(&(count as u64).to_le_bytes());
            bytes
        };
        let mut behind_header = header(raw.len() / (4 + CODEC_BODY_LEN));
        behind_header.extend_from_slice(&raw);
        let bodies = raw.chunks_exact(CODEC_BODY_LEN);
        let mut framed = header(bodies.len());
        for body in bodies {
            framed.extend_from_slice(&(CODEC_BODY_LEN as u32).to_le_bytes());
            framed.extend_from_slice(body);
        }
        let records: Vec<NdtRecord> = picks
            .iter()
            .enumerate()
            .map(|(i, &(asn, l, x, client))| NdtRecord {
                timestamp: Timestamp(i as u64),
                client: Ipv4(client),
                asn: Asn(FOLD_ASNS[asn]),
                latency_p5: Millis(EDGE_LATENCIES.get(l).copied().unwrap_or(x)),
                jitter_p95: Millis(10.0),
                retrans_fraction: 0.01,
                download: Mbps(50.0),
            })
            .collect();
        let valid = codec::encode_records(&records).bytes().to_vec();
        prop_assert_eq!(valid.len(), CODEC_HEADER_LEN + records.len() * (4 + CODEC_BODY_LEN));
        let truncated = valid.get(..cut % valid.len()).unwrap_or_default().to_vec();
        let mut flipped = valid.clone();
        if let Some(byte) = flipped.get_mut(flip_at % valid.len()) {
            *byte ^= flip_mask;
        }

        let opts = StreamOptions::default();
        for (label, bytes) in [
            ("arbitrary bytes", raw.clone()),
            ("arbitrary bytes behind a header", behind_header),
            ("arbitrary frame bodies", framed),
            ("valid encoding", valid),
            ("truncated encoding", truncated),
            ("flipped byte", flipped),
        ] {
            let Ok(corpus) = EncodedCorpus::from_bytes(bytes) else {
                continue;
            };
            prop_assert!(label != "truncated encoding", "a truncated encoding was accepted");
            prop_assert_eq!(corpus.decode_records().len(), corpus.len(), "{}", label);

            let streamed = Pipeline::with_threads(1).run_streamed(|| corpus.chunks(k), opts);
            let mut online = OnlineIdentifier::new(Pipeline::with_threads(1));
            let mut chunks = corpus.chunks(k);
            while let Some(chunk) = chunks.next_chunk() {
                online.ingest(&chunk);
            }
            let snapshot = online.snapshot(opts);
            prop_assert_eq!(streamed.records, corpus.len(), "{}", label);
            prop_assert_eq!(snapshot.records, corpus.len(), "{}", label);
            prop_assert_eq!(&snapshot.catalog, &streamed.catalog, "{}", label);
            prop_assert_eq!(snapshot.bitmap.len(), streamed.bitmap.len(), "{}", label);
            for i in 0..streamed.bitmap.len() {
                prop_assert_eq!(snapshot.bitmap.get(i), streamed.bitmap.get(i), "{}: bit {}", label, i);
            }
        }
    }
}
