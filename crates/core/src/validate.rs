//! Stage 3: latency-profile validation of ASN→SNO mappings.
//!
//! For every (operator, ASN) with enough speed tests, compare where its
//! per-session p5 latencies fall with the latency regimes the
//! operator's advertised access technology can produce. The paper
//! draws these profiles as KDE curves (Figure 2), but every rule here
//! reads only *empirical* band masses: the fraction of samples in
//! `[lo, hi)`. Those come from exact integer counts at the band edges
//! ([`BandCounts`]), which the statistics pass folds per ASN, so stage 3
//! costs O(#ASNs) and never sorts or smooths a sample. The KDE and its
//! mode count only draw Figure 2 (`repro fig2` fits its own). The
//! checks reproduce Figure 2's findings:
//!
//! * AS27277 (Starlink) has a terrestrial profile → corporate outlier;
//! * AS201554 (SES) lacks the expected MEO+GEO bimodality → outlier;
//! * AS10538 (TelAlaska) mixes a GEO mode with a terrestrial mode inside
//!   one ASN → cannot be resolved at ASN granularity, needs the prefix
//!   stage.

use crate::asn_map::AsnMapping;
use sno_registry::sources::access_of;
use sno_types::{AccessKind, Asn, Operator, OrbitClass};
use std::cmp::Ordering;

/// Latency bands (ms) per regime, the edges of every band mass a
/// verdict reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBands {
    /// Anything below this is terrestrial-like.
    pub terrestrial_max: f64,
    /// LEO regime.
    pub leo: (f64, f64),
    /// MEO regime.
    pub meo: (f64, f64),
    /// GEO regime.
    pub geo: (f64, f64),
}

impl Default for LatencyBands {
    fn default() -> Self {
        LatencyBands {
            terrestrial_max: 100.0,
            leo: (35.0, 300.0),
            meo: (150.0, 450.0),
            geo: (450.0, 1_200.0),
        }
    }
}

/// The most edges a [`LatencyBands`] has.
const MAX_EDGES: usize = 8;

impl LatencyBands {
    /// The band for one orbit class.
    pub fn band(&self, orbit: OrbitClass) -> (f64, f64) {
        match orbit {
            OrbitClass::Leo => self.leo,
            OrbitClass::Meo => self.meo,
            OrbitClass::Geo => self.geo,
        }
    }

    /// Every bound a verdict reads a mass at (`0`, `terrestrial_max` and
    /// both ends of each band), ascending, without duplicates or NaN.
    /// The default bands have seven: 0, 35, 100, 150, 300, 450 and
    /// 1200 ms.
    pub fn edges(&self) -> Vec<f64> {
        let [l, m, g] = [self.leo, self.meo, self.geo];
        let mut edges = vec![0.0, self.terrestrial_max, l.0, l.1, m.0, m.1, g.0, g.1];
        edges.retain(|e| !e.is_nan());
        edges.sort_by(f64::total_cmp);
        edges.dedup_by(|a, b| a == b);
        edges
    }
}

/// One ASN's latency sample reduced to what stage 3 reads: the sample
/// count and, for each band edge, the number of samples strictly below
/// it. A NaN is below no edge, so it falls in no band but counts in
/// `n`. Counts are integers, so folding chunks in any order, at any
/// chunk length or thread count, and merging shards gives the same
/// counts exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandCounts {
    /// Samples counted.
    n: usize,
    /// `below[i]`: samples strictly below the `i`-th edge the counts
    /// are folded at (zero past the last edge).
    below: [usize; MAX_EDGES],
}

impl BandCounts {
    /// Samples counted.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The counts of a whole sample at `edges`.
    pub fn of(edges: &[f64], latencies: &[f64]) -> BandCounts {
        let mut counts = BandCounts::default();
        counts.count_all(edges, latencies);
        counts
    }

    /// Count a run of samples at `edges`, one counting loop per edge:
    /// the same integers as [`BandCounts::count`] on each sample.
    pub(crate) fn count_all(&mut self, edges: &[f64], latencies: &[f64]) {
        self.n += latencies.len();
        for (below, &edge) in self.below.iter_mut().zip(edges) {
            *below += latencies
                .iter()
                .map(|&latency| usize::from(latency < edge))
                .sum::<usize>();
        }
    }

    /// Count one sample at `edges` (at most the first eight are used;
    /// [`LatencyBands::edges`] never has more).
    pub fn count(&mut self, edges: &[f64], latency: f64) {
        self.n += 1;
        for (below, &edge) in self.below.iter_mut().zip(edges) {
            *below += usize::from(latency < edge);
        }
    }

    /// Add the counts of another sample folded at the same edges.
    pub fn merge(&mut self, other: &BandCounts) {
        self.n += other.n;
        for (below, theirs) in self.below.iter_mut().zip(other.below) {
            *below += theirs;
        }
    }

    /// Fraction of the counted samples inside `[lo, hi)`, for two of the
    /// `edges` the counts were folded at: bit for bit the empirical mass
    /// the sno-stats KDE finds by searching the sorted sample. An empty
    /// band (`hi <= lo`, or a NaN bound) or a bound that is not one of
    /// the edges has mass `0.0`.
    pub fn mass_in(&self, edges: &[f64], lo: f64, hi: f64) -> f64 {
        if self.n == 0 || lo.partial_cmp(&hi) != Some(Ordering::Less) {
            return 0.0;
        }
        let below = |x: f64| {
            let i = edges.iter().position(|&e| e == x)?;
            self.below.get(i).copied()
        };
        match (below(lo), below(hi)) {
            (Some(start), Some(end)) => end.saturating_sub(start) as f64 / self.n as f64,
            _ => 0.0,
        }
    }
}

/// The verdict on one ASN.
#[derive(Debug, Clone, PartialEq)]
pub enum AsnVerdict {
    /// Latency profile matches the operator's access technology.
    Consistent,
    /// Profile matches, but a minority mass sits in foreign regimes
    /// (hybrid lines or outliers inside the ASN) — the prefix stage has
    /// to sort it out. Carries the fraction of mass outside the
    /// expected bands.
    MixedWithinAsn(f64),
    /// Profile is incompatible with the advertised technology (e.g. a
    /// terrestrial corporate network); exclude the ASN.
    Outlier(&'static str),
    /// Too few tests to judge.
    Insufficient,
}

/// Latency-profile summary for one (operator, ASN).
#[derive(Debug, Clone)]
pub struct AsnProfile {
    pub operator: Operator,
    pub asn: Asn,
    /// Number of speed tests observed.
    pub tests: usize,
    /// Mass below `terrestrial_max`.
    pub terrestrial_mass: f64,
    /// Mass inside each expected band of the operator's access kind.
    pub expected_mass: f64,
    /// The verdict.
    pub verdict: AsnVerdict,
}

/// Minimum tests before a verdict is attempted.
pub const MIN_TESTS_FOR_VERDICT: usize = 25;

impl AsnProfile {
    /// The profile of one (operator, ASN) from its sample's counts at
    /// `bands`' edges: the one constructor every profile comes from.
    pub fn from_counts(
        operator: Operator,
        asn: Asn,
        counts: &BandCounts,
        bands: LatencyBands,
    ) -> AsnProfile {
        let tests = counts.n;
        if tests < MIN_TESTS_FOR_VERDICT {
            return AsnProfile {
                operator,
                asn,
                tests,
                terrestrial_mass: 0.0,
                expected_mass: 0.0,
                verdict: AsnVerdict::Insufficient,
            };
        }
        let edges = bands.edges();
        let access = access_of(operator);
        let terrestrial_mass = counts.mass_in(&edges, 0.0, bands.terrestrial_max);
        let expected_mass: f64 = access
            .orbits()
            .iter()
            .map(|&orbit| {
                let (lo, hi) = bands.band(orbit);
                counts.mass_in(&edges, lo, hi)
            })
            .sum();
        let verdict = judge(access, expected_mass, counts, &edges, bands);
        AsnProfile {
            operator,
            asn,
            tests,
            terrestrial_mass,
            expected_mass,
            verdict,
        }
    }
}

/// Stage 3: one profile per curated (operator, ASN) pair, in mapping
/// order, from the counts `counts_of` holds for the ASN (`None`: no
/// samples). No latency sample is read.
pub(crate) fn profiles_from_counts<'a>(
    mapping: &AsnMapping,
    bands: LatencyBands,
    counts_of: impl Fn(Asn) -> Option<&'a BandCounts>,
) -> Vec<AsnProfile> {
    mapping
        .mapping
        .iter()
        .flat_map(|(&op, asns)| asns.iter().map(move |&asn| (op, asn)))
        .map(|(op, asn)| {
            let counts = counts_of(asn).copied().unwrap_or_default();
            AsnProfile::from_counts(op, asn, &counts, bands)
        })
        .collect()
}

/// Validate one ASN's latency sample: count it at `bands`' edges and
/// build the profile from the counts.
pub fn profile_one(
    operator: Operator,
    asn: Asn,
    latencies: &[f64],
    bands: LatencyBands,
) -> AsnProfile {
    let counts = BandCounts::of(&bands.edges(), latencies);
    AsnProfile::from_counts(operator, asn, &counts, bands)
}

/// The verdict rules over one ASN's band counts at `edges`.
fn judge(
    access: AccessKind,
    expected_mass: f64,
    counts: &BandCounts,
    edges: &[f64],
    bands: LatencyBands,
) -> AsnVerdict {
    let mass_in = |lo, hi| counts.mass_in(edges, lo, hi);
    // A mapping whose traffic is mostly terrestrial is not satellite
    // subscriber traffic at all. The terrestrial cut-off is the lower
    // edge of the operator's lowest expected band (35 ms for LEO — a
    // bent pipe plus uplink scheduling cannot go faster; 100 ms cap for
    // everything else).
    let lowest_lo = access
        .orbits()
        .iter()
        .map(|&o| bands.band(o).0)
        .fold(f64::INFINITY, f64::min);
    let floor = bands.terrestrial_max.min(lowest_lo);
    if mass_in(0.0, floor) > 0.5 {
        return AsnVerdict::Outlier("terrestrial latency profile");
    }
    // Hybrid MEO+GEO access must actually show both modes.
    if access == AccessKind::MeoGeo {
        let (mlo, mhi) = bands.meo;
        let (glo, ghi) = bands.geo;
        let meo_mass = mass_in(mlo, mhi);
        let geo_mass = mass_in(glo, ghi);
        if meo_mass < 0.10 || geo_mass < 0.10 {
            return AsnVerdict::Outlier("expected bimodal MEO+GEO profile missing");
        }
    }
    if expected_mass >= 0.9 {
        AsnVerdict::Consistent
    } else if expected_mass >= 0.5 {
        AsnVerdict::MixedWithinAsn(1.0 - expected_mass)
    } else {
        AsnVerdict::Outlier("latency mass outside the advertised regime")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use sno_types::Rng;

    fn bands() -> LatencyBands {
        LatencyBands::default()
    }

    fn sample(mut f: impl FnMut(&mut Rng) -> f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| f(&mut rng)).collect()
    }

    #[test]
    fn clean_leo_asn_is_consistent() {
        let lat = sample(|r| r.normal_with(56.0, 8.0).max(25.0), 500, 1);
        let p = profile_one(Operator::Starlink, Asn(14593), &lat, bands());
        assert_eq!(p.verdict, AsnVerdict::Consistent);
        assert!(p.expected_mass > 0.9);
    }

    #[test]
    fn corporate_terrestrial_asn_is_outlier() {
        let lat = sample(|r| r.normal_with(18.0, 5.0).max(3.0), 300, 2);
        let p = profile_one(Operator::Starlink, Asn(27277), &lat, bands());
        // A pile of sub-25 ms latencies has little mass in the LEO band.
        assert!(
            matches!(p.verdict, AsnVerdict::Outlier(_)),
            "{:?}",
            p.verdict
        );
    }

    #[test]
    fn geo_with_terrestrial_majority_is_outlier() {
        let lat = sample(|r| r.normal_with(25.0, 6.0).max(5.0), 300, 3);
        let p = profile_one(Operator::Ses, Asn(201554), &lat, bands());
        assert_eq!(
            p.verdict,
            AsnVerdict::Outlier("terrestrial latency profile")
        );
    }

    #[test]
    fn unimodal_hybrid_is_outlier() {
        // SES advertises MEO+GEO but this ASN only shows GEO.
        let lat = sample(|r| r.normal_with(650.0, 40.0), 300, 4);
        let p = profile_one(Operator::Ses, Asn(201554), &lat, bands());
        assert_eq!(
            p.verdict,
            AsnVerdict::Outlier("expected bimodal MEO+GEO profile missing")
        );
    }

    #[test]
    fn genuine_hybrid_is_consistent() {
        let lat = sample(
            |r| {
                if r.chance(0.45) {
                    r.normal_with(280.0, 30.0)
                } else {
                    r.normal_with(680.0, 50.0)
                }
            },
            600,
            5,
        );
        let p = profile_one(Operator::Ses, Asn(12684), &lat, bands());
        assert_eq!(p.verdict, AsnVerdict::Consistent, "{p:?}");
    }

    #[test]
    fn mixed_geo_and_terrestrial_flagged_as_mixed() {
        // TelAlaska-style: 65% GEO, 35% wireline.
        let lat = sample(
            |r| {
                if r.chance(0.35) {
                    r.normal_with(30.0, 8.0).max(5.0)
                } else {
                    r.normal_with(680.0, 50.0)
                }
            },
            600,
            6,
        );
        let p = profile_one(Operator::Telalaska, Asn(10538), &lat, bands());
        match p.verdict {
            AsnVerdict::MixedWithinAsn(foreign) => {
                assert!((0.2..0.5).contains(&foreign), "foreign {foreign}")
            }
            other => panic!("expected Mixed, got {other:?}"),
        }
    }

    #[test]
    fn too_few_tests_is_insufficient() {
        let lat = vec![600.0; 10];
        let p = profile_one(Operator::Kacific, Asn(135409), &lat, bands());
        assert_eq!(p.verdict, AsnVerdict::Insufficient);
    }

    #[test]
    fn default_bands_have_seven_edges() {
        assert_eq!(
            bands().edges(),
            [0.0, 35.0, 100.0, 150.0, 300.0, 450.0, 1_200.0]
        );
        // NaN bounds drop out; a signed zero is the zero edge.
        let odd = LatencyBands {
            terrestrial_max: f64::NAN,
            leo: (-0.0, 300.0),
            ..bands()
        };
        assert_eq!(odd.edges(), [0.0, 150.0, 300.0, 450.0, 1_200.0]);
    }

    #[test]
    fn counts_merge_to_the_counts_of_the_union() {
        let edges = bands().edges();
        let lat = sample(|r| r.range_f64(-10.0, 1_300.0), 400, 7);
        let (head, tail) = lat.split_at(123);
        let mut merged = BandCounts::of(&edges, head);
        merged.merge(&BandCounts::of(&edges, tail));
        assert_eq!(merged, BandCounts::of(&edges, &lat));
        assert_eq!(merged.n(), lat.len());
        // Empty and NaN-bounded bands, and bounds that are not edges.
        assert_eq!(merged.mass_in(&edges, 450.0, 450.0), 0.0);
        assert_eq!(merged.mass_in(&edges, 1_200.0, 450.0), 0.0);
        assert_eq!(merged.mass_in(&edges, f64::NAN, 450.0), 0.0);
        assert_eq!(merged.mass_in(&edges, 0.0, 451.0), 0.0);
        assert_eq!(BandCounts::default().mass_in(&edges, 0.0, 100.0), 0.0);
    }

    #[test]
    fn sign_bit_nan_latencies_fall_in_no_band() {
        // 30 terrestrial, 70 GEO and 40 negative NaNs: every NaN counts
        // as a test but sits in no band, so a GEO ASN reads 30/140
        // terrestrial and 70/140 expected mass.
        let lat: Vec<f64> = [(50.0, 30), (600.0, 70), (-f64::NAN, 40)]
            .iter()
            .flat_map(|&(ms, n)| std::iter::repeat_n(ms, n))
            .collect();
        assert!(lat.iter().any(|l| l.is_nan() && l.is_sign_negative()));
        let p = profile_one(Operator::Viasat, Asn(13955), &lat, bands());
        assert_eq!(p.tests, 140);
        assert_eq!(p.terrestrial_mass, 30.0 / 140.0);
        assert_eq!(p.expected_mass, 70.0 / 140.0);
        assert_eq!(p.verdict, AsnVerdict::MixedWithinAsn(0.5));
    }

    #[test]
    fn full_corpus_validation_flags_the_planted_anomalies() {
        let corpus =
            sno_synth::MlabGenerator::new(sno_synth::SynthConfig::test_corpus()).generate();
        let profiles = Pipeline::new().run(&corpus.records).profiles;
        let verdict_of = |asn: u32| {
            profiles
                .iter()
                .find(|p| p.asn == Asn(asn))
                .map(|p| p.verdict.clone())
                .unwrap()
        };
        // The subscriber ASNs hold up.
        assert_eq!(verdict_of(14593), AsnVerdict::Consistent);
        // The planted anomalies are caught.
        assert!(matches!(verdict_of(27277), AsnVerdict::Outlier(_)));
        assert!(matches!(verdict_of(201554), AsnVerdict::Outlier(_)));
        // TelAlaska's single ASN is recognisably mixed.
        assert!(matches!(
            verdict_of(10538),
            AsnVerdict::MixedWithinAsn(_) | AsnVerdict::Consistent
        ));
    }
}
