//! Stage 3b–3c: strict per-`/24` filtering and its relaxation.
//!
//! With LEO operators already identified at ASN granularity, the paper
//! introduces **strict** per-prefix filters for the remaining regimes:
//! keep a `/24` only if it has at least 10 speed tests and *every* test
//! sits above the regime floor (MEO > 200 ms — the 10th percentile of
//! O3b's distribution; GEO > 500 ms, from prior work). This retains 25
//! prefixes across 6 operators but throws away almost everything — pure
//! prefixes die to a handful of outliers (Viasat's `75.105.63.0/24`),
//! and hybrid satellite-backup prefixes mix in terrestrial latencies by
//! design.
//!
//! The **relaxed** filter therefore derives, from the strictly-retained
//! prefixes, each covered operator's minimum plausible satellite
//! latency (548.9 ms for Viasat in the paper) and accepts any test above
//! it; operators not covered by the strict stage use the minimum across
//! covered operators (527 ms in the paper).
//!
//! The strict filter has one implementation, `StrictMemo::retain_strict`,
//! over the per-`(operator, /24)` buckets
//! [`CorpusStats`](crate::CorpusStats) folds. Each bucket's outcome is
//! memoized on its length and the outlier-ASN set, so a batch run (a
//! fresh memo) evaluates every bucket, and an online snapshot only the
//! buckets that grew since the last one.
//! [`strict_filter_from_buckets`] is that filter on a fresh memo.

use crate::validate::{AsnProfile, AsnVerdict};
use sno_stats::FiveNumber;
use sno_types::par;
use sno_types::{AccessKind, Asn, Operator, OrbitClass, Prefix24};
use std::collections::{BTreeMap, BTreeSet};

/// Minimum tests for a prefix to be considered by the strict filter.
pub const STRICT_MIN_TESTS: usize = 10;

/// MEO regime floor, ms (10th percentile of O3b's latency distribution).
pub const MEO_FLOOR_MS: f64 = 200.0;

/// GEO regime floor, ms (from prior SatCom measurements).
pub const GEO_FLOOR_MS: f64 = 500.0;

/// One strictly-retained prefix.
#[derive(Debug, Clone)]
pub struct PrefixStat {
    pub operator: Operator,
    pub prefix: Prefix24,
    /// Tests observed in this prefix.
    pub tests: usize,
    /// Minimum latency observed (feeds the relaxed thresholds).
    pub min_latency_ms: f64,
    /// Boxplot summary of the prefix's latencies.
    pub summary: FiveNumber,
}

/// Outcome of the strict stage.
#[derive(Debug, Clone)]
pub struct StrictOutcome {
    /// Prefixes that survived.
    pub retained: Vec<PrefixStat>,
    /// `/24`s examined (non-LEO operators, non-outlier ASNs).
    pub examined: usize,
    /// Prefixes that had enough tests but failed the latency-band test.
    pub rejected_band: usize,
    /// Prefixes with fewer than [`STRICT_MIN_TESTS`] tests.
    pub rejected_thin: usize,
}

impl StrictOutcome {
    /// Operators covered by at least one retained prefix.
    pub fn covered(&self) -> BTreeSet<Operator> {
        self.retained.iter().map(|p| p.operator).collect()
    }
}

/// The regime floor for an operator's advertised access.
fn floor_of(access: AccessKind) -> f64 {
    match access {
        AccessKind::Satellite(OrbitClass::Meo) | AccessKind::MeoGeo => MEO_FLOOR_MS,
        _ => GEO_FLOOR_MS,
    }
}

/// How the strict stage ruled on one `(operator, /24)` bucket.
///
/// A bucket's outcome depends only on its own samples and the current
/// outlier-ASN set, which makes it the unit [`StrictMemo`] memoizes:
/// buckets are append-only, so an unchanged `(sample count, outlier
/// set)` pair implies an unchanged outcome.
#[derive(Debug, Clone)]
enum BucketOutcome {
    /// Every sample came from an outlier ASN; the bucket was never
    /// examined.
    Empty,
    /// Fewer than [`STRICT_MIN_TESTS`] non-outlier samples.
    Thin,
    /// At least one sample at or below the regime floor.
    Band,
    /// Survived the strict filter.
    Retained(PrefixStat),
}

/// Evaluate the strict filter on a single `(operator, /24)` bucket.
fn strict_eval_bucket(
    op: Operator,
    prefix: Prefix24,
    samples: &[(Asn, f64)],
    outlier_asns: &BTreeSet<Asn>,
) -> BucketOutcome {
    let latencies: Vec<f64> = samples
        .iter()
        .filter(|(asn, _)| !outlier_asns.contains(asn))
        .map(|&(_, l)| l)
        .collect();
    if latencies.is_empty() {
        return BucketOutcome::Empty;
    }
    if latencies.len() < STRICT_MIN_TESTS {
        return BucketOutcome::Thin;
    }
    let floor = floor_of(sno_registry::sources::access_of(op));
    if latencies.iter().all(|&l| l > floor) {
        let min = latencies.iter().cloned().fold(f64::INFINITY, f64::min);
        match FiveNumber::of(&latencies) {
            Some(summary) => BucketOutcome::Retained(PrefixStat {
                operator: op,
                prefix,
                tests: latencies.len(),
                min_latency_ms: min,
                summary,
            }),
            // Unsummarisable means empty, which the thin-prefix gate
            // already counts.
            None => BucketOutcome::Thin,
        }
    } else {
        BucketOutcome::Band
    }
}

/// One borrowed `(key, samples)` entry of a per-`(operator, /24)`
/// bucket map, as sharded by [`StrictMemo::retain_strict`].
type PrefixEntry<'a> = (&'a (Operator, Prefix24), &'a Vec<(Asn, f64)>);

/// Fold per-bucket outcomes (in bucket order) into a [`StrictOutcome`].
fn collect_strict<'a>(outcomes: impl IntoIterator<Item = &'a BucketOutcome>) -> StrictOutcome {
    let mut retained = Vec::new();
    let mut examined = 0usize;
    let mut rejected_band = 0usize;
    let mut rejected_thin = 0usize;
    for outcome in outcomes {
        match outcome {
            BucketOutcome::Empty => continue,
            BucketOutcome::Thin => rejected_thin += 1,
            BucketOutcome::Band => rejected_band += 1,
            BucketOutcome::Retained(stat) => retained.push(stat.clone()),
        }
        examined += 1;
    }
    StrictOutcome {
        retained,
        examined,
        rejected_band,
        rejected_thin,
    }
}

/// The outlier-ASN set a profile pass implies (the strict stage drops
/// samples originating from these ASNs).
fn outlier_set(profiles: &[AsnProfile]) -> BTreeSet<Asn> {
    profiles
        .iter()
        .filter(|p| matches!(p.verdict, AsnVerdict::Outlier(_)))
        .map(|p| p.asn)
        .collect()
}

/// The strict filter with its per-bucket memo: the one implementation
/// of stage 3b. An empty memo evaluates every bucket
/// ([`strict_filter_from_buckets`], and each batch run); the online
/// identifier keeps one across snapshots and re-evaluates only the
/// buckets that grew, or every bucket when the outlier set shifted.
#[derive(Debug, Clone, Default)]
pub(crate) struct StrictMemo {
    /// `(operator, /24)` → (bucket length, outlier revision, outcome).
    buckets: BTreeMap<(Operator, Prefix24), (usize, u64, BucketOutcome)>,
    /// Bumped whenever the outlier-ASN set shifts (invalidates every
    /// entry at once).
    outlier_rev: u64,
    outliers: BTreeSet<Asn>,
}

impl StrictMemo {
    /// Run the strict filter over `by_prefix` under the outlier set
    /// `profiles` imply, reusing every outcome whose bucket length and
    /// outlier revision are unchanged. The buckets left to evaluate are
    /// sharded in [`par::DEFAULT_CHUNK`] runs on up to `threads`
    /// workers (`0` = all cores) and folded in bucket order, so the
    /// outcome is identical at every thread count and memo state.
    pub(crate) fn retain_strict(
        &mut self,
        profiles: &[AsnProfile],
        by_prefix: &BTreeMap<(Operator, Prefix24), Vec<(Asn, f64)>>,
        threads: usize,
    ) -> StrictOutcome {
        let outliers = outlier_set(profiles);
        if outliers != self.outliers {
            self.outlier_rev += 1;
            self.outliers = outliers;
        }
        // A memoized outcome holds while its bucket's length and the
        // outlier revision do; the rest are evaluated and memoized.
        let rev = self.outlier_rev;
        let mut outcomes: Vec<Option<BucketOutcome>> = by_prefix
            .iter()
            .map(|(key, samples)| {
                self.buckets.get(key).and_then(|(len, orev, out)| {
                    (*len == samples.len() && *orev == rev).then(|| out.clone())
                })
            })
            .collect();
        let stale: Vec<PrefixEntry> = by_prefix
            .iter()
            .zip(&outcomes)
            .filter_map(|(entry, outcome)| outcome.is_none().then_some(entry))
            .collect();
        let shards: Vec<&[PrefixEntry]> = stale.chunks(par::DEFAULT_CHUNK).collect();
        let outliers = &self.outliers;
        let fresh = par::shard_map(shards.len(), threads, |s| {
            let shard = shards.get(s).copied().unwrap_or_default();
            shard
                .iter()
                .map(|(&(op, prefix), samples)| strict_eval_bucket(op, prefix, samples, outliers))
                .collect::<Vec<_>>()
        });
        let mut fresh = fresh.into_iter().flatten();
        for ((&key, samples), outcome) in by_prefix.iter().zip(&mut outcomes) {
            if outcome.is_none() {
                *outcome = fresh.next();
                if let Some(out) = outcome {
                    self.buckets.insert(key, (samples.len(), rev, out.clone()));
                }
            }
        }
        collect_strict(outcomes.iter().flatten())
    }
}

/// The strict per-prefix filter over already-bucketed per-`(operator,
/// /24)` samples (non-LEO operators only, each bucket in record order,
/// tagged with the source ASN), as [`CorpusStats`](crate::CorpusStats)
/// folds them: `StrictMemo::retain_strict` on an empty memo, with
/// `threads` workers (`0` = all cores). The buckets are accumulated
/// before stage 3 has ruled on any ASN, so outlier-ASN samples are
/// dropped here, and buckets left empty by that cut were never
/// examined.
pub fn strict_filter_from_buckets(
    profiles: &[AsnProfile],
    by_prefix: &BTreeMap<(Operator, Prefix24), Vec<(Asn, f64)>>,
    threads: usize,
) -> StrictOutcome {
    StrictMemo::default().retain_strict(profiles, by_prefix, threads)
}

/// Per-operator relaxed thresholds plus the default for operators the
/// strict stage did not cover. Returns `(per_operator, default)`.
///
/// Returns an empty map and `f64::INFINITY` when nothing was retained
/// (then nothing can be relaxed either).
pub fn relaxed_thresholds(strict: &StrictOutcome) -> (BTreeMap<Operator, f64>, f64) {
    let mut per_op: BTreeMap<Operator, f64> = BTreeMap::new();
    for stat in &strict.retained {
        per_op
            .entry(stat.operator)
            .and_modify(|m| *m = m.min(stat.min_latency_ms))
            .or_insert(stat.min_latency_ms);
    }
    let default = per_op.values().cloned().fold(f64::INFINITY, f64::min);
    (per_op, default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::validate::{profile_one, LatencyBands};
    use sno_synth::{MlabGenerator, SynthConfig};

    fn run_stages() -> (StrictOutcome, BTreeMap<Operator, f64>, f64) {
        let corpus = MlabGenerator::new(SynthConfig::test_corpus()).generate();
        let report = Pipeline::new().run(&corpus.records);
        (report.strict, report.thresholds, report.default_threshold)
    }

    #[test]
    fn strict_stage_retains_a_handful_of_prefixes() {
        let (strict, ..) = run_stages();
        // Paper: 25 prefixes from 6 SNOs. Shape: a few dozen prefixes,
        // a small set of operators, with plenty rejected.
        assert!(
            (10..=45).contains(&strict.retained.len()),
            "retained {} prefixes",
            strict.retained.len()
        );
        let covered = strict.covered();
        assert!((4..=8).contains(&covered.len()), "covered {covered:?}");
        assert!(strict.rejected_thin > 0, "thin prefixes must exist");
    }

    #[test]
    fn high_volume_geo_operators_are_covered() {
        let (strict, ..) = run_stages();
        let covered = strict.covered();
        assert!(covered.contains(&Operator::Viasat));
        assert!(covered.contains(&Operator::Ses));
        // LEO operators never enter the prefix stage.
        assert!(!covered.contains(&Operator::Starlink));
        assert!(!covered.contains(&Operator::Oneweb));
    }

    #[test]
    fn viasat_outlier_prefix_is_discarded_by_strict() {
        let (strict, ..) = run_stages();
        let has_outlier_prefix = strict
            .retained
            .iter()
            .any(|p| p.prefix == Prefix24::new(75, 105, 63));
        assert!(
            !has_outlier_prefix,
            "75.105.63.0/24 must fall to its low-latency outliers"
        );
        // The hybrid prefixes cannot survive either.
        for c in [115u8, 116, 117] {
            assert!(!strict
                .retained
                .iter()
                .any(|p| p.prefix == Prefix24::new(45, 232, c)));
        }
    }

    #[test]
    fn relaxed_thresholds_sit_above_the_geo_floor() {
        let (_, per_op, default) = run_stages();
        let viasat = per_op[&Operator::Viasat];
        assert!(viasat > GEO_FLOOR_MS, "viasat threshold {viasat}");
        assert!(default.is_finite());
        // The default is the minimum across covered operators — SES's
        // MEO prefixes pull it down toward the MEO floor.
        assert!(default <= viasat);
        assert!(default > MEO_FLOOR_MS);
    }

    #[test]
    fn memo_follows_the_outlier_set_when_no_bucket_grows() {
        // One SES /24 that only AS201554 feeds: retained while the ASN
        // has too few tests to judge, never examined once it is an
        // outlier. The bucket does not change in between, so only the
        // memo's outlier revision can tell the calls apart.
        let profile = |tests| {
            let latencies = vec![650.0; tests];
            profile_one(
                Operator::Ses,
                Asn(201554),
                &latencies,
                LatencyBands::default(),
            )
        };
        let by_prefix = BTreeMap::from([(
            (Operator::Ses, Prefix24::new(10, 0, 0)),
            vec![(Asn(201554), 650.0); 12],
        )]);
        let examined =
            |tests| strict_filter_from_buckets(&[profile(tests)], &by_prefix, 1).examined;
        assert_eq!((examined(10), examined(30)), (1, 0));
        let mut memo = StrictMemo::default();
        for tests in [10, 30, 10] {
            let profiles = [profile(tests)];
            let fresh = strict_filter_from_buckets(&profiles, &by_prefix, 1);
            assert_eq!(
                format!("{:?}", memo.retain_strict(&profiles, &by_prefix, 1)),
                format!("{fresh:?}"),
                "{tests} tests"
            );
        }
    }

    #[test]
    fn empty_strict_outcome_yields_infinite_default() {
        let strict = StrictOutcome {
            retained: Vec::new(),
            examined: 0,
            rejected_band: 0,
            rejected_thin: 0,
        };
        let (per_op, default) = relaxed_thresholds(&strict);
        assert!(per_op.is_empty());
        assert!(default.is_infinite());
    }
}
