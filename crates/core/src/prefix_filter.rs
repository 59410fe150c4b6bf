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
//! [`CorpusStats`](crate::CorpusStats) folds. Each bucket keeps a running
//! state with its counted latencies sorted, so a batch run (a fresh
//! memo) folds every bucket whole, once, and an online snapshot sorts
//! only the samples that arrived since the last one and merges them in;
//! a shift in the outlier-ASN set folds every bucket whole again.
//! [`strict_filter_from_buckets`] is that filter on a fresh memo.

use crate::validate::{AsnProfile, AsnVerdict};
use sno_stats::FiveNumber;
use sno_types::par;
use sno_types::{AccessKind, Asn, Operator, OrbitClass, Prefix24};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, PoisonError};

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

/// The strict stage's running state for one `(operator, /24)` bucket,
/// folded from the bucket's samples in record order. Buckets are
/// append-only, so a carried accumulator folds only the samples that
/// arrived since its last call, and its outcome is read off in O(1).
#[derive(Debug, Clone, Default)]
struct BucketAcc {
    /// Samples of the bucket folded so far.
    folded: usize,
    /// Of those, samples from non-outlier ASNs: the tests the strict
    /// stage counts.
    kept: usize,
    /// Set once a kept sample sat at or below the regime floor (NaN
    /// included, since `l > floor` is false for it). Sticky: the bucket
    /// can never pass again.
    at_floor: bool,
    /// The kept latencies in `f64::total_cmp` order while `at_floor` is
    /// clear; emptied when it is set.
    sorted: Vec<f64>,
}

impl BucketAcc {
    /// Fold in the samples `samples` gained since the last call, or all
    /// of them, from empty, if the bucket is shorter than what was
    /// folded.
    fn fold_tail(&mut self, samples: &[(Asn, f64)], floor: f64, outliers: &BTreeSet<Asn>) {
        if samples.len() < self.folded {
            *self = BucketAcc::default();
        }
        let tail = samples.get(self.folded..).unwrap_or_default();
        self.folded = samples.len();
        let kept = tail
            .iter()
            .filter(|(asn, _)| !outliers.contains(asn))
            .map(|&(_, l)| l);
        if self.at_floor {
            self.kept += kept.count();
            return;
        }
        let mut fresh: Vec<f64> = kept.collect();
        self.kept += fresh.len();
        if !fresh.iter().all(|&l| l > floor) {
            self.at_floor = true;
            self.sorted = Vec::new();
            return;
        }
        fresh.sort_by(f64::total_cmp);
        if self.sorted.is_empty() {
            self.sorted = fresh;
        } else {
            merge_sorted_tail(&mut self.sorted, &fresh);
        }
    }

    /// Count this bucket's outcome into `strict`. A bucket whose every
    /// sample came from an outlier ASN was never examined.
    fn tally(&self, operator: Operator, prefix: Prefix24, strict: &mut StrictOutcome) {
        if self.kept == 0 {
            return;
        }
        strict.examined += 1;
        if self.kept < STRICT_MIN_TESTS {
            strict.rejected_thin += 1;
            return;
        }
        match FiveNumber::from_sorted(&self.sorted) {
            Some(summary) if !self.at_floor => strict.retained.push(PrefixStat {
                operator,
                prefix,
                tests: self.kept,
                min_latency_ms: summary.min,
                summary,
            }),
            _ => strict.rejected_band += 1,
        }
    }
}

/// Merge the `total_cmp`-sorted `tail` into the sorted `sorted` in
/// place: grow it by the tail's length and fill the slots from the
/// back with the larger of the two runs' last unmerged values, so the
/// values below the tail's minimum never move. Values equal under
/// `total_cmp` have identical bits, so the result equals sorting the
/// concatenation.
fn merge_sorted_tail(sorted: &mut Vec<f64>, tail: &[f64]) {
    let mut head = sorted.len();
    sorted.extend_from_slice(tail);
    let mut rest = tail;
    for slot in (0..sorted.len()).rev() {
        let Some((&last, before)) = rest.split_last() else {
            break;
        };
        let value = match head.checked_sub(1).and_then(|h| sorted.get(h)) {
            Some(&h) if h.total_cmp(&last).is_gt() => {
                head -= 1;
                h
            }
            _ => {
                rest = before;
                last
            }
        };
        if let Some(out) = sorted.get_mut(slot) {
            *out = value;
        }
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

/// One bucket paired with its accumulator, as sharded by
/// [`StrictMemo::retain_strict`].
type Pairing<'a> = (
    &'a (Operator, Prefix24),
    &'a [(Asn, f64)],
    &'a mut BucketAcc,
);

/// The strict filter with its per-bucket accumulators: the one
/// implementation of stage 3b. An empty memo folds every bucket whole
/// ([`strict_filter_from_buckets`], and each batch run); the online
/// identifier keeps one across snapshots and folds only the samples
/// each bucket gained since, or every bucket whole again when the
/// outlier set shifted.
#[derive(Debug, Clone, Default)]
pub(crate) struct StrictMemo {
    /// `(operator, /24)` → the bucket's running strict state.
    buckets: BTreeMap<(Operator, Prefix24), BucketAcc>,
    /// The outlier-ASN set every accumulator was folded under.
    outliers: BTreeSet<Asn>,
}

impl StrictMemo {
    /// Run the strict filter over `by_prefix` under the outlier set
    /// `profiles` imply, folding into each bucket's accumulator only
    /// the samples it has not folded yet. The buckets that grew are
    /// sharded in [`par::DEFAULT_CHUNK`] runs on up to `threads`
    /// workers (`0` = all cores) and the outcomes read in bucket
    /// order, so the outcome is identical at every thread count and
    /// memo state.
    pub(crate) fn retain_strict(
        &mut self,
        profiles: &[AsnProfile],
        by_prefix: &BTreeMap<(Operator, Prefix24), Vec<(Asn, f64)>>,
        threads: usize,
    ) -> StrictOutcome {
        let outliers = outlier_set(profiles);
        if outliers != self.outliers {
            // Any kept sample may now be dropped, or the reverse.
            self.buckets.clear();
            self.outliers = outliers;
        }
        if self.buckets.is_empty() {
            self.buckets = by_prefix
                .keys()
                .map(|&key| (key, BucketAcc::default()))
                .collect();
        } else {
            // Both key sets are sorted: one merge walk finds the new ones.
            let mut known = self.buckets.keys().peekable();
            let lacking: Vec<(Operator, Prefix24)> = by_prefix
                .keys()
                .filter(|&key| {
                    while known.next_if(|&k| k < key).is_some() {}
                    known.next_if_eq(&key).is_none()
                })
                .copied()
                .collect();
            self.buckets
                .extend(lacking.into_iter().map(|key| (key, BucketAcc::default())));
        }

        // Pair the buckets with their accumulators in one lockstep walk;
        // the memo holds every key of `by_prefix`, and skips any other.
        let mut accs = self.buckets.iter_mut();
        let mut pairs: Vec<Pairing> = by_prefix
            .iter()
            .filter_map(|(key, samples)| {
                let (_, acc) = accs.find(|(k, _)| *k == key)?;
                Some((key, samples.as_slice(), acc))
            })
            .collect();
        let mut grown: Vec<&mut Pairing> = pairs
            .iter_mut()
            .filter(|(_, samples, acc)| acc.folded != samples.len())
            .collect();
        let shards: Vec<Mutex<&mut [&mut Pairing]>> = grown
            .chunks_mut(par::DEFAULT_CHUNK)
            .map(Mutex::new)
            .collect();
        let outliers = &self.outliers;
        par::shard_map(shards.len(), threads, |s| {
            let Some(shard) = shards.get(s) else {
                return;
            };
            let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (&(op, _), samples, acc) in shard.iter_mut() {
                let floor = floor_of(sno_registry::sources::access_of(op));
                acc.fold_tail(samples, floor, outliers);
            }
        });

        let mut strict = StrictOutcome {
            retained: Vec::new(),
            examined: 0,
            rejected_band: 0,
            rejected_thin: 0,
        };
        for (&(op, prefix), _, acc) in &pairs {
            acc.tally(op, prefix, &mut strict);
        }
        strict
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
    fn carried_memo_folds_appends_like_a_fresh_one() {
        // One MEO-floor operator (SES, 200 ms) and one GEO-floor one
        // (HughesNet, 500 ms), each with a kept and an outlier ASN and
        // four /24s: `grow` passes 9 -> 10 -> 11 kept samples, takes a
        // new minimum and a duplicate, then a sample at the floor;
        // `pos_nan` and `neg_nan` take a NaN of either sign; `lone` only
        // ever hears from the outlier ASN. Outlier samples, some below
        // the floor, are interleaved throughout.
        let regimes = [
            (Operator::Ses, MEO_FLOOR_MS, Asn(12684), Asn(201554)),
            (Operator::Hughes, GEO_FLOOR_MS, Asn(28613), Asn(1358)),
        ];
        let profiles = [
            profile_one(
                Operator::Ses,
                Asn(201554),
                &[650.0; 30],
                LatencyBands::default(),
            ),
            profile_one(
                Operator::Hughes,
                Asn(1358),
                &[20.0; 30],
                LatencyBands::default(),
            ),
        ];
        assert!(profiles
            .iter()
            .all(|p| matches!(p.verdict, AsnVerdict::Outlier(_))));
        let [grow, pos_nan, neg_nan, lone] = [0, 1, 2, 3].map(|c| Prefix24::new(10, 0, c));
        // Per step and regime: (prefix, outlier?, latency above the floor).
        let steps: Vec<Vec<(Prefix24, bool, f64)>> = vec![
            (0..9)
                .flat_map(|i| {
                    let kept = (grow, false, 100.0 + 10.0 * f64::from(i));
                    let outlier = (grow, true, -150.0);
                    std::iter::once(kept).chain((i % 3 == 0).then_some(outlier))
                })
                .chain((0..12).map(|i| (pos_nan, false, 20.0 + f64::from(i))))
                .chain((0..12).map(|i| (neg_nan, false, 40.0 + f64::from(i))))
                .chain([(lone, true, -100.0); 5])
                .collect(),
            vec![
                (grow, true, -1.0),
                (grow, false, 190.0),
                (pos_nan, false, f64::NAN),
                (lone, true, 1.0),
            ],
            vec![
                (grow, false, 200.0),
                (neg_nan, true, -f64::NAN),
                (neg_nan, false, -f64::NAN),
                (pos_nan, false, 500.0),
            ],
            vec![
                (grow, false, 1.0),
                (grow, true, 0.0),
                (grow, false, 155.0),
                (grow, false, 500.0),
            ],
            vec![(grow, false, 150.0), (grow, true, -300.0)],
            vec![(grow, true, 50.0), (grow, false, 0.0)],
            vec![(grow, false, 300.0), (grow, false, 400.0)],
        ];
        // (retained, band, thin, examined) over both regimes, and the
        // `grow` prefixes' test count while they are retained.
        let expect = [
            ((4, 0, 2, 6), None),
            ((4, 2, 0, 6), Some(10)),
            ((2, 4, 0, 6), Some(11)),
            ((2, 4, 0, 6), Some(14)),
            ((2, 4, 0, 6), Some(15)),
            ((0, 6, 0, 6), None),
            ((0, 6, 0, 6), None),
        ];
        let mut by_prefix: BTreeMap<(Operator, Prefix24), Vec<(Asn, f64)>> = BTreeMap::new();
        let mut memo = StrictMemo::default();
        for (step, (appends, (counts, grow_tests))) in steps.iter().zip(expect).enumerate() {
            for &(op, floor, kept, outlier) in &regimes {
                for &(prefix, from_outlier, above) in appends {
                    let asn = if from_outlier { outlier } else { kept };
                    let latency = if above.is_nan() { above } else { floor + above };
                    by_prefix
                        .entry((op, prefix))
                        .or_default()
                        .push((asn, latency));
                }
            }
            let carried = memo.retain_strict(&profiles, &by_prefix, 1);
            let fresh = strict_filter_from_buckets(&profiles, &by_prefix, 1);
            assert_eq!(format!("{carried:?}"), format!("{fresh:?}"), "step {step}");
            let got = (
                carried.retained.len(),
                carried.rejected_band,
                carried.rejected_thin,
                carried.examined,
            );
            assert_eq!(got, counts, "step {step}");
            let grown: Vec<usize> = carried
                .retained
                .iter()
                .filter(|p| p.prefix == grow)
                .map(|p| p.tests)
                .collect();
            assert_eq!(
                grown,
                grow_tests.map_or(vec![], |t| vec![t; 2]),
                "step {step}"
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
