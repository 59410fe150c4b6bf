//! Scoring the pipeline against ground truth.
//!
//! The paper cannot quantify its methodology's accuracy ("lack of ground
//! truth", Section 3.4). The simulator can: the generators know each
//! record's true link kind, so the pipeline — which never sees that
//! truth — can be scored like a classifier. This module packages that
//! evaluation for tests, examples and the filtering ablation.

use sno_types::{LinkKind, Operator};
use std::fmt;

/// Confusion counts for satellite-vs-not attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Satellite record accepted (correct).
    pub true_positive: u64,
    /// Satellite record rejected (missed).
    pub false_negative: u64,
    /// Terrestrial/backup-mode record accepted (contamination).
    pub false_positive: u64,
    /// Terrestrial record rejected (correct).
    pub true_negative: u64,
}

impl Confusion {
    /// Fraction of genuine satellite records recovered.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positive + self.false_negative;
        if denom == 0 {
            return 0.0;
        }
        self.true_positive as f64 / denom as f64
    }

    /// Fraction of accepted records that are genuinely satellite.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positive + self.false_positive;
        if denom == 0 {
            return 0.0;
        }
        self.true_positive as f64 / denom as f64
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }

    /// Total records scored.
    pub fn total(&self) -> u64 {
        self.true_positive + self.false_negative + self.false_positive + self.true_negative
    }
}

impl fmt::Display for Confusion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "precision {:.3}, recall {:.3}, f1 {:.3} (tp {}, fp {}, fn {}, tn {})",
            self.precision(),
            self.recall(),
            self.f1(),
            self.true_positive,
            self.false_positive,
            self.false_negative,
            self.true_negative
        )
    }
}

/// Is a ground-truth link kind "satellite traffic the pipeline should
/// keep"? Hybrid-backup lines count per-session: the satellite sessions
/// are generated with `LinkKind::Satellite`, the terrestrial/DSL modes
/// are what the pipeline is supposed to drop — but a `HybridBackup`
/// truth means the *record itself* rode the satellite backup, so it
/// counts as satellite.
pub fn is_satellite_truth(kind: LinkKind) -> bool {
    kind.touches_satellite()
}

/// Per-record ground truth: `(true operator, true link kind)`. Corpus
/// generators provide this (e.g. `sno-synth`'s `SessionTruth` converts
/// via `From`); the pipeline never sees it.
pub type Truth = (Operator, LinkKind);

/// Score per-record acceptance (the report's dense `accepted` vector)
/// against per-record ground truth.
///
/// # Panics
/// Panics if `truth` and `accepted` disagree in length (they must
/// describe the same record slice).
pub fn score(truth: &[Truth], accepted: &[Option<Operator>]) -> Confusion {
    assert_eq!(
        truth.len(),
        accepted.len(),
        "truth and report must cover the same records"
    );
    let mut c = Confusion::default();
    for (&(_, kind), acc) in truth.iter().zip(accepted) {
        match (is_satellite_truth(kind), acc.is_some()) {
            (true, true) => c.true_positive += 1,
            (true, false) => c.false_negative += 1,
            (false, true) => c.false_positive += 1,
            (false, false) => c.true_negative += 1,
        }
    }
    c
}

/// Per-operator attribution accuracy: of the records the pipeline
/// accepted, how many were attributed to their true operator?
pub fn attribution_accuracy(truth: &[Truth], accepted: &[Option<Operator>]) -> f64 {
    let mut correct = 0u64;
    let mut kept = 0u64;
    for (&(op_true, _), acc) in truth.iter().zip(accepted) {
        if let Some(op) = acc {
            kept += 1;
            if *op == op_true {
                correct += 1;
            }
        }
    }
    if kept == 0 {
        0.0
    } else {
        correct as f64 / kept as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use sno_synth::{MlabGenerator, SynthConfig};

    #[test]
    fn confusion_math() {
        let c = Confusion {
            true_positive: 90,
            false_negative: 10,
            false_positive: 5,
            true_negative: 95,
        };
        assert!((c.recall() - 0.9).abs() < 1e-12);
        assert!((c.precision() - 90.0 / 95.0).abs() < 1e-12);
        assert!(c.f1() > 0.9 && c.f1() < 0.95);
        assert_eq!(c.total(), 200);
        let text = c.to_string();
        assert!(text.contains("recall 0.900"), "{text}");
    }

    #[test]
    fn empty_confusion_is_zero_not_nan() {
        let c = Confusion::default();
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    fn truths(raw: &[sno_synth::mlab::SessionTruth]) -> Vec<Truth> {
        raw.iter().map(|t| (t.operator, t.kind)).collect()
    }

    #[test]
    fn pipeline_scores_well_on_the_synthetic_corpus() {
        let (corpus, raw) = MlabGenerator::new(SynthConfig::test_corpus()).generate_with_truth();
        let truth = truths(&raw);
        let report = Pipeline::new().run(&corpus.records);
        let accepted = report.accepted.as_deref().expect("run keeps it");
        let c = score(&truth, accepted);
        assert!(c.recall() > 0.9, "{c}");
        assert!(c.precision() > 0.95, "{c}");
        assert!(c.f1() > 0.92, "{c}");
        // Attribution: whatever is accepted lands on the right operator
        // (ASNs do not overlap between operators).
        assert_eq!(attribution_accuracy(&truth, accepted), 1.0);
    }

    #[test]
    #[should_panic(expected = "same records")]
    fn mismatched_lengths_rejected() {
        let (corpus, raw) = MlabGenerator::new(SynthConfig::test_corpus()).generate_with_truth();
        let truth = truths(&raw);
        let report = Pipeline::new().run(&corpus.records);
        let accepted = report.accepted.as_deref().expect("run keeps it");
        let _ = score(&truth[..truth.len() - 1], accepted);
    }
}
