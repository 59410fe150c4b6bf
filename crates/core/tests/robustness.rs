//! Failure injection: the pipeline must stay correct — and never panic —
//! on degenerate, hostile or malformed corpora.

use sno_core::pipeline::Pipeline;
use sno_core::validate::{profile_one, AsnVerdict, LatencyBands};
use sno_types::records::NdtRecord;
use sno_types::{Asn, Ipv4, Mbps, Millis, Operator, Timestamp};

fn record(asn: u32, latency: f64) -> NdtRecord {
    NdtRecord {
        timestamp: Timestamp(1_000),
        client: Ipv4::new(61, 0, 0, 10),
        asn: Asn(asn),
        latency_p5: Millis(latency),
        jitter_p95: Millis(latency * 0.3),
        retrans_fraction: 0.01,
        download: Mbps(10.0),
    }
}

#[test]
fn empty_corpus_yields_empty_catalog() {
    let report = Pipeline::new().run(&[]);
    assert_eq!(report.sno_count(), 0);
    assert_eq!(report.accepted, Some(Vec::new()));
    assert!(report.strict.retained.is_empty());
    assert!(report.default_threshold.is_infinite());
}

#[test]
fn single_record_corpus() {
    let recs = vec![record(14593, 55.0)];
    let report = Pipeline::new().run(&recs);
    // One LEO record from a known ASN with too little data for a
    // verdict: LEO acceptance is ASN-level, so it is kept.
    assert_eq!(report.accepted, Some(vec![Some(Operator::Starlink)]));
}

#[test]
fn unknown_asns_are_ignored_not_fatal() {
    let recs = vec![record(999_999, 60.0), record(0, 700.0), record(14593, 55.0)];
    let report = Pipeline::new().run(&recs);
    assert_eq!(
        report.accepted,
        Some(vec![None, None, Some(Operator::Starlink)])
    );
    assert_eq!(report.sno_count(), 1);
}

#[test]
fn extreme_latencies_do_not_panic() {
    let mut recs = Vec::new();
    for &lat in &[1e-6, 0.5, 1.0, 1e5, 1e9] {
        recs.push(record(14593, lat));
        recs.push(record(13955, lat));
        recs.push(record(60725, lat));
    }
    let report = Pipeline::new().run(&recs);
    // GEO records above the huge thresholds may or may not pass; the
    // point is graceful handling. A 1e9 ms "GEO" record has no sane
    // threshold to compare against because nothing was retained, so the
    // default (infinite) rejects it.
    assert_eq!(report.accepted.map(|a| a.len()), Some(recs.len()));
}

#[test]
fn identical_records_mass_duplicated() {
    // A /24 stuffed with ten thousand byte-identical GEO tests must pass
    // the strict filter without numeric issues (zero variance KDE).
    let recs = vec![record(13955, 650.0); 10_000];
    let report = Pipeline::new().run(&recs);
    assert_eq!(report.accepted_count(), 10_000);
    assert_eq!(report.catalog[0], (Operator::Viasat, 10_000));
}

#[test]
fn adversarial_mixture_is_contained() {
    // An attacker-ish ASN profile: a Viasat ASN flooded with terrestrial
    // latencies. The KDE stage must flag it and the pipeline must drop
    // every record rather than pollute the catalog.
    let recs: Vec<NdtRecord> = (0..500).map(|_| record(25222, 12.0)).collect();
    let report = Pipeline::new().run(&recs);
    assert_eq!(report.accepted_count(), 0);
}

#[test]
fn verdicts_on_degenerate_samples() {
    let bands = LatencyBands::default();
    // Zero-spread sample.
    let p = profile_one(Operator::Viasat, Asn(13955), &vec![600.0; 100], bands);
    assert_eq!(p.verdict, AsnVerdict::Consistent);
    // Two points at the regime edge.
    let p = profile_one(Operator::Viasat, Asn(13955), &[450.0, 450.0], bands);
    assert_eq!(p.verdict, AsnVerdict::Insufficient);
    // Empty sample.
    let p = profile_one(Operator::Viasat, Asn(13955), &[], bands);
    assert_eq!(p.verdict, AsnVerdict::Insufficient);
}

#[test]
fn timestamps_out_of_order_are_fine() {
    // Analyses sort internally; pipeline acceptance is order-free.
    let mut recs: Vec<NdtRecord> = (0..200)
        .map(|i| {
            let mut r = record(14593, 50.0 + (i % 30) as f64);
            r.timestamp = Timestamp(1_000_000 - i * 1_000);
            r
        })
        .collect();
    let report_sorted = {
        let mut sorted = recs.clone();
        sorted.sort_by_key(|r| r.timestamp);
        Pipeline::new().run(&sorted)
    };
    let report_shuffled = Pipeline::new().run(&recs);
    assert_eq!(
        report_sorted.catalog, report_shuffled.catalog,
        "acceptance must not depend on record order"
    );
    recs.reverse();
    let report_reversed = Pipeline::new().run(&recs);
    assert_eq!(report_sorted.catalog, report_reversed.catalog);
}

#[test]
fn all_operators_simultaneously_terrestrial_collapses_catalog() {
    // If every mapped ASN suddenly shows terrestrial traffic, the KDE
    // stage must zero out the whole catalog (fail closed).
    let mut recs = Vec::new();
    for profile in sno_registry::PROFILES {
        for &asn in profile.asns {
            for _ in 0..40 {
                recs.push(record(asn, 15.0));
            }
        }
    }
    let report = Pipeline::new().run(&recs);
    assert_eq!(
        report.accepted_count(),
        0,
        "terrestrial-everything must be fully rejected"
    );
}
