//! End-to-end integration: generate the corpora, run the pipeline and
//! analyses across crates, and check the paper's headline claims hold
//! together — not just within each crate's unit tests.

use sno_dissect::core::analysis::{self, OrbitGroup};
use sno_dissect::core::pipeline::Pipeline;
use sno_dissect::core::StreamedReport;
use sno_dissect::synth::{MlabCorpus, MlabGenerator, SynthConfig};
use sno_dissect::types::{Operator, OrbitClass};
use std::sync::OnceLock;

fn dense(report: &StreamedReport) -> &[Option<Operator>] {
    report
        .accepted
        .as_deref()
        .expect("run keeps the dense vector")
}

fn fixture() -> &'static (MlabCorpus, StreamedReport) {
    static FIXTURE: OnceLock<(MlabCorpus, StreamedReport)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = MlabGenerator::new(SynthConfig::test_corpus()).generate();
        let report = Pipeline::new().run(&corpus.records);
        (corpus, report)
    })
}

#[test]
fn the_full_story_holds_together() {
    let (corpus, report) = fixture();
    let accepted = dense(report);

    // Table 1: 18 SNOs, Starlink dominant.
    assert_eq!(report.sno_count(), 18);
    assert_eq!(report.catalog[0].0, Operator::Starlink);
    let starlink_share = report.catalog[0].1 as f64 / report.accepted_count() as f64;
    // At the default scale Starlink carries ~75% of accepted records; at
    // the down-scaled test corpus the operator floors dilute it, but it
    // must still be the plurality by a wide margin.
    assert!(starlink_share > 0.35, "Starlink share {starlink_share}");

    // Figure 3c: the latency ladder LEO < MEO < GEO.
    let ladder = analysis::latency_by_operator(&corpus.records, accepted);
    let med = |op: Operator| {
        ladder
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, s)| s.median)
            .unwrap()
    };
    assert!(med(Operator::Starlink) < med(Operator::Oneweb));
    assert!(med(Operator::Oneweb) < med(Operator::O3b));
    assert!(med(Operator::O3b) < med(Operator::Ssi));

    // Figure 4b: relative jitter inverts the latency ordering...
    let jitter = analysis::jitter_by_orbit(&corpus.records, accepted);
    let leo_var = jitter.median_variation(OrbitClass::Leo).unwrap();
    let geo_var = jitter.median_variation(OrbitClass::Geo).unwrap();
    assert!(leo_var > geo_var, "LEO {leo_var} vs GEO {geo_var}");
    // ...while absolute jitter does not.
    let leo_abs = jitter.tail_at_least(OrbitClass::Leo, 100.0).unwrap();
    let geo_abs = jitter.tail_at_least(OrbitClass::Geo, 100.0).unwrap();
    assert!(geo_abs > 0.6 && leo_abs < 0.2);

    // Figure 4c: PEPs flatten GEO retransmissions down to LEO levels.
    let retrans = analysis::retransmissions(&corpus.records, accepted);
    let med_of = |g: OrbitGroup| sno_dissect::stats::median(&retrans[&g]).unwrap();
    assert!(med_of(OrbitGroup::GeoOther) > 0.03);
    assert!(med_of(OrbitGroup::GeoPep) < med_of(OrbitGroup::Leo) + 0.01);
    assert!(med_of(OrbitGroup::Leo) < med_of(OrbitGroup::Meo));
}

#[test]
fn pipeline_accuracy_against_ground_truth() {
    // The identification pipeline never sees the generator's ground
    // truth; score it like a classifier.
    let (corpus, truth) = MlabGenerator::new(SynthConfig::test_corpus()).generate_with_truth();
    let report = Pipeline::new().run(&corpus.records);

    let mut tp = 0usize; // satellite accepted
    let mut fn_ = 0usize; // satellite rejected
    let mut fp = 0usize; // non-satellite accepted
    let mut tn = 0usize; // non-satellite rejected
    for (t, acc) in truth.iter().zip(dense(&report)) {
        let is_sat = matches!(t.kind, sno_dissect::types::LinkKind::Satellite(_));
        match (is_sat, acc.is_some()) {
            (true, true) => tp += 1,
            (true, false) => fn_ += 1,
            (false, true) => fp += 1,
            (false, false) => tn += 1,
        }
    }
    let recall = tp as f64 / (tp + fn_) as f64;
    // Precision over the records whose satellite-ness is in question:
    // hybrid-backup satellite sessions count as satellite in `truth`,
    // so the only false positives are terrestrial/degraded lines.
    let precision = tp as f64 / (tp + fp) as f64;
    assert!(recall > 0.9, "recall {recall} (tp {tp}, fn {fn_})");
    assert!(precision > 0.95, "precision {precision} (fp {fp}, tn {tn})");
}

#[test]
fn atlas_and_mlab_agree_on_starlink_latency() {
    // Two independent vantage systems measure the same network: the
    // RIPE probes' PoP RTT and the NDT p5 latency must land in the same
    // regime (NDT adds the server tail, so it sits a bit higher).
    let (corpus, report) = fixture();
    let ladder = analysis::latency_by_operator(&corpus.records, dense(report));
    let ndt_median = ladder
        .iter()
        .find(|(o, _)| *o == Operator::Starlink)
        .map(|(_, s)| s.median)
        .unwrap();

    let atlas = sno_dissect::synth::AtlasGenerator::new(SynthConfig::test_corpus()).generate();
    let infos: Vec<_> = atlas
        .probes
        .iter()
        .map(|p| sno_dissect::atlas::ProbeInfo {
            id: p.id,
            country: p.country,
            state: p.state,
        })
        .collect();
    let rows = sno_dissect::atlas::pop_rtt_by_country(&atlas.traceroutes, &infos);
    let atlas_median =
        sno_dissect::stats::median(&rows.iter().map(|(_, s)| s.median).collect::<Vec<_>>())
            .unwrap();
    assert!(
        ndt_median > atlas_median * 0.8 && ndt_median < atlas_median * 2.5,
        "NDT {ndt_median} vs Atlas {atlas_median}"
    );
}

#[test]
fn catalog_correlates_with_table1_ranking() {
    // Spearman-style sanity: the measured catalog ordering must agree
    // with the paper's Table 1 ordering for the operators whose scaled
    // volumes are not flattened by the generator floor.
    let (_, report) = fixture();
    let rank = |op: Operator| {
        report
            .catalog
            .iter()
            .position(|&(o, _)| o == op)
            .expect("in catalog")
    };
    assert!(rank(Operator::Starlink) < rank(Operator::Ssi));
    assert!(rank(Operator::Ssi) < rank(Operator::Kacific));
    assert!(rank(Operator::Eutelsat) < rank(Operator::Isotropic));
    assert!(rank(Operator::Globalsat) < rank(Operator::HellasSat));
}
