//! Longitudinal PoP-change detection (Figure 8b).
//!
//! The probe→PoP RTT series of most probes is statistically flat over
//! the year. A PoP reassignment shows up as a sustained level shift; we
//! find those with mean-shift segmentation and cross-check each detected
//! shift against the reverse-DNS PoP history, attributing the shift to a
//! PoP change when one happened nearby in time.

use crate::pop_rtt::{pop_rtt_series, pop_rtt_series_by_probe, pop_rtt_series_from_chunks};
use crate::popmap::{pop_history, PopLink};
use sno_stats::detect_mean_shifts;
use sno_types::chunk::RecordChunks;
use sno_types::records::{SslCertRecord, TracerouteRecord};
use sno_types::{par, Ipv4, ProbeId, Timestamp};
use std::collections::BTreeMap;

/// One detected RTT level shift, possibly explained by a PoP change.
#[derive(Debug, Clone)]
pub struct PopChange {
    /// The probe.
    pub probe: ProbeId,
    /// When the shift happened (timestamp of the first post-shift
    /// measurement).
    pub at: Timestamp,
    /// Mean RTT before the shift, ms.
    pub before_ms: f64,
    /// Mean RTT after, ms.
    pub after_ms: f64,
    /// The PoP codes involved, when the reverse-DNS history confirms a
    /// change within `attribution_window_secs` of the shift:
    /// `(old, new)`.
    pub pops: Option<(&'static str, &'static str)>,
}

/// How close (in seconds) a reverse-DNS transition must be to an RTT
/// shift to be considered its cause (two weeks — generous because the
/// downsampled corpus observes both signals sparsely).
pub const ATTRIBUTION_WINDOW_SECS: u64 = 14 * 86_400;

/// Detect level shifts of at least `min_shift_ms` (sustained for at
/// least `min_segment` measurements) in one probe's RTT series, and
/// attribute them to PoP changes from `history`.
pub fn detect_pop_changes(
    traceroutes: &[TracerouteRecord],
    probe: ProbeId,
    history: &[PopLink],
    min_shift_ms: f64,
    min_segment: usize,
) -> Vec<PopChange> {
    detect_in_series(
        &pop_rtt_series(traceroutes, probe),
        probe,
        history,
        min_shift_ms,
        min_segment,
    )
}

/// Detect PoP changes for **every** probe: one pass buckets all RTT
/// series and SSLCert histories, then the per-probe segmentations run
/// on the worker pool (`threads`, `0` = all cores). Results merge in
/// ascending probe order, so the output is identical at every thread
/// count — and identical to calling [`detect_pop_changes`] per probe,
/// without its per-probe rescan of the whole corpus.
pub fn detect_all_pop_changes(
    traceroutes: &[TracerouteRecord],
    sslcerts: &[SslCertRecord],
    resolve: impl Fn(Ipv4) -> Option<String> + Sync,
    min_shift_ms: f64,
    min_segment: usize,
    threads: usize,
) -> Vec<PopChange> {
    detect_all_pop_changes_in_series(
        &pop_rtt_series_by_probe(traceroutes),
        sslcerts,
        resolve,
        min_shift_ms,
        min_segment,
        threads,
    )
}

/// [`detect_all_pop_changes`] over chunked traceroute *and* SSLCert
/// streams: only the per-probe RTT series and per-probe cert histories
/// are ever resident, never a record corpus. The series builder is
/// order-insensitive (stable per-series timestamp sort) and cert
/// bucketing preserves each probe's arrival order, so the result is
/// byte-identical to the materialized call for any stream whose
/// per-probe cert subsequences match the materialized corpus (the
/// synthesizer's chunked and sorted forms both deliver each probe's
/// certs chronologically).
pub fn detect_all_pop_changes_streamed<C, D>(
    stream: C,
    sslcerts: D,
    resolve: impl Fn(Ipv4) -> Option<String> + Sync,
    min_shift_ms: f64,
    min_segment: usize,
    threads: usize,
) -> Vec<PopChange>
where
    C: RecordChunks<Item = TracerouteRecord>,
    D: RecordChunks<Item = SslCertRecord>,
{
    detect_in_buckets(
        &pop_rtt_series_from_chunks(stream),
        &cert_buckets_from_chunks(sslcerts),
        resolve,
        min_shift_ms,
        min_segment,
        threads,
    )
}

/// Bucket a materialized cert corpus per probe, preserving order.
fn cert_buckets(sslcerts: &[SslCertRecord]) -> BTreeMap<ProbeId, Vec<SslCertRecord>> {
    let mut certs: BTreeMap<ProbeId, Vec<SslCertRecord>> = BTreeMap::new();
    for s in sslcerts {
        certs.entry(s.probe).or_default().push(*s);
    }
    certs
}

/// Bucket a chunked cert stream per probe without materializing it.
pub fn cert_buckets_from_chunks<D>(stream: D) -> BTreeMap<ProbeId, Vec<SslCertRecord>>
where
    D: RecordChunks<Item = SslCertRecord>,
{
    stream.fold_records(BTreeMap::new(), |mut certs: BTreeMap<_, Vec<_>>, s| {
        certs.entry(s.probe).or_default().push(s);
        certs
    })
}

/// The shared core of the all-probe detectors: per-probe segmentations
/// run on the worker pool over pre-built RTT series, merged in
/// ascending probe order.
pub fn detect_all_pop_changes_in_series(
    series: &BTreeMap<ProbeId, Vec<(Timestamp, f64)>>,
    sslcerts: &[SslCertRecord],
    resolve: impl Fn(Ipv4) -> Option<String> + Sync,
    min_shift_ms: f64,
    min_segment: usize,
    threads: usize,
) -> Vec<PopChange> {
    detect_in_buckets(
        series,
        &cert_buckets(sslcerts),
        resolve,
        min_shift_ms,
        min_segment,
        threads,
    )
}

/// Innermost core: RTT series and cert histories already bucketed per
/// probe.
fn detect_in_buckets(
    series: &BTreeMap<ProbeId, Vec<(Timestamp, f64)>>,
    certs: &BTreeMap<ProbeId, Vec<SslCertRecord>>,
    resolve: impl Fn(Ipv4) -> Option<String> + Sync,
    min_shift_ms: f64,
    min_segment: usize,
    threads: usize,
) -> Vec<PopChange> {
    let probes: Vec<&ProbeId> = series.keys().collect();
    let per_probe = par::shard_map(probes.len(), threads, |i| {
        let probe = *probes[i];
        let history = certs
            .get(&probe)
            .map(|c| pop_history(c, probe, &resolve))
            .unwrap_or_default();
        detect_in_series(&series[&probe], probe, &history, min_shift_ms, min_segment)
    });
    per_probe.into_iter().flatten().collect()
}

/// Segment one probe's RTT series and attribute the shifts. The batch
/// entry points and the incremental [`PopChangeMonitor`] both detect
/// through here, so they share one detection path with identical
/// results.
fn detect_in_series(
    series: &[(Timestamp, f64)],
    probe: ProbeId,
    history: &[PopLink],
    min_shift_ms: f64,
    min_segment: usize,
) -> Vec<PopChange> {
    if series.len() < 2 * min_segment {
        return Vec::new();
    }
    let values: Vec<f64> = series.iter().map(|&(_, v)| v).collect();
    detect_mean_shifts(&values, min_shift_ms, min_segment)
        .into_iter()
        .map(|shift| {
            let at = series[shift.index].0;
            let pops = attribute(history, at);
            PopChange {
                probe,
                at,
                before_ms: shift.before,
                after_ms: shift.after,
                pops,
            }
        })
        .collect()
}

/// Incremental front-end to [`detect_all_pop_changes`]: ingest
/// traceroute and SSLCert chunks as they arrive, detect on demand.
///
/// Only the per-probe `(timestamp, rtt)` series and the cert records are
/// resident — never the traceroutes. Monitors built over disjoint shards
/// of a stream [`merge`](PopChangeMonitor::merge) into the state serial
/// ingest builds, and [`detect`](PopChangeMonitor::detect) stably sorts
/// each series by timestamp before segmenting (exactly as the batch
/// series builders do), so detection over any ingest sharding is
/// identical to [`detect_all_pop_changes`] over the materialized corpus.
#[derive(Debug, Clone, Default)]
pub struct PopChangeMonitor {
    series: BTreeMap<ProbeId, Vec<(Timestamp, f64)>>,
    sslcerts: Vec<SslCertRecord>,
}

impl PopChangeMonitor {
    /// An empty monitor.
    pub fn new() -> PopChangeMonitor {
        PopChangeMonitor::default()
    }

    /// Ingest one chunk of traceroutes: each record's CGNAT-gateway RTT
    /// (when present) joins its probe's series.
    pub fn ingest_traceroutes(&mut self, chunk: &[TracerouteRecord]) {
        for t in chunk {
            if let Some(rtt) = t.cgnat_rtt() {
                self.series
                    .entry(t.probe)
                    .or_default()
                    .push((t.timestamp, rtt.0));
            }
        }
    }

    /// Drain a chunked traceroute stream into the monitor.
    pub fn ingest_traceroute_chunks<C>(&mut self, mut stream: C)
    where
        C: RecordChunks<Item = TracerouteRecord>,
    {
        while let Some(chunk) = stream.next_chunk() {
            self.ingest_traceroutes(&chunk);
        }
    }

    /// Ingest one chunk of SSLCert observations (the PoP-history side).
    pub fn ingest_sslcerts(&mut self, certs: &[SslCertRecord]) {
        self.sslcerts.extend_from_slice(certs);
    }

    /// Merge another monitor (built over the *following* shard of the
    /// stream) into this one.
    pub fn merge(&mut self, other: PopChangeMonitor) {
        for (probe, mut samples) in other.series {
            self.series.entry(probe).or_default().append(&mut samples);
        }
        self.sslcerts.extend_from_slice(&other.sslcerts);
    }

    /// Probes with at least one RTT sample.
    pub fn probes(&self) -> usize {
        self.series.len()
    }

    /// RTT samples ingested across all probes.
    pub fn samples(&self) -> usize {
        self.series.values().map(Vec::len).sum()
    }

    /// Detect and attribute PoP changes over everything ingested so
    /// far. Identical to [`detect_all_pop_changes`] over the
    /// materialized corpus, at every thread count.
    pub fn detect(
        &self,
        resolve: impl Fn(Ipv4) -> Option<String> + Sync,
        min_shift_ms: f64,
        min_segment: usize,
        threads: usize,
    ) -> Vec<PopChange> {
        let mut series = self.series.clone();
        for s in series.values_mut() {
            // Stable sort, as in `pop_rtt_series_by_probe`, so any
            // ingest sharding converges on the same series.
            s.sort_by_key(|&(ts, _)| ts);
        }
        detect_all_pop_changes_in_series(
            &series,
            &self.sslcerts,
            resolve,
            min_shift_ms,
            min_segment,
            threads,
        )
    }
}

/// Find the PoP transition nearest to `at`, within the attribution
/// window.
fn attribute(history: &[PopLink], at: Timestamp) -> Option<(&'static str, &'static str)> {
    let mut best: Option<(u64, (&'static str, &'static str))> = None;
    for w in history.windows(2) {
        let boundary = w[1].first_seen;
        let distance = boundary.0.abs_diff(at.0);
        if distance <= ATTRIBUTION_WINDOW_SECS && best.is_none_or(|(d, _)| distance < d) {
            best = Some((distance, (w[0].pop.code, w[1].pop.code)));
        }
    }
    best.map(|(_, pops)| pops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pop_rtt::tests::corpus;
    use crate::popmap::pop_history;
    use sno_types::records::CountryCode;

    fn changes_for(probe: ProbeId) -> Vec<PopChange> {
        let c = corpus();
        let history = pop_history(&c.sslcerts, probe, sno_synth::atlas::reverse_dns);
        detect_pop_changes(&c.traceroutes, probe, &history, 8.0, 8)
    }

    #[test]
    fn nz_shift_detected_and_attributed() {
        let c = corpus();
        let nz = c
            .probes
            .iter()
            .find(|p| p.country == CountryCode::new("NZ"))
            .unwrap();
        let changes = changes_for(nz.id);
        assert_eq!(changes.len(), 1, "{changes:?}");
        let ch = &changes[0];
        // ~20 ms improvement when Sydney → Auckland.
        assert!(ch.after_ms < ch.before_ms - 10.0, "{ch:?}");
        assert_eq!(ch.pops, Some(("sydnaus1", "aklnnzl1")));
        let when = ch.at.date();
        assert_eq!((when.year, when.month), (2022, 7), "{when}");
    }

    #[test]
    fn nevada_shows_regression_and_revert() {
        let c = corpus();
        let nv = c.probes.iter().find(|p| p.state == Some("NV")).unwrap();
        let changes = changes_for(nv.id);
        assert_eq!(changes.len(), 2, "{changes:?}");
        assert!(
            changes[0].after_ms > changes[0].before_ms,
            "regression first"
        );
        assert!(changes[1].after_ms < changes[1].before_ms, "then revert");
        assert_eq!(changes[0].pops, Some(("lsancax1", "dnvrcox1")));
        assert_eq!(changes[1].pops, Some(("dnvrcox1", "lsancax1")));
    }

    #[test]
    fn netherlands_drop_attributed_to_london() {
        let c = corpus();
        let nl = c
            .probes
            .iter()
            .find(|p| p.country == CountryCode::new("NL"))
            .unwrap();
        let changes = changes_for(nl.id);
        assert_eq!(changes.len(), 1, "{changes:?}");
        assert_eq!(changes[0].pops, Some(("frntdeu1", "lndngbr1")));
        assert!(changes[0].after_ms < changes[0].before_ms);
    }

    #[test]
    fn stable_probes_report_no_changes() {
        let c = corpus();
        let mut stable = 0;
        for p in c
            .probes
            .iter()
            .filter(|p| matches!(p.country.as_str(), "DE" | "GB" | "AT" | "CA"))
        {
            let changes = changes_for(p.id);
            assert!(changes.is_empty(), "{}: {changes:?}", p.id);
            stable += 1;
        }
        assert!(stable >= 8);
    }

    #[test]
    fn short_series_yields_nothing() {
        let c = corpus();
        let changes = detect_pop_changes(&c.traceroutes, ProbeId(99_999), &[], 8.0, 8);
        assert!(changes.is_empty());
    }

    #[test]
    fn streamed_detection_matches_materialized() {
        use sno_synth::{AtlasGenerator, SynthConfig};
        let c = corpus();
        let expect = detect_all_pop_changes(
            &c.traceroutes,
            &c.sslcerts,
            sno_synth::atlas::reverse_dns,
            8.0,
            8,
            1,
        );
        for (chunk_len, threads) in [(512usize, 1usize), (usize::MAX, 2)] {
            let mut config = SynthConfig::test_corpus();
            config.threads = threads;
            let gen = AtlasGenerator::new(config);
            let got = detect_all_pop_changes_streamed(
                gen.traceroute_chunks(chunk_len),
                gen.sslcert_chunks(chunk_len),
                sno_synth::atlas::reverse_dns,
                8.0,
                8,
                threads,
            );
            assert_eq!(
                got.len(),
                expect.len(),
                "chunk {chunk_len} threads {threads}"
            );
            for (a, b) in got.iter().zip(&expect) {
                assert_eq!((a.probe, a.at, a.pops), (b.probe, b.at, b.pops));
                assert_eq!(a.before_ms, b.before_ms);
                assert_eq!(a.after_ms, b.after_ms);
            }
        }
    }

    #[test]
    fn monitor_matches_batch_detection() {
        let c = corpus();
        let expect = detect_all_pop_changes(
            &c.traceroutes,
            &c.sslcerts,
            sno_synth::atlas::reverse_dns,
            8.0,
            8,
            1,
        );
        assert!(!expect.is_empty());
        // Chunked serial ingest.
        let mut monitor = PopChangeMonitor::new();
        for chunk in c.traceroutes.chunks(517) {
            monitor.ingest_traceroutes(chunk);
        }
        for chunk in c.sslcerts.chunks(64) {
            monitor.ingest_sslcerts(chunk);
        }
        assert_eq!(
            monitor.samples(),
            pop_rtt_series_by_probe(&c.traceroutes)
                .values()
                .map(Vec::len)
                .sum::<usize>()
        );
        // Sharded ingest merged in shard order.
        let bounds = [0, c.traceroutes.len() / 3, c.traceroutes.len()];
        let shards: Vec<PopChangeMonitor> = par::shard_map(2, 2, |i| {
            let mut shard = PopChangeMonitor::new();
            shard.ingest_traceroutes(&c.traceroutes[bounds[i]..bounds[i + 1]]);
            shard
        });
        let mut merged = PopChangeMonitor::new();
        for shard in shards {
            merged.merge(shard);
        }
        merged.ingest_sslcerts(&c.sslcerts);
        assert_eq!(merged.probes(), monitor.probes());
        for (threads, m) in [(1usize, &monitor), (2, &merged), (8, &monitor)] {
            let got = m.detect(sno_synth::atlas::reverse_dns, 8.0, 8, threads);
            assert_eq!(got.len(), expect.len(), "threads {threads}");
            for (a, b) in got.iter().zip(&expect) {
                assert_eq!((a.probe, a.at, a.pops), (b.probe, b.at, b.pops));
                assert_eq!(a.before_ms, b.before_ms);
                assert_eq!(a.after_ms, b.after_ms);
            }
        }
    }

    #[test]
    fn all_probe_detection_matches_per_probe_loop() {
        let c = corpus();
        for threads in [1, 2, 8] {
            let all = detect_all_pop_changes(
                &c.traceroutes,
                &c.sslcerts,
                sno_synth::atlas::reverse_dns,
                8.0,
                8,
                threads,
            );
            let mut expect = Vec::new();
            for p in &c.probes {
                let history = pop_history(&c.sslcerts, p.id, sno_synth::atlas::reverse_dns);
                expect.extend(detect_pop_changes(&c.traceroutes, p.id, &history, 8.0, 8));
            }
            assert_eq!(all.len(), expect.len(), "threads {threads}");
            for (a, b) in all.iter().zip(&expect) {
                assert_eq!(a.probe, b.probe);
                assert_eq!(a.at, b.at);
                assert_eq!(a.before_ms, b.before_ms);
                assert_eq!(a.after_ms, b.after_ms);
                assert_eq!(a.pops, b.pops);
            }
        }
    }
}
