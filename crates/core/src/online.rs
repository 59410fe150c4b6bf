//! The online identification service: incremental ingest with
//! snapshot-on-demand reporting in O(delta), not O(corpus).
//!
//! The batch pipeline ([`Pipeline::run_streamed`], and [`Pipeline::run`]
//! on top of it) assumes the corpus is complete before stage 3 runs. A
//! continuously operating service instead receives measurement chunks
//! in arrival-time order and must answer "who are the SNOs right now?"
//! at any point. The [`OnlineIdentifier`] supports exactly that, and
//! keeps one per-record store: the [`CorpusStats`] the streamed
//! pipeline's statistics pass builds.
//!
//! * **Ingest** — each arriving chunk's rows go through the same fold,
//!   into the same [`CorpusStats`] accumulator, as the streamed
//!   pipeline's statistics pass: per-ASN band counts for stage 3,
//!   per-ASN latency buckets and one 2-byte ASN slot per record for the
//!   accept replay, per-`(operator, /24)` buckets for the strict
//!   filter. Every ingest step is O(chunk), never O(corpus).
//! * **Merge** — identifiers built over disjoint shards of a stream merge
//!   in shard order into the exact state serial ingest would have built:
//!   `CorpusStats::merge` appends buckets and slot columns and adds band
//!   counts. This is what lets `sno_types::par` shard the ingest across
//!   threads without changing a single output byte. The contract: both
//!   identifiers keep the same latency bands, or
//!   [`OnlineIdentifier::merge`] returns a [`MergeError`] and changes
//!   nothing. Either side may already have snapshotted. The absorbed
//!   shard's decisions are dropped and its records decided by the next
//!   snapshot; `self`'s decided records stay a prefix of the merged
//!   stream, and its per-ASN cursors a prefix of each merged bucket.
//! * **Snapshot** — [`OnlineIdentifier::snapshot`] re-derives stages
//!   3–3c through the `StageCache` it keeps, the derivation
//!   [`Pipeline::run_streamed`] runs on a fresh cache (profiles are one
//!   count lookup per curated ASN; only strict buckets that grew since
//!   the last snapshot are re-evaluated) and compares the resulting
//!   [`AcceptTable`](crate::accept::AcceptTable) with the one the
//!   persistent [`AcceptState`] was decided under. *Unchanged* →
//!   only the records ingested since the last snapshot replay from the
//!   slot column (O(delta)). *Shifted* → the *epoch* bumps and the whole
//!   slot column replays. Either way the records are decided by the
//!   replay [`Pipeline::run_streamed`] runs, and the report is assembled
//!   by the same function, so it is byte-identical to `run_streamed`
//!   over the same records — online verdicts *are* batch verdicts,
//!   pinned by `tests/online_determinism.rs` across interleaved
//!   ingest/snapshot/merge schedules.
//!
//! The identifier keeps no replay log, only the slot column next to the
//! latency buckets it needs anyway, so there is nothing to compact.

use crate::accept::{AcceptState, AsnOps, Slot};
use crate::asn_map::{map_asns, AsnMapping};
use crate::pipeline::{Pipeline, StageCache};
use crate::stream::{CorpusStats, StreamOptions, StreamedReport};
use sno_types::records::NdtRecord;
use std::fmt;

/// Why [`OnlineIdentifier::merge`] refused a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// The identifiers keep different latency bands: their band counts
    /// may count below different edges, which do not add up.
    BandsMismatch,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::BandsMismatch => {
                write!(f, "cannot merge identifiers with different latency bands")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Incremental SNO identification over an arriving measurement stream.
/// See the module docs for the state layout and merge contract.
#[derive(Debug, Clone)]
pub struct OnlineIdentifier {
    pipeline: Pipeline,
    mapping: AsnMapping,
    index: AsnOps,
    /// Cumulative statistics, slot column included: the only state kept
    /// per record.
    stats: CorpusStats,
    /// Bumped on every statistics mutation — the stage cache's
    /// whole-derivation key.
    stats_rev: u64,
    cache: StageCache,
    accept: AcceptState,
}

impl OnlineIdentifier {
    /// An identifier that keeps the whole stream (snapshots equal batch
    /// reports over everything ingested).
    pub fn new(pipeline: Pipeline) -> OnlineIdentifier {
        let mapping = map_asns();
        let index = AsnOps::with_bands(&mapping, pipeline.bands);
        OnlineIdentifier {
            pipeline,
            mapping,
            index,
            stats: CorpusStats::new(),
            stats_rev: 0,
            cache: StageCache::default(),
            accept: AcceptState::new(),
        }
    }

    /// Ingest one chunk of records in arrival order.
    // sno-lint: allow(panic-reachable): the row fold reaches no panic site; the name-based call graph links its slice `get`, `Vec::push` and `Ipv4::prefix24` calls to the same-named AsnOps::get, AcceptBitmap::get and push, and RecordBatch::prefix24, none of which ingest calls
    pub fn ingest(&mut self, records: &[NdtRecord]) {
        self.stats.observe_records(&self.index, records);
        self.stats_rev += 1;
    }

    /// Merge another identifier (built over the *following* shard of the
    /// stream) into this one. Merging per-shard identifiers in shard
    /// order reproduces serial ingest exactly — state and snapshots are
    /// byte-identical.
    ///
    /// Either identifier may have snapshotted before: `other`'s
    /// decisions are dropped and the next snapshot decides its records,
    /// while `self`'s decided records stay a prefix of the merged
    /// stream.
    ///
    /// # Errors
    /// [`MergeError::BandsMismatch`] when the two identifiers keep
    /// different latency bands; `self` is left untouched.
    pub fn merge(&mut self, other: OnlineIdentifier) -> Result<(), MergeError> {
        if self.pipeline.bands != other.pipeline.bands {
            return Err(MergeError::BandsMismatch);
        }
        self.stats = std::mem::take(&mut self.stats).merge(other.stats);
        self.stats_rev += 1;
        Ok(())
    }

    /// Records ingested over the identifier's lifetime.
    pub fn ingested(&self) -> usize {
        self.stats.records
    }

    /// Bytes held per record besides the latency buckets: the slot
    /// column, 2 bytes per ingested record.
    pub fn resident_log_bytes(&self) -> usize {
        self.stats.slots.len() * std::mem::size_of::<Slot>()
    }

    /// How many times the accept table shifted under a snapshot,
    /// forcing a full re-decide (0 until the first snapshot).
    pub fn accept_epoch(&self) -> u64 {
        self.accept.epoch()
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.stats.records == 0
    }

    /// Render the current state through the standard report path. The
    /// report is byte-identical to [`Pipeline::run_streamed`] over the
    /// same records, and the persistent accept state decides only what
    /// the current epoch has not decided yet: the cost is O(frames since
    /// the last snapshot) while the derived accept table is stable, and
    /// O(stream) on the rare epoch bump.
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn snapshot(&mut self, opts: StreamOptions) -> StreamedReport {
        let stages = self.cache.derive(
            &self.pipeline,
            &self.mapping,
            &self.index,
            &self.stats,
            self.stats_rev,
        );
        if !self.accept.compatible(&stages.table, opts) {
            // Epoch bump: the table shifted (or this is the first
            // snapshot / the pass shape changed) — re-decide the whole
            // stream.
            self.accept.reset(stages.table.clone(), opts);
        }
        // O(delta) unless the epoch just bumped: the records ingested
        // since the last snapshot replay from the slot column.
        self.accept.replay(&self.stats);
        debug_assert_eq!(self.accept.decided(), self.stats.records);
        let pass = self.accept.pass().clone();
        StreamedReport::assemble(self.mapping.clone(), stages, self.stats.records, pass)
    }

    /// Does nothing. The identifier keeps no replay log to compact
    /// (snapshots replay its slot column instead). The method remains
    /// only because the repository benchmark (`benches/snobench`) calls
    /// it; it goes once that benchmark times [`Pipeline::run_streamed`]
    /// itself instead of its own copy of the stages (see ROADMAP.md).
    pub fn compact(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::LatencyBands;
    use sno_types::chunk::{slice_chunks, RecordChunks};
    use sno_types::{Asn, Millis};

    fn small_config() -> sno_synth::SynthConfig {
        sno_synth::SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..sno_synth::SynthConfig::test_corpus()
        }
    }

    fn corpus() -> Vec<NdtRecord> {
        sno_synth::MlabGenerator::new(small_config())
            .generate()
            .records
    }

    fn assert_reports_equal(a: &StreamedReport, b: &StreamedReport) {
        assert_eq!(a.records, b.records);
        assert_eq!(a.catalog, b.catalog);
        assert_eq!(a.thresholds, b.thresholds);
        assert_eq!(a.default_threshold, b.default_threshold);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.latencies_by_operator, b.latencies_by_operator);
        assert_eq!(a.strict.examined, b.strict.examined);
        for i in 0..a.records {
            assert_eq!(a.bitmap.get(i), b.bitmap.get(i), "bit {i}");
        }
    }

    #[test]
    fn snapshot_matches_streamed_pipeline() {
        let records = corpus();
        let opts = StreamOptions {
            dense_acceptance: true,
            operator_latencies: true,
            ..StreamOptions::default()
        };
        let batch_report = Pipeline::new().run_streamed(|| slice_chunks(&records, 512), opts);
        let mut online = OnlineIdentifier::new(Pipeline::new());
        let mut stream = slice_chunks(&records, 512);
        while let Some(chunk) = stream.next_chunk() {
            online.ingest(&chunk);
        }
        assert_eq!(online.ingested(), records.len());
        assert_reports_equal(&online.snapshot(opts), &batch_report);
    }

    #[test]
    fn repeated_snapshots_are_stable_and_tail_incremental() {
        let records = corpus();
        let opts = StreamOptions::default();
        let mut online = OnlineIdentifier::new(Pipeline::new());
        let (head, tail) = records.split_at(records.len() / 2);
        online.ingest(head);
        let first = online.snapshot(opts);
        assert_eq!(online.accept_epoch(), 1, "first snapshot opens epoch 1");
        // Unchanged corpus: the snapshot is answered from state alone.
        let again = online.snapshot(opts);
        assert_reports_equal(&first, &again);
        assert_eq!(online.accept_epoch(), 1);
        // Growing the corpus re-decides either just the tail (epoch
        // stable) or everything (epoch bump) — both must equal batch.
        online.ingest(tail);
        let full = online.snapshot(opts);
        let expect = Pipeline::new().run_streamed(|| slice_chunks(&records, 512), opts);
        assert_reports_equal(&full, &expect);
    }

    #[test]
    fn snapshots_replay_the_slot_column_without_a_log() {
        let records = corpus();
        let opts = StreamOptions::default();
        let expect = Pipeline::new().run_streamed(|| slice_chunks(&records, 512), opts);

        let mut online = OnlineIdentifier::new(Pipeline::new());
        // No replay log: two bytes of slot per ingested record, from the
        // fresh identifier on.
        assert_eq!(online.resident_log_bytes(), 2 * online.ingested());
        let step = records.len() / 4 + 1;
        for chunk in records.chunks(step) {
            online.ingest(chunk);
            assert_eq!(online.resident_log_bytes(), 2 * online.ingested());
            online.snapshot(opts);
            let before = online.resident_log_bytes();
            online.compact();
            assert_eq!(online.resident_log_bytes(), before, "compact is a no-op");
        }
        let report = online.snapshot(opts);
        assert_reports_equal(&report, &expect);
        assert_eq!(report.records, records.len());
    }

    #[test]
    fn sharded_merge_matches_serial_ingest() {
        let records = corpus();
        let mut serial = OnlineIdentifier::new(Pipeline::new());
        serial.ingest(&records);

        let bounds = [0, records.len() / 3, records.len() / 2, records.len()];
        let shards: Vec<OnlineIdentifier> = sno_types::par::shard_map(3, 2, |i| {
            let mut shard = OnlineIdentifier::new(Pipeline::new());
            shard.ingest(&records[bounds[i]..bounds[i + 1]]);
            shard
        });
        let mut merged = OnlineIdentifier::new(Pipeline::new());
        for shard in shards {
            merged.merge(shard).expect("same bands");
        }
        assert_eq!(merged.ingested(), serial.ingested());
        let opts = StreamOptions {
            dense_acceptance: true,
            ..StreamOptions::default()
        };
        assert_reports_equal(&merged.snapshot(opts), &serial.snapshot(opts));
    }

    #[test]
    fn merge_snapshotted_identifiers() {
        let records = corpus();
        let opts = StreamOptions::default();
        let expect = Pipeline::new().run_streamed(|| slice_chunks(&records, 512), opts);
        let (head, tail) = records.split_at(records.len() / 2);
        // Both sides snapshot (and compact) before the merge; the
        // absorbed shard's decisions are dropped and re-made.
        let mut acc = OnlineIdentifier::new(Pipeline::new());
        acc.ingest(head);
        acc.snapshot(opts);
        acc.compact();
        let mut shard = OnlineIdentifier::new(Pipeline::new());
        shard.ingest(tail);
        shard.snapshot(opts);
        shard.compact();
        acc.merge(shard).expect("same bands");
        assert_eq!(acc.ingested(), records.len());
        assert_reports_equal(&acc.snapshot(opts), &expect);
    }

    #[test]
    fn merge_refuses_other_latency_bands() {
        let records = corpus();
        let (head, tail) = records.split_at(records.len() / 2);
        let with_bands = |bands: LatencyBands, part: &[NdtRecord]| {
            let mut id = OnlineIdentifier::new(Pipeline {
                bands,
                ..Pipeline::new()
            });
            id.ingest(part);
            id
        };
        // Other edges, and the same edges in other roles.
        let wider = LatencyBands {
            terrestrial_max: 120.0,
            ..LatencyBands::default()
        };
        let swapped = LatencyBands {
            terrestrial_max: 150.0,
            meo: (100.0, 450.0),
            ..LatencyBands::default()
        };
        assert_eq!(swapped.edges(), LatencyBands::default().edges());
        let mut acc = with_bands(LatencyBands::default(), head);
        acc.snapshot(StreamOptions::default());
        let before = format!("{acc:?}");
        for theirs in [wider, swapped] {
            let err = acc
                .merge(with_bands(theirs, tail))
                .expect_err("bands differ");
            assert_eq!(err, MergeError::BandsMismatch);
            assert!(err.to_string().contains("bands"), "{err}");
            assert_eq!(format!("{acc:?}"), before, "{theirs:?}");
        }
        // Equal bands still merge.
        acc.merge(with_bands(LatencyBands::default(), tail))
            .expect("same bands");
        assert_eq!(acc.ingested(), records.len());
    }

    #[test]
    fn nan_latency_snapshot_matches_the_streamed_pipeline() {
        let mut records = corpus();
        let i = records
            .iter()
            .position(|r| r.asn == Asn(14593))
            .expect("a Starlink record");
        records[i].latency_p5 = Millis(f64::NAN);
        let mut online = OnlineIdentifier::new(Pipeline::new());
        online.ingest(&records);
        let opts = StreamOptions::default();
        let report = online.snapshot(opts);
        // The statistics keep the record: the snapshot still equals the
        // batch run, which accepts it (a LEO rule takes any latency).
        let expect = Pipeline::new().run_streamed(|| slice_chunks(&records, 512), opts);
        assert_reports_equal(&report, &expect);
        assert!(report.bitmap.get(i));
    }

    #[test]
    fn empty_identifier_snapshot() {
        let mut online = OnlineIdentifier::new(Pipeline::new());
        assert!(online.is_empty());
        let report = online.snapshot(StreamOptions::default());
        assert_eq!(report.records, 0);
        assert!(report.catalog.is_empty());
    }
}
