//! The online identification service: incremental ingest with
//! snapshot-on-demand reporting in O(delta), not O(corpus).
//!
//! The batch pipeline ([`Pipeline::run_streamed`], and [`Pipeline::run`]
//! on top of it) assumes the corpus is complete before stage 3 runs. A
//! continuously operating service instead receives measurement chunks
//! in arrival-time order and must answer "who are the SNOs right now?"
//! at any point. The [`OnlineIdentifier`] supports exactly that:
//!
//! * **Ingest** — each arriving chunk's rows go through the same fold,
//!   into the same [`CorpusStats`] accumulator, as the streamed
//!   pipeline's statistics pass (per-ASN band counts for stage 3,
//!   per-ASN latency buckets and one 2-byte ASN slot per record for the
//!   accept replay, per-`(operator, /24)` buckets for the strict
//!   filter), and tracked in per-operator latency sketches and
//!   `(timestamp, latency)` buckets for the PoP-change flags. A NaN
//!   latency stays in the statistics, which decide it as the batch
//!   pipeline does, but out of the sketches and the PoP-flag series.
//!   Every ingest step is O(chunk), never O(corpus).
//! * **Merge** — identifiers built over disjoint shards of a stream merge
//!   in shard order into the exact state serial ingest would have built:
//!   `CorpusStats::merge` appends buckets and slot columns and adds band
//!   counts, windowed replay logs concatenate byte-wise, and the
//!   [`QuantileSketch`]es are ingest-order-invariant by construction.
//!   This is what lets `sno_types::par` shard the ingest across threads
//!   without changing a single output byte. The contract: both
//!   identifiers keep the same window and the same latency bands, or
//!   [`OnlineIdentifier::merge`] returns a [`MergeError`] and changes
//!   nothing. Either side may already have snapshotted. The absorbed
//!   shard's decisions are dropped and its records decided by the next
//!   snapshot; `self`'s decided records stay a prefix of the merged
//!   stream, and its per-ASN cursors a prefix of each merged bucket.
//! * **Snapshot** — [`OnlineIdentifier::snapshot`] re-derives stages
//!   3–3c through a memoizing [`StageCache`] (profiles are one count
//!   lookup per curated ASN; only strict buckets that grew since the
//!   last snapshot are re-evaluated) and compares the resulting
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
//! An unwindowed identifier keeps no replay log, only the slot column
//! next to the latency buckets it needs anyway, so
//! [`OnlineIdentifier::compact`] has nothing to do.
//!
//! With a sliding window ([`OnlineIdentifier::with_window`]), ingest
//! appends each chunk to a compact codec replay log (~52 bytes/record)
//! instead of the statistics, and snapshots first *evict* the leading
//! run of frames older than `window_secs` behind the newest timestamp
//! seen — sound because the cutoff only moves forward, so an expired
//! frame can never re-enter a later window — then run
//! [`Pipeline::run_streamed`] over the retained in-window records. The
//! unwindowed default keeps the whole stream and therefore matches the
//! batch report exactly.

use crate::accept::{AcceptState, AsnOps, Slot};
use crate::asn_map::{map_asns, AsnMapping};
use crate::pipeline::{Pipeline, StageCache};
use crate::stream::{CorpusStats, StreamOptions, StreamedReport, REPLAY_CHUNK_LEN};
use sno_stats::{daily_medians, OnlineShiftDetector, QuantileSketch, Shift};
use sno_types::chunk::{slice_chunks, RecordChunks};
use sno_types::records::NdtRecord;
use sno_types::{codec, Operator, Timestamp, UtcDay};
use std::collections::BTreeMap;
use std::fmt;

/// An incrementally flagged PoP-style level shift in one operator's
/// daily-median latency series.
#[derive(Debug, Clone, PartialEq)]
pub struct PopFlag {
    /// The operator whose series shifted.
    pub operator: Operator,
    /// The first day after the change.
    pub day: UtcDay,
    /// The underlying mean shift (indices into the daily-median series).
    pub shift: Shift,
}

/// Why [`OnlineIdentifier::merge`] refused a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// The identifiers keep different windows (`None` = unwindowed). An
    /// unwindowed identifier decides from cumulative statistics and a
    /// windowed one from its retained log, so no merged state would
    /// equal serial ingest.
    WindowMismatch {
        /// The window of the identifier merged into.
        ours: Option<u64>,
        /// The window of the absorbed shard.
        theirs: Option<u64>,
    },
    /// The identifiers keep different latency bands: their band counts
    /// may count below different edges, which do not add up.
    BandsMismatch,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::WindowMismatch { ours, theirs } => write!(
                f,
                "cannot merge an identifier with window {theirs:?} into one with window {ours:?}"
            ),
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
    /// Cumulative statistics, slot column included (unwindowed only).
    stats: CorpusStats,
    /// Bumped on every statistics mutation — the stage cache's
    /// whole-derivation key.
    stats_rev: u64,
    /// Replay log of the records not evicted yet (windowed only).
    log: codec::Encoder,
    /// Records ingested over the identifier's lifetime (evicted records
    /// included).
    ingested: usize,
    window_secs: Option<u64>,
    latest: Option<Timestamp>,
    by_operator: BTreeMap<Operator, Vec<(Timestamp, f64)>>,
    sketches: BTreeMap<Operator, QuantileSketch>,
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
            log: codec::Encoder::new(),
            ingested: 0,
            window_secs: None,
            latest: None,
            by_operator: BTreeMap::new(),
            sketches: BTreeMap::new(),
            cache: StageCache::default(),
            accept: AcceptState::new(),
        }
    }

    /// An identifier whose snapshots only consider records within
    /// `window_secs` of the newest timestamp ingested (a sliding
    /// window over near-time-ordered arrivals).
    pub fn with_window(pipeline: Pipeline, window_secs: u64) -> OnlineIdentifier {
        OnlineIdentifier {
            window_secs: Some(window_secs),
            ..OnlineIdentifier::new(pipeline)
        }
    }

    /// Ingest one chunk of records in arrival order.
    // sno-lint: allow(panic-reachable): the row fold and the sketch and PoP-flag stores reach one real site, the ASN index lookup (a binary-search hit indexes the parallel operator column); the others are the same-named `get`, `push` and `prefix24` of AcceptBitmap and RecordBatch, which the name-based call graph links but ingest never calls
    pub fn ingest(&mut self, records: &[NdtRecord]) {
        // An unwindowed identifier decides from the cumulative
        // statistics. A windowed one re-derives every snapshot from its
        // retained log instead and skips the statistics, which would
        // otherwise grow with the whole stream and defeat the window's
        // memory bound.
        if self.window_secs.is_none() {
            self.stats.observe_records(&self.index, records);
            self.stats_rev += 1;
        } else {
            self.log.extend_records(records);
        }
        self.ingested += records.len();
        // Newest timestamp, per-operator PoP-flag samples and latency
        // sketches.
        for rec in records {
            let (ts, lat) = (rec.timestamp, rec.latency_p5.0);
            if self.latest.is_none_or(|t| ts > t) {
                self.latest = Some(ts);
            }
            // Sketches and daily medians order their samples, which a
            // NaN has no place in.
            if lat.is_nan() {
                continue;
            }
            if let Some(op) = self.index.get(rec.asn) {
                self.by_operator.entry(op).or_default().push((ts, lat));
                self.sketches.entry(op).or_default().push(lat);
            }
        }
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
    /// [`MergeError::WindowMismatch`] when the two identifiers keep
    /// different windows, and [`MergeError::BandsMismatch`] when they
    /// keep different latency bands; `self` is left untouched.
    pub fn merge(&mut self, other: OnlineIdentifier) -> Result<(), MergeError> {
        if self.window_secs != other.window_secs {
            return Err(MergeError::WindowMismatch {
                ours: self.window_secs,
                theirs: other.window_secs,
            });
        }
        if self.pipeline.bands != other.pipeline.bands {
            return Err(MergeError::BandsMismatch);
        }
        self.stats = std::mem::take(&mut self.stats).merge(other.stats);
        self.stats_rev += 1;
        self.log.append(&other.log);
        self.ingested += other.ingested;
        if let Some(ts) = other.latest {
            if self.latest.is_none_or(|t| ts > t) {
                self.latest = Some(ts);
            }
        }
        for (op, mut samples) in other.by_operator {
            self.by_operator.entry(op).or_default().append(&mut samples);
        }
        for (op, sketch) in other.sketches {
            self.sketches.entry(op).or_default().merge(&sketch);
        }
        Ok(())
    }

    /// Records ingested over the identifier's lifetime (evicted records
    /// included).
    pub fn ingested(&self) -> usize {
        self.ingested
    }

    /// Frames currently resident in the windowed replay log (always 0
    /// for an unwindowed identifier, which keeps no log).
    pub fn resident_frames(&self) -> usize {
        self.log.len()
    }

    /// Bytes held per record besides the latency buckets: the windowed
    /// replay log (~52 bytes per retained record) plus the unwindowed
    /// slot column (2 bytes per ingested record).
    pub fn resident_log_bytes(&self) -> usize {
        self.log.byte_len() + self.stats.slots.len() * std::mem::size_of::<Slot>()
    }

    /// How many times the accept table shifted under a snapshot,
    /// forcing a full re-decide (0 until the first snapshot).
    pub fn accept_epoch(&self) -> u64 {
        self.accept.epoch()
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.ingested == 0
    }

    /// The newest timestamp ingested.
    pub fn latest(&self) -> Option<Timestamp> {
        self.latest
    }

    /// Per-operator streaming latency sketches over every *mapped*
    /// record (stage 1–2 attribution, before per-record filtering) —
    /// the input to `analysis::latency_table_from_sketches`.
    pub fn latency_sketches(&self) -> &BTreeMap<Operator, QuantileSketch> {
        &self.sketches
    }

    /// Render the current state through the standard report path. The
    /// report is byte-identical to [`Pipeline::run_streamed`] over the
    /// same records (the whole stream, or the sliding window if one was
    /// configured).
    ///
    /// Unwindowed, the cost is O(frames since the last snapshot) while
    /// the derived accept table is stable, and O(stream) on the rare
    /// epoch bump. Windowed, expired frames are evicted first and the
    /// retained window replays in full.
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn snapshot(&mut self, opts: StreamOptions) -> StreamedReport {
        match self.window_cutoff() {
            Some(cutoff) => self.windowed_snapshot(cutoff, opts),
            None => self.incremental_snapshot(opts),
        }
    }

    /// The unwindowed path: maintain the persistent accept state,
    /// deciding only what the current epoch has not decided yet.
    fn incremental_snapshot(&mut self, opts: StreamOptions) -> StreamedReport {
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
        debug_assert_eq!(self.accept.decided(), self.ingested);
        let pass = self.accept.pass().clone();
        StreamedReport::assemble(self.mapping.clone(), stages, self.ingested, pass)
    }

    /// Does nothing. An unwindowed identifier keeps no replay log to
    /// compact (snapshots replay its slot column instead), and a
    /// windowed one evicts expired frames at snapshot time. The method
    /// stays so that existing callers, the repository benchmark among
    /// them, keep compiling.
    pub fn compact(&mut self) {}

    /// The oldest timestamp a windowed snapshot keeps, if a window is
    /// configured and anything has been ingested.
    fn window_cutoff(&self) -> Option<u64> {
        let window = self.window_secs?;
        let latest = self.latest?;
        Some(latest.0.saturating_sub(window))
    }

    /// The windowed path: evict the expired leading run of the log,
    /// then run [`Pipeline::run_streamed`] over the retained window.
    /// Eviction is sound because `latest` (hence the cutoff) only moves
    /// forward: a frame older than today's cutoff is older than every
    /// future cutoff too, so dropping it can never change a later
    /// snapshot. Out-of-order stragglers *behind* newer frames are
    /// filtered per snapshot and evicted once the run ahead of them
    /// expires.
    fn windowed_snapshot(&mut self, cutoff: u64, opts: StreamOptions) -> StreamedReport {
        self.evict(cutoff);
        let mut kept: Vec<NdtRecord> = Vec::new();
        let mut chunks = self.log.chunks(REPLAY_CHUNK_LEN);
        while let Some(chunk) = chunks.next_chunk() {
            kept.extend(chunk.into_iter().filter(|r| r.timestamp.0 >= cutoff));
        }
        self.pipeline
            .run_streamed(|| slice_chunks(&kept, REPLAY_CHUNK_LEN), opts)
    }

    /// Drop the leading run of frames older than `cutoff` from the
    /// replay log (windowed identifiers only).
    fn evict(&mut self, cutoff: u64) {
        let mut expired = 0usize;
        let mut chunks = self.log.chunks(REPLAY_CHUNK_LEN);
        'scan: while let Some(chunk) = chunks.next_chunk() {
            for rec in &chunk {
                if rec.timestamp.0 >= cutoff {
                    break 'scan;
                }
                expired += 1;
            }
        }
        self.log.drop_front(expired);
    }

    /// Incrementally flagged PoP-style level shifts: per operator, the
    /// daily-median latency series of every mapped record is replayed
    /// through the online changepoint detector with the given
    /// thresholds. Flags are sorted by operator, then day.
    pub fn pop_flags(&self, min_shift_ms: f64, min_segment: usize) -> Vec<PopFlag> {
        let mut flags = Vec::new();
        for (&op, samples) in &self.by_operator {
            let daily = daily_medians(samples);
            if daily.len() < 2 * min_segment {
                continue;
            }
            let mut detector = OnlineShiftDetector::new(min_shift_ms, min_segment);
            for point in &daily {
                detector.push(point.median);
            }
            for shift in detector.shifts() {
                flags.push(PopFlag {
                    operator: op,
                    day: daily[shift.index].day,
                    shift,
                });
            }
        }
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::LatencyBands;
    use sno_types::{Asn, Ipv4, Mbps, Millis};

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
        let empty_log = online.resident_log_bytes();
        let step = records.len() / 4 + 1;
        for chunk in records.chunks(step) {
            online.ingest(chunk);
            online.snapshot(opts);
            let before = online.resident_log_bytes();
            online.compact();
            assert_eq!(online.resident_log_bytes(), before, "compact is a no-op");
            // No replay log: two bytes of slot per ingested record.
            assert_eq!(online.resident_frames(), 0);
            assert_eq!(before, empty_log + 2 * online.ingested());
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
            merged.merge(shard).expect("same window");
        }
        assert_eq!(merged.ingested(), serial.ingested());
        assert_eq!(merged.latency_sketches(), serial.latency_sketches());
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
        acc.merge(shard).expect("same window");
        assert_eq!(acc.ingested(), records.len());
        assert_reports_equal(&acc.snapshot(opts), &expect);
    }

    #[test]
    fn merge_refuses_a_window_mismatch_in_both_directions() {
        let records = corpus();
        let (head, tail) = records.split_at(records.len() / 2);
        let build = |window: Option<u64>, part: &[NdtRecord]| {
            let mut id = match window {
                Some(w) => OnlineIdentifier::with_window(Pipeline::new(), w),
                None => OnlineIdentifier::new(Pipeline::new()),
            };
            id.ingest(part);
            id
        };
        for (ours, theirs) in [(None, Some(3_600)), (Some(3_600), None)] {
            let mut acc = build(ours, head);
            let before = format!("{acc:?}");
            let err = acc.merge(build(theirs, tail)).expect_err("windows differ");
            assert_eq!(err, MergeError::WindowMismatch { ours, theirs });
            assert!(err.to_string().contains("window"), "{err}");
            assert_eq!(format!("{acc:?}"), before, "{ours:?} <- {theirs:?}");
        }
        // Equal windows still merge.
        let mut acc = build(Some(3_600), head);
        acc.merge(build(Some(3_600), tail)).expect("same window");
        assert_eq!(acc.ingested(), records.len());
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
    fn windowed_shards_merge_after_eviction() {
        // Both shards snapshot, and so evict, before the merge. Every
        // evicted frame is older than each later cutoff of the merged
        // identifier, so its window equals serial ingest's.
        let mut records = corpus();
        records.sort_by_key(|r| r.timestamp.0);
        let span = records.last().unwrap().timestamp.0 - records[0].timestamp.0;
        let window = span / 3;
        let opts = StreamOptions::default();
        let (head, tail) = records.split_at(records.len() / 2);
        let mut acc = OnlineIdentifier::with_window(Pipeline::new(), window);
        acc.ingest(head);
        acc.snapshot(opts);
        let mut shard = OnlineIdentifier::with_window(Pipeline::new(), window);
        shard.ingest(tail);
        shard.snapshot(opts);
        assert!(acc.resident_frames() < head.len());
        assert!(shard.resident_frames() < tail.len());
        acc.merge(shard).expect("same window");
        let mut serial = OnlineIdentifier::with_window(Pipeline::new(), window);
        serial.ingest(&records);
        assert_reports_equal(&acc.snapshot(opts), &serial.snapshot(opts));
    }

    #[test]
    fn nan_latency_stays_out_of_sketches_and_pop_series() {
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
        let mapping = map_asns();
        let finite = records
            .iter()
            .filter(|r| mapping.operator_of(r.asn) == Some(Operator::Starlink))
            .filter(|r| !r.latency_p5.0.is_nan())
            .count();
        let starlink = &online.latency_sketches()[&Operator::Starlink];
        assert_eq!(starlink.count(), finite as u64);
        let _ = online.pop_flags(8.0, 8);
    }

    #[test]
    fn window_drops_old_records() {
        let records = corpus();
        let latest = records.iter().map(|r| r.timestamp.0).max().unwrap();
        let earliest = records.iter().map(|r| r.timestamp.0).min().unwrap();
        let window = (latest - earliest) / 2;
        let mut windowed = OnlineIdentifier::with_window(Pipeline::new(), window);
        windowed.ingest(&records);
        let report = windowed.snapshot(StreamOptions::default());
        // The windowed snapshot equals a batch run over the retained
        // suffix of the stream.
        let cutoff = latest - window;
        let kept: Vec<NdtRecord> = records
            .iter()
            .filter(|r| r.timestamp.0 >= cutoff)
            .cloned()
            .collect();
        assert!(kept.len() < records.len(), "window must drop something");
        let expect =
            Pipeline::new().run_streamed(|| slice_chunks(&kept, 512), StreamOptions::default());
        assert_reports_equal(&report, &expect);
    }

    #[test]
    fn windowed_eviction_bounds_the_resident_log() {
        // Time-ordered records: after a snapshot, everything older than
        // the cutoff must have left the log, not just the report.
        let mut records = corpus();
        records.sort_by_key(|r| r.timestamp.0);
        let latest = records.last().unwrap().timestamp.0;
        let earliest = records[0].timestamp.0;
        let window = (latest - earliest) / 4;
        let cutoff = latest - window;
        let in_window = records.iter().filter(|r| r.timestamp.0 >= cutoff).count();
        let mut windowed = OnlineIdentifier::with_window(Pipeline::new(), window);
        for chunk in records.chunks(512) {
            windowed.ingest(chunk);
        }
        assert_eq!(windowed.resident_frames(), records.len());
        windowed.snapshot(StreamOptions::default());
        assert_eq!(windowed.resident_frames(), in_window);
        assert_eq!(windowed.ingested(), records.len());
        assert!(windowed.resident_log_bytes() < records.len() * 52);
    }

    #[test]
    fn pop_flags_catch_a_level_shift() {
        // A synthetic Starlink series: 60 days at 53 ms, 60 at 33 ms,
        // ten sessions per day.
        let mut records = Vec::new();
        for day in 0..120u64 {
            let ms = if day < 60 { 53.0 } else { 33.0 };
            for s in 0..10u64 {
                records.push(NdtRecord {
                    timestamp: Timestamp(day * 86_400 + s * 600),
                    client: Ipv4::new(98, 97, (day % 200) as u8, (s + 1) as u8),
                    asn: Asn(14593),
                    latency_p5: Millis(ms + s as f64 * 0.01),
                    jitter_p95: Millis(12.0),
                    retrans_fraction: 0.01,
                    download: Mbps(100.0),
                });
            }
        }
        let mut online = OnlineIdentifier::new(Pipeline::new());
        online.ingest(&records);
        let flags = online.pop_flags(10.0, 10);
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert_eq!(flags[0].operator, Operator::Starlink);
        assert_eq!(flags[0].shift.index, 60);
        assert_eq!(flags[0].day, UtcDay(60));
        assert!((flags[0].shift.magnitude() - 20.0).abs() < 1.0);
        // Below the detection floor: no flags.
        assert!(online.pop_flags(30.0, 10).is_empty());
    }

    #[test]
    fn empty_identifier_snapshot() {
        let mut online = OnlineIdentifier::new(Pipeline::new());
        assert!(online.is_empty());
        assert_eq!(online.latest(), None);
        let report = online.snapshot(StreamOptions::default());
        assert_eq!(report.records, 0);
        assert!(report.catalog.is_empty());
        assert!(online.pop_flags(8.0, 8).is_empty());
    }
}
