//! The streaming pipeline: bounded-memory identification over chunked
//! corpora, and the one function that runs the identification.
//!
//! [`Pipeline::run_streamed`] produces the [`StreamedReport`] from a
//! chunked source in one pass over the source plus a replay of the
//! state that pass kept; every other entry point is a source choice on
//! top of it ([`Pipeline::run`] streams an in-memory slice, a windowed
//! online snapshot streams its in-window records, a caller holding an
//! encoded corpus streams its [`sno_types::codec`] frames):
//!
//! 1. **Statistics pass** — every chunk is columnarized into a
//!    [`RecordBatch`] and folded into a [`CorpusStats`] accumulator
//!    (per-ASN latency samples for the KDE stage, per-`(operator, /24)`
//!    samples for the strict filter, and each record's ASN [`Slot`]).
//!    Accumulators merge in chunk order, so every bucket and the slot
//!    column hold their entries in record order — byte-identical to a
//!    serial row-at-a-time fold.
//! 2. **Accept replay** — an accept decision reads a record's ASN and
//!    p5 latency only, and pass 1 kept both in record order. So the
//!    records are not streamed again: [`AcceptState`] walks the slot
//!    column with one cursor per slot into the per-ASN buckets and
//!    decides each record through the
//!    [`AcceptTable`](crate::accept::AcceptTable) derived from pass 1,
//!    emitting per-operator counts plus a compact [`AcceptBitmap`] (one
//!    bit per record), and the dense per-record vector only when
//!    [`StreamOptions`] asks for it.
//!
//! Peak memory is the per-bucket statistics (latency samples and a
//! 2-byte slot per record, not records) plus one generation wave — the
//! corpus itself is never resident unless the source holds it. The
//! statistics stay resident until the replay ends. Chunk-length and
//! thread-count independence is pinned by `tests/stream_determinism.rs`
//! at chunk sizes {1, 1024, whole} × threads {1, 2, 8}.

use crate::accept::{AcceptState, AsnOps, Slot, UNMAPPED};
use crate::asn_map::{map_asns, AsnMapping};
use crate::pipeline::{DerivedStages, Pipeline};
use crate::prefix_filter::StrictOutcome;
use crate::validate::AsnProfile;
use sno_types::chunk::{self, RecordChunks};
use sno_types::records::NdtRecord;
use sno_types::{Asn, Operator, OrbitClass, Prefix24, RecordBatch};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Chunk length the in-memory sources stream at: [`Pipeline::run`]'s
/// record slice and the windowed online snapshot's retained records.
pub(crate) const REPLAY_CHUNK_LEN: usize = 4096;

/// Per-chunk accumulator for the statistics pass: everything stages
/// 3–3c need, with the records themselves discarded.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    /// Records observed.
    pub records: usize,
    /// Per-ASN p5 latencies, in record order (KDE validation input).
    pub by_asn: BTreeMap<Asn, Vec<f64>>,
    /// Per-`(operator, /24)` samples for non-LEO operators, tagged with
    /// the source ASN so the strict filter can drop outlier ASNs after
    /// the KDE stage rules (strict-filter input).
    pub by_prefix: BTreeMap<(Operator, Prefix24), Vec<(Asn, f64)>>,
    /// Each record's [`Slot`], in record order (accept-replay input):
    /// with `by_asn`, everything stage 4 decides a record from.
    pub slots: Vec<Slot>,
}

impl CorpusStats {
    /// An empty accumulator.
    pub fn new() -> CorpusStats {
        CorpusStats::default()
    }

    /// Fold one record in: the row-at-a-time reference
    /// [`CorpusStats::observe_batch`] is checked against. The slot is
    /// derived from the mapping here, not from [`AsnOps`]: the number
    /// of distinct curated ASNs below the record's.
    pub fn observe(&mut self, mapping: &AsnMapping, rec: &NdtRecord) {
        self.records += 1;
        self.by_asn
            .entry(rec.asn)
            .or_default()
            .push(rec.latency_p5.0);
        let Some(op) = mapping.operator_of(rec.asn) else {
            self.slots.push(UNMAPPED);
            return;
        };
        let curated: BTreeSet<Asn> = mapping.mapping.values().flatten().copied().collect();
        let below = curated.range(..rec.asn).count();
        self.slots.push(Slot::try_from(below).unwrap_or(UNMAPPED));
        let access = sno_registry::sources::access_of(op);
        if access.includes(OrbitClass::Leo) {
            return; // LEO is identified at ASN level
        }
        self.by_prefix
            .entry((op, rec.client.prefix24()))
            .or_default()
            .push((rec.asn, rec.latency_p5.0));
    }

    /// Merge `other` (the later shard) into `self`, appending per-key
    /// samples so bucket order equals record order when accumulators
    /// merge in shard order.
    pub fn merge(mut self, mut other: CorpusStats) -> CorpusStats {
        self.records += other.records;
        for (asn, mut latencies) in other.by_asn {
            self.by_asn.entry(asn).or_default().append(&mut latencies);
        }
        for (key, mut samples) in other.by_prefix {
            self.by_prefix.entry(key).or_default().append(&mut samples);
        }
        self.slots.append(&mut other.slots);
        self
    }

    /// Fold a range of batch rows in, column-wise. Buckets and slots
    /// come out identical to row-at-a-time [`CorpusStats::observe`]
    /// calls over the same rows; each record's ASN is resolved to its
    /// slot once, through the prebuilt sorted [`AsnOps`] index instead
    /// of a linear scan per record.
    pub fn observe_batch(&mut self, index: &AsnOps, batch: &RecordBatch, range: Range<usize>) {
        let asns = &batch.asns()[range.clone()];
        let latencies = &batch.latency_p5()[range.clone()];
        let clients = &batch.clients()[range];
        self.records += asns.len();
        self.slots.reserve(asns.len());
        for ((&asn, &lat), client) in asns.iter().zip(latencies).zip(clients) {
            self.by_asn.entry(asn).or_default().push(lat);
            let slot = index.slot(asn);
            self.slots.push(slot);
            if let Some(op) = index.prefix_op(slot) {
                self.by_prefix
                    .entry((op, client.prefix24()))
                    .or_default()
                    .push((asn, lat));
            }
        }
    }
}

/// What the accept replay should keep beyond the catalog.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamOptions {
    /// Also keep the dense per-record `Vec<Option<Operator>>` (what
    /// [`Pipeline::run`] returns for the per-record analyses). Off by
    /// default — the bitmap plus counts serve the catalog paths.
    pub dense_acceptance: bool,
    /// Collect accepted latency samples per operator (the Figure 3c
    /// input) during the accept replay.
    pub operator_latencies: bool,
    /// Emit a heartbeat line to stderr every this many records of the
    /// statistics pass (`0` = silent). Heartbeats are record-count
    /// based — never wall-clock — so they cannot perturb determinism;
    /// they make a multi-minute `--scale 1` run observable.
    pub progress_every: usize,
}

/// A compact per-record acceptance map: one bit per record, in stream
/// order.
#[derive(Debug, Clone, Default)]
pub struct AcceptBitmap {
    words: Vec<u64>,
    len: usize,
}

impl AcceptBitmap {
    /// An empty bitmap.
    pub fn new() -> AcceptBitmap {
        AcceptBitmap::default()
    }

    /// Append one record's accept/reject bit.
    pub fn push(&mut self, accepted: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if accepted {
            self.words[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Was record `i` accepted?
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Records recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no records were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Accepted records.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Everything the identification pipeline produced — the one report
/// type, whether it came from [`Pipeline::run_streamed`],
/// [`Pipeline::run`] or an online snapshot. The record count and
/// bitmap always describe per-record acceptance; the dense vector is
/// opt-in.
#[derive(Debug, Clone)]
pub struct StreamedReport {
    /// Stage 1–2 output.
    pub mapping: AsnMapping,
    /// Stage 3 output: per-ASN KDE profiles and verdicts.
    pub profiles: Vec<AsnProfile>,
    /// Stage 3b output.
    pub strict: StrictOutcome,
    /// Stage 3c: per-operator relaxed thresholds.
    pub thresholds: BTreeMap<Operator, f64>,
    /// Stage 3c: the default threshold for uncovered operators.
    pub default_threshold: f64,
    /// Records streamed.
    pub records: usize,
    /// Stage 4: the catalog — operators with accepted tests, by volume
    /// descending (Table 1).
    pub catalog: Vec<(Operator, u64)>,
    /// Per-record accept bit, in stream order.
    pub bitmap: AcceptBitmap,
    /// The dense acceptance vector, when
    /// [`StreamOptions::dense_acceptance`] asked for it.
    pub accepted: Option<Vec<Option<Operator>>>,
    /// Accepted latency samples per operator, when
    /// [`StreamOptions::operator_latencies`] asked for them.
    pub latencies_by_operator: Option<BTreeMap<Operator, Vec<f64>>>,
}

impl StreamedReport {
    /// Assemble the report from the stage 1–3c outputs and the accept
    /// pass over `records` records: the catalog is the pass's
    /// per-operator counts by volume descending, ties by operator.
    pub(crate) fn assemble(
        mapping: AsnMapping,
        stages: DerivedStages,
        records: usize,
        pass: AcceptPass,
    ) -> StreamedReport {
        let mut catalog: Vec<(Operator, u64)> = pass.counts.into_iter().collect();
        catalog.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        StreamedReport {
            mapping,
            profiles: stages.profiles,
            strict: stages.strict,
            thresholds: stages.thresholds,
            default_threshold: stages.default_threshold,
            records,
            catalog,
            bitmap: pass.bitmap,
            accepted: pass.dense,
            latencies_by_operator: pass.latencies,
        }
    }

    /// Number of operators in the catalog.
    pub fn sno_count(&self) -> usize {
        self.catalog.len()
    }

    /// Records the accept pass kept.
    pub fn accepted_count(&self) -> usize {
        self.bitmap.count_ones()
    }
}

impl Pipeline {
    /// Run all stages over a chunked source in bounded memory.
    /// `source` is called once: pass 1 folds its chunks into the
    /// statistics, and the accept decisions replay from what pass 1
    /// kept (see the module docs), so any chunked stream works —
    /// chunked generators, slices and encoded corpora alike.
    ///
    /// The report is byte-identical at any chunk length and thread
    /// count.
    // sno-lint: allow(panic-reachable): identification is total over validated batches; remaining reachable sites are leaf-justified length invariants in the columnar hot path
    pub fn run_streamed<C, F>(&self, source: F, opts: StreamOptions) -> StreamedReport
    where
        C: RecordChunks<Item = NdtRecord>,
        F: FnOnce() -> C,
    {
        // Stages 1–2: registry mapping + curation.
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);

        // Pass 1: columnarize each chunk and fold it into the
        // statistics accumulator. Chunks are mapped to per-chunk
        // partials on the worker pool and merged in chunk order on this
        // thread, so every bucket and the slot column hold their
        // entries in record order — byte-identical to the serial fold
        // at any thread count.
        let mut progress = Progress::new(opts.progress_every);
        let stats = chunk::par_fold_chunks(
            source(),
            self.threads,
            CorpusStats::new(),
            |chunk| {
                let batch = RecordBatch::from_records(chunk);
                let mut part = CorpusStats::new();
                part.observe_batch(&index, &batch, 0..batch.len());
                part
            },
            |stats, part| {
                progress.advance(part.records);
                stats.merge(part)
            },
        );

        // Stages 3–3c over the accumulated buckets, folded into the
        // per-ASN decision table; then stage 4 decides every record by
        // replaying the slot column against it.
        let stages = self.derive_stages(&mapping, &stats);
        let mut accept = AcceptState::new();
        accept.reset(stages.table.clone(), opts);
        accept.replay(&stats);
        StreamedReport::assemble(mapping, stages, stats.records, accept.into_pass())
    }
}

/// Record-count heartbeat state for the statistics pass: prints to
/// stderr every `every` records (never wall-clock, so the lint's
/// determinism rules hold), silent when `every == 0`.
struct Progress {
    every: usize,
    done: usize,
}

impl Progress {
    fn new(every: usize) -> Progress {
        Progress { every, done: 0 }
    }

    fn advance(&mut self, records: usize) {
        if self.every == 0 {
            self.done += records;
            return;
        }
        let before = self.done / self.every;
        self.done += records;
        if self.done / self.every > before {
            eprintln!("    [stats pass] {} records", self.done);
        }
    }
}

/// What deciding a record stream produced: the per-operator counts,
/// the bitmap, and the optional dense vector and per-operator samples
/// (built by [`AcceptState::replay`], shared with the online
/// identifier's snapshot path).
#[derive(Debug, Clone, Default)]
pub(crate) struct AcceptPass {
    pub(crate) counts: BTreeMap<Operator, u64>,
    pub(crate) bitmap: AcceptBitmap,
    pub(crate) dense: Option<Vec<Option<Operator>>>,
    pub(crate) latencies: Option<BTreeMap<Operator, Vec<f64>>>,
}

impl AcceptPass {
    pub(crate) fn empty(opts: StreamOptions) -> AcceptPass {
        AcceptPass {
            counts: BTreeMap::new(),
            bitmap: AcceptBitmap::new(),
            dense: opts.dense_acceptance.then(Vec::new),
            latencies: opts
                .operator_latencies
                .then(BTreeMap::<Operator, Vec<f64>>::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sno_synth::{MlabGenerator, SynthConfig};
    use sno_types::chunk::slice_chunks;

    fn small_config() -> SynthConfig {
        SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..SynthConfig::test_corpus()
        }
    }

    #[test]
    fn bitmap_round_trips_bits() {
        let mut bitmap = AcceptBitmap::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        for &bit in &pattern {
            bitmap.push(bit);
        }
        assert_eq!(bitmap.len(), pattern.len());
        assert!(!bitmap.is_empty());
        for (i, &bit) in pattern.iter().enumerate() {
            assert_eq!(bitmap.get(i), bit, "bit {i}");
        }
        assert!(!bitmap.get(pattern.len()));
        assert_eq!(bitmap.count_ones(), pattern.iter().filter(|&&b| b).count());
    }

    #[test]
    fn corpus_stats_batch_fold_matches_row_observe() {
        // Column-wise partials over consecutive row ranges, merged in
        // range order (the pass-1 shape), land on the row fold's buckets
        // and slots at every split. The generator only emits curated
        // ASNs, so a few records move to an unmapped one.
        let mut records = MlabGenerator::new(small_config()).generate().records;
        for rec in records.iter_mut().step_by(97) {
            rec.asn = Asn(398101);
        }
        let mapping = map_asns();
        let mut serial = CorpusStats::new();
        for rec in &records {
            serial.observe(&mapping, rec);
        }
        let index = AsnOps::new(&mapping);
        let batch = RecordBatch::from_records(&records);
        for step in [1usize, 1024, batch.len()] {
            let mut columnar = CorpusStats::new();
            for start in (0..batch.len()).step_by(step) {
                let mut part = CorpusStats::new();
                part.observe_batch(&index, &batch, start..(start + step).min(batch.len()));
                columnar = columnar.merge(part);
            }
            assert_eq!(columnar.records, serial.records, "step {step}");
            assert_eq!(columnar.by_asn, serial.by_asn, "step {step}");
            assert_eq!(columnar.by_prefix, serial.by_prefix, "step {step}");
            assert_eq!(columnar.slots, serial.slots, "step {step}");
        }
        assert_eq!(serial.slots.len(), serial.records);
        assert!(serial.slots.contains(&UNMAPPED));
        assert!(serial.slots.iter().any(|&s| s != UNMAPPED));
    }

    #[test]
    fn streamed_report_matches_materialized_run() {
        let corpus = MlabGenerator::new(small_config()).generate();
        let materialized = Pipeline::new().run(&corpus.records);
        let dense = materialized.accepted.as_deref().expect("run keeps it");
        for chunk_len in [1usize, 1024, corpus.records.len()] {
            let streamed = Pipeline::new().run_streamed(
                || slice_chunks(&corpus.records, chunk_len),
                StreamOptions {
                    dense_acceptance: true,
                    ..StreamOptions::default()
                },
            );
            assert_eq!(streamed.records, corpus.records.len());
            assert_eq!(streamed.catalog, materialized.catalog, "chunk {chunk_len}");
            assert_eq!(
                streamed.default_threshold, materialized.default_threshold,
                "chunk {chunk_len}"
            );
            assert_eq!(
                streamed.thresholds, materialized.thresholds,
                "chunk {chunk_len}"
            );
            assert_eq!(
                streamed.strict.examined, materialized.strict.examined,
                "chunk {chunk_len}"
            );
            assert_eq!(
                streamed.accepted.as_deref(),
                Some(dense),
                "chunk {chunk_len}"
            );
            for (i, acc) in dense.iter().enumerate() {
                assert_eq!(streamed.bitmap.get(i), acc.is_some(), "bit {i}");
            }
        }
    }

    #[test]
    fn run_streamed_calls_its_source_once() {
        let corpus = MlabGenerator::new(small_config()).generate();
        let calls = std::cell::Cell::new(0usize);
        let report = Pipeline::new().run_streamed(
            || {
                calls.set(calls.get() + 1);
                slice_chunks(&corpus.records, 1024)
            },
            StreamOptions::default(),
        );
        assert_eq!(calls.get(), 1);
        assert_eq!(report.records, corpus.records.len());
        assert_eq!(report.bitmap.len(), corpus.records.len());
    }

    #[test]
    fn streamed_chunked_generation_matches_materialized_run() {
        let config = small_config();
        let corpus = MlabGenerator::new(config.clone()).generate();
        let materialized = Pipeline::new().run(&corpus.records);
        let generator = MlabGenerator::new(config);
        let streamed = Pipeline::new().run_streamed(
            || generator.generate_chunks(512),
            StreamOptions {
                operator_latencies: true,
                ..StreamOptions::default()
            },
        );
        assert_eq!(streamed.catalog, materialized.catalog);
        assert!(streamed.accepted.is_none());
        // The per-operator latency samples match a dense-scan rebuild.
        let by_op = streamed.latencies_by_operator.expect("requested");
        let mut expect: BTreeMap<Operator, Vec<f64>> = BTreeMap::new();
        let dense = materialized.accepted.expect("run keeps it");
        for (rec, acc) in corpus.records.iter().zip(dense) {
            if let Some(op) = acc {
                expect.entry(op).or_default().push(rec.latency_p5.0);
            }
        }
        assert_eq!(by_op, expect);
    }
}
