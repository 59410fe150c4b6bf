//! The streaming pipeline: bounded-memory identification over chunked
//! corpora, and the one function that runs the identification.
//!
//! [`Pipeline::run_streamed`] produces the [`StreamedReport`] from a
//! chunked source in one pass over the source plus a replay of the
//! state that pass kept; every other entry point is a source choice on
//! top of it ([`Pipeline::run`] streams an in-memory slice, a caller
//! holding an encoded corpus streams its [`sno_types::codec`] frames):
//!
//! 1. **Statistics pass** — every decoded chunk's rows are folded into
//!    a [`CorpusStats`] accumulator (per-ASN latency samples, per-slot
//!    [`BandCounts`] for stage 3, per-`(operator, /24)` samples for the
//!    strict filter, and each record's ASN [`Slot`]). The fold reads
//!    three fields of each row where they lie: copying each chunk into
//!    seven [`RecordBatch`] columns to read three of them once only
//!    added work. It takes a run of equal ASNs at a time: one slot
//!    lookup and one bucket lookup per run, not per record, then the
//!    run's latencies appended and counted per band edge (DESIGN §3
//!    has the measured costs). One worker folds every chunk straight
//!    into the accumulator; more fold chunks into partials merged in
//!    chunk order. Either way every bucket and the slot column hold
//!    their entries in record order — byte-identical to a serial
//!    row-at-a-time fold — and the integer counts add up exactly.
//! 2. **Accept replay** — an accept decision reads a record's ASN and
//!    p5 latency only, and pass 1 kept both in record order. So the
//!    records are not streamed again: [`AcceptState`] walks the slot
//!    column with one cursor per slot into the per-ASN buckets and
//!    decides through the [`AcceptTable`](crate::accept::AcceptTable)
//!    that stages 3–3c derive from pass 1 (the one derivation,
//!    `StageCache`, here on a fresh cache). A rule that reads no
//!    latency (a LEO operator's accept, an outlier ASN's reject, an
//!    unmapped ASN) settles its slot's whole run of equal slots at
//!    once; the MEO floor and the relaxed thresholds compare record by
//!    record. The replay emits per-operator counts plus a compact
//!    [`AcceptBitmap`] (one bit per record), and the dense per-record
//!    vector only when [`StreamOptions`] asks for it.
//!
//! The online identifier runs the same two steps apart in time: each
//! arriving chunk is folded as in step 1 into the one [`CorpusStats`] it
//! keeps, and each snapshot derives its table through a `StageCache` it
//! keeps across snapshots, then replays as in step 2 the slots added
//! since the last one (all of them when the accept table shifted).
//!
//! Peak memory is the per-bucket statistics (latency samples and a
//! 2-byte slot per record, not records) plus one generation wave — the
//! corpus itself is never resident unless the source holds it. The
//! statistics stay resident until the replay ends. Chunk-length and
//! thread-count independence is pinned by `tests/stream_determinism.rs`
//! at chunk sizes {1, 1024, whole} × threads {1, 2, 8}.

use crate::accept::{AcceptState, AsnOps, Slot, UNMAPPED};
use crate::asn_map::{map_asns, AsnMapping};
use crate::pipeline::{DerivedStages, Pipeline, StageCache};
use crate::prefix_filter::StrictOutcome;
use crate::validate::{AsnProfile, BandCounts, LatencyBands};
use sno_types::chunk::{self, RecordChunks};
use sno_types::records::NdtRecord;
use sno_types::{Asn, Ipv4, Operator, OrbitClass, Prefix24, RecordBatch};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Chunk length [`Pipeline::run`] streams its in-memory record slice at.
pub(crate) const REPLAY_CHUNK_LEN: usize = 4096;

/// Per-chunk accumulator for the statistics pass: everything stages
/// 3–3c need, with the records themselves discarded.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    /// Records observed.
    pub records: usize,
    /// Per-ASN p5 latencies, in record order (accept-replay input).
    pub by_asn: BTreeMap<Asn, Vec<f64>>,
    /// [`BandCounts`] of the same latencies at the index's band edges,
    /// indexed by [`Slot`] up to the highest slot seen (stage-3 input).
    pub band_counts: Vec<BandCounts>,
    /// Per-`(operator, /24)` samples for non-LEO operators, tagged with
    /// the source ASN so the strict filter can drop outlier ASNs after
    /// stage 3 rules (strict-filter input).
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

    /// Fold one record in: the row-at-a-time reference the run fold
    /// (behind [`CorpusStats::observe_records`] and
    /// [`CorpusStats::observe_batch`]) is checked against. The slot is
    /// derived from the mapping here, not from [`AsnOps`]: the number
    /// of distinct curated ASNs below the record's. Latencies are
    /// counted at the default [`LatencyBands`], as [`AsnOps::new`]
    /// counts them.
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
        let slot = Slot::try_from(curated.range(..rec.asn).count()).unwrap_or(UNMAPPED);
        self.slots.push(slot);
        if let Some(counts) = slot_counts(&mut self.band_counts, slot) {
            counts.count(&LatencyBands::default().edges(), rec.latency_p5.0);
        }
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
    /// merge in shard order, and adding the band counts. Both must
    /// count at the same band edges.
    pub fn merge(mut self, mut other: CorpusStats) -> CorpusStats {
        self.records += other.records;
        for (asn, mut latencies) in other.by_asn {
            self.by_asn.entry(asn).or_default().append(&mut latencies);
        }
        if self.band_counts.len() < other.band_counts.len() {
            self.band_counts
                .resize(other.band_counts.len(), BandCounts::default());
        }
        for (mine, theirs) in self.band_counts.iter_mut().zip(&other.band_counts) {
            mine.merge(theirs);
        }
        for (key, mut samples) in other.by_prefix {
            self.by_prefix.entry(key).or_default().append(&mut samples);
        }
        self.slots.append(&mut other.slots);
        self
    }

    /// Fold a range of batch rows in: its ASN, latency and client
    /// columns go through the same row fold as a decoded chunk, so
    /// buckets, slots and counts come out identical to row-at-a-time
    /// [`CorpusStats::observe`] calls over the same rows (at the
    /// index's band edges).
    pub fn observe_batch(&mut self, index: &AsnOps, batch: &RecordBatch, range: Range<usize>) {
        let asns = &batch.asns()[range.clone()];
        let latencies = &batch.latency_p5()[range.clone()];
        let clients = &batch.clients()[range];
        let rows = asns.iter().zip(latencies).zip(clients);
        self.fold(
            index,
            rows.map(|((&asn, &lat), &client)| (asn, lat, client)),
        );
    }

    /// Fold a decoded chunk in, row by row: pass 1 of
    /// [`Pipeline::run_streamed`] and online ingest. The buckets, slots
    /// and counts equal row-at-a-time [`CorpusStats::observe`] calls
    /// over the same records (at the index's band edges).
    pub fn observe_records(&mut self, index: &AsnOps, records: &[NdtRecord]) {
        self.fold(
            index,
            records
                .iter()
                .map(|rec| (rec.asn, rec.latency_p5.0, rec.client)),
        );
    }

    /// The one fold body over `(ASN, p5 latency, client)` rows in record
    /// order. Consecutive rows of one ASN form a run: its slot and its
    /// `by_asn` bucket are looked up once, its latencies appended, and
    /// its band counts added from the bucket's new tail with one
    /// counting loop per edge. A non-LEO row also goes to its
    /// `(operator, /24)` bucket as it passes.
    fn fold(&mut self, index: &AsnOps, rows: impl ExactSizeIterator<Item = (Asn, f64, Ipv4)>) {
        self.records += rows.len();
        self.slots.reserve(rows.len());
        let edges = index.edges();
        let mut rows = rows.peekable();
        while let Some((asn, lat, client)) = rows.next() {
            let slot = index.slot(asn);
            let prefix_op = index.prefix_op(slot);
            let bucket = self.by_asn.entry(asn).or_default();
            let start = bucket.len();
            let mut row = Some((lat, client));
            while let Some((lat, client)) = row {
                bucket.push(lat);
                if let Some(op) = prefix_op {
                    self.by_prefix
                        .entry((op, client.prefix24()))
                        .or_default()
                        .push((asn, lat));
                }
                row = rows
                    .next_if(|&(next, ..)| next == asn)
                    .map(|(_, lat, client)| (lat, client));
            }
            // The run ends here: its slots and band counts.
            let run = bucket.get(start..).unwrap_or_default();
            self.slots.resize(self.slots.len() + run.len(), slot);
            if let Some(counts) = slot_counts(&mut self.band_counts, slot) {
                counts.count_all(edges, run);
            }
        }
    }
}

/// A slot's band counts, growing the column to the slot; `None` for
/// [`UNMAPPED`], which is counted nowhere.
fn slot_counts(band_counts: &mut Vec<BandCounts>, slot: Slot) -> Option<&mut BandCounts> {
    if slot == UNMAPPED {
        return None;
    }
    let i = usize::from(slot);
    if band_counts.len() <= i {
        band_counts.resize(i + 1, BandCounts::default());
    }
    band_counts.get_mut(i)
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
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if let Some(last) = self.words.last_mut() {
            *last |= u64::from(accepted) << (self.len % 64);
        }
        self.len += 1;
    }

    /// Append the same bit for a run of `n` records, a word at a time:
    /// the partly filled last word is topped up, then whole words and
    /// the run's tail are appended. Equal to `n` [`AcceptBitmap::push`]
    /// calls.
    pub fn push_run(&mut self, accepted: bool, n: usize) {
        let fill = if accepted { u64::MAX } else { 0 };
        let used = self.len % 64;
        self.len += n;
        let mut left = n;
        if used != 0 {
            let take = left.min(64 - used);
            if let Some(last) = self.words.last_mut() {
                *last |= (fill & low_bits(take)) << used;
            }
            left -= take;
        }
        if left >= 64 {
            self.words.resize(self.words.len() + left / 64, fill);
        }
        if !left.is_multiple_of(64) {
            self.words.push(fill & low_bits(left % 64));
        }
    }

    /// Was record `i` accepted?
    pub fn get(&self, i: usize) -> bool {
        i < self.len
            && self
                .words
                .get(i / 64)
                .is_some_and(|word| word >> (i % 64) & 1 == 1)
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

/// A word with its low `k` bits set (`k <= 64`).
fn low_bits(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1 << k) - 1
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
    /// Stage 3 output: per-ASN band-mass profiles and verdicts.
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
        let index = AsnOps::with_bands(&mapping, self.bands);

        // Pass 1: fold each decoded chunk's rows into the statistics.
        // One worker folds every chunk straight into them; more fold
        // chunks into partials on the worker pool, merged in chunk order
        // on this thread. Either way every bucket and the slot column
        // hold their entries in record order — byte-identical to the
        // serial fold at any thread count.
        let stats = chunk::par_fold_chunks(
            Progress {
                source: source(),
                every: opts.progress_every,
                done: 0,
            },
            self.threads,
            CorpusStats::new(),
            |stats, chunk| stats.observe_records(&index, chunk),
            |stats, part| *stats = std::mem::take(stats).merge(part),
        );

        // Stages 3–3c over the accumulated counts and buckets, folded
        // into the per-ASN decision table by the derivation snapshots
        // memoize, here on a fresh cache; then stage 4 decides every
        // record by replaying the slot column against it.
        let stages = StageCache::default().derive(self, &mapping, &index, &stats, 0);
        let mut accept = AcceptState::new();
        accept.reset(stages.table.clone(), opts);
        accept.replay(&stats);
        StreamedReport::assemble(mapping, stages, stats.records, accept.into_pass())
    }
}

/// The statistics pass's source with a record-count heartbeat: prints
/// to stderr every `every` records the source yields (never wall-clock,
/// so the lint's determinism rules hold), silent when `every == 0`.
/// Counting as chunks are pulled prints the same lines at any worker
/// count.
struct Progress<C> {
    source: C,
    every: usize,
    done: usize,
}

impl<C: RecordChunks> RecordChunks for Progress<C> {
    type Item = C::Item;

    fn next_chunk(&mut self) -> Option<Vec<C::Item>> {
        let chunk = self.source.next_chunk()?;
        let before = self.done;
        self.done += chunk.len();
        if self.every > 0 && self.done / self.every > before / self.every {
            eprintln!("    [stats pass] {} records", self.done);
        }
        Some(chunk)
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
    use sno_types::Millis;

    fn small_config() -> SynthConfig {
        SynthConfig {
            scale: 5e-5,
            min_sessions: 40,
            ..SynthConfig::test_corpus()
        }
    }

    /// The `by_asn` and `by_prefix` samples as bit patterns, so NaNs
    /// compare.
    type SampleBits = (
        BTreeMap<Asn, Vec<u64>>,
        BTreeMap<(Operator, Prefix24), Vec<(Asn, u64)>>,
    );

    fn sample_bits(stats: &CorpusStats) -> SampleBits {
        let by_asn = stats
            .by_asn
            .iter()
            .map(|(&asn, lats)| (asn, lats.iter().map(|l| l.to_bits()).collect()))
            .collect();
        let by_prefix = stats
            .by_prefix
            .iter()
            .map(|(&key, samples)| {
                let bits = samples.iter().map(|&(asn, l)| (asn, l.to_bits()));
                (key, bits.collect())
            })
            .collect();
        (by_asn, by_prefix)
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

    /// Length, every bit, the count (which also sees a stray bit above
    /// the length) and the words (through `Debug`).
    fn bitmap_bits(bitmap: &AcceptBitmap) -> (usize, Vec<bool>, usize, String) {
        let bits = (0..bitmap.len()).map(|i| bitmap.get(i)).collect();
        (
            bitmap.len(),
            bits,
            bitmap.count_ones(),
            format!("{bitmap:?}"),
        )
    }

    #[test]
    fn bitmap_push_run_equals_pushing_each_bit() {
        // A run of either bit, 0 to 130 long, from every offset in a
        // word, after a prefix of either pattern.
        for offset in 0..64 {
            for prefix_bit in [false, true] {
                let mut prefix = AcceptBitmap::new();
                for i in 0..offset {
                    prefix.push(prefix_bit || i % 3 == 0);
                }
                for bit in [false, true] {
                    for n in 0..=130 {
                        let mut bulk = prefix.clone();
                        bulk.push_run(bit, n);
                        let mut one = prefix.clone();
                        for _ in 0..n {
                            one.push(bit);
                        }
                        assert_eq!(
                            bitmap_bits(&bulk),
                            bitmap_bits(&one),
                            "offset {offset} prefix {prefix_bit} bit {bit} n {n}"
                        );
                    }
                }
            }
        }
        // And a long sequence of runs, appended back to back.
        let mut bulk = AcceptBitmap::new();
        let mut one = AcceptBitmap::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n = usize::try_from(state >> 33).unwrap_or(0) % 131;
            let bit = state >> 32 & 1 == 1;
            bulk.push_run(bit, n);
            for _ in 0..n {
                one.push(bit);
            }
        }
        assert_eq!(bitmap_bits(&bulk), bitmap_bits(&one));
    }

    #[test]
    fn corpus_stats_folds_match_row_observe() {
        // Partials over consecutive chunks, merged in chunk order (the
        // pass-1 shape), and chunks folded into one accumulator (the
        // online ingest shape) land on the row-at-a-time reference's
        // buckets, slots and band counts at every split, whether the
        // rows come from decoded records or from batch columns. The
        // generator only emits curated ASNs, so a few records move to
        // an unmapped one, and none has a NaN latency, so a few get one
        // of either sign. A hand-built tail splits one mapped ASN's
        // runs by an unmapped ASN and then by another mapped ASN
        // (A-B-A), with NaNs inside the runs.
        let mut records = MlabGenerator::new(small_config()).generate().records;
        for rec in records.iter_mut().step_by(97) {
            rec.asn = Asn(398101);
        }
        for (i, rec) in records.iter_mut().enumerate().skip(5).step_by(89) {
            let nan = if i % 2 == 0 { f64::NAN } else { -f64::NAN };
            rec.latency_p5 = Millis(nan);
        }
        let template = records.first().cloned().expect("a generated record");
        let tail = [
            (28613, 600.0),
            (28613, f64::NAN),
            (398101, 40.0),
            (28613, -f64::NAN),
            (28613, 35.0),
            (13955, -f64::NAN),
            (28613, 1200.0),
        ];
        for (asn, latency) in tail {
            records.push(NdtRecord {
                asn: Asn(asn),
                latency_p5: Millis(latency),
                ..template.clone()
            });
        }
        let mapping = map_asns();
        let mut serial = CorpusStats::new();
        for rec in &records {
            serial.observe(&mapping, rec);
        }
        let index = AsnOps::new(&mapping);
        let batch = RecordBatch::from_records(&records);
        for step in [1usize, 5, 1024, batch.len()] {
            let mut merged_rows = CorpusStats::new();
            let mut merged_columns = CorpusStats::new();
            let mut ingested = CorpusStats::new();
            for (i, chunk) in records.chunks(step).enumerate() {
                let mut part = CorpusStats::new();
                part.observe_records(&index, chunk);
                merged_rows = merged_rows.merge(part);
                let start = i * step;
                let mut part = CorpusStats::new();
                part.observe_batch(&index, &batch, start..start + chunk.len());
                merged_columns = merged_columns.merge(part);
                ingested.observe_records(&index, chunk);
            }
            for folded in [&merged_rows, &merged_columns, &ingested] {
                assert_eq!(folded.records, serial.records, "step {step}");
                assert_eq!(sample_bits(folded), sample_bits(&serial), "step {step}");
                assert_eq!(folded.slots, serial.slots, "step {step}");
                assert_eq!(folded.band_counts, serial.band_counts, "step {step}");
            }
        }
        // The counts cover every mapped record.
        let counted: usize = serial.band_counts.iter().map(BandCounts::n).sum();
        let mapped = serial.slots.iter().filter(|&&s| s != UNMAPPED).count();
        assert_eq!(counted, mapped);
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
