//! The online identification service's correctness anchor: an
//! [`OnlineIdentifier`] fed the corpus in arrival order must produce
//! verdicts — and a rendered report — byte-identical to the batch
//! streamed pipeline, at every chunk length × thread count, whether the
//! state was built serially or sharded and merged.

use sno_bench::streamed_report_text;
use sno_dissect::core::pipeline::Pipeline;
use sno_dissect::core::stream::{StreamOptions, StreamedReport};
use sno_dissect::core::OnlineIdentifier;
use sno_dissect::synth::{MlabGenerator, SynthConfig};
use sno_dissect::types::chunk::{slice_chunks, RecordChunks};
use sno_dissect::types::par;

/// A chunk length larger than any corpus here: one chunk per stream.
const WHOLE: usize = 1 << 30;

/// The small-but-sharded corpus of `tests/par_determinism.rs`.
fn cfg(seed: u64, threads: usize) -> SynthConfig {
    SynthConfig {
        seed,
        threads,
        scale: 5e-5,
        min_sessions: 40,
        ..SynthConfig::test_corpus()
    }
}

/// The snapshot options every comparison here runs under.
fn opts() -> StreamOptions {
    StreamOptions {
        operator_latencies: true,
        ..StreamOptions::default()
    }
}

/// Assert two streamed reports agree on every field the report path
/// exposes, including the per-record acceptance bits.
fn assert_reports_identical(got: &StreamedReport, want: &StreamedReport, label: &str) {
    assert_eq!(got.records, want.records, "{label}: record count");
    assert_eq!(got.catalog, want.catalog, "{label}: catalog");
    assert_eq!(got.thresholds, want.thresholds, "{label}: thresholds");
    assert_eq!(
        got.default_threshold, want.default_threshold,
        "{label}: default threshold"
    );
    assert_eq!(
        got.latencies_by_operator, want.latencies_by_operator,
        "{label}: per-operator latencies"
    );
    assert_eq!(got.bitmap.len(), want.bitmap.len(), "{label}: bitmap len");
    for i in 0..want.bitmap.len() {
        assert_eq!(got.bitmap.get(i), want.bitmap.get(i), "{label}: bit {i}");
    }
}

#[test]
fn online_verdicts_match_batch_across_chunk_thread_and_seed_matrix() {
    for seed in [0x5A7E_1117u64, 7, 42] {
        let baseline_gen = MlabGenerator::new(cfg(seed, 1));
        let batch =
            Pipeline::with_threads(1).run_streamed(|| baseline_gen.generate_chunks(1024), opts());
        let batch_text = streamed_report_text(&batch, cfg(seed, 1).scale);
        for chunk in [1024usize, WHOLE] {
            for threads in [1usize, 2, 8] {
                let generator = MlabGenerator::new(cfg(seed, threads));
                let mut online = OnlineIdentifier::new(Pipeline::with_threads(threads));
                let mut stream = generator.generate_chunks(chunk);
                while let Some(records) = stream.next_chunk() {
                    online.ingest(&records);
                }
                let snapshot = online.snapshot(opts());
                let label = format!("seed {seed} chunk {chunk} threads {threads}");
                assert_reports_identical(&snapshot, &batch, &label);
                assert_eq!(
                    streamed_report_text(&snapshot, cfg(seed, threads).scale),
                    batch_text,
                    "{label}: rendered report"
                );
            }
        }
    }
}

#[test]
fn sharded_identifiers_merged_in_order_match_serial_ingest() {
    let corpus = MlabGenerator::new(cfg(7, 0)).generate();
    let mut serial = OnlineIdentifier::new(Pipeline::with_threads(1));
    serial.ingest(&corpus.records);
    let want = serial.snapshot(opts());
    let want_text = streamed_report_text(&want, cfg(7, 0).scale);

    // Fixed shard boundaries (uneven on purpose); only the build-side
    // thread count varies. Shards build on the worker pool via `par`,
    // then merge left-to-right in shard order.
    let n = corpus.records.len();
    let bounds = [0, n / 5, n / 2, (3 * n) / 4, n];
    for threads in [1usize, 2, 8] {
        let mut shards = par::shard_map(bounds.len() - 1, threads, |s| {
            let mut shard = OnlineIdentifier::new(Pipeline::with_threads(1));
            shard.ingest(&corpus.records[bounds[s]..bounds[s + 1]]);
            shard
        });
        let mut merged = shards.remove(0);
        for shard in shards {
            merged.merge(shard).expect("shards share the bands");
        }
        assert_eq!(merged.ingested(), n, "threads {threads}: ingested");
        let got = merged.snapshot(opts());
        let label = format!("sharded threads {threads}");
        assert_reports_identical(&got, &want, &label);
        assert_eq!(
            streamed_report_text(&got, cfg(7, 0).scale),
            want_text,
            "{label}: rendered report"
        );
    }
}

#[test]
fn interleaved_snapshot_compact_schedules_match_batch() {
    // The incremental anchor: whatever cadence snapshots (and the no-op
    // compactions callers still issue) interleave at, every snapshot
    // answers exactly like the batch streamed pipeline over everything
    // ingested so far.
    let corpus = MlabGenerator::new(cfg(42, 0)).generate();
    let records = &corpus.records;
    let batch = Pipeline::with_threads(1).run_streamed(|| slice_chunks(records, 1024), opts());
    let batch_text = streamed_report_text(&batch, cfg(42, 0).scale);

    for (chunk_len, snap_every, compact_every) in [
        (97usize, 1usize, 1usize), // snapshot+compact on every chunk
        (512, 2, 1),               // snapshot every 2nd chunk, compact each time
        (256, 3, 2),               // sparser compaction than snapshots
        (1024, 1, 0),              // snapshot every chunk, never compact
    ] {
        for threads in [1usize, 4] {
            let mut online = OnlineIdentifier::new(Pipeline::with_threads(threads));
            let mut snapshots = 0usize;
            for (i, chunk) in records.chunks(chunk_len).enumerate() {
                online.ingest(chunk);
                if (i + 1) % snap_every == 0 {
                    let _ = online.snapshot(opts());
                    snapshots += 1;
                    if compact_every > 0 && snapshots.is_multiple_of(compact_every) {
                        online.compact();
                    }
                }
            }
            let got = online.snapshot(opts());
            let label = format!(
                "chunk {chunk_len} snap {snap_every} compact {compact_every} threads {threads}"
            );
            assert_reports_identical(&got, &batch, &label);
            assert_eq!(
                streamed_report_text(&got, cfg(42, 0).scale),
                batch_text,
                "{label}: rendered report"
            );
            if compact_every > 0 {
                // No replay log stays resident, only the 2-byte slot
                // column, and the identifier still answers identically.
                online.compact();
                assert_eq!(
                    online.resident_log_bytes(),
                    2 * records.len(),
                    "{label}: resident bytes"
                );
                assert_reports_identical(&online.snapshot(opts()), &batch, &label);
            }
        }
    }
}

#[test]
fn merge_then_compact_schedules_match_serial_ingest() {
    // Merges of snapshotted shards: the accumulating side *and* the
    // absorbed shard may both have snapshotted and compacted before the
    // merge. The shard's decisions are dropped and its records decided
    // again from the merged slot column, so the merged identifier must
    // answer byte-identically to serial ingest, and again after a
    // further compact.
    let corpus = MlabGenerator::new(cfg(7, 0)).generate();
    let records = &corpus.records;
    let n = records.len();
    let mut serial = OnlineIdentifier::new(Pipeline::with_threads(1));
    serial.ingest(records);
    let want = serial.snapshot(opts());
    let want_text = streamed_report_text(&want, cfg(7, 0).scale);

    for split in [n / 4, n / 2, (3 * n) / 4] {
        let mut acc = OnlineIdentifier::new(Pipeline::with_threads(1));
        acc.ingest(&records[..split]);
        let _ = acc.snapshot(opts());
        acc.compact();
        let mut shard = OnlineIdentifier::new(Pipeline::with_threads(1));
        shard.ingest(&records[split..]);
        let _ = shard.snapshot(opts());
        shard.compact();
        acc.merge(shard).expect("shards share the bands");
        assert_eq!(acc.ingested(), n, "split {split}: ingested");
        let got = acc.snapshot(opts());
        let label = format!("merge of snapshotted shards, split {split}");
        assert_reports_identical(&got, &want, &label);
        // Compact the merged stream too and answer again.
        acc.compact();
        let again = acc.snapshot(opts());
        assert_reports_identical(&again, &want, &label);
        assert_eq!(
            streamed_report_text(&again, cfg(7, 0).scale),
            want_text,
            "{label}: rendered report"
        );
    }
}

mod schedule_properties {
    use super::*;
    use sno_check::prelude::*;
    use std::sync::OnceLock;

    fn fixture() -> &'static Vec<sno_dissect::types::records::NdtRecord> {
        static FIXTURE: OnceLock<Vec<sno_dissect::types::records::NdtRecord>> = OnceLock::new();
        FIXTURE.get_or_init(|| MlabGenerator::new(cfg(7, 0)).generate().records)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any interleaving of (ingest batch sizes × snapshot cadence ×
        /// compaction) answers exactly like a fresh identifier that
        /// ingested everything in one go — the incremental state machine
        /// never leaks into the reports.
        #[test]
        fn arbitrary_schedules_match_fresh_full_replay(
            batch_sizes in prop::collection::vec(1usize..600, 1..5),
            cadence in 1usize..4,
            compact in any::<bool>(),
        ) {
            let records = fixture();
            let build = || OnlineIdentifier::new(Pipeline::with_threads(1));

            let mut online = build();
            let mut offset = 0usize;
            let mut step = 0usize;
            while offset < records.len() {
                let len = batch_sizes[step % batch_sizes.len()].min(records.len() - offset);
                online.ingest(&records[offset..offset + len]);
                offset += len;
                step += 1;
                if step.is_multiple_of(cadence) {
                    let _ = online.snapshot(opts());
                    if compact {
                        online.compact();
                    }
                }
            }
            let got = online.snapshot(opts());

            let mut fresh = build();
            fresh.ingest(records);
            let want = fresh.snapshot(opts());

            prop_assert_eq!(got.records, want.records);
            prop_assert_eq!(&got.catalog, &want.catalog);
            prop_assert_eq!(&got.thresholds, &want.thresholds);
            prop_assert_eq!(got.default_threshold, want.default_threshold);
            prop_assert_eq!(&got.latencies_by_operator, &want.latencies_by_operator);
            prop_assert_eq!(got.bitmap.len(), want.bitmap.len());
            for i in 0..want.bitmap.len() {
                prop_assert_eq!(got.bitmap.get(i), want.bitmap.get(i), "bit {}", i);
            }
            prop_assert_eq!(
                streamed_report_text(&got, cfg(7, 0).scale),
                streamed_report_text(&want, cfg(7, 0).scale)
            );
        }
    }
}
