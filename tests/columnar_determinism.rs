//! Row/column equivalence over a full generated corpus: the columnar
//! batch constructors and the binary corpus codec must reproduce the
//! row-at-a-time records bit for bit.

use sno_dissect::synth::{MlabGenerator, SynthConfig};
use sno_dissect::types::chunk::RecordChunks;
use sno_dissect::types::{codec, RecordBatch};

/// The small-but-sharded corpus of `tests/par_determinism.rs`.
fn cfg() -> SynthConfig {
    SynthConfig {
        scale: 5e-5,
        min_sessions: 40,
        ..SynthConfig::test_corpus()
    }
}

#[test]
fn batch_builders_agree_with_row_records() {
    let corpus = MlabGenerator::new(cfg()).generate();
    let from_records = RecordBatch::from_records(&corpus.records);
    assert_eq!(from_records.len(), corpus.records.len());
    // Every column round-trips back into the source record.
    for (i, rec) in corpus.records.iter().enumerate() {
        assert_eq!(&from_records.record(i), rec, "record {i}");
    }
    // The chunked builder lands on the same batch at any chunk length.
    let generator = MlabGenerator::new(cfg());
    for chunk in [1usize, 1024, 1 << 30] {
        let from_chunks = RecordBatch::from_chunks(generator.generate_chunks(chunk));
        assert_eq!(from_chunks, from_records, "chunk {chunk}");
    }
}

#[test]
fn codec_round_trips_a_generated_corpus() {
    let corpus = MlabGenerator::new(cfg()).generate();
    let encoded = codec::encode_records(&corpus.records);
    assert_eq!(encoded.len(), corpus.records.len());
    // Whole-buffer decode, chunked decode, and a byte-level round trip
    // all land on the source records.
    assert_eq!(encoded.decode_records(), corpus.records);
    for chunk in [1usize, 4096, 1 << 30] {
        assert_eq!(
            encoded.chunks(chunk).collect_records(),
            corpus.records,
            "chunk {chunk}"
        );
    }
    let reparsed = codec::EncodedCorpus::from_bytes(encoded.bytes().to_vec())
        .expect("self-produced bytes parse");
    assert_eq!(reparsed.decode_records(), corpus.records);
}
