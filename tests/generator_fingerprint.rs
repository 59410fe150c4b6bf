//! Fixed fingerprints of the synthetic generators.
//!
//! The other determinism suites compare two runs of the generator with
//! each other, so a change that alters every run alike passes them.
//! These tests compare against digests committed with the code: the
//! encoded NDT corpus of `SynthConfig::test_corpus()` plus its ground
//! truth (materialized at one and two threads, and chunked), and the
//! path-sample corpora of one LEO, one MEO and one GEO operator. A
//! speed-up of the orbit, path or flow models must leave them unchanged;
//! a change that means to alter the corpus updates the digests and says
//! so.

use sno_dissect::synth::mlab::SessionTruth;
use sno_dissect::synth::paths::{PathSample, PathSampler};
use sno_dissect::synth::{MlabGenerator, SynthConfig};
use sno_dissect::types::chunk::RecordChunks;
use sno_dissect::types::codec::encode_records;
use sno_dissect::types::Operator;

/// Digest of `encode_records(..).bytes()` for the test corpus.
const RECORDS_DIGEST: u64 = 9_695_200_053_482_451_140;
/// Digest of the test corpus's per-record ground truth.
const TRUTH_DIGEST: u64 = 1_468_123_145_390_262_518;
/// Digest of the path samples of Starlink, O3b and Viasat, in that
/// order.
const PATHS_DIGEST: u64 = 15_049_474_145_645_786_971;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn records_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.0
}

fn truth_digest(truth: &[SessionTruth]) -> u64 {
    let mut h = Fnv::new();
    for t in truth {
        h.write(format!("{t:?};").as_bytes());
    }
    h.0
}

fn paths_digest(samples: &[PathSample]) -> u64 {
    let mut h = Fnv::new();
    for s in samples {
        h.write(format!("{:?}/{:?};", s.operator, s.kind).as_bytes());
        h.write(&s.base_rtt_ms.to_bits().to_le_bytes());
        h.write(&s.rate_mbps.to_bits().to_le_bytes());
    }
    h.0
}

fn config(threads: usize) -> SynthConfig {
    SynthConfig {
        threads,
        ..SynthConfig::test_corpus()
    }
}

#[test]
fn ndt_corpus_matches_its_committed_digest() {
    for threads in [1, 2] {
        let (corpus, truth) = MlabGenerator::new(config(threads)).generate_with_truth();
        assert_eq!(corpus.records.len(), truth.len());
        let bytes = encode_records(&corpus.records);
        assert_eq!(
            (records_digest(bytes.bytes()), truth_digest(&truth)),
            (RECORDS_DIGEST, TRUTH_DIGEST),
            "threads {threads}: {} records",
            corpus.records.len()
        );
    }
    let chunked = MlabGenerator::new(config(2))
        .generate_chunks(1000)
        .collect_records();
    assert_eq!(
        records_digest(encode_records(&chunked).bytes()),
        RECORDS_DIGEST,
        "generate_chunks(1000)"
    );
}

#[test]
fn path_samples_match_their_committed_digest() {
    let sampler = PathSampler::new(config(2));
    let samples: Vec<PathSample> = [Operator::Starlink, Operator::O3b, Operator::Viasat]
        .into_iter()
        .flat_map(|op| sampler.samples_for(op))
        .collect();
    assert_eq!(
        paths_digest(&samples),
        PATHS_DIGEST,
        "{} samples",
        samples.len()
    );
}
