//! Set-up: corpus generation, arrival ordering and encoding.
//!
//! Everything here runs before a timed region starts; `MlabGenerator`
//! is never called inside one. The seed is the only input: the same
//! seed gives byte-identical records on every run and thread count.

use crate::calib::Calibration;
use crate::trace::Tracer;
use sno_synth::mlab::SessionTruth;
use sno_synth::{MlabGenerator, SynthConfig};
use sno_types::chunk::RecordChunks;
use sno_types::codec::{encode_records, EncodedCorpus};
use sno_types::records::NdtRecord;
use std::time::Instant;

/// Chunk length every replay of an encoded corpus decodes at (the
/// repository's default streaming chunk).
pub const CHUNK_LEN: usize = 4096;

/// The two corpus shapes the workloads draw from.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Paper-shaped: 1/100 of the paper's M-Lab volume, ~121 k records,
    /// 96.6 % Starlink.
    Paper,
    /// Per-operator capped: 1/1000 of the volume with a 10,000-session
    /// floor, ~54 k records: Starlink, O3b, SES and Viasat hold ~10 k
    /// each, so several large LEO, MEO and GEO buckets grow together.
    Capped,
}

impl Shape {
    pub fn config(self, seed: u64) -> SynthConfig {
        let base = SynthConfig {
            seed,
            // Set-up only: generation fans out over every core.
            threads: 0,
            ..SynthConfig::default_corpus()
        };
        match self {
            Shape::Paper => SynthConfig {
                scale: 1e-2,
                ..base
            },
            Shape::Capped => SynthConfig {
                scale: 1e-3,
                min_sessions: 10_000,
                ..base
            },
        }
    }
}

/// A generated corpus with its ground truth and its SNOC encoding.
pub struct Corpus {
    pub records: Vec<NdtRecord>,
    pub truth: Vec<SessionTruth>,
    pub encoded: EncodedCorpus,
    pub scale: f64,
}

impl Corpus {
    /// Generate and encode. `arrival_order` sorts records (with their
    /// truth) by timestamp first, stably, so operators interleave the
    /// way M-Lab rows arrive; otherwise records stay in generation
    /// order, grouped by operator.
    pub fn build(tr: &mut Tracer, shape: Shape, seed: u64, arrival_order: bool) -> Corpus {
        let config = shape.config(seed);
        let scale = config.scale;
        let generator = MlabGenerator::new(config);
        let (corpus, truth) = tr.span("synth.generate", |_| generator.generate_with_truth());
        let (records, truth) = if arrival_order {
            let mut pairs: Vec<(NdtRecord, SessionTruth)> =
                corpus.records.into_iter().zip(truth).collect();
            pairs.sort_by_key(|(rec, _)| rec.timestamp);
            pairs.into_iter().unzip()
        } else {
            (corpus.records, truth)
        };
        let encoded = tr.span("codec.encode", |_| encode_records(&records));
        Corpus {
            records,
            truth,
            encoded,
            scale,
        }
    }
}

/// Kernel timings taken before each set-up (see `calib`).
const SETUP_PROBES: usize = 16;

/// Run a set-up `reps` times, dropping each result before the next
/// starts, and return the last result with the median set-up time in
/// reference seconds: raw seconds × the factor of calibration-kernel
/// timings taken before each set-up.
pub fn repeat_setup<T>(
    reps: usize,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> T,
) -> (T, f64) {
    let mut cal = Calibration::new();
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        for _ in 0..SETUP_PROBES {
            cal.probe();
        }
        let start = Instant::now();
        last = Some(setup(tr));
        secs.push(start.elapsed().as_secs_f64());
    }
    let result = last.expect("at least one set-up ran");
    let raw = crate::report::median(&secs);
    let factor = cal.factor("set-up");
    println!("set-up: {} runs, raw median {raw:.4} s", secs.len());
    (result, raw * factor)
}

/// The first `n` records of a chunked stream: replays exactly the
/// records an online run ingested out of a longer encoded corpus.
pub struct Prefix<C> {
    inner: C,
    left: usize,
}

impl<C> Prefix<C> {
    pub fn new(inner: C, n: usize) -> Prefix<C> {
        Prefix { inner, left: n }
    }
}

impl<C: RecordChunks> RecordChunks for Prefix<C> {
    type Item = C::Item;

    fn next_chunk(&mut self) -> Option<Vec<C::Item>> {
        if self.left == 0 {
            return None;
        }
        let mut chunk = self.inner.next_chunk()?;
        chunk.truncate(self.left);
        self.left -= chunk.len();
        Some(chunk)
    }
}
