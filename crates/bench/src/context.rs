//! Shared, lazily-built corpora and pipeline state for the experiments.

use sno_core::pipeline::Pipeline;
use sno_core::stream::{StreamOptions, StreamedReport};
use sno_synth::mlab::SessionTruth;
use sno_synth::{AtlasCorpus, AtlasGenerator, MlabCorpus, MlabGenerator, SynthConfig};
use sno_types::chunk::RecordChunks as _;
use sno_types::records::NdtRecord;
use sno_types::Operator;
use std::sync::OnceLock;

/// The chunk length the streaming paths use when the caller gave none.
pub const DEFAULT_CHUNK_LEN: usize = 4096;

/// The five operators Figure 4a tracks, in render order.
pub const FIG4A_OPS: [Operator; 5] = [
    Operator::Starlink,
    Operator::Viasat,
    Operator::O3b,
    Operator::Hughes,
    Operator::Oneweb,
];

/// The Figure 4a corpus and its per-record acceptance.
///
/// The figure regenerates the five operators of interest over a
/// one-year window with a raised session floor, so its corpus differs
/// from the shared [`ReproContext::mlab`] one — cached here the same
/// way, built through the chunked generator and [`Pipeline::run`].
pub struct Fig4aState {
    /// The regenerated corpus.
    pub records: Vec<NdtRecord>,
    /// Per-record acceptance from the pipeline run.
    pub accepted: Vec<Option<Operator>>,
}

/// The Figure 4a generator configuration derived from a base config:
/// daily medians need daily volume, so the window narrows to the
/// figure's year and the session floor rises (the paper has thousands
/// of tests per operator-day).
pub fn fig4a_config(base: &SynthConfig) -> SynthConfig {
    SynthConfig {
        mlab_start: sno_types::Date::new(2022, 4, 1),
        mlab_end: sno_types::Date::new(2023, 4, 1),
        // Keep the fast-test context cheap; the real repro corpus gets
        // ~11 sessions per operator-day.
        min_sessions: if base.scale < 5e-4 { 1_500 } else { 4_000 },
        ..base.clone()
    }
}

/// Everything the experiments share: the synthetic corpora and the
/// identification pipeline's output, built once on first use.
///
/// With a chunk length set ([`ReproContext::with_chunk`]), the
/// experiments that can run over chunked streams do so — the NDT and
/// traceroute corpora are never materialized for those paths. The
/// materialized corpora stay available (and lazy) for the figure paths
/// that still need record slices.
pub struct ReproContext {
    config: SynthConfig,
    chunk: Option<usize>,
    progress_every: usize,
    mlab: OnceLock<(MlabCorpus, Vec<SessionTruth>)>,
    report: OnceLock<StreamedReport>,
    streamed: OnceLock<StreamedReport>,
    atlas: OnceLock<AtlasCorpus>,
    fig4a: OnceLock<Fig4aState>,
}

impl ReproContext {
    /// Context over the default corpus (seed `0x5A7E1117`, 1/1000 of the
    /// paper's M-Lab volume).
    pub fn new() -> ReproContext {
        ReproContext::with_config(SynthConfig::default_corpus())
    }

    /// Context with an explicit configuration.
    pub fn with_config(config: SynthConfig) -> ReproContext {
        ReproContext {
            config,
            chunk: None,
            progress_every: 0,
            mlab: OnceLock::new(),
            report: OnceLock::new(),
            streamed: OnceLock::new(),
            atlas: OnceLock::new(),
            fig4a: OnceLock::new(),
        }
    }

    /// Context that routes the streamable experiments through chunked
    /// generation with `chunk` records per delivered chunk.
    pub fn with_chunk(config: SynthConfig, chunk: usize) -> ReproContext {
        ReproContext {
            chunk: Some(chunk.max(1)),
            ..ReproContext::with_config(config)
        }
    }

    /// Emit a stderr heartbeat every `every` records inside the streamed
    /// pipeline (0 = silent). Record counts, never wall-clock: paper-scale
    /// runs take minutes and CI logs need liveness, but output stays
    /// deterministic.
    pub fn with_progress(mut self, every: usize) -> ReproContext {
        self.progress_every = every;
        self
    }

    /// The generator configuration in use.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// The chunk length, when this context streams.
    pub fn chunk(&self) -> Option<usize> {
        self.chunk
    }

    /// The chunk length the streaming paths should use (set or default).
    pub fn chunk_len(&self) -> usize {
        self.chunk.unwrap_or(DEFAULT_CHUNK_LEN)
    }

    /// The worker-thread setting every pipeline run should honour
    /// (`0` = all cores; output is identical at every setting).
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// The NDT corpus (generated on first call, with its ground truth).
    pub fn mlab(&self) -> &MlabCorpus {
        &self.mlab_with_truth().0
    }

    /// The generator's per-record ground truth for [`ReproContext::mlab`]
    /// (index `i` describes record `i`), which the pipeline never sees.
    pub(crate) fn truth(&self) -> &[SessionTruth] {
        &self.mlab_with_truth().1
    }

    fn mlab_with_truth(&self) -> &(MlabCorpus, Vec<SessionTruth>) {
        self.mlab
            .get_or_init(|| MlabGenerator::new(self.config.clone()).generate_with_truth())
    }

    /// The pipeline report over the materialized NDT corpus, with the
    /// dense per-record acceptance vector.
    pub fn report(&self) -> &StreamedReport {
        self.report
            .get_or_init(|| Pipeline::with_threads(self.config.threads).run(&self.mlab().records))
    }

    /// The streamed pipeline report: chunked generation, per-chunk
    /// statistics, and a bitmap accept replay — the NDT corpus is never
    /// materialized. Byte-identical catalog/thresholds to
    /// [`ReproContext::report`].
    pub fn streamed(&self) -> &StreamedReport {
        self.streamed.get_or_init(|| {
            let generator = MlabGenerator::new(self.config.clone());
            let chunk_len = self.chunk_len();
            Pipeline::with_threads(self.config.threads).run_streamed(
                // The generator runs once: the accept decisions replay
                // from the statistics pass, so this path never holds the
                // corpus and backs the constant-memory CI gates.
                || generator.generate_chunks(chunk_len),
                StreamOptions {
                    operator_latencies: true,
                    progress_every: self.progress_every,
                    ..StreamOptions::default()
                },
            )
        })
    }

    /// The Figure 4a corpus and acceptance (generated and identified on
    /// first call): five operators over the figure's one-year window,
    /// collected from the chunked generator and run through
    /// [`Pipeline::run`] at this context's thread and chunk settings.
    pub fn fig4a(&self) -> &Fig4aState {
        self.fig4a.get_or_init(|| {
            let generator = MlabGenerator::new(fig4a_config(self.config()));
            let records = generator
                .generate_chunks_for(&FIG4A_OPS, self.chunk_len())
                .collect_records();
            let report = Pipeline::with_threads(self.threads()).run(&records);
            Fig4aState {
                records,
                accepted: report.accepted.unwrap_or_default(),
            }
        })
    }

    /// The RIPE Atlas corpus.
    pub fn atlas(&self) -> &AtlasCorpus {
        self.atlas
            .get_or_init(|| AtlasGenerator::new(self.config.clone()).generate())
    }

    /// Probe metadata in the shape the atlas analyses take.
    pub fn probe_infos(&self) -> Vec<sno_atlas::ProbeInfo> {
        self.atlas()
            .probes
            .iter()
            .map(|p| sno_atlas::ProbeInfo {
                id: p.id,
                country: p.country,
                state: p.state,
            })
            .collect()
    }
}

impl Default for ReproContext {
    fn default() -> Self {
        ReproContext::new()
    }
}
