//! The `batch` workload, and the traced decomposition of one
//! identification that every traced run reconciles against
//! `Pipeline::run_streamed`.

use crate::calib::Calibration;
use crate::corpus::{repeat_setup, Corpus, Shape, CHUNK_LEN};
use crate::report::{self, diff, median, ms, Outcome, PAPER_SNOS};
use crate::trace::Tracer;
use crate::Args;
use sno_core::prefix_filter::strict_filter_from_buckets;
use sno_core::validate::{profile_one, AsnProfile, LatencyBands};
use sno_core::{
    map_asns, relaxed_thresholds, AcceptBitmap, AcceptTable, AsnOps, AsnVerdict, CorpusStats,
    Pipeline, StreamOptions, StreamedReport,
};
use sno_types::chunk::{slice_chunks, RecordChunks};
use sno_types::records::NdtRecord;
use sno_types::{Asn, Operator, RecordBatch};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The identification layers' span names; their self times add up to
/// `trace.layer_sum_ms`.
const LAYERS: [&str; 8] = [
    "codec.decode",
    "batch.columnarize",
    "stream.stats_fold",
    "validate.kde",
    "prefix_filter.strict",
    "prefix_filter.relaxed",
    "accept.table",
    "accept.decide",
];

/// Work counts of one decomposed identification.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    samples: usize,
    asn_buckets: usize,
    prefix_buckets: usize,
    fits: usize,
    samples_fitted: usize,
    examined: usize,
    retained: usize,
    decided: usize,
    accepted: usize,
}

/// One identification through the public functions
/// `Pipeline::run_streamed` composes at one thread, in its order, with
/// a span around every call: decode, columnarize and fold each chunk;
/// fit each (operator, ASN) profile in mapping order; run the strict
/// filter, the relaxed thresholds and the accept-table build; then
/// decode, columnarize and decide each chunk again.
fn decomposed<C, F>(tr: &mut Tracer, bands: LatencyBands, source: F) -> (StreamedReport, Counts)
where
    C: RecordChunks<Item = NdtRecord>,
    F: Fn() -> C,
{
    tr.span("identify", |tr| {
        let mut counts = Counts::default();
        let mapping = map_asns();
        let index = AsnOps::new(&mapping);

        let mut stats = CorpusStats::new();
        let mut chunks = source();
        while let Some(chunk) = tr.span("codec.decode", |_| chunks.next_chunk()) {
            let batch = tr.span("batch.columnarize", |_| RecordBatch::from_records(&chunk));
            tr.span("stream.stats_fold", |_| {
                let mut part = CorpusStats::new();
                part.observe_batch(&index, &batch, 0..batch.len());
                stats = std::mem::take(&mut stats).merge(part);
            });
        }
        counts.asn_buckets = stats.by_asn.len();
        counts.prefix_buckets = stats.by_prefix.len();
        counts.samples = stats.by_asn.values().map(Vec::len).sum::<usize>()
            + stats.by_prefix.values().map(Vec::len).sum::<usize>();

        let pairs: Vec<(Operator, Asn)> = mapping
            .mapping
            .iter()
            .flat_map(|(&op, asns)| asns.iter().map(move |&asn| (op, asn)))
            .collect();
        let profiles: Vec<AsnProfile> = pairs
            .iter()
            .map(|&(op, asn)| {
                let latencies = stats.by_asn.get(&asn).map(Vec::as_slice).unwrap_or(&[]);
                tr.span("validate.kde", |_| profile_one(op, asn, latencies, bands))
            })
            .collect();
        for p in profiles
            .iter()
            .filter(|p| p.verdict != AsnVerdict::Insufficient)
        {
            counts.fits += 1;
            counts.samples_fitted += p.tests;
        }
        let verdicts: BTreeMap<Asn, AsnVerdict> = profiles
            .iter()
            .map(|p| (p.asn, p.verdict.clone()))
            .collect();
        let strict = tr.span("prefix_filter.strict", |_| {
            strict_filter_from_buckets(&profiles, &stats.by_prefix, 1)
        });
        counts.examined = strict.examined;
        counts.retained = strict.retained.len();
        let (thresholds, default_threshold) =
            tr.span("prefix_filter.relaxed", |_| relaxed_thresholds(&strict));
        let table = tr.span("accept.table", |_| {
            AcceptTable::build(&mapping, &verdicts, &thresholds, default_threshold)
        });
        let records = stats.records;
        drop(stats);

        let mut bitmap = AcceptBitmap::new();
        let mut by_op: BTreeMap<Operator, u64> = BTreeMap::new();
        let mut chunks = source();
        while let Some(chunk) = tr.span("codec.decode", |_| chunks.next_chunk()) {
            let batch = tr.span("batch.columnarize", |_| RecordBatch::from_records(&chunk));
            tr.span("accept.decide", |_| {
                for (&asn, &lat) in batch.asns().iter().zip(batch.latency_p5()) {
                    let decision = table.decide(asn, lat);
                    bitmap.push(decision.is_some());
                    if let Some(op) = decision {
                        *by_op.entry(op).or_default() += 1;
                    }
                }
            });
        }
        counts.decided = bitmap.len();
        counts.accepted = bitmap.count_ones();
        let mut catalog: Vec<(Operator, u64)> = by_op.into_iter().collect();
        catalog.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let report = StreamedReport {
            mapping,
            profiles,
            strict,
            thresholds,
            default_threshold,
            records,
            catalog,
            bitmap,
            accepted: None,
            latencies_by_operator: None,
        };
        (report, counts)
    })
}

/// How long [`reconcile`] alternates.
pub enum Budget {
    Until(Instant),
    Rounds(usize),
}

/// Alternate untraced `run_streamed` calls with traced decompositions
/// over the same source until `budget` runs out, check every report
/// against `reference` (each is one attempted op), and push the
/// identification layers' per-layer metrics: medians over the traced
/// ops, and the reconciliation of their layer sum with the untraced
/// median. Returns the closed-loop gaps between consecutive ops in ms.
pub fn reconcile<C, F>(
    tr: &mut Tracer,
    source: F,
    reference: &StreamedReport,
    scale: f64,
    budget: Budget,
    out: &mut Outcome,
) -> Vec<f64>
where
    C: RecordChunks<Item = NdtRecord>,
    F: Fn() -> C,
{
    let pipeline = Pipeline::with_threads(1);
    let from = tr.mark();
    let mut untraced = Vec::new();
    let mut gaps = Vec::new();
    let mut counts = Counts::default();
    let mut round = 0usize;
    let mut prev_end: Option<Instant> = None;
    loop {
        let more = match budget {
            Budget::Until(deadline) => Instant::now() < deadline,
            Budget::Rounds(n) => round < n,
        };
        if !more {
            break;
        }
        round += 1;

        let start = Instant::now();
        if let Some(end) = prev_end {
            gaps.push(ms(start - end));
        }
        let report = pipeline.run_streamed(&source, StreamOptions::default());
        let end = Instant::now();
        untraced.push(ms(end - start));
        check(&report, reference, scale, "untraced run_streamed", out);

        let start = Instant::now();
        gaps.push(ms(start - end));
        tr.begin_op();
        let (report, c) = decomposed(tr, pipeline.bands, &source);
        prev_end = Some(Instant::now());
        counts = c;
        check(&report, reference, scale, "traced decomposition", out);
    }
    let to = tr.mark();

    let by_op = tr.self_by_op(from, to);
    let layer = |name: &str| -> f64 {
        let per_op: Vec<f64> = by_op
            .values()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&per_op)
    };
    let sums: Vec<f64> = by_op
        .values()
        .map(|m| {
            LAYERS
                .iter()
                .map(|l| m.get(l).copied().unwrap_or(0.0))
                .sum()
        })
        .collect();
    let layer_sum = median(&sums);
    let identify_p50 = median(&untraced);
    println!(
        "reconciliation: {} traced ops; untraced run_streamed p50 {identify_p50:.3} ms, layer self-time sum {layer_sum:.3} ms",
        by_op.len()
    );
    out.metric("codec.decode_ms", layer("codec.decode"), "ms");
    out.metric("batch.columnarize_ms", layer("batch.columnarize"), "ms");
    out.metric("stream.stats_fold_ms", layer("stream.stats_fold"), "ms");
    out.metric("stream.samples", counts.samples as f64, "count");
    out.metric("stream.asn_buckets", counts.asn_buckets as f64, "count");
    out.metric(
        "stream.prefix_buckets",
        counts.prefix_buckets as f64,
        "count",
    );
    out.metric("validate.kde_ms", layer("validate.kde"), "ms");
    out.metric(
        "validate.max_fit_ms",
        median(&tr.max_self_by_op("validate.kde", from, to)),
        "ms",
    );
    out.metric("validate.fits", counts.fits as f64, "count");
    out.metric(
        "validate.samples_fitted",
        counts.samples_fitted as f64,
        "count",
    );
    out.metric(
        "prefix_filter.strict_ms",
        layer("prefix_filter.strict"),
        "ms",
    );
    out.metric(
        "prefix_filter.relaxed_ms",
        layer("prefix_filter.relaxed"),
        "ms",
    );
    out.metric("prefix_filter.examined", counts.examined as f64, "count");
    out.metric("prefix_filter.retained", counts.retained as f64, "count");
    out.metric("accept.table_ms", layer("accept.table"), "ms");
    out.metric("accept.decide_ms", layer("accept.decide"), "ms");
    out.metric("accept.decided", counts.decided as f64, "count");
    out.metric("accept.accepted", counts.accepted as f64, "count");
    out.metric("trace.layer_sum_ms", layer_sum, "ms");
    out.metric("trace.unattributed_ms", identify_p50 - layer_sum, "ms");
    gaps
}

/// Count one checked op, printing the first difference of a failure.
fn check(got: &StreamedReport, want: &StreamedReport, scale: f64, what: &str, out: &mut Outcome) {
    out.attempted += 1;
    let problems = diff(got, want, scale);
    if !problems.is_empty() {
        if out.failed == 0 {
            println!(
                "{what} op {} differs: {}",
                out.attempted,
                problems.join("; ")
            );
        }
        out.failed += 1;
    }
}

/// The `batch` workload: closed loop, one caller, one op = one
/// `run_streamed` over the SNOC-encoded paper-shaped corpus.
pub fn run(args: &Args) -> Outcome {
    let mut tr = Tracer::new(args.trace);
    let (corpus, setup_s) = repeat_setup(args.setup_reps(), &mut tr, |tr| {
        Corpus::build(tr, Shape::Paper, args.seed, false)
    });
    let setup_end = tr.mark();
    let mut out = Outcome::default();

    // The reference identifies the in-memory records, not the codec
    // path the timed ops replay.
    let pipeline = Pipeline::with_threads(1);
    let opts = StreamOptions::default();
    let reference = pipeline.run_streamed(|| slice_chunks(&corpus.records, CHUNK_LEN), opts);
    report::print_reference(&reference, &corpus.truth);
    if reference.sno_count() != PAPER_SNOS {
        out.mismatches.push(format!(
            "reference names {} SNOs, not the paper's {PAPER_SNOS}",
            reference.sno_count()
        ));
    }
    let source = || corpus.encoded.chunks(CHUNK_LEN);
    // Warm-up: page in the corpus and the code before timing.
    let _ = pipeline.run_streamed(source, opts);

    if args.trace {
        crate::setup_metrics(&tr, setup_end, &corpus, &mut out);
        let deadline = Instant::now() + args.seconds;
        let gaps = reconcile(
            &mut tr,
            source,
            &reference,
            corpus.scale,
            Budget::Until(deadline),
            &mut out,
        );
        crate::lag_metrics(&gaps, &mut out);
        crate::online::replay(&mut tr, &corpus, &reference, &mut out);
        crate::write_trace(&tr, args);
        return out;
    }

    let rss_reset = crate::rss::reset_peak();
    let mut cal = Calibration::new();
    let start = Instant::now();
    let deadline = start + args.seconds;
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    let mut busy = Duration::ZERO;
    while Instant::now() < deadline {
        let op_start = Instant::now();
        let got = pipeline.run_streamed(source, opts);
        let op_end = Instant::now();
        busy += op_end - op_start;
        samples.push(ms(op_end - op_start));
        spans.push((op_start, op_end));
        check(&got, &reference, corpus.scale, "batch", &mut out);
        cal.probe();
    }
    let wall = start.elapsed();
    crate::rss::push_metric(rss_reset, &mut out);
    out.metric("setup_s", setup_s, "s");
    let whole = cal.factor("timed phase");
    let factors = cal.factors(&spans, whole);
    // One op is one identification, and run_streamed is also the call
    // that returns the report, over a corpus complete when the op
    // starts: identify, snapshot and freshness are the same samples.
    for (p50, p90, label) in [
        ("identify_ms.p50", "identify_ms.p90", "identify"),
        ("snapshot_ms.p50", "snapshot_ms.p90", "report call"),
        ("freshness_ms.p50", "freshness_ms.p90", "freshness"),
    ] {
        report::push_timing(&mut out, p50, p90, label, &samples, &factors);
    }
    crate::busy_metric(busy, busy, wall, &mut out);
    out
}
