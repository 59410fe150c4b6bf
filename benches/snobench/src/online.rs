//! The `online-feed` and `online-poll` workloads, and the online replay
//! the traced `batch` run adds.

use crate::calib::Calibration;
use crate::corpus::{repeat_setup, Corpus, Prefix, Shape, CHUNK_LEN};
use crate::identify::{reconcile, Budget};
use crate::report::{self, diff, median, ms, Outcome};
use crate::trace::Tracer;
use crate::Args;
use sno_core::{OnlineIdentifier, Pipeline, StreamOptions, StreamedReport};
use sno_types::records::NdtRecord;
use std::time::{Duration, Instant};

/// `online-feed` offered rate, records per second: a 15 s run offers
/// 90 k of the paper-shaped corpus's 121 k records. At 8,000 records/s
/// the last polls kept the thread ~70 % busy, and in slow spells of the
/// shared machine (kernel timings 1.6× the usual) arrivals queued: the
/// p90 freshness of ten seeds spread 11 %, against 4 % over ten seeds
/// without such spells.
const FEED_RATE: usize = 6_000;
/// `online-feed` arrival chunk, records (one every 50 ms at the rate).
const FEED_CHUNK: usize = 300;
/// `online-feed` polls after every this many chunks (every 100 ms).
const FEED_POLL_EVERY: usize = 2;
/// `online-poll` records ingested between two polls.
const TRICKLE: usize = 32;
/// `online-poll` records held back from the preload for the timed
/// trickle: enough for 384 polls.
const POLL_TAIL: usize = 384 * TRICKLE;
/// Rounds of the traced decomposition an online run reconciles.
const CHECK_ROUNDS: usize = 3;

/// An `OnlineIdentifier` at one thread, plus the gauges the benchmark
/// reads from its public accessors after every call.
pub struct Service {
    id: OnlineIdentifier,
    epoch: u64,
    /// Frames decided by snapshots, re-decides after an epoch bump
    /// included.
    decided: usize,
    ingested_at_snapshot: usize,
    max_log_bytes: usize,
}

/// Gauge readings at one point of a run.
#[derive(Debug, Clone, Copy)]
struct Gauges {
    epoch: u64,
    decided: usize,
    ingested: usize,
}

impl Service {
    pub fn new() -> Service {
        Service {
            id: OnlineIdentifier::new(Pipeline::with_threads(1)),
            epoch: 0,
            decided: 0,
            ingested_at_snapshot: 0,
            max_log_bytes: 0,
        }
    }

    pub fn ingest(&mut self, tr: &mut Tracer, records: &[NdtRecord]) {
        tr.span("online.ingest", |_| self.id.ingest(records));
        self.max_log_bytes = self.max_log_bytes.max(self.id.resident_log_bytes());
    }

    pub fn snapshot(&mut self, tr: &mut Tracer) -> StreamedReport {
        let report = tr.span("online.snapshot", |_| {
            self.id.snapshot(StreamOptions::default())
        });
        // An epoch bump re-decides the whole stream; otherwise only the
        // frames ingested since the previous snapshot are decided.
        let (epoch, ingested) = (self.id.accept_epoch(), self.id.ingested());
        self.decided += if epoch != self.epoch {
            ingested
        } else {
            ingested - self.ingested_at_snapshot
        };
        self.epoch = epoch;
        self.ingested_at_snapshot = ingested;
        report
    }

    pub fn compact(&mut self, tr: &mut Tracer) {
        tr.span("online.compact", |_| self.id.compact());
    }

    pub fn ingested(&self) -> usize {
        self.id.ingested()
    }

    /// Start a measured phase: the resident-log maximum restarts here.
    fn phase_start(&mut self) -> Gauges {
        self.max_log_bytes = self.id.resident_log_bytes();
        self.gauges()
    }

    fn gauges(&self) -> Gauges {
        Gauges {
            epoch: self.id.accept_epoch(),
            decided: self.decided,
            ingested: self.id.ingested(),
        }
    }

    /// Push the `online.*` metrics of the phase that started at span
    /// `from` with gauges `start`.
    fn push_metrics(&self, tr: &Tracer, from: usize, start: Gauges, out: &mut Outcome) {
        let to = tr.mark();
        let end = self.gauges();
        let per_call = |name: &str| median(&tr.self_of(name, from, to));
        out.metric("online.ingest_ms", per_call("online.ingest"), "ms");
        out.metric("online.snapshot_ms", per_call("online.snapshot"), "ms");
        out.metric("online.compact_ms", per_call("online.compact"), "ms");
        out.metric(
            "online.epoch_bumps",
            (end.epoch - start.epoch) as f64,
            "count",
        );
        out.metric(
            "online.redecide_ratio",
            (end.decided - start.decided) as f64 / (end.ingested - start.ingested).max(1) as f64,
            "ratio",
        );
        out.metric(
            "online.resident_log_bytes.max",
            self.max_log_bytes as f64,
            "bytes",
        );
        println!(
            "online: {} frames ingested, {} decided, {} epoch bumps, resident log max {} bytes",
            end.ingested - start.ingested,
            end.decided - start.decided,
            end.epoch - start.epoch,
            self.max_log_bytes
        );
    }
}

/// Per-poll samples of an online run.
#[derive(Default)]
struct Polls {
    /// One op, in ms: the calls of one poll, from the first call to the
    /// last return.
    op: Vec<f64>,
    snapshot: Vec<f64>,
    freshness: Vec<f64>,
    /// When each op ran, which sets its calibration factor.
    spans: Vec<(Instant, Instant)>,
    /// How late each op's first call started after it was due, in ms.
    lag: Vec<f64>,
    /// When each stretch of calls into the program ran.
    busy: Vec<(Instant, Instant)>,
    last: Option<StreamedReport>,
}

impl Polls {
    /// Count a poll's report as an attempted op; it must account for
    /// every record ingested so far.
    fn record(&mut self, report: StreamedReport, ingested: usize, out: &mut Outcome) {
        out.attempted += 1;
        if report.records != ingested || report.bitmap.len() != ingested {
            out.failed += 1;
        }
        self.last = Some(report);
    }

    /// Push the end-to-end metrics, timings in reference ms. The open
    /// loop's busy time is in reference time too; a closed loop's wall
    /// time slows with the machine as its calls do, so its share stays
    /// raw.
    fn push_end_to_end(
        &self,
        cal: &mut Calibration,
        wall: Duration,
        setup_s: f64,
        rss_reset: bool,
        open_loop: bool,
        out: &mut Outcome,
    ) {
        crate::rss::push_metric(rss_reset, out);
        out.metric("setup_s", setup_s, "s");
        let whole = cal.factor("timed phase");
        let factors = cal.factors(&self.spans, whole);
        for (p50, p90, label, samples) in [
            ("identify_ms.p50", "identify_ms.p90", "poll op", &self.op),
            (
                "snapshot_ms.p50",
                "snapshot_ms.p90",
                "snapshot",
                &self.snapshot,
            ),
            (
                "freshness_ms.p50",
                "freshness_ms.p90",
                "freshness",
                &self.freshness,
            ),
        ] {
            report::push_timing(out, p50, p90, label, samples, &factors);
        }
        let busy: Duration = self.busy.iter().map(|&(a, b)| b - a).sum();
        let busy_ref = if open_loop {
            let busy_factors = cal.factors(&self.busy, whole);
            self.busy
                .iter()
                .zip(busy_factors)
                .map(|(&(a, b), f)| (b - a).mul_f64(f))
                .sum()
        } else {
            busy
        };
        crate::busy_metric(busy, busy_ref, wall, out);
    }
}

/// Compare the run's last snapshot with `run_streamed` over the same
/// records in the same order, replayed from the encoded corpus; a
/// mismatch fails the last poll. The traced run also reconciles the
/// decomposition over those records.
fn check_final(tr: &mut Tracer, polls: &Polls, corpus: &Corpus, fed: usize, out: &mut Outcome) {
    let source = || Prefix::new(corpus.encoded.chunks(CHUNK_LEN), fed);
    let reference = Pipeline::with_threads(1).run_streamed(source, StreamOptions::default());
    report::print_reference(&reference, &corpus.truth[..fed]);
    match &polls.last {
        None => out.mismatches.push("no poll completed".to_string()),
        Some(last) => {
            let problems = diff(last, &reference, corpus.scale);
            if !problems.is_empty() {
                out.failed += 1;
                out.mismatches.push(format!(
                    "final snapshot vs run_streamed: {}",
                    problems.join("; ")
                ));
            }
        }
    }
    if tr.enabled() {
        reconcile(
            tr,
            source,
            &reference,
            corpus.scale,
            Budget::Rounds(CHECK_ROUNDS),
            out,
        );
    }
}

/// The `online-feed` workload: open loop from one thread. Chunks of
/// [`FEED_CHUNK`] time-ordered records are due at [`FEED_RATE`]; a poll
/// (snapshot, then compact) is due with every [`FEED_POLL_EVERY`]th
/// chunk, right after it. Latencies run from due times, so a stall
/// delays every later arrival too.
pub fn run_feed(args: &Args) -> Outcome {
    let mut tr = Tracer::new(args.trace);
    let (corpus, setup_s) = repeat_setup(args.setup_reps(), &mut tr, |tr| {
        Corpus::build(tr, Shape::Paper, args.seed, true)
    });
    let setup_end = tr.mark();
    let mut out = Outcome::default();
    let offered = (args.seconds.as_secs_f64() * FEED_RATE as f64) as usize;
    let chunks = offered.min(corpus.records.len()) / FEED_CHUNK / FEED_POLL_EVERY * FEED_POLL_EVERY;
    let period = Duration::from_secs_f64(FEED_CHUNK as f64 / FEED_RATE as f64);
    println!(
        "feed: {chunks} chunks of {FEED_CHUNK} records at {FEED_RATE} records/s, a poll every {FEED_POLL_EVERY} chunks"
    );

    let mut svc = Service::new();
    let rss_reset = !args.trace && crate::rss::reset_peak();
    let from = tr.mark();
    let start_gauges = svc.phase_start();
    let mut polls = Polls::default();
    let mut cal = Calibration::new();
    let t0 = Instant::now();
    let mut end = t0;
    for i in 0..chunks {
        let due = t0 + period * i as u32;
        cal.wait_until(due);
        let a = Instant::now();
        polls.lag.push(ms(a - due));
        tr.begin_op();
        svc.ingest(
            &mut tr,
            &corpus.records[i * FEED_CHUNK..(i + 1) * FEED_CHUNK],
        );
        let b = Instant::now();
        polls.busy.push((a, b));
        end = b;
        if (i + 1) % FEED_POLL_EVERY == 0 {
            tr.begin_op();
            let got = svc.snapshot(&mut tr);
            let c = Instant::now();
            svc.compact(&mut tr);
            let d = Instant::now();
            polls.busy.push((b, d));
            polls.spans.push((b, d));
            end = d;
            polls.op.push(ms(d - b));
            polls.snapshot.push(ms(c - b));
            // The newest record this snapshot includes arrived with
            // chunk i.
            polls.freshness.push(ms(c - due));
            polls.record(got, svc.ingested(), &mut out);
        }
    }
    let wall = end - t0;
    if !args.trace {
        polls.push_end_to_end(&mut cal, wall, setup_s, rss_reset, true, &mut out);
    }
    println!(
        "feed: wall {:.3} s, lag p90 {:.3} ms max {:.3} ms",
        wall.as_secs_f64(),
        report::quantile(&polls.lag, 0.9),
        report::quantile(&polls.lag, 1.0)
    );
    if args.trace {
        crate::setup_metrics(&tr, setup_end, &corpus, &mut out);
        svc.push_metrics(&tr, from, start_gauges, &mut out);
        crate::lag_metrics(&polls.lag, &mut out);
    }
    check_final(&mut tr, &polls, &corpus, chunks * FEED_CHUNK, &mut out);
    if args.trace {
        crate::write_trace(&tr, args);
    }
    out
}

/// The `online-poll` workload: closed loop. A dashboard ingests
/// [`TRICKLE`] time-ordered records, then snapshots and compacts,
/// repeatedly, on top of a capped corpus mostly ingested in set-up.
pub fn run_poll(args: &Args) -> Outcome {
    let mut tr = Tracer::new(args.trace);
    let ((corpus, mut svc, split), setup_s) = repeat_setup(args.setup_reps(), &mut tr, |tr| {
        let corpus = Corpus::build(tr, Shape::Capped, args.seed, true);
        let split = corpus.records.len().saturating_sub(POLL_TAIL);
        let mut svc = Service::new();
        for chunk in corpus.records[..split].chunks(CHUNK_LEN) {
            tr.begin_op();
            svc.ingest(tr, chunk);
        }
        tr.begin_op();
        let _ = svc.snapshot(tr);
        svc.compact(tr);
        (corpus, svc, split)
    });
    let setup_end = tr.mark();
    let mut out = Outcome::default();
    println!(
        "poll: {split} records preloaded, then {TRICKLE} records per poll from the remaining {}",
        corpus.records.len() - split
    );

    let rss_reset = !args.trace && crate::rss::reset_peak();
    let from = tr.mark();
    let start_gauges = svc.phase_start();
    let mut polls = Polls::default();
    let mut cal = Calibration::new();
    let start = Instant::now();
    let deadline = start + args.seconds;
    let mut next = split;
    let mut end = start;
    while Instant::now() < deadline && next + TRICKLE <= corpus.records.len() {
        let a = Instant::now();
        polls.lag.push(ms(a - end));
        tr.begin_op();
        svc.ingest(&mut tr, &corpus.records[next..next + TRICKLE]);
        next += TRICKLE;
        let b = Instant::now();
        let got = svc.snapshot(&mut tr);
        let c = Instant::now();
        svc.compact(&mut tr);
        end = Instant::now();
        polls.busy.push((a, end));
        polls.spans.push((a, end));
        polls.op.push(ms(end - a));
        polls.snapshot.push(ms(c - b));
        polls.freshness.push(ms(c - a));
        polls.record(got, svc.ingested(), &mut out);
        if !args.trace {
            cal.probe();
            end = Instant::now();
        }
    }
    let wall = end - start;
    if args.trace {
        crate::setup_metrics(&tr, setup_end, &corpus, &mut out);
        svc.push_metrics(&tr, from, start_gauges, &mut out);
        crate::lag_metrics(&polls.lag, &mut out);
    } else {
        polls.push_end_to_end(&mut cal, wall, setup_s, rss_reset, false, &mut out);
    }
    check_final(&mut tr, &polls, &corpus, next, &mut out);
    if args.trace {
        crate::write_trace(&tr, args);
    }
    out
}

/// The traced `batch` run's online replay: the paper-shaped corpus in
/// generation order through the service, a snapshot and compact after
/// every [`CHUNK_LEN`]-record chunk. Its last snapshot must equal the
/// batch reference over the same records.
pub fn replay(tr: &mut Tracer, corpus: &Corpus, reference: &StreamedReport, out: &mut Outcome) {
    let mut svc = Service::new();
    let from = tr.mark();
    let start = svc.phase_start();
    let mut last = None;
    for chunk in corpus.records.chunks(CHUNK_LEN) {
        tr.begin_op();
        svc.ingest(tr, chunk);
        tr.begin_op();
        last = Some(svc.snapshot(tr));
        svc.compact(tr);
    }
    svc.push_metrics(tr, from, start, out);
    out.attempted += 1;
    let problems = last.map_or_else(
        || vec!["no snapshot".to_string()],
        |r| diff(&r, reference, corpus.scale),
    );
    if !problems.is_empty() {
        out.failed += 1;
        out.mismatches.push(format!(
            "online replay of the batch corpus: {}",
            problems.join("; ")
        ));
    }
}
