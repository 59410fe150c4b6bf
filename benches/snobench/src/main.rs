//! `snobench`: the repository benchmark.
//!
//! One process runs one workload with one seed:
//!
//! ```text
//! snobench --workload <batch|online-feed|online-poll> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It generates its inputs from the seed in untimed set-up, times only
//! calls into the program, checks the outputs, and prints one JSON
//! object as the last stdout line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a span-traced run with
//! `--trace 1`. README.md explains the workloads, the metrics and the
//! public functions this benchmark depends on.

mod calib;
mod corpus;
mod identify;
mod online;
mod report;
mod rss;
mod trace;

use corpus::Corpus;
use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// The `end_to_end` metrics of BENCHMARK.json, printed by every
/// untraced run.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "peak_rss_mb",
    "identify_ms.p50",
    "identify_ms.p90",
    "snapshot_ms.p50",
    "snapshot_ms.p90",
    "freshness_ms.p50",
    "freshness_ms.p90",
    "busy_share",
];

/// The `per_layer` metrics of BENCHMARK.json, printed by every traced
/// run.
const PER_LAYER: [&str; 32] = [
    "synth.generate_ms",
    "synth.records",
    "codec.encode_ms",
    "codec.decode_ms",
    "codec.bytes",
    "batch.columnarize_ms",
    "stream.stats_fold_ms",
    "stream.samples",
    "stream.asn_buckets",
    "stream.prefix_buckets",
    "validate.kde_ms",
    "validate.max_fit_ms",
    "validate.fits",
    "validate.samples_fitted",
    "prefix_filter.strict_ms",
    "prefix_filter.relaxed_ms",
    "prefix_filter.examined",
    "prefix_filter.retained",
    "accept.table_ms",
    "accept.decide_ms",
    "accept.decided",
    "accept.accepted",
    "online.ingest_ms",
    "online.snapshot_ms",
    "online.compact_ms",
    "online.epoch_bumps",
    "online.redecide_ratio",
    "online.resident_log_bytes.max",
    "feed.lag_ms.p90",
    "feed.lag_ms.max",
    "trace.layer_sum_ms",
    "trace.unattributed_ms",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const USAGE: &str =
    "usage: snobench --workload <batch|online-feed|online-poll> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy)]
enum Workload {
    Batch,
    OnlineFeed,
    OnlinePoll,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::OnlineFeed => "online-feed",
            Workload::OnlinePoll => "online-poll",
        }
    }
}

/// Parsed command line.
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    let all = [Workload::Batch, Workload::OnlineFeed, Workload::OnlinePoll];
                    let found = all.into_iter().find(|w| w.name() == value);
                    workload = Some(found.ok_or_else(|| format!("unknown workload `{value}`"))?);
                }
                "--seed" => {
                    let parsed = match value.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => value.parse(),
                    };
                    seed = Some(parsed.map_err(|e| format!("bad --seed `{value}`: {e}"))?);
                }
                "--seconds" => {
                    let s: u64 = value
                        .parse()
                        .map_err(|e| format!("bad --seconds `{value}`: {e}"))?;
                    if s == 0 {
                        return Err("--seconds must be positive".to_string());
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// The traced run prints no `setup_s`, so it sets up once.
    fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// Push `busy_share`: `busy_ref`, the time inside the program's calls
/// (in reference time for an open loop, see `calib`), over the timed
/// phase's wall time. `busy` is the raw time, printed beside it.
fn busy_metric(busy: Duration, busy_ref: Duration, wall: Duration, out: &mut Outcome) {
    let wall_s = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "busy: {:.3} s of {:.3} s wall (raw share {:.4})",
        busy.as_secs_f64(),
        wall.as_secs_f64(),
        busy.as_secs_f64() / wall_s,
    );
    out.metric("busy_share", busy_ref.as_secs_f64() / wall_s, "ratio");
}

/// Push the set-up layers' metrics from the spans before `setup_end`.
fn setup_metrics(tr: &Tracer, setup_end: usize, corpus: &Corpus, out: &mut Outcome) {
    let total = |name: &str| tr.self_of(name, 0, setup_end).iter().sum::<f64>();
    out.metric("synth.generate_ms", total("synth.generate"), "ms");
    out.metric("synth.records", corpus.records.len() as f64, "count");
    out.metric("codec.encode_ms", total("codec.encode"), "ms");
    out.metric("codec.bytes", corpus.encoded.bytes().len() as f64, "bytes");
}

/// Push `feed.lag_ms.*` from per-op lateness samples (ms).
fn lag_metrics(lag: &[f64], out: &mut Outcome) {
    out.metric("feed.lag_ms.p90", report::quantile(lag, 0.9), "ms");
    out.metric("feed.lag_ms.max", report::quantile(lag, 1.0), "ms");
}

/// Write the traced run's spans next to the benchmark's sources.
fn write_trace(tr: &Tracer, args: &Args) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    match tr.write(&path) {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    rss::single_arena();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("snobench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "snobench: workload {}, seed {}, {} s, trace {}, identifier at 1 thread, {} cores available",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let outcome = match args.workload {
        Workload::Batch => identify::run(&args),
        Workload::OnlineFeed => online::run_feed(&args),
        Workload::OnlinePoll => online::run_poll(&args),
    };
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    outcome.finish(expected);
    ExitCode::SUCCESS
}
