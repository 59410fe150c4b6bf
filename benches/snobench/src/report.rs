//! Result assembly: percentiles, the output checks every workload
//! shares, and the one-line JSON result.

use sno_core::accuracy::{is_satellite_truth, Confusion};
use sno_core::{AcceptBitmap, StreamedReport};
use sno_synth::mlab::SessionTruth;
use std::fmt::Write as _;
use std::time::Duration;

/// The paper's Table 1 count, which every `batch` report must reach.
pub const PAPER_SNOS: usize = 18;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: identifications or polls.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Check failures that are not tied to one operation.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Print the check summary and, as the last stdout line, the JSON
    /// result. Panics if the metrics are not exactly `expected`: that
    /// is a bug in this benchmark, not in the program.
    pub fn finish(&self, expected: &[&str]) {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        let mut want = expected.to_vec();
        want.sort_unstable();
        assert_eq!(names, want, "metric set differs from BENCHMARK.json");
        for m in &self.mismatches {
            println!("check FAILED: {m}");
        }
        println!(
            "error_rate {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let correct = self.failed == 0 && self.mismatches.is_empty();
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot carry, as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Linearly interpolated `q`-quantile of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Push `<name>.p50` and `<name>.p90` of `raw` (ms) in reference ms,
/// each sample times its calibration factor (see `calib`), and print
/// the sample count, the raw quartiles and the factors' range with them.
pub fn push_timing(
    out: &mut Outcome,
    p50: &'static str,
    p90: &'static str,
    label: &str,
    raw: &[f64],
    factors: &[f64],
) {
    let reference: Vec<f64> = raw.iter().zip(factors).map(|(r, f)| r * f).collect();
    let (a, b) = (quantile(&reference, 0.5), quantile(&reference, 0.9));
    println!(
        "{label}: n={} raw p25={:.3} p50={:.3} p75={:.3} p90={:.3} max={:.3} ms; factor {:.3}-{:.3}; reference p50={a:.3} p90={b:.3} ms",
        raw.len(),
        quantile(raw, 0.25),
        quantile(raw, 0.5),
        quantile(raw, 0.75),
        quantile(raw, 0.9),
        quantile(raw, 1.0),
        quantile(factors, 0.0),
        quantile(factors, 1.0),
    );
    out.metric(p50, a, "ms");
    out.metric(p90, b, "ms");
}

/// Field-by-field and rendered-text comparison of two identification
/// reports, one line per difference (empty when they agree). The same
/// fields `repro --online --verify-batch` compares, plus the KDE
/// profiles and strict-filter outcome.
pub fn diff(got: &StreamedReport, want: &StreamedReport, scale: f64) -> Vec<String> {
    let mut out = Vec::new();
    if got.records != want.records {
        out.push(format!("records {} vs {}", got.records, want.records));
    }
    if got.catalog != want.catalog {
        out.push("catalog rows differ".to_string());
    }
    let bits = |m: &std::collections::BTreeMap<_, f64>| -> Vec<_> {
        m.iter().map(|(k, v)| (*k, v.to_bits())).collect()
    };
    if bits(&got.thresholds) != bits(&want.thresholds)
        || got.default_threshold.to_bits() != want.default_threshold.to_bits()
    {
        out.push("relaxed thresholds differ".to_string());
    }
    if !same_bits(&got.bitmap, &want.bitmap) {
        out.push(format!(
            "accept bits differ ({} vs {} accepted)",
            got.bitmap.count_ones(),
            want.bitmap.count_ones()
        ));
    }
    if format!("{:?}", got.profiles) != format!("{:?}", want.profiles) {
        out.push("KDE profiles differ".to_string());
    }
    if format!("{:?}", got.strict) != format!("{:?}", want.strict) {
        out.push("strict-filter outcome differs".to_string());
    }
    if sno_bench::streamed_report_text(got, scale) != sno_bench::streamed_report_text(want, scale) {
        out.push("rendered reports differ".to_string());
    }
    out
}

fn same_bits(a: &AcceptBitmap, b: &AcceptBitmap) -> bool {
    a.len() == b.len() && (0..a.len()).all(|i| a.get(i) == b.get(i))
}

/// Precision and recall of an acceptance bitmap against the generator's
/// ground truth (printed, never gated on).
pub fn confusion(truth: &[SessionTruth], bitmap: &AcceptBitmap) -> Confusion {
    let mut c = Confusion::default();
    for (i, t) in truth.iter().enumerate().take(bitmap.len()) {
        match (is_satellite_truth(t.kind), bitmap.get(i)) {
            (true, true) => c.true_positive += 1,
            (true, false) => c.false_negative += 1,
            (false, true) => c.false_positive += 1,
            (false, false) => c.true_negative += 1,
        }
    }
    c
}

/// Print the summary line of a checked reference report.
pub fn print_reference(report: &StreamedReport, truth: &[SessionTruth]) {
    let head: Vec<String> = report
        .catalog
        .iter()
        .take(4)
        .map(|(op, n)| format!("{} {n}", op.name()))
        .collect();
    println!(
        "reference: {} records, {} SNOs (paper: {PAPER_SNOS}; largest: {}), {} accepted; {}",
        report.records,
        report.sno_count(),
        head.join(", "),
        report.accepted_count(),
        confusion(truth, &report.bitmap)
    );
}
