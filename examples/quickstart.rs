//! Quickstart: generate a synthetic M-Lab corpus, run the paper's SNO
//! identification pipeline over it, and print the headline results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sno_dissect::core::analysis;
use sno_dissect::core::pipeline::Pipeline;
use sno_dissect::synth::{MlabGenerator, SynthConfig};
use sno_dissect::types::OrbitClass;

fn main() {
    // 1. A deterministic synthetic NDT corpus (1/1000 of the paper's
    //    M-Lab volume; tweak `scale` for denser statistics).
    let config = SynthConfig::default_corpus();
    println!(
        "generating corpus (seed {:#x}, scale {:.0e})...",
        config.seed, config.scale
    );
    let corpus = MlabGenerator::new(config).generate();
    println!("  {} speed tests", corpus.records.len());

    // 2. Run the identification pipeline (Figure 1 of the paper).
    let report = Pipeline::new().run(&corpus.records);
    println!("\nidentified {} SNOs (paper: 18):", report.sno_count());
    for (op, n) in report.catalog.iter().take(8) {
        println!("  {:<12} {:>8} tests", op.name(), n);
    }
    println!("  ...");

    // 3. The bird's-eye comparison: latency per orbit, over the
    //    per-record acceptance `run` keeps.
    let accepted = report.accepted.as_deref().expect("run keeps it");
    println!("\naccess latency (p5) medians:");
    for (op, summary) in analysis::latency_by_operator(&corpus.records, accepted) {
        println!(
            "  {:<12} {:>7.1} ms  (n={})",
            op.name(),
            summary.median,
            summary.count
        );
    }

    // 4. Jitter: LEO is fast but relatively unstable.
    let jitter = analysis::jitter_by_orbit(&corpus.records, accepted);
    println!("\njitter variation (jitter_p95 / latency_p5) medians:");
    for orbit in OrbitClass::ALL {
        if let Some(v) = jitter.median_variation(orbit) {
            println!("  {orbit}: {v:.2}");
        }
    }
    println!("\npaper's finding: LEO ~0.5 vs GEO ~0.28 — low latency, high relative jitter.");
}
