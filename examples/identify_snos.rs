//! Walk the identification methodology stage by stage (Figure 1),
//! narrating what each stage keeps, flags and rejects.
//!
//! ```sh
//! cargo run --release --example identify_snos
//! ```

use sno_dissect::core::pipeline::Pipeline;
use sno_dissect::core::validate::AsnVerdict;
use sno_dissect::synth::{MlabGenerator, SynthConfig};

fn main() {
    let corpus = MlabGenerator::new(SynthConfig::default_corpus()).generate();
    println!("corpus: {} NDT speed tests\n", corpus.records.len());
    // One pipeline run; its report keeps every stage's output.
    let report = Pipeline::new().run(&corpus.records);

    // Stage 1-2: registry mapping + manual curation.
    let mapping = &report.mapping;
    println!("== stage 1-2: ASN-to-SNO mapping ==");
    println!(
        "candidates (ASdb + HE search): {}",
        mapping.candidates.len()
    );
    println!(
        "curated: {} SNOs over {} ASNs; rejected lookalikes:",
        mapping.operator_count(),
        mapping.asn_count()
    );
    for (asn, why) in &mapping.rejected {
        println!("  {asn}: {why}");
    }

    // Stage 3: latency-profile validation against the advertised
    // technology, on the band masses of each ASN's sample.
    println!("\n== stage 3: latency-profile validation ==");
    for p in &report.profiles {
        match &p.verdict {
            AsnVerdict::Outlier(reason) => {
                println!("  {} / {}: OUTLIER — {reason}", p.operator.name(), p.asn)
            }
            AsnVerdict::MixedWithinAsn(foreign) => println!(
                "  {} / {}: mixed within ASN ({:.0}% foreign mass) — prefix stage needed",
                p.operator.name(),
                p.asn,
                foreign * 100.0
            ),
            _ => {}
        }
    }

    // Stage 3b: the strict per-/24 filter.
    println!("\n== stage 3b: strict prefix filter ==");
    let strict = &report.strict;
    println!(
        "retained {} /24s across {} SNOs (examined {}, thin {}, band-violations {})",
        strict.retained.len(),
        strict.covered().len(),
        strict.examined,
        strict.rejected_thin,
        strict.rejected_band
    );

    // Stage 3c: relax using the observed minima.
    println!("\n== stage 3c: relaxed thresholds ==");
    for (op, t) in &report.thresholds {
        println!("  {:<12} accept latency >= {t:.1} ms", op.name());
    }
    println!(
        "  (others)     accept latency >= {:.1} ms  [paper: 527 ms]",
        report.default_threshold
    );

    // Stage 4: the catalog.
    println!("\n== stage 4: the SNO catalog (Table 1) ==");
    for (op, n) in &report.catalog {
        println!("  {:<12} {n}", op.name());
    }
}
