//! One reproduction function per table/figure of the paper.
//!
//! Every function renders the same rows/series the paper reports, with
//! the paper's published values inline for comparison. Absolute numbers
//! come from a simulator, so the *shape* — who wins, by what factor,
//! where crossovers fall — is the comparison target (see
//! EXPERIMENTS.md).

use crate::context::ReproContext;
use sno_core::analysis;
use sno_core::validate::AsnVerdict;
use sno_stats::Kde;
use sno_types::chunk::RecordChunks as _;
use sno_types::records::CountryCode;
use sno_types::{Asn, Operator, OrbitClass, Prefix24, Rng};
use std::fmt::Write as _;

/// An experiment runner.
pub type Runner = fn(&ReproContext) -> String;

/// The experiment registry: `(id, what it reproduces, runner)`.
pub const EXPERIMENTS: &[(&str, &str, Runner)] = &[
    (
        "table1",
        "Table 1: identified SNOs and test volumes",
        table1,
    ),
    ("table2", "Table 2: RIPE Atlas dataset summary", table2),
    ("table3", "Table 3: curated ASN-to-SNO mapping", table3),
    ("fig1", "Figure 1: pipeline stage census", fig1),
    ("fig2", "Figure 2: per-ASN latency KDE profiles", fig2),
    ("fig3a", "Figure 3a: strict prefix-filter outcome", fig3a),
    ("fig3b", "Figure 3b: Viasat prefix dissection", fig3b),
    ("fig3c", "Figure 3c: access latency per SNO", fig3c),
    ("fig4a", "Figure 4a: daily latency stability", fig4a),
    ("fig4b", "Figure 4b: jitter variation per orbit", fig4b),
    ("fig4c", "Figure 4c: retransmissions and PEPs", fig4c),
    ("fig5", "Figure 5: BGP peering views", fig5),
    ("fig6a", "Figure 6a: probe-to-PoP RTT per country", fig6a),
    ("fig6b", "Figure 6b: RTT to root DNS per country", fig6b),
    ("fig6c", "Figure 6c: hops to root DNS per country", fig6c),
    ("fig7", "Figure 7: probe-to-PoP link history", fig7),
    ("fig8a", "Figure 8a: probe-to-PoP RTT per US state", fig8a),
    ("fig8b", "Figure 8b: PoP-change detection", fig8b),
    ("fig9", "Figure 9: fast.com per SNO and continent", fig9),
    ("fig10a", "Figure 10a: CDN fetch times", fig10a),
    ("fig10b", "Figure 10b: H1 vs H2 page loads", fig10b),
    ("fig10c", "Figure 10c: DNS lookup times", fig10c),
    ("fig11", "Figure 11: YouTube adaptive streaming", fig11),
    ("fig12", "Figure 12: more BGP peering views", fig12),
    ("fig13", "Figure 13: peering evolution 2021-2023", fig13),
    ("fig14", "Figure 14: Prolific census scores", fig14),
    (
        "paths",
        "Path model: per-SNO link ground truth feeding Fig. 3c",
        paths,
    ),
    (
        "coverage",
        "Section 4: coverage-inference validation",
        coverage,
    ),
    (
        "ablation-filter",
        "Ablation: strict-only vs relaxed filtering, scored on ground truth",
        ablation_filter,
    ),
];

/// Run one experiment by id. `None` if the id is unknown.
pub fn run_experiment(ctx: &ReproContext, id: &str) -> Option<String> {
    EXPERIMENTS
        .iter()
        .find(|(eid, ..)| *eid == id)
        .map(|(_, _, f)| f(ctx))
}

/// The report the catalog experiments render: the streamed one when the
/// context streams, the materialized one otherwise (byte-identical in
/// every rendered field).
fn identified(ctx: &ReproContext) -> &sno_core::StreamedReport {
    if ctx.chunk().is_some() {
        ctx.streamed()
    } else {
        ctx.report()
    }
}

/// Per-record acceptance over `ctx.mlab()`'s records: the dense vector
/// `Pipeline::run` always keeps.
fn mlab_accepted(ctx: &ReproContext) -> &[Option<Operator>] {
    ctx.report().accepted.as_deref().unwrap_or_default()
}

/// Table 1 rendering.
fn catalog_table(catalog: &[(Operator, u64)], scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12}   (scale {:.0e}, floors applied)",
        "SNO", "measured", "paper(full)", scale
    );
    for (op, n) in catalog {
        let paper = sno_registry::profile::profile_of(*op).mlab_tests;
        let _ = writeln!(out, "{:<12} {:>10} {:>12}", op.name(), n, paper);
    }
    let _ = writeln!(out, "SNOs identified: {} (paper: 18)", catalog.len());
    out
}

/// Render a [`sno_core::StreamedReport`] the way `table1` + `fig1` do.
///
/// Shared by the `repro --online` verification path, which renders the
/// incremental snapshot and the batch streamed report through this one
/// function and compares the two byte-for-byte.
pub fn streamed_report_text(report: &sno_core::StreamedReport, scale: f64) -> String {
    let mut out = catalog_table(&report.catalog, scale);
    out.push_str(&census_text(report));
    out
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn table1(ctx: &ReproContext) -> String {
    catalog_table(&identified(ctx).catalog, ctx.config().scale)
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn table2(ctx: &ReproContext) -> String {
    let rows = sno_atlas::country_summary(&ctx.atlas().traceroutes, &ctx.probe_infos());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<4} {:>7} {:>12} {:>12}",
        "CC", "probes", "start", "traceroutes"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<4} {:>7} {:>12} {:>12}",
            r.country.as_str(),
            r.probes,
            r.first_measurement.date().to_string(),
            r.traceroutes
        );
    }
    let total: usize = rows.iter().map(|r| r.probes).sum();
    let _ = writeln!(out, "total probes: {total} (paper: 67)");
    out
}

fn table3(_ctx: &ReproContext) -> String {
    let mapping = sno_core::map_asns();
    let mut out = String::new();
    for (op, asns) in &mapping.mapping {
        let list: Vec<String> = asns.iter().map(|a| a.0.to_string()).collect();
        let _ = writeln!(out, "{:<22} {}", op.name(), list.join(", "));
    }
    let _ = writeln!(
        out,
        "{} SNOs, {} ASNs (paper: 41 SNOs, 67 ASNs); {} lookalikes rejected",
        mapping.operator_count(),
        mapping.asn_count(),
        mapping.rejected.len()
    );
    out
}

/// Figure 1 rendering: the stage census of one report.
fn census_text(report: &sno_core::StreamedReport) -> String {
    let sno_core::StreamedReport {
        mapping,
        profiles,
        strict,
        default_threshold,
        records,
        ..
    } = report;
    let mut out = String::new();
    let _ = writeln!(out, "stage 1-2 candidates: {}", mapping.candidates.len());
    let _ = writeln!(
        out,
        "stage 2  curated:    {} ASNs / {} SNOs",
        mapping.asn_count(),
        mapping.operator_count()
    );
    let outliers = profiles
        .iter()
        .filter(|p| matches!(p.verdict, AsnVerdict::Outlier(_)))
        .count();
    let _ = writeln!(out, "stage 3  KDE outlier ASNs: {outliers}");
    let _ = writeln!(
        out,
        "stage 3b strict prefixes retained: {} over {} SNOs (paper: 25 over 6)",
        strict.retained.len(),
        strict.covered().len()
    );
    let _ = writeln!(
        out,
        "stage 3c default relaxed threshold: {default_threshold:.1} ms (paper: 527 ms)"
    );
    let accepted = report.accepted_count();
    let _ = writeln!(out, "stage 4  records accepted: {accepted} of {records}");
    out
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig1(ctx: &ReproContext) -> String {
    census_text(identified(ctx))
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig2(ctx: &ReproContext) -> String {
    let report = ctx.report();
    let interesting: &[(u32, &str)] = &[
        (14593, "Starlink subscribers (expected LEO)"),
        (27277, "Starlink corporate (planted terrestrial)"),
        (800, "OneWeb (expected LEO)"),
        (60725, "O3b (expected MEO)"),
        (12684, "SES hybrid (expected MEO+GEO)"),
        (201554, "SES anomaly (planted terrestrial)"),
        (10538, "TelAlaska (GEO mixed with wireline)"),
    ];
    // The verdicts decide on band counts; the mode count only draws the
    // figure, from a KDE fitted here over each listed ASN's latencies.
    let mut samples: std::collections::BTreeMap<Asn, Vec<f64>> = interesting
        .iter()
        .map(|&(asn, _)| (Asn(asn), Vec::new()))
        .collect();
    for rec in &ctx.mlab().records {
        if let Some(latencies) = samples.get_mut(&rec.asn) {
            latencies.push(rec.latency_p5.0);
        }
    }
    let mut out = String::new();
    for &(asn, label) in interesting {
        let Some(p) = report.profiles.iter().find(|p| p.asn == Asn(asn)) else {
            continue;
        };
        let modes = match samples.get(&Asn(asn)) {
            Some(latencies) if p.verdict != AsnVerdict::Insufficient => fig2_modes(latencies),
            _ => 0,
        };
        let _ = writeln!(
            out,
            "AS{asn:<7} {label}\n         tests {:>6}, mass<100ms {:.2}, expected-band mass {:.2}, modes {modes}, verdict {:?}",
            p.tests, p.terrestrial_mass, p.expected_mass, p.verdict
        );
    }
    out
}

/// Figure 2's mode count of one ASN's latency KDE: local maxima above
/// 20 % of the peak on a 400-point grid over 0-1200 ms.
fn fig2_modes(latencies: &[f64]) -> usize {
    Kde::fit(latencies).map_or(0, |kde| kde.modes_on_grid(0.0, 1_200.0, 400, 0.2))
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig3a(ctx: &ReproContext) -> String {
    let strict = &ctx.report().strict;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "strict filter: MEO > {:.0} ms / GEO > {:.0} ms, >= {} tests per /24",
        sno_core::prefix_filter::MEO_FLOOR_MS,
        sno_core::prefix_filter::GEO_FLOOR_MS,
        sno_core::prefix_filter::STRICT_MIN_TESTS
    );
    for stat in &strict.retained {
        let _ = writeln!(
            out,
            "{:<12} {:<18} tests {:>5}  min {:>6.1}  median {:>6.1}",
            stat.operator.name(),
            stat.prefix.to_string(),
            stat.tests,
            stat.min_latency_ms,
            stat.summary.median
        );
    }
    let _ = writeln!(
        out,
        "retained {} prefixes over {} SNOs (paper: 25 over 6); rejected thin {} / band {}",
        strict.retained.len(),
        strict.covered().len(),
        strict.rejected_thin,
        strict.rejected_band
    );
    out
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig3b(ctx: &ReproContext) -> String {
    let corpus = ctx.mlab();
    let mut out = String::new();
    for c in [63u8, 115, 116, 117] {
        let prefix = if c == 63 {
            Prefix24::new(75, 105, 63)
        } else {
            Prefix24::new(45, 232, c)
        };
        let lat: Vec<f64> = corpus
            .records
            .iter()
            .filter(|r| r.client.prefix24() == prefix)
            .map(|r| r.latency_p5.0)
            .collect();
        let Some(s) = sno_stats::FiveNumber::of(&lat) else {
            continue;
        };
        let below90 = lat.iter().filter(|&&l| l < 90.0).count();
        let _ = writeln!(
            out,
            "{:<18} tests {:>5}  min {:>6.1}  median {:>6.1}  max {:>7.1}  <90ms: {:>4.0}%",
            prefix.to_string(),
            s.count,
            s.min,
            s.median,
            s.max,
            100.0 * below90 as f64 / lat.len() as f64
        );
    }
    // The inset: one hybrid IP over time, clustered.
    let hybrid = Prefix24::new(45, 232, 115);
    let mut per_ip: std::collections::BTreeMap<_, Vec<f64>> = Default::default();
    for r in &corpus.records {
        if r.client.prefix24() == hybrid {
            per_ip.entry(r.client).or_default().push(r.latency_p5.0);
        }
    }
    if let Some((ip, lat)) = per_ip.into_iter().max_by_key(|(_, v)| v.len()) {
        let fast = lat.iter().filter(|&&l| l < 90.0).count();
        let mid = lat.iter().filter(|&&l| (90.0..300.0).contains(&l)).count();
        let sat = lat.iter().filter(|&&l| l >= 450.0).count();
        let _ = writeln!(
            out,
            "inset {ip}: {} tests -> clusters fast {fast} / degraded {mid} / satellite {sat} (paper: 20-40 / 100-150 / ~600 ms)",
            lat.len()
        );
    }
    out
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig3c(ctx: &ReproContext) -> String {
    let table = if ctx.chunk().is_some() {
        // The streamed accept pass collected the samples already; no
        // corpus rescan (or corpus) needed.
        let empty = std::collections::BTreeMap::new();
        let by_op = ctx
            .streamed()
            .latencies_by_operator
            .as_ref()
            .unwrap_or(&empty);
        analysis::latency_table(by_op)
    } else {
        analysis::latency_by_operator(&ctx.mlab().records, mlab_accepted(ctx))
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>8} {:>8} {:>8}   (paper: LEO 56-154, MEO 279, GEO median 673.5; SSI 620 best GEO, KVH 835 worst)",
        "SNO", "n", "q1", "median", "q3"
    );
    for (op, s) in &table {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>8.1} {:>8.1} {:>8.1}",
            op.name(),
            s.count,
            s.q1,
            s.median,
            s.q3
        );
    }
    out
}

/// Render one Figure 4a row. An operator with no accepted sessions at
/// this scale gets an explicit marker instead of a silent 0-day row
/// with NaN columns.
fn fig4a_row(
    op: Operator,
    row: Option<(Vec<sno_stats::DailyPoint>, Option<f64>)>,
    paper_var: f64,
) -> String {
    let (daily, var) = row.unwrap_or_default();
    if daily.is_empty() {
        return format!(
            "{:<12} no accepted sessions at this scale (paper {:.1}%)\n",
            op.name(),
            paper_var
        );
    }
    let medians: Vec<f64> = daily.iter().map(|d| d.median).collect();
    let med = sno_stats::median(&medians).unwrap_or(f64::NAN);
    // Too few days for a p95 day-to-day variation is still a real row —
    // mark the statistic unavailable rather than printing NaN.
    let var = var.map_or_else(|| "n/a".to_string(), |v| format!("{:.1}%", v * 100.0));
    format!(
        "{:<12} {:>6} {:>13.1} ms {:>10} (paper {:.1}%)\n",
        op.name(),
        daily.len(),
        med,
        var,
        paper_var
    )
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig4a(ctx: &ReproContext) -> String {
    // The figure's corpus and acceptance are cached on the context
    // (chunked generation, `Pipeline::run` at the context's thread
    // setting); see `ReproContext::fig4a`.
    let state = ctx.fig4a();

    let mut out = String::new();
    let paper = [
        (Operator::Starlink, 3.1),
        (Operator::Viasat, 7.2),
        (Operator::O3b, 41.4),
        (Operator::Hughes, 72.0),
        (Operator::Oneweb, 120.0),
    ];
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>16} {:>14}",
        "SNO", "days", "median-of-day", "p95 daily var"
    );
    // One grouped pass over the corpus instead of one full scan per
    // operator.
    let ops: Vec<Operator> = paper.iter().map(|&(op, _)| op).collect();
    let mut by_op = analysis::stability_by_operator(&state.records, &state.accepted, &ops);
    for (op, paper_var) in paper {
        out.push_str(&fig4a_row(op, by_op.remove(&op), paper_var));
    }
    out
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig4b(ctx: &ReproContext) -> String {
    let j = analysis::jitter_by_orbit(&ctx.mlab().records, mlab_accepted(ctx));
    let mut out = String::new();
    for orbit in OrbitClass::ALL {
        let med = j.median_variation(orbit).unwrap_or(f64::NAN);
        let tail = j.tail_at_least(orbit, 100.0).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{orbit:<4} median jitter variation {med:>5.2}   share with >=100 ms absolute jitter {:>4.0}%",
            tail * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(paper: LEO 0.5 vs GEO 0.28 relative; inset: >80% of GEO at >=100 ms, <20% of LEO)"
    );
    out
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig4c(ctx: &ReproContext) -> String {
    let groups = analysis::retransmissions(&ctx.mlab().records, mlab_accepted(ctx));
    let mut out = String::new();
    for (group, values) in &groups {
        let med = sno_stats::median(values).unwrap_or(f64::NAN);
        let p90 = sno_stats::quantile(values, 0.9).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{:<12} n {:>6}  median {:>6.2}%  p90 {:>6.2}%",
            group.to_string(),
            values.len(),
            med * 100.0,
            p90 * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(paper: GEO(others) median 8.74%; GEO(PEP) tracks LEO; LEO < MEO)"
    );
    out
}

fn peering_text(ops: &[Operator]) -> String {
    let snap = sno_synth::bgp::snapshot_for(2023);
    let mut out = String::new();
    for &op in ops {
        let view = sno_bgp::peering_view(&snap, op);
        let _ = writeln!(
            out,
            "{} ({}), degree {} — tier-1 reach: {}",
            op.name(),
            view.asn,
            view.degree,
            if view.has_tier1() { "yes" } else { "no" }
        );
        for p in &view.peers {
            let _ = writeln!(
                out,
                "    {:<9} {:<26} {}  degree {:>3}{}",
                p.asn.to_string(),
                p.name,
                p.country,
                p.degree,
                if p.likely_upstream {
                    "  [upstream]"
                } else {
                    ""
                }
            );
        }
    }
    out
}

fn fig5(_ctx: &ReproContext) -> String {
    peering_text(&[Operator::Starlink, Operator::Oneweb, Operator::Kacific])
}

fn fig12(_ctx: &ReproContext) -> String {
    peering_text(&[
        Operator::Viasat,
        Operator::Hughes,
        Operator::Ses,
        Operator::HellasSat,
        Operator::Ultisat,
        Operator::Marlink,
    ])
}

fn country_table(rows: Vec<(CountryCode, sno_stats::FiveNumber)>) -> String {
    let mut out = String::new();
    for (c, s) in rows {
        let _ = writeln!(
            out,
            "{:<4} n {:>6}  q1 {:>6.1}  median {:>6.1}  q3 {:>6.1}",
            c.as_str(),
            s.count,
            s.q1,
            s.median,
            s.q3
        );
    }
    out
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig6a(ctx: &ReproContext) -> String {
    let rows = sno_atlas::pop_rtt_by_country(&ctx.atlas().traceroutes, &ctx.probe_infos());
    format!(
        "{}(paper: NZ/CL ~33 ms, Europe 35-40, CA/AU ~45, PH ~80)\n",
        country_table(rows)
    )
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig6b(ctx: &ReproContext) -> String {
    let rows = sno_atlas::root_rtt_by_country(&ctx.atlas().traceroutes, &ctx.probe_infos());
    format!(
        "{}(paper: Europe 40-49 ms, ES 58, CL wide, NZ/AU 100-150 tail, PH ~200)\n",
        country_table(rows)
    )
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig6c(ctx: &ReproContext) -> String {
    let rows = sno_atlas::hops_by_country(&ctx.atlas().traceroutes, &ctx.probe_infos());
    format!(
        "{}(paper: 5 hops to local roots, 20+ across continents)\n",
        country_table(rows)
    )
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig7(ctx: &ReproContext) -> String {
    let atlas = ctx.atlas();
    let mut out = String::new();
    for probe in &atlas.probes {
        let history =
            sno_atlas::pop_history(&atlas.sslcerts, probe.id, sno_synth::atlas::reverse_dns);
        if history.len() <= 1 {
            continue; // only probes with link changes are interesting here
        }
        let path: Vec<String> = history
            .iter()
            .map(|l| format!("{}{}", l.pop.code, if l.active { " (active)" } else { "" }))
            .collect();
        let _ = writeln!(
            out,
            "{} [{}{}]: {}",
            probe.id,
            probe.country,
            probe.state.map(|s| format!("/{s}")).unwrap_or_default(),
            path.join(" -> ")
        );
    }
    let _ = writeln!(out, "(all other probes hold a single active PoP link)");
    out
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig8a(ctx: &ReproContext) -> String {
    let rows = sno_atlas::pop_rtt_by_state(&ctx.atlas().traceroutes, &ctx.probe_infos());
    let mut out = String::new();
    for (state, s) in rows {
        let region = sno_geo::world::us_state(state)
            .map(|x| x.region.to_string())
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<3} ({:<18}) n {:>6}  median {:>6.1}  q3 {:>6.1}",
            state, region, s.count, s.median, s.q3
        );
    }
    let _ = writeln!(
        out,
        "(paper: best states ~45 ms, AZ ~55, AK ~80 median / 120 p75)"
    );
    out
}

/// Figure 8b rendering shared by the materialized and streamed paths.
fn pop_change_text(changes: &[sno_atlas::PopChange], probes: &[sno_atlas::ProbeInfo]) -> String {
    let mut out = String::new();
    for ch in changes {
        if let Some(probe) = probes.iter().find(|p| p.id == ch.probe) {
            let pops = ch
                .pops
                .map(|(a, b)| format!("{a} -> {b}"))
                .unwrap_or_else(|| "unattributed".into());
            let _ = writeln!(
                out,
                "{} [{}{}] {}: {:.1} -> {:.1} ms ({})",
                probe.id,
                probe.country,
                probe.state.map(|s| format!("/{s}")).unwrap_or_default(),
                ch.at.date(),
                ch.before_ms,
                ch.after_ms,
                pops
            );
        }
    }
    let _ = writeln!(
        out,
        "(paper: NZ -20 ms on 2022-07-12 Sydney->Auckland; NL -10 ms Frankfurt->London; NV 2x to Denver then reverted)"
    );
    out
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig8b(ctx: &ReproContext) -> String {
    if ctx.chunk().is_some() {
        // Chunked traceroute + SSLCert streams: only the per-probe RTT
        // series and cert histories are ever resident, never a corpus.
        let generator = sno_synth::AtlasGenerator::new(ctx.config().clone());
        let changes = sno_atlas::detect_all_pop_changes_streamed(
            generator.traceroute_chunks(ctx.chunk_len()),
            generator.sslcert_chunks(ctx.chunk_len()),
            sno_synth::atlas::reverse_dns,
            8.0,
            8,
            ctx.config().threads,
        );
        let probes: Vec<sno_atlas::ProbeInfo> = generator
            .probes()
            .iter()
            .map(|p| sno_atlas::ProbeInfo {
                id: p.id,
                country: p.country,
                state: p.state,
            })
            .collect();
        pop_change_text(&changes, &probes)
    } else {
        let atlas = ctx.atlas();
        let changes = sno_atlas::detect_all_pop_changes(
            &atlas.traceroutes,
            &atlas.sslcerts,
            sno_synth::atlas::reverse_dns,
            8.0,
            8,
            ctx.config().threads,
        );
        pop_change_text(&changes, &ctx.probe_infos())
    }
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig9(ctx: &ReproContext) -> String {
    let mut rng = Rng::new(ctx.config().seed).substream_named("apps-speedtest");
    let panel = sno_apps::panel(ctx.config().seed);
    let mut runs = Vec::new();
    for t in &panel {
        for _ in 0..sno_apps::testers::RUNS_PER_TESTER {
            runs.push(sno_apps::speedtest(t, &mut rng));
        }
    }
    let mut out = String::new();
    for op in [Operator::Starlink, Operator::Viasat, Operator::Hughes] {
        let of = |f: &dyn Fn(&sno_apps::SpeedtestRun) -> f64| {
            let v: Vec<f64> = runs.iter().filter(|r| r.operator == op).map(f).collect();
            sno_stats::median(&v).unwrap_or(f64::NAN)
        };
        let _ = writeln!(
            out,
            "{:<10} down {:>6.1} Mbps  up {:>5.1} Mbps  latency {:>6.1} ms",
            op.name(),
            of(&|r| r.download.0),
            of(&|r| r.upload.0),
            of(&|r| r.latency.0)
        );
    }
    for cont in [
        sno_geo::world::Continent::NorthAmerica,
        sno_geo::world::Continent::Europe,
        sno_geo::world::Continent::Oceania,
    ] {
        let v: Vec<f64> = runs
            .iter()
            .filter(|r| r.operator == Operator::Starlink && r.continent == cont)
            .map(|r| r.download.0)
            .collect();
        let _ = writeln!(
            out,
            "Starlink {cont}: median down {:.1} Mbps",
            sno_stats::median(&v).unwrap_or(f64::NAN)
        );
    }
    let _ = writeln!(
        out,
        "(paper: Starlink 70-150 down / 6-21 up, EU median 150; Viasat 10-40/3 at ~600 ms; HughesNet <=3/3 at ~720 ms)"
    );
    out
}

fn fig10a(ctx: &ReproContext) -> String {
    let mut rng = Rng::new(ctx.config().seed).substream_named("apps-cdn");
    let panel = sno_apps::panel(ctx.config().seed);
    let mut out = String::new();
    for op in [Operator::Starlink, Operator::Hughes, Operator::Viasat] {
        let _ = writeln!(out, "{}:", op.name());
        for cdn in sno_apps::Cdn::ALL {
            let v: Vec<f64> = panel
                .iter()
                .filter(|t| t.operator == op)
                .flat_map(|t| {
                    (0..4)
                        .map(|_| sno_apps::cdn_fetch(t, cdn, true, &mut rng).time.0)
                        .collect::<Vec<_>>()
                })
                .collect();
            let _ = writeln!(
                out,
                "    {:<11} median {:>7.0} ms",
                cdn.name(),
                sno_stats::median(&v).unwrap_or(f64::NAN)
            );
        }
    }
    let _ = writeln!(
        out,
        "(paper jquery.min.js via Fastly: 127 / 950 / 1036 ms; jsDelivr +1 RTT; Hughes others 1385-1537)"
    );
    out
}

fn fig10b(ctx: &ReproContext) -> String {
    let mut rng = Rng::new(ctx.config().seed).substream_named("apps-web");
    let panel = sno_apps::panel(ctx.config().seed);
    let mut out = String::new();
    for op in [Operator::Starlink, Operator::Viasat, Operator::Hughes] {
        for v in [sno_apps::HttpVersion::H1, sno_apps::HttpVersion::H2] {
            let plts: Vec<f64> = panel
                .iter()
                .filter(|t| t.operator == op)
                .flat_map(|t| {
                    (0..4)
                        .map(|_| sno_apps::page_load(t, v, &mut rng).plt.0)
                        .collect::<Vec<_>>()
                })
                .collect();
            let _ = writeln!(
                out,
                "{:<10} {v}: median PLT {:>8.0} ms",
                op.name(),
                sno_stats::median(&plts).unwrap_or(f64::NAN)
            );
        }
    }
    let _ = writeln!(
        out,
        "(paper: H2 on GEO ~ H1 on Starlink; one HughesNet H1 load hit the 60 s timeout)"
    );
    out
}

fn fig10c(ctx: &ReproContext) -> String {
    let mut rng = Rng::new(ctx.config().seed).substream_named("apps-dns");
    let panel = sno_apps::panel(ctx.config().seed);
    let mut out = String::new();
    for op in [Operator::Starlink, Operator::Hughes, Operator::Viasat] {
        let v: Vec<f64> = panel
            .iter()
            .filter(|t| t.operator == op)
            .flat_map(|t| sno_apps::dns_lookups(t, 40, &mut rng))
            .map(|m| m.0)
            .collect();
        let _ = writeln!(
            out,
            "{:<10} median DNS lookup {:>7.1} ms",
            op.name(),
            sno_stats::median(&v).unwrap_or(f64::NAN)
        );
    }
    let _ = writeln!(out, "(paper: 130 / 755 / 985 ms)");
    out
}

fn fig11(ctx: &ReproContext) -> String {
    let mut rng = Rng::new(ctx.config().seed).substream_named("apps-video");
    let panel = sno_apps::panel(ctx.config().seed);
    let mut out = String::new();
    for op in [Operator::Starlink, Operator::Hughes, Operator::Viasat] {
        let sessions: Vec<sno_apps::VideoSession> = panel
            .iter()
            .filter(|t| t.operator == op)
            .flat_map(|t| {
                (0..4)
                    .map(|_| sno_apps::video_session(t, &mut rng))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mp: Vec<f64> = sessions.iter().map(|s| s.quality.megapixels()).collect();
        let buf: Vec<f64> = sessions.iter().map(|s| s.buffer_secs).collect();
        let drop: Vec<f64> = sessions.iter().map(|s| s.dropped_pct).collect();
        let stalls = sessions.iter().filter(|s| s.stall_fraction > 0.0).count();
        let _ = writeln!(
            out,
            "{:<10} median quality {:>5.2} MP  buffer {:>5.1} s  dropped {:>4.1}%  stalled runs {}/{}",
            op.name(),
            sno_stats::median(&mp).unwrap_or(f64::NAN),
            sno_stats::median(&buf).unwrap_or(f64::NAN),
            sno_stats::median(&drop).unwrap_or(f64::NAN),
            stalls,
            sessions.len()
        );
    }
    let _ = writeln!(
        out,
        "(paper: only Starlink >=2 MP; GEO ~0.5 MP; buffer 40-65 s, 15-30 s at high res; stalls rare)"
    );
    out
}

fn fig13(_ctx: &ReproContext) -> String {
    let snaps = sno_synth::bgp::snapshots();
    let mut out = String::new();
    for op in [
        Operator::Starlink,
        Operator::Hughes,
        Operator::Viasat,
        Operator::Marlink,
    ] {
        let track = sno_bgp::growth_track(&snaps, op);
        let line: Vec<String> = track
            .iter()
            .map(|p| format!("{}: deg {} / {} countries", p.date, p.degree, p.countries))
            .collect();
        let _ = writeln!(out, "{:<10} {}", op.name(), line.join("  |  "));
        if op == Operator::Marlink {
            let (gained, lost) = sno_bgp::growth::peer_churn(&track[0], &track[2]);
            let _ = writeln!(
                out,
                "           churn 2021->2023: gained {gained:?}, lost {lost:?} (paper: Level3 -> Cogent)"
            );
        }
    }
    out
}

// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn fig14(ctx: &ReproContext) -> String {
    // Score histograms accumulate record-by-record, so the chunked form
    // folds the stream into the same tallies the materialized corpus
    // yields — byte-identical output either way.
    let mut tallies: std::collections::BTreeMap<Operator, [usize; 5]> =
        std::collections::BTreeMap::new();
    let mut tally = |r: &sno_types::records::CensusResponse| {
        tallies.entry(r.operator).or_insert([0usize; 5])[usize::from(r.score) - 1] += 1;
    };
    if ctx.chunk().is_some() {
        sno_synth::census_chunks(ctx.config().seed, ctx.chunk_len())
            .fold_records((), |(), r| tally(&r));
    } else {
        for r in sno_synth::census_responses(ctx.config().seed) {
            tally(&r);
        }
    }
    let labels = ["very poor", "poor", "ok", "good", "very good"];
    let mut out = String::new();
    for op in [Operator::Starlink, Operator::Hughes, Operator::Viasat] {
        let counts = tallies.get(&op).copied().unwrap_or_default();
        let cells: Vec<String> = labels
            .iter()
            .zip(counts)
            .map(|(l, c)| format!("{l} {c}"))
            .collect();
        let _ = writeln!(
            out,
            "{:<10} n={:<3} {}",
            op.name(),
            counts.iter().sum::<usize>(),
            cells.join(", ")
        );
    }
    let _ = writeln!(
        out,
        "(paper: 1 of 20 Starlink users says poor; 'ok' is the ceiling for HughesNet (55%) and Viasat (18%))"
    );
    out
}

/// The injected link-level ground truth behind the NDT corpus: base RTT
/// and bottleneck rate per operator, straight from the path model with
/// no TCP dynamics on top. What Fig. 3c's access-latency bands must
/// re-detect through the pipeline.
// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn paths(ctx: &ReproContext) -> String {
    use sno_synth::paths::{PathSample, PathSampler};
    const OPS: [Operator; 5] = [
        Operator::Starlink,
        Operator::Oneweb,
        Operator::O3b,
        Operator::Viasat,
        Operator::Hughes,
    ];
    let sampler = PathSampler::new(ctx.config().clone());
    // Per-operator buckets fill in stream order; the chunked stream is
    // the exact concatenation of the per-operator corpora, so both
    // branches build identical buckets and render identical text.
    let mut rtts: std::collections::BTreeMap<Operator, Vec<f64>> =
        std::collections::BTreeMap::new();
    let mut rates: std::collections::BTreeMap<Operator, Vec<f64>> =
        std::collections::BTreeMap::new();
    let mut take = |s: &PathSample| {
        rtts.entry(s.operator).or_default().push(s.base_rtt_ms);
        rates.entry(s.operator).or_default().push(s.rate_mbps);
    };
    if ctx.chunk().is_some() {
        sampler
            .sample_chunks(&OPS, ctx.chunk_len())
            .fold_records((), |(), s| take(&s));
    } else {
        for op in OPS {
            for s in sampler.samples_for(op) {
                take(&s);
            }
        }
    }
    let mut out = String::new();
    for op in OPS {
        let Some(summary) = rtts.get(&op).and_then(|v| sno_stats::FiveNumber::of(v)) else {
            let _ = writeln!(out, "{:<10} n=0   (no coverage at this scale)", op.name());
            continue;
        };
        let rate = rates
            .get(&op)
            .and_then(|v| sno_stats::median(v))
            .unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{:<10} n={:<6} base RTT q1 {:>6.1} / med {:>6.1} / q3 {:>6.1} ms (min {:.1}, max {:.1})  med rate {:>6.1} Mbps",
            op.name(),
            summary.count,
            summary.q1,
            summary.median,
            summary.q3,
            summary.min,
            summary.max,
            rate
        );
    }
    let _ = writeln!(
        out,
        "(ground truth before TCP dynamics; paper Fig. 3c bands: LEO tens of ms, MEO ~150-300 ms, GEO >=600 ms)"
    );
    out
}

fn coverage(_ctx: &ReproContext) -> String {
    let snap = sno_synth::bgp::snapshot_for(2023);
    let mut out = String::new();
    for op in [Operator::Starlink, Operator::Ses, Operator::HellasSat] {
        let r = sno_bgp::coverage_report(&snap, op);
        let _ = writeln!(
            out,
            "{:<10} discovered {}/{} countries ({:.0}%), city coverage {:.0}%",
            op.name(),
            r.discovered.len(),
            r.truth_countries.len(),
            r.country_recall() * 100.0,
            r.city_coverage * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(paper: Starlink 10/30 countries covering 74% of cities; SES 7/22 at 57%; Hellas-Sat 2/2 at 100%)"
    );
    out
}

/// The filtering ablation DESIGN.md calls out: how much traffic (and how
/// much accuracy) does the relaxed stage add over strict-only retention?
/// Ground truth comes from the generator, which the pipeline never sees.
// sno-lint: allow(panic-reachable): repro entry point: reachable sites are leaf-justified invariants (length-guarded hot-path indexing, exhaustive table lookups); aborting beats publishing corrupt figures
fn ablation_filter(ctx: &ReproContext) -> String {
    use sno_core::accuracy::{score, Confusion, Truth};
    let corpus = ctx.mlab();
    let truth: Vec<Truth> = ctx.truth().iter().map(|t| (t.operator, t.kind)).collect();
    let report = ctx.report();
    let accepted = report.accepted.as_deref().unwrap_or_default();

    // Arm A: the full pipeline (relaxed filtering), as published.
    let relaxed = score(&truth, accepted);

    // Arm B: strict-only — keep LEO/MEO ASN-level acceptance but require
    // GEO records to fall inside a strictly-retained /24.
    let strict_prefixes: std::collections::BTreeSet<_> = report
        .strict
        .retained
        .iter()
        .map(|p| (p.operator, p.prefix))
        .collect();
    let mut strict_acc = Confusion::default();
    let mut strict_kept = 0u64;
    for ((rec, &(op_true, kind)), acc) in corpus.records.iter().zip(&truth).zip(accepted) {
        let keep = match acc {
            None => false,
            Some(op) => {
                let access = sno_registry::sources::access_of(*op);
                match access {
                    sno_types::AccessKind::Satellite(sno_types::OrbitClass::Leo)
                    | sno_types::AccessKind::Satellite(sno_types::OrbitClass::Meo) => true,
                    _ => strict_prefixes.contains(&(*op, rec.client.prefix24())),
                }
            }
        };
        if keep {
            strict_kept += 1;
        }
        let is_sat = kind.touches_satellite();
        match (is_sat, keep) {
            (true, true) => strict_acc.true_positive += 1,
            (true, false) => strict_acc.false_negative += 1,
            (false, true) => strict_acc.false_positive += 1,
            (false, false) => strict_acc.true_negative += 1,
        }
        let _ = op_true;
    }

    let mut out = String::new();
    let relaxed_kept = report.accepted_count();
    let _ = writeln!(
        out,
        "relaxed (published): kept {relaxed_kept} records; {relaxed}"
    );
    let _ = writeln!(
        out,
        "strict-only:         kept {strict_kept} records; {strict_acc}"
    );
    let _ = writeln!(
        out,
        "relaxation buys {:.1}% more recall at {:.2}% precision cost",
        (relaxed.recall() - strict_acc.recall()) * 100.0,
        (strict_acc.precision() - relaxed.precision()) * 100.0
    );
    let _ = writeln!(
        out,
        "(the paper's rationale for step 3c: strict filtering retains <1% of speed tests)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sno_synth::SynthConfig;
    use std::sync::OnceLock;

    fn ctx() -> &'static ReproContext {
        static CTX: OnceLock<ReproContext> = OnceLock::new();
        CTX.get_or_init(|| ReproContext::with_config(SynthConfig::test_corpus()))
    }

    #[test]
    fn every_experiment_runs_and_produces_output() {
        for (id, _, _) in EXPERIMENTS {
            let out = run_experiment(ctx(), id).expect("known id");
            assert!(out.len() > 40, "{id} output too short:\n{out}");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment(ctx(), "fig99").is_none());
    }

    #[test]
    fn experiment_ids_unique() {
        let mut ids: Vec<_> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    #[test]
    fn table1_mentions_starlink_and_18_snos() {
        let out = run_experiment(ctx(), "table1").unwrap();
        assert!(out.contains("Starlink"));
        assert!(out.contains("SNOs identified: 18"));
    }

    #[test]
    fn fig2_mode_counts_come_from_each_asns_records() {
        // Stage 3 fits no KDE, so fig2 fits its own: each mode count must
        // be that of a KDE over every record of the listed ASN.
        let out = run_experiment(ctx(), "fig2").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 14, "{out}");
        for pair in lines.chunks(2) {
            let asn: u32 = pair[0]
                .strip_prefix("AS")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no ASN in {:?}", pair[0]));
            let printed: usize = pair[1]
                .split("modes ")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no mode count in {:?}", pair[1]));
            let latencies: Vec<f64> = ctx()
                .mlab()
                .records
                .iter()
                .filter(|r| r.asn == Asn(asn))
                .map(|r| r.latency_p5.0)
                .collect();
            let kde = Kde::fit(&latencies).expect("every listed ASN has records");
            assert_eq!(printed, kde.modes_on_grid(0.0, 1200.0, 400, 0.2), "AS{asn}");
        }
    }

    #[test]
    fn fig4a_row_marks_empty_operators() {
        // Regression: an operator with no accepted sessions used to
        // render a "0 days, NaN ms, NaN%" row.
        let row = fig4a_row(Operator::Oneweb, None, 120.0);
        assert!(row.contains("no accepted sessions"), "{row}");
        assert!(!row.contains("NaN"), "{row}");
        let empty = fig4a_row(Operator::Hughes, Some((Vec::new(), None)), 72.0);
        assert!(empty.contains("no accepted sessions"), "{empty}");
    }

    #[test]
    fn fig4a_marks_operators_lost_at_tiny_scale() {
        // At a tiny scale with no session floor, low-volume operators
        // contribute no accepted sessions; the rendered figure must say
        // so explicitly.
        use crate::context::FIG4A_OPS;
        let cfg = SynthConfig {
            scale: 1e-6,
            min_sessions: 0,
            ..SynthConfig::test_corpus()
        };
        let generator = sno_synth::MlabGenerator::new(cfg);
        let records = generator
            .generate_chunks_for(&FIG4A_OPS, 512)
            .collect_records();
        let report = sno_core::pipeline::Pipeline::new().run(&records);
        let accepted = report.accepted.expect("run keeps the dense vector");
        let mut by_op = analysis::stability_by_operator(&records, &accepted, &FIG4A_OPS);
        let mut rendered = String::new();
        for op in FIG4A_OPS {
            rendered.push_str(&fig4a_row(op, by_op.remove(&op), 0.0));
        }
        assert!(
            rendered.contains("no accepted sessions"),
            "tiny scale should starve at least one operator:\n{rendered}"
        );
        assert!(!rendered.contains("NaN"), "{rendered}");
    }

    #[test]
    fn fig4a_respects_context_thread_and_chunk_settings() {
        // Regression: fig4a used to build its own Pipeline::new() over a
        // hand-materialized Vec, ignoring `repro --threads/--chunk`.
        let base = run_experiment(ctx(), "fig4a").unwrap();
        for threads in [1usize, 2, 8] {
            let cfg = SynthConfig {
                threads,
                ..SynthConfig::test_corpus()
            };
            let chunked = ReproContext::with_chunk(cfg, 1024);
            let out = run_experiment(&chunked, "fig4a").unwrap();
            assert_eq!(out, base, "threads {threads} chunk 1024");
        }
    }

    #[test]
    fn streamed_context_output_is_byte_identical() {
        let chunked = ReproContext::with_chunk(SynthConfig::test_corpus(), 512);
        for id in ["table1", "fig1", "fig3c", "fig8b", "fig14", "paths"] {
            let streamed = run_experiment(&chunked, id).unwrap();
            let materialized = run_experiment(ctx(), id).unwrap();
            assert_eq!(streamed, materialized, "{id}");
        }
    }
}
