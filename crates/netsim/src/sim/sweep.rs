//! Seed-sweep campaign runner.
//!
//! A sweep runs [`run_seed`] over many seeds
//! in parallel via [`sno_types::par::shard_map`] — one shard per seed,
//! merged in seed order — so the rendered report is byte-identical at
//! any thread count. A failing seed is a complete reproduction recipe:
//! `repro --sim-sweep --seed <S>` replays exactly the scenarios that
//! violated an invariant.

use super::scenario::{run_seed, SeedReport};
use sno_types::par;
use sno_types::Rng;

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The seeds to simulate, in report order.
    pub seeds: Vec<u64>,
    /// Worker threads (`0` = auto).
    pub threads: usize,
    /// Shorter flows for CI latency.
    pub quick: bool,
}

impl SweepConfig {
    /// `count` fresh seeds derived deterministically from `campaign`,
    /// so campaign N is the same seed list on every machine.
    pub fn fresh_seeds(campaign: u64, count: usize) -> Vec<u64> {
        let mut rng = Rng::new(campaign).substream_named("sim-sweep");
        (0..count).map(|_| rng.next_u64()).collect()
    }
}

/// The outcome of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-seed outcomes, in the order seeds were given.
    pub reports: Vec<SeedReport>,
}

impl SweepReport {
    /// Whether every seed passed every invariant.
    pub fn passed(&self) -> bool {
        self.reports.iter().all(SeedReport::passed)
    }

    /// The seeds that violated an invariant, in report order.
    pub fn failing_seeds(&self) -> Vec<u64> {
        self.reports
            .iter()
            .filter(|r| !r.passed())
            .map(|r| r.seed)
            .collect()
    }

    /// Total invariant assertions evaluated across all seeds.
    pub fn total_checks(&self) -> u64 {
        self.reports.iter().map(|r| u64::from(r.checks)).sum()
    }

    /// The full human-readable report. Deterministic: the same seeds
    /// render to the same bytes at any thread count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&r.render_line());
            out.push('\n');
            for v in &r.violations {
                out.push_str(&format!("    {v}\n"));
            }
        }
        let failing = self.failing_seeds();
        out.push_str(&format!(
            "sim-sweep: {}/{} seeds passed, {} checks total\n",
            self.reports.len() - failing.len(),
            self.reports.len(),
            self.total_checks()
        ));
        for s in &failing {
            out.push_str(&format!("replay with: repro --sim-sweep --seed {s}\n"));
        }
        out
    }
}

/// Run the campaign: each seed is an independent shard of work.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let seeds = cfg.seeds.clone();
    let quick = cfg.quick;
    let reports = par::shard_map(seeds.len(), cfg.threads, |i| run_seed(seeds[i], quick));
    SweepReport { reports }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_seeds_are_stable_and_distinct() {
        let a = SweepConfig::fresh_seeds(1, 8);
        let b = SweepConfig::fresh_seeds(1, 8);
        assert_eq!(a, b);
        let c = SweepConfig::fresh_seeds(2, 8);
        assert_ne!(a, c);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
    }

    #[test]
    fn sweep_reports_in_seed_order_and_renders() {
        let cfg = SweepConfig {
            seeds: vec![11, 3, 7],
            threads: 2,
            quick: true,
        };
        let report = run_sweep(&cfg);
        let order: Vec<u64> = report.reports.iter().map(|r| r.seed).collect();
        assert_eq!(order, vec![11, 3, 7]);
        assert!(report.passed(), "{}", report.render());
        assert!(report.failing_seeds().is_empty());
        let text = report.render();
        assert!(text.contains("3/3 seeds passed"));
        assert!(text.contains("seed         11  ok"));
    }

    #[test]
    fn failing_seed_reports_a_replay_line() {
        let cfg = SweepConfig {
            seeds: vec![5],
            threads: 1,
            quick: true,
        };
        let mut report = run_sweep(&cfg);
        report.reports[0].violations.push(crate::sim::Violation {
            invariant: "packet-conservation",
            detail: "synthetic".to_string(),
        });
        assert!(!report.passed());
        assert_eq!(report.failing_seeds(), vec![5]);
        assert!(report
            .render()
            .contains("replay with: repro --sim-sweep --seed 5"));
    }
}
