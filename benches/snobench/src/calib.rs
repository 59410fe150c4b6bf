//! Machine-speed correction for the end-to-end timings.
//!
//! On a shared machine the speed of floating-point work drifts with
//! co-tenant load by far more than any bound worth setting: one batch
//! identification took from 53 to 95 ms, and the speed changes within
//! a fraction of a second as well as between runs minutes apart. A
//! fixed Gaussian-kernel loop timed between the same ops tracked those
//! changes, while an integer multiply chain and a pointer chase over
//! 16 MB did not. The KDE fits that dominate every workload are that
//! kind of work.
//!
//! The ops move less than the kernel does: they also decode, fold and
//! copy, which the same load slows less than a pure `exp` loop. Fitting
//! a run's log raw p50 on the log of its median kernel time gave a
//! slope of 0.88 over 15 `batch` runs (correlation 0.99) and 0.62 to
//! 0.69 over three sets of 5 to 10 `online-feed` runs, whose ingest and
//! incremental snapshots fit less; [`SENSITIVITY`] lies between.
//!
//! So every untraced run times this kernel between ops, outside every
//! timed region, and reports each op's time in reference milliseconds:
//! raw ms × ([`REFERENCE_MS`] ÷ the median kernel time within
//! [`WINDOW`] of the op) ^ [`SENSITIVITY`]. The raw values are printed
//! beside them. The kernel is the benchmark's own code, so no change to
//! the program can move it.

use crate::report::{median, ms};
use std::time::{Duration, Instant};

/// The kernel's median time on the 2-vCPU machine the benchmark was
/// tuned on; it only fixes the scale of a reference millisecond.
const REFERENCE_MS: f64 = 2.25;

/// How much of a change in kernel speed the ops follow, as the
/// exponent of the speed ratio (see the module documentation).
const SENSITIVITY: f64 = 0.75;

/// Kernel timings this close to an op, before or after it, set its
/// factor: the speed changes within a run. Over three runs each of two
/// `online-feed` seeds, the p50 freshness of one seed moved by up to
/// 22 % with one factor per run and by up to 7 % with a factor per
/// poll from the timings within this window.
const WINDOW: Duration = Duration::from_millis(200);

/// Fewest kernel timings a whole-run factor rests on: a run whose loop
/// left no room for them takes the rest after its timed phase.
const MIN_PROBES: usize = 64;

/// Kernel timings of one run.
pub struct Calibration {
    points: Vec<f64>,
    /// When each timing ended, and its ms, in time order.
    samples: Vec<(Instant, f64)>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            points: (0..5_000)
                .map(|i| (f64::from(i) * 0.618).fract() * 2.0)
                .collect(),
            samples: Vec::new(),
        }
    }

    /// Time one run of the kernel and return how long it took.
    pub fn probe(&mut self) -> Duration {
        let start = Instant::now();
        std::hint::black_box(kernel(std::hint::black_box(&self.points)));
        let end = Instant::now();
        self.samples.push((end, ms(end - start)));
        end - start
    }

    /// Probe while the next probe would still end well before `due`,
    /// then spin until `due`. The core stays busy either way: sleeping
    /// handed it to co-tenants between arrivals, and the next op paid
    /// for what they left in the caches (over three runs of one seed,
    /// p50 poll time ranged 36–46 ms sleeping, 33–37 ms spinning).
    pub fn wait_until(&mut self, due: Instant) {
        let mut last = Duration::from_millis(3);
        while Instant::now() + last * 3 < due {
            last = self.probe();
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }

    /// The factor that turns the run's ms into reference ms, from every
    /// kernel timing, topped up to [`MIN_PROBES`] first. Prints its
    /// basis.
    pub fn factor(&mut self, what: &str) -> f64 {
        while self.samples.len() < MIN_PROBES {
            self.probe();
        }
        let all: Vec<f64> = self.samples.iter().map(|&(_, k)| k).collect();
        let kernel_ms = median(&all);
        let factor = to_factor(kernel_ms);
        println!(
            "calibration ({what}): {} kernel runs, median {kernel_ms:.4} ms, factor {factor:.4}",
            all.len(),
        );
        factor
    }

    /// Each op's factor, from the kernel timings within [`WINDOW`] of
    /// its `(start, end)`, or `whole` (from [`Calibration::factor`])
    /// where there are none.
    pub fn factors(&self, ops: &[(Instant, Instant)], whole: f64) -> Vec<f64> {
        ops.iter()
            .map(|&(start, end)| {
                let lo = self.samples.partition_point(|&(t, _)| t + WINDOW < start);
                let hi = self.samples.partition_point(|&(t, _)| t <= end + WINDOW);
                let near: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, k)| k).collect();
                if near.is_empty() {
                    whole
                } else {
                    to_factor(median(&near))
                }
            })
            .collect()
    }
}

fn to_factor(kernel_ms: f64) -> f64 {
    (REFERENCE_MS / kernel_ms).powf(SENSITIVITY)
}

/// Gaussian kernel sums over 50 centres: 250 k independent `exp` calls.
fn kernel(points: &[f64]) -> f64 {
    (0..50)
        .map(|c| {
            let centre = f64::from(c) * 0.04;
            points
                .iter()
                .map(|&x| {
                    let z = (x - centre) * 3.0;
                    (-0.5 * z * z).exp()
                })
                .sum::<f64>()
        })
        .sum()
}
