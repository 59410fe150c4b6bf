//! In-tree correctness tooling: a `proptest`-compatible property-testing
//! subset and a Criterion-replacement bench harness, with zero external
//! dependencies.
//!
//! The sandboxed build environment cannot reach crates.io, so the
//! workspace's hermetic-build invariant (see README, "Hermetic builds")
//! forbids registry dependencies even for dev tooling. This crate keeps
//! the QuickCheck-style invariant checking that protects the paper
//! pipeline (KDE validation, prefix filters, quantile/ECDF machinery)
//! and the perf trajectory benches, re-implemented on the workspace's
//! deterministic [`sno_types::Rng`]:
//!
//! * [`proptest!`] — the macro subset the existing property suites use:
//!   `#[test]` blocks, range strategies, `prop::collection::vec`,
//!   `any::<T>()`, `prop::string::string`, the
//!   `prop_map`/`prop_filter`/`prop_flat_map` adapters, `prop_oneof!`
//!   enum strategies (optionally weighted, shrinking toward earlier
//!   branches), `prop_assert!`/`prop_assert_eq!`, and
//!   `ProptestConfig::with_cases(n)`. Failures shrink greedily and print
//!   a seed; `SNO_CHECK_SEED=<seed>` replays the identical
//!   counterexample, and [`corpus`] persists failing seeds to committed
//!   `tests/corpora/*.seeds` files that replay before fresh generation.
//! * [`mod@bench`] — `bench_group`/`bench_function` with warm-up,
//!   calibration, N timed samples, a median/p10/p90 report, and JSON
//!   output for `BENCH_*.json` trajectory files.
//!
//! ```
//! use sno_check::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(64))]
//!
//!     // In a test file this would also carry `#[test]`.
//!     fn abs_is_nonnegative(x in -1e6..1e6f64) {
//!         prop_assert!(x.abs() >= 0.0);
//!     }
//! }
//! abs_is_nonnegative();
//! ```

pub mod bench;
pub mod corpus;
mod macros;
pub mod runner;
pub mod strategy;

pub use corpus::{CORPUS_DIR_ENV, DEFAULT_CORPUS_DIR};
pub use runner::{run_property, PropError, ProptestConfig, SEED_ENV};
pub use strategy::{
    any, boxed, oneof, weighted, Arbitrary, FlatMapped, Mapped, OneOf, Selected, Strategy,
};

/// `proptest`-style module layout, so `prop::collection::vec(..)` reads
/// the same as upstream.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::vec;
    }

    /// String strategies.
    pub mod string {
        pub use crate::strategy::string;
    }
}

/// Everything a property-test file needs: `use sno_check::prelude::*;`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::runner::{PropError, ProptestConfig};
    pub use crate::strategy::{
        any, boxed, oneof, weighted, Arbitrary, FlatMapped, Mapped, OneOf, Selected, Strategy,
    };
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}
