//! The paper's primary contribution: identifying satellite network
//! operator (SNO) measurements inside public datasets, and the
//! orbit-level analyses built on the identified traffic.
//!
//! The pipeline follows Figure 1 of the paper stage by stage:
//!
//! 1. [`asn_map`] — build the ASN→SNO mapping from an ASdb-style
//!    category search plus Hurricane-Electric-style name search, then
//!    manually curate away the lookalikes (cable TV, teleports, fleet
//!    tracking);
//! 2. [`validate`] — check each ASN's latency profile against the access
//!    technology its operator sells; flag corporate/terrestrial ASNs
//!    (Starlink AS27277), broken hybrids (SES AS201554) and ASNs mixing
//!    regimes internally (TelAlaska AS10538). The paper reads the
//!    profiles off KDE curves (Figure 2); the rules decide on exact
//!    empirical band masses, from integer [`validate::BandCounts`] the
//!    statistics pass folds per ASN, so no KDE is fitted here;
//! 3. [`prefix_filter`] — the strict per-`/24` filter (≥ 10 tests, all
//!    latencies inside the MEO > 200 ms / GEO > 500 ms bands), and the
//!    relaxed filter derived from it (per-operator minimum latency,
//!    527 ms default);
//! 4. [`stream`] — [`Pipeline::run_streamed`], the one function that
//!    runs the identification: one pass over a chunked record stream in
//!    bounded memory (per-chunk columnar accumulators over
//!    struct-of-arrays [`sno_types::RecordBatch`]es, which also keep
//!    each ASN's band counts and each record's ASN slot), then stages
//!    3–3c and an accept replay of that slot column through the
//!    per-ASN decision tables of [`accept`], producing the SNO catalog
//!    (Table 1), a compact acceptance bitmap and the one report type,
//!    [`StreamedReport`];
//! 5. [`pipeline`] — the configured [`Pipeline`], the stage 3–3c
//!    derivation (plus its incremental cache), and [`Pipeline::run`]:
//!    `run_streamed` over an in-memory slice with the dense per-record
//!    acceptance vector the analyses read;
//! 6. [`online`] — the incremental service on top of [`stream`]: an
//!    [`OnlineIdentifier`] ingests chunks in arrival order, merges
//!    across shards, and snapshots through the same report assembly
//!    with verdicts byte-identical to `run_streamed`;
//! 7. [`analysis`] — the bird's-eye analyses of Section 4: latency
//!    distributions (Figure 3c), latency-over-time stability (4a),
//!    jitter variation (4b) and retransmissions with/without PEPs (4c).

pub mod accept;
pub mod accuracy;
pub mod analysis;
pub mod asn_map;
pub mod online;
pub mod pipeline;
pub mod prefix_filter;
pub mod stream;
pub mod validate;

pub use accept::{AcceptTable, AsnOps};
pub use accuracy::{attribution_accuracy, score, Confusion};
pub use analysis::{jitter_by_orbit, latency_by_operator, retransmissions, stability, OrbitGroup};
pub use asn_map::{map_asns, AsnMapping};
pub use online::{MergeError, OnlineIdentifier, PopFlag};
pub use pipeline::Pipeline;
pub use prefix_filter::{relaxed_thresholds, strict_filter, StrictOutcome};
pub use stream::{AcceptBitmap, CorpusStats, StreamOptions, StreamedReport};
pub use validate::{validate_asns, AsnVerdict, BandCounts, LatencyBands};
