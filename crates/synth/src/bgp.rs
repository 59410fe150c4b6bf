//! Synthetic BGP route-views snapshots (2021-01-01, 2022-01-01,
//! 2023-01-01).
//!
//! Each snapshot is an AS-level peering graph containing the SNOs, the
//! transit providers they peer with (with realistic relative degrees —
//! tier-1s carry hundreds of customers), and enough stub ASes to make
//! degree a usable size proxy. The growth patterns follow the paper's
//! Figure 13: Starlink's peering explodes across the globe, HughesNet
//! stays put, Viasat expands out of the US, and Marlink swaps its tier-1
//! from legacy Level3 (AS3549) to Cogent (AS174).
//!
//! The edge list is generated through the [`RecordChunks`] streaming
//! contract: [`edge_chunks`] yields the graph one bounded chunk at a
//! time from independent per-provider / per-profile shards, and
//! [`snapshot_for`] folds those chunks through a sorted-merge
//! accumulator instead of materializing the raw (pre-dedup) edge list.
//! Chunk length and thread count never change the resulting snapshot.

use sno_types::chunk::{self, RecordChunks};
use sno_types::records::{AsInfo, BgpSnapshot, CountryCode};
use sno_types::{Asn, Date, Operator};

/// A transit or regional provider.
#[derive(Debug, Clone, Copy)]
struct Provider {
    asn: u32,
    name: &'static str,
    country: &'static str,
    /// Stub customers attached in every snapshot (degree ballast).
    stubs: u32,
}

/// Tier-1 and large regional providers.
const PROVIDERS: &[Provider] = &[
    Provider {
        asn: 3356,
        name: "Lumen (Level3)",
        country: "US",
        stubs: 90,
    },
    Provider {
        asn: 1299,
        name: "Arelion",
        country: "SE",
        stubs: 80,
    },
    Provider {
        asn: 174,
        name: "Cogent",
        country: "US",
        stubs: 85,
    },
    Provider {
        asn: 6762,
        name: "Telecom Italia Sparkle",
        country: "IT",
        stubs: 55,
    },
    Provider {
        asn: 2914,
        name: "NTT",
        country: "US",
        stubs: 70,
    },
    Provider {
        asn: 3257,
        name: "GTT",
        country: "DE",
        stubs: 50,
    },
    Provider {
        asn: 6939,
        name: "Hurricane Electric",
        country: "US",
        stubs: 75,
    },
    Provider {
        asn: 3549,
        name: "Level3 (legacy)",
        country: "US",
        stubs: 40,
    },
    Provider {
        asn: 7018,
        name: "AT&T",
        country: "US",
        stubs: 45,
    },
    Provider {
        asn: 3320,
        name: "Deutsche Telekom",
        country: "DE",
        stubs: 45,
    },
    Provider {
        asn: 7195,
        name: "EdgeUno",
        country: "CO",
        stubs: 18,
    },
    Provider {
        asn: 4826,
        name: "Vocus",
        country: "AU",
        stubs: 20,
    },
    Provider {
        asn: 2516,
        name: "KDDI",
        country: "JP",
        stubs: 25,
    },
    Provider {
        asn: 4771,
        name: "Spark NZ",
        country: "NZ",
        stubs: 10,
    },
    Provider {
        asn: 6471,
        name: "Entel Chile",
        country: "CL",
        stubs: 10,
    },
    Provider {
        asn: 5511,
        name: "Orange International",
        country: "FR",
        stubs: 30,
    },
    Provider {
        asn: 1136,
        name: "KPN",
        country: "NL",
        stubs: 12,
    },
    Provider {
        asn: 5400,
        name: "BT Global",
        country: "GB",
        stubs: 25,
    },
    Provider {
        asn: 577,
        name: "Bell Canada",
        country: "CA",
        stubs: 15,
    },
    Provider {
        asn: 7473,
        name: "Singtel",
        country: "SG",
        stubs: 20,
    },
    Provider {
        asn: 12956,
        name: "Telxius",
        country: "ES",
        stubs: 18,
    },
    Provider {
        asn: 33891,
        name: "Core-Backbone",
        country: "DE",
        stubs: 10,
    },
    Provider {
        asn: 9304,
        name: "HGC",
        country: "HK",
        stubs: 12,
    },
    Provider {
        asn: 52320,
        name: "GlobeNet",
        country: "BR",
        stubs: 10,
    },
];

/// The tier-1 club (the paper checks which SNOs reach any of them).
pub const TIER1_ASNS: &[u32] = &[3356, 1299, 174, 6762, 2914, 3257, 3549, 7018, 3320];

/// Small regional ISPs (Kacific's distributors, Hellas-Sat's locals...).
const SMALL_ISPS: &[Provider] = &[
    Provider {
        asn: 140504,
        name: "Pacific Isles Net",
        country: "FJ",
        stubs: 0,
    },
    Provider {
        asn: 140505,
        name: "Vanuatu Broadband",
        country: "PG",
        stubs: 0,
    },
    Provider {
        asn: 140506,
        name: "Solomon Telekom",
        country: "PG",
        stubs: 0,
    },
    Provider {
        asn: 140507,
        name: "Tuvalu ICT",
        country: "FJ",
        stubs: 1,
    },
    Provider {
        asn: 140508,
        name: "Kiribati Link",
        country: "FJ",
        stubs: 0,
    },
    Provider {
        asn: 197101,
        name: "Attica Wireless",
        country: "GR",
        stubs: 1,
    },
    Provider {
        asn: 197102,
        name: "Cyclades Net",
        country: "GR",
        stubs: 0,
    },
    Provider {
        asn: 197103,
        name: "Cyprus Rural Broadband",
        country: "CY",
        stubs: 1,
    },
    Provider {
        asn: 398201,
        name: "Beltway Federal Networks",
        country: "US",
        stubs: 1,
    },
    Provider {
        asn: 398202,
        name: "Potomac GovNet",
        country: "US",
        stubs: 0,
    },
];

/// Peers of one SNO in one snapshot year.
fn sno_peers(op: Operator, year: i32) -> Vec<u32> {
    match op {
        Operator::Starlink => match year {
            // Explosive growth across the globe.
            2021 => vec![3356, 174, 6939, 1299],
            2022 => vec![3356, 174, 6939, 1299, 3320, 4826, 2516, 577, 7018],
            _ => vec![
                3356, 174, 6939, 1299, 3320, 4826, 2516, 577, 7018, 6762, 7195, 4771, 6471, 5400,
                2914, 9304, 7473, 52320,
            ],
        },
        Operator::Hughes => vec![3356, 174, 7018], // stagnant: same every year
        Operator::Viasat => match year {
            2021 => vec![3356, 174, 2914, 7018],
            2022 => vec![3356, 174, 2914, 7018, 1299],
            _ => vec![3356, 174, 2914, 7018, 1299, 6762, 52320, 12956],
        },
        Operator::Marlink => match year {
            // Tier-1 swap: legacy Level3 → Cogent.
            2021 => vec![3549, 1136, 5511],
            _ => vec![174, 1136, 5511],
        },
        Operator::Oneweb => vec![3356, 6939], // two US-based providers
        Operator::Ses | Operator::O3b => match year {
            2021 => vec![3356, 1299, 2914, 5511, 7473],
            _ => vec![3356, 1299, 2914, 5511, 7473, 6762, 3257, 52320],
        },
        Operator::Kacific => vec![140504, 140505, 140506, 140507, 140508, 4826],
        Operator::HellasSat => vec![197101, 197102, 197103], // no tier-1s
        Operator::Ultisat => vec![398201, 398202],           // no tier-1s
        Operator::Eutelsat => vec![5511, 1299, 3356],
        Operator::Telalaska => vec![3356, 7018],
        Operator::Kvh => vec![174, 7018],
        Operator::Ssi => vec![577, 174],
        Operator::Intelsat => vec![3356, 2914, 1299],
        Operator::Avanti => vec![5400, 1299],
        Operator::Globalsat => vec![174],
        Operator::Isotropic => vec![6939],
        // Only called for operators with explicit tables (see
        // `peers_or_default`).
        _ => unreachable!("no explicit peering table for {op}"),
    }
}

/// The primary (customer-facing) ASN of an operator in the graph.
fn primary_asn(op: Operator) -> u32 {
    sno_registry::profile::profile_of(op).asns[0]
}

/// Build all three snapshots. Each snapshot is a pure function of its
/// year, so they build on the worker pool and merge in year order.
pub fn snapshots() -> Vec<BgpSnapshot> {
    const YEARS: [i32; 3] = [2021, 2022, 2023];
    sno_types::par::shard_map(YEARS.len(), 0, |i| snapshot_for(YEARS[i]))
}

/// Delivery granularity for [`snapshot_for`]'s internal edge stream.
const EDGE_CHUNK_LEN: usize = 256;

/// Build the snapshot captured on `year`-01-01.
///
/// Runs the chunked build serially; [`snapshots`] already parallelizes
/// across years on the worker pool.
pub fn snapshot_for(year: i32) -> BgpSnapshot {
    snapshot_for_chunked(year, EDGE_CHUNK_LEN, 1)
}

/// Build the `year`-01-01 snapshot by draining [`edge_chunks`] through a
/// sorted-merge accumulator. Peak edge memory is the deduped accumulator
/// plus one chunk — the raw concatenated edge list is never held. The
/// result is identical for every `chunk_len >= 1` and thread count.
pub fn snapshot_for_chunked(year: i32, chunk_len: usize, threads: usize) -> BgpSnapshot {
    let edges = edge_chunks(year, chunk_len, threads).fold_chunks(Vec::new(), merge_sorted_dedup);
    BgpSnapshot {
        date: Date::new(year, 1, 1),
        edges,
        info: info_table(),
    }
}

/// Total shard count of the edge stream: one per provider (stub
/// ballast), one for the tier-1 mesh, one per SNO registry profile.
fn edge_shard_count() -> usize {
    PROVIDERS.len() + SMALL_ISPS.len() + 1 + sno_registry::PROFILES.len()
}

/// The provider at position `i` of the `PROVIDERS ++ SMALL_ISPS` chain.
fn provider_at(i: usize) -> &'static Provider {
    if i < PROVIDERS.len() {
        &PROVIDERS[i]
    } else {
        &SMALL_ISPS[i - PROVIDERS.len()]
    }
}

/// First private-range stub ASN of provider `i`: 64512 plus the block
/// widths of every earlier provider. A pure function of the index, so
/// each provider shard is independently computable.
fn stub_base_for(i: usize) -> u32 {
    let mut base = 64_512u32;
    for p in PROVIDERS.iter().chain(SMALL_ISPS).take(i) {
        base += p.stubs.max(1);
    }
    base
}

/// Edges emitted by one shard of the stream (see [`edge_shard_count`]).
fn edge_shard(year: i32, shard: usize) -> Vec<(Asn, Asn)> {
    let providers = PROVIDERS.len() + SMALL_ISPS.len();
    if shard < providers {
        // Stub ballast hanging off one provider.
        let p = provider_at(shard);
        let base = stub_base_for(shard);
        (0..p.stubs).map(|s| edge(p.asn, base + s)).collect()
    } else if shard == providers {
        // The tier-1 full mesh.
        let mut edges = Vec::new();
        for (i, a) in TIER1_ASNS.iter().enumerate() {
            for b in &TIER1_ASNS[i + 1..] {
                edges.push(edge(*a, *b));
            }
        }
        edges
    } else {
        // One SNO's peerings for this year.
        let profile = &sno_registry::PROFILES[shard - providers - 1];
        let asn = primary_asn(profile.operator);
        peers_or_default(profile.operator, year, profile.country)
            .into_iter()
            .map(|peer| edge(asn, peer))
            .collect()
    }
}

/// Stream the peering graph of `year` as chunks of at most `chunk_len`
/// edges, producing up to `threads` shards at a time (`0` = auto). The
/// concatenated stream is the same edge sequence for every chunk length
/// and thread count; it is *not* deduplicated — fold it through
/// `merge_sorted_dedup` (as [`snapshot_for_chunked`] does) to recover
/// the snapshot's canonical sorted edge list.
pub fn edge_chunks(
    year: i32,
    chunk_len: usize,
    threads: usize,
) -> impl RecordChunks<Item = (Asn, Asn)> {
    chunk::sharded(edge_shard_count(), threads, chunk_len, move |s| {
        edge_shard(year, s)
    })
}

/// Fold step for the streamed snapshot build: sort-dedup the incoming
/// chunk, then merge two sorted deduped runs into one. Equivalent to
/// sort + dedup over the concatenation, without ever holding it.
fn merge_sorted_dedup(acc: Vec<(Asn, Asn)>, mut next: Vec<(Asn, Asn)>) -> Vec<(Asn, Asn)> {
    next.sort_unstable();
    next.dedup();
    if acc.is_empty() {
        return next;
    }
    let mut merged = Vec::with_capacity(acc.len() + next.len());
    let (mut i, mut j) = (0, 0);
    while i < acc.len() || j < next.len() {
        let take_acc = j >= next.len() || (i < acc.len() && acc[i] <= next[j]);
        let item = if take_acc {
            let v = acc[i];
            i += 1;
            v
        } else {
            let v = next[j];
            j += 1;
            v
        };
        if merged.last() != Some(&item) {
            merged.push(item);
        }
    }
    merged
}

/// The AS metadata table (year-independent): providers interleaved with
/// their stub blocks, then the SNO profiles, deduplicated by ASN.
fn info_table() -> Vec<AsInfo> {
    let mut info: Vec<AsInfo> = Vec::new();
    let push_info = |asn: u32, name: &str, country: &str, info: &mut Vec<AsInfo>| {
        if !info.iter().any(|i| i.asn == Asn(asn)) {
            info.push(AsInfo {
                asn: Asn(asn),
                name: name.to_string(),
                country: CountryCode::new(country),
            });
        }
    };
    for (i, p) in PROVIDERS.iter().chain(SMALL_ISPS).enumerate() {
        push_info(p.asn, p.name, p.country, &mut info);
        let base = stub_base_for(i);
        for s in 0..p.stubs {
            let stub = base + s;
            push_info(stub, &format!("Stub-{stub}"), p.country, &mut info);
        }
    }
    for profile in sno_registry::PROFILES {
        push_info(
            primary_asn(profile.operator),
            profile.org,
            profile.country,
            &mut info,
        );
    }
    info
}

/// Peers for operators with explicit tables, or a home-country default.
fn peers_or_default(op: Operator, year: i32, country: &str) -> Vec<u32> {
    match op {
        Operator::Starlink
        | Operator::Hughes
        | Operator::Viasat
        | Operator::Marlink
        | Operator::Oneweb
        | Operator::Ses
        | Operator::O3b
        | Operator::Kacific
        | Operator::HellasSat
        | Operator::Ultisat
        | Operator::Eutelsat
        | Operator::Telalaska
        | Operator::Kvh
        | Operator::Ssi
        | Operator::Intelsat
        | Operator::Avanti
        | Operator::Globalsat
        | Operator::Isotropic => sno_peers_safe(op, year),
        _ => match country {
            "US" => vec![174],
            "CA" => vec![577],
            "GB" => vec![5400],
            "FR" => vec![5511],
            "NO" | "SE" => vec![1299],
            "GR" | "CY" => vec![197101],
            "AU" | "PG" | "SG" | "ID" | "TH" => vec![7473],
            "MX" | "BR" => vec![52320],
            "IN" | "HK" => vec![9304],
            "RU" => vec![3257],
            _ => vec![174],
        },
    }
}

fn sno_peers_safe(op: Operator, year: i32) -> Vec<u32> {
    sno_peers(op, year)
}

fn edge(a: u32, b: u32) -> (Asn, Asn) {
    if a <= b {
        (Asn(a), Asn(b))
    } else {
        (Asn(b), Asn(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_snapshots() {
        let snaps = snapshots();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].date, Date::new(2021, 1, 1));
        assert_eq!(snaps[2].date, Date::new(2023, 1, 1));
    }

    #[test]
    fn starlink_grows_hughes_stagnates() {
        let snaps = snapshots();
        let starlink: Vec<usize> = snaps.iter().map(|s| s.degree(Asn(14593))).collect();
        assert!(starlink[0] < starlink[1] && starlink[1] < starlink[2]);
        assert!(starlink[2] >= 3 * starlink[0], "{starlink:?}");
        let hughes: Vec<usize> = snaps.iter().map(|s| s.degree(Asn(28613))).collect();
        assert_eq!(hughes[0], hughes[2], "{hughes:?}");
    }

    #[test]
    fn marlink_swaps_tier1() {
        let snaps = snapshots();
        let peers_2021 = snaps[0].peers(Asn(5377));
        let peers_2023 = snaps[2].peers(Asn(5377));
        assert!(peers_2021.contains(&Asn(3549)));
        assert!(!peers_2021.contains(&Asn(174)));
        assert!(peers_2023.contains(&Asn(174)));
        assert!(!peers_2023.contains(&Asn(3549)));
    }

    #[test]
    fn oneweb_has_two_us_providers() {
        let snap = snapshot_for(2023);
        let peers = snap.peers(Asn(800));
        assert_eq!(peers.len(), 2);
        for p in peers {
            assert_eq!(snap.info_for(p).unwrap().country.as_str(), "US");
        }
    }

    #[test]
    fn hellas_and_ultisat_lack_tier1s() {
        let snap = snapshot_for(2023);
        for asn in [41697u32, 393439] {
            for p in snap.peers(Asn(asn)) {
                assert!(!TIER1_ASNS.contains(&p.0), "AS{asn} peers tier-1 {p}");
            }
        }
    }

    #[test]
    fn kacific_outweighs_its_distributors() {
        let snap = snapshot_for(2023);
        let kacific = snap.degree(Asn(135409));
        for p in snap.peers(Asn(135409)) {
            if p != Asn(4826) {
                assert!(snap.degree(p) < kacific, "{p} too big");
            }
        }
    }

    #[test]
    fn tier1s_dwarf_snos() {
        let snap = snapshot_for(2023);
        let level3 = snap.degree(Asn(3356));
        let starlink = snap.degree(Asn(14593));
        assert!(
            level3 > 3 * starlink,
            "level3 {level3} vs starlink {starlink}"
        );
    }

    #[test]
    fn every_edge_endpoint_has_info() {
        for snap in snapshots() {
            for &(a, b) in &snap.edges {
                assert!(snap.info_for(a).is_some(), "{a} missing info");
                assert!(snap.info_for(b).is_some(), "{b} missing info");
            }
        }
    }

    #[test]
    fn chunked_build_matches_materialized_at_any_chunk_and_threads() {
        for year in [2021, 2023] {
            // Reference: materialize every shard serially, then one
            // global sort + dedup — the pre-streaming construction.
            let mut reference: Vec<(Asn, Asn)> = (0..edge_shard_count())
                .flat_map(|s| edge_shard(year, s))
                .collect();
            reference.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
            reference.dedup();

            let baseline = snapshot_for(year);
            assert_eq!(baseline.edges, reference, "year {year} baseline");
            for chunk_len in [1, 64, 1 << 20] {
                for threads in [1, 2, 8] {
                    let snap = snapshot_for_chunked(year, chunk_len, threads);
                    assert_eq!(
                        snap.edges, reference,
                        "year {year} chunk {chunk_len} threads {threads}"
                    );
                    assert_eq!(snap.info, baseline.info);
                    assert_eq!(snap.date, baseline.date);
                }
            }
        }
    }

    #[test]
    fn edge_stream_is_chunk_and_thread_invariant() {
        let serial: Vec<(Asn, Asn)> = (0..edge_shard_count())
            .flat_map(|s| edge_shard(2022, s))
            .collect();
        for chunk_len in [1, 7, 512] {
            for threads in [1, 2, 8] {
                let got = edge_chunks(2022, chunk_len, threads).collect_records();
                assert_eq!(got, serial, "chunk {chunk_len} threads {threads}");
            }
        }
    }

    #[test]
    fn edges_are_normalised_and_deduped() {
        let snap = snapshot_for(2022);
        for &(a, b) in &snap.edges {
            assert!(a <= b);
        }
        let mut copy = snap.edges.clone();
        copy.dedup();
        assert_eq!(copy.len(), snap.edges.len());
    }
}
