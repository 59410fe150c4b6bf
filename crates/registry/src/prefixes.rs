//! Per-ASN `/24` allocation plans.
//!
//! Each operator ASN announces a set of `/24` prefixes; each prefix has
//! a ground-truth link kind (pure satellite, hybrid
//! terrestrial-with-satellite-backup, or corporate terrestrial), a
//! sampling weight, and a home region for its subscribers. This is the
//! hidden truth the identification pipeline has to recover from latency
//! profiles alone:
//!
//! * Starlink's AS27277 prefixes are **terrestrial** (corporate offices)
//!   — the Figure 2 outlier;
//! * SES's AS201554 looks nothing like the expected MEO+GEO mix (we give
//!   it corporate terrestrial lines), while AS12684 carries the genuine
//!   bimodal MEO+GEO subscriber base;
//! * TelAlaska's AS10538 mixes GEO satellite villages with its own
//!   wireline customers *inside one ASN*;
//! * Viasat's `75.105.63.0/24` is pure GEO but suffers occasional
//!   low-latency outliers (it gets discarded by the strict filter, the
//!   paper's motivation for relaxing it), and `45.232.115.0/24` –
//!   `45.232.117.0/24` are hybrid satellite-backup lines with three
//!   latency clusters;
//! * low-volume GEO operators scatter their few tests across many
//!   prefixes, so no prefix reaches the strict filter's 10-test minimum
//!   — they are only recovered by the relaxed filter.

use sno_geo::GeoPoint;
use sno_types::{Asn, LinkKind, Operator, OrbitClass, Prefix24};

/// One announced `/24` with its ground truth.
#[derive(Debug, Clone, Copy)]
pub struct PrefixSpec {
    /// The prefix.
    pub prefix: Prefix24,
    /// What subscriber lines in this prefix actually ride on.
    pub kind: LinkKind,
    /// Sampling weight among the operator's prefixes.
    pub weight: f64,
    /// Where this prefix's subscribers cluster.
    pub home: GeoPoint,
    /// Geographic scatter of subscribers around `home`, km (maritime
    /// fleets scatter over thousands of km).
    pub scatter_km: f64,
    /// Fraction of speed tests in a *pure* prefix that are nonetheless
    /// low-latency outliers (VPNs, misattributed lines). This is what
    /// sinks `75.105.63.0/24` in the strict filter.
    pub outlier_fraction: f64,
}

const GEO_SAT: LinkKind = LinkKind::Satellite(OrbitClass::Geo);
const LEO_SAT: LinkKind = LinkKind::Satellite(OrbitClass::Leo);
const MEO_SAT: LinkKind = LinkKind::Satellite(OrbitClass::Meo);

fn spec(
    prefix: Prefix24,
    kind: LinkKind,
    weight: f64,
    home: GeoPoint,
    scatter_km: f64,
) -> PrefixSpec {
    PrefixSpec {
        prefix,
        kind,
        weight,
        home,
        scatter_km,
        outlier_fraction: 0.0,
    }
}

/// Default prefix `j` of the ASN at flattened Table-3 position `k`:
/// `61.k.j.0/24`. The 61/8 block never collides with private space or
/// with the explicitly-assigned Viasat prefixes.
fn default_prefix(k: u8, j: u8) -> Prefix24 {
    Prefix24::new(61, k, j)
}

/// Flattened position of `asn` in the Table-3 ASN list.
fn asn_position(asn: Asn) -> u8 {
    let mut k = 0u8;
    for p in crate::profile::PROFILES {
        for &a in p.asns {
            if a == asn.0 {
                return k;
            }
            k += 1;
        }
    }
    panic!("{asn} is not a Table-3 ASN");
}

// Home regions.
const US_WEST: GeoPoint = GeoPoint {
    lat: 45.0,
    lon: -120.0,
};
const US_CENTRAL: GeoPoint = GeoPoint {
    lat: 39.0,
    lon: -98.0,
};
const US_EAST: GeoPoint = GeoPoint {
    lat: 40.0,
    lon: -78.0,
};
const EUROPE: GeoPoint = GeoPoint {
    lat: 49.0,
    lon: 8.0,
};
const OCEANIA: GeoPoint = GeoPoint {
    lat: -34.0,
    lon: 151.0,
};
const SOUTH_AMERICA: GeoPoint = GeoPoint {
    lat: -20.0,
    lon: -55.0,
};
const ALASKA: GeoPoint = GeoPoint {
    lat: 62.0,
    lon: -153.0,
};
const ATLANTIC: GeoPoint = GeoPoint {
    lat: 30.0,
    lon: -40.0,
};
const INDIAN_OCEAN: GeoPoint = GeoPoint {
    lat: -10.0,
    lon: 75.0,
};
const PACIFIC_ISLANDS: GeoPoint = GeoPoint {
    lat: -15.0,
    lon: 170.0,
};
const EQUATORIAL: GeoPoint = GeoPoint {
    lat: -3.0,
    lon: 115.0,
};
const CANADA_NORTH: GeoPoint = GeoPoint {
    lat: 63.0,
    lon: -95.0,
};

/// The allocation plan for one operator: its ASNs and their prefixes.
pub fn allocation_for(op: Operator) -> Vec<(Asn, Vec<PrefixSpec>)> {
    let profile = crate::profile::profile_of(op);
    match op {
        Operator::Starlink => {
            // AS14593: subscriber prefixes across the service regions.
            let customers = Asn(14593);
            let k = asn_position(customers);
            let homes = [
                (US_WEST, 0.14),
                (US_CENTRAL, 0.16),
                (US_EAST, 0.14),
                (EUROPE, 0.22),
                (OCEANIA, 0.10),
                (SOUTH_AMERICA, 0.06),
                (
                    GeoPoint {
                        lat: 47.0,
                        lon: -70.0,
                    },
                    0.08,
                ), // Canada
                (
                    GeoPoint {
                        lat: 14.6,
                        lon: 121.0,
                    },
                    0.04,
                ), // Philippines
                (
                    GeoPoint {
                        lat: 36.0,
                        lon: 138.0,
                    },
                    0.06,
                ), // Japan region
            ];
            let mut subs = Vec::new();
            for (j, &(home, w)) in homes.iter().enumerate() {
                // Two prefixes per region.
                for s in 0..2u8 {
                    subs.push(spec(
                        default_prefix(k, j as u8 * 2 + s),
                        LEO_SAT,
                        w / 2.0,
                        home,
                        600.0,
                    ));
                }
            }
            // AS27277: corporate offices on terrestrial fibre.
            let corporate = Asn(27277);
            let kc = asn_position(corporate);
            // Corporate traffic is a sliver of the operator's volume.
            let corp = vec![
                spec(
                    default_prefix(kc, 0),
                    LinkKind::Terrestrial,
                    0.015,
                    US_WEST,
                    100.0,
                ),
                spec(
                    default_prefix(kc, 1),
                    LinkKind::Terrestrial,
                    0.010,
                    US_EAST,
                    100.0,
                ),
            ];
            vec![(customers, subs), (corporate, corp)]
        }
        Operator::Oneweb => {
            let asn = Asn(800);
            let k = asn_position(asn);
            vec![(
                asn,
                vec![
                    spec(default_prefix(k, 0), LEO_SAT, 0.4, US_CENTRAL, 900.0),
                    spec(default_prefix(k, 1), LEO_SAT, 0.25, CANADA_NORTH, 900.0),
                    spec(default_prefix(k, 2), LEO_SAT, 0.2, EUROPE, 900.0),
                    spec(default_prefix(k, 3), LEO_SAT, 0.15, ALASKA, 500.0),
                ],
            )]
        }
        Operator::O3b => {
            let asn = Asn(60725);
            let k = asn_position(asn);
            vec![(
                asn,
                vec![
                    spec(default_prefix(k, 0), MEO_SAT, 0.5, EQUATORIAL, 1_500.0),
                    spec(default_prefix(k, 1), MEO_SAT, 0.3, PACIFIC_ISLANDS, 1_500.0),
                    spec(
                        default_prefix(k, 2),
                        MEO_SAT,
                        0.2,
                        GeoPoint { lat: 5.0, lon: 0.0 },
                        1_200.0,
                    ),
                ],
            )]
        }
        Operator::Ses => {
            // AS12684: the genuine hybrid MEO+GEO subscriber base.
            let hybrid = Asn(12684);
            let kh = asn_position(hybrid);
            let hybrid_specs = vec![
                spec(default_prefix(kh, 0), MEO_SAT, 0.22, EQUATORIAL, 1_200.0),
                spec(
                    default_prefix(kh, 1),
                    MEO_SAT,
                    0.18,
                    PACIFIC_ISLANDS,
                    1_200.0,
                ),
                spec(default_prefix(kh, 2), GEO_SAT, 0.22, EUROPE, 800.0),
                spec(default_prefix(kh, 3), GEO_SAT, 0.20, US_EAST, 800.0),
                spec(default_prefix(kh, 4), GEO_SAT, 0.18, SOUTH_AMERICA, 900.0),
            ];
            // AS201554: expected MEO+GEO, actually corporate lines — the
            // Figure 2 anomaly stage 3 must reject.
            let anomaly = Asn(201554);
            let ka = asn_position(anomaly);
            let anomaly_specs = vec![
                spec(
                    default_prefix(ka, 0),
                    LinkKind::Terrestrial,
                    0.30,
                    EUROPE,
                    200.0,
                ),
                spec(
                    default_prefix(ka, 1),
                    LinkKind::Terrestrial,
                    0.14,
                    US_EAST,
                    200.0,
                ),
            ];
            vec![(hybrid, hybrid_specs), (anomaly, anomaly_specs)]
        }
        Operator::Telalaska => {
            // One ASN mixing GEO villages and wireline customers.
            let asn = Asn(10538);
            let k = asn_position(asn);
            vec![(
                asn,
                vec![
                    spec(default_prefix(k, 0), GEO_SAT, 0.22, ALASKA, 400.0),
                    spec(default_prefix(k, 1), GEO_SAT, 0.22, ALASKA, 400.0),
                    spec(default_prefix(k, 2), GEO_SAT, 0.21, ALASKA, 400.0),
                    spec(
                        default_prefix(k, 3),
                        LinkKind::Terrestrial,
                        0.20,
                        ALASKA,
                        150.0,
                    ),
                    spec(
                        default_prefix(k, 4),
                        LinkKind::Terrestrial,
                        0.15,
                        ALASKA,
                        150.0,
                    ),
                ],
            )]
        }
        Operator::Viasat => {
            // Main consumer ASN with the prefixes the paper dissects.
            let main = Asn(13955);
            let mut main_specs = Vec::new();
            // Pure-GEO prefix with sporadic low-latency outliers:
            // discarded by the strict filter "due to few outliers".
            main_specs.push(PrefixSpec {
                prefix: Prefix24::new(75, 105, 63),
                kind: GEO_SAT,
                weight: 0.11,
                home: US_CENTRAL,
                scatter_km: 900.0,
                outlier_fraction: 0.12,
            });
            // Hybrid satellite-backup prefixes (South American wireline
            // with GEO fallback): three latency clusters.
            for (i, c) in [115u8, 116, 117].iter().enumerate() {
                main_specs.push(spec(
                    Prefix24::new(45, 232, *c),
                    LinkKind::HybridBackup(OrbitClass::Geo),
                    0.08 + 0.01 * i as f64,
                    SOUTH_AMERICA,
                    600.0,
                ));
            }
            // Clean consumer prefixes that survive the strict filter.
            let k = asn_position(main);
            for j in 0..7u8 {
                let home = match j % 3 {
                    0 => US_WEST,
                    1 => US_CENTRAL,
                    _ => US_EAST,
                };
                main_specs.push(spec(default_prefix(k, j), GEO_SAT, 0.1, home, 800.0));
            }
            let mut out = vec![(main, main_specs)];
            // Secondary ASNs: small pure-GEO pools (a sliver of the
            // subscriber base each).
            for &a in &profile.asns[1..] {
                let ks = asn_position(Asn(a));
                out.push((
                    Asn(a),
                    vec![spec(
                        default_prefix(ks, 0),
                        GEO_SAT,
                        0.02,
                        US_CENTRAL,
                        900.0,
                    )],
                ));
            }
            out
        }
        Operator::Hughes => {
            let main = Asn(28613);
            let k = asn_position(main);
            let mut main_specs = vec![
                spec(default_prefix(k, 0), GEO_SAT, 0.28, US_EAST, 800.0),
                spec(default_prefix(k, 1), GEO_SAT, 0.27, US_CENTRAL, 800.0),
                spec(default_prefix(k, 2), GEO_SAT, 0.26, US_WEST, 800.0),
                // One hybrid-backup pool ("Broadband Backup" product).
                spec(
                    default_prefix(k, 3),
                    LinkKind::HybridBackup(OrbitClass::Geo),
                    0.19,
                    US_EAST,
                    500.0,
                ),
            ];
            main_specs[3].outlier_fraction = 0.0;
            let mut out = vec![(main, main_specs)];
            for &a in &profile.asns[1..] {
                let ks = asn_position(Asn(a));
                out.push((
                    Asn(a),
                    vec![spec(
                        default_prefix(ks, 0),
                        GEO_SAT,
                        0.03,
                        SOUTH_AMERICA,
                        1_000.0,
                    )],
                ));
            }
            out
        }
        Operator::Marlink => {
            // Maritime: fleets scattered across oceans; the first three
            // ASNs carry enough traffic to pass the strict filter.
            let mut out = Vec::new();
            for (i, &a) in profile.asns.iter().enumerate() {
                let k = asn_position(Asn(a));
                let (home, weight) = match i {
                    0 => (ATLANTIC, 0.4),
                    1 => (INDIAN_OCEAN, 0.25),
                    2 => (EUROPE, 0.15),
                    _ => (ATLANTIC, 0.05),
                };
                out.push((
                    Asn(a),
                    vec![spec(default_prefix(k, 0), GEO_SAT, weight, home, 3_000.0)],
                ));
            }
            out
        }
        Operator::Kvh => {
            let mut out = Vec::new();
            for (i, &a) in profile.asns.iter().enumerate() {
                let k = asn_position(Asn(a));
                let home = if i == 0 { ATLANTIC } else { INDIAN_OCEAN };
                out.push((
                    Asn(a),
                    vec![
                        spec(default_prefix(k, 0), GEO_SAT, 0.35, home, 3_000.0),
                        spec(
                            default_prefix(k, 1),
                            GEO_SAT,
                            0.15,
                            PACIFIC_ISLANDS,
                            3_000.0,
                        ),
                    ],
                ));
            }
            out
        }
        // Every other operator: low-volume GEO traffic scattered across
        // many prefixes (and with a sprinkle of low-latency outliers),
        // so no prefix passes the strict filter — only the relaxed
        // filter recovers these operators.
        _ => {
            let per_asn = 64usize;
            profile
                .asns
                .iter()
                .map(|&a| {
                    let k = asn_position(Asn(a));
                    let home = match profile.country {
                        "US" => US_CENTRAL,
                        "CA" => CANADA_NORTH,
                        "GB" | "FR" | "GR" | "NO" | "LU" | "RU" => EUROPE,
                        "AU" | "PG" | "SG" => PACIFIC_ISLANDS,
                        "MX" | "BR" => SOUTH_AMERICA,
                        "IN" | "TH" | "ID" => EQUATORIAL,
                        _ => US_CENTRAL,
                    };
                    let specs = (0..per_asn)
                        .map(|j| {
                            let mut s = spec(
                                default_prefix(k, j as u8),
                                GEO_SAT,
                                1.0 / per_asn as f64,
                                home,
                                1_200.0,
                            );
                            s.outlier_fraction = 0.05;
                            s
                        })
                        .collect();
                    (Asn(a), specs)
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_operator_has_an_allocation() {
        for op in Operator::ALL {
            let alloc = allocation_for(op);
            assert!(!alloc.is_empty(), "{op}");
            for (asn, specs) in &alloc {
                assert!(!specs.is_empty(), "{op} {asn}");
                let total: f64 = specs.iter().map(|s| s.weight).sum();
                assert!(total > 0.0, "{op} {asn} zero weight");
            }
        }
    }

    #[test]
    fn all_prefixes_globally_unique() {
        let mut seen = BTreeSet::new();
        for op in Operator::ALL {
            for (_, specs) in allocation_for(op) {
                for s in specs {
                    assert!(seen.insert(s.prefix), "duplicate prefix {}", s.prefix);
                }
            }
        }
    }

    #[test]
    fn starlink_corporate_is_terrestrial() {
        let alloc = allocation_for(Operator::Starlink);
        let (_, corp) = alloc
            .iter()
            .find(|(asn, _)| *asn == Asn(27277))
            .expect("corporate ASN present");
        assert!(corp.iter().all(|s| s.kind == LinkKind::Terrestrial));
        let (_, subs) = alloc.iter().find(|(asn, _)| *asn == Asn(14593)).unwrap();
        assert!(subs
            .iter()
            .all(|s| s.kind == LinkKind::Satellite(OrbitClass::Leo)));
    }

    #[test]
    fn ses_asns_differ_in_kind() {
        let alloc = allocation_for(Operator::Ses);
        let (_, genuine) = alloc.iter().find(|(a, _)| *a == Asn(12684)).unwrap();
        let kinds: BTreeSet<_> = genuine.iter().map(|s| format!("{:?}", s.kind)).collect();
        assert_eq!(kinds.len(), 2, "12684 must mix MEO and GEO");
        let (_, anomaly) = alloc.iter().find(|(a, _)| *a == Asn(201554)).unwrap();
        assert!(anomaly.iter().all(|s| s.kind == LinkKind::Terrestrial));
    }

    #[test]
    fn telalaska_mixes_within_one_asn() {
        let alloc = allocation_for(Operator::Telalaska);
        let (_, specs) = &alloc[0];
        assert!(specs.iter().any(|s| s.kind == LinkKind::Terrestrial));
        assert!(specs
            .iter()
            .any(|s| s.kind == LinkKind::Satellite(OrbitClass::Geo)));
    }

    #[test]
    fn viasat_has_the_papers_prefixes() {
        let alloc = allocation_for(Operator::Viasat);
        let (_, main) = alloc.iter().find(|(a, _)| *a == Asn(13955)).unwrap();
        let outlier = main
            .iter()
            .find(|s| s.prefix == Prefix24::new(75, 105, 63))
            .expect("75.105.63.0/24 present");
        assert!(outlier.outlier_fraction > 0.0);
        assert_eq!(outlier.kind, LinkKind::Satellite(OrbitClass::Geo));
        for c in [115u8, 116, 117] {
            let h = main
                .iter()
                .find(|s| s.prefix == Prefix24::new(45, 232, c))
                .unwrap_or_else(|| panic!("45.232.{c}.0/24 present"));
            assert_eq!(h.kind, LinkKind::HybridBackup(OrbitClass::Geo));
        }
    }

    #[test]
    fn low_volume_operators_scatter_prefixes() {
        let alloc = allocation_for(Operator::Kacific);
        let (_, specs) = &alloc[0];
        assert!(specs.len() >= 8, "Kacific should scatter across prefixes");
    }

    #[test]
    fn maritime_operators_scatter_widely() {
        for op in [Operator::Marlink, Operator::Kvh] {
            for (_, specs) in allocation_for(op) {
                assert!(specs.iter().all(|s| s.scatter_km >= 2_000.0), "{op}");
            }
        }
    }
}
