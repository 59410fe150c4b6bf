//! Property-based tests for the orbital geometry.

use sno_check::prelude::*;
use sno_geo::GeoPoint;
use sno_orbit::access::{BentPipe, GeoAccess, MeoAccess, HANDOFF_PERIOD_SECS};
use sno_orbit::geostationary::{GeoSlot, GEO_ALTITUDE_KM};
use sno_orbit::meo::{MeoRing, O3B_RING};
use sno_orbit::shell::{Shell, Visibility, ONEWEB_SHELL, STARLINK_SHELL};
use sno_orbit::vec3::{ecef_of, elevation_deg, Vec3, EARTH_RADIUS_KM};
use sno_types::Kilometers;

/// The synthetic NDT corpus window, 2021-01-01 to 2023-04-01 UTC, in
/// seconds since the Unix epoch: the instants the generator asks the
/// orbit model about. Angle arguments there reach ~10⁵–10⁶ rad.
const WINDOW_START: f64 = 1_609_459_200.0;
const WINDOW_END: f64 = 1_680_307_200.0;
/// The LEO handoff epochs of that window (epoch starts are `15·k`).
const FIRST_EPOCH: u64 = 107_297_280;
const LAST_EPOCH: u64 = 112_020_480;

/// Every satellite of the shell, scanned in (plane, index) order: the
/// reference the pruned search must match exactly.
fn best_visible_scan(
    shell: &Shell,
    observer: Vec3,
    t_secs: f64,
    min_elevation_deg: f64,
) -> Option<Visibility> {
    let mut best: Option<Visibility> = None;
    for plane in 0..shell.planes {
        for index in 0..shell.sats_per_plane {
            let sat = shell.sat_position(plane, index, t_secs);
            let el = elevation_deg(observer, sat);
            if el < min_elevation_deg {
                continue;
            }
            if best.as_ref().is_none_or(|b| el > b.elevation_deg) {
                best = Some(Visibility {
                    plane,
                    index,
                    slant: observer.distance_to(sat),
                    elevation_deg: el,
                });
            }
        }
    }
    best
}

/// Every satellite of the ring, scanned in index order.
fn ring_scan(
    ring: &MeoRing,
    observer: Vec3,
    t_secs: f64,
    min_elevation_deg: f64,
) -> Option<(u32, Kilometers, f64)> {
    let mut best: Option<(u32, Kilometers, f64)> = None;
    for index in 0..ring.sats {
        let sat = ring.sat_position(index, t_secs);
        let el = elevation_deg(observer, sat);
        if el < min_elevation_deg {
            continue;
        }
        if best.as_ref().is_none_or(|&(_, _, b)| el > b) {
            best = Some((index, observer.distance_to(sat), el));
        }
    }
    best
}

/// The surface point straight under the midpoint of `a` and `b`.
fn under_midpoint(a: Vec3, b: Vec3) -> Vec3 {
    Vec3::new(a.x + b.x, a.y + b.y, a.z + b.z)
        .unit()
        .scale(EARTH_RADIUS_KM)
}

#[test]
fn pruned_search_matches_full_scan() {
    for shell in [STARLINK_SHELL, ONEWEB_SHELL] {
        for lat in [-78.0, -53.0, -40.0, 0.0, 33.9, 47.6, 53.0, 61.2, 82.0] {
            for lon in [-122.3, 0.0, 15.0, 174.8] {
                let obs = ecef_of(GeoPoint::new(lat, lon));
                for t in [0.0, 777.0, 5_000.0, 86_400.0, 9_999_999.0] {
                    for mask in [10.0, 25.0, 40.0] {
                        let fast = shell.best_visible(obs, t, mask);
                        let slow = best_visible_scan(&shell, obs, t, mask);
                        assert_eq!(
                            fast, slow,
                            "shell {}km lat {lat} lon {lon} t {t} mask {mask}",
                            shell.altitude_km
                        );
                    }
                }
            }
        }
    }
}

/// u* exactly halfway between two satellites of a plane, so the
/// search evaluates both neighbours of the rounded slot. The observer
/// stands under the midpoint of satellites `k` and `k + 1`; rounding
/// decides which of the two computes the higher elevation, and the
/// search must pick the one the full scan picks. Run on the real
/// shells and on one-plane copies, where that pair holds the best
/// satellite; the last `k` wraps around the plane.
#[test]
fn shell_search_at_a_midpoint_matches_full_scan() {
    for shell in [STARLINK_SHELL, ONEWEB_SHELL] {
        let s = shell.sats_per_plane;
        for (n, plane_shell) in [shell, Shell { planes: 1, ..shell }].iter().enumerate() {
            for step in 0..24u64 {
                let t = ((FIRST_EPOCH + step * 196_841) * 15) as f64;
                let plane = (step as u32 * 5) % plane_shell.planes;
                let k = if step == 0 {
                    s - 1
                } else {
                    (step as u32 * 7) % s
                };
                let a = plane_shell.sat_position(plane, k, t);
                let b = plane_shell.sat_position(plane, (k + 1) % s, t);
                let obs = under_midpoint(a, b);
                let (el_a, el_b) = (elevation_deg(obs, a), elevation_deg(obs, b));
                assert!(
                    (el_a - el_b).abs() < 1e-6,
                    "not a midpoint: {el_a} vs {el_b}"
                );
                for mask in [0.0, 25.0] {
                    let fast = plane_shell.best_visible(obs, t, mask);
                    let slow = best_visible_scan(plane_shell, obs, t, mask);
                    assert_eq!(
                        fast, slow,
                        "shell {n} plane {plane} k {k} t {t} mask {mask}"
                    );
                    assert_eq!(plane_shell.any_visible(obs, t, mask), slow.is_some());
                }
            }
        }
    }
}

/// The ring's longitude slot exactly halfway between two satellites:
/// the observer sits at the longitude midway between satellites `k`
/// and `k + 1`, at several latitudes; the last `k` wraps around.
#[test]
fn ring_search_at_a_midpoint_matches_full_scan() {
    let n = O3B_RING.sats;
    for step in 0..40u32 {
        let t = WINDOW_START + f64::from(step) * 1_771_201.5;
        let k = if step == 0 { n - 1 } else { (step * 7) % n };
        let a = O3B_RING.sat_position(k, t);
        let b = O3B_RING.sat_position((k + 1) % n, t);
        let mid = under_midpoint(a, b);
        let lon = mid.y.atan2(mid.x).to_degrees();
        for lat in [0.0, 21.5, -37.0] {
            let obs = ecef_of(GeoPoint::new(lat, lon));
            let (el_a, el_b) = (elevation_deg(obs, a), elevation_deg(obs, b));
            assert!(
                (el_a - el_b).abs() < 1e-6,
                "not a midpoint: {el_a} vs {el_b}"
            );
            let fast = O3B_RING.best_visible(obs, t, 10.0);
            let slow = ring_scan(&O3B_RING, obs, t, 10.0);
            assert!(slow.is_some());
            assert_eq!(fast, slow, "k {k} t {t} lat {lat}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// At the corpus window's epoch starts the pruned search picks
    /// exactly the satellite a full scan picks, for both shells, and
    /// the existence query agrees with it. (The fixed cases above stop
    /// at 10⁷ s, where angle arguments are over 100× smaller.)
    #[test]
    fn best_visible_matches_full_scan_in_the_corpus_window(
        lat in -80.0..80.0f64,
        lon in -180.0..180.0f64,
        epoch in FIRST_EPOCH..LAST_EPOCH,
        mask in 0.0..45.0f64,
    ) {
        let obs = ecef_of(GeoPoint::new(lat, lon));
        let t = epoch as f64 * HANDOFF_PERIOD_SECS;
        for shell in [STARLINK_SHELL, ONEWEB_SHELL] {
            let fast = shell.best_visible(obs, t, mask);
            prop_assert_eq!(fast, best_visible_scan(&shell, obs, t, mask));
            prop_assert_eq!(shell.any_visible(obs, t, mask), fast.is_some());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Over the corpus window the ring search picks exactly the
    /// satellite a scan of all 20 picks.
    #[test]
    fn ring_search_matches_full_scan_in_the_corpus_window(
        lat in -80.0..80.0f64,
        lon in -180.0..180.0f64,
        t in WINDOW_START..WINDOW_END,
        mask in 0.0..30.0f64,
    ) {
        let obs = ecef_of(GeoPoint::new(lat, lon));
        prop_assert_eq!(O3B_RING.best_visible(obs, t, mask), ring_scan(&O3B_RING, obs, t, mask));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every satellite of every modelled system stays on its sphere at
    /// all times.
    #[test]
    fn satellites_stay_on_their_spheres(
        t in 0.0..1e6f64,
        plane in 0u32..72,
        idx in 0u32..22,
        meo_idx in 0u32..20,
    ) {
        let s = STARLINK_SHELL.sat_position(plane, idx, t);
        prop_assert!((s.norm() - (EARTH_RADIUS_KM + 550.0)).abs() < 1e-6);
        let o = ONEWEB_SHELL.sat_position(plane % 18, idx % 36, t);
        prop_assert!((o.norm() - (EARTH_RADIUS_KM + 1_200.0)).abs() < 1e-6);
        let m = O3B_RING.sat_position(meo_idx, t);
        prop_assert!((m.norm() - (EARTH_RADIUS_KM + 8_062.0)).abs() < 1e-6);
    }

    /// Elevation is bounded and reaches 90° only straight up.
    #[test]
    fn elevation_bounds(
        lat in -89.0..89.0f64,
        lon in -179.0..179.0f64,
        slat in -89.0..89.0f64,
        slon in -179.0..179.0f64,
        alt in 200.0..40_000.0f64,
    ) {
        let obs = ecef_of(GeoPoint::new(lat, lon));
        let sat = ecef_of(GeoPoint::new(slat, slon)).scale((EARTH_RADIUS_KM + alt) / EARTH_RADIUS_KM);
        let el = elevation_deg(obs, sat);
        prop_assert!((-90.0..=90.0).contains(&el));
    }

    /// Bent-pipe propagation RTT is bounded by physics: at least the
    /// vertical double-bounce, at most four horizon slants.
    #[test]
    fn leo_rtt_physical_bounds(
        lat in -55.0..55.0f64,
        lon in -180.0..180.0f64,
        t in 0.0..50_000.0f64,
    ) {
        let user = GeoPoint::new(lat, lon);
        let gw = GeoPoint::new((lat + 2.0).clamp(-60.0, 60.0), lon);
        let pipe = BentPipe::new(STARLINK_SHELL, user, gw);
        if let Some(rtt) = pipe.propagation_rtt(t) {
            let min_ms = 2.0 * 2.0 * 550.0 / 299_792.458 * 1_000.0; // up+down, vertical
            let horizon =
                ((EARTH_RADIUS_KM + 550.0f64).powi(2) - EARTH_RADIUS_KM.powi(2)).sqrt();
            let max_ms = 2.0 * 2.0 * horizon / 299_792.458 * 1_000.0;
            prop_assert!(rtt.0 >= min_ms - 1e-9, "{rtt}");
            prop_assert!(rtt.0 <= max_ms + 1e-9, "{rtt}");
        }
    }

    /// LEO RTT is constant within a handoff epoch.
    #[test]
    fn leo_rtt_epoch_constant(
        lat in -50.0..50.0f64,
        t in 0.0..10_000.0f64,
        frac in 0.01..0.99f64,
    ) {
        let user = GeoPoint::new(lat, 10.0);
        let gw = GeoPoint::new(lat + 1.0, 11.0);
        let pipe = BentPipe::new(STARLINK_SHELL, user, gw);
        let epoch_start = (t / HANDOFF_PERIOD_SECS).floor() * HANDOFF_PERIOD_SECS;
        let a = pipe.propagation_rtt(epoch_start + 0.001);
        let b = pipe.propagation_rtt(epoch_start + frac * HANDOFF_PERIOD_SECS);
        prop_assert_eq!(a.map(|m| m.0), b.map(|m| m.0));
    }

    /// GEO propagation RTT sits between the vertical bounce (~477 ms)
    /// and the grazing-path maximum (~560 ms) whenever defined.
    #[test]
    fn geo_rtt_physical_bounds(
        lat in -70.0..70.0f64,
        lon in -70.0..70.0f64,
        slot_lon in -30.0..30.0f64,
        glat in -45.0..45.0f64,
    ) {
        let access = GeoAccess::new(
            GeoSlot { lon_deg: slot_lon },
            GeoPoint::new(lat, lon),
            GeoPoint::new(glat, slot_lon),
        );
        if let Some(rtt) = access.propagation_rtt() {
            let min_ms = 2.0 * 2.0 * GEO_ALTITUDE_KM / 299_792.458 * 1_000.0;
            prop_assert!(rtt.0 >= min_ms - 1e-9, "{rtt}");
            prop_assert!(rtt.0 <= 600.0, "{rtt}");
        }
    }

    /// MEO coverage is an equatorial belt: inside ±45° there is always a
    /// satellite; beyond ±62° never.
    #[test]
    fn meo_coverage_belt(lon in -180.0..180.0f64, t in 0.0..100_000.0f64) {
        let inside = MeoAccess::new(
            O3B_RING,
            GeoPoint::new(20.0, lon),
            GeoPoint::new(18.0, lon),
        );
        prop_assert!(inside.propagation_rtt(t).is_some());
        let outside = MeoAccess::new(
            O3B_RING,
            GeoPoint::new(70.0, lon),
            GeoPoint::new(0.0, lon),
        );
        prop_assert!(outside.propagation_rtt(t).is_none());
    }
}
