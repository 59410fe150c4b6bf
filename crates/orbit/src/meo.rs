//! The O3b MEO ring.
//!
//! O3b (acquired by SES in 2016) flies an equatorial ring at 8 062 km.
//! Coverage spans roughly ±50° latitude; users track satellites that
//! drift much more slowly than LEO, so handoffs are rare — but when one
//! happens, recovery is harder because the ring is sparse (the paper's
//! explanation for MEO's heavy jitter tail in Figure 4b).

use crate::shell::peak_candidates;
use crate::vec3::{elevation_deg, Vec3, MU_EARTH};
use sno_types::Kilometers;
use std::f64::consts::TAU;

/// An equatorial circular ring of satellites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeoRing {
    /// Altitude above the surface, km.
    pub altitude_km: f64,
    /// Number of satellites, evenly spaced.
    pub sats: u32,
}

/// The O3b ring: 8 062 km, 20 satellites (the fleet size in the study
/// window).
pub const O3B_RING: MeoRing = MeoRing {
    altitude_km: 8_062.0,
    sats: 20,
};

impl MeoRing {
    /// Orbital radius, km.
    pub fn orbit_radius_km(&self) -> f64 {
        crate::vec3::EARTH_RADIUS_KM + self.altitude_km
    }

    /// Orbital period, seconds (about 288 minutes for O3b).
    pub fn period_secs(&self) -> f64 {
        TAU * (self.orbit_radius_km().powi(3) / MU_EARTH).sqrt()
    }

    /// ECEF position of satellite `index` at `t_secs`.
    ///
    /// # Panics
    /// Panics in debug builds when `index` is out of range.
    pub fn sat_position(&self, index: u32, t_secs: f64) -> Vec3 {
        debug_assert!(index < self.sats, "index out of range");
        let a = self.orbit_radius_km();
        // Equatorial ring: position is a longitude that advances at the
        // mean motion minus Earth rotation (ECEF).
        let angle = TAU * f64::from(index) / f64::from(self.sats) + self.drift(t_secs);
        Vec3::new(a * angle.cos(), a * angle.sin(), 0.0)
    }

    /// ECEF longitude of satellite 0 at `t_secs`, radians.
    fn drift(&self, t_secs: f64) -> f64 {
        (TAU / self.period_secs() - crate::vec3::EARTH_ROTATION_RAD_S) * t_secs
    }

    /// The highest-elevation satellite above `min_elevation_deg` seen
    /// from `observer`, with its slant range. `None` outside the
    /// coverage belt. Equal elevations resolve to the lowest index, as a
    /// scan of `0..sats` would.
    ///
    /// Exact without a scan. The ring is equatorial, so satellite `i`
    /// at ECEF longitude θᵢ sits at central angle ψ with cos ψ =
    /// cos(lat)·cos(θᵢ − λ) from an observer at (lat, λ), and elevation
    /// falls as ψ grows: the satellite nearest the observer's longitude
    /// is the best. It is evaluated alone unless λ lies within 0.01 of a
    /// slot of the midpoint between two satellites; then both its
    /// neighbours are evaluated too, in ascending index order. Outside
    /// that band the nearest satellite's cos ψ beats its neighbours' by
    /// at least cos(lat)·(cos(0.49·Δ) − cos(0.51·Δ)), about
    /// 10⁻³·cos(lat) for O3b's 18° spacing Δ. A satellite at or above
    /// the horizon has cos ψ ≥ r/a ≈ 0.44, so wherever a mask at or
    /// above the horizon can be cleared, cos(lat) ≥ 0.44 and the margin
    /// dwarfs rounding; rounding moves λ's slot by about 10⁻¹⁰ even at
    /// the 1.7·10⁹ s of the corpus window.
    pub fn best_visible(
        &self,
        observer: Vec3,
        t_secs: f64,
        min_elevation_deg: f64,
    ) -> Option<(u32, Kilometers, f64)> {
        let slot = (observer.y.atan2(observer.x) - self.drift(t_secs)) / TAU * f64::from(self.sats);
        let mut best: Option<(u32, Kilometers, f64)> = None;
        for index in peak_candidates(slot, self.sats) {
            let sat = self.sat_position(index, t_secs);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::ecef_of;
    use sno_geo::GeoPoint;

    #[test]
    fn o3b_period_about_288_minutes() {
        let p = O3B_RING.period_secs() / 60.0;
        assert!((p - 287.9).abs() < 3.0, "period {p} min");
    }

    #[test]
    fn equatorial_user_sees_a_satellite_near_zenith() {
        let obs = ecef_of(GeoPoint::new(0.0, 30.0));
        let (_, slant, el) = O3B_RING.best_visible(obs, 0.0, 10.0).unwrap();
        assert!(el > 60.0, "elevation {el}");
        assert!(slant.0 < 9_500.0, "slant {slant}");
        assert!(slant.0 >= O3B_RING.altitude_km - 1.0);
    }

    #[test]
    fn mid_latitude_covered_polar_not() {
        let mid = ecef_of(GeoPoint::new(45.0, -100.0));
        assert!(O3B_RING.best_visible(mid, 0.0, 10.0).is_some());
        let polar = ecef_of(GeoPoint::new(75.0, 0.0));
        assert!(O3B_RING.best_visible(polar, 0.0, 10.0).is_none());
    }

    #[test]
    fn satellites_drift_slowly() {
        // With 20 satellites spaced 18° and ~1°/min of relative drift,
        // the serving satellite changes roughly every 18 minutes — so a
        // 10-minute window sees at most one handoff.
        let obs = ecef_of(GeoPoint::new(5.0, 10.0));
        let mut changes = 0;
        let mut last = O3B_RING.best_visible(obs, 0.0, 10.0).unwrap().0;
        for t in (1..=20).map(|k| k as f64 * 30.0) {
            let (i, ..) = O3B_RING.best_visible(obs, t, 10.0).unwrap();
            if i != last {
                changes += 1;
                last = i;
            }
        }
        assert!(changes <= 1, "{changes} handoffs in 10 min");
    }

    #[test]
    fn ring_is_equatorial() {
        for i in 0..O3B_RING.sats {
            assert_eq!(O3B_RING.sat_position(i, 1234.0).z, 0.0);
        }
    }
}
