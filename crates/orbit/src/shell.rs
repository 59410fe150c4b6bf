//! Walker-delta constellation shells.
//!
//! A shell is a set of circular orbits at one altitude and inclination:
//! `planes` orbital planes with evenly spaced ascending nodes, each
//! carrying `sats_per_plane` satellites evenly spaced in mean anomaly,
//! with a per-plane phase offset (the Walker phasing parameter). Both
//! LEO constellations in the paper are modelled this way.

use crate::vec3::{Vec3, EARTH_ROTATION_RAD_S, MU_EARTH};
use sno_types::Kilometers;
use std::f64::consts::TAU;

/// A Walker-delta shell of circular orbits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shell {
    /// Orbit altitude above the surface, km.
    pub altitude_km: f64,
    /// Inclination, degrees.
    pub inclination_deg: f64,
    /// Number of orbital planes.
    pub planes: u32,
    /// Satellites per plane.
    pub sats_per_plane: u32,
    /// Walker phasing parameter `F`: satellites in adjacent planes are
    /// offset by `F / (planes · sats_per_plane)` of a full revolution.
    pub phasing: u32,
}

/// Starlink's first (and closest) orbital shell: 550 km, 53°, 72 planes
/// of 22 satellites.
pub const STARLINK_SHELL: Shell = Shell {
    altitude_km: 550.0,
    inclination_deg: 53.0,
    planes: 72,
    sats_per_plane: 22,
    phasing: 39,
};

/// OneWeb's polar shell: 1 200 km, 87.4°, 18 planes of 36 satellites.
pub const ONEWEB_SHELL: Shell = Shell {
    altitude_km: 1_200.0,
    inclination_deg: 87.4,
    planes: 18,
    sats_per_plane: 36,
    phasing: 1,
};

/// A visible satellite: where it is relative to an observer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visibility {
    /// Orbital plane index.
    pub plane: u32,
    /// Satellite index within the plane.
    pub index: u32,
    /// Line-of-sight distance observer → satellite.
    pub slant: Kilometers,
    /// Elevation above the observer's horizon, degrees.
    pub elevation_deg: f64,
}

impl Shell {
    /// Total satellites in the shell.
    pub fn num_sats(&self) -> u32 {
        self.planes * self.sats_per_plane
    }

    /// Orbital radius (from Earth's centre), km.
    pub fn orbit_radius_km(&self) -> f64 {
        crate::vec3::EARTH_RADIUS_KM + self.altitude_km
    }

    /// Orbital period from Kepler's third law, seconds.
    pub fn period_secs(&self) -> f64 {
        let a = self.orbit_radius_km();
        TAU * (a.powi(3) / MU_EARTH).sqrt()
    }

    /// ECEF position of satellite (`plane`, `index`) at `t_secs` after
    /// the epoch.
    ///
    /// The orbit is circular: the satellite's in-plane angle (argument of
    /// latitude) advances at the mean motion; the plane's ascending node
    /// regresses in ECEF at the Earth rotation rate (nodal precession is
    /// negligible over the study window for our purposes).
    ///
    /// # Panics
    /// Panics in debug builds when the indices are out of range.
    pub fn sat_position(&self, plane: u32, index: u32, t_secs: f64) -> Vec3 {
        debug_assert!(plane < self.planes, "plane out of range");
        debug_assert!(index < self.sats_per_plane, "index out of range");
        let a = self.orbit_radius_km();
        let inc = self.inclination_deg.to_radians();
        let mean_motion = TAU / self.period_secs();
        // Ascending node in ECEF (inertial node minus Earth rotation).
        let raan = TAU * f64::from(plane) / f64::from(self.planes) - EARTH_ROTATION_RAD_S * t_secs;
        // Argument of latitude: initial spacing + Walker phasing + motion.
        let u = TAU * f64::from(index) / f64::from(self.sats_per_plane)
            + TAU * f64::from(self.phasing) * f64::from(plane) / f64::from(self.num_sats())
            + mean_motion * t_secs;
        let (sin_u, cos_u) = u.sin_cos();
        let (sin_raan, cos_raan) = raan.sin_cos();
        let (sin_i, cos_i) = inc.sin_cos();
        Vec3::new(
            a * (cos_raan * cos_u - sin_raan * sin_u * cos_i),
            a * (sin_raan * cos_u + cos_raan * sin_u * cos_i),
            a * (sin_u * sin_i),
        )
    }

    /// The visible satellite with the highest elevation above
    /// `min_elevation_deg`, as seen from `observer` (an ECEF surface
    /// point) at `t_secs`. `None` when no satellite clears the mask.
    /// Equal elevations resolve to the lowest (plane, index), as a full
    /// scan in that order would.
    ///
    /// Exact pruned search, not a full scan. On the spherical Earth,
    /// elevation is strictly monotone in the central angle ψ between
    /// observer and satellite: cos(ψ + el) = (r/a)·cos(el), so a
    /// satellite clears the mask iff ψ ≤ ψmax = acos((r/a)·cos(mask)) −
    /// mask.
    ///
    /// * **Planes.** A plane's satellites lie on a great circle of the
    ///   orbit sphere whose nearest approach to the observer direction
    ///   ô is asin(|ô·n̂|); planes further away than ψmax are skipped
    ///   without touching their satellites.
    /// * **Candidates.** Within a plane, ô·pos(u) = a·A·cos(u − u*), so
    ///   the satellite nearest u* in argument of latitude is the
    ///   plane's best. Its neighbours are evaluated only when u* lies
    ///   within 0.01 of a slot of the midpoint between two satellites.
    ///   Outside that band the nearest satellite's cos ψ beats every
    ///   other's by at least A·(cos(0.49·Δ) − cos(0.51·Δ)) for slot
    ///   spacing Δ (~8·10⁻⁴ for Starlink, ~3·10⁻⁴ for OneWeb), while
    ///   rounding moves u* by about 10⁻⁹ of a slot even at the 1.7·10⁹ s
    ///   of the corpus window.
    /// * **Closest plane first.** The surviving plane with the smallest
    ///   |ô·n̂| is evaluated first; each new best then lowers the plane
    ///   bound from ψmax to its own ψ (same formula, same slack), and
    ///   the remaining planes follow in plane order.
    ///
    /// The slack on every bound (10⁻⁶ rad) exceeds the rounding of a
    /// computed elevation, so no skipped plane holds a satellite that
    /// could beat or tie the answer. The argument needs ψmax + slack
    /// below 90°, which holds for any mask at or above the horizon. For
    /// Starlink's 72×22 shell this evaluates a few satellites instead of
    /// 1,584.
    pub fn best_visible(
        &self,
        observer: Vec3,
        t_secs: f64,
        min_elevation_deg: f64,
    ) -> Option<Visibility> {
        self.search(observer, t_secs, min_elevation_deg, false)
    }

    /// Whether any satellite clears `min_elevation_deg` as seen from
    /// `observer` at `t_secs`: exactly `best_visible(..).is_some()`.
    ///
    /// The same plane filter and candidates as
    /// [`Shell::best_visible`], but it stops at the first candidate
    /// above the mask. That is exact because a plane holding any
    /// visible satellite has its best satellite among its candidates,
    /// and that one is visible too.
    pub fn any_visible(&self, observer: Vec3, t_secs: f64, min_elevation_deg: f64) -> bool {
        self.search(observer, t_secs, min_elevation_deg, true)
            .is_some()
    }

    /// The search behind [`Shell::best_visible`]; with `first`, it
    /// returns the first candidate above the mask instead of the best.
    fn search(
        &self,
        observer: Vec3,
        t_secs: f64,
        min_elevation_deg: f64,
        first: bool,
    ) -> Option<Visibility> {
        let o = observer.unit();
        let r_over_a = observer.norm() / self.orbit_radius_km();
        // Central angle at which a satellite sits at elevation `el`,
        // plus the slack, as the sine bound on a plane's |ô·n̂|.
        let plane_bound = |el: f64| {
            let psi = (r_over_a * el.cos()).min(1.0).acos() - el;
            (psi > 0.0).then(|| (psi + PSI_SLACK).sin())
        };
        let mut bound = plane_bound(min_elevation_deg.to_radians())?;
        let (sin_i, cos_i) = self.inclination_deg.to_radians().sin_cos();
        // Each plane with its node and |ô·n̂|, ô against the unit normal
        // of the orbit plane in ECEF.
        let planes = self.nodes(t_secs).map(|(plane, sin_raan, cos_raan)| {
            let n_dot = o.x * sin_raan * sin_i - o.y * cos_raan * sin_i + o.z * cos_i;
            (plane, sin_raan, cos_raan, n_dot.abs())
        });
        let closest = planes
            .clone()
            .filter(|p| p.3 <= bound)
            .min_by(|a, b| a.3.total_cmp(&b.3))?;
        let rest = planes.filter(|p| p.0 != closest.0);

        let mean_motion = TAU / self.period_secs();
        let s = f64::from(self.sats_per_plane);
        let mut best: Option<Visibility> = None;
        for (plane, sin_raan, cos_raan, n_dot) in std::iter::once(closest).chain(rest) {
            if n_dot > bound {
                continue;
            }
            // pos(u) = a·(p1·cos u + p2·sin u): ô·pos peaks at
            // u* = atan2(ô·p2, ô·p1), and elevation peaks with it.
            let p1 = Vec3::new(cos_raan, sin_raan, 0.0);
            let p2 = Vec3::new(-sin_raan * cos_i, cos_raan * cos_i, sin_i);
            let u_star = o.dot(p2).atan2(o.dot(p1));
            let u0 = TAU * f64::from(self.phasing) * f64::from(plane) / f64::from(self.num_sats())
                + mean_motion * t_secs;
            for index in peak_candidates((u_star - u0) / TAU * s, self.sats_per_plane) {
                let sat = self.sat_position(plane, index, t_secs);
                let el = crate::vec3::elevation_deg(observer, sat);
                if el < min_elevation_deg {
                    continue;
                }
                // The closest plane came first, so a tie goes to the
                // lower plane, as in a (plane, index) scan.
                let better = best.as_ref().is_none_or(|b| {
                    el > b.elevation_deg || (el == b.elevation_deg && plane < b.plane)
                });
                if better {
                    best = Some(Visibility {
                        plane,
                        index,
                        slant: observer.distance_to(sat),
                        elevation_deg: el,
                    });
                    if first {
                        return best;
                    }
                    if let Some(b) = plane_bound(el.to_radians()) {
                        bound = bound.min(b);
                    }
                }
            }
        }
        best
    }

    /// `(plane, sin Ω, cos Ω)` of each plane's ascending node Ω in ECEF
    /// at `t_secs`, in plane order. The first node comes from `sin_cos`;
    /// each next one is the last rotated by 2π/planes, which drifts from
    /// a direct `sin_cos` by ~10⁻¹⁴ over Starlink's 72 planes. The search
    /// steers by these values only: it places every satellite it
    /// evaluates with [`Shell::sat_position`].
    fn nodes(&self, t_secs: f64) -> impl Iterator<Item = (u32, f64, f64)> + Clone {
        let first = (-EARTH_ROTATION_RAD_S * t_secs).sin_cos();
        let (sin_step, cos_step) = (TAU / f64::from(self.planes)).sin_cos();
        (0..self.planes).scan(first, move |node, plane| {
            let (sin_raan, cos_raan) = *node;
            *node = (
                sin_raan * cos_step + cos_raan * sin_step,
                cos_raan * cos_step - sin_raan * sin_step,
            );
            Some((plane, sin_raan, cos_raan))
        })
    }
}

/// Slack added to a central-angle bound before it prunes a plane,
/// radians: well above the ~4·10⁻⁸ rad a computed elevation can be off
/// by next to the zenith (where `asin` is ill-conditioned), and about
/// 6 m on the ground, so it costs no pruning.
const PSI_SLACK: f64 = 1e-6;

/// How far from the nearest sample a sinusoid's peak may lie, in
/// sample spacings, before that sample's neighbours become candidates.
const MIDPOINT_BAND: f64 = 0.49;

/// The samples of `0..count`, evenly spaced on a circle, that can sit
/// highest on a sinusoid peaking at fractional sample position `slot`,
/// in ascending order: the nearest sample, plus both its neighbours
/// when `slot` lies within `0.5 − MIDPOINT_BAND` of a midpoint. None
/// when `count` is 0.
pub(crate) fn peak_candidates(slot: f64, count: u32) -> impl Iterator<Item = u32> {
    let nearest = slot.round();
    let reach: i64 = if (slot - nearest).abs() >= MIDPOINT_BAND {
        1
    } else {
        0
    };
    // `u32::MAX` marks an unused entry: no valid index reaches it.
    let mut indices = [u32::MAX; 3];
    for (index, k) in indices.iter_mut().zip(-reach..=reach) {
        if let Some(i) = (nearest as i64 + k).checked_rem_euclid(i64::from(count)) {
            *index = i as u32;
        }
    }
    indices.sort_unstable();
    indices.into_iter().filter(|&i| i != u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::{ecef_of, EARTH_RADIUS_KM};
    use sno_geo::GeoPoint;

    #[test]
    fn starlink_period_about_95_minutes() {
        let p = STARLINK_SHELL.period_secs() / 60.0;
        assert!((p - 95.6).abs() < 1.0, "period {p} min");
    }

    #[test]
    fn oneweb_period_about_109_minutes() {
        let p = ONEWEB_SHELL.period_secs() / 60.0;
        assert!((p - 109.0).abs() < 2.0, "period {p} min");
    }

    #[test]
    fn satellites_stay_on_their_sphere() {
        let shell = STARLINK_SHELL;
        let r = shell.orbit_radius_km();
        for t in [0.0, 300.0, 4_000.0, 86_400.0] {
            let pos = shell.sat_position(7, 3, t);
            assert!((pos.norm() - r).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn constellation_sizes() {
        assert_eq!(STARLINK_SHELL.num_sats(), 1_584);
        assert_eq!(ONEWEB_SHELL.num_sats(), 648);
    }

    #[test]
    fn mid_latitude_user_always_sees_starlink() {
        // At 53° inclination the shell is densest at mid latitudes; a
        // Seattle user should see a satellite above 25° at any time.
        let obs = ecef_of(GeoPoint::new(47.6, -122.3));
        for t in (0..12).map(|k| k as f64 * 450.0) {
            let vis = STARLINK_SHELL.best_visible(obs, t, 25.0);
            assert!(vis.is_some(), "no satellite at t={t}");
            let v = vis.unwrap();
            // Slant is bounded below by the altitude and above by the
            // horizon distance.
            assert!(v.slant.0 >= 550.0 - 1.0, "slant {}", v.slant);
            assert!(v.slant.0 < 1_500.0, "slant {}", v.slant);
        }
    }

    #[test]
    fn starlink_shell_does_not_cover_high_latitudes() {
        // 53°-inclined shell leaves the far north uncovered (Alaska's
        // far-north users rely on later shells; our Anchorage probe at
        // 61°N is near the edge but the pole is definitely dark).
        let obs = ecef_of(GeoPoint::new(82.0, 0.0));
        let vis = STARLINK_SHELL.best_visible(obs, 0.0, 25.0);
        assert!(vis.is_none());
    }

    #[test]
    fn oneweb_polar_shell_covers_high_latitudes() {
        let obs = ecef_of(GeoPoint::new(78.0, 15.0));
        let vis = ONEWEB_SHELL.best_visible(obs, 0.0, 20.0);
        assert!(vis.is_some());
    }

    #[test]
    fn selection_changes_over_time() {
        // LEO satellites sweep overhead in minutes; the chosen satellite
        // must differ across a quarter orbit.
        let obs = ecef_of(GeoPoint::new(40.0, -100.0));
        let a = STARLINK_SHELL.best_visible(obs, 0.0, 25.0).unwrap();
        let b = STARLINK_SHELL
            .best_visible(obs, STARLINK_SHELL.period_secs() / 4.0, 25.0)
            .unwrap();
        assert!(a.plane != b.plane || a.index != b.index);
    }

    #[test]
    fn elevation_mask_respected() {
        let obs = ecef_of(GeoPoint::new(47.6, -122.3));
        for t in [0.0, 777.0, 5_000.0] {
            if let Some(v) = STARLINK_SHELL.best_visible(obs, t, 40.0) {
                assert!(v.elevation_deg >= 40.0);
            }
        }
    }

    #[test]
    fn slant_lower_bound_is_altitude() {
        // Geometry sanity: slant >= altitude for any satellite above the
        // observer's horizon.
        let obs = ecef_of(GeoPoint::new(0.0, 0.0));
        let v = ONEWEB_SHELL.best_visible(obs, 123.0, 10.0).unwrap();
        assert!(v.slant.0 >= ONEWEB_SHELL.altitude_km - 1.0);
        let horizon = ((ONEWEB_SHELL.orbit_radius_km()).powi(2) - EARTH_RADIUS_KM.powi(2)).sqrt();
        assert!(v.slant.0 <= horizon);
    }
}
