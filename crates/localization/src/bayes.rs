//! The paper's beacon constraint (Section 2.2).
//!
//! For every received beacon the robot looks the observed RSSI up in the
//! calibration table, turns the resulting distance PDF (pre-sampled as a
//! radial profile) into a positional constraint (Eq. 1), multiplies it
//! into its posterior and renormalizes (Eq. 2). Once at least three
//! beacons have been incorporated, the posterior mean is the position
//! estimate (Eq. 3). The posterior is a [`PositionGrid`](crate::grid::PositionGrid)
//! inside [`WindowedRfEstimator`](crate::estimator::WindowedRfEstimator),
//! which runs the window; this module sizes the constraints to its grid.

use cocoa_net::calibration::{PdfTable, RadialConstraintTable};

use crate::grid::GridConfig;

/// Density floor mixed into every constraint so that a single outlier
/// beacon cannot annihilate the true position's cell. Expressed relative
/// to a uniform density over a 200 m scale: small enough to not blur fixes,
/// large enough to keep the posterior proper.
///
/// Public so that precomputed radial constraint tables
/// ([`RadialConstraintTable`]) can bake the same floor into their cached
/// profiles.
pub const CONSTRAINT_FLOOR: f64 = 1e-6;

/// The per-run radial constraint table for `table`, sized to `grid`: one
/// floored [`RadialProfile`](cocoa_net::calibration::RadialProfile) per
/// calibrated RSSI bin, sampled at sub-cell resolution the first time a
/// beacon resolves to the bin, out to where the floored density turns
/// exactly flat or to the area's diagonal, whichever is nearer. Build it
/// once and share it by reference across every robot and transmit round.
pub fn radial_constraints_for_grid(table: &PdfTable, grid: &GridConfig) -> RadialConstraintTable {
    // Sub-cell sampling: fine enough for the clamped minimum sigma of the
    // calibration fits (0.25 m) and always at least 4 samples per cell.
    let step = (grid.resolution_m * 0.25).min(0.05);
    let diag = (grid.area.width().powi(2) + grid.area.height().powi(2)).sqrt();
    RadialConstraintTable::new(table, step, diag, CONSTRAINT_FLOOR)
}

#[cfg(test)]
mod tests {
    //! The paper's Bayes rules, driven through the window that runs them.

    use super::*;
    use crate::estimator::{ObservationResult, RfAlgorithm, WindowedRfEstimator};
    use crate::grid::BeaconField;
    use cocoa_net::calibration::{calibrate, CalibrationConfig, DistancePdf};
    use cocoa_net::channel::RfChannel;
    use cocoa_net::geometry::{Area, Point};
    use cocoa_net::rssi::{Dbm, RssiBin};
    use cocoa_sim::rng::SeedSplitter;

    fn config() -> GridConfig {
        GridConfig::new(Area::square(200.0), 2.0)
    }

    /// A calibration table and its radial constraints over `config()`.
    struct Tables {
        table: PdfTable,
        radial: RadialConstraintTable,
    }

    impl Tables {
        fn new(table: PdfTable) -> Self {
            let radial = radial_constraints_for_grid(&table, &config());
            Tables { table, radial }
        }

        /// Offers `est` a beacon from `at` heard at `rssi`, with the
        /// outlier gate off.
        fn observe(
            &self,
            est: &mut WindowedRfEstimator,
            at: Point,
            rssi: Dbm,
        ) -> ObservationResult {
            est.observe_beacon(
                &self.table,
                &self.radial,
                &mut BeaconField::new(at),
                rssi,
                None,
                0.0,
            )
        }
    }

    fn setup() -> (RfChannel, Tables) {
        let ch = RfChannel::default();
        let mut rng = SeedSplitter::new(77).stream("cal", 0);
        let table = calibrate(&ch, &CalibrationConfig::default(), &mut rng);
        (ch, Tables::new(table))
    }

    /// A Bayes estimator over `config()` with a window open.
    fn localizer() -> WindowedRfEstimator {
        let mut est = WindowedRfEstimator::new(config());
        est.begin_window();
        est
    }

    #[test]
    fn no_estimate_before_three_beacons() {
        let (ch, tables) = setup();
        let mut rng = SeedSplitter::new(78).stream("t", 0);
        let robot = Point::new(100.0, 100.0);
        let beacons = [
            Point::new(95.0, 100.0),
            Point::new(100.0, 106.0),
            Point::new(104.0, 96.0),
        ];
        let mut est = WindowedRfEstimator::new(config());
        for n in 0..=beacons.len() {
            est.begin_window();
            for &b in &beacons[..n] {
                let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
                assert_eq!(
                    tables.observe(&mut est, b, rssi),
                    ObservationResult::Applied
                );
            }
            assert_eq!(est.end_window().is_some(), n == 3, "{n} beacons");
        }
    }

    #[test]
    fn close_beacons_localize_well() {
        let (ch, tables) = setup();
        let robot = Point::new(120.0, 80.0);
        let beacons = [
            Point::new(110.0, 80.0),
            Point::new(126.0, 90.0),
            Point::new(120.0, 68.0),
            Point::new(132.0, 76.0),
        ];
        // Average accuracy across seeds to make the assertion robust.
        let mut errs = Vec::new();
        for seed in 0..10 {
            let mut rng = SeedSplitter::new(200 + seed).stream("t", 0);
            let mut est = localizer();
            for b in beacons {
                let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
                tables.observe(&mut est, b, rssi);
            }
            errs.push(est.end_window().unwrap().distance_to(robot));
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 8.0, "mean error {mean} m from nearby beacons");
    }

    #[test]
    fn far_beacons_localize_poorly() {
        let (ch, tables) = setup();
        let robot = Point::new(100.0, 100.0);
        let error = |beacons: [Point; 3], stream| {
            let mut rng = SeedSplitter::new(300).stream("t", stream);
            let mut est = localizer();
            for b in beacons {
                let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
                tables.observe(&mut est, b, rssi);
            }
            est.end_window()
                .map_or(f64::INFINITY, |e| e.distance_to(robot))
        };
        let near_err = error(
            [
                Point::new(92.0, 100.0),
                Point::new(108.0, 104.0),
                Point::new(100.0, 90.0),
            ],
            0,
        );
        // Beacons 90-120 m away: the "bad beacons" of Section 4.3.1.
        let far_err = error(
            [
                Point::new(10.0, 100.0),
                Point::new(195.0, 110.0),
                Point::new(100.0, 5.0),
            ],
            1,
        );
        assert!(
            near_err < far_err,
            "near {near_err} m should beat far {far_err} m"
        );
    }

    #[test]
    fn unusable_rssi_reports_no_pdf() {
        let (_, tables) = setup();
        for algorithm in RfAlgorithm::ALL {
            let mut est = WindowedRfEstimator::with_algorithm(config(), algorithm);
            est.begin_window();
            // Absurdly strong: no bin within fallback range.
            let r = tables.observe(&mut est, Point::new(1.0, 1.0), Dbm::new(20.0));
            assert_eq!(r, ObservationResult::NoPdf, "{algorithm}");
            assert_eq!(est.stats().beacons_applied, 0, "{algorithm}");
            assert_eq!(est.stats().beacons_seen, 1, "{algorithm}");
        }
    }

    #[test]
    fn reset_requires_three_fresh_beacons() {
        let (ch, tables) = setup();
        let mut rng = SeedSplitter::new(400).stream("t", 0);
        let mut est = localizer();
        let robot = Point::new(100.0, 100.0);
        let beacons = [
            Point::new(92.0, 100.0),
            Point::new(108.0, 104.0),
            Point::new(100.0, 90.0),
        ];
        for b in beacons {
            let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
            tables.observe(&mut est, b, rssi);
        }
        let fix = est.end_window().expect("three beacons");
        // A new window starts from the uniform prior with no evidence.
        est.begin_window();
        assert_eq!(est.entropy_fraction(), Some(1.0));
        assert_eq!(est.end_window(), None);
        assert_eq!(est.last_fix(), Some(fix));
    }

    #[test]
    fn entropy_falls_with_information() {
        let (ch, tables) = setup();
        let mut rng = SeedSplitter::new(500).stream("t", 0);
        let mut est = localizer();
        let initial = est.entropy_fraction().expect("a posterior");
        let robot = Point::new(100.0, 100.0);
        let b = Point::new(95.0, 100.0);
        let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
        tables.observe(&mut est, b, rssi);
        assert!(est.entropy_fraction().expect("a posterior") < initial);
    }

    #[test]
    fn outlier_beacon_does_not_annihilate_posterior() {
        // A synthetic table whose PDF puts essentially all mass at 5 m.
        let tables = Tables::new(PdfTable::from_entries(
            [(
                RssiBin(-50),
                DistancePdf::Gaussian {
                    mean: 5.0,
                    sigma: 0.5,
                },
            )],
            -80.0,
        ));
        let mut est = localizer();
        // Two contradictory beacons claiming 5 m from opposite corners.
        let a = tables.observe(&mut est, Point::new(0.0, 0.0), Dbm::new(-50.0));
        let b = tables.observe(&mut est, Point::new(200.0, 200.0), Dbm::new(-50.0));
        assert_eq!(a, ObservationResult::Applied);
        // Thanks to the density floor the second is still applicable.
        assert_eq!(b, ObservationResult::Applied);
        let mass = est.posterior().expect("a posterior").total_mass();
        assert!((mass - 1.0).abs() < 1e-6);
    }
}
