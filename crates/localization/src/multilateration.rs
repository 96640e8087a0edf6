//! The classic baseline: weighted least-squares multilateration.
//!
//! The paper's related-work section (Section 5) positions Bayesian
//! inference against the textbook alternative: "When distance to three or
//! more landmarks is known, triangulation or multilateration can be used
//! … This approach depends highly on the quality of the distance
//! measurements … If the measurements are not accurate enough, which is
//! usually the case for RF signals, the localization error can be large."
//!
//! This module implements that baseline — Gauss–Newton weighted
//! least-squares over the ranges implied by the PDF Table — so the claim
//! can be measured: the ablation bench runs CoCoA with either algorithm
//! and compares accuracy under identical beacons.

use serde::{Deserialize, Serialize};

use cocoa_net::calibration::PdfTable;
use cocoa_net::geometry::{Area, Point};
use cocoa_net::rssi::Dbm;
use cocoa_sim::snapshot::{Codec, SnapshotError};

/// One range observation derived from a beacon.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RangeObservation {
    /// Beacon (landmark) position.
    pub anchor: Point,
    /// Estimated distance to the anchor, metres (the PDF's mean).
    pub range: f64,
    /// Weight = 1/σ² of the distance estimate.
    pub weight: f64,
}

impl RangeObservation {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let RangeObservation {
            anchor,
            range,
            weight,
        } = self;
        anchor.code(c)?;
        c.f64(range)?;
        c.f64(weight)
    }
}

/// Configuration of the solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultilaterationConfig {
    /// Maximum Gauss–Newton iterations.
    pub max_iterations: u32,
    /// Convergence threshold on the update step, metres.
    pub tolerance_m: f64,
}

impl Default for MultilaterationConfig {
    fn default() -> Self {
        MultilaterationConfig {
            max_iterations: 25,
            tolerance_m: 1e-3,
        }
    }
}

/// A batch multilateration estimator fed by beacons: the ranges of one
/// window, solved when it ends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Multilaterator {
    area: Area,
    config: MultilaterationConfig,
    observations: Vec<RangeObservation>,
}

impl Multilaterator {
    /// Creates an estimator bounded to `area` (estimates are clamped to
    /// the deployment area, like the Bayesian grid's support).
    pub fn new(area: Area, config: MultilaterationConfig) -> Self {
        Multilaterator {
            area,
            config,
            observations: Vec::new(),
        }
    }

    /// Adds a beacon: the observed RSSI is converted to a range via the
    /// PDF Table (mean and sigma of the bin's distance PDF). Returns
    /// `false` when the RSSI has no usable table entry.
    pub fn observe_beacon(&mut self, table: &PdfTable, anchor: Point, rssi: Dbm) -> bool {
        let Some(pdf) = table.lookup(rssi) else {
            return false;
        };
        let sigma = pdf.sigma().max(0.25);
        self.observations.push(RangeObservation {
            anchor,
            range: pdf.mean(),
            weight: 1.0 / (sigma * sigma),
        });
        true
    }

    /// Number of ranges collected.
    pub fn observations(&self) -> usize {
        self.observations.len()
    }

    /// The snapshot layout: the collected ranges, decoded onto an
    /// estimator built with the same area and configuration.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let Multilaterator {
            observations,
            // Set by the reader's constructor.
            area: _,
            config: _,
        } = self;
        c.vec(observations, |c, o| o.code(c))
    }

    /// Clears collected ranges (start of a new window).
    pub fn reset(&mut self) {
        self.observations.clear();
    }

    /// Solves for the position; `None` without any range. The window
    /// asks only once it holds three
    /// ([`MIN_BEACONS_FOR_ESTIMATE`](crate::estimator::MIN_BEACONS_FOR_ESTIMATE)),
    /// the rule the paper applies to the Bayesian algorithm.
    pub fn estimate(&self) -> Option<Point> {
        if self.observations.is_empty() {
            return None;
        }
        // Start from the weighted centroid of the anchors — robust and
        // always inside the convex hull.
        let wsum: f64 = self.observations.iter().map(|o| o.weight).sum();
        let mut p = Point::new(
            self.observations
                .iter()
                .map(|o| o.anchor.x * o.weight)
                .sum::<f64>()
                / wsum,
            self.observations
                .iter()
                .map(|o| o.anchor.y * o.weight)
                .sum::<f64>()
                / wsum,
        );
        for _ in 0..self.config.max_iterations {
            // Gauss–Newton on r_i(p) = |p - a_i| - d_i with weights w_i:
            // solve (JᵀWJ) δ = -JᵀWr, J_i = (p - a_i)/|p - a_i|.
            let mut h11 = 0.0;
            let mut h12 = 0.0;
            let mut h22 = 0.0;
            let mut g1 = 0.0;
            let mut g2 = 0.0;
            for o in &self.observations {
                let dx = p.x - o.anchor.x;
                let dy = p.y - o.anchor.y;
                let dist = (dx * dx + dy * dy).sqrt().max(1e-6);
                let jx = dx / dist;
                let jy = dy / dist;
                let r = dist - o.range;
                h11 += o.weight * jx * jx;
                h12 += o.weight * jx * jy;
                h22 += o.weight * jy * jy;
                g1 += o.weight * jx * r;
                g2 += o.weight * jy * r;
            }
            // Levenberg damping keeps the 2x2 system well-conditioned when
            // anchors are collinear.
            let lambda = 1e-6 * (h11 + h22).max(1.0);
            let (a, b, c) = (h11 + lambda, h12, h22 + lambda);
            let det = a * c - b * b;
            if det.abs() < 1e-12 {
                break;
            }
            let dx = (-g1 * c + g2 * b) / det;
            let dy = (g1 * b - g2 * a) / det;
            p = Point::new(p.x + dx, p.y + dy);
            if dx.hypot(dy) < self.config.tolerance_m {
                break;
            }
        }
        Some(self.area.clamp(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_net::calibration::{calibrate, CalibrationConfig};
    use cocoa_net::channel::RfChannel;
    use cocoa_sim::rng::SeedSplitter;

    fn solver() -> Multilaterator {
        Multilaterator::new(Area::square(200.0), MultilaterationConfig::default())
    }

    fn with_exact_ranges(robot: Point, anchors: &[Point]) -> Multilaterator {
        let mut m = solver();
        for &a in anchors {
            m.observations.push(RangeObservation {
                anchor: a,
                range: robot.distance_to(a),
                weight: 1.0,
            });
        }
        m
    }

    #[test]
    fn exact_ranges_recover_position() {
        let robot = Point::new(120.0, 60.0);
        let anchors = [
            Point::new(100.0, 50.0),
            Point::new(140.0, 80.0),
            Point::new(110.0, 90.0),
            Point::new(150.0, 40.0),
        ];
        let m = with_exact_ranges(robot, &anchors);
        let est = m.estimate().expect("enough anchors");
        assert!(
            est.distance_to(robot) < 0.01,
            "error {}",
            est.distance_to(robot)
        );
    }

    #[test]
    fn requires_three_ranges() {
        // The window's three-beacon rule holds for multilateration too:
        // two ranges give no fix, a third does.
        use crate::bayes::radial_constraints_for_grid;
        use crate::estimator::{RfAlgorithm, WindowedRfEstimator};
        use crate::grid::{BeaconField, GridConfig};
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig::default(),
            &mut SeedSplitter::new(3).stream("cal", 0),
        );
        let grid = GridConfig::new(Area::square(200.0), 2.0);
        let radial = radial_constraints_for_grid(&table, &grid);
        let mut est = WindowedRfEstimator::with_algorithm(grid, RfAlgorithm::Multilateration);
        let robot = Point::new(100.0, 100.0);
        let anchors = [
            Point::new(90.0, 100.0),
            Point::new(110.0, 100.0),
            Point::new(100.0, 112.0),
        ];
        for n in 2..=3 {
            est.begin_window();
            for &a in &anchors[..n] {
                let rssi = ch.mean_rssi(robot.distance_to(a));
                est.observe_beacon(&table, &radial, &mut BeaconField::new(a), rssi, None, 0.0);
            }
            assert_eq!(est.end_window().is_some(), n == 3, "{n} ranges");
        }
    }

    #[test]
    fn collinear_anchors_do_not_crash() {
        let robot = Point::new(100.0, 110.0);
        // All anchors on a line: the problem is ambiguous (mirror
        // solution); the solver must still terminate inside the area.
        let anchors = [
            Point::new(80.0, 100.0),
            Point::new(100.0, 100.0),
            Point::new(120.0, 100.0),
        ];
        let m = with_exact_ranges(robot, &anchors);
        let est = m.estimate().expect("estimate exists");
        assert!(Area::square(200.0).contains(est));
        // x is identifiable even when y is ambiguous.
        assert!((est.x - 100.0).abs() < 1.0, "x {}", est.x);
    }

    #[test]
    fn estimate_clamped_to_area() {
        let robot = Point::new(1.0, 1.0);
        let anchors = [
            Point::new(0.5, 0.0),
            Point::new(0.0, 0.5),
            Point::new(2.0, 2.0),
        ];
        let m = with_exact_ranges(robot, &anchors);
        let est = m.estimate().unwrap();
        assert!(Area::square(200.0).contains(est));
    }

    #[test]
    fn reset_clears_observations() {
        let mut m = with_exact_ranges(Point::new(50.0, 50.0), &[Point::new(40.0, 50.0)]);
        assert_eq!(m.observations(), 1);
        m.reset();
        assert_eq!(m.observations(), 0);
    }

    #[test]
    fn works_through_the_pdf_table() {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig::default(),
            &mut SeedSplitter::new(3).stream("cal", 0),
        );
        let robot = Point::new(100.0, 100.0);
        let anchors = [
            Point::new(92.0, 100.0),
            Point::new(108.0, 106.0),
            Point::new(100.0, 90.0),
            Point::new(88.0, 110.0),
        ];
        let mut rng = SeedSplitter::new(4).stream("probe", 0);
        let mut m = solver();
        for &a in &anchors {
            let rssi = ch.sample_rssi(robot.distance_to(a), &mut rng);
            m.observe_beacon(&table, a, rssi);
        }
        let est = m.estimate().expect("four beacons");
        assert!(
            est.distance_to(robot) < 10.0,
            "error {} m from nearby anchors",
            est.distance_to(robot)
        );
    }

    #[test]
    fn unusable_rssi_rejected() {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig::default(),
            &mut SeedSplitter::new(3).stream("cal", 0),
        );
        let mut m = solver();
        assert!(!m.observe_beacon(&table, Point::new(1.0, 1.0), Dbm::new(25.0)));
        assert_eq!(m.observations(), 0);
    }

    #[test]
    fn far_anchor_noise_hurts_multilateration_more_than_bayes() {
        // The paper's Section 5 claim: naive multilateration suffers under
        // noisy RF ranges. Compare both algorithms on far anchors.
        use crate::bayes::radial_constraints_for_grid;
        use crate::estimator::WindowedRfEstimator;
        use crate::grid::{BeaconField, GridConfig};
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig::default(),
            &mut SeedSplitter::new(5).stream("cal", 0),
        );
        let grid = GridConfig::new(Area::square(200.0), 2.0);
        let radial = radial_constraints_for_grid(&table, &grid);
        let robot = Point::new(100.0, 100.0);
        // Anchors 60-90 m away: deep-fade territory.
        let anchors = [
            Point::new(30.0, 100.0),
            Point::new(170.0, 110.0),
            Point::new(100.0, 25.0),
            Point::new(110.0, 180.0),
        ];
        let trials = 20;
        let mut bayes_total = 0.0;
        let mut lateration_total = 0.0;
        for t in 0..trials {
            let mut rng = SeedSplitter::new(100 + t).stream("probe", 0);
            let mut bayes = WindowedRfEstimator::new(grid);
            bayes.begin_window();
            let mut lateration = solver();
            for &a in &anchors {
                let rssi = ch.sample_rssi(robot.distance_to(a), &mut rng);
                bayes.observe_beacon(&table, &radial, &mut BeaconField::new(a), rssi, None, 0.0);
                lateration.observe_beacon(&table, a, rssi);
            }
            bayes_total += bayes.end_window().map_or(150.0, |e| e.distance_to(robot));
            lateration_total += lateration
                .estimate()
                .map_or(150.0, |e| e.distance_to(robot));
        }
        let bayes_mean = bayes_total / trials as f64;
        let lateration_mean = lateration_total / trials as f64;
        // Bayes should be at least competitive; typically clearly better.
        assert!(
            bayes_mean <= lateration_mean * 1.2,
            "bayes {bayes_mean:.1} m vs multilateration {lateration_mean:.1} m"
        );
    }
}
