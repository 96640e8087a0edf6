//! Property-based tests for the Bayesian localization invariants, the EKF
//! backend's covariance health, and backend checkpoint round-trips.

use cocoa_localization::bayes::{radial_constraints_for_grid, CONSTRAINT_FLOOR};
use cocoa_localization::grid::ConstraintOutcome;
use cocoa_localization::prelude::*;
use cocoa_net::calibration::{
    calibrate, CalibrationConfig, DistancePdf, PdfTable, RadialConstraintTable, RadialProfile,
};
use cocoa_net::channel::RfChannel;
use cocoa_net::geometry::{Area, Point, Vec2};
use cocoa_net::rssi::{Dbm, RssiBin};
use cocoa_sim::rng::SeedSplitter;
use cocoa_sim::snapshot;
use proptest::prelude::*;

fn arb_in_area() -> impl Strategy<Value = Point> {
    (0.0..200.0f64, 0.0..200.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// A Gaussian bump `exp(−(d / width)²) + floor` around the constraint
/// centre, sampled out past the 200 m area's diagonal.
fn bump(width: f64, floor: f64) -> RadialProfile {
    RadialProfile::from_fn(0.25, 300.0, |d| (-(d / width).powi(2)).exp() + floor)
}

/// The unnormalized posterior after one radial constraint, computed cell
/// by cell: each cell times `profile.density(‖cell − center‖)`.
fn per_cell_product(g: &PositionGrid, center: Point, profile: &RadialProfile) -> Vec<f64> {
    let nx = g.nx();
    g.cells()
        .iter()
        .enumerate()
        .map(|(i, &p)| p * profile.density(g.cell_center(i % nx, i / nx).distance_to(center)))
        .collect()
}

/// Applies `profile` at `center` through the radial path and checks every
/// cell against the renormalized per-cell product at 1e-9.
fn assert_matches_per_cell_product(g: &mut PositionGrid, center: Point, profile: &RadialProfile) {
    let product = per_cell_product(g, center, profile);
    let total: f64 = product.iter().sum();
    assert_eq!(
        g.apply_radial_constraint(&mut BeaconField::new(center), profile),
        ConstraintOutcome::Applied
    );
    for (i, (&pa, &pb)) in product.iter().zip(g.cells()).enumerate() {
        let pa = pa / total;
        assert!(
            (pa - pb).abs() < 1e-9,
            "cell {i}: per-cell product {pa} vs radial {pb}"
        );
    }
}

proptest! {
    /// The posterior always stays a probability distribution (mass 1,
    /// non-negative) under arbitrary constraint sequences.
    #[test]
    fn posterior_stays_normalized(
        centers in proptest::collection::vec(arb_in_area(), 1..8),
        widths in proptest::collection::vec(1.0..60.0f64, 1..8),
    ) {
        let mut grid = PositionGrid::new(GridConfig::new(Area::square(200.0), 4.0));
        for (c, w) in centers.iter().zip(widths.iter().cycle()) {
            grid.apply_radial_constraint(&mut BeaconField::new(*c), &bump(*w, 1e-9));
            prop_assert!((grid.total_mass() - 1.0).abs() < 1e-6);
        }
    }

    /// The posterior mean always lies inside the deployment area.
    #[test]
    fn mean_inside_area(
        centers in proptest::collection::vec(arb_in_area(), 0..6),
    ) {
        let area = Area::square(200.0);
        let mut grid = PositionGrid::new(GridConfig::new(area, 4.0));
        let profile = bump(15.0, 1e-9);
        for c in &centers {
            grid.apply_radial_constraint(&mut BeaconField::new(*c), &profile);
        }
        prop_assert!(area.contains(grid.mean()));
        prop_assert!(area.contains(grid.map_estimate()));
    }

    /// An informative constraint never increases entropy; reset restores
    /// the maximum.
    #[test]
    fn entropy_monotone_under_information(c in arb_in_area(), w in 2.0..40.0f64) {
        let mut grid = PositionGrid::new(GridConfig::new(Area::square(200.0), 4.0));
        let max_entropy = grid.entropy();
        grid.apply_radial_constraint(&mut BeaconField::new(c), &bump(w, 1e-12));
        prop_assert!(grid.entropy() <= max_entropy + 1e-9);
        grid.reset_uniform();
        prop_assert!((grid.entropy() - max_entropy).abs() < 1e-9);
    }

    /// The localizer never produces an estimate from fewer than three
    /// applied beacons, whatever the inputs.
    #[test]
    fn three_beacon_rule(beacons in proptest::collection::vec((arb_in_area(), -95.0..-35.0f64), 0..3)) {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig { samples_per_distance: 30, ..Default::default() },
            &mut SeedSplitter::new(5).stream("cal", 0),
        );
        let grid = GridConfig::new(Area::square(200.0), 4.0);
        let radial = radial_constraints_for_grid(&table, &grid);
        let mut loc = BayesianLocalizer::new(grid);
        for (pos, rssi) in &beacons {
            loc.observe_beacon(&radial, &mut BeaconField::new(*pos), Dbm::new(*rssi));
        }
        prop_assert!(loc.beacons_applied() <= beacons.len() as u32);
        if loc.beacons_applied() < 3 {
            prop_assert!(loc.estimate().is_none());
        }
    }

    /// Tighter PDFs localize at least roughly as well as looser ones for
    /// the same beacon geometry (statistical, averaged over seeds).
    #[test]
    fn sharper_pdfs_do_not_hurt(seed in 0u64..30) {
        let grid = GridConfig::new(Area::square(200.0), 2.0);
        let robot = Point::new(100.0, 100.0);
        let beacons = [
            Point::new(85.0, 100.0),
            Point::new(112.0, 108.0),
            Point::new(100.0, 86.0),
            Point::new(90.0, 112.0),
        ];
        let run = |sigma: f64| {
            let table = PdfTable::from_entries(
                (-100..-30).map(|b| {
                    let ch = RfChannel::default();
                    let mean = ch.distance_for_mean_rssi(RssiBin(b).center());
                    (RssiBin(b), DistancePdf::Gaussian { mean, sigma })
                }),
                -80.0,
            );
            let radial = radial_constraints_for_grid(&table, &grid);
            let ch = RfChannel::default();
            let mut rng = SeedSplitter::new(seed).stream("probe", 0);
            let mut loc = BayesianLocalizer::new(grid);
            for b in beacons {
                let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
                loc.observe_beacon(&radial, &mut BeaconField::new(b), rssi);
            }
            loc.estimate().map(|e| e.distance_to(robot))
        };
        if let (Some(sharp), Some(loose)) = (run(2.0), run(30.0)) {
            // Allow statistical slack; the loose table must not be
            // dramatically better.
            prop_assert!(sharp <= loose + 6.0, "sharp {sharp} vs loose {loose}");
        }
    }

    /// The radial path computes the posterior a per-cell product computes,
    /// cell for cell at 1e-9, for arbitrary beacon positions (including
    /// outside the area), profile shapes and grid resolutions.
    #[test]
    fn radial_constraint_equals_generic_per_cell(
        cx in -20.0..220.0f64,
        cy in -20.0..220.0f64,
        res in 1.0..8.0f64,
        mean in 2.0..90.0f64,
        sigma in 0.25..25.0f64,
        step in 0.02..0.5f64,
    ) {
        let pdf = DistancePdf::Gaussian { mean, sigma };
        let profile = pdf.radial_profile(step, 340.0).offset(CONSTRAINT_FLOOR);
        let center = Point::new(cx, cy);
        let mut radial = PositionGrid::new(GridConfig::new(Area::square(200.0), res));
        // Two applications so scratch-buffer reuse is in play.
        for _ in 0..2 {
            assert_matches_per_cell_product(&mut radial, center, &profile);
        }
    }

    /// Same equivalence through a *calibrated* PDF table: whatever bin an
    /// observed RSSI resolves to, its sampled profile drives the radial
    /// path to the per-cell product's posterior.
    #[test]
    fn radial_matches_generic_for_calibrated_bins(
        rssi in -95.0..-40.0f64,
        cx in 0.0..200.0f64,
        cy in 0.0..200.0f64,
        res in 2.0..6.0f64,
    ) {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig { samples_per_distance: 30, ..Default::default() },
            &mut SeedSplitter::new(11).stream("cal", 0),
        );
        prop_assume!(table.lookup(Dbm::new(rssi)).is_some());
        let pdf = table.lookup(Dbm::new(rssi)).unwrap();
        let profile = pdf.radial_profile(0.05, 340.0).offset(CONSTRAINT_FLOOR);
        let mut radial = PositionGrid::new(GridConfig::new(Area::square(200.0), res));
        assert_matches_per_cell_product(&mut radial, Point::new(cx, cy), &profile);
    }

    /// A constraint whose per-cell product has no mass is rejected and
    /// leaves the posterior bit-for-bit untouched.
    #[test]
    fn radial_rejection_behaviour_identical(
        cx in 0.0..200.0f64,
        cy in 0.0..200.0f64,
        res in 1.0..8.0f64,
        informative in any::<bool>(),
    ) {
        let center = Point::new(cx, cy);
        let mut radial = PositionGrid::new(GridConfig::new(Area::square(200.0), res));
        if informative {
            radial.apply_radial_constraint(&mut BeaconField::new(center), &bump(20.0, 1e-9));
        }
        let before = radial.clone();
        let zero = RadialProfile::from_fn(0.5, 340.0, |_| 0.0);
        prop_assert_eq!(per_cell_product(&radial, center, &zero).iter().sum::<f64>(), 0.0);
        prop_assert_eq!(
            radial.apply_radial_constraint(&mut BeaconField::new(center), &zero),
            ConstraintOutcome::Rejected
        );
        prop_assert_eq!(&radial, &before);
    }

    /// The windowed estimator's stats are internally consistent for every
    /// backend, with the outlier gate off and with an 80 m gate around an
    /// arbitrary reference position.
    #[test]
    fn window_stats_consistent(
        windows in 1u32..6,
        beacons_per in 0usize..6,
        gated in any::<bool>(),
        reference in arb_in_area(),
    ) {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig { samples_per_distance: 30, ..Default::default() },
            &mut SeedSplitter::new(9).stream("cal", 0),
        );
        let grid = GridConfig::new(Area::square(200.0), 4.0);
        let radial = radial_constraints_for_grid(&table, &grid);
        let gate_m = if gated { 80.0 } else { 0.0 };
        for algorithm in RfAlgorithm::ALL {
            let mut est = WindowedRfEstimator::with_algorithm(grid, algorithm);
            let mut rng = SeedSplitter::new(10).stream("b", 0);
            use rand::Rng;
            for _ in 0..windows {
                est.begin_window();
                for _ in 0..beacons_per {
                    let b = Point::new(rng.gen::<f64>() * 200.0, rng.gen::<f64>() * 200.0);
                    let rssi = ch.sample_rssi(b.distance_to(Point::new(100.0, 100.0)).max(0.5), &mut rng);
                    est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, Some(reference), gate_m);
                }
                est.end_window();
            }
            let stats = est.stats();
            prop_assert_eq!(stats.windows, windows);
            prop_assert!(stats.fixes <= stats.windows);
            prop_assert!(
                stats.beacons_applied + stats.beacons_rejected_outlier <= stats.beacons_seen,
                "{}: {:?}", algorithm, stats
            );
            prop_assert_eq!(stats.beacons_seen, u64::from(windows) * beacons_per as u64);
            if !gated && algorithm != RfAlgorithm::Ekf {
                prop_assert_eq!(stats.beacons_rejected_outlier, 0);
            }
        }
    }
}

/// One step of an arbitrary EKF schedule: a dead-reckoned displacement or
/// a (possibly wildly inconsistent) range update.
#[derive(Debug, Clone, Copy)]
enum EkfOp {
    Predict(f64, f64),
    Update(f64, f64, f64, f64),
}

fn arb_ekf_op() -> impl Strategy<Value = EkfOp> {
    prop_oneof![
        ((-20.0..20.0f64), (-20.0..20.0f64)).prop_map(|(x, y)| EkfOp::Predict(x, y)),
        (
            (0.0..200.0f64),
            (0.0..200.0f64),
            (0.5..250.0f64),
            (0.25..12.0f64),
        )
            .prop_map(|(x, y, r, s)| EkfOp::Update(x, y, r, s)),
    ]
}

proptest! {
    /// The EKF covariance stays a symmetric positive-definite matrix under
    /// arbitrary interleavings of prediction steps and (gated, applied or
    /// inflating) range updates — the filter never talks itself into an
    /// impossible uncertainty, whatever the measurement stream does.
    #[test]
    fn ekf_covariance_stays_symmetric_positive_definite(
        ops in proptest::collection::vec(arb_ekf_op(), 1..60),
        initial_sigma in 1.0..150.0f64,
    ) {
        let mut f = EkfLocalizer::new(
            EkfConfig { initial_sigma_m: initial_sigma, ..EkfConfig::default() },
            Area::square(200.0),
            None,
        );
        for op in &ops {
            match *op {
                EkfOp::Predict(x, y) => f.predict(Vec2::new(x, y)),
                EkfOp::Update(x, y, r, s) => {
                    f.update_range(Point::new(x, y), r, s);
                }
            }
            // Symmetry is structural (P₁₂ is stored once); health means the
            // matrix it denotes is positive-definite and finite.
            let p = f.covariance();
            let [[p11, p12], [_, p22]] = p;
            prop_assert!(
                p11.is_finite() && p22.is_finite() && p12.is_finite(),
                "covariance went non-finite: {p:?}"
            );
            prop_assert!(p11 > 0.0 && p22 > 0.0, "diagonal must stay positive: {p:?}");
            prop_assert!(
                p12 * p12 <= p11 * p22 * (1.0 + 1e-9) + 1e-12,
                "P must stay positive-definite: {p:?}"
            );
            prop_assert!(f.uncertainty().is_finite());
            prop_assert!(Area::square(200.0).contains(f.estimate()));
        }
    }

    /// Every backend's layout decodes onto a fresh estimator that equals
    /// the original field for field — including mid-window, with a window
    /// open and beacons partially accumulated — and encodes to the same
    /// bytes again.
    #[test]
    fn backend_checkpoints_round_trip_for_every_algorithm(
        seed in 0u64..200,
        beacons_per in 0usize..6,
        windows in 1u32..4,
        open in any::<bool>(),
    ) {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig { samples_per_distance: 30, ..Default::default() },
            &mut SeedSplitter::new(seed).stream("cal", 0),
        );
        let grid = GridConfig::new(Area::square(200.0), 4.0);
        let radial = radial_constraints_for_grid(&table, &grid);
        let robot = Point::new(100.0, 100.0);
        for algorithm in RfAlgorithm::ALL {
            let mut est = WindowedRfEstimator::with_algorithm(grid, algorithm);
            let mut rng = SeedSplitter::new(seed).stream("b", 0);
            use rand::Rng;
            for w in 0..windows {
                est.note_odometry(Point::new(100.0 + f64::from(w), 100.0));
                est.begin_window();
                for _ in 0..beacons_per {
                    let b = Point::new(rng.gen::<f64>() * 200.0, rng.gen::<f64>() * 200.0);
                    let rssi = ch.sample_rssi(b.distance_to(robot).max(0.5), &mut rng);
                    // The production gate: 80 m around the last fix, off
                    // before the first.
                    let reference = est.last_fix();
                    est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, reference, 80.0);
                }
                if w + 1 < windows || !open {
                    est.end_window();
                }
            }
            let bytes = snapshot::encode(|c| est.code(c));
            let mut restored = WindowedRfEstimator::with_algorithm(grid, algorithm);
            snapshot::decode(&bytes, "estimator", |c| restored.code(c)).expect("own bytes decode");
            prop_assert_eq!(restored.algorithm(), algorithm);
            prop_assert_eq!(&restored, &est, "{} restore must be exact", algorithm);
            prop_assert_eq!(
                snapshot::encode(|c| restored.code(c)),
                bytes,
                "{} re-encode must be exact",
                algorithm
            );
        }
    }
}

/// Fails unless the two posteriors hold the same bytes.
fn assert_same_bits(scalar: &PositionGrid, simd: &PositionGrid) {
    assert_eq!(scalar.num_cells(), simd.num_cells());
    for (ix, (a, b)) in scalar.cells().iter().zip(simd.cells()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "cell {ix}: scalar {a:e} vs simd {b:e}"
        );
    }
}

proptest! {
    /// The lane-packed kernels behind `apply_radial_constraint` are
    /// bit-identical to the scalar reference loop: same posterior bytes for
    /// arbitrary beacon geometry, profile shape and grid resolution,
    /// whether an update fills the beacon's distance field or reads the
    /// coordinates an earlier update stored. This is the contract that
    /// lets the lane kernels be the only production path without
    /// perturbing goldens.
    #[test]
    fn simd_f64_kernel_is_bit_identical_to_scalar(
        cx in -20.0..220.0f64,
        cy in -20.0..220.0f64,
        res in 1.0..8.0f64,
        res2 in 1.0..8.0f64,
        mean in 2.0..90.0f64,
        sigma in 0.25..25.0f64,
        step in 0.02..0.5f64,
        step2 in 0.02..0.5f64,
    ) {
        prop_assume!(res != res2 && step != step2);
        let center = Point::new(cx, cy);
        let pdfs = [
            DistancePdf::Gaussian { mean, sigma },
            DistancePdf::Gaussian { mean: 0.5 * mean + 10.0, sigma: 1.5 * sigma },
        ];
        let floored = |pdf: &DistancePdf, step| pdf.radial_profile(step, 340.0).offset(CONSTRAINT_FLOOR);
        let profiles = [floored(&pdfs[0], step), floored(&pdfs[1], step)];
        let grid = |res| PositionGrid::new(GridConfig::new(Area::square(200.0), res));
        // Two grids of one geometry; the second starts from another prior.
        let mut scalar = [grid(res), grid(res)];
        scalar[1].apply_radial_constraint_reference(Point::new(100.0, 100.0), &profiles[1]);
        let mut simd = scalar.clone();
        let mut field = BeaconField::new(center);
        // One field serves two profiles and two grids in turn: the first
        // update fills it and every later one reads the stored coordinates.
        for (g, p) in [(0, 0), (1, 1), (0, 1), (1, 0), (0, 0)] {
            let oa = scalar[g].apply_radial_constraint_reference(center, &profiles[p]);
            let ob = simd[g].apply_radial_constraint(&mut field, &profiles[p]);
            prop_assert_eq!(oa, ob);
            assert_same_bits(&scalar[g], &simd[g]);
        }
        prop_assert_eq!(field.fills(), 1);

        // Another step refills the field, and so does another resolution.
        let restepped = floored(&pdfs[0], step2);
        let oa = scalar[0].apply_radial_constraint_reference(center, &restepped);
        let ob = simd[0].apply_radial_constraint(&mut field, &restepped);
        prop_assert_eq!(oa, ob);
        assert_same_bits(&scalar[0], &simd[0]);
        prop_assert_eq!(field.fills(), 2);
        let (mut scalar2, mut simd2) = (grid(res2), grid(res2));
        let oa = scalar2.apply_radial_constraint_reference(center, &restepped);
        let ob = simd2.apply_radial_constraint(&mut field, &restepped);
        prop_assert_eq!(oa, ob);
        assert_same_bits(&scalar2, &simd2);
        prop_assert_eq!(field.fills(), 3);
    }
}

/// A calibration with every bin's profile floored as a run's are, and a
/// 40 m × 40 m, 2 m grid over which the tests below draw posteriors.
fn calibrated_radial() -> (PdfTable, RadialConstraintTable, GridConfig) {
    let table = calibrate(
        &RfChannel::default(),
        &CalibrationConfig {
            samples_per_distance: 30,
            ..Default::default()
        },
        &mut SeedSplitter::new(13).stream("cal", 0),
    );
    let grid = GridConfig::new(Area::square(40.0), 2.0);
    let radial = radial_constraints_for_grid(&table, &grid);
    (table, radial, grid)
}

/// A finite, non-negative posterior over `cells` cells summing to 1:
/// arbitrary weights, some zero and some subnormal, or all the mass on
/// one cell.
fn arb_posterior(cells: usize) -> impl Strategy<Value = Vec<f64>> {
    let weight = prop_oneof![Just(0.0), 1e-310..1e-300f64, 0.0..1.0f64, 1.0..1e6f64];
    prop_oneof![
        proptest::collection::vec(weight, cells).prop_map(|mut w| {
            if w.iter().all(|&x| x == 0.0) {
                w[0] = 1.0;
            }
            let total: f64 = w.iter().sum();
            w.into_iter().map(|x| x / total).collect()
        }),
        (0..cells).prop_map(move |i| {
            let mut w = vec![0.0; cells];
            w[i] = 1.0;
            w
        }),
    ]
}

/// `grid` holding `cells`, decoded as a snapshot reader would.
fn grid_holding(grid: GridConfig, mut cells: Vec<f64>) -> PositionGrid {
    use snapshot::Codec;
    let bytes = snapshot::encode(|c| c.vec(&mut cells, Codec::f64));
    let mut g = PositionGrid::new(grid);
    snapshot::decode(&bytes, "grid", |c| g.code(c)).expect("own bytes");
    g
}

proptest! {
    /// A beacon admitted on arrival is reported applied before its grid
    /// update runs, which holds because the update cannot be rejected:
    /// any calibrated, floored profile multiplied into any finite,
    /// non-negative posterior that sums to 1 applies, however far its
    /// center, alone or after earlier updates of one batch.
    #[test]
    fn floored_calibrated_profiles_never_reject_a_valid_posterior(
        cells in arb_posterior(400),
        updates in proptest::collection::vec(
            (any::<usize>(), -300.0..340.0f64, -300.0..340.0f64),
            1..5,
        ),
    ) {
        let (table, radial, grid) = calibrated_radial();
        let bins: Vec<RssiBin> = table.entries().map(|(bin, _)| bin).collect();
        let mut g = grid_holding(grid, cells);
        let mut batch = g.batch();
        for (bin, x, y) in updates {
            let profile = radial.get(bins[bin % bins.len()]).expect("calibrated bin");
            let outcome = batch.apply(&mut BeaconField::new(Point::new(x, y)), profile);
            prop_assert_eq!(outcome, ConstraintOutcome::Applied);
        }
        drop(batch);
        prop_assert!(g.cells().iter().all(|p| p.is_finite() && *p >= 0.0));
        prop_assert!((g.total_mass() - 1.0).abs() < 1e-9);
    }

    /// A batch renormalizes once, at the end, yet leaves the very bits
    /// renormalizing after every update leaves: each update reads the
    /// previous product times its `1 / total`, which is the value a
    /// renormalizing pass would have stored.
    #[test]
    fn a_batch_is_bit_identical_to_renormalizing_every_update(
        cells in arb_posterior(400),
        updates in proptest::collection::vec(
            (any::<usize>(), 0.0..40.0f64, 0.0..40.0f64, any::<bool>()),
            1..6,
        ),
    ) {
        let (table, radial, grid) = calibrated_radial();
        let bins: Vec<RssiBin> = table.entries().map(|(bin, _)| bin).collect();
        let mut eager = grid_holding(grid, cells);
        let mut batched = eager.clone();
        let mut batch = batched.batch();
        let mut field = BeaconField::default();
        for (bin, x, y, new_frame) in updates {
            let center = if new_frame { Point::new(x, y) } else { field.center() };
            let profile = radial.get(bins[bin % bins.len()]).expect("calibrated bin");
            let oa = eager.apply_radial_constraint_reference(center, profile);
            if new_frame {
                field.reset(center);
            }
            let ob = batch.apply(&mut field, profile);
            prop_assert_eq!(oa, ob);
        }
        drop(batch);
        assert_same_bits(&eager, &batched);
    }
}
