//! Regression tests for the *shapes* of the paper's figures, at a small
//! scale: orderings, monotonicities and crossovers that must hold for the
//! reproduction to be faithful, regardless of absolute numbers.

use cocoa_core::experiment::{
    ablations, fig10, fig1_calibration, fig6, fig7, fig9, run_rows, ExperimentScale,
};
use cocoa_sim::time::SimDuration;

fn scale() -> ExperimentScale {
    ExperimentScale {
        seed: 1234,
        duration: SimDuration::from_secs(400),
        num_robots: 24,
    }
}

#[test]
fn fig1_shape_gaussian_near_empirical_far() {
    let f = fig1_calibration(9);
    assert!(f.near.gaussian);
    assert!(!f.far.gaussian);
    // The far PDF peaks at a much larger distance than the near PDF.
    let peak = |c: &cocoa_core::experiment::PdfCurve| {
        c.points
            .iter()
            .copied()
            .fold((0.0, f64::MIN), |b, p| if p.1 > b.1 { p } else { b })
            .0
    };
    assert!(peak(&f.far) > 3.0 * peak(&f.near));
}

#[test]
fn fig6_shape_error_grows_with_period() {
    let runs = run_rows(&fig6(scale(), &[20, 100]).rows);
    let steady = |t: u64| runs.get(&format!("fig6.t{t}")).mean_error_after(110.0);
    assert!(
        steady(20) < steady(100),
        "T = 20 ({:.1} m) must beat T = 100 ({:.1} m) in RF-only mode",
        steady(20),
        steady(100)
    );
}

#[test]
fn fig7_shape_cocoa_wins_at_both_speeds() {
    let runs = run_rows(&fig7(scale()).rows);
    for v in ["0_5", "2"] {
        let steady = |mode: &str| {
            runs.get(&format!("fig7.v{v}.{mode}"))
                .mean_error_after(150.0)
        };
        let cocoa = steady("cocoa");
        let rf = steady("rf-only");
        assert!(
            cocoa < rf,
            "at v_max = {v}: CoCoA {cocoa:.1} m must beat RF-only {rf:.1} m"
        );
    }
}

#[test]
fn fig9_shape_energy_tradeoff() {
    let runs = run_rows(&fig9(scale(), &[20, 100]).rows);
    let energy = |t: u64, c: &str| runs.get(&format!("fig9.t{t}.{c}")).energy.total_j();
    let savings = |t: u64| energy(t, "uncoordinated") / energy(t, "coordinated");
    // Fig. 9's steady state starts after the largest period + 10 s.
    let steady = |t: u64| {
        runs.get(&format!("fig9.t{t}.coordinated"))
            .mean_error_after(110.0)
    };
    // Larger T: cheaper coordinated energy, bigger savings factor, worse
    // (or equal) accuracy.
    assert!(energy(100, "coordinated") < energy(20, "coordinated"));
    assert!(savings(100) > savings(20));
    assert!(
        steady(100) >= steady(20) * 0.8,
        "accuracy should not improve much with larger T"
    );
    // Uncoordinated energy barely depends on T (radios always idle).
    let drift = (energy(20, "uncoordinated") - energy(100, "uncoordinated")).abs();
    assert!(drift < 0.05 * energy(20, "uncoordinated"));
}

#[test]
fn fig10_shape_more_equipped_is_better() {
    let runs = run_rows(&fig10(scale(), &[3, 12]).rows);
    let error = |n: usize| runs.get(&format!("fig10.e{n}")).mean_error_over_time();
    assert!(
        error(12) < error(3),
        "12 equipped ({:.1} m) must beat 3 equipped ({:.1} m)",
        error(12),
        error(3)
    );
}

#[test]
fn ablation_shapes_hold() {
    let fig = ablations(scale());
    let runs =
        run_rows(fig.rows.iter().filter(|r| {
            r.key.starts_with("ablations.rf.") || r.key.starts_with("ablations.loss.")
        }));
    let error = |key: &str| runs.get(key).mean_error_over_time();
    // Bayes beats (or matches) the multilateration baseline.
    let (bayes, wls) = (
        error("ablations.rf.bayes"),
        error("ablations.rf.multilateration"),
    );
    assert!(
        bayes <= wls * 1.1,
        "bayes {bayes:.1} m vs multilateration {wls:.1} m"
    );
    // Packet loss degrades accuracy monotonically-ish and never adds fixes.
    assert!(error("ablations.loss.60pct") >= error("ablations.loss.0pct") * 0.95);
    let fixes = |key: &str| runs.get(key).traffic.fixes;
    assert!(fixes("ablations.loss.60pct") <= fixes("ablations.loss.0pct"));
}
