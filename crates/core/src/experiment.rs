//! One driver per figure of the paper's evaluation (Section 4), plus the
//! ablations DESIGN.md calls out.
//!
//! Every driver takes an [`ExperimentScale`] so the benchmark harness can
//! run a downsized variant while the figure-regeneration binaries run the
//! paper's full 30-minute, 50-robot setup. Drivers return structured
//! results and render the same rows/series the paper reports via their
//! `render()` methods. Parameter sweeps run their points on parallel
//! threads (each simulation is single-threaded and deterministic).

use serde::{Deserialize, Serialize};

use cocoa_localization::estimator::EstimatorMode;
use cocoa_net::calibration::{calibrate, CalibrationConfig};
use cocoa_net::channel::RfChannel;
use cocoa_net::rssi::RssiBin;
use cocoa_sim::rng::SeedSplitter;
use cocoa_sim::stats;
use cocoa_sim::time::{SimDuration, SimTime};

use crate::metrics::RunMetrics;
use crate::runner::run;
use crate::scenario::{Scenario, ScenarioBuilder};

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Master seed.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Team size.
    pub num_robots: usize,
}

impl Default for ExperimentScale {
    /// The paper's scale: 50 robots, 30 minutes.
    fn default() -> Self {
        ExperimentScale {
            seed: 42,
            duration: SimDuration::from_secs(1800),
            num_robots: 50,
        }
    }
}

impl ExperimentScale {
    /// A downsized scale for CI and Criterion benches.
    pub fn quick() -> Self {
        ExperimentScale {
            seed: 42,
            duration: SimDuration::from_secs(300),
            num_robots: 20,
        }
    }

    fn base_builder(&self) -> ScenarioBuilder {
        let mut b = Scenario::builder();
        b.seed(self.seed)
            .duration(self.duration)
            .robots(self.num_robots)
            .equipped(self.num_robots / 2);
        b
    }
}

/// Runs scenarios on the bounded sweep executor, preserving input order.
///
/// Each simulation is single-threaded and deterministic; the executor
/// caps concurrency at the machine's core count instead of spawning one
/// thread per scenario.
fn run_parallel(scenarios: Vec<Scenario>) -> Vec<RunMetrics> {
    crate::executor::map_bounded(scenarios, run)
}

/// Runs a sweep under full supervision: panic isolation, per-point
/// deadlines, deterministic retry, and (when
/// [`SweepConfig::manifest_path`](crate::executor::sweep::SweepConfig)
/// is set) checkpointed auto-resume of interrupted sweeps.
///
/// Unlike an unsupervised sweep, one crashing or hanging point does not
/// abort the sweep: every other point still completes and the failure
/// comes back classified inside the
/// [`SweepReport`](crate::executor::supervisor::SweepReport).
///
/// # Errors
///
/// Fails only when a configured manifest file exists but cannot be
/// read or decoded; job failures are reported, not raised.
pub fn run_parallel_supervised(
    scenarios: Vec<Scenario>,
    cfg: &crate::executor::sweep::SweepConfig,
) -> Result<
    crate::executor::supervisor::SweepReport<RunMetrics>,
    crate::executor::manifest::ManifestError,
> {
    crate::executor::sweep::run_supervised(scenarios, cfg)
}

/// A labelled `(x, y)` series — one curve of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Curve label as it would appear in the figure legend.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    fn from_metrics(label: impl Into<String>, m: &RunMetrics) -> Self {
        Series {
            label: label.into(),
            points: m
                .error_series
                .iter()
                .map(|p| (p.t_s, p.mean_error_m))
                .collect(),
        }
    }

    /// Mean of the y values (0 if empty).
    pub fn mean(&self) -> f64 {
        let ys: Vec<f64> = self.points.iter().map(|p| p.1).collect();
        stats::mean(&ys)
    }

    /// Maximum of the y values (0 if empty).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(0.0, f64::max)
    }

    /// The last y value (0 if empty).
    pub fn last(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.1)
    }

    /// Mean of the y values with `x >= from` (0 if none).
    pub fn mean_after(&self, from: f64) -> f64 {
        let tail: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.0 >= from)
            .map(|p| p.1)
            .collect();
        stats::mean(&tail)
    }

    /// Downsamples to roughly `n` points (for compact printing). `n = 0`
    /// returns the series unchanged.
    pub fn downsampled(&self, n: usize) -> Series {
        if self.points.len() <= n || n == 0 {
            return self.clone();
        }
        let stride = self.points.len().div_ceil(n);
        Series {
            label: self.label.clone(),
            points: self.points.iter().step_by(stride).copied().collect(),
        }
    }
}

fn render_series_table(title: &str, series: &[Series], n_points: usize) -> String {
    let mut out = format!("# {title}\n");
    for s in series {
        let ds = s.downsampled(n_points);
        out.push_str(&format!(
            "{} | mean={:.2} m, steady(>310s)={:.2} m, max={:.2} m, final={:.2} m\n",
            ds.label,
            s.mean(),
            s.mean_after(310.0),
            s.max(),
            s.last()
        ));
        let row: Vec<String> = ds
            .points
            .iter()
            .map(|(t, e)| format!("({t:.0}s, {e:.1}m)"))
            .collect();
        out.push_str(&format!("  {}\n", row.join(" ")));
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 1 — calibration PDFs
// ---------------------------------------------------------------------------

/// One PDF curve of paper Fig. 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdfCurve {
    /// The RSSI bin the curve belongs to.
    pub rssi_dbm: i16,
    /// Whether the calibration kept the Gaussian form.
    pub gaussian: bool,
    /// `(distance, density)` samples of the PDF.
    pub points: Vec<(f64, f64)>,
}

/// Output of the Fig. 1 regeneration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Calibration {
    /// The near-field example (paper: RSSI = −52 dBm, Gaussian).
    pub near: PdfCurve,
    /// The far-field example (paper: RSSI = −86 dBm, non-Gaussian).
    pub far: PdfCurve,
    /// Number of calibrated RSSI bins in the table.
    pub table_bins: usize,
}

/// Regenerates paper Fig. 1: the distance PDFs for a strong and a weak
/// RSSI value — Gaussian and non-Gaussian respectively.
pub fn fig1_calibration(seed: u64) -> Fig1Calibration {
    let channel = RfChannel::default();
    let table = calibrate(
        &channel,
        &CalibrationConfig::default(),
        &mut SeedSplitter::new(seed).stream("calibration", 0),
    );
    let curve = |bin: i16| -> PdfCurve {
        let pdf = table
            .lookup(RssiBin(bin).center())
            .unwrap_or_else(|| panic!("bin {bin} missing from the table"));
        let max_d = pdf.support_max().min(160.0);
        let points = (0..=200)
            .map(|i| {
                let d = 0.5 + max_d * f64::from(i) / 200.0;
                (d, pdf.density(d))
            })
            .collect();
        PdfCurve {
            rssi_dbm: bin,
            gaussian: pdf.is_gaussian(),
            points,
        }
    };
    Fig1Calibration {
        near: curve(-52),
        far: curve(-86),
        table_bins: table.len(),
    }
}

impl Fig1Calibration {
    /// Renders the figure's content as text.
    pub fn render(&self) -> String {
        let peak = |c: &PdfCurve| {
            c.points
                .iter()
                .copied()
                .fold((0.0, 0.0), |best, p| if p.1 > best.1 { p } else { best })
        };
        let (dn, _) = peak(&self.near);
        let (df, _) = peak(&self.far);
        format!(
            "# Fig. 1 — calibration PDFs ({} bins)\n\
             (a) RSSI {} dBm: {} PDF, peak at {:.1} m\n\
             (b) RSSI {} dBm: {} PDF, peak at {:.1} m\n",
            self.table_bins,
            self.near.rssi_dbm,
            if self.near.gaussian {
                "Gaussian"
            } else {
                "empirical"
            },
            dn,
            self.far.rssi_dbm,
            if self.far.gaussian {
                "Gaussian"
            } else {
                "empirical"
            },
            df,
        )
    }
}

// ---------------------------------------------------------------------------
// Fig. 4 — odometry-only error growth
// ---------------------------------------------------------------------------

/// Output of the Fig. 4 regeneration: one error-vs-time series per speed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Odometry {
    /// Error series for `v_max` = 0.5 and 2.0 m/s.
    pub series: Vec<Series>,
}

/// Regenerates paper Fig. 4: localization error over time using odometry
/// only, for maximum speeds 0.5 and 2.0 m/s.
pub fn fig4_odometry(scale: ExperimentScale) -> Fig4Odometry {
    let scenarios: Vec<Scenario> = [0.5, 2.0]
        .into_iter()
        .map(|v| {
            scale
                .base_builder()
                .mode(EstimatorMode::OdometryOnly)
                .v_max(v)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    Fig4Odometry {
        series: results
            .iter()
            .zip(["v_max = 0.5 m/s", "v_max = 2.0 m/s"])
            .map(|(m, label)| Series::from_metrics(label, m))
            .collect(),
    }
}

impl Fig4Odometry {
    /// Renders the figure's series as text.
    pub fn render(&self) -> String {
        render_series_table(
            "Fig. 4 — localization error over time, odometry only",
            &self.series,
            12,
        )
    }
}

// ---------------------------------------------------------------------------
// Fig. 6 — RF-only error for different beacon periods
// ---------------------------------------------------------------------------

/// Output of the Fig. 6 regeneration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6RfOnly {
    /// One error series per beacon period `T`.
    pub series: Vec<Series>,
}

/// Regenerates paper Fig. 6: RF-only localization error over time for the
/// given beacon periods (the paper uses 10/50/100/300 s).
pub fn fig6_rf_only(scale: ExperimentScale, periods_s: &[u64]) -> Fig6RfOnly {
    let scenarios: Vec<Scenario> = periods_s
        .iter()
        .map(|&t| {
            scale
                .base_builder()
                .mode(EstimatorMode::RfOnly)
                .beacon_period(SimDuration::from_secs(t))
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    Fig6RfOnly {
        series: results
            .iter()
            .zip(periods_s)
            .map(|(m, t)| Series::from_metrics(format!("T = {t} s"), m))
            .collect(),
    }
}

impl Fig6RfOnly {
    /// Renders the figure's series as text.
    pub fn render(&self) -> String {
        render_series_table(
            "Fig. 6 — localization error over time, RF localization only",
            &self.series,
            12,
        )
    }
}

// ---------------------------------------------------------------------------
// Fig. 7 — CoCoA vs odometry-only vs RF-only
// ---------------------------------------------------------------------------

/// Output of the Fig. 7 regeneration: for each speed, the three modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Comparison {
    /// `(v_max, [odometry, rf-only, cocoa])` series.
    pub by_speed: Vec<(f64, Vec<Series>)>,
}

/// Regenerates paper Fig. 7: the three estimator modes at T = 100 s for
/// both maximum speeds.
pub fn fig7_comparison(scale: ExperimentScale) -> Fig7Comparison {
    let mut by_speed = Vec::new();
    for v in [0.5, 2.0] {
        let scenarios: Vec<Scenario> = [
            EstimatorMode::OdometryOnly,
            EstimatorMode::RfOnly,
            EstimatorMode::Cocoa,
        ]
        .into_iter()
        .map(|mode| {
            scale
                .base_builder()
                .mode(mode)
                .v_max(v)
                .beacon_period(SimDuration::from_secs(100))
                .build()
        })
        .collect();
        let results = run_parallel(scenarios);
        let series = results
            .iter()
            .zip(["odometry only", "RF localization only", "CoCoA"])
            .map(|(m, label)| Series::from_metrics(label, m))
            .collect();
        by_speed.push((v, series));
    }
    Fig7Comparison { by_speed }
}

impl Fig7Comparison {
    /// Renders the figure's series as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (v, series) in &self.by_speed {
            out.push_str(&render_series_table(
                &format!("Fig. 7 — error over time at v_max = {v} m/s (T = 100 s)"),
                series,
                10,
            ));
        }
        out
    }

    /// The headline comparison the paper quotes (CoCoA ≈ 6.5 m vs RF-only
    /// ≈ 33 m at 2 m/s): returns `(cocoa_mean, rf_only_mean)`.
    pub fn headline(&self) -> Option<(f64, f64)> {
        let (_, series) = self.by_speed.iter().find(|(v, _)| *v == 2.0)?;
        let rf = series.iter().find(|s| s.label.starts_with("RF"))?;
        let cocoa = series.iter().find(|s| s.label == "CoCoA")?;
        Some((cocoa.mean(), rf.mean()))
    }
}

// ---------------------------------------------------------------------------
// Fig. 8 — error CDFs at three time instants
// ---------------------------------------------------------------------------

/// Output of the Fig. 8 regeneration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Cdf {
    /// The run's metrics; `metrics.snapshots` holds the three CDFs: end of
    /// beacon period, end of transmit period, middle of beacon period.
    pub metrics: RunMetrics,
}

/// Regenerates paper Fig. 8: CDFs of the localization error at the end of
/// a beacon period, right after a transmit period (the paper's 804 s
/// instant), and in the middle of a beacon period, for T = 100 s.
pub fn fig8_cdf(scale: ExperimentScale) -> Fig8Cdf {
    // Land just before the window nearest 45% of the run (the paper's
    // 799/804/854 s instants for its 1800 s run with T = 100 s).
    let base = ((scale.duration.as_secs_f64() * 0.45 / 100.0).floor() * 100.0 - 1.0).max(99.0);
    let s = scale
        .base_builder()
        .mode(EstimatorMode::Cocoa)
        .beacon_period(SimDuration::from_secs(100))
        .snapshots([
            SimTime::from_secs_f64(base),
            SimTime::from_secs_f64(base + 5.0),
            SimTime::from_secs_f64(base + 55.0),
        ])
        .build();
    Fig8Cdf { metrics: run(&s) }
}

impl Fig8Cdf {
    /// Renders the CDF summary (fractions below 5/10/20 m per instant).
    pub fn render(&self) -> String {
        let labels = [
            "end of beacon period   ",
            "end of transmit period ",
            "middle of beacon period",
        ];
        let mut out = String::from("# Fig. 8 — CDF of localization error (T = 100 s)\n");
        for (snap, label) in self.metrics.snapshots.iter().zip(labels) {
            if snap.errors_m.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "{label} (t = {:.0} s): P[e<=5m] = {:.2}, P[e<=10m] = {:.2}, P[e<=20m] = {:.2}, median = {:.1} m\n",
                snap.time.as_secs_f64(),
                snap.fraction_below(5.0),
                snap.fraction_below(10.0),
                snap.fraction_below(20.0),
                snap.percentile(0.5),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Fig. 9 — impact of the beacon period on error and energy
// ---------------------------------------------------------------------------

/// One row of the Fig. 9 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodPoint {
    /// Beacon period `T`, seconds.
    pub period_s: u64,
    /// Mean localization error over time, metres.
    pub mean_error_m: f64,
    /// Mean error excluding the cold start before the first possible fix
    /// of the largest swept period, metres (comparable across periods).
    pub steady_error_m: f64,
    /// Team energy with sleep coordination, joules.
    pub energy_coordinated_j: f64,
    /// Team energy without coordination (radios idle), joules.
    pub energy_uncoordinated_j: f64,
    /// The error series (Fig. 9(a)'s curves).
    pub series: Series,
}

impl PeriodPoint {
    /// How many times more energy the uncoordinated system burns.
    pub fn savings_factor(&self) -> f64 {
        if self.energy_coordinated_j == 0.0 {
            0.0
        } else {
            self.energy_uncoordinated_j / self.energy_coordinated_j
        }
    }
}

/// Output of the Fig. 9 regeneration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Period {
    /// One entry per beacon period.
    pub points: Vec<PeriodPoint>,
}

/// Builds the Fig. 9 scenario family: `periods × {coordinated, not}`.
/// Every point shares the scale's seed and the default channel, so one
/// [`Calibration`](crate::runner::Calibration) fits them all.
///
/// Public so the perf harness can time the exact same family on cold
/// runs and on one shared calibration.
pub fn fig9_scenarios(scale: ExperimentScale, periods_s: &[u64]) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for &t in periods_s {
        for coordination in [true, false] {
            scenarios.push(
                scale
                    .base_builder()
                    .mode(EstimatorMode::Cocoa)
                    .beacon_period(SimDuration::from_secs(t))
                    .coordination(coordination)
                    .build(),
            );
        }
    }
    scenarios
}

/// Regenerates paper Fig. 9: localization error (a) and team energy with
/// vs without sleep coordination (b) across beacon periods (paper:
/// 10/50/100/300 s).
pub fn fig9_period(scale: ExperimentScale, periods_s: &[u64]) -> Fig9Period {
    let results = run_parallel(fig9_scenarios(scale, periods_s));
    let warmup_s = periods_s.iter().copied().max().unwrap_or(0) as f64 + 10.0;
    let points = periods_s
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let with = &results[i * 2];
            let without = &results[i * 2 + 1];
            PeriodPoint {
                period_s: t,
                mean_error_m: with.mean_error_over_time(),
                steady_error_m: with.mean_error_after(warmup_s),
                energy_coordinated_j: with.energy.total_j(),
                energy_uncoordinated_j: without.energy.total_j(),
                series: Series::from_metrics(format!("T = {t} s"), with),
            }
        })
        .collect();
    Fig9Period { points }
}

impl Fig9Period {
    /// Renders both panels as text tables.
    pub fn render(&self) -> String {
        let mut out = String::from("# Fig. 9 — impact of beacon period T (50% equipped)\n");
        out.push_str("(a) T[s]  mean error [m]  steady-state [m]\n");
        for p in &self.points {
            out.push_str(&format!(
                "    {:>4}  {:>8.2}  {:>8.2}\n",
                p.period_s, p.mean_error_m, p.steady_error_m
            ));
        }
        out.push_str("(b) T[s]  coordinated [J]  uncoordinated [J]  savings\n");
        for p in &self.points {
            out.push_str(&format!(
                "    {:>4}  {:>12.1}  {:>12.1}  {:.1}x\n",
                p.period_s,
                p.energy_coordinated_j,
                p.energy_uncoordinated_j,
                p.savings_factor()
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Fig. 10 — impact of the number of equipped robots
// ---------------------------------------------------------------------------

/// One row of the Fig. 10 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquippedPoint {
    /// Robots carrying localization devices.
    pub equipped: usize,
    /// Mean localization error over time, metres.
    pub mean_error_m: f64,
    /// Mean error after the cold start (first two periods), metres.
    pub steady_error_m: f64,
    /// Maximum of the per-second mean error, metres.
    pub max_error_m: f64,
}

/// Output of the Fig. 10 regeneration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Equipped {
    /// One entry per equipped-count.
    pub points: Vec<EquippedPoint>,
}

/// Regenerates paper Fig. 10: localization error as the number of robots
/// with localization devices varies (paper: 5 to 35).
pub fn fig10_equipped(scale: ExperimentScale, equipped: &[usize]) -> Fig10Equipped {
    let scenarios: Vec<Scenario> = equipped
        .iter()
        .map(|&n| {
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .equipped(n)
                .beacon_period(SimDuration::from_secs(100))
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    Fig10Equipped {
        points: equipped
            .iter()
            .zip(&results)
            .map(|(&n, m)| EquippedPoint {
                equipped: n,
                mean_error_m: m.mean_error_over_time(),
                steady_error_m: m.mean_error_after(210.0),
                max_error_m: m.max_error_over_time(),
            })
            .collect(),
    }
}

impl Fig10Equipped {
    /// Renders the sweep as a text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Fig. 10 — impact of number of robots with localization devices\n\
             equipped  mean error [m]  steady-state [m]  max error [m]\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "    {:>4}  {:>10.2}  {:>10.2}  {:>10.2}\n",
                p.equipped, p.mean_error_m, p.steady_error_m, p.max_error_m
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md) — relay beaconing, grid resolution, sync, tx power
// ---------------------------------------------------------------------------

/// A labelled `(configuration, mean error, energy, fixes)` ablation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// What was varied.
    pub label: String,
    /// Mean localization error over time, metres.
    pub mean_error_m: f64,
    /// Team energy, joules.
    pub energy_j: f64,
    /// Fresh fixes obtained.
    pub fixes: u64,
}

fn ablation_row(label: impl Into<String>, m: &RunMetrics) -> AblationRow {
    AblationRow {
        label: label.into(),
        mean_error_m: m.mean_error_over_time(),
        energy_j: m.energy.total_j(),
        fixes: m.traffic.fixes,
    }
}

/// Relay-beaconing ablation (paper Section 6 future work): localized
/// unequipped robots also beacon, in a team with few equipped robots.
pub fn ablation_relay_beaconing(scale: ExperimentScale) -> Vec<AblationRow> {
    // Sparse enough that many robots miss beacons without relaying.
    let equipped = (scale.num_robots / 10).max(1);
    let scenarios: Vec<Scenario> = [false, true]
        .into_iter()
        .map(|relay| {
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .equipped(equipped)
                .relay_beaconing(relay)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    results
        .iter()
        .zip(["relay off", "relay on"])
        .map(|(m, label)| ablation_row(format!("{label} ({equipped} equipped)"), m))
        .collect()
}

/// Grid-resolution ablation: accuracy of the Bayesian posterior at
/// 1/2/4/8 m cells (DESIGN.md decision 2).
pub fn ablation_grid_resolution(scale: ExperimentScale) -> Vec<AblationRow> {
    let scenarios: Vec<Scenario> = [1.0, 2.0, 4.0, 8.0]
        .into_iter()
        .map(|res| {
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .grid_resolution(res)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    results
        .iter()
        .zip(["1 m grid", "2 m grid", "4 m grid", "8 m grid"])
        .map(|(m, label)| ablation_row(label, m))
        .collect()
}

/// Synchronization ablation: CoCoA with the MRMM SYNC service disabled,
/// at realistic and exaggerated clock skews.
pub fn ablation_sync(scale: ExperimentScale) -> Vec<AblationRow> {
    let scenarios: Vec<Scenario> = [(true, 100.0), (false, 100.0), (false, 2000.0)]
        .into_iter()
        .map(|(sync, ppm)| {
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .sync_enabled(sync)
                .clock_skew_ppm(ppm)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    results
        .iter()
        .zip([
            "sync on, 100 ppm clocks",
            "sync off, 100 ppm clocks",
            "sync off, 2000 ppm clocks",
        ])
        .map(|(m, label)| ablation_row(label, m))
        .collect()
}

/// RF-algorithm ablation (paper Section 5): the Bayesian algorithm vs the
/// classic weighted-least-squares multilateration baseline, on identical
/// beacons.
pub fn ablation_rf_algorithm(scale: ExperimentScale) -> Vec<AblationRow> {
    use cocoa_localization::estimator::RfAlgorithm;
    let scenarios: Vec<Scenario> = [RfAlgorithm::Bayes, RfAlgorithm::Multilateration]
        .into_iter()
        .map(|algo| {
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .rf_algorithm(algo)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    results
        .iter()
        .zip([
            "bayesian inference (paper)",
            "wls multilateration (baseline)",
        ])
        .map(|(m, label)| ablation_row(label, m))
        .collect()
}

/// Transmission-power ablation (paper Section 6): sweep the beacon tx
/// power and observe the range-vs-sharpness trade-off.
pub fn ablation_tx_power(scale: ExperimentScale) -> Vec<AblationRow> {
    let scenarios: Vec<Scenario> = [5.0, 10.0, 15.0, 20.0]
        .into_iter()
        .map(|dbm| {
            let ch = cocoa_net::channel::ChannelParams {
                tx_power_dbm: dbm,
                ..Default::default()
            };
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .channel(ch)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    results
        .iter()
        .zip(["5 dBm", "10 dBm", "15 dBm", "20 dBm"])
        .map(|(m, label)| ablation_row(format!("tx power {label}"), m))
        .collect()
}

/// Packet-loss robustness ablation: how CoCoA degrades when receptions
/// are lost to unmodelled effects (k = 3 beacons exist exactly to absorb
/// this, paper Section 2.3).
pub fn ablation_packet_loss(scale: ExperimentScale) -> Vec<AblationRow> {
    let scenarios: Vec<Scenario> = [0.0, 0.1, 0.3, 0.6]
        .into_iter()
        .map(|p| {
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .packet_loss(p)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    results
        .iter()
        .zip(["0% loss", "10% loss", "30% loss", "60% loss"])
        .map(|(m, label)| ablation_row(label, m))
        .collect()
}

/// Fault-injection ablation (chaos harness): CoCoA under each canned
/// fault schedule — none, Sync-robot crash, 30% bursty loss, corrupted
/// beacons, and everything at once. The graceful-degradation machinery
/// (entropy watchdog, outlier gate, Sync failover) should keep the error
/// bounded in every row.
pub fn ablation_faults(scale: ExperimentScale) -> Vec<AblationRow> {
    use cocoa_sim::faults::{FaultPlan, PRESET_NAMES};
    let scenarios: Vec<Scenario> = PRESET_NAMES
        .iter()
        .map(|name| {
            let plan = FaultPlan::preset(name, scale.duration, scale.num_robots)
                .expect("preset names are exhaustive");
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .faults(plan)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    results
        .iter()
        .zip(PRESET_NAMES)
        .map(|(m, name)| {
            let mut row = ablation_row(format!("faults: {name}"), m);
            // Dead robots are excluded from the error series; surface the
            // failover count in the label so the table tells the story.
            if m.robustness.failovers > 0 {
                row.label
                    .push_str(&format!(" ({} failovers)", m.robustness.failovers));
            }
            row
        })
        .collect()
}

/// Propagation-model ablation: the calibrated log-distance channel vs a
/// two-ray ground-reflection channel (the classic Glomosim outdoor model).
/// The calibration pipeline adapts automatically — the table is learned
/// from whichever channel is deployed.
pub fn ablation_propagation(scale: ExperimentScale) -> Vec<AblationRow> {
    use cocoa_net::channel::{ChannelParams, PathLossModel};
    let models = [
        (
            "log-distance n=3.0",
            PathLossModel::LogDistance { exponent: 3.0 },
        ),
        (
            "log-distance n=2.4",
            PathLossModel::LogDistance { exponent: 2.4 },
        ),
        (
            "two-ray ground h=0.5m",
            PathLossModel::TwoRayGround {
                antenna_height_m: 0.5,
                wavelength_m: 0.125,
            },
        ),
    ];
    let scenarios: Vec<Scenario> = models
        .iter()
        .map(|(_, model)| {
            let ch = ChannelParams {
                path_loss: *model,
                ..Default::default()
            };
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .channel(ch)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    results
        .iter()
        .zip(models)
        .map(|(m, (label, _))| ablation_row(label, m))
        .collect()
}

// ---------------------------------------------------------------------------
// Ablation — multicast backends (flood vs ODMRP vs MRMM)
// ---------------------------------------------------------------------------

/// One row of the multicast-backend ablation: SYNC dissemination quality
/// and cost under one [`cocoa_multicast::protocol::MulticastProtocol`],
/// plus how well geographic
/// routing works over the coordinates that backend's run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticastRow {
    /// The SYNC transport that ran.
    pub backend: cocoa_multicast::protocol::MulticastProtocol,
    /// Fraction of robot-windows that heard a SYNC.
    pub sync_delivery_rate: f64,
    /// Data transmissions on the air (originated + forwarded).
    pub data_transmissions: u64,
    /// Control transmissions on the air (queries + rebroadcasts + replies).
    pub control_transmissions: u64,
    /// JOIN QUERY rebroadcasts pruned (MRMM's redundancy suppression).
    pub prunes: u64,
    /// Mean localization error over time, metres.
    pub mean_error_m: f64,
    /// Team energy, joules.
    pub energy_j: f64,
    /// Greedy/face geographic-routing delivery rate over the believed
    /// coordinates at the end of the run (Section 6 extension).
    pub geo_delivery_rate: f64,
}

impl MulticastRow {
    /// Everything the backend put on the air: data plus mesh control.
    /// Every robot is a SYNC member, so member-driven data forwarding is
    /// near-identical across backends — where MRMM earns its keep is the
    /// control plane (fewer rebroadcasts and replies on longer-lived
    /// routes), which this total exposes.
    pub fn total_transmissions(&self) -> u64 {
        self.data_transmissions + self.control_transmissions
    }
}

/// Multicast-backend ablation: disseminate SYNC over blind flooding,
/// classic ODMRP and the paper's MRMM, on otherwise identical scenarios,
/// and compare delivery, traffic, energy and localization. Every backend
/// sees the same seed, so the placement, motion and channel draws match.
pub fn ablation_multicast(scale: ExperimentScale) -> Vec<MulticastRow> {
    use cocoa_georouting::prelude::*;
    use cocoa_multicast::protocol::MulticastProtocol;
    use rand::Rng;

    let scenarios: Vec<Scenario> = MulticastProtocol::ALL
        .into_iter()
        .map(|p| {
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .multicast(p)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    MulticastProtocol::ALL
        .into_iter()
        .zip(&results)
        .map(|(backend, m)| {
            let tr = &m.traffic;
            let windows = tr.syncs_delivered + tr.syncs_missed;
            // Route over the team's believed coordinates at the end of the
            // run: a mesh that starves localization of SYNC (sleep windows
            // drift apart) degrades the coordinates every other service
            // consumes.
            let nodes: Vec<RoutingNode> = m
                .final_states
                .iter()
                .map(|r| RoutingNode {
                    true_position: r.true_position,
                    believed_position: r.estimate,
                })
                .collect();
            let graph = UnitDiskGraph::new(nodes, 50.0);
            let mut rng = SeedSplitter::new(scale.seed).stream("pairs", 0);
            let n = graph.len();
            let pairs: Vec<(usize, usize)> = (0..200)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let geo = delivery_experiment(&graph, &pairs);
            MulticastRow {
                backend,
                sync_delivery_rate: if windows == 0 {
                    0.0
                } else {
                    tr.syncs_delivered as f64 / windows as f64
                },
                data_transmissions: m.mesh.data_originated + m.mesh.data_forwarded,
                control_transmissions: m.mesh.control_overhead(),
                prunes: m.mesh.queries_suppressed,
                mean_error_m: m.mean_error_over_time(),
                energy_j: m.energy.total_j(),
                geo_delivery_rate: geo.delivery_rate(),
            }
        })
        .collect()
}

/// Renders the multicast ablation as a text table.
pub fn render_multicast_ablation(rows: &[MulticastRow]) -> String {
    let mut out = String::from(
        "# Ablation — SYNC multicast backend (flood vs ODMRP vs MRMM)\n\
         backend  sync del.  data tx  ctrl tx  pruned  error [m]  energy [J]  geo del.\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<7}  {:>8.1}%  {:>7}  {:>7}  {:>6}  {:>9.2}  {:>10.1}  {:>7.1}%\n",
            r.backend.as_str(),
            r.sync_delivery_rate * 100.0,
            r.data_transmissions,
            r.control_transmissions,
            r.prunes,
            r.mean_error_m,
            r.energy_j,
            r.geo_delivery_rate * 100.0,
        ));
    }
    let find =
        |p: cocoa_multicast::protocol::MulticastProtocol| rows.iter().find(|r| r.backend == p);
    if let (Some(odmrp), Some(mrmm)) = (
        find(cocoa_multicast::protocol::MulticastProtocol::Odmrp),
        find(cocoa_multicast::protocol::MulticastProtocol::Mrmm),
    ) {
        out.push_str(&format!(
            "headline: MRMM forwards {} mesh transmissions vs ODMRP's {} \
             at {:.1}% vs {:.1}% SYNC delivery\n",
            mrmm.total_transmissions(),
            odmrp.total_transmissions(),
            mrmm.sync_delivery_rate * 100.0,
            odmrp.sync_delivery_rate * 100.0,
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Ablation — estimator backends (Bayes vs multilateration vs EKF)
// ---------------------------------------------------------------------------

/// One row of the estimator-backend ablation: localization quality and
/// cost under one [`cocoa_localization::estimator::RfAlgorithm`], on
/// beacons drawn from the identical seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorRow {
    /// The per-window RF solver that ran.
    pub algorithm: cocoa_localization::estimator::RfAlgorithm,
    /// The injected fault preset (`"none"` for the clean rows).
    pub faults: String,
    /// Mean localization error over time, metres.
    pub mean_error_m: f64,
    /// Team energy, joules.
    pub energy_j: f64,
    /// Beacons put on the air (the estimator's input traffic).
    pub beacons_sent: u64,
    /// Position fixes produced over the run.
    pub fixes: u64,
    /// Beacons the shared claimed-distance outlier gate refused to fuse
    /// (for the EKF this includes innovation-gated updates).
    pub outliers_rejected: u64,
}

/// Estimator-backend ablation (paper Section 5: CoCoA "is not tied to a
/// specific localization technique"): run the Bayesian grid, WLS
/// multilateration and the EKF on identical seeds — same placement,
/// motion, channel draws and beacon traffic — and compare error, energy
/// and traffic. A final row reruns the EKF under the `chaos` fault
/// preset, so the innovation gate's behaviour under corrupted beacons is
/// part of the figure.
pub fn ablation_estimator(scale: ExperimentScale) -> Vec<EstimatorRow> {
    use cocoa_localization::estimator::RfAlgorithm;
    use cocoa_sim::faults::FaultPlan;
    let configs: Vec<(RfAlgorithm, &str)> = vec![
        (RfAlgorithm::Bayes, "none"),
        (RfAlgorithm::Multilateration, "none"),
        (RfAlgorithm::Ekf, "none"),
        (RfAlgorithm::Ekf, "chaos"),
    ];
    let scenarios: Vec<Scenario> = configs
        .iter()
        .map(|&(algo, preset)| {
            let plan = FaultPlan::preset(preset, scale.duration, scale.num_robots)
                .expect("preset names are canned");
            scale
                .base_builder()
                .mode(EstimatorMode::Cocoa)
                .rf_algorithm(algo)
                .faults(plan)
                .build()
        })
        .collect();
    let results = run_parallel(scenarios);
    configs
        .into_iter()
        .zip(&results)
        .map(|((algorithm, preset), m)| EstimatorRow {
            algorithm,
            faults: preset.to_string(),
            mean_error_m: m.mean_error_over_time(),
            energy_j: m.energy.total_j(),
            beacons_sent: m.traffic.beacons_sent,
            fixes: m.traffic.fixes,
            outliers_rejected: m.robustness.outlier_beacons_rejected,
        })
        .collect()
}

/// Renders the estimator ablation as a text table.
pub fn render_estimator_ablation(rows: &[EstimatorRow]) -> String {
    let mut out = String::from(
        "# Ablation — estimator backend (Bayes vs multilateration vs EKF)\n\
         backend          faults  error [m]  energy [J]  beacons  fixes  outliers\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15}  {:>6}  {:>9.2}  {:>10.1}  {:>7}  {:>5}  {:>8}\n",
            r.algorithm.to_string(),
            r.faults,
            r.mean_error_m,
            r.energy_j,
            r.beacons_sent,
            r.fixes,
            r.outliers_rejected,
        ));
    }
    use cocoa_localization::estimator::RfAlgorithm;
    let find = |algo: RfAlgorithm, faults: &str| {
        rows.iter()
            .find(|r| r.algorithm == algo && r.faults == faults)
    };
    if let (Some(bayes), Some(ekf)) = (
        find(RfAlgorithm::Bayes, "none"),
        find(RfAlgorithm::Ekf, "none"),
    ) {
        out.push_str(&format!(
            "headline: EKF tracks at {:.2} m vs Bayes {:.2} m on identical \
             beacon traffic ({} beacons)",
            ekf.mean_error_m, bayes.mean_error_m, bayes.beacons_sent,
        ));
        if let Some(chaos) = find(RfAlgorithm::Ekf, "chaos") {
            out.push_str(&format!(
                "; under chaos faults the gate rejects {} beacons and holds \
                 {:.2} m",
                chaos.outliers_rejected, chaos.mean_error_m,
            ));
        }
        out.push('\n');
    }
    out
}

/// Renders ablation rows as a text table.
pub fn render_ablation(title: &str, rows: &[AblationRow]) -> String {
    let mut out = format!(
        "# {title}\n{:<34}  {:>10}  {:>12}  {:>6}\n",
        "config", "error [m]", "energy [J]", "fixes"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<34}  {:>10.2}  {:>12.1}  {:>6}\n",
            r.label, r.mean_error_m, r.energy_j, r.fixes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            seed: 7,
            duration: SimDuration::from_secs(120),
            num_robots: 12,
        }
    }

    #[test]
    fn fig1_shapes_match_paper() {
        let f = fig1_calibration(3);
        assert!(f.near.gaussian, "-52 dBm must be Gaussian");
        assert!(!f.far.gaussian, "-86 dBm must be non-Gaussian");
        assert!(f.table_bins > 20);
        assert!(f.render().contains("Fig. 1"));
    }

    #[test]
    fn fig4_produces_two_series() {
        let f = fig4_odometry(tiny());
        assert_eq!(f.series.len(), 2);
        assert!(f.series.iter().all(|s| !s.points.is_empty()));
        assert!(f.render().contains("odometry"));
    }

    #[test]
    fn fig9_energy_savings_positive_and_growing() {
        let f = fig9_period(tiny(), &[20, 60]);
        assert_eq!(f.points.len(), 2);
        for p in &f.points {
            assert!(
                p.savings_factor() > 1.0,
                "coordination must save energy at T = {}",
                p.period_s
            );
        }
        assert!(f.points[1].savings_factor() > f.points[0].savings_factor());
        assert!(f.render().contains("Fig. 9"));
    }

    #[test]
    fn shared_calibration_sweep_matches_cold_runs() {
        // Sharing a calibration only saves wall-clock time: every sweep
        // point run on one shared table produces bit-identical RunMetrics
        // to a cold run of the same scenario.
        use crate::runner::{Calibration, SimRun};
        use cocoa_sim::telemetry::Telemetry;
        use std::sync::Arc;
        let scenarios = fig9_scenarios(tiny(), &[20, 60]);
        let calibration = Arc::new(Calibration::new(&scenarios[0]));
        for (i, s) in scenarios.iter().enumerate() {
            let (shared, _) =
                SimRun::with_calibration(s, Telemetry::off(), Arc::clone(&calibration)).finish();
            assert_eq!(
                shared,
                run(s),
                "point {i}: shared calibration diverged from cold run"
            );
        }
    }

    #[test]
    fn series_helpers() {
        let s = Series {
            label: "x".into(),
            points: (0..100).map(|i| (f64::from(i), f64::from(i))).collect(),
        };
        assert_eq!(s.mean(), 49.5);
        assert_eq!(s.max(), 99.0);
        assert_eq!(s.last(), 99.0);
        assert!(s.downsampled(10).points.len() <= 11);
        assert_eq!(s.downsampled(0).points.len(), 100);
    }

    #[test]
    fn ablation_faults_covers_every_preset() {
        let rows = ablation_faults(tiny());
        assert_eq!(rows.len(), cocoa_sim::faults::PRESET_NAMES.len());
        for r in &rows {
            assert!(
                r.mean_error_m.is_finite(),
                "{}: error must stay finite",
                r.label
            );
        }
    }

    #[test]
    fn ablation_multicast_runs_all_three_backends() {
        use cocoa_multicast::protocol::MulticastProtocol;
        // Full figure scale: MRMM's control-plane savings accrue from
        // mobility churn over the whole mission; short runs land in the
        // noise (the 200 m arena is near-single-hop at 150 m range).
        let rows = ablation_multicast(ExperimentScale {
            seed: 42,
            duration: SimDuration::from_secs(1800),
            num_robots: 50,
        });
        assert_eq!(rows.len(), MulticastProtocol::ALL.len());
        for (p, r) in MulticastProtocol::ALL.into_iter().zip(&rows) {
            assert_eq!(r.backend, p);
            assert!(
                r.sync_delivery_rate > 0.0,
                "{}: SYNC never arrived",
                p.as_str()
            );
            assert!(
                r.data_transmissions > 0,
                "{}: no data on the air",
                p.as_str()
            );
            assert!(r.mean_error_m.is_finite() && r.energy_j > 0.0);
        }
        // Flooding pays no control traffic; the mesh protocols do.
        assert_eq!(rows[0].control_transmissions, 0);
        assert!(rows[1].control_transmissions > 0);
        // The paper's claim, pinned: MRMM puts less traffic on the air than
        // plain ODMRP at equal-or-better SYNC delivery. (Every robot is a
        // SYNC member, so data forwarding matches; the saving is control.)
        let odmrp = &rows[1];
        let mrmm = &rows[2];
        assert!(
            mrmm.total_transmissions() < odmrp.total_transmissions(),
            "MRMM {} vs ODMRP {} transmissions",
            mrmm.total_transmissions(),
            odmrp.total_transmissions()
        );
        assert!(mrmm.sync_delivery_rate >= odmrp.sync_delivery_rate);
        let rendered = render_multicast_ablation(&rows);
        assert!(rendered.contains("mrmm") && rendered.contains("headline:"));
    }

    #[test]
    fn ablation_estimator_compares_backends_on_identical_traffic() {
        use cocoa_localization::estimator::RfAlgorithm;
        // Full figure scale, like the multicast ablation: the EKF's
        // odometry prediction only differentiates itself over a whole
        // mission of inter-window motion.
        let rows = ablation_estimator(ExperimentScale {
            seed: 42,
            duration: SimDuration::from_secs(1800),
            num_robots: 50,
        });
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.mean_error_m.is_finite() && r.energy_j > 0.0,
                "{} ({}): degenerate row",
                r.algorithm,
                r.faults
            );
            assert!(r.beacons_sent > 0 && r.fixes > 0);
        }
        // Same seed, same schedule: the estimator choice must not change
        // what goes on the air in the clean rows.
        assert_eq!(rows[0].beacons_sent, rows[1].beacons_sent);
        assert_eq!(rows[0].beacons_sent, rows[2].beacons_sent);
        // The paper's point, pinned: the grid solver and the EKF both
        // track; the faults row shows the shared outlier gate plus the
        // EKF's innovation gate actively rejecting corrupted beacons.
        let ekf_chaos = &rows[3];
        assert_eq!(ekf_chaos.algorithm, RfAlgorithm::Ekf);
        assert_eq!(ekf_chaos.faults, "chaos");
        assert!(
            ekf_chaos.outliers_rejected > 0,
            "chaos faults must exercise the outlier gate"
        );
        let rendered = render_estimator_ablation(&rows);
        assert!(rendered.contains("ekf") && rendered.contains("headline:"));
        assert!(rendered.contains("under chaos faults"));
    }

    #[test]
    fn ablation_render_contains_rows() {
        let rows = vec![AblationRow {
            label: "demo".into(),
            mean_error_m: 1.0,
            energy_j: 2.0,
            fixes: 3,
        }];
        let s = render_ablation("Demo", &rows);
        assert!(s.contains("demo") && s.contains("1.00"));
    }
}
