//! The paper's evaluation (Section 4) and the ablations DESIGN.md calls
//! out, as one table of figures.
//!
//! A [`Figure`] is a name (`fig1` … `geo`, the names the `figures` binary
//! accepts), its [`Row`]s — each a stable key such as
//! `fig9.t100.uncoordinated` and the [`Scenario`] it runs — and a render
//! that reads its rows' [`RunMetrics`] by key and prints the rows and
//! series the paper reports. Every row changes a setting or two of the
//! paper default at an [`ExperimentScale`], so tests and CI run a
//! downsized table while `figures` runs the paper's 50-robot, 30-minute
//! setup.
//!
//! [`run_rows`] runs each distinct scenario among the rows it is given
//! once, on one bounded sweep: the paper default alone is a row of
//! Fig. 7, Fig. 9, Fig. 10, several ablations, the multicast and
//! estimator tables and `geo`. Scenarios are compared whole, with `==`:
//! a fingerprint is a CRC-32, which two scenarios can share.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use cocoa_georouting::prelude::*;
use cocoa_localization::estimator::{EstimatorMode, RfAlgorithm};
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_net::calibration::{calibrate, CalibrationConfig};
use cocoa_net::channel::{ChannelParams, PathLossModel, RfChannel};
use cocoa_net::rssi::RssiBin;
use cocoa_sim::faults::FaultPlan;
use cocoa_sim::rng::SeedSplitter;
use cocoa_sim::stats;
use cocoa_sim::time::{SimDuration, SimTime};
use rand::Rng;

use crate::executor::map_bounded;
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
    /// A downsized scale (20 robots, 300 s) for `perf`'s smoke runs.
    pub fn quick() -> Self {
        ExperimentScale {
            seed: 42,
            duration: SimDuration::from_secs(300),
            num_robots: 20,
        }
    }

    /// The paper default at this scale: CoCoA, T = 100 s, `v_max` = 2 m/s,
    /// half the team equipped.
    fn base_builder(&self) -> ScenarioBuilder {
        let mut b = Scenario::builder();
        b.seed(self.seed)
            .duration(self.duration)
            .robots(self.num_robots)
            .equipped(self.num_robots / 2);
        b
    }
}

/// One run of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable name of the run, such as `fig9.t100.uncoordinated`.
    pub key: String,
    /// What the figure prints for the run: a curve's legend, or a table
    /// row's label.
    pub label: String,
    /// The run itself.
    pub scenario: Scenario,
}

fn row(key: impl Into<String>, label: impl Into<String>, scenario: &ScenarioBuilder) -> Row {
    Row {
        key: key.into(),
        label: label.into(),
        scenario: scenario.build(),
    }
}

/// A number as a key segment: `0.5` → `0_5`, `2.0` → `2`.
fn key_num(x: f64) -> String {
    x.to_string().replace('.', "_")
}

/// How a figure prints its rows' metrics.
type Render = dyn Fn(&[Row], &Runs) -> String;

/// A figure of the evaluation: its runs and how it prints them.
pub struct Figure {
    /// The name `figures` selects it by.
    pub name: &'static str,
    /// Its runs, in print order.
    pub rows: Vec<Row>,
    render: Box<Render>,
}

impl Figure {
    fn new(
        name: &'static str,
        rows: Vec<Row>,
        render: impl Fn(&[Row], &Runs) -> String + 'static,
    ) -> Self {
        Figure {
            name,
            rows,
            render: Box::new(render),
        }
    }

    /// The text `figures` prints for this figure, its trailing blank line
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if `runs` lacks one of the figure's rows.
    pub fn render(&self, runs: &Runs) -> String {
        (self.render)(&self.rows, runs)
    }
}

/// The metrics of a set of rows, read by row key.
pub struct Runs {
    /// Row key → index into `metrics`.
    index: HashMap<String, usize>,
    metrics: Vec<RunMetrics>,
}

impl Runs {
    /// The metrics of the row `key`.
    ///
    /// # Panics
    ///
    /// Panics if no row run had that key.
    pub fn get(&self, key: &str) -> &RunMetrics {
        let i = self
            .index
            .get(key)
            .unwrap_or_else(|| panic!("no row {key}"));
        &self.metrics[*i]
    }

    /// How many distinct scenarios ran.
    pub fn distinct(&self) -> usize {
        self.metrics.len()
    }
}

/// Runs `rows`, each distinct scenario once, in one [`map_bounded`] call.
///
/// # Panics
///
/// Panics if two rows share a key but not a scenario, or if a run panics.
pub fn run_rows<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Runs {
    let mut index = HashMap::new();
    let mut distinct: Vec<&Scenario> = Vec::new();
    for row in rows {
        let i = match distinct.iter().position(|s| **s == row.scenario) {
            Some(i) => i,
            None => {
                distinct.push(&row.scenario);
                distinct.len() - 1
            }
        };
        let previous = index.insert(row.key.clone(), i);
        assert!(
            previous.is_none_or(|p| p == i),
            "row {} names two scenarios",
            row.key
        );
    }
    Runs {
        index,
        metrics: map_bounded(distinct, |s| run(s)),
    }
}

/// The beacon periods of Figs. 6 and 9, seconds.
const PAPER_PERIODS_S: [u64; 4] = [10, 50, 100, 300];

/// Every figure `figures` prints, in print order, at `scale`.
pub fn figures(scale: ExperimentScale) -> Vec<Figure> {
    // Fig. 10's 5 to 35 equipped of 50 robots, scaled to the team.
    let equipped = [5, 15, 25, 35].map(|n| (n * scale.num_robots / 50).max(2));
    vec![
        fig1(scale.seed),
        fig4(scale),
        fig6(scale, &PAPER_PERIODS_S),
        fig7(scale),
        fig8(scale),
        fig9(scale, &PAPER_PERIODS_S),
        fig10(scale, &equipped),
        ablations(scale),
        multicast(scale),
        estimator(scale),
        geo(scale),
    ]
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

/// One error-over-time curve per row, each printed as a summary line and
/// about `n_points` samples.
fn render_series_table(title: &str, rows: &[Row], runs: &Runs, n_points: usize) -> String {
    let mut out = format!("# {title}\n");
    for r in rows {
        let s = Series::from_metrics(r.label.as_str(), runs.get(&r.key));
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

/// Paper Fig. 1 as a figure of the table. It runs no scenario.
pub fn fig1(seed: u64) -> Figure {
    Figure::new("fig1", Vec::new(), move |_, _| {
        format!("{}\n", fig1_calibration(seed).render())
    })
}

// ---------------------------------------------------------------------------
// Figs. 4–10
// ---------------------------------------------------------------------------

/// Paper Fig. 4: error over time on odometry alone, at `v_max` 0.5 and
/// 2 m/s.
pub fn fig4(scale: ExperimentScale) -> Figure {
    let rows = [0.5, 2.0]
        .into_iter()
        .map(|v| {
            row(
                format!("fig4.v{}", key_num(v)),
                format!("v_max = {v:.1} m/s"),
                scale
                    .base_builder()
                    .mode(EstimatorMode::OdometryOnly)
                    .v_max(v),
            )
        })
        .collect();
    Figure::new("fig4", rows, |rows, runs| {
        render_series_table(
            "Fig. 4 — localization error over time, odometry only",
            rows,
            runs,
            12,
        ) + "\n"
    })
}

/// Paper Fig. 6: RF-only error over time for each beacon period (the
/// paper's are 10, 50, 100 and 300 s).
pub fn fig6(scale: ExperimentScale, periods_s: &[u64]) -> Figure {
    let rows = periods_s
        .iter()
        .map(|&t| {
            row(
                format!("fig6.t{t}"),
                format!("T = {t} s"),
                scale
                    .base_builder()
                    .mode(EstimatorMode::RfOnly)
                    .beacon_period(SimDuration::from_secs(t)),
            )
        })
        .collect();
    Figure::new("fig6", rows, |rows, runs| {
        render_series_table(
            "Fig. 6 — localization error over time, RF localization only",
            rows,
            runs,
            12,
        ) + "\n"
    })
}

/// Paper Fig. 7: odometry only, RF only and CoCoA at T = 100 s for both
/// speeds, then the comparison the paper quotes at 2 m/s (CoCoA ≈ 6.5 m
/// against ≈ 33 m for RF only).
pub fn fig7(scale: ExperimentScale) -> Figure {
    let modes = [
        (EstimatorMode::OdometryOnly, "odometry only"),
        (EstimatorMode::RfOnly, "RF localization only"),
        (EstimatorMode::Cocoa, "CoCoA"),
    ];
    let rows = [0.5, 2.0]
        .into_iter()
        .flat_map(|v| {
            modes.map(|(mode, label)| {
                row(
                    format!("fig7.v{}.{}", key_num(v), mode.as_str()),
                    label,
                    scale.base_builder().mode(mode).v_max(v),
                )
            })
        })
        .collect();
    Figure::new("fig7", rows, move |rows, runs| {
        let mut out = String::new();
        for speed in rows.chunks(modes.len()) {
            let v = speed[0].scenario.v_max;
            out += &render_series_table(
                &format!("Fig. 7 — error over time at v_max = {v} m/s (T = 100 s)"),
                speed,
                runs,
                10,
            );
        }
        let mean = |key: &str| runs.get(key).mean_error_over_time();
        out + &format!(
            "\nheadline @ 2 m/s: CoCoA {:.1} m vs RF-only {:.1} m (paper: 6.5 vs ~33)\n\n",
            mean("fig7.v2.cocoa"),
            mean("fig7.v2.rf-only"),
        )
    })
}

/// Paper Fig. 8: CDFs of the error at T = 100 s at the end of a beacon
/// period, right after a transmit period and in the middle of a beacon
/// period (the paper's 799, 804 and 854 s of its 1800 s run).
pub fn fig8(scale: ExperimentScale) -> Figure {
    // Land just before the window nearest 45% of the run.
    let base = ((scale.duration.as_secs_f64() * 0.45 / 100.0).floor() * 100.0 - 1.0).max(99.0);
    let instants = [base, base + 5.0, base + 55.0].map(SimTime::from_secs_f64);
    let rows = vec![row(
        "fig8",
        "CoCoA",
        scale.base_builder().snapshots(instants),
    )];
    Figure::new("fig8", rows, |rows, runs| {
        let labels = [
            "end of beacon period   ",
            "end of transmit period ",
            "middle of beacon period",
        ];
        let mut out = String::from("# Fig. 8 — CDF of localization error (T = 100 s)\n");
        for (snap, label) in runs.get(&rows[0].key).snapshots.iter().zip(labels) {
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
        out + "\n"
    })
}

/// Paper Fig. 9: error (a) and team energy with and without sleep
/// coordination (b) for each beacon period (the paper's are 10, 50, 100
/// and 300 s). The steady-state error starts after the largest period
/// + 10 s, so that every period has had its first fix.
pub fn fig9(scale: ExperimentScale, periods_s: &[u64]) -> Figure {
    let rows = periods_s
        .iter()
        .flat_map(|&t| {
            [(true, "coordinated"), (false, "uncoordinated")].map(|(on, name)| {
                row(
                    format!("fig9.t{t}.{name}"),
                    format!("T = {t} s"),
                    scale
                        .base_builder()
                        .beacon_period(SimDuration::from_secs(t))
                        .coordination(on),
                )
            })
        })
        .collect();
    let periods_s = periods_s.to_vec();
    let warmup_s = periods_s.iter().copied().max().unwrap_or(0) as f64 + 10.0;
    Figure::new("fig9", rows, move |rows, runs| {
        let mut error = String::from(
            "# Fig. 9 — impact of beacon period T (50% equipped)\n\
             (a) T[s]  mean error [m]  steady-state [m]\n",
        );
        let mut energy = String::from("(b) T[s]  coordinated [J]  uncoordinated [J]  savings\n");
        for (t, pair) in periods_s.iter().zip(rows.chunks(2)) {
            let with = runs.get(&pair[0].key);
            let (on_j, off_j) = (
                with.energy.total_j(),
                runs.get(&pair[1].key).energy.total_j(),
            );
            let savings = if on_j == 0.0 { 0.0 } else { off_j / on_j };
            error += &format!(
                "    {t:>4}  {:>8.2}  {:>8.2}\n",
                with.mean_error_over_time(),
                with.mean_error_after(warmup_s)
            );
            energy += &format!("    {t:>4}  {on_j:>12.1}  {off_j:>12.1}  {savings:.1}x\n");
        }
        error + &energy + "\n"
    })
}

/// Paper Fig. 10: error for each count of equipped robots (the paper's
/// are 5, 15, 25 and 35 of 50). The steady state starts after two
/// periods.
pub fn fig10(scale: ExperimentScale, equipped: &[usize]) -> Figure {
    let rows = equipped
        .iter()
        .map(|&n| {
            row(
                format!("fig10.e{n}"),
                n.to_string(),
                scale.base_builder().equipped(n),
            )
        })
        .collect();
    Figure::new("fig10", rows, |rows, runs| {
        let mut out = String::from(
            "# Fig. 10 — impact of number of robots with localization devices\n\
             equipped  mean error [m]  steady-state [m]  max error [m]\n",
        );
        for r in rows {
            let m = runs.get(&r.key);
            out.push_str(&format!(
                "    {:>4}  {:>10.2}  {:>10.2}  {:>10.2}\n",
                r.scenario.num_equipped,
                m.mean_error_over_time(),
                m.mean_error_after(210.0),
                m.max_error_over_time()
            ));
        }
        out + "\n"
    })
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md) and extensions
// ---------------------------------------------------------------------------

/// The ablations, one table each: relay beaconing (paper Section 6), grid
/// resolution (DESIGN.md decision 2), the SYNC service, beacon tx power
/// (Section 6), the RF algorithm against Section 5's WLS baseline, the
/// propagation model (the calibration learns whichever channel is
/// deployed) and packet loss (k = 3 beacons exist to absorb it, Section
/// 2.3).
pub fn ablations(scale: ExperimentScale) -> Figure {
    let b = || scale.base_builder();
    let on_off = |on: bool| if on { "on" } else { "off" };
    // Sparse enough that many robots miss beacons without relaying.
    let sparse = (scale.num_robots / 10).max(1);
    let tables: [(&str, Vec<Row>); 7] = [
        (
            "relay beaconing",
            [false, true]
                .into_iter()
                .map(|on| {
                    let s = on_off(on);
                    row(
                        format!("ablations.relay.{s}"),
                        format!("relay {s} ({sparse} equipped)"),
                        b().equipped(sparse).relay_beaconing(on),
                    )
                })
                .collect(),
        ),
        (
            "grid resolution",
            [1.0, 2.0, 4.0, 8.0]
                .into_iter()
                .map(|m| {
                    row(
                        format!("ablations.grid.{m}m"),
                        format!("{m} m grid"),
                        b().grid_resolution(m),
                    )
                })
                .collect(),
        ),
        (
            "SYNC service",
            [(true, 100.0), (false, 100.0), (false, 2000.0)]
                .into_iter()
                .map(|(on, ppm)| {
                    let s = on_off(on);
                    row(
                        format!("ablations.sync.{s}.{ppm}ppm"),
                        format!("sync {s}, {ppm} ppm clocks"),
                        b().sync_enabled(on).clock_skew_ppm(ppm),
                    )
                })
                .collect(),
        ),
        (
            "beacon tx power",
            [5.0, 10.0, 15.0, 20.0]
                .into_iter()
                .map(|dbm| {
                    row(
                        format!("ablations.tx_power.{dbm}dbm"),
                        format!("tx power {dbm} dBm"),
                        b().channel(ChannelParams {
                            tx_power_dbm: dbm,
                            ..Default::default()
                        }),
                    )
                })
                .collect(),
        ),
        (
            "RF algorithm (Section 5 baseline)",
            [
                (RfAlgorithm::Bayes, "bayesian inference (paper)"),
                (
                    RfAlgorithm::Multilateration,
                    "wls multilateration (baseline)",
                ),
            ]
            .into_iter()
            .map(|(algo, label)| {
                row(
                    format!("ablations.rf.{algo}"),
                    label,
                    b().rf_algorithm(algo),
                )
            })
            .collect(),
        ),
        (
            "propagation model",
            [
                (
                    "n3",
                    "log-distance n=3.0",
                    PathLossModel::LogDistance { exponent: 3.0 },
                ),
                (
                    "n2_4",
                    "log-distance n=2.4",
                    PathLossModel::LogDistance { exponent: 2.4 },
                ),
                (
                    "two_ray",
                    "two-ray ground h=0.5m",
                    PathLossModel::TwoRayGround {
                        antenna_height_m: 0.5,
                        wavelength_m: 0.125,
                    },
                ),
            ]
            .into_iter()
            .map(|(key, label, path_loss)| {
                row(
                    format!("ablations.propagation.{key}"),
                    label,
                    b().channel(ChannelParams {
                        path_loss,
                        ..Default::default()
                    }),
                )
            })
            .collect(),
        ),
        (
            "packet loss robustness",
            [0u32, 10, 30, 60]
                .into_iter()
                .map(|pct| {
                    row(
                        format!("ablations.loss.{pct}pct"),
                        format!("{pct}% loss"),
                        b().packet_loss(f64::from(pct) / 100.0),
                    )
                })
                .collect(),
        ),
    ];
    let titles = tables.each_ref().map(|(title, rows)| (*title, rows.len()));
    let rows = tables.into_iter().flat_map(|(_, rows)| rows).collect();
    Figure::new("ablations", rows, move |rows, runs| {
        let mut rest = rows;
        let mut out = String::new();
        for (title, n) in titles {
            let (table, tail) = rest.split_at(n);
            rest = tail;
            out += &format!(
                "# Ablation — {title}\n{:<34}  {:>10}  {:>12}  {:>6}\n",
                "config", "error [m]", "energy [J]", "fixes"
            );
            for r in table {
                let m = runs.get(&r.key);
                out += &format!(
                    "{:<34}  {:>10.2}  {:>12.1}  {:>6}\n",
                    r.label,
                    m.mean_error_over_time(),
                    m.energy.total_j(),
                    m.traffic.fixes
                );
            }
            out.push('\n');
        }
        out
    })
}

/// Fraction of robot-windows that heard a SYNC.
fn sync_delivery_rate(m: &RunMetrics) -> f64 {
    let windows = m.traffic.syncs_delivered + m.traffic.syncs_missed;
    if windows == 0 {
        0.0
    } else {
        m.traffic.syncs_delivered as f64 / windows as f64
    }
}

/// Everything a mesh put on the air: data (originated and forwarded)
/// plus control. Every robot is a SYNC member, so data forwarding is
/// near-identical across backends; MRMM's saving is in the control plane,
/// which this total exposes.
fn mesh_transmissions(m: &RunMetrics) -> u64 {
    m.mesh.data_originated + m.mesh.data_forwarded + m.mesh.control_overhead()
}

/// Greedy/face geographic routing (paper Section 6) over the team at the
/// end of a run: a 50 m unit-disk graph of the true positions, routed on
/// the estimates (`believed`) or on the true positions, between `pairs`
/// node pairs drawn from the seed's `pairs` stream.
fn geo_delivery(m: &RunMetrics, seed: u64, pairs: usize, believed: bool) -> DeliveryStats {
    let nodes = m
        .final_states
        .iter()
        .map(|r| RoutingNode {
            true_position: r.true_position,
            believed_position: if believed {
                r.estimate
            } else {
                r.true_position
            },
        })
        .collect();
    let graph = UnitDiskGraph::new(nodes, 50.0);
    let mut rng = SeedSplitter::new(seed).stream("pairs", 0);
    let n = graph.len();
    let pairs: Vec<(usize, usize)> = (0..pairs)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    delivery_experiment(&graph, &pairs)
}

/// The SYNC multicast backends (blind flooding, classic ODMRP and the
/// paper's MRMM) on otherwise identical runs: delivery, traffic, error,
/// energy, and geographic routing over the coordinates each run ends
/// with (a mesh that starves localization of SYNC degrades the
/// coordinates every other service consumes).
pub fn multicast(scale: ExperimentScale) -> Figure {
    let rows = MulticastProtocol::ALL
        .into_iter()
        .map(|p| {
            row(
                format!("multicast.{}", p.as_str()),
                p.as_str(),
                scale.base_builder().multicast(p),
            )
        })
        .collect();
    Figure::new("multicast", rows, move |rows, runs| {
        let mut out = String::from(
            "# Ablation — SYNC multicast backend (flood vs ODMRP vs MRMM)\n\
             backend  sync del.  data tx  delivered  fwd effic.  ctrl tx  pruned  error [m]  energy [J]  geo del.\n",
        );
        for r in rows {
            let m = runs.get(&r.key);
            out.push_str(&format!(
                "{:<7}  {:>8.1}%  {:>7}  {:>9}  {:>10.2}  {:>7}  {:>6}  {:>9.2}  {:>10.1}  {:>7.1}%\n",
                r.label,
                sync_delivery_rate(m) * 100.0,
                m.mesh.data_originated + m.mesh.data_forwarded,
                m.mesh.data_delivered,
                m.mesh.forwarding_efficiency(),
                m.mesh.control_overhead(),
                m.mesh.queries_suppressed,
                m.mean_error_over_time(),
                m.energy.total_j(),
                geo_delivery(m, scale.seed, 200, true).delivery_rate() * 100.0,
            ));
        }
        let (odmrp, mrmm) = (runs.get("multicast.odmrp"), runs.get("multicast.mrmm"));
        out + &format!(
            "headline: MRMM forwards {} mesh transmissions vs ODMRP's {} \
             at {:.1}% vs {:.1}% SYNC delivery\n\n",
            mesh_transmissions(mrmm),
            mesh_transmissions(odmrp),
            sync_delivery_rate(mrmm) * 100.0,
            sync_delivery_rate(odmrp) * 100.0,
        )
    })
}

/// The per-window RF solvers (paper Section 5: CoCoA "is not tied to a
/// specific localization technique") on identical seeds — same placement,
/// motion, channel draws and beacon traffic — plus the EKF under the
/// `chaos` fault preset, whose corrupted beacons its innovation gate must
/// refuse. Each row's label is its fault preset.
pub fn estimator(scale: ExperimentScale) -> Figure {
    let rows = [
        (RfAlgorithm::Bayes, "none"),
        (RfAlgorithm::Multilateration, "none"),
        (RfAlgorithm::Ekf, "none"),
        (RfAlgorithm::Ekf, "chaos"),
    ]
    .into_iter()
    .map(|(algo, preset)| {
        let plan = FaultPlan::preset(preset, scale.duration, scale.num_robots)
            .expect("preset names are canned");
        row(
            format!("estimator.{algo}.{preset}"),
            preset,
            scale.base_builder().rf_algorithm(algo).faults(plan),
        )
    })
    .collect();
    Figure::new("estimator", rows, |rows, runs| {
        let mut out = String::from(
            "# Ablation — estimator backend (Bayes vs multilateration vs EKF)\n\
             backend          faults  error [m]  energy [J]  beacons  fixes  outliers\n",
        );
        for r in rows {
            let m = runs.get(&r.key);
            out.push_str(&format!(
                "{:<15}  {:>6}  {:>9.2}  {:>10.1}  {:>7}  {:>5}  {:>8}\n",
                r.scenario.rf_algorithm.as_str(),
                r.label,
                m.mean_error_over_time(),
                m.energy.total_j(),
                m.traffic.beacons_sent,
                m.traffic.fixes,
                m.robustness.outlier_beacons_rejected,
            ));
        }
        let bayes = runs.get("estimator.bayes.none");
        let chaos = runs.get("estimator.ekf.chaos");
        out + &format!(
            "headline: EKF tracks at {:.2} m vs Bayes {:.2} m on identical \
             beacon traffic ({} beacons); under chaos faults the gate rejects {} \
             beacons and holds {:.2} m\n\n",
            runs.get("estimator.ekf.none").mean_error_over_time(),
            bayes.mean_error_over_time(),
            bayes.traffic.beacons_sent,
            chaos.robustness.outlier_beacons_rejected,
            chaos.mean_error_over_time(),
        )
    })
}

/// Geographic routing (paper Section 6) over the true and over the CoCoA
/// coordinates at the end of a paper-default run.
pub fn geo(scale: ExperimentScale) -> Figure {
    let rows = vec![row("geo", "CoCoA", &scale.base_builder())];
    Figure::new("geo", rows, move |rows, runs| {
        let m = runs.get(&rows[0].key);
        let line = |name: &str, believed: bool| {
            let s = geo_delivery(m, scale.seed, 400, believed);
            format!(
                "{name:<13}{:>7.1}%  {:>9.2}  {:>7.2}  {:>12.1}%\n",
                s.delivery_rate() * 100.0,
                s.mean_hops,
                s.mean_stretch,
                s.face_fraction * 100.0,
            )
        };
        format!(
            "# Extension — geographic routing over CoCoA coordinates (Section 6)\n\
             coordinates  delivery  mean hops  stretch  face fraction\n{}{}\n",
            line("exact", false),
            line("CoCoA", true),
        )
    })
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
    fn every_figure_renders_the_pinned_bytes() {
        // A scale at which every row runs and prints: Fig. 8's three
        // instants and Fig. 9's largest period fall inside the run. The
        // pin was recorded through the per-figure drivers this table
        // replaced, printed as `figures` printed them.
        let table = figures(ExperimentScale {
            seed: 7,
            duration: SimDuration::from_secs(400),
            num_robots: 12,
        });
        let runs = run_rows(table.iter().flat_map(|f| &f.rows));
        let text: String = table.iter().map(|f| f.render(&runs)).collect();
        assert_eq!(
            (cocoa_sim::snapshot::crc32(text.as_bytes()), text.len()),
            (0xc185_4add, 7937),
            "{text}"
        );
        // 55 rows, 40 distinct scenarios: the paper default is 12 rows.
        // (With 30 or 50 robots the sparse relay-off row is a Fig. 10 row
        // too, and 39 run.)
        assert_eq!(table.iter().map(|f| f.rows.len()).sum::<usize>(), 55);
        assert_eq!(runs.distinct(), 40);
    }

    #[test]
    fn repeated_scenarios_run_once() {
        let fig7 = fig7(tiny());
        // Half the team equipped at T = 100 s is Fig. 7's CoCoA row at
        // 2 m/s, and every row of Fig. 7 is given twice.
        let fig10 = fig10(tiny(), &[6]);
        let runs = run_rows(fig7.rows.iter().chain(&fig10.rows).chain(&fig7.rows));
        assert_eq!(runs.distinct(), 6);
        assert!(std::ptr::eq(
            runs.get("fig10.e6"),
            runs.get("fig7.v2.cocoa")
        ));
        assert!(!std::ptr::eq(
            runs.get("fig7.v0_5.cocoa"),
            runs.get("fig7.v2.cocoa")
        ));
    }

    #[test]
    #[should_panic(expected = "names two scenarios")]
    fn a_key_names_one_scenario() {
        let a = fig10(tiny(), &[6]);
        let mut b = fig10(tiny(), &[5]);
        b.rows[0].key = a.rows[0].key.clone();
        run_rows(a.rows.iter().chain(&b.rows));
    }

    #[test]
    fn a_subset_renders_as_inside_the_whole_table() {
        let table = figures(tiny());
        let whole = run_rows(table.iter().flat_map(|f| &f.rows));
        for names in [&["fig9", "multicast"][..], &["geo"], &["fig7", "estimator"]] {
            let subset: Vec<&Figure> = table.iter().filter(|f| names.contains(&f.name)).collect();
            let runs = run_rows(subset.iter().flat_map(|f| &f.rows));
            for f in subset {
                assert_eq!(f.render(&runs), f.render(&whole), "{}", f.name);
            }
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
        let f = fig4(tiny());
        let runs = run_rows(&f.rows);
        assert_eq!(f.rows.len(), 2);
        assert!(f
            .rows
            .iter()
            .all(|r| !runs.get(&r.key).error_series.is_empty()));
        assert!(f.render(&runs).contains("odometry"));
    }

    #[test]
    fn fig9_energy_savings_positive_and_growing() {
        let f = fig9(tiny(), &[20, 60]);
        let runs = run_rows(&f.rows);
        let savings = |t: u64| {
            let energy = |c: &str| runs.get(&format!("fig9.t{t}.{c}")).energy.total_j();
            energy("uncoordinated") / energy("coordinated")
        };
        for t in [20, 60] {
            assert!(savings(t) > 1.0, "coordination must save energy at T = {t}");
        }
        assert!(savings(60) > savings(20));
        assert!(f.render(&runs).contains("Fig. 9"));
    }

    #[test]
    fn shared_calibration_sweep_matches_cold_runs() {
        // Sharing a calibration only saves wall-clock time: every sweep
        // point run on one shared table produces bit-identical RunMetrics
        // to a cold run of the same scenario.
        use crate::runner::{Calibration, SimRun};
        use cocoa_sim::telemetry::Telemetry;
        use std::sync::Arc;
        let scenarios: Vec<Scenario> = fig9(tiny(), &[20, 60])
            .rows
            .into_iter()
            .map(|r| r.scenario)
            .collect();
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
    fn ablation_multicast_runs_all_three_backends() {
        // Full figure scale: MRMM's control-plane savings accrue from
        // mobility churn over the whole mission; short runs land in the
        // noise (the 200 m arena is near-single-hop at 150 m range).
        let f = multicast(ExperimentScale::default());
        let runs = run_rows(&f.rows);
        assert_eq!(f.rows.len(), MulticastProtocol::ALL.len());
        for p in MulticastProtocol::ALL {
            let m = runs.get(&format!("multicast.{}", p.as_str()));
            assert!(
                sync_delivery_rate(m) > 0.0,
                "{}: SYNC never arrived",
                p.as_str()
            );
            assert!(
                m.mesh.data_originated + m.mesh.data_forwarded > 0,
                "{}: no data on the air",
                p.as_str()
            );
            assert!(m.mesh.data_delivered > 0 && m.mesh.forwarding_efficiency() > 0.0);
            assert!(m.mean_error_over_time().is_finite() && m.energy.total_j() > 0.0);
        }
        // Flooding pays no control traffic; the mesh protocols do.
        let odmrp = runs.get("multicast.odmrp");
        let mrmm = runs.get("multicast.mrmm");
        assert_eq!(runs.get("multicast.flood").mesh.control_overhead(), 0);
        assert!(odmrp.mesh.control_overhead() > 0);
        // The paper's claim, pinned: MRMM puts less traffic on the air than
        // plain ODMRP at equal-or-better SYNC delivery. (Every robot is a
        // SYNC member, so data forwarding matches; the saving is control.)
        assert!(
            mesh_transmissions(mrmm) < mesh_transmissions(odmrp),
            "MRMM {} vs ODMRP {} transmissions",
            mesh_transmissions(mrmm),
            mesh_transmissions(odmrp)
        );
        assert!(sync_delivery_rate(mrmm) >= sync_delivery_rate(odmrp));
        let rendered = f.render(&runs);
        assert!(rendered.contains("mrmm") && rendered.contains("headline:"));
        assert!(rendered.contains("fwd effic."));
    }

    #[test]
    fn ablation_estimator_compares_backends_on_identical_traffic() {
        // Full figure scale, like the multicast ablation: the EKF's
        // odometry prediction only differentiates itself over a whole
        // mission of inter-window motion.
        let f = estimator(ExperimentScale::default());
        let runs = run_rows(&f.rows);
        assert_eq!(f.rows.len(), 4);
        for r in &f.rows {
            let m = runs.get(&r.key);
            assert!(
                m.mean_error_over_time().is_finite() && m.energy.total_j() > 0.0,
                "{}: degenerate row",
                r.key
            );
            assert!(m.traffic.beacons_sent > 0 && m.traffic.fixes > 0);
        }
        // Same seed, same schedule: the estimator choice must not change
        // what goes on the air in the clean rows.
        let beacons = |key: &str| runs.get(key).traffic.beacons_sent;
        let bayes = beacons("estimator.bayes.none");
        assert_eq!(bayes, beacons("estimator.multilateration.none"));
        assert_eq!(bayes, beacons("estimator.ekf.none"));
        // The paper's point, pinned: the grid solver and the EKF both
        // track; the faults row shows the shared outlier gate plus the
        // EKF's innovation gate actively rejecting corrupted beacons.
        assert!(
            runs.get("estimator.ekf.chaos")
                .robustness
                .outlier_beacons_rejected
                > 0,
            "chaos faults must exercise the outlier gate"
        );
        let rendered = f.render(&runs);
        assert!(rendered.contains("ekf") && rendered.contains("headline:"));
        assert!(rendered.contains("under chaos faults"));
    }

    #[test]
    fn ablation_render_contains_rows() {
        let f = ablations(tiny());
        let runs = run_rows(&f.rows);
        let rendered = f.render(&runs);
        assert_eq!(rendered.matches("# Ablation — ").count(), 7);
        for r in &f.rows {
            assert!(rendered.contains(&r.label), "{} missing", r.label);
        }
    }
}
