//! The RF propagation model.
//!
//! The paper calibrates its simulator from outdoor measurements with Orinoco
//! WaveLAN 802.11b cards and reports (Section 2.2, Fig. 1):
//!
//! - RSSI-vs-distance is well modelled as Gaussian for RSSI ≥ −80 dBm,
//!   which for their hardware corresponds to distances up to ~40 m;
//! - beyond 40 m, multipath and fading make the distribution fluctuate and
//!   it is no longer Gaussian;
//! - typical 802.11b cards reach beyond 150 m.
//!
//! We reproduce those statistics with a log-distance path-loss model plus
//! distance-growing log-normal shadowing, and an additional asymmetric
//! multipath fade term that switches on past the Gaussian onset distance.
//! The calibration campaign in [`crate::calibration`] then *measures* this
//! channel exactly the way the authors measured their field site, so the
//! localization algorithm never sees the model parameters directly.

use cocoa_sim::dist::{Exponential, Normal};
use cocoa_sim::snapshot::{Codec, SnapshotError};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::rssi::Dbm;

/// The deterministic part of the propagation: how mean power decays with
/// distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PathLossModel {
    /// Classic log-distance: `PL(d) = PL(1m) + 10·n·log₁₀(d)`.
    LogDistance {
        /// Path-loss exponent (outdoor open field ≈ 2.7–3.5).
        exponent: f64,
    },
    /// Two-ray ground reflection: log-distance (exponent 2) up to the
    /// crossover distance `d_c = 4·h_t·h_r/λ`, then fourth-power decay —
    /// the standard Glomosim/ns-2 outdoor model for antennas near the
    /// ground.
    TwoRayGround {
        /// Transmitter/receiver antenna height, metres (robots: ~0.5 m).
        antenna_height_m: f64,
        /// Carrier wavelength, metres (2.4 GHz ⇒ 0.125 m).
        wavelength_m: f64,
    },
}

/// One placeholder per variant; the order is the snapshot tag.
const PATH_LOSS_MODELS: [PathLossModel; 2] = [
    PathLossModel::LogDistance { exponent: 0.0 },
    PathLossModel::TwoRayGround {
        antenna_height_m: 0.0,
        wavelength_m: 0.0,
    },
];

impl PathLossModel {
    /// The snapshot layout: a tag, then the variant's fields.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        c.tag(&PATH_LOSS_MODELS, self, "path-loss model")?;
        match self {
            PathLossModel::LogDistance { exponent } => c.f64(exponent),
            PathLossModel::TwoRayGround {
                antenna_height_m,
                wavelength_m,
            } => {
                c.f64(antenna_height_m)?;
                c.f64(wavelength_m)
            }
        }
    }

    /// Path loss relative to 1 m, dB, at distance `d`.
    fn excess_loss_db(&self, d: f64) -> f64 {
        match *self {
            PathLossModel::LogDistance { exponent } => 10.0 * exponent * d.log10(),
            PathLossModel::TwoRayGround {
                antenna_height_m,
                wavelength_m,
            } => {
                let crossover =
                    4.0 * std::f64::consts::PI * antenna_height_m * antenna_height_m / wavelength_m;
                if d <= crossover {
                    20.0 * d.log10()
                } else {
                    // Continuous at the crossover: 20·log₁₀(d_c) +
                    // 40·log₁₀(d/d_c).
                    20.0 * crossover.log10() + 40.0 * (d / crossover).log10()
                }
            }
        }
    }

    /// Inverse of [`PathLossModel::excess_loss_db`].
    fn distance_for_excess_loss(&self, loss_db: f64) -> f64 {
        match *self {
            PathLossModel::LogDistance { exponent } => 10f64.powf(loss_db / (10.0 * exponent)),
            PathLossModel::TwoRayGround {
                antenna_height_m,
                wavelength_m,
            } => {
                let crossover =
                    4.0 * std::f64::consts::PI * antenna_height_m * antenna_height_m / wavelength_m;
                let loss_at_crossover = 20.0 * crossover.log10();
                if loss_db <= loss_at_crossover {
                    10f64.powf(loss_db / 20.0)
                } else {
                    crossover * 10f64.powf((loss_db - loss_at_crossover) / 40.0)
                }
            }
        }
    }
}

/// Parameters of the synthetic outdoor channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelParams {
    /// Transmit power, dBm (802.11b cards: typically 15 dBm).
    pub tx_power_dbm: f64,
    /// Path loss at the 1 m reference distance, dB.
    pub path_loss_1m_db: f64,
    /// The mean-power decay law.
    pub path_loss: PathLossModel,
    /// Shadowing standard deviation at zero distance, dB.
    pub shadowing_sigma_db: f64,
    /// Growth of the shadowing σ per metre, dB/m (noise grows with range).
    pub shadowing_sigma_slope_db_per_m: f64,
    /// Distance beyond which the multipath fade term activates, metres.
    /// The paper's Gaussian regime ends at 40 m (≈ −80 dBm).
    pub multipath_onset_m: f64,
    /// Probability that a far-field sample suffers a deep fade.
    pub multipath_fade_prob: f64,
    /// Mean depth of a multipath fade, dB (exponentially distributed).
    pub multipath_fade_mean_db: f64,
    /// Receiver sensitivity: packets below this RSSI are undetectable, dBm.
    pub sensitivity_dbm: f64,
}

impl ChannelParams {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let ChannelParams {
            tx_power_dbm,
            path_loss_1m_db,
            path_loss,
            shadowing_sigma_db,
            shadowing_sigma_slope_db_per_m,
            multipath_onset_m,
            multipath_fade_prob,
            multipath_fade_mean_db,
            sensitivity_dbm,
        } = self;
        c.f64(tx_power_dbm)?;
        c.f64(path_loss_1m_db)?;
        path_loss.code(c)?;
        c.f64s([
            shadowing_sigma_db,
            shadowing_sigma_slope_db_per_m,
            multipath_onset_m,
            multipath_fade_prob,
            multipath_fade_mean_db,
            sensitivity_dbm,
        ])
    }

    /// Checks that every parameter is finite and within its physical
    /// range: positive path-loss parameters, multipath onset and fade
    /// mean; non-negative shadowing; a fade probability within `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let (a, b, what) = match self.path_loss {
            PathLossModel::LogDistance { exponent } => (exponent, 1.0, "path-loss exponent"),
            PathLossModel::TwoRayGround {
                antenna_height_m,
                wavelength_m,
            } => (
                antenna_height_m,
                wavelength_m,
                "antenna height and wavelength",
            ),
        };
        let finite = [
            self.tx_power_dbm,
            self.path_loss_1m_db,
            a,
            b,
            self.shadowing_sigma_db,
            self.shadowing_sigma_slope_db_per_m,
            self.multipath_onset_m,
            self.multipath_fade_mean_db,
            self.sensitivity_dbm,
        ];
        let checks = [
            (finite.iter().all(|v| v.is_finite()), "must be finite"),
            (a > 0.0 && b > 0.0, what),
            (self.shadowing_sigma_db >= 0.0, "shadowing sigma"),
            (
                self.shadowing_sigma_slope_db_per_m >= 0.0,
                "shadowing slope",
            ),
            (
                (0.0..=1.0).contains(&self.multipath_fade_prob),
                "fade probability",
            ),
            (self.multipath_onset_m > 0.0, "multipath onset"),
            (self.multipath_fade_mean_db > 0.0, "fade mean"),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, what)) => Err(format!("channel parameter out of range: {what}")),
            None => Ok(()),
        }
    }
}

impl Default for ChannelParams {
    /// Defaults calibrated against the paper's anchors: mean RSSI at 40 m
    /// is ≈ −80 dBm, the detection range exceeds 150 m, and the shadowing
    /// is tight enough that Bayesian fixes right after a transmit window
    /// land in the single-digit metres (the paper's Fig. 8 shows >90 % of
    /// robots below 10 m) while the far field is still visibly
    /// non-Gaussian (Fig. 1(b)).
    fn default() -> Self {
        ChannelParams {
            tx_power_dbm: 15.0,
            path_loss_1m_db: 47.0,
            path_loss: PathLossModel::LogDistance { exponent: 3.0 },
            shadowing_sigma_db: 0.5,
            shadowing_sigma_slope_db_per_m: 0.025,
            multipath_onset_m: 40.0,
            multipath_fade_prob: 0.25,
            multipath_fade_mean_db: 4.0,
            sensitivity_dbm: -98.0,
        }
    }
}

/// The RSSI distribution at one distance (see [`RfChannel::rssi_law`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RssiLaw {
    /// Mean RSSI and log-normal shadowing, dBm.
    shadowing: Normal,
    /// Past the multipath onset: the deep-fade probability and depth.
    fade: Option<(f64, Exponential)>,
}

impl RssiLaw {
    /// Draws one RSSI sample: the shadowing draw, then (past the onset)
    /// the fade coin and, on heads, the fade depth.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Dbm {
        let mut v = self.shadowing.sample(rng);
        if let Some((prob, depth)) = self.fade {
            if rng.gen_bool(prob) {
                v -= depth.sample(rng);
            }
        }
        Dbm::new(v)
    }
}

/// The stochastic RF channel.
///
/// # Examples
///
/// ```
/// use cocoa_net::channel::RfChannel;
/// use cocoa_sim::rng::SeedSplitter;
///
/// let ch = RfChannel::default();
/// // Mean RSSI at the paper's Gaussian boundary is about -80 dBm.
/// let at_40m = ch.mean_rssi(40.0).value();
/// assert!((at_40m + 80.0).abs() < 1.0, "got {at_40m}");
/// // Detection range exceeds 150 m.
/// assert!(ch.max_range() > 150.0);
/// let mut rng = SeedSplitter::new(1).stream("doc", 0);
/// let s = ch.sample_rssi(10.0, &mut rng);
/// assert!(s.value() < 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RfChannel {
    params: ChannelParams,
}

impl Default for RfChannel {
    fn default() -> Self {
        RfChannel::new(ChannelParams::default())
    }
}

impl RfChannel {
    /// Creates a channel from parameters.
    ///
    /// # Panics
    ///
    /// Panics if parameters are out of their physical ranges (non-positive
    /// exponent, negative sigmas, fade probability outside `[0, 1]`, …).
    pub fn new(params: ChannelParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("{e}");
        }
        RfChannel { params }
    }

    /// The channel parameters.
    pub fn params(&self) -> &ChannelParams {
        &self.params
    }

    /// Returns a copy of this channel transmitting at `tx_power_dbm`
    /// (transmission-power-control study, paper Section 6).
    pub fn with_tx_power(mut self, tx_power_dbm: f64) -> Self {
        self.params.tx_power_dbm = tx_power_dbm;
        self
    }

    /// Deterministic mean RSSI at distance `d` metres.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not strictly positive.
    pub fn mean_rssi(&self, d: f64) -> Dbm {
        assert!(d > 0.0, "distance must be positive, got {d}");
        let p = &self.params;
        Dbm::new(p.tx_power_dbm - p.path_loss_1m_db - p.path_loss.excess_loss_db(d))
    }

    /// Inverse of [`RfChannel::mean_rssi`]: the distance at which the mean
    /// RSSI equals `rssi`.
    pub fn distance_for_mean_rssi(&self, rssi: Dbm) -> f64 {
        let p = &self.params;
        p.path_loss
            .distance_for_excess_loss(p.tx_power_dbm - p.path_loss_1m_db - rssi.value())
    }

    /// Shadowing standard deviation at distance `d`, dB.
    pub fn shadowing_sigma(&self, d: f64) -> f64 {
        self.params.shadowing_sigma_db + self.params.shadowing_sigma_slope_db_per_m * d
    }

    /// Draws one RSSI sample at distance `d` metres.
    ///
    /// Within the Gaussian regime (`d ≤ multipath_onset_m`) the sample is
    /// mean + log-normal shadowing. Beyond it, an exponentially-distributed
    /// deep fade is subtracted with probability `multipath_fade_prob`,
    /// producing the skewed, non-Gaussian far-field statistics of paper
    /// Fig. 1(b).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not strictly positive.
    pub fn sample_rssi<R: Rng + ?Sized>(&self, d: f64, rng: &mut R) -> Dbm {
        self.rssi_law(d).sample(rng)
    }

    /// The law [`RfChannel::sample_rssi`] draws from at distance `d`: the
    /// path-loss mean and shadowing σ, evaluated once, for a caller that
    /// draws many samples at one distance (the calibration campaign).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not strictly positive.
    pub fn rssi_law(&self, d: f64) -> RssiLaw {
        let p = &self.params;
        RssiLaw {
            shadowing: Normal::new(self.mean_rssi(d).value(), self.shadowing_sigma(d)),
            fade: (d > p.multipath_onset_m).then(|| {
                (
                    p.multipath_fade_prob,
                    Exponential::new(p.multipath_fade_mean_db),
                )
            }),
        }
    }

    /// Whether a packet at RSSI `rssi` is detectable at all.
    pub fn is_detectable(&self, rssi: Dbm) -> bool {
        rssi.value() >= self.params.sensitivity_dbm
    }

    /// The distance at which the *mean* RSSI falls to the sensitivity
    /// threshold — the nominal maximum communication range.
    pub fn max_range(&self) -> f64 {
        self.distance_for_mean_rssi(Dbm::new(self.params.sensitivity_dbm))
    }

    /// The mean RSSI at the multipath onset distance: the boundary below
    /// which the calibration should not trust a Gaussian fit (−80 dBm for
    /// the defaults, as in the paper).
    pub fn gaussian_rssi_floor(&self) -> Dbm {
        self.mean_rssi(self.params.multipath_onset_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_sim::rng::SeedSplitter;

    #[test]
    fn mean_rssi_monotonically_decreases() {
        let ch = RfChannel::default();
        let mut prev = ch.mean_rssi(1.0);
        for d in [2.0, 5.0, 10.0, 40.0, 100.0, 150.0] {
            let r = ch.mean_rssi(d);
            assert!(r < prev, "rssi must fall with distance at {d} m");
            prev = r;
        }
    }

    #[test]
    fn defaults_match_paper_anchors() {
        let ch = RfChannel::default();
        // ~-80 dBm at 40 m…
        assert!((ch.mean_rssi(40.0).value() + 80.0).abs() < 1.0);
        // …and detection beyond 150 m.
        assert!(ch.max_range() > 150.0, "range {}", ch.max_range());
        assert!((ch.gaussian_rssi_floor().value() + 80.0).abs() < 1.0);
    }

    #[test]
    fn inverse_roundtrips() {
        let ch = RfChannel::default();
        for d in [1.0, 3.7, 12.0, 40.0, 120.0] {
            let r = ch.mean_rssi(d);
            let back = ch.distance_for_mean_rssi(r);
            assert!((back - d).abs() / d < 1e-9, "{d} -> {back}");
        }
    }

    #[test]
    fn near_field_samples_are_approximately_gaussian() {
        let ch = RfChannel::default();
        let mut rng = SeedSplitter::new(11).stream("test", 0);
        let d = 10.0;
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| ch.sample_rssi(d, &mut rng).value())
            .collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        let sd = var.sqrt();
        let skew: f64 = samples
            .iter()
            .map(|s| ((s - mean) / sd).powi(3))
            .sum::<f64>()
            / n as f64;
        assert!((mean - ch.mean_rssi(d).value()).abs() < 0.1, "mean {mean}");
        assert!((sd - ch.shadowing_sigma(d)).abs() < 0.1, "sd {sd}");
        assert!(
            skew.abs() < 0.1,
            "near field should be symmetric, skew {skew}"
        );
    }

    #[test]
    fn far_field_samples_are_left_skewed() {
        let ch = RfChannel::default();
        let mut rng = SeedSplitter::new(12).stream("test", 0);
        let d = 80.0;
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| ch.sample_rssi(d, &mut rng).value())
            .collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        let sd = var.sqrt();
        let skew: f64 = samples
            .iter()
            .map(|s| ((s - mean) / sd).powi(3))
            .sum::<f64>()
            / n as f64;
        // Deep fades pull the left tail: clearly negative skewness.
        assert!(skew < -0.3, "far field should be left-skewed, got {skew}");
        // Mean drops below the pure path-loss prediction.
        assert!(mean < ch.mean_rssi(d).value());
    }

    #[test]
    fn tx_power_shifts_rssi_uniformly() {
        let lo = RfChannel::default().with_tx_power(5.0);
        let hi = RfChannel::default().with_tx_power(20.0);
        for d in [1.0, 10.0, 100.0] {
            let delta = hi.mean_rssi(d) - lo.mean_rssi(d);
            assert!((delta - 15.0).abs() < 1e-9);
        }
        // Higher power, longer range.
        assert!(hi.max_range() > lo.max_range());
    }

    #[test]
    fn detectability_threshold() {
        let ch = RfChannel::default();
        assert!(ch.is_detectable(Dbm::new(-98.0)));
        assert!(!ch.is_detectable(Dbm::new(-98.1)));
    }

    #[test]
    #[should_panic(expected = "distance must be positive")]
    fn zero_distance_panics() {
        let _ = RfChannel::default().mean_rssi(0.0);
    }

    #[test]
    #[should_panic(expected = "fade probability")]
    fn invalid_fade_prob_rejected() {
        let params = ChannelParams {
            multipath_fade_prob: 1.5,
            ..ChannelParams::default()
        };
        let _ = RfChannel::new(params);
    }
}

#[cfg(test)]
mod two_ray_tests {
    use super::*;

    fn two_ray() -> RfChannel {
        RfChannel::new(ChannelParams {
            path_loss: PathLossModel::TwoRayGround {
                antenna_height_m: 0.5,
                wavelength_m: 0.125, // 2.4 GHz
            },
            ..ChannelParams::default()
        })
    }

    #[test]
    fn crossover_distance_is_physical() {
        // d_c = 4π h² / λ = 4π·0.25/0.125 ≈ 25.1 m for 0.5 m antennas.
        let model = PathLossModel::TwoRayGround {
            antenna_height_m: 0.5,
            wavelength_m: 0.125,
        };
        let crossover = 4.0 * std::f64::consts::PI * 0.25 / 0.125;
        // Loss is continuous at the crossover.
        let below = model.excess_loss_db(crossover - 1e-9);
        let above = model.excess_loss_db(crossover + 1e-9);
        assert!((below - above).abs() < 1e-6, "{below} vs {above}");
    }

    #[test]
    fn fourth_power_decay_beyond_crossover() {
        let ch = two_ray();
        // Doubling the distance in the far region costs ~12 dB (40 log10 2).
        let a = ch.mean_rssi(60.0).value();
        let b = ch.mean_rssi(120.0).value();
        assert!((a - b - 12.04).abs() < 0.1, "delta {}", a - b);
        // Near region: free-space-like 6 dB per doubling.
        let c = ch.mean_rssi(5.0).value();
        let d = ch.mean_rssi(10.0).value();
        assert!((c - d - 6.02).abs() < 0.1, "delta {}", c - d);
    }

    #[test]
    fn inverse_roundtrips_across_the_crossover() {
        let ch = two_ray();
        for dist in [2.0, 10.0, 25.0, 26.0, 60.0, 140.0] {
            let r = ch.mean_rssi(dist);
            let back = ch.distance_for_mean_rssi(r);
            assert!((back - dist).abs() / dist < 1e-9, "{dist} -> {back}");
        }
    }

    #[test]
    fn two_ray_contrasts_with_log_distance() {
        let tr = two_ray();
        let ld = RfChannel::default();
        // Near field: two-ray's exponent-2 decay loses less power than
        // log-distance exponent 3...
        assert!(tr.mean_rssi(20.0) > ld.mean_rssi(20.0));
        // ...while the far field decays faster per doubling (40 vs 30
        // dB/decade), so the *slope* is steeper.
        let tr_slope = tr.mean_rssi(80.0) - tr.mean_rssi(160.0);
        let ld_slope = ld.mean_rssi(80.0) - ld.mean_rssi(160.0);
        assert!(tr_slope > ld_slope, "{tr_slope} vs {ld_slope}");
        assert!(tr.max_range() > 30.0, "still usable: {}", tr.max_range());
    }

    #[test]
    fn calibration_works_on_two_ray() {
        use crate::calibration::{calibrate, CalibrationConfig};
        use cocoa_sim::rng::SeedSplitter;
        let ch = two_ray();
        let table = calibrate(
            &ch,
            &CalibrationConfig {
                samples_per_distance: 60,
                ..Default::default()
            },
            &mut SeedSplitter::new(4).stream("cal", 0),
        );
        assert!(table.len() > 15, "bins {}", table.len());
        let pdf = table.lookup(ch.mean_rssi(10.0)).expect("near bin");
        assert!((pdf.mean() - 10.0).abs() < 4.0);
    }

    #[test]
    #[should_panic(expected = "antenna height")]
    fn zero_antenna_height_rejected() {
        let _ = RfChannel::new(ChannelParams {
            path_loss: PathLossModel::TwoRayGround {
                antenna_height_m: 0.0,
                wavelength_m: 0.125,
            },
            ..ChannelParams::default()
        });
    }
}
