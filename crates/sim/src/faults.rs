//! Deterministic fault injection: seeded, schedulable fault plans.
//!
//! CoCoA's premise is a lossy mobile ad-hoc network, so the interesting
//! questions start where the benign channel model stops: what happens when
//! a robot crashes mid-run, when the Sync robot dies, when the radio hits a
//! burst of deep fades, when a faulty node broadcasts garbage? This module
//! provides the vocabulary for those experiments as *data*: a [`FaultPlan`]
//! is an ordered list of timestamped [`Fault`]s that the simulation runner
//! consumes as ordinary events, so a fault schedule is exactly as
//! reproducible as everything else in the engine — same seed, same plan,
//! bit-identical run.
//!
//! The crate deliberately knows nothing about robots or packets; the upper
//! layers interpret each fault kind. What lives here is the schedule, the
//! [`GilbertElliott`] two-state burst-loss process, and the byte-garbling
//! helper used to model frame corruption.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::snapshot::{Codec, SnapshotError};
use crate::time::{SimDuration, SimTime};

/// One injectable fault, interpreted by the simulation runner.
///
/// Robot indices refer to positions in the team vector. Start/end pairs
/// bracket an interval during which the fault condition holds; an interval
/// left open simply lasts until the end of the run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum Fault {
    /// The robot halts: radio off, motion frozen, no beacons, no mesh.
    Crash {
        /// Index of the robot that fails.
        robot: usize,
    },
    /// A crashed robot comes back: radio on, estimator state lost.
    Reboot {
        /// Index of the robot that restarts.
        robot: usize,
    },
    /// The robot's crystal steps by `delta_ppm` parts per million
    /// (temperature shock, voltage sag). Accumulated error is preserved.
    ClockSkewStep {
        /// Index of the affected robot.
        robot: usize,
        /// Skew change, ppm. May be negative.
        delta_ppm: f64,
    },
    /// Start corrupting this robot's transmitted frames (failing RF
    /// front-end): random bit flips on the encoded bytes.
    GarbleTxStart {
        /// Index of the faulty transmitter.
        robot: usize,
    },
    /// The transmitter recovers.
    GarbleTxEnd {
        /// Index of the recovered transmitter.
        robot: usize,
    },
    /// The robot starts advertising wrong coordinates in its beacons (a
    /// faulty equipped robot — the paper's "bad beacons" made systematic).
    BeaconOffsetStart {
        /// Index of the faulty beacon source.
        robot: usize,
        /// Eastward coordinate error, metres.
        dx_m: f64,
        /// Northward coordinate error, metres.
        dy_m: f64,
    },
    /// The beacon source recovers.
    BeaconOffsetEnd {
        /// Index of the recovered beacon source.
        robot: usize,
    },
    /// Layer a [`GilbertElliott`] burst-loss process over every link.
    BurstLossStart {
        /// The two-state loss model applied per receiver.
        model: GilbertElliott,
    },
    /// Remove the burst-loss overlay.
    #[default]
    BurstLossEnd,
}

/// Placeholder model of [`FAULTS`]' burst-loss entry.
const GILBERT: GilbertElliott = GilbertElliott {
    p_enter_bad: 0.0,
    p_exit_bad: 0.0,
    loss_good: 0.0,
    loss_bad: 0.0,
};

/// One placeholder per variant; the order is the snapshot tag.
const FAULTS: [Fault; 9] = [
    Fault::Crash { robot: 0 },
    Fault::Reboot { robot: 0 },
    Fault::ClockSkewStep {
        robot: 0,
        delta_ppm: 0.0,
    },
    Fault::GarbleTxStart { robot: 0 },
    Fault::GarbleTxEnd { robot: 0 },
    Fault::BeaconOffsetStart {
        robot: 0,
        dx_m: 0.0,
        dy_m: 0.0,
    },
    Fault::BeaconOffsetEnd { robot: 0 },
    Fault::BurstLossStart { model: GILBERT },
    Fault::BurstLossEnd,
];

impl Fault {
    /// The snapshot layout: a tag, then the variant's fields.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        c.tag(&FAULTS, self, "fault")?;
        match self {
            Fault::Crash { robot }
            | Fault::Reboot { robot }
            | Fault::GarbleTxStart { robot }
            | Fault::GarbleTxEnd { robot }
            | Fault::BeaconOffsetEnd { robot } => c.usize(robot),
            Fault::ClockSkewStep { robot, delta_ppm } => {
                c.usize(robot)?;
                c.f64(delta_ppm)
            }
            Fault::BeaconOffsetStart { robot, dx_m, dy_m } => {
                c.usize(robot)?;
                c.f64(dx_m)?;
                c.f64(dy_m)
            }
            Fault::BurstLossStart { model } => model.code(c),
            Fault::BurstLossEnd => Ok(()),
        }
    }

    /// The robot index this fault targets, if it targets one.
    pub fn robot(&self) -> Option<usize> {
        match self {
            Fault::Crash { robot }
            | Fault::Reboot { robot }
            | Fault::ClockSkewStep { robot, .. }
            | Fault::GarbleTxStart { robot }
            | Fault::GarbleTxEnd { robot }
            | Fault::BeaconOffsetStart { robot, .. }
            | Fault::BeaconOffsetEnd { robot } => Some(*robot),
            Fault::BurstLossStart { .. } | Fault::BurstLossEnd => None,
        }
    }
}

/// A fault with its injection time.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub fault: Fault,
}

impl FaultEvent {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let FaultEvent { at, fault } = self;
        at.code(c)?;
        fault.code(c)
    }
}

/// An ordered, validated schedule of faults for one run.
///
/// Events are kept sorted by time (ties preserve insertion order), so the
/// runner can schedule them directly and two identically-built plans drive
/// identical runs.
///
/// # Examples
///
/// ```
/// use cocoa_sim::faults::{Fault, FaultPlan};
/// use cocoa_sim::time::SimTime;
///
/// let mut plan = FaultPlan::new();
/// plan.schedule(SimTime::from_secs(150), Fault::Crash { robot: 0 });
/// plan.schedule(SimTime::from_secs(60), Fault::GarbleTxStart { robot: 1 });
/// assert_eq!(plan.events()[0].at, SimTime::from_secs(60)); // sorted
/// assert!(plan.validate(2).is_ok());
/// assert!(plan.validate(1).is_err()); // robot 1 out of range
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Names accepted by [`FaultPlan::preset`].
pub const PRESET_NAMES: &[&str] = &["none", "sync-crash", "burst30", "corrupt", "chaos"];

impl FaultPlan {
    /// Creates an empty plan (the benign baseline).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// The snapshot layout: the schedule's events. The reader schedules
    /// them one by one, so its plan is sorted whatever order they were
    /// stored in.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        c.via(
            self,
            |plan| plan.events.clone(),
            |c, events| c.vec(events, |c, e| e.code(c)),
            |events| {
                let mut plan = FaultPlan::new();
                for e in events {
                    plan.schedule(e.at, e.fault);
                }
                Ok(plan)
            },
        )
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The schedule, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds a fault at `at`, keeping the schedule sorted (stable for ties).
    pub fn schedule(&mut self, at: SimTime, fault: Fault) -> &mut Self {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, fault });
        self
    }

    /// Checks the plan against a team of `num_robots`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range robot index or
    /// invalid burst-loss model.
    pub fn validate(&self, num_robots: usize) -> Result<(), String> {
        for e in &self.events {
            if let Some(r) = e.fault.robot() {
                if r >= num_robots {
                    return Err(format!(
                        "fault at {} targets robot {r}, but the team has {num_robots}",
                        e.at
                    ));
                }
            }
            if let Fault::BurstLossStart { model } = &e.fault {
                model.validate()?;
            }
        }
        Ok(())
    }

    /// A canned schedule by name, scaled to the run.
    ///
    /// Known names (see [`PRESET_NAMES`]):
    ///
    /// - `none` — empty plan;
    /// - `sync-crash` — the Sync robot (index 0) crashes at T/2 and reboots
    ///   at 9T/10;
    /// - `burst30` — a Gilbert–Elliott overlay with ≈30 % mean loss from
    ///   T/5 to the end of the run;
    /// - `corrupt` — one robot garbles its frames over the middle half of
    ///   the run while another advertises coordinates 30 m off;
    /// - `chaos` — all of the above plus a 150 ppm clock-skew step.
    ///
    /// Robot indices are clamped into the team, so presets stay valid at
    /// any scale. Returns `None` for unknown names.
    pub fn preset(name: &str, duration: SimDuration, num_robots: usize) -> Option<FaultPlan> {
        let t = |frac_num: u64, frac_den: u64| SimTime::ZERO + (duration * frac_num) / frac_den;
        let robot = |i: usize| i.min(num_robots.saturating_sub(1));
        let mut plan = FaultPlan::new();
        match name {
            "none" => {}
            "sync-crash" => {
                plan.schedule(t(1, 2), Fault::Crash { robot: 0 })
                    .schedule(t(9, 10), Fault::Reboot { robot: 0 });
            }
            "burst30" => {
                plan.schedule(
                    t(1, 5),
                    Fault::BurstLossStart {
                        model: GilbertElliott::bursty(0.3, 8.0),
                    },
                );
            }
            "corrupt" => {
                plan.schedule(t(1, 4), Fault::GarbleTxStart { robot: robot(1) })
                    .schedule(t(3, 4), Fault::GarbleTxEnd { robot: robot(1) })
                    .schedule(
                        t(1, 3),
                        Fault::BeaconOffsetStart {
                            robot: robot(2),
                            dx_m: 30.0,
                            dy_m: -22.0,
                        },
                    )
                    .schedule(t(2, 3), Fault::BeaconOffsetEnd { robot: robot(2) });
            }
            "chaos" => {
                plan.schedule(
                    t(1, 5),
                    Fault::BurstLossStart {
                        model: GilbertElliott::bursty(0.3, 8.0),
                    },
                )
                .schedule(t(1, 2), Fault::Crash { robot: 0 })
                .schedule(t(9, 10), Fault::Reboot { robot: 0 })
                .schedule(t(1, 4), Fault::GarbleTxStart { robot: robot(1) })
                .schedule(t(3, 4), Fault::GarbleTxEnd { robot: robot(1) })
                .schedule(
                    t(1, 3),
                    Fault::BeaconOffsetStart {
                        robot: robot(2),
                        dx_m: 30.0,
                        dy_m: -22.0,
                    },
                )
                .schedule(t(2, 3), Fault::BeaconOffsetEnd { robot: robot(2) })
                .schedule(
                    t(1, 3),
                    Fault::ClockSkewStep {
                        robot: robot(3),
                        delta_ppm: 150.0,
                    },
                );
            }
            _ => return None,
        }
        Some(plan)
    }
}

/// The Gilbert–Elliott two-state burst-loss model.
///
/// A link is in a *good* or *bad* state; each reception attempt first
/// transitions the state (a two-state Markov chain), then is lost with the
/// state's loss probability. This produces the time-correlated loss bursts
/// of real radio links — deep fades, passing obstructions — that the
/// memoryless `packet_loss` knob cannot.
///
/// # Examples
///
/// ```
/// use cocoa_sim::faults::GilbertElliott;
///
/// let ge = GilbertElliott::bursty(0.3, 8.0);
/// assert!((ge.mean_loss() - 0.3).abs() < 1e-9);
/// assert!(ge.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// Probability of transitioning good → bad at each attempt.
    pub p_enter_bad: f64,
    /// Probability of transitioning bad → good at each attempt.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Builds the classic bursty parameterization: lossless good state,
    /// fully-lossy bad state, mean burst length `mean_burst_len` attempts,
    /// and transition probabilities chosen so the stationary loss rate is
    /// `mean_loss`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_loss` is outside `[0, 1)` or `mean_burst_len < 1`.
    pub fn bursty(mean_loss: f64, mean_burst_len: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&mean_loss),
            "mean loss {mean_loss} must be in [0, 1)"
        );
        assert!(
            mean_burst_len >= 1.0,
            "mean burst length {mean_burst_len} must be at least 1"
        );
        let p_exit_bad = 1.0 / mean_burst_len;
        // Stationary P(bad) = p_enter / (p_enter + p_exit) = mean_loss.
        let p_enter_bad = p_exit_bad * mean_loss / (1.0 - mean_loss);
        GilbertElliott {
            p_enter_bad: p_enter_bad.min(1.0),
            p_exit_bad,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        if denom <= 0.0 {
            0.0
        } else {
            self.p_enter_bad / denom
        }
    }

    /// Long-run fraction of attempts lost.
    pub fn mean_loss(&self) -> f64 {
        let b = self.stationary_bad();
        (1.0 - b) * self.loss_good + b * self.loss_bad
    }

    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
        } = self;
        c.f64s([p_enter_bad, p_exit_bad, loss_good, loss_bad])
    }

    /// Checks that every parameter is a probability.
    ///
    /// # Errors
    ///
    /// Returns a message naming the out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("p_enter_bad", self.p_enter_bad),
            ("p_exit_bad", self.p_exit_bad),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(format!("Gilbert–Elliott {name} = {v} is not a probability"));
            }
        }
        Ok(())
    }
}

/// The evolving state of one Gilbert–Elliott link.
///
/// Stepped once per reception attempt; starts in the good state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GilbertElliottLink {
    model: GilbertElliott,
    in_bad: bool,
}

impl GilbertElliottLink {
    /// Creates a link in the good state.
    pub fn new(model: GilbertElliott) -> Self {
        GilbertElliottLink {
            model,
            in_bad: false,
        }
    }

    /// The snapshot layout: the model, then whether the link is bursting.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let GilbertElliottLink { model, in_bad } = self;
        model.code(c)?;
        c.bool(in_bad)
    }

    /// Advances the chain one attempt and decides whether it is lost.
    pub fn drops(&mut self, rng: &mut impl Rng) -> bool {
        let flip = if self.in_bad {
            self.model.p_exit_bad
        } else {
            self.model.p_enter_bad
        };
        if flip > 0.0 && rng.gen_bool(flip.min(1.0)) {
            self.in_bad = !self.in_bad;
        }
        let loss = if self.in_bad {
            self.model.loss_bad
        } else {
            self.model.loss_good
        };
        loss > 0.0 && rng.gen_bool(loss.min(1.0))
    }
}

/// Flips 1–4 random bits of `bytes` in place (frame corruption model).
///
/// Empty buffers are left untouched. Deterministic for a given RNG state.
pub fn garble_bytes(bytes: &mut [u8], rng: &mut impl Rng) {
    if bytes.is_empty() {
        return;
    }
    let flips = 1 + (rng.gen::<u64>() % 4) as usize;
    for _ in 0..flips {
        let byte = (rng.gen::<u64>() as usize) % bytes.len();
        let bit = (rng.gen::<u64>() % 8) as u32;
        bytes[byte] ^= 1u8 << bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedSplitter;

    #[test]
    fn plan_keeps_events_sorted() {
        let mut plan = FaultPlan::new();
        plan.schedule(SimTime::from_secs(30), Fault::Crash { robot: 2 });
        plan.schedule(SimTime::from_secs(10), Fault::BurstLossEnd);
        plan.schedule(SimTime::from_secs(20), Fault::Reboot { robot: 2 });
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn validate_rejects_out_of_range_robot() {
        let mut plan = FaultPlan::new();
        plan.schedule(SimTime::from_secs(1), Fault::Crash { robot: 9 });
        assert!(plan.validate(10).is_ok());
        assert!(plan.validate(9).is_err());
    }

    #[test]
    fn validate_rejects_bad_burst_model() {
        let mut plan = FaultPlan::new();
        plan.schedule(
            SimTime::from_secs(1),
            Fault::BurstLossStart {
                model: GilbertElliott {
                    p_enter_bad: 1.5,
                    p_exit_bad: 0.1,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                },
            },
        );
        assert!(plan.validate(5).is_err());
    }

    #[test]
    fn presets_exist_and_validate() {
        let d = SimDuration::from_secs(600);
        for name in PRESET_NAMES {
            let plan = FaultPlan::preset(name, d, 10).expect("known preset");
            assert!(plan.validate(10).is_ok(), "preset {name} invalid");
        }
        assert!(FaultPlan::preset("nope", d, 10).is_none());
        assert!(FaultPlan::preset("none", d, 10).unwrap().is_empty());
    }

    #[test]
    fn presets_clamp_robot_indices_to_team() {
        let d = SimDuration::from_secs(600);
        let plan = FaultPlan::preset("chaos", d, 1).expect("preset");
        assert!(plan.validate(1).is_ok(), "single-robot team still valid");
    }

    #[test]
    fn bursty_hits_target_mean_loss() {
        let ge = GilbertElliott::bursty(0.3, 8.0);
        assert!((ge.mean_loss() - 0.3).abs() < 1e-12);
        assert!((ge.stationary_bad() - 0.3).abs() < 1e-12);
        assert!(ge.validate().is_ok());
    }

    #[test]
    fn link_long_run_loss_matches_model() {
        let ge = GilbertElliott::bursty(0.3, 8.0);
        let mut link = GilbertElliottLink::new(ge);
        let mut rng = SeedSplitter::new(11).stream("ge", 0);
        let n = 200_000;
        let lost = (0..n).filter(|_| link.drops(&mut rng)).count();
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - 0.3).abs() < 0.02,
            "empirical loss {rate} far from 0.3"
        );
    }

    #[test]
    fn link_losses_are_bursty() {
        // Consecutive losses should be far more likely than under
        // independent loss at the same rate.
        let ge = GilbertElliott::bursty(0.3, 8.0);
        let mut link = GilbertElliottLink::new(ge);
        let mut rng = SeedSplitter::new(12).stream("ge", 0);
        let outcomes: Vec<bool> = (0..100_000).map(|_| link.drops(&mut rng)).collect();
        let mut pairs = 0usize;
        let mut loss_then = 0usize;
        for w in outcomes.windows(2) {
            if w[0] {
                pairs += 1;
                if w[1] {
                    loss_then += 1;
                }
            }
        }
        let p_loss_given_loss = loss_then as f64 / pairs as f64;
        assert!(
            p_loss_given_loss > 0.6,
            "loss-after-loss {p_loss_given_loss} not bursty"
        );
    }

    #[test]
    fn garble_flips_at_least_one_bit() {
        let mut rng = SeedSplitter::new(13).stream("garble", 0);
        for _ in 0..100 {
            let original = vec![0u8; 32];
            let mut garbled = original.clone();
            garble_bytes(&mut garbled, &mut rng);
            assert_ne!(original, garbled, "garbling must change the frame");
        }
        // Empty frames are a no-op, not a panic.
        garble_bytes(&mut [], &mut rng);
    }

    #[test]
    fn garbling_is_deterministic() {
        let mut a = SeedSplitter::new(14).stream("garble", 0);
        let mut b = SeedSplitter::new(14).stream("garble", 0);
        let mut x = vec![0xAAu8; 16];
        let mut y = vec![0xAAu8; 16];
        garble_bytes(&mut x, &mut a);
        garble_bytes(&mut y, &mut b);
        assert_eq!(x, y);
    }
}
