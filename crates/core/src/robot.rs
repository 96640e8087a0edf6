//! The per-robot state bundle and its estimate logic.

use cocoa_localization::estimator::{EstimatorMode, WindowedRfEstimator};
use cocoa_mobility::motion::RobotMotion;
use cocoa_multicast::mrmm::MobilityInfo;
use cocoa_multicast::protocol::MeshNode;
use cocoa_net::geometry::{Area, Point};
use cocoa_net::packet::NodeId;
use cocoa_net::radio::Radio;
use cocoa_sim::snapshot::{Codec, SnapshotError};

use crate::health::HealthMonitor;
use crate::sync::DriftingClock;

/// The reference pair stored at each RF fix, used to re-anchor the
/// dead-reckoned heading from consecutive fixes: comparing the
/// displacement the odometer *integrated* against the displacement the
/// *fixes* observed yields the accumulated heading error — an estimator a
/// real robot can run, since both quantities are locally known.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FixAnchor {
    /// The RF fix position.
    pub fix: Point,
    /// The odometry estimate at the moment of that fix (before reset).
    pub odo_at_fix: Point,
}

impl FixAnchor {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let FixAnchor { fix, odo_at_fix } = self;
        fix.code(c)?;
        odo_at_fix.code(c)
    }
}

/// One robot in the team: motion, radio, estimator, mesh node and clock.
pub struct Robot {
    /// Network identity.
    pub id: NodeId,
    /// Index into the team vector.
    pub index: usize,
    /// Whether this robot carries a localization device (laser/SLAM).
    pub equipped: bool,
    /// True motion plus dead-reckoned belief.
    pub motion: RobotMotion,
    /// The 802.11 radio with energy accounting.
    pub radio: Radio,
    /// The windowed Bayesian RF estimator (unequipped robots in RF modes).
    pub rf: Option<WindowedRfEstimator>,
    /// The mesh multicast node (flood, ODMRP or MRMM).
    pub mesh: MeshNode,
    /// The drifting local clock.
    pub clock: DriftingClock,
    /// Window index of the last fresh fix; `None` until the first fix
    /// (and again after a reboot).
    pub last_fix_window: Option<u64>,
    /// Whether a SYNC arrived during the current window.
    pub synced_this_window: bool,
    /// Reference pair from the previous fix (heading re-anchoring).
    pub fix_anchor: Option<FixAnchor>,
    /// Whether the robot is running (false after an injected crash).
    pub alive: bool,
    /// Wake-chain epoch: bumped on every crash so pending wake/window-end
    /// events from the previous life are recognized as stale and dropped.
    pub epoch: u32,
    /// Fault flag: this robot's transmitter corrupts outgoing frames.
    pub garbled_tx: bool,
    /// Fault flag: offset added to this robot's advertised beacon
    /// coordinates (a faulty localization device).
    pub beacon_offset: Option<(f64, f64)>,
    /// Degradation state machine and its time ledger.
    pub health: HealthMonitor,
}

impl std::fmt::Debug for Robot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Robot")
            .field("id", &self.id)
            .field("equipped", &self.equipped)
            .field("last_fix_window", &self.last_fix_window)
            .field("alive", &self.alive)
            .finish()
    }
}

impl Robot {
    /// The snapshot layout, decoded onto `world::blank_robot`'s robot,
    /// which sets what the scenario fixes: identity, equipment, whether
    /// an estimator runs and with which backend, and every component's
    /// settings.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let Robot {
            alive,
            epoch,
            last_fix_window,
            synced_this_window,
            garbled_tx,
            beacon_offset,
            fix_anchor,
            motion,
            radio,
            clock,
            health,
            rf,
            mesh,
            // The scenario's.
            id: _,
            index: _,
            equipped: _,
        } = self;
        c.bool(alive)?;
        c.u32(epoch)?;
        c.opt(last_fix_window, Codec::u64)?;
        c.bool(synced_this_window)?;
        c.bool(garbled_tx)?;
        c.opt(beacon_offset, |c, (dx, dy)| {
            c.f64(dx)?;
            c.f64(dy)
        })?;
        c.opt(fix_anchor, |c, a| a.code(c))?;
        motion.code(c)?;
        radio.code(c)?;
        clock.code(c)?;
        health.code(c)?;
        if let Some(rf) = rf {
            rf.code(c)?;
        }
        mesh.code(c)
    }

    /// The robot's published position estimate under `mode`.
    ///
    /// - Equipped robots report their device position (ground truth);
    /// - odometry-only robots report the dead-reckoned pose;
    /// - RF-only robots freeze the last fix (area centre before the first
    ///   fix — the mean of the uniform prior);
    /// - CoCoA robots dead-reckon from the last fix.
    pub fn estimate(&self, mode: EstimatorMode, area: &Area) -> Point {
        if self.equipped && mode.uses_rf() {
            return self.motion.true_position();
        }
        match mode {
            EstimatorMode::OdometryOnly => self.motion.odometry_pose().position,
            EstimatorMode::RfOnly => self
                .rf
                .as_ref()
                .and_then(|rf| rf.last_fix())
                .unwrap_or_else(|| area.center()),
            EstimatorMode::Cocoa => {
                if self.last_fix_window.is_some() {
                    self.motion.odometry_pose().position
                } else {
                    area.center()
                }
            }
        }
    }

    /// Localization error under `mode`, metres.
    pub fn localization_error(&self, mode: EstimatorMode, area: &Area) -> f64 {
        self.motion
            .true_position()
            .distance_to(self.estimate(mode, area))
    }

    /// Whether this robot's error is reported in the paper's metrics
    /// (odometry-only runs report everyone; RF runs only unequipped).
    pub fn reports_error(&self, mode: EstimatorMode) -> bool {
        match mode {
            EstimatorMode::OdometryOnly => true,
            EstimatorMode::RfOnly | EstimatorMode::Cocoa => !self.equipped,
        }
    }

    /// The position this robot advertises in beacons: the device position
    /// for equipped robots, the current estimate for relay beacons.
    pub fn beacon_position(&self, mode: EstimatorMode, area: &Area) -> Point {
        if self.equipped {
            self.motion.true_position()
        } else {
            self.estimate(mode, area)
        }
    }

    /// The mobility knowledge advertised in JOIN QUERY packets: believed
    /// position plus commanded velocity and residual leg distance (both
    /// known exactly — the robot issued the command itself).
    pub fn mobility_info(&self, mode: EstimatorMode, area: &Area) -> MobilityInfo {
        MobilityInfo {
            position: self.estimate(mode, area),
            velocity: self.motion.velocity(),
            d_rest: self.motion.d_rest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_localization::grid::GridConfig;
    use cocoa_mobility::odometry::OdometryConfig;
    use cocoa_mobility::waypoint::WaypointConfig;
    use cocoa_multicast::odmrp::OdmrpConfig;
    use cocoa_multicast::protocol::MulticastProtocol;
    use cocoa_net::energy::EnergyParams;
    use cocoa_net::packet::GroupId;
    use cocoa_sim::rng::SeedSplitter;
    use cocoa_sim::time::SimTime;

    fn robot(equipped: bool) -> Robot {
        let area = Area::square(200.0);
        let mut rng = SeedSplitter::new(1).stream("move", 0);
        Robot {
            id: NodeId(0),
            index: 0,
            equipped,
            motion: RobotMotion::new(
                WaypointConfig::paper(area, 2.0),
                OdometryConfig::default(),
                Point::new(30.0, 40.0),
                &mut rng,
            ),
            radio: Radio::new(EnergyParams::default(), SimTime::ZERO),
            rf: Some(WindowedRfEstimator::new(GridConfig::new(area, 2.0))),
            mesh: MeshNode::new(
                MulticastProtocol::Mrmm,
                NodeId(0),
                GroupId(1),
                true,
                OdmrpConfig::default(),
            ),
            clock: DriftingClock::new(0.0),
            last_fix_window: None,
            synced_this_window: false,
            fix_anchor: None,
            alive: true,
            epoch: 0,
            garbled_tx: false,
            beacon_offset: None,
            health: HealthMonitor::new(crate::health::DegradationState::Degraded, SimTime::ZERO),
        }
    }

    #[test]
    fn equipped_robot_reports_truth_and_no_error() {
        let r = robot(true);
        let area = Area::square(200.0);
        assert_eq!(
            r.estimate(EstimatorMode::Cocoa, &area),
            r.motion.true_position()
        );
        assert_eq!(r.localization_error(EstimatorMode::Cocoa, &area), 0.0);
        assert!(!r.reports_error(EstimatorMode::Cocoa));
        assert!(r.reports_error(EstimatorMode::OdometryOnly));
    }

    #[test]
    fn unfixed_rf_robot_estimates_area_center() {
        let r = robot(false);
        let area = Area::square(200.0);
        assert_eq!(r.estimate(EstimatorMode::RfOnly, &area), area.center());
        assert_eq!(r.estimate(EstimatorMode::Cocoa, &area), area.center());
        // Odometry-only still reads the dead-reckoned pose.
        assert_eq!(
            r.estimate(EstimatorMode::OdometryOnly, &area),
            r.motion.odometry_pose().position
        );
    }

    #[test]
    fn cocoa_robot_with_fix_uses_odometry_pose() {
        let mut r = robot(false);
        let area = Area::square(200.0);
        r.last_fix_window = Some(0);
        assert_eq!(
            r.estimate(EstimatorMode::Cocoa, &area),
            r.motion.odometry_pose().position
        );
    }

    #[test]
    fn beacon_position_follows_equipment() {
        let r = robot(true);
        let area = Area::square(200.0);
        assert_eq!(
            r.beacon_position(EstimatorMode::Cocoa, &area),
            r.motion.true_position()
        );
        let u = robot(false);
        assert_eq!(
            u.beacon_position(EstimatorMode::Cocoa, &area),
            area.center(),
            "relay beacons advertise the estimate"
        );
    }

    #[test]
    fn mobility_info_reflects_commands() {
        let r = robot(true);
        let area = Area::square(200.0);
        let info = r.mobility_info(EstimatorMode::Cocoa, &area);
        assert!((info.velocity.norm() - r.motion.waypoints().speed()).abs() < 1e-9);
        assert!(info.d_rest > 0.0);
    }
}
