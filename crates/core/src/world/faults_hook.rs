//! Applying injected faults to the world: crashes, reboots, clock steps,
//! garbled transmitters, beacon offsets and burst-loss overlays.

use cocoa_localization::grid::GridConfig;
use cocoa_net::energy::PowerState;
use cocoa_sim::engine::Engine;
use cocoa_sim::faults::{Fault, GilbertElliottLink};
use cocoa_sim::telemetry::TelemetryEvent;
use cocoa_sim::time::SimTime;

use crate::health::DegradationState;

use super::events::Event;
use super::WorldState;

/// Stable telemetry name of an injected fault.
pub(crate) fn fault_kind(fault: &Fault) -> &'static str {
    match fault {
        Fault::Crash { .. } => "crash",
        Fault::Reboot { .. } => "reboot",
        Fault::ClockSkewStep { .. } => "clock_skew_step",
        Fault::GarbleTxStart { .. } => "garble_tx_start",
        Fault::GarbleTxEnd { .. } => "garble_tx_end",
        Fault::BeaconOffsetStart { .. } => "beacon_offset_start",
        Fault::BeaconOffsetEnd { .. } => "beacon_offset_end",
        Fault::BurstLossStart { .. } => "burst_loss_start",
        Fault::BurstLossEnd => "burst_loss_end",
    }
}

/// Applies one injected fault to the world at `now`.
pub(crate) fn apply_fault(
    engine: &mut Engine<Event>,
    world: &mut WorldState,
    fault: Fault,
    now: SimTime,
) {
    world.telemetry.emit(
        now,
        TelemetryEvent::FaultInjected {
            kind: fault_kind(&fault),
            robot: fault.robot().map(|r| r as u32),
        },
    );
    match fault {
        Fault::Crash { robot } => {
            let r = &mut world.robots[robot];
            if !r.alive {
                return;
            }
            r.alive = false;
            // Orphan the pending wake chain of this life.
            r.epoch = r.epoch.wrapping_add(1);
            r.radio.set_state(now, PowerState::Off);
            world.telemetry.emit(
                now,
                TelemetryEvent::RadioState {
                    robot: robot as u32,
                    state: PowerState::Off.as_str(),
                },
            );
            if r.health.transition(now, DegradationState::Down) {
                world.telemetry.emit(
                    now,
                    TelemetryEvent::HealthTransition {
                        robot: robot as u32,
                        state: DegradationState::Down.as_str(),
                    },
                );
            }
            world.robustness.crashes = world.robustness.crashes.wrapping_add(1);
        }
        Fault::Reboot { robot } => {
            if world.robots[robot].alive {
                return;
            }
            let uses_rf = world.uses_rf();
            let area = world.scenario.area;
            let res = world.scenario.grid_resolution_m;
            let r = &mut world.robots[robot];
            r.alive = true;
            r.epoch = r.epoch.wrapping_add(1);
            // Volatile state is lost: the posterior, the fix history and
            // the heading anchor all restart from scratch. The estimator's
            // lifetime counters survive, so its telemetry keeps the work
            // done before the crash.
            r.last_fix_window = None;
            r.fix_anchor = None;
            r.synced_this_window = false;
            if let Some(rf) = r.rf.as_mut() {
                rf.reboot(GridConfig::new(area, res));
            }
            let up_state = if uses_rf {
                PowerState::Idle
            } else {
                PowerState::Off
            };
            r.radio.set_state(now, up_state);
            world.telemetry.emit(
                now,
                TelemetryEvent::RadioState {
                    robot: robot as u32,
                    state: up_state.as_str(),
                },
            );
            let back = if r.equipped && uses_rf {
                DegradationState::Healthy
            } else {
                DegradationState::DeadReckoning
            };
            if r.health.transition(now, back) {
                world.telemetry.emit(
                    now,
                    TelemetryEvent::HealthTransition {
                        robot: robot as u32,
                        state: back.as_str(),
                    },
                );
            }
            world.robustness.reboots = world.robustness.reboots.wrapping_add(1);
            // Rejoin the window cycle at the next period boundary.
            if uses_rf {
                let period = world.scenario.beacon_period;
                let next_window = now.saturating_since(SimTime::ZERO).div_duration(period) + 1;
                let at = world.window_start_time(next_window);
                if at < engine.horizon() {
                    let epoch = world.robots[robot].epoch;
                    engine.schedule_at(
                        at,
                        Event::RobotWake {
                            robot,
                            window: next_window,
                            epoch,
                        },
                    );
                }
            }
        }
        Fault::ClockSkewStep { robot, delta_ppm } => {
            world.robots[robot].clock.apply_skew_step(delta_ppm, now);
        }
        Fault::GarbleTxStart { robot } => world.robots[robot].garbled_tx = true,
        Fault::GarbleTxEnd { robot } => world.robots[robot].garbled_tx = false,
        Fault::BeaconOffsetStart { robot, dx_m, dy_m } => {
            world.robots[robot].beacon_offset = Some((dx_m, dy_m));
        }
        Fault::BeaconOffsetEnd { robot } => world.robots[robot].beacon_offset = None,
        Fault::BurstLossStart { model } => {
            // One independent link per receiver, all starting in the good
            // state.
            world.burst = Some(
                world
                    .robots
                    .iter()
                    .map(|_| GilbertElliottLink::new(model))
                    .collect(),
            );
        }
        Fault::BurstLossEnd => world.burst = None,
    }
}
