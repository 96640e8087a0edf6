//! The coordination timeline: global window starts on the Sync robot's
//! reference clock, each robot's local wake-up, and the end-of-window
//! fix/sync/sleep processing (paper Fig. 2).

use cocoa_localization::estimator::{EstimatorMode, WindowOutcome};
use cocoa_mobility::pose::{normalize_angle, Pose};
use cocoa_net::energy::PowerState;
use cocoa_sim::dist::uniform;
use cocoa_sim::engine::Engine;
use cocoa_sim::telemetry::TelemetryEvent;
use cocoa_sim::time::{SimDuration, SimTime};

use crate::health::DegradationState;
use crate::robot::FixAnchor;
use crate::sync::SyncMessage;

use super::events::{Event, TxIntent};
use super::{WorldState, BEACON_LEAD_IN, QUERY_OFFSET, SYNC_OFFSET};

/// Handles a global window start: schedules the next period and, when
/// synchronization is on, has the Sync robot refresh the mesh and
/// disseminate SYNC (paper Fig. 3).
pub(crate) fn window_start(
    engine: &mut Engine<Event>,
    world: &mut WorldState,
    index: u64,
    now: SimTime,
) {
    world
        .telemetry
        .emit(now, TelemetryEvent::WindowStart { window: index });
    // Schedule the next period on the reference timeline.
    let next = world.window_start_time(index + 1);
    if next < engine.horizon() {
        engine.schedule_at(next, Event::WindowStart { index: index + 1 });
    }
    // The Sync robot refreshes the mesh and disseminates SYNC.
    if world.scenario.sync_enabled {
        // Failover: after K consecutive silent periods the team
        // deterministically elects a new timebase (first alive
        // equipped robot, else first alive robot). The runner
        // models the election centrally; every robot observes the
        // same K missed SYNCs, so a distributed election over the
        // mesh would pick the same winner.
        if world.robots[world.sync_robot].alive {
            world.sync_dead_windows = 0;
        } else {
            world.sync_dead_windows += 1;
            if world.sync_dead_windows >= world.scenario.failover_missed_periods {
                let elected = world
                    .robots
                    .iter()
                    .position(|r| r.alive && r.equipped)
                    .or_else(|| world.robots.iter().position(|r| r.alive));
                if let Some(new_sync) = elected {
                    world.sync_robot = new_sync;
                    world.sync_dead_windows = 0;
                    world.robustness.failovers += 1;
                    world.telemetry.emit(
                        now,
                        TelemetryEvent::Failover {
                            new_sync: new_sync as u32,
                        },
                    );
                }
            }
        }
        if !world.robots[world.sync_robot].alive {
            return; // no live timebase yet; the period goes silent
        }
        let s = world.sync_robot;
        let mode = world.mode();
        let area = world.scenario.area;
        let info = world.robots[s].mobility_info(mode, &area);
        // Backends without a control plane (flooding) skip the refresh.
        if let Some(query) = world.robots[s].mesh.originate_query(now, &info) {
            engine.schedule_in(
                QUERY_OFFSET,
                Event::Transmit {
                    robot: s,
                    intent: TxIntent::Mesh(query),
                },
            );
        }
        let sync = SyncMessage {
            period_us: world.scenario.beacon_period.as_micros(),
            window_us: world.scenario.transmit_window.as_micros(),
            window_index: index,
            window_start_us: now.as_micros(),
        };
        let data = world.robots[s].mesh.originate_data(now, sync.encode());
        engine.schedule_in(
            SYNC_OFFSET,
            Event::Transmit {
                robot: s,
                intent: TxIntent::Mesh(data),
            },
        );
        // The Sync robot trivially hears its own schedule.
        world.robots[s].synced_this_window = true;
    }
}

pub(crate) fn robot_wake(
    engine: &mut Engine<Event>,
    world: &mut WorldState,
    robot: usize,
    window: u64,
    epoch: u32,
    now: SimTime,
) {
    if !world.robots[robot].alive || world.robots[robot].epoch != epoch {
        return; // stale wake from a life that ended in a crash
    }
    let window_start = world.window_start_time(window);
    let scenario_window = world.scenario.transmit_window;
    let beacons = world.beacons_in_window(robot, window);
    {
        let r = &mut world.robots[robot];
        let prev = r.radio.state();
        if world.scenario.coordination || prev != PowerState::Idle {
            r.radio.set_state(now, PowerState::Idle);
            if prev != PowerState::Idle {
                world.telemetry.emit(
                    now,
                    TelemetryEvent::RadioState {
                        robot: robot as u32,
                        state: PowerState::Idle.as_str(),
                    },
                );
            }
        }
        r.synced_this_window = robot == world.sync_robot && world.scenario.sync_enabled;
        let odo = r.motion.odometry_pose().position;
        if let Some(rf) = r.rf.as_mut() {
            // Odometry-integrating backends (the EKF) run their prediction
            // step over the displacement dead-reckoned since the last wake;
            // window-reset backends ignore the report.
            rf.note_odometry(odo);
            rf.begin_window();
        }
    }
    // Schedule this robot's beacons, spread over the window with jitter.
    if beacons {
        let k = world.scenario.beacons_per_window;
        let usable = scenario_window - BEACON_LEAD_IN;
        let slot = usable / u64::from(k);
        for i in 0..k {
            let jitter = uniform(
                0.0,
                (slot.as_secs_f64() * 0.8).max(1e-4),
                &mut world.jitter_rng,
            );
            let intended = window_start
                + BEACON_LEAD_IN
                + slot * u64::from(i)
                + SimDuration::from_secs_f64(jitter);
            let fire = world.robots[robot].clock.actual_fire_time(intended, now);
            if fire < engine.horizon() {
                engine.schedule_at(
                    fire,
                    Event::Transmit {
                        robot,
                        intent: TxIntent::Beacon,
                    },
                );
            }
        }
    }
    // Schedule the end-of-window processing.
    let intended_end = window_start + scenario_window + world.scenario.guard_band;
    let fire = world.robots[robot]
        .clock
        .actual_fire_time(intended_end, now);
    if fire <= engine.horizon() {
        engine.schedule_at(
            fire,
            Event::RobotWindowEnd {
                robot,
                window,
                epoch,
            },
        );
    } else {
        // The run ends mid-window; the finalizer will checkpoint energy.
    }
}

pub(crate) fn robot_window_end(
    engine: &mut Engine<Event>,
    world: &mut WorldState,
    robot: usize,
    window: u64,
    epoch: u32,
    now: SimTime,
) {
    if !world.robots[robot].alive || world.robots[robot].epoch != epoch {
        return; // stale window-end from a life that ended in a crash
    }
    let mode = world.mode();
    let watchdog = world.scenario.entropy_watchdog_frac;
    {
        let r = &mut world.robots[robot];
        // Close the RF window and process the fix.
        if let Some(rf) = r.rf.as_mut() {
            let had_window = rf.in_window();
            let sp = world.telemetry.span_start();
            let outcome = rf.end_window_guarded(watchdog);
            world.telemetry.span_end(world.spans.grid_fix, sp);
            match outcome {
                WindowOutcome::Fix(fix) => {
                    r.last_fix_window = Some(window);
                    world.traffic.fixes += 1;
                    world.telemetry.hist_record(
                        world.hists.fix_err,
                        r.motion.true_position().distance_to(fix),
                    );
                    world.telemetry.emit(
                        now,
                        TelemetryEvent::Fix {
                            robot: robot as u32,
                            window,
                            x_m: fix.x,
                            y_m: fix.y,
                            err_m: r.motion.true_position().distance_to(fix),
                        },
                    );
                    if mode == EstimatorMode::Cocoa {
                        // RF fixes position; heading is re-anchored from the
                        // displacement observed between consecutive fixes.
                        let odo_pose = r.motion.odometry_pose();
                        let mut heading = odo_pose.heading;
                        if let Some(anchor) = r.fix_anchor {
                            let d_fix = fix - anchor.fix;
                            let d_odo = odo_pose.position - anchor.odo_at_fix;
                            // Short displacements make the bearing comparison
                            // noisier than the heading error it would fix.
                            if d_fix.norm() > 10.0 && d_odo.norm() > 10.0 {
                                heading -= normalize_angle(d_odo.angle() - d_fix.angle());
                            }
                        }
                        r.fix_anchor = Some(FixAnchor {
                            fix,
                            odo_at_fix: odo_pose.position,
                        });
                        r.motion.reset_odometry_to(Pose::new(fix, heading));
                        // The odometry frame just jumped to the fix;
                        // odometry-integrating backends must re-anchor so the
                        // jump is not mistaken for motion.
                        rf.reanchor_odometry(fix);
                    }
                }
                WindowOutcome::FlatPosterior { entropy, threshold } => {
                    // The entropy watchdog vetoed a near-uniform posterior:
                    // the robot keeps dead-reckoning from its previous fix
                    // rather than jumping to an uninformative centroid.
                    world.robustness.flat_posteriors += 1;
                    world.telemetry.emit(
                        now,
                        TelemetryEvent::FlatPosterior {
                            robot: robot as u32,
                            window,
                            entropy,
                            threshold,
                        },
                    );
                }
                WindowOutcome::NoFix => {
                    if had_window {
                        // Fewer than the minimum beacons arrived: the robot
                        // keeps its previous estimate (paper Section 2.3).
                        world.traffic.starved_windows += 1;
                        world.telemetry.emit(
                            now,
                            TelemetryEvent::StarvedWindow {
                                robot: robot as u32,
                                window,
                            },
                        );
                    }
                }
            }
        }
        // Degradation bookkeeping: a fresh fix means healthy; a recent one
        // means degraded (coasting on odometry); anything older is pure
        // dead reckoning. Equipped robots stay healthy.
        if r.rf.is_some() {
            let state = match r.last_fix_window {
                Some(w) if w == window => DegradationState::Healthy,
                Some(w) if window.saturating_sub(w) <= 2 => DegradationState::Degraded,
                _ => DegradationState::DeadReckoning,
            };
            if r.health.transition(now, state) {
                world.telemetry.emit(
                    now,
                    TelemetryEvent::HealthTransition {
                        robot: robot as u32,
                        state: state.as_str(),
                    },
                );
            }
        }
        // Synchronization accounting.
        if world.scenario.sync_enabled {
            if r.synced_this_window {
                world.traffic.syncs_delivered += 1;
                world.telemetry.emit(
                    now,
                    TelemetryEvent::SyncDelivered {
                        robot: robot as u32,
                        window,
                    },
                );
            } else {
                r.clock.note_missed_sync();
                world.traffic.syncs_missed += 1;
                world.telemetry.emit(
                    now,
                    TelemetryEvent::SyncMissed {
                        robot: robot as u32,
                        window,
                    },
                );
            }
        }
        // Sleep until the next window.
        if world.scenario.coordination {
            r.radio.set_state(now, PowerState::Sleep);
            world.telemetry.emit(
                now,
                TelemetryEvent::RadioState {
                    robot: robot as u32,
                    state: PowerState::Sleep.as_str(),
                },
            );
        }
    }
    // Schedule the next wake on the robot's local clock.
    let next_window = window + 1;
    let next_start = world.window_start_time(next_window);
    if next_start >= engine.horizon() {
        return;
    }
    let s = &world.scenario;
    let max_guard = (s.beacon_period / 4).max(s.guard_band);
    let guard = world.robots[robot]
        .clock
        .effective_guard(s.guard_band, max_guard);
    let intended = next_start - guard.min(next_start.saturating_since(SimTime::ZERO));
    let fire = world.robots[robot].clock.actual_fire_time(intended, now);
    engine.schedule_at(
        fire.min(engine.horizon()),
        Event::RobotWake {
            robot,
            window: next_window,
            epoch,
        },
    );
}
