//! Metric observation and end-of-run finalization: the periodic error
//! series, per-robot timeline samples, error snapshots, and the folding of
//! every accumulator into [`RunMetrics`] plus the telemetry counter
//! registry.

use cocoa_localization::estimator::RfAlgorithm;
use cocoa_multicast::mesh::MeshStats;
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_sim::engine::Engine;
use cocoa_sim::telemetry::TelemetryEvent;
use cocoa_sim::time::SimTime;

use crate::metrics::{EnergyReport, ErrorPoint, ErrorSnapshot, RobotFinalState, RunMetrics};

use super::events::Event;
use super::WorldState;

/// Handles a periodic metrics sample and reschedules the next one.
pub(crate) fn metrics_sample(engine: &mut Engine<Event>, world: &mut WorldState, now: SimTime) {
    let mode = world.mode();
    let area = world.scenario.area;
    let mut sum = 0.0;
    let mut n = 0usize;
    for r in &world.robots {
        if r.alive && r.reports_error(mode) {
            let err = r.localization_error(mode, &area);
            world.telemetry.hist_record(world.hists.robot_error, err);
            sum += err;
            n += 1;
        }
        if r.alive {
            if let Some(frac) = r.rf.as_ref().and_then(|rf| rf.entropy_fraction()) {
                world.telemetry.hist_record(world.hists.entropy_frac, frac);
            }
        }
    }
    world
        .telemetry
        .hist_record(world.hists.queue_depth, engine.pending() as f64);
    if n > 0 {
        world
            .telemetry
            .hist_record(world.hists.team_error, sum / n as f64);
        world.error_series.push(ErrorPoint {
            t_s: now.as_secs_f64(),
            mean_error_m: sum / n as f64,
            robots: n,
        });
        // The team sample mirrors the error point exactly (same
        // expression, same operands) so traces reconstruct the
        // metrics curve bit-for-bit.
        if world.telemetry.wants_events() {
            let energy_j: f64 = world
                .robots
                .iter()
                .map(|r| r.radio.peek_ledger(now).total_j())
                .sum();
            world.telemetry.emit(
                now,
                TelemetryEvent::TeamSample {
                    mean_err_m: sum / n as f64,
                    robots: n as u32,
                    energy_j,
                },
            );
        }
    }
    // Per-robot timelines ride the metrics tick (no extra engine
    // events, so `events_processed` is telemetry-invariant) but
    // thin out to the configured sampling interval.
    if world.telemetry.wants_events() {
        let due = world.next_robot_sample.is_none_or(|t| now >= t);
        if due {
            let interval = world
                .telemetry
                .sample_interval()
                .unwrap_or(world.scenario.metrics_interval);
            world.next_robot_sample = Some(now + interval);
            for (i, r) in world.robots.iter().enumerate() {
                let true_pos = r.motion.true_position();
                let est = r.estimate(mode, &area);
                world.telemetry.emit(
                    now,
                    TelemetryEvent::RobotSample {
                        robot: i as u32,
                        true_x_m: true_pos.x,
                        true_y_m: true_pos.y,
                        est_x_m: est.x,
                        est_y_m: est.y,
                        err_m: r.localization_error(mode, &area),
                        entropy_frac: r.rf.as_ref().and_then(|rf| rf.entropy_fraction()),
                        energy_j: r.radio.peek_ledger(now).total_j(),
                        radio: r.radio.state().as_str(),
                        health: r.health.state().as_str(),
                    },
                );
            }
        }
    }
    engine.schedule_in(world.scenario.metrics_interval, Event::MetricsSample);
}

/// Records the per-robot error snapshot at `index` (Fig. 8 CDFs).
pub(crate) fn snapshot(world: &mut WorldState, index: usize) {
    let mode = world.mode();
    let area = world.scenario.area;
    let errors: Vec<f64> = world
        .robots
        .iter()
        .filter(|r| r.alive && r.reports_error(mode))
        .map(|r| r.localization_error(mode, &area))
        .collect();
    let time = world.snapshots[index].time;
    world.snapshots[index] = ErrorSnapshot::new(time, errors);
    let states: Vec<RobotFinalState> = world
        .robots
        .iter()
        .map(|r| RobotFinalState {
            true_position: r.motion.true_position(),
            estimate: r.estimate(mode, &area),
            equipped: r.equipped,
        })
        .collect();
    world.position_snapshots.push((time, states));
}

/// Per-estimator-backend counter namespaces, in
/// [`cocoa_localization::estimator::WindowStats::counters`] order.
///
/// [`cocoa_sim::telemetry::Telemetry::absorb`] interns `&'static str`
/// names, so the three namespaces are spelled out instead of formatted.
fn estimator_counter_names(algorithm: RfAlgorithm) -> &'static [&'static str; 6] {
    match algorithm {
        RfAlgorithm::Bayes => &[
            "estimator.bayes.windows",
            "estimator.bayes.fixes",
            "estimator.bayes.flat_windows",
            "estimator.bayes.beacons_seen",
            "estimator.bayes.beacons_applied",
            "estimator.bayes.beacons_rejected_outlier",
        ],
        RfAlgorithm::Multilateration => &[
            "estimator.multilateration.windows",
            "estimator.multilateration.fixes",
            "estimator.multilateration.flat_windows",
            "estimator.multilateration.beacons_seen",
            "estimator.multilateration.beacons_applied",
            "estimator.multilateration.beacons_rejected_outlier",
        ],
        RfAlgorithm::Ekf => &[
            "estimator.ekf.windows",
            "estimator.ekf.fixes",
            "estimator.ekf.flat_windows",
            "estimator.ekf.beacons_seen",
            "estimator.ekf.beacons_applied",
            "estimator.ekf.beacons_rejected_outlier",
        ],
    }
}

/// Per-backend counter namespaces, in [`MeshStats::counters`] order.
///
/// [`cocoa_sim::telemetry::Telemetry::absorb`] interns `&'static str`
/// names, so the three namespaces are spelled out instead of formatted.
fn backend_counter_names(protocol: MulticastProtocol) -> &'static [&'static str; 10] {
    match protocol {
        MulticastProtocol::Flood => &[
            "mesh.flood.queries_originated",
            "mesh.flood.queries_rebroadcast",
            "mesh.flood.queries_suppressed",
            "mesh.flood.replies_sent",
            "mesh.flood.fg_activations",
            "mesh.flood.data_originated",
            "mesh.flood.data_forwarded",
            "mesh.flood.data_delivered",
            "mesh.flood.data_duplicates",
            "mesh.flood.data_undecodable",
        ],
        MulticastProtocol::Odmrp => &[
            "mesh.odmrp.queries_originated",
            "mesh.odmrp.queries_rebroadcast",
            "mesh.odmrp.queries_suppressed",
            "mesh.odmrp.replies_sent",
            "mesh.odmrp.fg_activations",
            "mesh.odmrp.data_originated",
            "mesh.odmrp.data_forwarded",
            "mesh.odmrp.data_delivered",
            "mesh.odmrp.data_duplicates",
            "mesh.odmrp.data_undecodable",
        ],
        MulticastProtocol::Mrmm => &[
            "mesh.mrmm.queries_originated",
            "mesh.mrmm.queries_rebroadcast",
            "mesh.mrmm.queries_suppressed",
            "mesh.mrmm.replies_sent",
            "mesh.mrmm.fg_activations",
            "mesh.mrmm.data_originated",
            "mesh.mrmm.data_forwarded",
            "mesh.mrmm.data_delivered",
            "mesh.mrmm.data_duplicates",
            "mesh.mrmm.data_undecodable",
        ],
    }
}

/// Folds every accumulator into the final [`RunMetrics`] and absorbs the
/// lifetime statistics of every subsystem into the unified counter
/// registry (no-op below `Counters`).
pub(crate) fn finalize(
    world: &mut WorldState,
    engine: &Engine<Event>,
    horizon: SimTime,
) -> RunMetrics {
    let mut per_robot = Vec::with_capacity(world.robots.len());
    let mut mesh = MeshStats::default();
    let mut final_states = Vec::with_capacity(world.robots.len());
    for r in &mut world.robots {
        per_robot.push(r.radio.finalize(horizon));
        mesh.merge(&r.mesh.stats());
    }
    for r in &world.robots {
        final_states.push(RobotFinalState {
            true_position: r.motion.true_position(),
            estimate: r.estimate(world.scenario.mode, &world.scenario.area),
            equipped: r.equipped,
        });
    }
    world.traffic.collisions = world.medium.collisions();
    let health = world
        .robots
        .iter()
        .map(|r| r.health.finalize(horizon))
        .collect();

    if world.telemetry.wants_counters() {
        let t = &mut world.telemetry;
        let tr = &world.traffic;
        t.absorb("traffic.beacons_sent", tr.beacons_sent);
        t.absorb("traffic.beacons_received", tr.beacons_received);
        t.absorb("traffic.collisions", tr.collisions);
        t.absorb("traffic.syncs_delivered", tr.syncs_delivered);
        t.absorb("traffic.syncs_missed", tr.syncs_missed);
        t.absorb("traffic.fixes", tr.fixes);
        t.absorb("traffic.starved_windows", tr.starved_windows);
        let ro = &world.robustness;
        t.absorb("robustness.crashes", ro.crashes);
        t.absorb("robustness.reboots", ro.reboots);
        t.absorb("robustness.failovers", ro.failovers);
        t.absorb("robustness.burst_losses", ro.burst_losses);
        t.absorb(
            "robustness.corrupt_frames_dropped",
            ro.corrupt_frames_dropped,
        );
        t.absorb(
            "robustness.garbled_frames_delivered",
            ro.garbled_frames_delivered,
        );
        t.absorb(
            "robustness.outlier_beacons_rejected",
            ro.outlier_beacons_rejected,
        );
        t.absorb("robustness.flat_posteriors", ro.flat_posteriors);
        // Grid kernel accounting: only counters that actually fired are
        // emitted, so an unfused run carries no `grid.*fused*` rows.
        let mut gs = cocoa_localization::bayes::GridStats::default();
        for r in &world.robots {
            if let Some(rf) = r.rf.as_ref() {
                gs.absorb(&rf.grid_stats());
            }
        }
        for (name, value) in [
            ("grid.kernel.simd", gs.kernel_simd),
            ("grid.kernel.fused", gs.kernel_fused),
            ("grid.fused_windows", gs.fused_windows),
            ("grid.cells_touched", gs.cells_touched),
        ] {
            if value > 0 {
                t.absorb(name, value);
            }
        }
        t.absorb("robustness.stale_syncs_ignored", ro.stale_syncs_ignored);
        t.absorb("robustness.malformed_sync_bodies", ro.malformed_sync_bodies);
        // Estimator backend accounting: the `estimator.<backend>.*`
        // namespace names the solver that actually ran, so ablation sweeps
        // over RF backends stay attributable, mirroring `mesh.<backend>.*`.
        let mut ws = cocoa_localization::estimator::WindowStats::default();
        let (mut ekf_applied, mut ekf_gated) = (0u64, 0u64);
        let mut any_ekf = false;
        for r in &world.robots {
            if let Some(rf) = r.rf.as_ref() {
                ws.absorb(&rf.stats());
                if let Some((applied, gated)) = rf.ekf_counters() {
                    any_ekf = true;
                    ekf_applied += applied;
                    ekf_gated += gated;
                }
            }
        }
        let names = estimator_counter_names(world.scenario.rf_algorithm);
        for ((short, value), name) in ws.counters().iter().zip(names) {
            debug_assert!(name.ends_with(short), "{name} out of order vs {short}");
            t.absorb(name, *value);
        }
        if any_ekf {
            t.absorb("estimator.ekf.updates_applied", ekf_applied);
            t.absorb("estimator.ekf.updates_gated", ekf_gated);
        }
        // The flat `mesh.*` namespace stays for backwards compatibility;
        // the `mesh.<backend>.*` namespace names the transport that
        // actually ran, so multi-backend sweeps stay attributable.
        t.absorb("mesh.queries_originated", mesh.queries_originated);
        t.absorb("mesh.queries_rebroadcast", mesh.queries_rebroadcast);
        t.absorb("mesh.queries_suppressed", mesh.queries_suppressed);
        t.absorb("mesh.replies_sent", mesh.replies_sent);
        t.absorb("mesh.fg_activations", mesh.fg_activations);
        t.absorb("mesh.data_originated", mesh.data_originated);
        t.absorb("mesh.data_forwarded", mesh.data_forwarded);
        t.absorb("mesh.data_delivered", mesh.data_delivered);
        t.absorb("mesh.data_duplicates", mesh.data_duplicates);
        t.absorb("mesh.data_undecodable", mesh.data_undecodable);
        let names = backend_counter_names(world.scenario.multicast);
        for ((short, value), name) in mesh.counters().iter().zip(names) {
            debug_assert!(name.ends_with(short), "{name} out of order vs {short}");
            t.absorb(name, *value);
        }
        t.absorb("mac.half_duplex", world.medium.half_duplex());
        t.absorb("engine.events_processed", engine.events_processed());
        t.absorb("engine.peak_pending", engine.peak_pending() as u64);
        let (mut wakes, mut sent, mut received) = (0u64, 0u64, 0u64);
        for r in &world.robots {
            wakes += u64::from(r.radio.wake_count());
            sent += u64::from(r.radio.packets_sent());
            received += u64::from(r.radio.packets_received());
        }
        t.absorb("radio.wakes", wakes);
        t.absorb("radio.packets_sent", sent);
        t.absorb("radio.packets_received", received);
        // The legacy string trace reports its ring-buffer drops here too,
        // so a bounded trace never evicts silently.
        if let Some(trace) = t.legacy_trace() {
            let (emitted, dropped) = (trace.emitted(), trace.dropped());
            t.absorb("trace.emitted", emitted);
            t.absorb("trace.dropped", dropped);
        }
        let (emitted, dropped) = (t.events_emitted(), t.dropped_events());
        t.absorb("telemetry.events_emitted", emitted);
        t.absorb("telemetry.events_dropped", dropped);
    }

    RunMetrics {
        error_series: std::mem::take(&mut world.error_series),
        snapshots: std::mem::take(&mut world.snapshots),
        energy: EnergyReport { per_robot },
        mesh,
        traffic: world.traffic,
        final_states,
        position_snapshots: std::mem::take(&mut world.position_snapshots),
        robustness: world.robustness,
        health,
        events_processed: engine.events_processed(),
    }
}
