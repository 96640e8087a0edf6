//! The physical layer of the world: deferred transmissions firing onto
//! the medium, per-receiver channel sampling, reception judgment at the
//! end of each frame's airtime, and dispatch of delivered packets into
//! the localizer or the mesh.

use bytes::Bytes;
use cocoa_localization::bayes::ObservationResult;
use cocoa_localization::grid::BeaconField;
use cocoa_net::geometry::Point;
use cocoa_net::mac::{ReceptionOutcome, TxId};
use cocoa_net::packet::{NodeId, Packet, Payload};
use cocoa_net::rssi::Dbm;
use cocoa_sim::engine::Engine;
use cocoa_sim::faults::garble_bytes;
use cocoa_sim::telemetry::TelemetryEvent;
use cocoa_sim::time::SimTime;

use super::events::{Event, TxIntent};
use super::WorldState;

/// Handles a deferred transmission: materializes the beacon (reading the
/// position at fire time) or releases the prepared mesh packet.
pub(crate) fn transmit_intent(
    engine: &mut Engine<Event>,
    world: &mut WorldState,
    robot: usize,
    intent: TxIntent,
    now: SimTime,
) {
    let packet = match intent {
        TxIntent::Beacon => {
            let r = &world.robots[robot];
            if !r.alive || !r.radio.can_receive() {
                return; // drifted into sleep (or crashed); beacon lost
            }
            let mut pos = r.beacon_position(world.mode(), &world.scenario.area);
            if let Some((dx, dy)) = r.beacon_offset {
                // Faulty localization device: the robot honestly
                // advertises a wrong position.
                pos = Point::new(pos.x + dx, pos.y + dy);
            }
            world.traffic.beacons_sent += 1;
            world.telemetry.emit_full(now, || TelemetryEvent::BeaconTx {
                robot: robot as u32,
                x_m: pos.x,
                y_m: pos.y,
            });
            Packet::new(
                r.id,
                now.as_micros() as u32,
                Payload::Beacon { position: pos },
            )
        }
        TxIntent::Mesh(p) => {
            let r = &world.robots[robot];
            if !r.alive || !r.radio.can_receive() {
                return;
            }
            p
        }
    };
    let scan_span = world.spans.channel_sample;
    transmit(engine, world, robot, packet, now, scan_span);
}

/// Puts `packet` on the air from `robot` and schedules the delivery
/// judgment at the end of its airtime.
pub(crate) fn transmit(
    engine: &mut Engine<Event>,
    world: &mut WorldState,
    robot: usize,
    packet: Packet,
    now: SimTime,
    scan_span: cocoa_sim::telemetry::SpanId,
) {
    // A garbling transmitter corrupts the frame on the air: if the garbled
    // bytes still parse the receivers get a wrong-but-well-formed packet;
    // if not, the frame occupies airtime and reception energy but is
    // dropped at every receiver's decoder.
    let mut packet = packet;
    let mut corrupt = false;
    if world.robots[robot].garbled_tx {
        let mut raw = packet.encode().to_vec();
        garble_bytes(&mut raw, &mut world.fault_rng);
        match Packet::decode(Bytes::from(raw)) {
            Ok(altered) => {
                world.robustness.garbled_frames_delivered += 1;
                packet = altered;
            }
            Err(_) => corrupt = true,
        }
    }
    let bytes = packet.wire_size();
    let src_pos = world.robots[robot].motion.true_position();
    let src_id = world.robots[robot].id;
    world.robots[robot].radio.record_tx(now, bytes);
    let duration = world.robots[robot].radio.tx_duration(bytes);
    let heard = &mut world.rx_buffers.heard;
    heard.clear();
    let detect_horizon = world.channel.max_range() * 1.5;
    let sp = world.telemetry.span_start();
    for j in 0..world.robots.len() {
        if j == robot || !world.robots[j].radio.can_receive() {
            continue;
        }
        let d = src_pos.distance_to(world.robots[j].motion.true_position());
        // Written to also skip a NaN distance (a corrupt restored pose).
        if !(d > 0.0 && d <= detect_horizon) {
            continue;
        }
        let rssi = world.channel.sample_rssi(d, &mut world.channel_rng);
        if !world.channel.is_detectable(rssi) {
            continue;
        }
        // Unmodelled losses (obstructions, interference bursts).
        if world.scenario.packet_loss > 0.0
            && rand::Rng::gen_bool(&mut world.channel_rng, world.scenario.packet_loss)
        {
            continue;
        }
        // Injected Gilbert–Elliott burst loss on this receiver's link.
        if let Some(links) = world.burst.as_mut() {
            if links[j].drops(&mut world.fault_rng) {
                world.robustness.burst_losses += 1;
                continue;
            }
        }
        heard.push((world.robots[j].id, rssi));
    }
    world.telemetry.span_end(scan_span, sp);
    let tx = world.medium.begin_tx(
        src_id,
        src_pos,
        packet,
        now,
        duration,
        heard.iter().copied(),
    );
    if corrupt {
        world.corrupt_txs.insert(tx);
    }
    engine.schedule_at(now + duration, Event::TxEnd { tx });
}

/// Judges every reception of frame `tx` in one pass over the medium and
/// dispatches delivered packets. A robot's node id is its index in the
/// team, so a receiver names its robot.
pub(crate) fn deliver(engine: &mut Engine<Event>, world: &mut WorldState, tx: TxId, now: SimTime) {
    let corrupt = world.corrupt_txs.remove(&tx);
    let mut verdicts = std::mem::take(&mut world.rx_buffers.verdicts);
    if let Some(packet) = world.medium.judge(tx, &mut verdicts).cloned() {
        if let Payload::Beacon { position } = packet.payload {
            // Every receiver of this frame measures distances from one
            // position: the first Bayes update fills the field, the rest
            // read it.
            world.rx_buffers.field.reset(position);
        }
        let bytes = packet.wire_size();
        for &(rx, verdict) in &verdicts {
            let ReceptionOutcome::Delivered { rssi } = verdict else {
                continue; // collided or half-duplex
            };
            let j = rx.0 as usize;
            if !world.robots[j].radio.can_receive() {
                continue; // fell asleep mid-frame
            }
            world.robots[j].radio.record_rx(now, bytes);
            if corrupt {
                // The frame arrived but its bytes no longer parse: the
                // receiver paid the energy and drops it at the decoder.
                world.robustness.corrupt_frames_dropped += 1;
                continue;
            }
            dispatch(engine, world, j, &packet, rssi, now);
        }
    }
    world.rx_buffers.verdicts = verdicts;
}

/// Buffers the reception path reuses from frame to frame. They hold
/// nothing between events, so snapshots do not store them.
#[derive(Default)]
pub(crate) struct RxBuffers {
    /// The robots that heard the frame going on the air, with its RSSI
    /// at each.
    heard: Vec<(NodeId, Dbm)>,
    /// One verdict per receiver of the frame being judged.
    verdicts: Vec<(NodeId, ReceptionOutcome)>,
    /// The distance field of the beacon frame being delivered.
    field: BeaconField,
}

/// Routes a delivered packet to the localizer or the mesh node.
fn dispatch(
    engine: &mut Engine<Event>,
    world: &mut WorldState,
    robot: usize,
    packet: &Packet,
    rssi: Dbm,
    now: SimTime,
) {
    match &packet.payload {
        Payload::Beacon { .. } => {
            let gate = world.scenario.outlier_gate_m;
            let mode = world.mode();
            let area = world.scenario.area;
            // The robot's own current estimate anchors the consistency
            // check: a beacon whose claimed range disagrees wildly with
            // the RSSI-implied range is rejected as an outlier.
            let reference = {
                let r = &world.robots[robot];
                r.last_fix_window.is_some().then(|| r.estimate(mode, &area))
            };
            world
                .telemetry
                .hist_record(world.hists.beacon_rssi, rssi.value());
            let r = &mut world.robots[robot];
            if let Some(rf) = r.rf.as_mut() {
                world.traffic.beacons_received += 1;
                let sp = world.telemetry.span_start();
                let result = rf.observe_beacon(
                    &world.calibration.table,
                    &world.radial,
                    &mut world.rx_buffers.field,
                    rssi,
                    reference,
                    gate,
                );
                world.telemetry.span_end(world.spans.grid_update, sp);
                if result == ObservationResult::Outlier {
                    world.robustness.outlier_beacons_rejected += 1;
                }
                let outcome = match result {
                    ObservationResult::Applied => "applied",
                    ObservationResult::Outlier => "outlier",
                    ObservationResult::Rejected => "rejected",
                    ObservationResult::NoPdf => "no_pdf",
                };
                let from = packet.src.0;
                world.telemetry.emit_full(now, || TelemetryEvent::BeaconRx {
                    robot: robot as u32,
                    from,
                    rssi_dbm: rssi.value(),
                    outcome,
                });
                if result == ObservationResult::Applied {
                    world
                        .telemetry
                        .emit_full(now, || TelemetryEvent::GridUpdate {
                            robot: robot as u32,
                        });
                }
            }
        }
        Payload::Sync { .. } => {
            // Direct SYNC payloads are not used by the runner (SYNC rides
            // as mesh data) but remain valid protocol traffic.
        }
        _ => {
            super::mesh::handle_mesh_packet(engine, world, robot, packet, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use cocoa_localization::estimator::RfAlgorithm;
    use cocoa_localization::grid::beacon_field_fills;
    use cocoa_net::calibration::radial_profile_builds;
    use cocoa_sim::telemetry::{Telemetry, TelemetryEvent, TelemetryLevel};
    use cocoa_sim::time::SimDuration;

    use crate::scenario::Scenario;
    use crate::world::{run, run_with_telemetry};

    /// A beacon frame's cell distances are computed once, by its first
    /// Bayes receiver's update; every later receiver reads them.
    #[test]
    fn deliver_fills_one_field_per_beacon_frame_with_bayes_receivers() {
        let mut b = Scenario::builder();
        b.robots(12)
            .equipped(4)
            .duration(SimDuration::from_secs(300));
        let fills = beacon_field_fills();
        let (_, telemetry) = run_with_telemetry(&b.build(), Telemetry::new(TelemetryLevel::Full));
        let fills = beacon_field_fills() - fills;
        // A frame is its source and the instant its airtime ended.
        let mut frames = BTreeSet::new();
        let mut applied = 0;
        for e in telemetry.events() {
            if let TelemetryEvent::BeaconRx {
                from,
                outcome: "applied",
                ..
            } = e.event
            {
                frames.insert((e.t_us, from));
                applied += 1;
            }
        }
        // No grid update was rejected as degenerate, so the frames above
        // are every frame that updated a grid.
        assert_eq!(telemetry.counters().get("grid.kernel.simd"), Some(applied));
        assert_eq!(fills, frames.len() as u64);
        assert!(
            applied > 2 * fills,
            "receivers share fields: {applied} updates, {fills} fills"
        );
    }

    /// The gridless estimators read only a beacon's position: a
    /// paper-scale run fills no field and samples no radial profile.
    #[test]
    fn gridless_runs_fill_no_field_and_build_no_profile() {
        for algorithm in [RfAlgorithm::Ekf, RfAlgorithm::Multilateration] {
            let scenario = Scenario::builder().rf_algorithm(algorithm).build();
            let (fills, builds) = (beacon_field_fills(), radial_profile_builds());
            let metrics = run(&scenario);
            assert!(metrics.traffic.beacons_received > 0, "{algorithm}");
            assert_eq!(beacon_field_fills(), fills, "{algorithm}");
            assert_eq!(radial_profile_builds(), builds, "{algorithm}");
        }
    }
}
