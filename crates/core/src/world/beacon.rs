//! The physical layer of the world: deferred transmissions firing onto
//! the medium, per-receiver channel sampling, reception judgment at the
//! end of each frame's airtime, and dispatch of delivered packets into
//! the localizer or the mesh; and the flush that applies the Bayes
//! beacons a window logged to their receivers' posteriors.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

use bytes::Bytes;
use cocoa_localization::batch::BeaconLog;
use cocoa_localization::estimator::ObservationResult;
use cocoa_localization::grid::{BeaconField, GridConfig};
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
            world.traffic.beacons_sent = world.traffic.beacons_sent.wrapping_add(1);
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
                world.robustness.garbled_frames_delivered =
                    world.robustness.garbled_frames_delivered.wrapping_add(1);
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
                world.robustness.burst_losses = world.robustness.burst_losses.wrapping_add(1);
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
                world.robustness.corrupt_frames_dropped =
                    world.robustness.corrupt_frames_dropped.wrapping_add(1);
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
}

/// The Bayes beacons delivered since the last flush, and the distance
/// fields a flush lends its workers. Like [`RxBuffers`], it holds nothing
/// a snapshot needs: a capture flushes first.
pub(crate) struct PendingBeacons {
    /// Each Bayes reception since the last flush, by frame, the receiver
    /// named by its robot index.
    pub(crate) log: BeaconLog,
    /// One distance field per worker, kept across flushes so workers
    /// allocate nothing.
    fields: Vec<BeaconField>,
    /// Cells of every robot's posterior.
    cells: usize,
    /// The worker count every flush uses, in place of the spare cores.
    #[cfg(test)]
    pub(crate) fixed_workers: Option<usize>,
}

/// Cell updates (grid updates times cells per grid) a flush must carry
/// before it spawns a worker. With the second core of a 2-vCPU host idle,
/// a two-worker flush breaks even near 7·10⁴ (seven paper-scale grid
/// updates); the threshold sits higher so that a served 8-robot window
/// (at most 4 × 3 × 4 = 48 updates of 10⁴ cells, about 5·10⁵) stays on
/// the simulation's thread, which `serve_mixed` measured at no cost
/// (DESIGN.md, "Grid kernel").
const MIN_FANOUT_CELL_UPDATES: usize = 1_000_000;

/// The cores this process may run on, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

impl PendingBeacons {
    pub(crate) fn new(grid: &GridConfig) -> Self {
        let (nx, ny) = grid.dims();
        PendingBeacons {
            log: BeaconLog::new(),
            fields: Vec::new(),
            cells: nx * ny,
            #[cfg(test)]
            fixed_workers: None,
        }
    }

    /// Workers for a flush of the logged beacons: the simulation's own
    /// thread, plus one per core that no live simulation in the process
    /// is using once the flush is large enough to pay for the spawns.
    fn workers(&self, robots: usize) -> usize {
        #[cfg(test)]
        if let Some(workers) = self.fixed_workers {
            return workers;
        }
        if self.log.len() * self.cells < MIN_FANOUT_CELL_UPDATES {
            return 1;
        }
        let spare = cores().saturating_sub(super::live_simulations());
        (1 + spare).min(robots.max(1))
    }
}

/// Applies every logged Bayes beacon to its receiver's posterior, each
/// receiver's in arrival order. Runs before anything reads or resets a
/// posterior; a flush that comes earlier than it must changes no bit,
/// since each receiver's updates keep their order. The flush's wall time
/// goes to the `grid.update` span, counted once per update.
pub(crate) fn flush(world: &mut WorldState) {
    let pending = &mut world.pending;
    if pending.log.is_empty() {
        return;
    }
    let workers = pending.workers(world.robots.len());
    let cells = pending.cells;
    if pending.fields.len() < workers {
        pending.fields.resize_with(workers, BeaconField::default);
    }
    for field in &mut pending.fields[..workers] {
        field.reserve(cells);
    }
    let sp = world.telemetry.span_start();
    let grids = world
        .robots
        .iter_mut()
        .map(|r| r.rf.as_mut().and_then(|rf| rf.batch()))
        .collect();
    let applied = pending
        .log
        .apply(grids, &world.radial, &mut pending.fields[..workers]);
    world
        .telemetry
        .span_end_n(world.spans.grid_update, sp, applied as u64);
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
        Payload::Beacon { position } => {
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
                world.traffic.beacons_received = world.traffic.beacons_received.wrapping_add(1);
                let admission = rf.admit_beacon(
                    &world.calibration.table,
                    &world.radial,
                    *position,
                    rssi,
                    reference,
                    gate,
                );
                // A Bayes beacon's grid update waits for the next flush;
                // it is reported applied now, which it will be.
                if let Some(bin) = admission.constraint {
                    world.pending.log.push(*position, robot, bin);
                }
                let result = admission.result;
                if result == ObservationResult::Outlier {
                    world.robustness.outlier_beacons_rejected =
                        world.robustness.outlier_beacons_rejected.wrapping_add(1);
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
    use cocoa_localization::batch::batch_worker_spawns;
    use cocoa_localization::estimator::RfAlgorithm;
    use cocoa_net::calibration::radial_profile_builds;
    use cocoa_sim::engine::Engine;
    use cocoa_sim::faults::FaultPlan;
    use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};
    use cocoa_sim::time::{SimDuration, SimTime};

    use super::flush;
    use crate::executor::manifest::encode_metrics;
    use crate::scenario::Scenario;
    use crate::world::checkpoint::SimRun;
    use crate::world::events::{handle_event, Event};
    use crate::world::{build_initial_schedule, setup_world, Calibration, WorldState};

    /// `scenario`'s world at time zero, flushing on `workers` workers.
    fn world(scenario: &Scenario, workers: usize) -> (WorldState, Engine<Event>) {
        let calibration = std::sync::Arc::new(Calibration::new(scenario));
        let mut world = setup_world(scenario, Telemetry::off(), calibration);
        world.pending.fixed_workers = Some(workers);
        let engine = build_initial_schedule(&mut world);
        (world, engine)
    }

    /// Each worker of a flush fills its distance field once per beacon
    /// frame with a receiver it owns, however many of its receivers the
    /// frame updates: here with a flush before every event, the most
    /// flushes a run can make.
    #[test]
    fn each_worker_fills_its_field_once_per_frame_it_serves() {
        let mut b = Scenario::builder();
        b.robots(12)
            .equipped(4)
            .duration(SimDuration::from_secs(300));
        let scenario = b.build();
        for workers in 1..=3 {
            let (mut world, mut engine) = world(&scenario, workers);
            let mut served = vec![0; workers];
            let mut updates = 0;
            engine.run(&mut world, |engine, world, event| {
                for (w, n) in served.iter_mut().enumerate() {
                    *n += world.pending.log.frames_served(w, workers) as u64;
                }
                updates += world.pending.log.len() as u64;
                flush(world);
                handle_event(engine, world, event);
            });
            let fills: Vec<u64> = world.pending.fields.iter().map(|f| f.fills()).collect();
            assert_eq!(fills, served, "{workers} workers");
            assert!(
                updates > 2 * served.iter().sum::<u64>(),
                "receivers share fields: {updates} updates, {served:?} fills"
            );
        }
    }

    /// The gridless estimators read only a beacon's position: a
    /// paper-scale run logs no beacon, so it never flushes, fills no
    /// field, spawns no worker and samples no radial profile, even where
    /// every flush would spread over two workers.
    #[test]
    fn gridless_runs_fill_no_field_and_build_no_profile() {
        for algorithm in [RfAlgorithm::Ekf, RfAlgorithm::Multilateration] {
            let scenario = Scenario::builder().rf_algorithm(algorithm).build();
            let (spawns, builds) = (batch_worker_spawns(), radial_profile_builds());
            let (mut world, mut engine) = world(&scenario, 2);
            engine.run(&mut world, |engine, world, event| {
                handle_event(engine, world, event);
                assert!(world.pending.log.is_empty(), "{algorithm} logged a beacon");
            });
            assert!(world.traffic.beacons_received > 0, "{algorithm}");
            assert!(world.pending.fields.is_empty(), "{algorithm} flushed");
            assert_eq!(batch_worker_spawns(), spawns, "{algorithm}");
            assert_eq!(radial_profile_builds(), builds, "{algorithm}");
        }
    }

    /// A run's results do not depend on how many workers apply its
    /// beacons: on 1, 2 and 3 workers, with and without the chaos preset's
    /// faults, the metrics, a capture half-way and the Full trace are the
    /// same bytes.
    #[test]
    fn results_do_not_depend_on_the_flush_worker_count() {
        let mut b = Scenario::builder();
        b.robots(20)
            .equipped(10)
            .duration(SimDuration::from_secs(600));
        let calm = b.build();
        let mut chaos = calm.clone();
        chaos.faults =
            FaultPlan::preset("chaos", chaos.duration, chaos.num_robots).expect("preset");
        chaos.validate().expect("valid scenario");
        for scenario in [calm, chaos] {
            let outputs: Vec<(Vec<u8>, Vec<u8>, String)> = (1..=3)
                .map(|workers| {
                    let telemetry = Telemetry::new(TelemetryLevel::Full);
                    let mut run = SimRun::new(&scenario, telemetry).flushing_on(workers);
                    run.run_until(SimTime::ZERO + SimDuration::from_secs(300));
                    let capture = run.capture();
                    let (metrics, telemetry) = run.finish();
                    (encode_metrics(&metrics), capture, telemetry.to_jsonl(false))
                })
                .collect();
            assert!(outputs[0].2.contains("\"grid_update\""), "a Full trace");
            for (i, out) in outputs.iter().enumerate().skip(1) {
                let workers = i + 1;
                assert!(out.0 == outputs[0].0, "metrics on {workers} workers");
                assert!(out.1 == outputs[0].1, "capture on {workers} workers");
                assert!(out.2 == outputs[0].2, "trace on {workers} workers");
            }
        }
    }
}
